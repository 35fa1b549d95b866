"""The benchmark's three workloads.

Each workload is a closed loop with one client: a fixed sequence of
requests ("a pass"), each starting when the previous one ends. Only calls
into the program's public functions are timed; every output is checked
against ``goldens.json`` (see ``Workload.expect``) outside the timed
region.

* ``sweep-cold``: the GPT-3 175B Table-3 strategy sweep, one request.
* ``replan-warm``: elastic warm-start replans on a heterogeneous pool from
  a persisted evaluation cache.
* ``evaluate-families``: ``evaluate_plan`` with a seeded perturbation
  ensemble on every (plan, schedule kind) pair.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter
from contextlib import nullcontext
from statistics import fmean
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import ParallelConfig, TrainingConfig
from repro.core import search
from repro.core.evaluate import evaluate_plan
from repro.core.isomorphism import StageEvalCache
from repro.core.orchestrator import load_cache_file, per_sample_time
from repro.core.replan import pool_with_drift, pool_without_rank, replan
from repro.core.robust import global_ensemble_cache
from repro.core.search import PlannerContext, enumerate_parallel_strategies
from repro.core.serialize import plan_signature
from repro.core.sweep import SweepConfig, run_sweep, strategy_lower_bound
from repro.hardware.cluster import cluster_a
from repro.hardware.device import a100_80gb, derated
from repro.model.spec import gpt3_175b, llama2_70b
from repro.pipeline.perturb import PerturbationSpec
from repro.pipeline.simulator import global_simulation_cache, simulate
from repro.profiler.memory import SCHEDULE_KINDS

from hostspeed import HostClock
from tracing import Tracer

GIB = 1024**3
MEMORY_LIMIT = 70 * GIB


def plan_digest(plan) -> str:
    payload = json.dumps(plan_signature(plan), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def sweep_record(result) -> Dict:
    """Digest and selection key (per-sample time, enumeration index) of a
    sweep's best plan."""
    best = result.best
    if best is None:
        return {"parallel": None}
    index = [report.parallel for report in result.stats.reports].index(best.parallel)
    return {
        "parallel": str(best.parallel),
        "digest": plan_digest(best),
        "key": [float.hex(per_sample_time(best)), index],
    }


def samples_per_s(plan, iteration_time: float) -> float:
    return plan.train.global_batch_size / iteration_time


def harmonic_mean(values: List[float]) -> float:
    return len(values) / sum(1.0 / v for v in values)


def recompute_share(plan, ctx: PlannerContext) -> float:
    """Share of the optional (recomputable) unit instances the plan recomputes."""
    total = saved = 0
    for stage in plan.stages:
        optional: Counter = Counter()
        for layer in ctx.layers[stage.layer_start : stage.layer_end]:
            for unit in ctx.profiler.profile_layer(layer.kind).units:
                if not unit.always_saved:
                    optional[unit.name] += 1
        total += sum(optional.values())
        saved += sum(
            min(stage.saved_unit_counts.get(name, 0), count)
            for name, count in optional.items()
        )
    return 1.0 - saved / total if total else 0.0


class Ledger:
    """Operations attempted and failed; a failure is an exception or a
    failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)


class Workload:
    """One workload: ``setup`` once, then passes of a fixed request list."""

    name = ""
    setup_repeats = 1

    def __init__(
        self,
        seed: int,
        clock: HostClock,
        ledger: Ledger,
        goldens: Dict,
        out_dir: str,
        tracer: Optional[Tracer] = None,
        record: bool = False,
    ) -> None:
        self.seed = seed
        self.clock = clock
        self.ledger = ledger
        self.goldens = goldens.get(self.name, {})
        self.observed: Dict = {}
        self.out_dir = out_dir
        self.tracer = tracer
        self.record_mode = record
        #: (label, raw seconds, normalised seconds) per request of the
        #: latest pass.
        self.requests: List[Tuple[str, float, float]] = []
        #: Program counters of the latest pass (per-layer metrics).
        self.counters: Dict[str, float] = {}

    # -- helpers -----------------------------------------------------------

    def expect(self, key: str, value) -> List[str]:
        """Compare an output with its golden (or record it in record mode)."""
        self.observed[key] = value
        if self.record_mode:
            return []
        golden = self.goldens.get(key)
        if golden != value:
            return [f"{key} = {value!r}, golden {golden!r}"]
        return []

    def _set_request(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.request = label

    def request(
        self, label: str, fn: Callable[[], object], check: Callable[[object], List[str]]
    ) -> object:
        """Time one request and check its output; returns the output."""
        self._set_request(label)
        span = (
            self.tracer.span(f"request.{label.split('/')[-1]}", "request")
            if self.tracer is not None
            else nullcontext()
        )
        try:
            with span:
                result, raw, norm = self.clock.timed(fn)
        except Exception as exc:  # a failed operation, not a crashed run
            self._set_request("check")
            self.ledger.record(label, [f"{type(exc).__name__}: {exc}"])
            self.requests.append((label, 0.0, 0.0))
            return None
        self.requests.append((label, raw, norm))
        self._set_request("check")
        try:
            problems = check(result)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.ledger.record(label, problems)
        return result

    # -- interface ---------------------------------------------------------

    def setup(self) -> float:
        """Prepare the workload; returns normalised set-up seconds."""
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def plan_samples_per_s(self) -> float:
        raise NotImplementedError

    def plan_shares(self) -> Tuple[float, float]:
        """(bubble share, recompute share) of the plans the run outputs."""
        raise NotImplementedError

    def extra_traced(
        self, untraced: Optional[Tuple[float, float]], deadline: float
    ) -> Dict[str, float]:
        """Extra measurements of the traced run, made untraced after its
        passes. ``untraced`` is the untraced pass's (raw, normalised)
        seconds, if it ran; skip what would end past ``deadline``
        (``time.monotonic()``)."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


def _hit_latency(ctx: PlannerContext, placement=None, rounds: int = 40) -> float:
    """Seconds per ``StageEvaluator.evaluate`` call answered by the
    evaluator's own cache, measured by replaying a small grid."""
    evaluator = ctx.stage_evaluator(placement)
    p = ctx.parallel.pipeline_parallel
    width = min(8, len(ctx.layers))
    grid = [
        (s, i, j) for s in range(p) for i in range(width) for j in range(i, width)
    ]
    for s, i, j in grid:
        evaluator.evaluate(s, i, j)
    started = time.perf_counter()
    for _ in range(rounds):
        for s, i, j in grid:
            evaluator.evaluate(s, i, j)
    return (time.perf_counter() - started) / (rounds * len(grid))


class SweepCold(Workload):
    """GPT-3 175B Table-3 sweep: cluster A, 64 GPUs, seq 4096, batch 128,
    70 GiB, serial, pruning and the shared evaluation cache on."""

    name = "sweep-cold"
    setup_repeats = 3

    def setup(self) -> float:
        return self.clock.timed(self._prepare)[2]

    def _prepare(self) -> None:
        # What a caller does before sweeping: build the inputs, enumerate
        # the strategies and price each one's context and admissible bound.
        # run_sweep repeats the last two; timing them here lets work moved
        # into context construction show in setup_s.
        self.cluster = cluster_a(num_nodes=8)
        self.spec = gpt3_175b()
        self.train = TrainingConfig(sequence_length=4096, global_batch_size=128)
        strategies = enumerate_parallel_strategies(
            64, self.cluster, self.spec, self.train
        )
        self.contexts = [
            PlannerContext(
                self.cluster, self.spec, self.train, parallel,
                memory_limit_bytes=MEMORY_LIMIT,
            )
            for parallel in strategies
        ]
        self.bounds = [strategy_lower_bound(ctx) for ctx in self.contexts]

    def _sweep(self, workers: int, cache: StageEvalCache):
        return run_sweep(
            self.cluster,
            self.spec,
            self.train,
            64,
            planner=search.plan_adapipe,
            config=SweepConfig(
                workers=workers, min_parallel=1, prune=True, share_cache=True
            ),
            eval_cache=cache,
            memory_limit_bytes=MEMORY_LIMIT,
        )

    def run_pass(self, index: int) -> None:
        self.requests = []
        cache = StageEvalCache()
        self.result = self.request(
            f"p{index}/sweep",
            lambda: self._sweep(1, cache),
            lambda result: self.expect("best", sweep_record(result)),
        )
        if self.result is None:
            self.counters = {}
            return
        stats = self.result.stats
        best = self.result.best
        ctx = PlannerContext(
            self.cluster, self.spec, self.train, best.parallel,
            memory_limit_bytes=MEMORY_LIMIT, eval_cache=cache,
        )
        self.counters = {
            "isomorphism.hits": stats.eval_cache_hits,
            "isomorphism.misses": stats.eval_cache_misses,
            "isomorphism.cache_entries": len(cache),
            "isomorphism.hit_latency": _hit_latency(ctx),
            "search.placements": 0,
            "sweep.strategies_planned": stats.strategies_planned,
            "sweep.strategies_pruned": stats.strategies_pruned,
        }
        self.best_ctx = ctx

    def _best_evaluation(self):
        return evaluate_plan(self.result.best, self.cluster)

    def plan_samples_per_s(self) -> float:
        evaluation = self._best_evaluation()
        return samples_per_s(self.result.best, evaluation.iteration_time)

    def plan_shares(self) -> Tuple[float, float]:
        evaluation = self._best_evaluation()
        return (
            evaluation.simulation.bubble_ratio,
            recompute_share(self.result.best, self.best_ctx),
        )

    def extra_traced(
        self, untraced: Optional[Tuple[float, float]], deadline: float
    ) -> Dict[str, float]:
        """The same sweep at ``workers=2`` against the untraced serial pass."""
        if untraced is None or time.monotonic() + 0.7 * untraced[0] > deadline:
            return {}
        serial = untraced[1]
        result, _, norm = self.clock.timed(
            lambda: self._sweep(2, StageEvalCache()), sample_inside=False
        )
        problems = self.expect("best", sweep_record(result))
        self.ledger.record("workers2/sweep", problems)
        return {"sweep.speedup_2w": serial / norm}


# ---------------------------------------------------------------------------

#: The pool slot that is derated (x1.3) in the base pool: it leaves in
#: ``leave`` and drifts further in ``drift-slow``; rank 0 drifts in ``drift``.
SLOW_RANK = 1
DRIFT_SLOWDOWN = 1.6


class ReplanWarm(Workload):
    """Llama 2 70B, seq 4096, batch 128 on a 4-rank A100 pool (one part
    x1.3) across 4 nodes: cold pooled sweep persisted to a cache file in
    set-up; each request loads the file and replans one elastic
    transition (the x1.3 rank leaves, rank 0 drifts to x1.6, the x1.3
    rank drifts to x1.6)."""

    name = "replan-warm"

    def setup(self) -> float:
        self.spec = llama2_70b()
        self.train = TrainingConfig(sequence_length=4096, global_batch_size=128)
        base = a100_80gb()
        pool = (base, derated(base, 1.3), base, base)
        self.cluster = cluster_a(4).with_device_pool(pool)
        self.scenarios = [
            ("leave", pool_without_rank(self.cluster, SLOW_RANK)),
            ("drift", pool_with_drift(self.cluster, 0, DRIFT_SLOWDOWN)),
            ("drift-slow", pool_with_drift(self.cluster, SLOW_RANK, DRIFT_SLOWDOWN)),
        ]
        self.cache_path = os.path.join(self.out_dir, f"replan-cache-{os.getpid()}.json")
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)
        cold, _, seconds = self.clock.timed(
            lambda: run_sweep(
                self.cluster,
                self.spec,
                self.train,
                32,
                planner=search.plan_adapipe,
                config=SweepConfig(workers=1, cache_path=self.cache_path),
                memory_limit_bytes=MEMORY_LIMIT,
            )
        )
        self.cold = cold
        self.ledger.record("setup/cold", self.expect("cold", sweep_record(cold)))
        return seconds

    def _replan(self, changed):
        cache = StageEvalCache()
        cache.merge_entries(load_cache_file(self.cache_path))
        result = replan(
            self.cold.best,
            changed,
            self.spec,
            eval_cache=cache,
            planner=search.plan_adapipe,
            memory_limit_bytes=MEMORY_LIMIT,
        )
        return result, len(cache)

    def run_pass(self, index: int) -> None:
        self.requests = []
        self.results = {}
        counters: Counter = Counter()
        for label, changed in self.scenarios:
            outcome = self.request(
                f"p{index}/{label}",
                lambda changed=changed: self._replan(changed),
                lambda outcome, label=label: self.expect(
                    label, sweep_record(outcome[0].sweep)
                ),
            )
            if outcome is None:
                continue
            result, entries = outcome
            self.results[label] = (result, changed)
            stats = result.sweep.stats
            counters["isomorphism.hits"] += stats.eval_cache_hits
            counters["isomorphism.misses"] += stats.eval_cache_misses
            counters["isomorphism.cache_entries"] = max(
                counters["isomorphism.cache_entries"], entries
            )
            counters["search.placements"] += sum(
                int(plan.metadata.get("placement_searched", 0))
                for plan in result.plans
            )
            counters["sweep.strategies_planned"] += stats.strategies_planned
            counters["sweep.strategies_pruned"] += stats.strategies_pruned
            counters["replan.evals_reused"] += result.evals_reused
            counters["replan.evals_recomputed"] += result.evals_recomputed
        counters["orchestrator.cache_file_mb"] = (
            os.path.getsize(self.cache_path) / 1e6
        )
        if "drift" in self.results:
            result, changed = self.results["drift"]
            ctx = PlannerContext(
                changed, self.spec, self.train, result.best.parallel,
                memory_limit_bytes=MEMORY_LIMIT,
                eval_cache=StageEvalCache(),
            )
            counters["isomorphism.hit_latency"] = _hit_latency(
                ctx, ctx.canonical_placement()
            )
        self.counters = dict(counters)

    def _evaluations(self):
        return [
            (result.best, evaluate_plan(result.best, changed))
            for result, changed in self.results.values()
        ]

    def plan_samples_per_s(self) -> float:
        return harmonic_mean(
            [samples_per_s(plan, ev.iteration_time) for plan, ev in self._evaluations()]
        )

    def plan_shares(self) -> Tuple[float, float]:
        evaluations = self._evaluations()
        bubble = fmean(ev.simulation.bubble_ratio for _, ev in evaluations)
        shares = []
        for (result, changed), (plan, _) in zip(self.results.values(), evaluations):
            ctx = PlannerContext(
                changed, self.spec, self.train, plan.parallel,
                memory_limit_bytes=MEMORY_LIMIT,
            )
            shares.append(recompute_share(plan, ctx))
        return bubble, fmean(shares)

    def confirm_cold(self) -> List[str]:
        """Record mode: each warm replan must equal a cold sweep on the
        changed pool."""
        problems = []
        for label, (result, changed) in self.results.items():
            per_rank = (
                self.cold.best.parallel.num_devices
                // self.cold.best.parallel.pipeline_parallel
            )
            cold = run_sweep(
                changed,
                self.spec,
                self.train,
                per_rank * len(changed.device_pool),
                planner=search.plan_adapipe,
                config=SweepConfig(workers=1),
                memory_limit_bytes=MEMORY_LIMIT,
            )
            if sweep_record(cold) != sweep_record(result.sweep):
                problems.append(f"{label}: warm replan differs from a cold sweep")
        return problems

    def close(self) -> None:
        if getattr(self, "cache_path", None) and os.path.exists(self.cache_path):
            os.remove(self.cache_path)


# ---------------------------------------------------------------------------

#: (label, model, nodes of cluster A, (t, p, d), sequence length, batch).
FAMILY_PLANS = (
    ("gpt3-175b", gpt3_175b, 8, (8, 4, 2), 4096, 128),
    ("llama2-70b", llama2_70b, 4, (4, 8, 1), 4096, 128),
    ("llama2-70b-16k", llama2_70b, 4, (4, 8, 1), 16384, 32),
)

ROBUST_DRAWS = 32


class EvaluateFamilies(Workload):
    """``evaluate_plan`` with a K=32 seeded perturbation ensemble on every
    (paper plan, schedule kind) pair; no search runs."""

    name = "evaluate-families"

    def setup(self) -> float:
        self.plans = []
        seconds = 0.0
        for label, model, nodes, (t, p, d), seq, batch in FAMILY_PLANS:
            cluster = cluster_a(nodes)
            ctx = PlannerContext(
                cluster,
                model(),
                TrainingConfig(sequence_length=seq, global_batch_size=batch),
                ParallelConfig(t, p, d),
                memory_limit_bytes=MEMORY_LIMIT,
            )
            plan, _, norm = self.clock.timed(lambda ctx=ctx: search.plan_adapipe(ctx))
            seconds += norm
            self.ledger.record(
                f"setup/{label}",
                self.expect(f"plan/{label}", plan_digest(plan)),
            )
            self.plans.append((label, plan, cluster, ctx))
        return seconds

    def _perturbation(self, rng: random.Random, plan) -> PerturbationSpec:
        straggler = rng.randrange(plan.parallel.pipeline_parallel)
        return PerturbationSpec.build(
            {straggler: round(rng.uniform(1.05, 1.5), 3)},
            jitter_sigma=0.05,
            seed=rng.randrange(2**31),
        )

    def _check(self, key: str, evaluation, spec: PerturbationSpec) -> List[str]:
        metadata = evaluation.plan.metadata
        nominal = metadata["robust_nominal_time"]
        simulated = simulate(evaluation.simulation.schedule, cache=False)
        problems = self.expect(
            key,
            {
                "oom": evaluation.oom,
                "nominal": float.hex(nominal),
                "iteration_time": float.hex(evaluation.simulation.iteration_time),
            },
        )
        if nominal != simulated.iteration_time:
            problems.append(
                f"ensemble nominal row {nominal!r} != simulate() "
                f"{simulated.iteration_time!r}"
            )
        if metadata["robust_spec_digest"] != spec.content_digest():
            problems.append("ensemble ran under another perturbation spec")
        if metadata["robust_draws"] != ROBUST_DRAWS:
            problems.append(f"ensemble has {metadata['robust_draws']} draws")
        return problems

    def run_pass(self, index: int) -> None:
        self.requests = []
        self.evaluations = []
        # Every pass starts from empty program caches, so passes are alike.
        sims = global_simulation_cache()
        ensembles = global_ensemble_cache()
        sims.clear()
        ensembles.clear()
        rng = random.Random(f"{self.seed}/{index}")
        for label, plan, cluster, _ in self.plans:
            for kind in SCHEDULE_KINDS:
                spec = self._perturbation(rng, plan)
                evaluation = self.request(
                    f"p{index}/{label}/{kind}",
                    lambda plan=plan, cluster=cluster, kind=kind, spec=spec: (
                        evaluate_plan(
                            plan,
                            cluster,
                            kind,
                            perturbation=spec,
                            robust_draws=ROBUST_DRAWS,
                        )
                    ),
                    lambda ev, key=f"{label}/{kind}", spec=spec: self._check(
                        key, ev, spec
                    ),
                )
                if evaluation is not None:
                    self.evaluations.append((plan, evaluation))
        self.counters = {
            "simulator.cache_hit_rate": sims.hit_rate,
            "robust.ensemble_cache_hit_rate": ensembles.hit_rate,
        }

    def plan_samples_per_s(self) -> float:
        return harmonic_mean(
            [
                samples_per_s(plan, ev.simulation.iteration_time)
                for plan, ev in self.evaluations
            ]
        )

    def plan_shares(self) -> Tuple[float, float]:
        bubble = fmean(ev.simulation.bubble_ratio for _, ev in self.evaluations)
        recompute = fmean(recompute_share(plan, ctx) for _, plan, _, ctx in self.plans)
        return bubble, recompute


WORKLOADS = {
    workload.name: workload for workload in (SweepCold, ReplanWarm, EvaluateFamilies)
}
