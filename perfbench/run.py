"""Planner benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload replan-warm --seed 1 --trace 1
    python3 perfbench/run.py --workload evaluate-families --record

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus a Chrome trace and a per-layer table under
``perfbench/out/``), ``--record`` re-derives ``perfbench/goldens.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")

#: A run must end within 180 s; traced-run extras that would end past
#: this many seconds after start are skipped and reported as 0.
TRACED_DEADLINE_S = 160.0

#: Fresh interpreters timed per run for the import share of ``setup_s``.
IMPORT_PROBES = 3
IMPORT_PROBE = "import repro.core.sweep, repro.core.replan, repro.core.evaluate"

LAYERS = (
    "profiler",
    "isomorphism",
    "recompute_dp",
    "partition_dp",
    "search",
    "sweep",
    "orchestrator",
    "replan",
    "schedules",
    "simulator",
    "memory_audit",
    "robust",
)


def _schedule_attrs(schedule, plan, cluster, schedule_kind="1f1b", comm=None):
    tasks = sum(len(device) for device in schedule.device_tasks)
    return {"kind": schedule_kind, "tasks": tasks}


def _audit_attrs(report, *args, **kwargs):
    return {
        "exact": sum(1 for flight in report.stages if flight.exact),
        "flights": len(report.stages),
    }


def _robust_attrs(report, *args, **kwargs):
    return {"rows": 2 + report.draws + len(report.device_criticality)}


#: (target, layer, options): the layer entry points a traced run wraps.
WRAPS = (
    ("repro.profiler.profiler:Profiler.profile_layer", "profiler", {"count_only": True}),
    ("repro.core.isomorphism:StageEvaluator._evaluate_uncached", "isomorphism", {}),
    ("repro.core.isomorphism:StageEvalCache.merge_entries", "isomorphism", {}),
    ("repro.core.recompute_dp:optimize_stage_recompute", "recompute_dp", {}),
    ("repro.core.partition_dp:optimize_partition", "partition_dp", {}),
    ("repro.core.search:plan_adapipe", "search", {}),
    ("repro.core.placement:enumerate_placements", "search", {}),
    ("repro.core.sweep:run_sweep", "sweep", {}),
    ("repro.core.sweep:strategy_lower_bound", "sweep", {}),
    ("repro.core.orchestrator:execute_sweep", "orchestrator", {}),
    ("repro.core.orchestrator:save_cache_file", "orchestrator", {}),
    ("repro.core.orchestrator:load_cache_file", "orchestrator", {}),
    ("repro.core.replan:replan", "replan", {}),
    ("repro.core.evaluate:build_schedule_for_plan", "schedules", {"attrs": _schedule_attrs}),
    ("repro.pipeline.simulator:simulate_with_info", "simulator", {}),
    ("repro.pipeline.simulator:simulate", "simulator", {}),
    ("repro.pipeline.memory_audit:audit_schedule_memory", "memory_audit", {"attrs": _audit_attrs}),
    ("repro.core.robust:evaluate_robustness", "robust", {"attrs": _robust_attrs}),
)


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="re-derive this workload's goldens"
    )
    return parser.parse_args(argv)


def _import_probe(clock) -> float:
    """Normalised seconds for a fresh interpreter to import the planner."""
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", IMPORT_PROBE]
    _, _, norm = clock.timed(
        lambda: subprocess.run(command, env=env, cwd=ROOT, check=True)
    )
    return norm


def _passes(workload, seconds: float) -> List[Dict]:
    """Whole passes until ``seconds`` of (normalised) request time are measured."""
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        workload.run_pass(len(passes))
        raw = sum(r for _, r, _ in workload.requests)
        norm = sum(n for _, _, n in workload.requests)
        passes.append({"raw": raw, "norm": norm})
        # Normalised time decides, so the pass count does not follow host drift.
        measured += norm
    return passes


def _per_layer(tracer, workload, prefix: str, counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of the traced pass whose requests start ``prefix``.

    Seconds are normalised with each request's own host-speed factor, so
    the layer self times plus the remainder sum to the traced ``run_s``.
    """
    from repro.profiler.memory import SCHEDULE_KINDS
    from tracing import ATTRS, END, NAME, REQUEST, START

    factor = {label: norm / raw for label, raw, norm in workload.requests if raw > 0}
    spans = tracer.spans_of(prefix)
    run_s = sum(norm for _, _, norm in workload.requests)

    def seconds(name: str) -> float:
        return sum(
            (s[END] - s[START]) * factor.get(s[REQUEST], 0.0)
            for s in spans
            if s[NAME] == name
        )

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    def attr_sum(name: str, key: str, kind: Optional[str] = None) -> float:
        return sum(
            s[ATTRS][key]
            for s in spans
            if s[NAME] == name and s[ATTRS] and (kind is None or s[ATTRS]["kind"] == kind)
        )

    self_by_layer: Dict[str, float] = defaultdict(float)
    for request, times in tracer.self_times_by_request(prefix).items():
        for layer, own in times.items():
            self_by_layer[layer] += own * factor.get(request, 0.0)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = self_by_layer.get(layer, 0.0)
    metrics["self_s.remainder"] = run_s - sum(
        metrics[f"self_s.{layer}"] for layer in LAYERS
    )
    metrics["trace.run_s"] = run_s

    c = workload.counters
    hits = c.get("isomorphism.hits", 0)
    misses = c.get("isomorphism.misses", 0)
    metrics["profiler.profile_layer.calls"] = counts.get("profiler.profile_layer", 0)
    metrics["isomorphism.evaluate.calls"] = hits + misses
    metrics["isomorphism.misses"] = misses
    metrics["isomorphism.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["isomorphism.miss_s"] = seconds("isomorphism._evaluate_uncached")
    run_factor = run_s / max(sum(r for _, r, _ in workload.requests), 1e-12)
    metrics["isomorphism.hit_s"] = hits * c.get("isomorphism.hit_latency", 0.0) * run_factor
    metrics["isomorphism.cache_entries"] = c.get("isomorphism.cache_entries", 0)
    metrics["recompute_dp.calls"] = calls("recompute_dp.optimize_stage_recompute")
    metrics["recompute_dp.s"] = seconds("recompute_dp.optimize_stage_recompute")
    metrics["partition_dp.calls"] = calls("partition_dp.optimize_partition")
    metrics["partition_dp.self_s"] = self_by_layer.get("partition_dp", 0.0)
    metrics["search.plan_adapipe.calls"] = calls("search.plan_adapipe")
    metrics["search.placements"] = c.get("search.placements", 0)
    metrics["sweep.strategies_planned"] = c.get("sweep.strategies_planned", 0)
    metrics["sweep.strategies_pruned"] = c.get("sweep.strategies_pruned", 0)
    metrics["sweep.bound_s"] = seconds("sweep.strategy_lower_bound")
    metrics["orchestrator.cache_save_s"] = sum(
        (s[END] - s[START]) for s in tracer.spans_of("setup")
        if s[NAME] == "orchestrator.save_cache_file"
    ) * run_factor
    metrics["orchestrator.cache_load_s"] = seconds("orchestrator.load_cache_file")
    metrics["orchestrator.cache_file_mb"] = c.get("orchestrator.cache_file_mb", 0.0)
    reused = c.get("replan.evals_reused", 0)
    recomputed = c.get("replan.evals_recomputed", 0)
    metrics["replan.evals_reused"] = reused
    metrics["replan.evals_recomputed"] = recomputed
    metrics["replan.reuse_rate"] = (
        reused / (reused + recomputed) if reused + recomputed else 0.0
    )
    for kind in SCHEDULE_KINDS:
        metrics[f"schedules.build_s.{kind}"] = sum(
            (s[END] - s[START]) * factor.get(s[REQUEST], 0.0)
            for s in spans
            if s[NAME] == "schedules.build_schedule_for_plan"
            and s[ATTRS]
            and s[ATTRS]["kind"] == kind
        )
        metrics[f"schedules.tasks.{kind}"] = attr_sum(
            "schedules.build_schedule_for_plan", "tasks", kind
        )
    metrics["simulator.simulate_s"] = seconds("simulator.simulate_with_info")
    metrics["simulator.cache_hit_rate"] = c.get("simulator.cache_hit_rate", 0.0)
    metrics["memory_audit.s"] = seconds("memory_audit.audit_schedule_memory")
    flights = attr_sum("memory_audit.audit_schedule_memory", "flights")
    metrics["memory_audit.exact_share"] = (
        attr_sum("memory_audit.audit_schedule_memory", "exact") / flights
        if flights
        else 0.0
    )
    metrics["robust.ensemble_s"] = seconds("robust.evaluate_robustness")
    metrics["robust.rows"] = attr_sum("robust.evaluate_robustness", "rows")
    metrics["robust.ensemble_cache_hit_rate"] = c.get(
        "robust.ensemble_cache_hit_rate", 0.0
    )
    metrics["host.raw_run_s"] = sum(r for _, r, _ in workload.requests)
    return metrics


def _outputs(ledger, fn):
    """Evaluate the run's output plans, an operation like any request."""
    try:
        value = fn()
    except Exception as exc:  # a failed operation, not a crashed run
        ledger.record("outputs", [f"{type(exc).__name__}: {exc}"])
        return None
    ledger.record("outputs", [])
    return value


def _layer_table(metrics: Dict[str, float], missing: List[str]) -> str:
    run_s = metrics["trace.run_s"]
    lines = [f"{'layer':<14} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS + ("remainder",):
        value = metrics[f"self_s.{layer}"]
        share = value / run_s if run_s else 0.0
        lines.append(f"{layer:<14} {value:>10.4f} {share:>7.1%}")
    lines.append(f"{'traced run_s':<14} {run_s:>10.4f}")
    lines.append("")
    for name in sorted(metrics):
        if not name.startswith("self_s."):
            lines.append(f"{name:<36} {metrics[name]:.6g}")
    for target in missing:
        lines.append(f"not measured: {target} (entry point not found)")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from hostspeed import HostClock
    from tracing import HOST_LAYER, Tracer
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"pick from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    goldens = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS) as handle:
            goldens = json.load(handle)
    elif not args.record:
        print(f"perfbench: missing {GOLDENS}; run with --record", file=sys.stderr)
        return 2

    clock = HostClock()
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        args.seed, clock, ledger, goldens, OUT, tracer=tracer, record=args.record
    )
    try:
        imports = [_import_probe(clock) for _ in range(IMPORT_PROBES)]
        if tracer is not None:
            for target, layer, options in WRAPS:
                tracer.wrap(target, layer, **options)
            clock.on_sample = lambda: tracer.span("host.sample", HOST_LAYER)
        setups = [workload.setup() for _ in range(workload.setup_repeats)]
        setup_s = median(imports) + median(setups)

        if args.record:
            workload.run_pass(0)
            problems = list(ledger.problems)
            if hasattr(workload, "confirm_cold"):
                problems += workload.confirm_cold()
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            goldens[workload.name] = workload.observed
            with open(GOLDENS, "w") as handle:
                json.dump(goldens, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(json.dumps({workload.name: workload.observed}, sort_keys=True))
            return 0

        if tracer is None:
            passes = _passes(workload, args.seconds)
            print(
                "perfbench: setup_s imports "
                + " ".join(f"{s:.3f}" for s in imports)
                + " set-up " + " ".join(f"{s:.3f}" for s in setups)
                + "; passes raw/norm "
                + " ".join(f"{p['raw']:.3f}/{p['norm']:.3f}" for p in passes)
                + "; kernel ms "
                + " ".join(f"{s * 1e3:.1f}" for s in clock.kernel_seconds()),
                file=sys.stderr,
            )
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (median(p["norm"] for p in passes), "s"),
                "plan_samples_per_s": (
                    _outputs(ledger, workload.plan_samples_per_s) or 0.0,
                    "samples/s",
                ),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
            }
        else:
            counts_before = dict(tracer.counts)
            workload.run_pass(0)
            counts = {
                name: tracer.counts[name] - counts_before.get(name, 0)
                for name in tracer.counts
            }
            layer = _per_layer(tracer, workload, "p0/", counts)
            bubble, recompute = _outputs(ledger, workload.plan_shares) or (0.0, 0.0)
            tracer.unpatch()
            deadline = started + TRACED_DEADLINE_S
            untraced: Optional[Tuple[float, float]] = None
            if time.monotonic() + 1.1 * layer["host.raw_run_s"] < deadline:
                workload.run_pass(1)
                untraced = (
                    sum(r for _, r, _ in workload.requests),
                    sum(n for _, _, n in workload.requests),
                )
            layer["trace.overhead_ratio"] = (
                layer["trace.run_s"] / untraced[1] if untraced else 0.0
            )
            layer["sweep.speedup_2w"] = 0.0
            layer.update(workload.extra_traced(untraced, deadline))
            layer["plan.bubble_share"] = bubble
            layer["plan.recompute_share"] = recompute
            layer["host.calibration_s"] = clock.spent
            stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
            tracer.write_chrome_trace(stem + ".trace.json")
            table = _layer_table(layer, tracer.missing)
            with open(stem + ".layers.txt", "w") as handle:
                handle.write(table + "\n")
            print(table, file=sys.stderr)
            metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    finally:
        if tracer is not None:
            tracer.unpatch()
        workload.close()

    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s")) or name.startswith(("self_s.", "schedules.build_s.")):
        return "s"
    if name.endswith(("_rate", "_share", "_ratio", "speedup_2w")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
