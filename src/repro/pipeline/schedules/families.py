"""The schedule-family registry: one record per schedule kind.

Everything the repo knows about a kind lives in its :class:`ScheduleFamily`
— how a plan's stage costs become a :class:`~repro.pipeline.tasks.Schedule`,
how many micro-batches each stage keeps live under it (the Section 4.2
in-flight rule), whether that count is exact or only an upper bound, and
whether the family needs a chunked (interleaved) plan. Every site that
lists kinds or dispatches on one — ``build_schedule_for_plan``,
``in_flight_micro_batches``, the memory audit, the CLI choices and
``adapipe validate`` — reads :data:`FAMILIES`, so adding a family is one
entry here plus its tests (docs/USAGE.md, "Adding a schedule family").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.pipeline.schedules.chimera import chimera_schedule
from repro.pipeline.schedules.gpipe import gpipe_schedule
from repro.pipeline.schedules.interleaved import interleaved_1f1b_schedule
from repro.pipeline.schedules.onef1b import one_f_one_b_schedule
from repro.pipeline.schedules.overlapped import one_f_one_b_overlapped
from repro.pipeline.schedules.twobp import one_f_one_b_2bp
from repro.pipeline.tasks import Schedule, StageCosts

#: ``(stage_costs, num_micro_batches, num_devices, hop_time, label)`` ->
#: schedule over ``num_devices`` pipeline ranks (fewer than stages only for
#: chunked families). ``label`` names the 1F1B-family schedules (a plan's
#: method, e.g. ``"1F1B"``); the other builders keep their own names.
Builder = Callable[[Sequence[StageCosts], int, int, float, str], Schedule]

#: ``(stage, num_stages, num_micro_batches, num_devices)`` -> in-flight
#: micro-batches at the stage's peak. Arguments arrive range-checked.
InFlightRule = Callable[[int, int, int, Optional[int]], int]


@dataclass(frozen=True)
class ScheduleFamily:
    """One schedule kind (its :data:`FAMILIES` key): builder, in-flight
    rule and audit verdict.

    Attributes:
        build: see :data:`Builder`.
        in_flight: see :data:`InFlightRule`.
        exact: the memory audit asserts model == simulator for this
            family (today the 1F1B family); when False it asserts only
            that the model is conservative.
        chunked: the family runs a chunked plan (``chunks * devices``
            global stages); audits build that plan separately instead of
            reusing an un-chunked one.
    """

    build: Builder
    in_flight: InFlightRule
    exact: bool
    chunked: bool = False


def _one_f_one_b_in_flight(
    stage: int, num_stages: int, num_micro_batches: int, num_devices: Optional[int]
) -> int:
    return min(num_micro_batches, num_stages - stage)


def _gpipe_in_flight(
    stage: int, num_stages: int, num_micro_batches: int, num_devices: Optional[int]
) -> int:
    return num_micro_batches


def _chimera_in_flight(
    weight: int,
    stage: int,
    num_stages: int,
    num_micro_batches: int,
    num_devices: Optional[int],
) -> int:
    # The greedy list scheduler caps each direction's window at
    # min(p - s, p / 2) scheduling entities; ChimeraD's doubled forward
    # entity pins ``weight`` micro-batches of activations.
    entities_per_pipe = -(-num_micro_batches // (2 * weight))  # ceil: upper bound
    return weight * min(
        entities_per_pipe, num_stages - stage, max(1, num_stages // 2)
    )


@lru_cache(maxsize=None)
def _interleaved_stage_peaks(
    num_devices: int, num_chunks: int, num_micro_batches: int
) -> Tuple[int, ...]:
    """Exact per-global-stage in-flight peaks of the interleaved schedule.

    The Megatron task order is fixed combinatorics (warmup of
    ``2(p - d - 1) + (v - 1)p`` virtual forwards, then strict 1F1B
    alternation), independent of task durations, so the peak number of
    live micro-batches per stage is obtained by replaying the index
    arithmetic — no simulation needed. Forward and backward of a
    micro-batch run on the same device and devices execute in list order,
    so this dispatch-counter peak equals the simulator's measured
    activation-liveness peak (`stage_in_flight_peaks`).
    """
    p, v, n = num_devices, num_chunks, num_micro_batches
    total_virtual = n * v
    peaks = [0] * (v * p)
    for device in range(p):
        live = [0] * v
        warmup = min(2 * (p - device - 1) + (v - 1) * p, total_virtual)

        def start_forward(k: int) -> None:
            chunk = (k // p) % v
            live[chunk] += 1
            stage = chunk * p + device
            if live[chunk] > peaks[stage]:
                peaks[stage] = live[chunk]

        for k in range(warmup):
            start_forward(k)
        for i in range(total_virtual - warmup):
            start_forward(warmup + i)
            live[v - 1 - (i // p) % v] -= 1  # backward i retires its chunk
        # The drain phase only runs backwards; peaks cannot rise further.
    return tuple(peaks)


def _interleaved_in_flight(
    stage: int, num_stages: int, num_micro_batches: int, num_devices: Optional[int]
) -> int:
    if num_devices is None or num_devices < 1 or num_stages % num_devices:
        raise ValueError(
            f"interleaved needs num_devices dividing {num_stages} stages, "
            f"got {num_devices}"
        )
    chunks = num_stages // num_devices
    return _interleaved_stage_peaks(num_devices, chunks, num_micro_batches)[stage]


# The two DAG-changing 1F1B variants keep 1F1B's exact count (ALGORITHMS.md
# §13): 2BP holds activations until grad-weight, but defers grad-weights
# only into the drain, where liveness already declines; overlapped
# recomputation adds tasks that neither pin nor release activations (the
# recompute buffer is separate, ``StageCosts.buffer_bytes``).
#: Every schedule family by kind, in the canonical kind order.
FAMILIES: Dict[str, ScheduleFamily] = {
    "1f1b": ScheduleFamily(
        lambda costs, n, devices, hop, label: one_f_one_b_schedule(
            costs, n, hop_time=hop, name=label
        ),
        _one_f_one_b_in_flight,
        exact=True,
    ),
    "2bp": ScheduleFamily(
        lambda costs, n, devices, hop, label: one_f_one_b_2bp(
            costs, n, hop_time=hop, name=f"{label}-2BP"
        ),
        _one_f_one_b_in_flight,
        exact=True,
    ),
    "overlap": ScheduleFamily(
        lambda costs, n, devices, hop, label: one_f_one_b_overlapped(
            costs, n, hop_time=hop, name=f"{label}-OR"
        ),
        _one_f_one_b_in_flight,
        exact=True,
    ),
    "gpipe": ScheduleFamily(
        lambda costs, n, devices, hop, label: gpipe_schedule(
            costs, n, hop_time=hop
        ),
        _gpipe_in_flight,
        exact=False,
    ),
    "chimera": ScheduleFamily(
        lambda costs, n, devices, hop, label: chimera_schedule(
            costs, n, hop_time=hop
        ),
        partial(_chimera_in_flight, 1),
        exact=False,
    ),
    "chimerad": ScheduleFamily(
        lambda costs, n, devices, hop, label: chimera_schedule(
            costs, n, hop_time=hop, forward_doubling=True
        ),
        partial(_chimera_in_flight, 2),
        exact=False,
    ),
    "interleaved": ScheduleFamily(
        lambda costs, n, devices, hop, label: interleaved_1f1b_schedule(
            costs, n, devices, hop_time=hop
        ),
        _interleaved_in_flight,
        exact=False,
        chunked=True,
    ),
}

#: The paper's schedule — the kind used wherever none is given.
DEFAULT_KIND = "1f1b"


def schedule_family(kind: str) -> ScheduleFamily:
    """The family registered as ``kind``; ``ValueError`` when unknown."""
    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(
            f"unknown schedule kind {kind!r}; pick from {tuple(FAMILIES)}"
        )
    return family
