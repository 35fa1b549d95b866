"""Registries stay in step with the docs and the engine fuzz.

Schedule kinds need no such test: every site reads
``repro.pipeline.schedules.families.FAMILIES``. The other registries are
plain dicts/tuples/enums whose members must also appear somewhere the
code cannot reach — a doc table, a hand-written fuzz builder — so each
case below names the members missing from their counterpart.
"""

import random
from pathlib import Path

import pytest

from repro.baselines.methods import ALL_METHODS
from repro.core.robust import ROBUST_ENGINES
from repro.experiments.registry import EXPERIMENTS
from repro.pipeline.tasks import TaskKind
from repro.profiler.memory import SCHEDULE_KINDS
from tests.test_batched import _KINDS
from tests.test_sim_engine import _FUZZ_KINDS, _builders

REPO = Path(__file__).resolve().parents[1]


def _absent_from(relpath, names):
    text = (REPO / relpath).read_text()
    return [name for name in names if name not in text]


def _task_kinds_not_fuzzed():
    emitted = {
        task.key.kind
        for schedule in _builders(random.Random(0), 4, 8).values()
        for task in schedule.all_tasks()
    }
    return [kind.name for kind in TaskKind if kind not in emitted]


MISSING = {
    "experiments in EXPERIMENTS.md": lambda: _absent_from(
        "EXPERIMENTS.md", list(EXPERIMENTS)
    ),
    "methods in EXPERIMENTS.md": lambda: _absent_from(
        "EXPERIMENTS.md", list(ALL_METHODS)
    ),
    "robust engines in USAGE.md": lambda: _absent_from(
        "docs/USAGE.md", ROBUST_ENGINES
    ),
    "task kinds in the engine fuzz": _task_kinds_not_fuzzed,
    "schedule kinds in both fuzz lists": lambda: [
        kind
        for kind in SCHEDULE_KINDS
        if kind not in _FUZZ_KINDS or kind not in _KINDS
    ],
}


@pytest.mark.parametrize("case", sorted(MISSING))
def test_registry_members_are_covered(case):
    assert MISSING[case]() == []
