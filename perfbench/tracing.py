"""In-memory span recorder that wraps the program's public entry points.

The benchmark never edits the program: in a traced run it replaces a
layer's entry point (a module function or a class method) by a wrapper
that records a span around each call, and restores the original
afterwards. A function imported by name into other modules is replaced
there too. A target that no longer exists is reported as "not measured"
instead of failing the run, so modules can be deleted without breaking
the benchmark.

Spans are kept in memory as ``[name, layer, start, end, parent, request,
attrs]`` lists and written out once at the end, as Chrome trace-event
JSON plus a per-layer table. A span's self time is its duration minus
the durations of its direct children (calls are nested and single
threaded, so the children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

NAME, LAYER, START, END, PARENT, REQUEST, ATTRS = range(7)

#: Layer of spans that are host-speed samples, not program work.
HOST_LAYER = "host"


class Tracer:
    """Spans and call counts of one traced run, plus the patches that
    produce them (undone by :meth:`unpatch`)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self.request = "setup"
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, layer: str, attrs: Optional[dict]) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, layer, time.perf_counter(), 0.0, parent, self.request, attrs]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[list]:
        index = self._open(name, layer, attrs or None)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        target: str,
        layer: str,
        *,
        attrs: Optional[Callable[..., dict]] = None,
        count_only: bool = False,
    ) -> None:
        """Record every call of ``target`` (``"module:attr"`` or
        ``"module:Class.method"``) as a span named after it.

        ``attrs(result, *args, **kwargs)`` may return extra span
        attributes. ``count_only`` keeps a call count and no span, for
        entry points called millions of times.
        """
        module_name, _, path = target.partition(":")
        name = f"{layer}.{path.split('.')[-1]}"
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return

        if count_only:
            counts = self.counts

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                index = self._open(name, layer, None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if attrs is not None:
                    self.spans[index][ATTRS] = attrs(result, *args, **kwargs)
                return result

        self._patch(owner, attr, wrapper)
        if not isinstance(owner, type):
            # Modules that imported the function by name (the benchmark's
            # own included) hold their own reference; point those at the
            # wrapper too.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", {})
                if module is not owner and namespace.get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def spans_of(self, request_prefix: str) -> List[list]:
        return [s for s in self.spans if s[REQUEST].startswith(request_prefix)]

    def self_times_by_request(self, request_prefix: str) -> Dict[str, Dict[str, float]]:
        """Self seconds per request and layer, for requests starting with
        ``request_prefix``."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, span in enumerate(self.spans):
            if span[REQUEST].startswith(request_prefix):
                own = span[END] - span[START] - child_time[index]
                totals[span[REQUEST]][span[LAYER]] += own
        return totals

    def chrome_trace(self) -> dict:
        origin = self.spans[0][START] if self.spans else 0.0
        events = []
        for index, span in enumerate(self.spans):
            args = {"request": span[REQUEST], "id": index, "parent": span[PARENT]}
            if span[ATTRS]:
                args.update(span[ATTRS])
            events.append(
                {
                    "name": span[NAME],
                    "cat": span[LAYER],
                    "ph": "X",
                    "ts": (span[START] - origin) * 1e6,
                    "dur": (span[END] - span[START]) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
