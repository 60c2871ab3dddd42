"""Spans around the package's public functions, recorded from outside.

A traced worker rebinds every module-level name that refers to a boundary
function to a wrapper, so calls made by the package's own modules (for
example ``circleform.simulator.compute``) are recorded as well as the
benchmark's calls.  Each span is ``(name, start, end, parent)`` with
``parent`` the index of the enclosing span or -1.  Spans stay in memory;
``summarize`` turns them into per-name call counts, busy time and self time
when the worker exits.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional

# (metric prefix, defining module, function name).  The prefix names the
# layer that owns the function.
BOUNDARIES = (
    ("angles.gaps_of", "angles", "gaps_of"),
    ("angles.canonical_cycle", "angles", "canonical_cycle"),
    ("configuration.snapshot_of", "configuration", "snapshot_of"),
    ("configuration.classify", "configuration", "classify"),
    ("formation.compute", "formation", "compute"),
    ("formation.pattern_formed", "formation", "pattern_formed"),
    ("simulator.run", "simulator", "run"),
    ("simulator.explore_schedules", "simulator", "explore_schedules"),
    ("simulator.detect_collision", "simulator", "detect_collision"),
    ("simulator.phase_of", "simulator", "phase_of"),
    ("formats.record_from_json", "formats", "record_from_json"),
    ("formats.record_to_json", "formats", "record_to_json"),
    ("cli.gen_instance", "cli", "gen_instance"),
    ("cli.verify_trace", "cli", "verify_trace"),
)

# The rule's lru_caches, read through cache_info() and never cleared.
CACHES = (
    ("angles.canonical_cache", "angles", "_canonical_cached"),
    ("configuration.classify_cache", "configuration", "_classify_cycle"),
    ("formation.decide_cache", "formation", "_decide"),
)


class Tracer:
    """In-memory span recorder.  ``clock`` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced


def install(
    tracer: Tracer,
    modules: Mapping[str, object],
    hooks: Optional[Mapping[str, Callable]] = None,
) -> list[str]:
    """Wrap every boundary that exists; return the prefixes that do not.

    ``modules`` maps a short module name ("angles", ...) to the module.  Every
    attribute of every given module that is the boundary function itself is
    rebound, which covers both the defining module and each caller that
    imported the name.
    """
    absent = []
    for prefix, home, fname in BOUNDARIES:
        fn = getattr(modules.get(home), fname, None)
        if fn is None:
            absent.append(prefix)
            continue
        wrapper = tracer.wrap(prefix, fn, (hooks or {}).get(prefix))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return absent


def cache_counts(modules: Mapping[str, object]) -> dict[str, Optional[tuple[int, int]]]:
    """(hits, misses) of each rule cache, or None when the function is gone."""
    out: dict[str, Optional[tuple[int, int]]] = {}
    for prefix, home, fname in CACHES:
        info = getattr(getattr(modules.get(home), fname, None), "cache_info", None)
        if info is None:
            out[prefix] = None
        else:
            ci = info()
            out[prefix] = (ci.hits, ci.misses)
    return out


def summarize(spans: list) -> dict[str, list]:
    """Per span name: [calls, busy seconds, self seconds].

    Busy time counts only the outermost span of a name, so a function that
    re-enters itself is not counted twice.  Self time is a span's duration
    minus the durations of its direct children; spans of one thread nest,
    so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, list] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        dur = end - start
        entry[0] += 1
        entry[2] += dur - child_time[idx]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            entry[1] += dur
    return stats
