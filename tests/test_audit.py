"""One audit path: offline verification reports what the inline audit reported.

``run`` audits every round as it happens; ``verify_trace`` replays the
trace and applies the same audit.  Every violation ``run`` records about a
round it also recorded must come back from ``verify_trace``, in order.  Left
out: the epoch-budget message, and messages about rounds that never reached
the trace (decision errors and scheduler contract breaks end a run before
its round is recorded).
"""

import re

import pytest

import golden_corpus as gc
from circleform.formation import gen_instance
from circleform.simulator import FullSync, make_policy, run, verify_trace
from conftest import tied_even_instance

SCHEDULERS = ("fsync", "rr", "random", "lazy")


def traceable(violations, records) -> list[str]:
    last = records[-1].round if records else 0
    out = []
    for v in violations:
        if v.startswith("epoch budget"):
            continue
        m = re.match(r"round (\d+): ", v)
        if m and int(m.group(1)) > last:
            continue
        out.append(v)
    return out


def in_order(wanted, got) -> bool:
    rest = iter(got)
    return all(any(w == g for g in rest) for w in wanted)


def audited_runs():
    runs = [pytest.param(*r[1:], id=r[0]) for r in gc.mutant_runs()]
    report, records = run(gc.SINGLE_NOMINEE5, gc.PATTERN5, FullSync(), seed=0, max_epochs=1)
    runs.append(pytest.param(report, records, id="single-nominee5-max-epochs-1"))
    return runs


@pytest.mark.parametrize("report, records", audited_runs())
def test_verify_reports_what_run_reported(report, records):
    assert report.violations
    wanted = traceable(report.violations, records)
    assert in_order(wanted, verify_trace(records, gc.PATTERN5, "det"))


def _clean_starts():
    for name in SCHEDULERS:
        yield "det", name, gen_instance(7, 70_001)
        yield "det", name, (gc.TIED5, gc.PATTERN5)
        yield "rand", name, gen_instance(6, 60_001)
        yield "rand", name, tied_even_instance(6, 60_003)


@pytest.mark.parametrize("mode, name, start", list(_clean_starts()))
def test_clean_runs_verify_clean(mode, name, start):
    c0, pattern = start
    report, records = run(c0, pattern, make_policy(name), mode=mode, seed=11)
    assert report.ok, report.violations
    assert verify_trace(records, pattern, mode) == []
