"""One audit path: offline verification reports what the inline audit reported.

``run`` audits every round as it happens; ``verify_trace`` replays the
trace and applies the same audit.  Every violation ``run`` records about a
round it also recorded must come back from ``verify_trace``, in order.  Left
out: the epoch-budget message, and messages about rounds that never reached
the trace (decision errors and scheduler contract breaks end a run before
its round is recorded).
"""

import re
from fractions import Fraction
from random import Random

import pytest

import golden_corpus as gc
from circleform import (
    Decision,
    DecisionKind,
    Direction,
    compute,
    read_trace,
    simulator,
    snapshot_of,
)
from circleform.formation import gen_instance
from circleform.simulator import FullSync, _Frame, _plan, make_policy, run, verify_trace
from conftest import tied_even_instance
from oracles import reference_epochs


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


def test_verify_checks_collisions_only_on_records_with_a_move(monkeypatch):
    case = ("det", 7, 1_007, "lazy", False)
    records = read_trace(gc.GOLDEN / gc.case_name(case))
    calls = []
    detect = simulator.detect_collision

    def counting(c, decisions):
        calls.append(c)
        return detect(c, decisions)

    monkeypatch.setattr(simulator, "detect_collision", counting)
    assert verify_trace(records, gc.start(case)[1], "det") == []
    moving = sum(any(d.is_move for d in rec.decisions.values()) for rec in records)
    assert 0 < moving < len(records)
    assert len(calls) == moving


def _clean_starts():
    for name in gc.SCHEDULERS:
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


# ---------------------------------------------------------------------------
# epoch accounting and the idle-round fast paths, against slow recounts


def _seeded_starts():
    """Seeded det and rand starts; under rr and random some robots terminate
    while others are still owed their activation in the same epoch."""
    for name in gc.SCHEDULERS:
        for n in (5, 7, 9):
            yield "det", name, gen_instance(n, 90_000 + n), None
        yield "det", name, (gc.MUTANT_START, gc.PATTERN5), "eps1-lower"
        for n in (4, 6):
            yield "rand", name, gen_instance(n, 90_000 + n), None
        yield "rand", name, tied_even_instance(6, 90_006), None


def _mid_epoch_terminations(records) -> int:
    return sum(
        b.epoch == a.epoch
        and any(a.decisions[r].kind is DecisionKind.TERMINATE for r in a.activated)
        for a, b in zip(records, records[1:])
    )


@pytest.mark.parametrize("case", gc.cases(), ids=gc.case_name)
def test_golden_epochs_match_the_recount(case):
    _, records = gc.run_case(case)
    assert [rec.epoch for rec in records] == reference_epochs(records, case[1])


def test_seeded_epochs_match_the_recount():
    mid_epoch = dict.fromkeys(gc.SCHEDULERS, 0)
    for mode, name, (c0, pattern), mutant in _seeded_starts():
        _, records = run(c0, pattern, make_policy(name), mode=mode, seed=7, mutant=mutant)
        assert [rec.epoch for rec in records] == reference_epochs(records, c0.n)
        mid_epoch[name] += _mid_epoch_terminations(records)
    # fsync activates every robot every round, and lazy wakes all the
    # terminating robots together, so only rr and random end robots mid-epoch
    assert mid_epoch["rr"] and mid_epoch["random"]


@pytest.mark.parametrize(
    "mode, name, start, mutant",
    [
        pytest.param(*s, id=f"{s[0]}-{s[1]}-n{s[2][0].n}{'-' + s[3] if s[3] else ''}-{k}")
        for k, s in enumerate(_seeded_starts())
    ],
)
def test_fast_paths_match_fresh_work(monkeypatch, mode, name, start, mutant):
    c0, pattern = start
    audits, plans, moved = [], [], []
    audit, plan, move = _Frame.audit, _Frame.plan, _Frame.moved

    def spy_audit(frame, lock):
        got = audit(frame, lock)
        audits.append((frame.pos, lock, got))
        return got

    def spy_plan(frame, active):
        got = plan(frame, active)
        plans.append((frame.pos, active, got))
        return got

    def spy_moved(frame, p):
        got = move(frame, p)
        moved.append(got)
        return got

    monkeypatch.setattr(_Frame, "audit", spy_audit)
    monkeypatch.setattr(_Frame, "plan", spy_plan)
    monkeypatch.setattr(_Frame, "moved", spy_moved)
    _, records = run(c0, pattern, make_policy(name), mode=mode, seed=7, mutant=mutant)
    monkeypatch.undo()

    # idle rounds reuse the memo, so a state is audited more often than it is built
    assert len(audits) > len({(pos, lock) for pos, lock, _ in audits})
    for pos, lock, got in audits:
        assert got == _Frame(pos, pattern, mutant).audit(lock)
    # a plan is reused while its frame and activation set last: lazy wakes
    # the same stayers round after round
    reused = len(plans) > len({(pos, active) for pos, active, _ in plans})
    assert reused or name != "lazy"
    for pos, active, got in plans:
        fresh = _Frame(pos)
        want = {
            rid: compute(snapshot_of(fresh.c, fresh.idx_of[rid]), pattern,
                         Random(0) if mode == "rand" else None, mutant)
            for rid in sorted(active)
        }
        for rid, d in want.items():
            if d.branch == "random_tiebreak":  # the draw itself differs
                assert got.decisions[rid].branch == d.branch
                want[rid] = got.decisions[rid]
        assert got == _plan(want)
    # a landing rotates the sorted order instead of sorting afresh
    for after in moved:
        fresh = _Frame(after.pos)
        assert after.order == fresh.order and after.idx_of == fresh.idx_of
        assert after.c == fresh.c and after.c.cycle == fresh.c.cycle
    for rec in records:
        if not any(d.is_move for d in rec.decisions.values()):
            assert rec.positions_after == rec.positions_before


# robots by id at 2/5, 7/10 and 1/10, so the sorted order is (2, 0, 1)
_CROSSING_START = (Fraction(2, 5), Fraction(7, 10), Fraction(1, 10))


@pytest.mark.parametrize(
    "moves, order",
    [
        pytest.param({1: (Fraction(1, 20), Direction.FORWARD)}, [1, 2, 0], id="last-crosses-0-forward"),
        pytest.param({2: (Fraction(19, 20), Direction.REVERSE)}, [0, 1, 2], id="first-crosses-0-back"),
        pytest.param({2: (Fraction(1, 5), Direction.FORWARD)}, [2, 0, 1], id="first-moves-and-leads"),
        pytest.param(
            {0: (Fraction(1, 2), Direction.FORWARD), 1: (Fraction(1, 20), Direction.FORWARD),
             2: (Fraction(3, 20), Direction.FORWARD)},
            [1, 2, 0],
            id="all-move",
        ),
    ],
)
def test_moved_frame_rotates_its_order(moves, order):
    rule = (gen_instance(3, 2)[1], "eps1-lower", Random(0))
    frame = _Frame(_CROSSING_START, *rule)
    plan = _plan({
        rid: Decision(DecisionKind.MOVE, dest, way, "by-hand") for rid, (dest, way) in moves.items()
    })
    assert frame.collision(plan) is None
    after = frame.moved(plan)
    fresh = _Frame(after.pos)
    assert after.order == fresh.order == order
    assert after.idx_of == fresh.idx_of
    assert after.c == fresh.c and after.c.cycle == fresh.c.cycle
    # the next frame is decided under the same rule, draw source included
    assert all(a is b for a, b in zip((after.pattern, after.mutant, after.rng), rule))
