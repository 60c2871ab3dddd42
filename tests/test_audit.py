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
    LeaderConfig,
    TargetPattern,
    compute,
    read_trace,
    simulator,
    snapshot_of,
)
from circleform.formation import gen_instance
from circleform.simulator import (
    FullSync,
    _EpochLedger,
    _Frame,
    _plan,
    make_policy,
    run,
    verify_trace,
)
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
    transition, plan, step = _Frame.transition, _Frame.plan, _Frame.step

    def spy_transition(frame, after, p, alive, lock):
        got = transition(frame, after, p, alive, lock)
        audits.append((frame.pos, after.pos, p, alive, lock, got))
        return got

    def spy_plan(frame, active):
        got = plan(frame, active)
        plans.append((frame.pos, active, got))
        return got

    def spy_step(frame, p):
        got = step(frame, p)
        if got[1] is not frame:
            moved.append(got[1])
        return got

    monkeypatch.setattr(_Frame, "transition", spy_transition)
    monkeypatch.setattr(_Frame, "plan", spy_plan)
    monkeypatch.setattr(_Frame, "step", spy_step)
    _, records = run(c0, pattern, make_policy(name), mode=mode, seed=7, mutant=mutant)
    monkeypatch.undo()

    # idle rounds reuse the memo, so a state is audited more often than it is built
    assert len(audits) > len({(after, lock) for _, after, _, _, lock, _ in audits})
    for pos, after, p, alive, lock, got in audits:
        fresh = _Frame(pos, pattern, mutant)
        assert got == fresh.transition(_Frame(after, pattern, mutant), p, alive, lock)
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
    collision, after = frame.step(plan)
    assert collision is None
    fresh = _Frame(after.pos)
    assert after.order == fresh.order == order
    assert after.idx_of == fresh.idx_of
    assert after.c == fresh.c and after.c.cycle == fresh.c.cycle
    # the next frame is decided under the same rule, draw source included
    assert all(a is b for a, b in zip((after.pattern, after.mutant, after.rng), rule))


# ---------------------------------------------------------------------------
# every audit check fires: hand-built frames and plans through the ledger,
# which does not ask that a round's after-frame be its before-frame moved

# role gaps 1/100 < 2/100, both under the pattern's least gap 1/18, and
# robots 3 and 4 off target: a released (rfc) leader configuration whose
# leader is robot 0, reading forward
_RELEASED = (Fraction(0), Fraction(1, 100), Fraction(3, 100), Fraction(33, 100), Fraction(63, 100))
_FORMED = (Fraction(0), Fraction(1, 18), Fraction(1, 6), Fraction(7, 18), Fraction(2, 3))
_PATTERN4 = TargetPattern.from_angles([Fraction(1, 12), Fraction(3, 12), Fraction(4, 12), Fraction(4, 12)])


def _frame5(pos) -> _Frame:
    return _Frame(pos, gc.PATTERN5)


def _stay(*ids):
    return _plan({rid: Decision(DecisionKind.STAY, branch="by-hand") for rid in ids})


def _lone(branch: str, after: _Frame, rid: int = 0):
    return _plan({rid: Decision(DecisionKind.MOVE, after.pos[rid], Direction.FORWARD, branch)})


def _epochs(ledger, before, after, count: int) -> list[str]:
    """``count`` epochs of two rounds each, robots {0, 1} then the rest
    activated and staying."""
    out = []
    for _ in range(count):
        rnd = 2 * ledger.epoch - 1
        out += ledger.round(rnd, before, after, _stay(0, 1))
        out += ledger.round(rnd + 1, before, after, _stay(*range(2, ledger.n)))
    return out


def test_released_frame_is_released():
    frame = _frame5(_RELEASED)
    assert frame.phase() == "rfc" and frame.classify() == LeaderConfig(0, Direction.FORWARD)
    assert _frame5(_FORMED).phase() == "formed"


def test_symmetry_created_fires():
    ledger = _EpochLedger(5, "det")
    even = _frame5(tuple(Fraction(k, 5) for k in range(5)))
    out = ledger.round(1, _frame5(gc.SINGLE_NOMINEE5.positions), even, _stay(0))
    assert "round 1: 5-fold symmetry created before formation" in out


def test_leader_change_after_release_fires():
    ledger = _EpochLedger(5, "det")
    released = _frame5(_RELEASED)
    assert ledger.round(1, released, released, _stay(0)) == []
    # the mirror image keeps robot 0 leading, reading the other way round
    mirrored = _frame5(tuple(-x % 1 for x in _RELEASED))
    out = ledger.round(2, released, mirrored, _stay(0))
    assert "round 2: leader or direction changed after release" in out


def test_leadership_lost_after_release_fires():
    ledger = _EpochLedger(5, "det")
    released = _frame5(_RELEASED)
    assert ledger.round(1, released, released, _stay(0)) == []
    out = ledger.round(2, released, _frame5(gc.TIED5.positions), _stay(0))
    assert "round 2: leadership lost after release" in out


def test_coincident_tie_break_draws_fire(mirror_tied4):
    ledger = _EpochLedger(4, "rand")
    before = _Frame(mirror_tied4.positions, _PATTERN4)
    step = Fraction(1, 100)
    pos = list(before.pos)
    pos[0] -= step
    pos[3] += step
    plan = _plan({
        0: Decision(DecisionKind.MOVE, pos[0], Direction.REVERSE, "random_tiebreak"),
        3: Decision(DecisionKind.MOVE, pos[3], Direction.FORWARD, "random_tiebreak"),
    })
    out = ledger.round(1, before, _Frame(pos, _PATTERN4), plan)
    assert "round 1: simultaneous tie-break draws coincide" in out


def test_motionless_full_activation_fires_and_halts():
    ledger = _EpochLedger(5, "det")
    frame = _frame5(gc.SINGLE_NOMINEE5.positions)
    out = ledger.round(1, frame, frame, _stay(*range(5)))
    assert out == ["round 1: full activation produced no motion before formation"]
    assert ledger.halted


def test_lone_tie_break_without_a_leader_fires(mirror_tied4):
    ledger = _EpochLedger(4, "rand")
    tied = _Frame(mirror_tied4.positions, _PATTERN4)
    out = ledger.round(1, tied, tied, _lone("random_tiebreak", tied))
    assert "round 1: random_tiebreak: no leader after a lone tie-break move" in out


def test_lost_leader_fires():
    ledger = _EpochLedger(5, "det")
    before, after = _frame5(gc.SINGLE_NOMINEE5.positions), _frame5(gc.TIED5.positions)
    out = ledger.round(1, before, after, _lone("shrink_lead_gap", after))
    assert "round 1: shrink_lead_gap: configuration lost its leader" in out


@pytest.mark.parametrize("after", ["tied", "leader"])
def test_unshrunk_minimum_gap_fires(after):
    # both starts have least gap 1/12, so a move to either shrinks nothing
    ledger = _EpochLedger(5, "det")
    tied = _frame5(gc.TIED5.positions)
    landed = tied if after == "tied" else _frame5(gc.SINGLE_NOMINEE5.positions)
    out = ledger.round(1, tied, landed, _lone("break_tie", landed))
    assert "round 1: break_tie: minimum gap did not shrink" in out


def test_leader_gap_above_the_minimum_fires():
    # the leader's gap 1/12 is above the pattern's least gap 1/18
    ledger = _EpochLedger(5, "det")
    after = _frame5(gc.SINGLE_NOMINEE5.positions)
    out = ledger.round(1, _frame5(gc.TIED5.positions), after, _lone("shrink_lead_gap", after))
    assert "round 1: shrink_lead_gap: leader gap is not the strict minimum" in out


def test_landing_outside_release_fires():
    ledger = _EpochLedger(5, "det")
    after = _frame5(gc.SINGLE_NOMINEE5.positions)
    assert after.phase() == "lead"
    out = ledger.round(1, _frame5(_RELEASED), after, _lone("settle_target", after, 3))
    assert "round 1: settle_target: landing broke the released ordering" in out


def test_parking_within_the_second_target_gap_fires():
    # role gap 1 is 1/50, inside the pattern's second gap 1/9
    ledger = _EpochLedger(5, "det")
    after = _frame5(_RELEASED)
    out = ledger.round(1, _frame5(gc.SINGLE_NOMINEE5.positions), after,
                       _lone("finish_detour", after, 2))
    assert "round 1: finish_detour: parked robot sits within the second target gap" in out


def test_late_formation_fires():
    ledger = _EpochLedger(5, "det")
    released = _frame5(_RELEASED)
    _epochs(ledger, released, released, ledger.bound)
    assert ledger.epoch == ledger.bound + 1 == 10
    out = ledger.round(19, released, _frame5(_FORMED), _stay(0))
    assert "round 19: formation took 10 epochs, bound is 9" in out


def test_no_leader_at_the_first_boundary_fires():
    ledger = _EpochLedger(5, "det")
    tied = _frame5(gc.TIED5.positions)
    assert "epoch 1: no leader by the first epoch boundary" in _epochs(ledger, tied, tied, 1)


def test_slow_settling_fires():
    # released in epoch 1, so at n=5 settling is owed by the boundary of epoch 3
    ledger = _EpochLedger(5, "det")
    released = _frame5(_RELEASED)
    out = _epochs(ledger, released, released, 3)
    assert "epoch 2: settling exceeded 2 epochs after release" not in out
    assert "epoch 3: settling exceeded 2 epochs after release" in out


def test_released_epoch_without_a_landing_fires():
    ledger = _EpochLedger(5, "det")
    released = _frame5(_RELEASED)
    assert _epochs(ledger, released, released, 1) == ["epoch 1: released epoch without a landing"]


def test_running_an_epoch_after_formation_fires():
    ledger = _EpochLedger(5, "det")
    formed = _frame5(_FORMED)
    out = _epochs(ledger, formed, formed, 2)
    assert ledger.formed_epoch == 1
    assert out == ["epoch 2: robots still running an epoch after formation"]
