"""The decision rule against its per-observer reference.

Every robot that reads one configuration derives the same leader, pivotal
direction and role frame; ``formation._decide`` builds one instruction
table per gap cycle from one shared analysis of the configuration, and
robot k reads index k.  On every configuration that the seeded runs below
visit, read both ways round, every index must hold exactly the instruction
``oracles.reference_decide`` derives from that robot's rotation on its own,
the table's drawers must be exactly the robots the reference sends to the
randomized tie-break, and its phase must be the one
``oracles.reference_phase`` derives from the configuration's own
classification.  So must hypothesis-drawn mirrored, tied and
wide-denominator cycles.  And every robot of every visited state must make
the mirror move in the mirror image of its configuration, where it reads
forward what it reads in reverse here: its two readings take the same
physical action, which is why every driver decides from one reading.  The
rule marks a tied shape's robot told otherwise than its mirror image; under
a skewed tie-break that is exactly the bisector robot.  On the same states,
on the drawn cycles and on every shape of a 24-point grid, two nominees are
mirror images with a palindromic bisector robot, a canonical cycle has
canon[1] <= canon[-1], and every move travels: the facts that leave the
rule no two-nominee leader, no reversed tie-break, no leader blocker and no
zero-distance move.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleform import (
    CircleFormError,
    Configuration,
    TargetPattern,
    compute,
    gen_instance,
    run,
    snapshot_of,
)
from circleform.angles import Direction, least_reading, mod1, prefix_sums
from circleform.configuration import (
    DoubleNomineeTied,
    LeaderConfig,
    Symmetric,
    _classify_cycle,
)
from circleform.formation import _RAND_DENOM, _decide
from circleform.simulator import make_policy

import golden_corpus as gc
import oracles
from conftest import config, mixed_position_sets, mixed_turns, tied_even_instance

F = Fraction
DET_NS = (3, 5, 7, 9, 11, 15)
RAND_NS = (4, 6, 8)
ORIENTATION_FAULT = ("invariant", "decision depends on presentation orientation")
MOVE_BRANCHES = {
    "break_tie",
    "shrink_lead_gap",
    "shrink_second_gap",
    "finish_direct",
    "finish_detour",
    "finish_near",
    "settle_target",
}


def _starts():
    """(start, pattern, mode, mutant) of every seeded run, scheduler aside."""
    for n in DET_NS:
        for seed in (4_000 + n, 4_100 + n):
            yield (*gen_instance(n, seed), "det", None)
    yield gc.TIED5, gc.PATTERN5, "det", None
    for n in RAND_NS:
        yield (*gen_instance(n, 5_000 + n), "rand", None)
        yield (*tied_even_instance(n, 6_000 + n), "rand", None)
    yield gc.MUTANT_START, gc.PATTERN5, "det", "eps1-lower"


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # a raise must match a raise of the same type
        return ("raised", type(exc).__name__)


@lru_cache(maxsize=None)
def _pattern_of(pat) -> TargetPattern:
    return TargetPattern.from_angles(F(x, sum(pat)) for x in pat)


def _reference_draw(row, pat) -> tuple:
    """The draw of the robot reading ``row`` forward: half of its smallest
    gap above the pattern's floor, toward its smaller reading, in turns."""
    window = (F(min(row), sum(row)) - _pattern_of(pat).min_gap_floor) / 2
    return ("draw", window, 1 if row < row[::-1] else -1, "random_tiebreak")


def _configuration(cycle) -> Configuration:
    """The configuration whose presentation cycle is ``cycle``."""
    return Configuration(prefix_sums(tuple(F(g, sum(cycle)) for g in cycle)))


def _reference_table(cycle, pat, mutant):
    """The table ``_decide`` must build, robot by robot: (instrs, phase).
    A nominee of a tied, unformed configuration of an even count finds its
    draw there."""
    n = len(cycle)
    rows = [oracles.rotate(cycle, k) for k in range(n)]
    instrs = tuple(
        _reference_draw(row, pat)
        if n % 2 == 0 and oracles.reference_tied_nominee(row, pat)
        else oracles.reference_decide(row, pat, mutant)
        for row in rows
    )
    return instrs, oracles.reference_phase(_configuration(cycle), _pattern_of(pat))


# every draw of a _FixedDraw source takes this fraction of its window
_K = 3 * 2**59 + 12_345


class _FixedDraw(Random):
    def randrange(self, *args):
        return _K


def _check_table(cycle, pat, mutant):
    assert _outcome(_decide, cycle, pat, mutant) == _outcome(
        _reference_table, cycle, pat, mutant
    ), (cycle, pat, mutant)


def _visited_positions(records) -> set:
    return {tuple(sorted(records[0].positions_before))} | {
        tuple(sorted(rec.positions_after)) for rec in records
    }


@pytest.fixture(scope="module")
def start_states() -> set:
    """(sorted positions, pattern, mutant) of every state the ``_starts``
    runs visit under every scheduler."""
    out = set()
    for c0, pattern, mode, mutant in _starts():
        for name in gc.SCHEDULERS:
            _, records = run(c0, pattern, make_policy(name), mode=mode, seed=7, mutant=mutant)
            out |= {(pos, pattern, mutant) for pos in _visited_positions(records)}
    return out


@pytest.fixture(scope="module")
def golden_states() -> set:
    """(sorted positions, pattern, None) of every state the golden runs visit."""
    out = set()
    for case in gc.cases():
        _, records = gc.run_case(case)
        out |= {(pos, gc.start(case)[1], None) for pos in _visited_positions(records)}
    return out


@pytest.fixture(scope="module")
def visited(start_states) -> dict:
    """(cycle, pattern cycle, mutant) -> (configuration, pattern) for both
    readings of every configuration the runs visit: its presentation cycle
    and that cycle reversed.  Configurations of a mutant run are read with
    and without the mutant."""
    out = {}
    for pos, pattern, mutant in start_states:
        c = Configuration.from_positions(pos)
        for cycle in (c.cycle, c.cycle[::-1]):
            for m in {None, mutant}:
                out[(cycle, pattern.cycle, m)] = (c, pattern)
    return out


def test_both_readings_take_the_same_physical_action(start_states, golden_states):
    # the rule is chirality-free: robot i's other reading is its reading in
    # the mirror world, and there it makes the mirror move (same branch, and
    # the same draw from an equal seed; a robot reading the same both ways
    # round is told to take either neighbour, and may), so which way a
    # robot reads the circle never changes where it goes or how it gets there
    states = start_states | golden_states
    pairs = draws = 0
    for k, (pos, pattern, mutant) in enumerate(sorted(states, key=repr)):
        c = Configuration.from_positions(pos)
        m = oracles.mirror(c)
        for i in range(c.n):
            j = oracles.mirror_index(c, i)
            plain, mirrored = snapshot_of(c, i), snapshot_of(m, j)
            instr = _decide(plain.cycle, pattern.cycle, mutant)[0][0]
            for seed in (None, k):
                a = compute(plain, pattern, None if seed is None else Random(seed), mutant)
                b = compute(mirrored, pattern, None if seed is None else Random(seed), mutant)
                want = oracles.mirror_decisions(a, c.positions[i], plain.cycle, instr)
                assert b in want, (pos, i, seed)
                pairs += 1
                draws += a.branch == "random_tiebreak"
    assert len(states) > 250 and pairs > 4_000 and draws >= 6


def test_decide_matches_reference_on_visited_configurations(visited):
    for key in visited:
        _check_table(*key)


def test_visited_readings_cover_every_move_branch(visited):
    branches = {
        instr[-1]
        for key in visited
        for instr in _decide(*key)[0]
        if instr[0] == "move"
    }
    assert branches == MOVE_BRANCHES
    assert {len(cycle) for cycle, _, _ in visited} == set(DET_NS) | set(RAND_NS)
    assert any(m == "eps1-lower" for _, _, m in visited)
    assert any(instr[0] == "draw" for key in visited for instr in _decide(*key)[0])


def _check_mirror_facts(cycle, pat, mutant) -> None:
    """Facts that leave no input for some branches of the rule.

    No owner of the least reading reads the same both ways round.  Two
    owners read it opposite ways round (the same way would make the
    rotation between them a symmetry), so they are mirror images and a
    robot on their bisector reads a palindrome.  The least reading is no
    greater than robot 1's reverse reading, so canon[1] <= canon[-1].  And
    every move instruction travels some way.
    """
    found = _classify_cycle(cycle)
    owners = least_reading(cycle)[1]
    if not isinstance(found, Symmetric):
        for j, r in owners:
            i = -j % len(cycle) if r else j
            row = oracles.rotate(cycle, i)
            assert row != row[::-1], (cycle, i)
    if isinstance(found, DoubleNomineeTied):
        (_, ra), (_, rb) = owners
        assert ra is not rb, cycle
        if found.bisector_robot is not None:
            row = oracles.rotate(cycle, found.bisector_robot)
            assert row == row[::-1], (cycle, found)
    if isinstance(found, LeaderConfig):
        canon = least_reading(cycle)[0]
        assert canon[1] <= canon[-1], cycle
    for instr in _decide(cycle, pat, mutant)[0]:
        assert instr[0] != "move" or instr[1] > 0, (cycle, pat, instr)


def _orientation_faults(cycle, pat) -> list[int]:
    return [k for k, instr in enumerate(_decide(cycle, pat, None)[0]) if instr == ORIENTATION_FAULT]


def test_the_rule_marks_exactly_the_robots_whose_readings_disagree(skewed_tie_break):
    # the skewed bisector robot moves one way read forward and the other way
    # read in reverse; the other robots, waiting in mirror pairs, are
    # unmarked, and so is every robot of a shape with one owner
    for cycle in (gc.TIED5.cycle, gc.TIED5.cycle[::-1]):
        assert _orientation_faults(cycle, gc.PATTERN5.cycle) == [0]
    grid = [F(k, 24) for k in range(1, 24)]
    leaders = marked = 0
    for n in (3, 4, 5):
        pat = _pattern(n, 0).cycle
        for combo in itertools.combinations(grid, n - 1):
            cycle = Configuration((F(0),) + combo).cycle
            found = _classify_cycle(cycle)
            bisector = getattr(found, "bisector_robot", None)
            assert _orientation_faults(cycle, pat) == ([] if bisector is None else [bisector])
            leaders += isinstance(found, LeaderConfig)
            marked += bisector is not None
    assert leaders > 10_000 and marked > 300


def test_mirror_facts_on_visited_configurations(visited, golden_states):
    keys = set(visited)
    for pos, pattern, _ in golden_states:
        cycle = Configuration.from_positions(pos).cycle
        keys |= {(cycle, pattern.cycle, None), (cycle[::-1], pattern.cycle, None)}
    for key in keys:
        _check_mirror_facts(*key)
    assert len(keys) > len(visited)


def test_mirror_facts_on_the_24_point_grid():
    # every shape with a robot at 0 and the rest on the 1/24 grid, which is
    # every shape of test_criterion_06's grid up to rotation
    grid = [F(k, 24) for k in range(1, 24)]
    tied = 0
    for n in (3, 4, 5):
        pat = _pattern(n, 0).cycle
        for combo in itertools.combinations(grid, n - 1):
            c = Configuration((F(0),) + combo)
            _check_mirror_facts(c.cycle, pat, None)
            tied += isinstance(_classify_cycle(c.cycle), DoubleNomineeTied)
    assert tied > 500


def _drew_as_referenced(s, d, pat) -> bool:
    """``d`` is the reference draw of ``s``'s observer, scaled by _FixedDraw."""
    _, window, sign, branch = _reference_draw(s.cycle, pat)
    way = Direction.FORWARD if sign > 0 else Direction.REVERSE
    travel = mod1(way.sign * (d.destination - s.observer_position))
    return (d.path_direction, travel, d.branch) == (way, F(_K, _RAND_DENOM) * window, branch)


def test_randomized_tie_check_matches_reference(visited):
    # only an observing nominee of a tied, unformed configuration draws, and
    # it draws inside its own window toward its own smaller reading
    checked = drew = 0
    for c, pattern, mutant in {(c, p, m) for (_, _, m), (c, p) in visited.items()}:
        if c.n % 2:
            continue
        for world in (c, oracles.mirror(c)):
            for i in range(c.n):
                s = snapshot_of(world, i)
                d = compute(s, pattern, _FixedDraw(), mutant)
                expected = oracles.reference_tied_nominee(s.cycle, pattern.cycle)
                assert (d.branch == "random_tiebreak") == expected, s.cycle
                if expected:
                    assert _drew_as_referenced(s, d, pattern.cycle), (s.cycle, d)
                checked += 1
                drew += expected
    assert checked > 500 and drew >= 6


def test_draw_window_is_in_turns(mirror_tied4):
    # the pattern's floor is above 0 and over 26 while the start is over 12,
    # so a window left in the units of the common scale would show
    p = TargetPattern.from_angles(F(x, 26) for x in (5, 6, 8, 7))
    assert p.min_gap_floor == F(3, 26) and p.admits(mirror_tied4)
    for cycle in (mirror_tied4.cycle, mirror_tied4.cycle[::-1]):
        _check_table(cycle, p.cycle, None)
    window = (F(1, 6) - F(3, 26)) / 2
    table = _decide(mirror_tied4.cycle, p.cycle, None)[0]
    assert {k: instr for k, instr in enumerate(table) if instr[0] == "draw"} == {
        0: ("draw", window, -1, "random_tiebreak"),
        3: ("draw", window, 1, "random_tiebreak"),
    }


def test_leader_skips_a_blocked_midpoint():
    # moving the leader by half its gap would put role 3 on a bisector point
    # of the leader and role 1, so the pick takes the quarter point
    c = config(0, F(7, 17), F(9, 17), F(11, 17))
    pat = gen_instance(4, 9_002)[1].cycle
    for cycle in (c.cycle, c.cycle[::-1]):
        _check_table(cycle, pat, None)
    assert _decide(c.cycle, pat, None)[0][1] == ("move", F(1, 34), 1, "shrink_lead_gap")


# ---------------------------------------------------------------------------
# drawn cycles: mirror images with and without robots on the axis, rotation
# symmetric sets, and 2**61 tie-break denominators


@st.composite
def tied_position_sets(draw):
    """Mirror images through an axis, with the axis points optionally taken."""
    half = draw(st.sets(mixed_turns, min_size=1, max_size=5))
    axis = draw(mixed_turns)
    pts = half | {mod1(2 * axis - h) for h in half}
    if draw(st.booleans()):
        pts.add(axis)
    if draw(st.booleans()):
        pts.add(mod1(axis + F(1, 2)))
    return pts


@lru_cache(maxsize=None)
def _pattern(n: int, k: int) -> TargetPattern:
    return gen_instance(n, 9_000 + k)[1]


def _draws(s, pattern) -> bool:
    try:
        return compute(s, pattern, Random(1)).branch == "random_tiebreak"
    except CircleFormError:
        return False


@given(st.one_of(mixed_position_sets(), tied_position_sets()), st.integers(0, 3), st.booleans())
@settings(max_examples=400, deadline=None)
def test_decide_matches_reference_on_drawn_cycles(pts, k, weakened):
    c = Configuration.from_positions(pts)
    if c.n < 3:
        return
    pattern = _pattern(c.n, k)
    pat = pattern.cycle
    mutant = "eps1-lower" if weakened else None
    for cycle in (c.cycle, c.cycle[::-1]):
        _check_table(cycle, pat, mutant)
        _check_mirror_facts(cycle, pat, mutant)
    if c.n % 2 == 0:
        for world in (c, oracles.mirror(c)):
            for i in range(c.n):
                s = snapshot_of(world, i)
                assert _draws(s, pattern) == oracles.reference_tied_nominee(s.cycle, pat)
