"""The decision rule: patterns, embeddings, predicates, and every branch."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleform import (
    Configuration,
    Decision,
    DecisionKind,
    Direction,
    EmptyIntervalError,
    LeaderConfig,
    PatternError,
    PreconditionError,
    StructuralError,
    TargetPattern,
    classify,
    compute,
    gen_instance,
    snapshot_of,
)
from circleform.angles import mod1, prefix_sums
from circleform.formation import (
    _bisector_blocked,
    _decide,
    _move_ready_role,
    _rfc_on,
    _settled,
    pattern_formed,
    select_in_interval,
)
from conftest import config, random_positions
from oracles import (
    _role_gaps,
    angle_between,
    brute_move_ready,
    mirror,
    mirror_decisions,
    mirror_index,
    on_some_bisector,
)

F = Fraction


def pat(*nums, den):
    return TargetPattern.from_angles([F(k, den) for k in nums])


def role_points(c, pattern):
    """The rule's role frame on the circle: (robot by role, target by role),
    each at its offset from the leader along the pivotal direction."""
    found = classify(c)
    full, gaps, pgaps = _role_gaps(c, found, pattern)
    anchor, s = c.positions[found.leader], found.pivotal.sign
    return tuple(
        tuple(mod1(anchor + s * F(x, full)) for x in prefix_sums(g)) for g in (gaps, pgaps)
    )


def released_and_settled(c, pattern):
    """(RFC, PFC) of a leader configuration, as the rule reads them."""
    _, gaps, pgaps = _role_gaps(c, classify(c), pattern)
    rfc = _rfc_on(gaps, pgaps[0])
    return rfc, rfc and _settled(gaps, pgaps)


def move_ready_robot(c, pattern):
    """Index of the robot the rule clears to settle, or None."""
    found = classify(c)
    full, gaps, pgaps = _role_gaps(c, found, pattern)
    assert _rfc_on(gaps, pgaps[0])
    k = _move_ready_role(gaps, prefix_sums(pgaps), full)
    return None if k is None else (found.leader + found.pivotal.sign * k) % c.n


def blocked_moves(c, mover, neighbor, direction):
    """_bisector_blocked for the robot at ``mover`` heading along ``direction``
    toward ``neighbor``, on c's offsets from the mover; the amounts as turns."""
    full = c.den  # every offset between two robots is a whole multiple of 1/den

    def offset(x):
        return int(mod1(x - mover) * full)

    others = [offset(x) for x in c.positions if x not in (mover, neighbor)]
    out = _bisector_blocked(offset(neighbor), direction.sign, others, full)
    return {F(e, full) for e in out}


@pytest.fixture
def rfc5(pattern5):
    """RFC for pattern5: roles 3 and 4 already settled on their targets."""
    return config(0, F(1, 100), F(3, 100), F(7, 18), F(12, 18))


class TestDecision:
    """A decision is refused at construction unless it is well formed."""

    MOVE, STAY, TERMINATE = DecisionKind.MOVE, DecisionKind.STAY, DecisionKind.TERMINATE

    @pytest.mark.parametrize("kind, to, way, message", [
        (MOVE, None, None, "a move needs a destination in [0, 1), got None"),
        (MOVE, F(1, 8), None, "a move needs a direction, got None"),
        (MOVE, F(3, 2), Direction.FORWARD, "a move needs a destination in [0, 1), got 3/2"),
        (MOVE, F(1), Direction.FORWARD, "a move needs a destination in [0, 1), got 1"),
        (MOVE, F(-1, 8), Direction.REVERSE, "a move needs a destination in [0, 1), got -1/8"),
        (MOVE, 0.5, Direction.FORWARD, "a move needs a destination in [0, 1), got 0.5"),
        (MOVE, F(1, 8), 1, "a move needs a direction, got 1"),
        (STAY, F(1, 8), None, "a stay carries no destination or direction"),
        (STAY, None, Direction.FORWARD, "a stay carries no destination or direction"),
        (TERMINATE, F(0), Direction.REVERSE, "a terminate carries no destination or direction"),
    ])
    def test_malformed_decisions_are_refused(self, kind, to, way, message):
        with pytest.raises(StructuralError) as err:
            Decision(kind, to, way, "by-hand")
        assert str(err.value) == message


class TestTargetPattern:
    def test_canonical_reading_kept(self, pattern5):
        assert pattern5.angles == tuple(F(k, 18) for k in (1, 2, 4, 5, 6))
        assert sum(pattern5.angles) == 1

    def test_rotated_and_mirrored_inputs_collapse(self, pattern5):
        rotated = pat(4, 5, 6, 1, 2, den=18)
        mirrored = pat(6, 5, 4, 2, 1, den=18)
        assert rotated.angles == pattern5.angles
        assert mirrored.angles == pattern5.angles
        assert rotated.original == tuple(F(k, 18) for k in (4, 5, 6, 1, 2))
        # a pattern hashes on its cycle: equal for every reading of it
        assert hash(rotated) == hash(mirrored) == hash(pattern5) == hash(pattern5.cycle)
        assert pat(1, 2, 4, 5, 6, den=18) == pattern5 and rotated != pattern5

    def test_floor_zero_when_flank_is_wide(self, pattern5):
        assert pattern5.min_gap_floor == 0

    def test_floor_positive_when_flank_is_tight(self):
        assert pat(30, 31, 39, den=100).min_gap_floor == F(21, 100)

    def test_too_few_gaps(self):
        with pytest.raises(PatternError):
            pat(1, 1, den=2)

    def test_nonpositive_gap(self):
        with pytest.raises(PatternError):
            TargetPattern.from_angles([F(0), F(1, 2), F(1, 2)])

    def test_wrong_total(self):
        with pytest.raises(PatternError):
            pat(1, 1, 1, den=4)

    def test_regular_polygon_rejected(self):
        with pytest.raises(PatternError):
            pat(1, 1, 1, 1, den=4)

    def test_mirror_symmetric_pattern_rejected(self):
        # canonical reading (1/6, 1/4, 1/3, 1/4) flanks its least gap equally
        with pytest.raises(PatternError):
            pat(2, 3, 4, 3, den=12)


class TestEmbedTargets:
    def test_forward_cumulative_sums(self):
        c = config(0, F(1, 6), F(1, 2))
        assert classify(c) == LeaderConfig(0, Direction.FORWARD)
        _, targets = role_points(c, pat(2, 4, 6, den=12))
        assert targets == (F(0), F(1, 6), F(1, 2))

    def test_reverse_cumulative_differences(self):
        c = config(F(1, 12), F(7, 12), F(11, 12))
        assert classify(c) == LeaderConfig(0, Direction.REVERSE)
        _, targets = role_points(c, pat(2, 4, 6, den=12))
        assert targets == (F(1, 12), F(11, 12), F(7, 12))

    def test_size_mismatch_rejected(self, single_nominee5):
        with pytest.raises(StructuralError):
            pattern_formed(single_nominee5, pat(2, 4, 6, den=12))

    def test_gaps_between_targets_are_the_betas(self, single_nominee5, pattern5):
        assert classify(single_nominee5) == LeaderConfig(0, Direction.FORWARD)
        _, targets = role_points(single_nominee5, pattern5)
        n = pattern5.n
        for j in range(n):
            got = angle_between(targets[j], targets[(j + 1) % n], Direction.FORWARD)
            assert got == pattern5.angles[j]


class TestPatternFormed:
    def test_embedding_realises_pattern(self, single_nominee5, pattern5):
        _, targets = role_points(single_nominee5, pattern5)
        formed = Configuration.from_positions(targets)
        assert pattern_formed(formed, pattern5)

    def test_mirrored_embedding_counts(self, pattern5):
        mirrored = Configuration.from_positions(
            [mod1(-t) for t in prefix_sums(pattern5.angles)]
        )
        assert pattern_formed(mirrored, pattern5)

    def test_worked_example_not_yet_formed(self, single_nominee5, pattern5):
        assert not pattern_formed(single_nominee5, pattern5)


class TestSelectInInterval:
    def test_midpoint_when_unobstructed(self):
        assert select_in_interval(F(0), F(1, 12)) == F(1, 24)

    def test_falls_back_to_left_half(self):
        assert select_in_interval(F(0), F(1, 2), [F(1, 4)]) == F(1, 8)

    def test_descends_two_levels(self):
        assert select_in_interval(F(1, 8), F(1, 4), [F(3, 16), F(5, 32)]) == F(7, 32)

    def test_empty_interval_rejected(self):
        with pytest.raises(EmptyIntervalError):
            select_in_interval(F(1, 2), F(1, 2))

    @given(
        st.fractions(min_value=0, max_value="1/2", max_denominator=40),
        st.fractions(min_value="1/2", max_value=1, max_denominator=40),
        st.sets(st.fractions(min_value=0, max_value=1, max_denominator=16), max_size=6),
    )
    def test_always_lands_inside_and_clear(self, lo, hi, forbidden):
        if lo == hi:
            return
        chosen = select_in_interval(lo, hi, forbidden)
        assert lo < chosen < hi
        assert chosen not in forbidden


class TestForbiddenEpsilons:
    def test_no_other_robots(self):
        c = config(0, F(1, 3))
        assert blocked_moves(c, F(0), F(1, 3), Direction.FORWARD) == set()

    def test_robot_on_current_bisector_contributes_zero(self):
        c = config(0, F(1, 6), F(1, 3))
        out = blocked_moves(c, F(0), F(1, 3), Direction.FORWARD)
        assert F(0) in out

    def test_exactly_the_occupancy_roots(self, tied5):
        mover, neighbor = F(0), F(1, 12)
        others = [p for p in tied5.positions if p not in (mover, neighbor)]
        out = blocked_moves(tied5, mover, neighbor, Direction.FORWARD)
        for eps in out:
            moved = mod1(mover + eps)
            assert on_some_bisector(others, moved, neighbor)
        for eps in (F(1, 1000), F(1, 48), F(1, 7)):
            if eps in out:
                continue
            moved = mod1(mover + eps)
            assert not on_some_bisector(others, moved, neighbor)


class TestRfcPfc:
    def test_constructed_rfc(self, rfc5, pattern5):
        assert classify(rfc5) == LeaderConfig(0, Direction.FORWARD)
        assert released_and_settled(rfc5, pattern5)[0]

    def test_duplicate_lead_gap_is_not_released(self, pattern5):
        gaps = (F(1, 10), F(3, 10), F(1, 10), F(2, 10), F(3, 10))
        c = Configuration.from_positions(prefix_sums(gaps))
        assert not released_and_settled(c, pattern5)[0]

    def test_second_gap_at_pattern_floor_is_not_released(self, pattern5):
        # alpha1 equal to beta0 misses the strict corridor
        c = config(0, F(1, 100), F(1, 100) + F(1, 18), F(7, 18), F(12, 18))
        assert not released_and_settled(c, pattern5)[0]

    def test_pfc_when_tail_settled(self, rfc5, pattern5):
        assert released_and_settled(rfc5, pattern5)[1]

    def test_not_pfc_when_tail_robot_off_target(self, pattern5):
        c = config(0, F(1, 100), F(3, 100), F(7, 18) + F(1, 200), F(12, 18))
        assert released_and_settled(c, pattern5) == (True, False)

    def test_three_robots_vacuously_partial(self):
        p = pat(2, 4, 6, den=12)
        c = config(0, F(1, 100), F(3, 100))
        assert released_and_settled(c, p) == (True, True)


class TestMoveReady:
    def test_absent_when_settled(self, rfc5, pattern5):
        assert move_ready_robot(rfc5, pattern5) is None

    def test_target_between_predecessor_and_robot(self, pattern5):
        c = config(0, F(1, 100), F(3, 100), F(7, 18) + F(1, 200), F(12, 18))
        assert move_ready_robot(c, pattern5) == 3
        assert brute_move_ready(c, pattern5) == 3

    def test_non_rfc_rejected(self, single_nominee5, pattern5):
        # outside a released configuration the rule does not scan for a
        # Move-Ready robot: every role past the second holds still
        assert not released_and_settled(single_nominee5, pattern5)[0]
        ds = decisions_of(single_nominee5, pattern5)
        assert [ds[i].branch for i in (3, 4)] == ["hold", "hold"]


class TestRoleFrame:
    def test_orders_from_leader_along_pivotal(self, rfc5, pattern5):
        assert classify(rfc5).leader == 0
        robots, _ = role_points(rfc5, pattern5)
        assert robots == tuple(rfc5.positions[i] for i in (0, 1, 2, 3, 4))
        full, gaps, _ = _role_gaps(rfc5, classify(rfc5), pattern5)
        assert tuple(F(g, full) for g in gaps) == rfc5.gaps
        assert robots[0] == rfc5.positions[0]

    def test_reverse_leader_reads_backwards(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        assert classify(c) == LeaderConfig(1, Direction.REVERSE)
        robots, _ = role_points(c, pattern5)
        assert robots == tuple(c.positions[i] for i in (1, 0, 4, 3, 2))


def decisions_of(c, pattern, **kw):
    return {i: compute(snapshot_of(c, i), pattern, **kw) for i in range(c.n)}


class TestComputeBranches:
    def test_formed_terminates(self, pattern5):
        formed = Configuration.from_positions(prefix_sums(pattern5.angles))
        for d in decisions_of(formed, pattern5).values():
            assert d.kind is DecisionKind.TERMINATE
            assert d.branch == "formed"

    def test_tie_break_by_the_bisector_robot(self, tied5, pattern5):
        ds = decisions_of(tied5, pattern5)
        assert ds[0].kind is DecisionKind.MOVE
        assert ds[0].branch == "break_tie"
        assert ds[0].destination == F(1, 24)
        assert ds[0].path_direction is Direction.FORWARD
        for i in (1, 2, 3, 4):
            assert ds[i].branch == "wait_tie"
        after = Configuration.from_positions(
            [ds[0].destination] + [tied5.positions[i] for i in (1, 2, 3, 4)]
        )
        assert isinstance(classify(after), LeaderConfig)

    def test_leader_shrinks_a_duplicated_min_gap(self, pattern5):
        gaps = (F(1, 10), F(3, 10), F(1, 10), F(2, 10), F(3, 10))
        c = Configuration.from_positions(prefix_sums(gaps))
        ds = decisions_of(c, pattern5)
        assert ds[2].branch == "shrink_lead_gap"
        assert ds[2].destination == F(17, 36)
        assert ds[2].path_direction is Direction.FORWARD
        after = Configuration.from_positions(
            [p if i != 2 else ds[2].destination for i, p in enumerate(c.positions)]
        )
        _, gaps, pgaps = _role_gaps(after, classify(after), pattern5)
        assert gaps[0] < min(min(gaps[1:]), pgaps[0])

    def test_second_neighbour_tightens_its_gap(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        ds = decisions_of(c, pattern5)
        assert ds[4].branch == "shrink_second_gap"
        assert ds[4].destination == F(23, 24)
        assert ds[4].path_direction is Direction.FORWARD
        for i in (0, 1, 2, 3):
            assert not ds[i].is_move

    def test_mutant_overshoots_the_corridor(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        healthy = decisions_of(c, pattern5)[4]
        weakened = decisions_of(c, pattern5, mutant="eps1-lower")[4]
        assert weakened.branch == "shrink_second_gap"
        assert weakened.destination == F(31, 36)
        assert weakened.destination != healthy.destination

    def test_settling_robot_moves_to_its_target(self, pattern5):
        c = config(0, F(1, 100), F(3, 100), F(7, 18) + F(1, 200), F(12, 18))
        ds = decisions_of(c, pattern5)
        assert ds[3].branch == "settle_target"
        assert ds[3].destination == F(7, 18)
        assert ds[4].branch in ("wait_settle", "hold")
        assert not ds[4].is_move

    def test_near_neighbour_finishes(self, pattern5):
        c = config(0, F(1, 100), F(3, 18) - F(1, 300), F(7, 18), F(12, 18))
        ds = decisions_of(c, pattern5)
        assert ds[1].branch == "finish_near"
        assert ds[1].destination == F(1, 18)
        assert ds[2].branch == "finish_direct"
        assert ds[2].destination == F(1, 6)

    def test_second_neighbour_parks_on_the_detour(self):
        p = pat(2, 5, 5, 4, 6, den=22)
        c = config(0, F(2, 44), F(5, 44), F(24, 44), F(32, 44))
        ds = decisions_of(c, p)
        assert ds[2].branch == "finish_detour"
        assert ds[2].destination == F(13, 44)
        assert ds[2].path_direction is Direction.FORWARD
        for i in (0, 1, 3, 4):
            assert not ds[i].is_move

    def test_unknown_mutant_rejected(self):
        c, p = gen_instance(5, 3)
        with pytest.raises(PreconditionError, match="unknown mutant 'nonsense'; known: eps1-lower"):
            compute(snapshot_of(c, 0), p, mutant="nonsense")

    def test_size_mismatch_rejected(self, single_nominee5):
        with pytest.raises(StructuralError):
            compute(snapshot_of(single_nominee5, 0), pat(2, 4, 6, den=12))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10_000))
    def test_flip_never_changes_the_physical_action(self, seed):
        rng = Random(seed)
        n = rng.choice([3, 4, 5, 6, 7])
        c = Configuration.from_positions(random_positions(n, rng))
        if c.fold() != 1:
            return
        p = pat(2, 5, 5, 4, 6, den=22) if n == 5 else None
        if p is None:
            betas = sorted(rng.sample(range(1, 40), n))
            try:
                p = TargetPattern.from_angles(
                    [F(b, sum(betas)) for b in betas]
                )
            except PatternError:
                return
        # robot i's other reading is its reading in the mirror image, where
        # it must make the mirror move
        m = mirror(c)
        for i in range(n):
            s = snapshot_of(c, i)
            a = compute(s, p)
            b = compute(snapshot_of(m, mirror_index(c, i)), p)
            assert (a.kind, a.branch) == (b.kind, b.branch)
            instr = _decide(s.cycle, p.cycle, None)[0][0]
            assert b in mirror_decisions(a, c.positions[i], s.cycle, instr)


class TestRandomizedTieBreak:
    # a pattern with gap floor 0, so a draw may use half the whole min gap
    P4 = pat(1, 3, 4, 4, den=12)

    def test_moves_below_half_the_min_gap(self, mirror_tied4):
        assert self.P4.min_gap_floor == 0
        g_min = min(mirror_tied4.gaps)
        for i in (0, 3):
            rng = Random(5)
            d = compute(snapshot_of(mirror_tied4, i), self.P4, rng=rng)
            assert d.branch == "random_tiebreak"
            travel = mod1(
                d.path_direction.sign * (d.destination - mirror_tied4.positions[i])
            )
            assert 0 < travel < g_min / 2

    def test_seed_determinism(self, mirror_tied4):
        s = snapshot_of(mirror_tied4, 0)
        assert compute(s, self.P4, rng=Random(11)) == compute(s, self.P4, rng=Random(11))

    def test_odd_count_rejected(self, tied5, pattern5):
        # an odd count breaks its tie deterministically, randomness or not
        d = compute(snapshot_of(tied5, 0), pattern5, rng=Random(1))
        assert d.branch == "break_tie"

    def test_non_nominee_rejected(self, mirror_tied4):
        d = compute(snapshot_of(mirror_tied4, 1), self.P4, rng=Random(1))
        assert d.branch == "wait_tie"

    def test_compute_takes_the_random_path_only_when_tied(
        self, mirror_tied4, single_nominee5, pattern5
    ):
        rng = Random(7)
        p4 = self.P4
        d = compute(snapshot_of(mirror_tied4, 0), p4, rng=rng)
        assert d.branch == "random_tiebreak"
        d = compute(snapshot_of(single_nominee5, 0), pattern5, rng=rng)
        assert d.branch != "random_tiebreak"
