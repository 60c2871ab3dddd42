"""Configurations, snapshots, and the nominee/leader classification."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleform import (
    ClassificationError,
    Configuration,
    Direction,
    DoubleNomineeTied,
    LeaderConfig,
    PreconditionError,
    StructuralError,
    Symmetric,
    classify,
    nominees,
    snapshot_of,
)
from circleform.angles import mod1
from conftest import config, random_positions
from oracles import arc_population, brute_nominees, mirror, mirror_index, rooted_sequence

F = Fraction
DEG = F(1, 360)

position_sets = st.sets(
    st.fractions(min_value=0, max_value=1, max_denominator=48).map(mod1),
    min_size=3,
    max_size=9,
)


class TestConfiguration:
    def test_positions_sorted_and_distinct(self):
        c = Configuration.from_positions([F(1, 2), F(0), F(1, 4)])
        assert c.positions == (F(0), F(1, 4), F(1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(StructuralError):
            Configuration.from_positions([F(0), F(0), F(1, 2)])

    def test_rejects_unnormalised_direct_construction(self):
        with pytest.raises(StructuralError):
            Configuration((F(1, 2), F(1, 4)))
        with pytest.raises(StructuralError):
            Configuration((F(0), F(5, 4)))

    def test_names_the_first_broken_rule(self):
        # range before order before distinctness, as the checks run
        cases = [
            ((F(1, 2), F(1, 4), F(5, 4)), "normalised"),
            ((F(1, 2), F(1, 4), F(1, 4)), "sorted"),
            ((F(1, 4), F(1, 4), F(1, 2)), "distinct"),
        ]
        for positions, rule in cases:
            with pytest.raises(StructuralError, match=rule):
                Configuration(positions)

    def test_rejects_non_rational_positions(self):
        with pytest.raises(StructuralError, match="rational"):
            Configuration((0.1, 0.5, 0.7))
        with pytest.raises(StructuralError, match="rational"):
            Configuration((F(0), 0.5))
        # ints are exact, and from_positions still converts through Fraction
        assert Configuration((0, F(1, 2))).cycle == (1, 1)
        assert Configuration.from_positions([0.5, 0.25]).positions == (F(1, 4), F(1, 2))

    def test_from_positions_normalises(self):
        c = Configuration.from_positions([F(5, 4), F(1, 2)])
        assert c.positions == (F(1, 4), F(1, 2))

    def test_gaps_and_fold(self, single_nominee5):
        assert sum(single_nominee5.gaps) == 1
        assert single_nominee5.fold() == 1
        assert config(0, F(1, 4), F(1, 2), F(3, 4)).fold() == 4


class TestSnapshot:
    def test_worked_example_readings(self, single_nominee5):
        s = snapshot_of(single_nominee5, 0)
        assert s.forward_gaps == tuple(k * DEG for k in (30, 90, 60, 75, 105))
        assert s.reverse_gaps == tuple(k * DEG for k in (105, 75, 60, 90, 30))

    def test_flip_swaps_labels(self, single_nominee5):
        # the other reading of robot 0 is its reading in the mirror image
        plain = snapshot_of(single_nominee5, 0)
        j = mirror_index(single_nominee5, 0)
        mirrored = snapshot_of(mirror(single_nominee5), j)
        assert mirrored.forward_gaps == plain.reverse_gaps
        assert mirrored.reverse_gaps == plain.forward_gaps
        assert mirrored.observer_position == mod1(-plain.observer_position)

    def test_single_robot_sees_whole_turn(self):
        c = Configuration.from_positions([F(1, 3)])
        s = snapshot_of(c, 0)
        assert s.forward_gaps == (F(1),)
        assert s.reverse_gaps == (F(1),)

    def test_observer_out_of_range(self, single_nominee5):
        with pytest.raises(StructuralError):
            snapshot_of(single_nominee5, 5)


class TestNominees:
    def test_worked_example_single_nominee(self, single_nominee5):
        assert nominees(single_nominee5) == [(0, Direction.FORWARD)]

    def test_degree_fixture_matches_brute_force(self):
        c = config(0, F(1, 36), F(5, 18), F(19, 36), F(7, 9))
        assert nominees(c) == [(1, Direction.REVERSE)]
        assert {i for i, _ in nominees(c)} == set(brute_nominees(c.positions))

    def test_symmetric_input_rejected(self):
        with pytest.raises(ClassificationError):
            nominees(config(0, F(1, 4), F(1, 2), F(3, 4)))

    @pytest.mark.parametrize("positions", [(F(0),), (F(0), F(1, 3))])
    def test_too_few_robots(self, positions):
        # as classify does
        with pytest.raises(PreconditionError):
            nominees(Configuration.from_positions(positions))

    @given(position_sets)
    @settings(max_examples=150)
    def test_cardinality_and_brute_agreement(self, pts):
        c = Configuration.from_positions(pts)
        if c.fold() != 1:
            return
        found = nominees(c)
        assert 1 <= len(found) <= 2
        brute = brute_nominees(c.positions)
        assert {i for i, _ in found} == set(brute)
        for i, d in found:
            assert d in brute[i]

    @given(position_sets)
    @settings(max_examples=100)
    def test_two_nominees_read_in_opposite_physical_directions(self, pts):
        c = Configuration.from_positions(pts)
        if c.fold() != 1:
            return
        found = nominees(c)
        if len(found) == 2:
            (ia, da), (ib, db) = found
            assert rooted_sequence(c.positions, ia, da) == rooted_sequence(
                c.positions, ib, db
            )
            assert da is not db


class TestClassify:
    def test_worked_example_leader(self, single_nominee5):
        assert classify(single_nominee5) == LeaderConfig(0, Direction.FORWARD)

    def test_leader_not_at_origin(self):
        c = config(0, F(1, 12), F(1, 3), F(5, 12), F(3, 4))
        assert classify(c) == LeaderConfig(3, Direction.REVERSE)

    def test_square_is_symmetric(self):
        assert classify(config(0, F(1, 4), F(1, 2), F(3, 4))) == Symmetric(4)

    def test_odd_tie_names_the_bisector_robot(self, tied5):
        assert classify(tied5) == DoubleNomineeTied(1, 4, 0)

    def test_even_tie_with_empty_bisector(self, mirror_tied4):
        assert classify(mirror_tied4) == DoubleNomineeTied(0, 3, None)

    def test_too_few_robots(self):
        with pytest.raises(PreconditionError):
            classify(Configuration.from_positions([F(0), F(1, 2)]))

    @given(position_sets)
    @settings(max_examples=150)
    def test_total_and_consistent(self, pts):
        c = Configuration.from_positions(pts)
        found = classify(c)
        if c.fold() > 1:
            assert found == Symmetric(c.fold())
        elif isinstance(found, LeaderConfig):
            assert (found.leader, found.pivotal) in [
                (i, d) for i, d in nominees(c)
            ]
        else:
            assert isinstance(found, DoubleNomineeTied)
            noms = {i for i, _ in nominees(c)}
            assert {found.nominee_a, found.nominee_b} == noms

    @given(position_sets, st.fractions(min_value=0, max_value=1, max_denominator=24))
    @settings(max_examples=100)
    def test_rotation_moves_labels_not_structure(self, pts, shift):
        c = Configuration.from_positions(pts)
        rotated = Configuration.from_positions([mod1(p + shift) for p in pts])
        a, b = classify(c), classify(rotated)
        assert type(a) is type(b)
        if isinstance(a, Symmetric):
            assert a == b


class TestArcPopulation:
    def test_odd_tie_puts_one_robot_on_bisector(self, tied5):
        found = classify(tied5)
        ca, cb, on_bis = arc_population(tied5, found.nominee_a, found.nominee_b)
        assert on_bis == [0]
        assert ca == cb == 2
        assert ca + cb + len(on_bis) == tied5.n

    def test_even_tie_bisector_empty_or_double(self, mirror_tied4):
        found = classify(mirror_tied4)
        ca, cb, on_bis = arc_population(mirror_tied4, found.nominee_a, found.nominee_b)
        assert len(on_bis) in (0, 2)
        assert ca == cb
        assert ca + cb + len(on_bis) == mirror_tied4.n

    def test_adjacent_pair_with_everyone_one_side(self):
        # the query pair each sit in their own arc, so the lopsided split
        # shows up as 1 vs n-1
        c = config(0, F(1, 10), F(1, 5), F(3, 10), F(2, 5))
        assert arc_population(c, 0, 1) == (1, 4, [])
        assert arc_population(c, 1, 0) == (4, 1, [])

    def test_same_robot_twice_rejected(self, tied5):
        with pytest.raises(PreconditionError):
            arc_population(tied5, 2, 2)

    @given(position_sets)
    @settings(max_examples=100)
    def test_partition_is_exact(self, pts):
        c = Configuration.from_positions(pts)
        ca, cb, on_bis = arc_population(c, 0, 1)
        assert ca + cb + len(on_bis) == c.n


class TestPivotalDirection:
    def test_worked_example(self, single_nominee5):
        assert classify(single_nominee5) == LeaderConfig(0, Direction.FORWARD)

    def test_mirror_flips_it(self, single_nominee5):
        mirrored = Configuration.from_positions(
            [mod1(-p) for p in single_nominee5.positions]
        )
        found = classify(mirrored)
        assert found.pivotal is Direction.REVERSE

    def test_flipped_snapshot_same_physical_direction(self):
        # presentation-independence: relabeling cannot change where the
        # minimal reading physically points
        rng = Random(9)
        found_leaders = 0
        while found_leaders < 25:
            c = Configuration.from_positions(random_positions(5, rng))
            cls = classify(c)
            if not isinstance(cls, LeaderConfig):
                continue
            found_leaders += 1
            # the leader's other reading is its reading in the mirror image,
            # where the minimal reading physically points the other way
            s_plain = snapshot_of(c, cls.leader)
            j = mirror_index(c, cls.leader)
            s_mirror = snapshot_of(mirror(c), j)
            for s, pivotal in ((s_plain, cls.pivotal), (s_mirror, cls.pivotal.opposite)):
                fwd_is_min = s.forward_gaps < s.reverse_gaps
                label = Direction.FORWARD if fwd_is_min else Direction.REVERSE
                assert label is pivotal
