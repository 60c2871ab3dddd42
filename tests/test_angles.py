"""Exact-angle primitives: parsing, ordering, rotations, folds, bisectors."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from circleform import Configuration, Direction, StructuralError, format_turn
from circleform.angles import (
    canonical_cycle,
    gaps_of,
    least_reading,
    mod1,
    parse_turn,
    prefix_sums,
)
from oracles import (
    angle_between,
    bisector_points,
    brute_fold,
    brute_min_rotation,
    brute_owners,
    rotate,
)

F = Fraction

turns = st.fractions(min_value=0, max_value=1, max_denominator=60).map(mod1)
gap_seqs = st.lists(
    st.fractions(min_value="1/30", max_value=1, max_denominator=30),
    min_size=1,
    max_size=8,
).map(tuple)


class TestTurnSerialisation:
    def test_round_trip(self):
        for x in (F(0), F(1, 12), F(17, 24), F(5, 7)):
            assert parse_turn(format_turn(x)) == x

    def test_zero_keeps_denominator(self):
        assert format_turn(F(0)) == "0/1"

    def test_integer_text_accepted(self):
        assert parse_turn("0") == 0

    def test_garbage_rejected(self):
        with pytest.raises(StructuralError):
            parse_turn("a/b")
        with pytest.raises(StructuralError):
            parse_turn("1/0")

    def test_garbage_raises_on_every_call(self):
        # the parse cache keeps results, never errors
        messages = []
        for _ in range(2):
            with pytest.raises(StructuralError) as err:
                parse_turn("a/b")
            messages.append(str(err.value))
        assert messages == ["not a rational angle: 'a/b'"] * 2

    def test_equal_texts_share_one_fraction(self):
        assert parse_turn("7/12") is parse_turn("7/12")

    @pytest.mark.parametrize("value", [0.6722222222222223, 1, True, None])
    def test_non_string_rejected(self, value):
        # a JSON number is a decimal expansion, not the exact 'p/q' a file promises
        with pytest.raises(StructuralError, match="not a rational angle text"):
            parse_turn(value)


class TestAngleBetween:
    def test_adjacent_pair(self):
        # 30 degrees between the first two robots of the worked example
        assert angle_between(F(0), F(1, 12), Direction.FORWARD) == F(1, 12)

    def test_same_point_is_zero(self):
        assert angle_between(F(1, 3), F(1, 3), Direction.FORWARD) == 0
        assert angle_between(F(1, 3), F(1, 3), Direction.REVERSE) == 0

    def test_wraps_past_origin(self):
        assert angle_between(F(1, 2), F(1, 4), Direction.FORWARD) == F(3, 4)

    @given(turns, turns)
    def test_directions_complement(self, a, b):
        fwd = angle_between(a, b, Direction.FORWARD)
        rev = angle_between(a, b, Direction.REVERSE)
        assert mod1(fwd + rev) == 0
        assert 0 <= fwd < 1


DEG = F(1, 360)


class TestLexCompare:
    """Gap readings compare lexicographically; ``least_reading`` picks the
    least of a cycle's readings and lists where it is read, reversed or not."""

    def test_worked_example_readings(self):
        fwd = tuple(k * DEG for k in (30, 90, 60, 75, 105))
        rev = tuple(reversed(fwd))
        assert least_reading(fwd) == (fwd, ((0, False),))
        assert least_reading(rev) == (fwd, ((0, True),))

    def test_equal(self):
        # a palindromic reading ties with its reverse; forward comes first
        s = (F(1, 4), F(1, 4), F(1, 2))
        assert least_reading(s) == (s, ((0, False), (1, True)))

    def test_second_element_decides(self):
        s = (F(1, 4), F(1, 2), F(1, 4))
        assert least_reading(s) == ((F(1, 4), F(1, 4), F(1, 2)), ((2, False), (2, True)))

    @given(gap_seqs)
    def test_antisymmetric(self, s):
        # reversing the cycle flips which way round each owner reads, and
        # forward owners still come first
        canon, owners = least_reading(s)
        canon_rev, owners_rev = least_reading(s[::-1])
        assert canon == canon_rev
        flipped = sorted(((j, not r) for j, r in owners), key=lambda o: (o[1], o[0]))
        assert owners_rev == tuple(flipped)

    @given(gap_seqs, st.integers(0, 7))
    def test_transitive(self, s, j):
        # the least reading is at most every reading of either direction
        canon = least_reading(s)[0]
        assert canon <= rotate(s, j)
        assert canon <= rotate(s[::-1], j)


class TestMinRotation:
    """The least rotation and its smallest-offset tie-break, as the first
    owner of ``least_reading``."""

    def test_offset_one(self):
        s = (F(1, 2), F(1, 6), F(1, 3))
        assert least_reading(s) == ((F(1, 6), F(1, 3), F(1, 2)), ((1, False),))

    def test_already_minimal(self):
        s = (F(1, 6), F(1, 3), F(1, 2))
        assert least_reading(s) == (s, ((0, False),))

    def test_all_equal_prefers_offset_zero(self):
        s = (F(1, 4),) * 4
        canon, owners = least_reading(s)
        assert canon == s
        assert owners == tuple((j, r) for r in (False, True) for j in range(4))

    @given(gap_seqs)
    def test_matches_brute_force(self, s):
        # a least forward rotation that is the least reading is read from
        # the smallest offset holding it
        canon, owners = least_reading(s)
        fwd = brute_min_rotation(s)
        if fwd[0] == canon:
            assert owners[0] == (fwd[1], False)
        else:
            assert all(r for _, r in owners)

    @given(gap_seqs, st.integers(0, 7))
    def test_invariant_under_pre_rotation(self, s, j):
        assert least_reading(rotate(s, j))[0] == least_reading(s)[0]


class TestCanonicalCycle:
    def test_reversal_can_beat_rotation(self):
        # forward rotations of (1,5,2)/8 never reach (1,2,5)/8
        s = (F(1, 8), F(5, 8), F(2, 8))
        assert canonical_cycle(s) == (F(1, 8), F(1, 4), F(5, 8))

    @given(gap_seqs, st.integers(0, 7))
    def test_dihedral_invariance(self, s, j):
        canon = canonical_cycle(s)
        assert canonical_cycle(rotate(s, j)) == canon
        assert canonical_cycle(tuple(reversed(s))) == canon

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=9).map(tuple))
    def test_least_reading_locates_the_canonical_cycle(self, s):
        # small entries make equal rotations and palindromes common
        canon, owners = least_reading(s)
        fwd, rev = brute_min_rotation(s), brute_min_rotation(s[::-1])
        assert canon == canonical_cycle(s) == min(fwd[0], rev[0])
        assert all(canon == rotate(s[::-1] if r else s, j) for j, r in owners)
        # equal readings prefer the forward one, then the smallest offset
        assert owners[0] == ((rev[1], True) if rev[0] < fwd[0] else (fwd[1], False))

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple),
        st.integers(1, 3),
    )
    def test_owners_match_brute_force(self, base, repeats):
        # small entries and repeated blocks make palindromes, rotational
        # symmetry and tied owners common
        s = base * repeats
        assert least_reading(s)[1] == brute_owners(s)


def fold(pts) -> int:
    return Configuration.from_positions(pts).fold()


class TestRotationalFold:
    def test_square(self):
        assert fold({F(0), F(1, 4), F(1, 2), F(3, 4)}) == 4

    def test_worked_example_is_asymmetric(self):
        assert fold({F(0), F(1, 12), F(1, 3), F(1, 2), F(17, 24)}) == 1

    def test_half_turn(self):
        assert fold({F(0), F(1, 6), F(1, 2), F(2, 3)}) == 2

    @given(st.sets(turns, min_size=1, max_size=8))
    def test_matches_brute_force(self, pts):
        assert fold(pts) == brute_fold(sorted(pts))

    @given(st.sets(turns, min_size=1, max_size=8), turns)
    def test_invariant_under_rotation(self, pts, shift):
        rotated = {mod1(p + shift) for p in pts}
        assert fold(rotated) == fold(pts)


class TestBisectorPoints:
    def test_adjacent_pair(self):
        assert bisector_points(F(0), F(1, 12)) == (F(1, 24), F(13, 24))

    def test_antipodal_inputs(self):
        assert bisector_points(F(0), F(1, 2)) == (F(1, 4), F(3, 4))

    def test_wrapping_pair(self):
        assert bisector_points(F(1, 3), F(17, 24)) == (F(25, 48), F(1, 48))

    @given(turns, turns)
    def test_antipodal_and_equidistant(self, a, b):
        assume(a != b)
        p, q = bisector_points(a, b)
        assert mod1(p - q) == F(1, 2)
        assert angle_between(a, p, Direction.FORWARD) == angle_between(p, b, Direction.FORWARD)


class TestGapHelpers:
    def test_gaps_of_single_robot(self):
        assert gaps_of((F(1, 3),)) == (F(1),)

    def test_gaps_close_the_turn(self):
        pts = (F(0), F(1, 12), F(1, 3), F(1, 2), F(17, 24))
        gaps = gaps_of(pts)
        assert gaps == tuple(k * DEG for k in (30, 90, 60, 75, 105))
        assert sum(gaps) == 1

    def test_prefix_sums_start_at_zero(self):
        assert prefix_sums((F(1, 6), F(1, 3), F(1, 2))) == (F(0), F(1, 6), F(1, 2))
