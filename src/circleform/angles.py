"""Exact angular arithmetic on the unit circle.

Angles are rational fractions of one full turn, normalised into [0, 1).
Working in turns instead of radians keeps every comparison exact, which the
decision rule depends on: lexicographic ties and open-interval membership
must never be corrupted by rounding.

At the boundary (files, traces, decisions) an angle is a
``fractions.Fraction``.  Inside the rule a configuration is held as integer
gaps over one common denominator, so the hot path compares and adds plain
ints.  The sequence helpers here (``least_reading``, ``canonical_cycle``,
``prefix_sums``, ``least_period``) take either kind of number unchanged; gap
sequences compare as plain tuples.  ``least_reading`` is the one scan for
the least reading of a cycle: it returns the reading and every (offset,
reversed) that reads it, which are the owners the rule classifies by.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .errors import StructuralError

Turn = Fraction

FULL_TURN = Fraction(1)


def mod1(x: Fraction) -> Fraction:
    """Reduce an angle to the canonical representative in [0, 1)."""
    return x % 1


@lru_cache(maxsize=1 << 12)
def parse_turn(text: str) -> Fraction:
    """Parse a 'p/q' string into a Fraction.  Plain integers are accepted too.

    Each distinct text is parsed once and later calls return the same
    (immutable) Fraction, so decoded traces share their angles.  A text that
    does not parse raises on every call, and so does anything but a string:
    a JSON number is no exact angle.
    """
    if not isinstance(text, str):
        raise StructuralError(f"not a rational angle text: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"not a rational angle: {text!r}") from exc


def format_turn(x: Fraction) -> str:
    """Serialise a Fraction as 'p/q'.  Integers keep an explicit denominator ('0/1')."""
    return f"{x.numerator}/{x.denominator}"


class Direction(Enum):
    """One of the two ways around the circle, relative to the presentation order.

    The tag is presentation-relative on purpose: robots share no global
    orientation, so nothing downstream may attach meaning to which physical
    sense 'forward' is.
    """

    FORWARD = 1
    REVERSE = -1

    @property
    def opposite(self) -> "Direction":
        return Direction.REVERSE if self is Direction.FORWARD else Direction.FORWARD

    @property
    def sign(self) -> int:
        """+1 for FORWARD, -1 for REVERSE, as a multiplier on position offsets."""
        return self.value


def least_reading(
    seq: Sequence[Fraction],
) -> tuple[tuple[Fraction, ...], tuple[tuple[int, bool], ...]]:
    """(canon, owners): the least reading of the cycle seq, and where it is read.

    A reading is a rotation of seq or of ``seq[::-1]``; canon is the least of
    all 2n.  owners lists every (j, r) with ``canon == s[j:] + s[:j]``, where
    s is ``seq[::-1]`` when r is set and seq otherwise: forward readings
    first, then by increasing offset.  A least reading starts at a least
    entry, so only the offsets holding min(seq) are tried, each with one or
    two tuple comparisons: O(n*m), with m the number of minimal gaps.
    """
    seq = tuple(seq)
    low = min(seq)
    canon, owners = None, []
    for r, s in ((False, seq), (True, seq[::-1])):
        for j, x in enumerate(s):
            if x == low:
                cand = s[j:] + s[:j]
                if canon is None or cand < canon:
                    canon, owners = cand, [(j, r)]
                elif cand == canon:
                    owners.append((j, r))
    return canon, tuple(owners)


def canonical_cycle(seq: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Least rotation of the cycle read in either of its two directions.

    This is the natural canonical form for an unoriented circle: two gap
    cycles describe the same arrangement exactly when they agree under some
    rotation possibly combined with a reversal.
    """
    return _canonical_cached(tuple(seq))


@lru_cache(maxsize=1 << 16)
def _canonical_cached(seq: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return least_reading(seq)[0]


def gaps_of(sorted_positions: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Cyclic gap sequence of positions sorted ascending.  A single robot owns
    the whole turn, so n=1 yields (1,)."""
    n = len(sorted_positions)
    if n == 0:
        raise StructuralError("no positions")
    if n == 1:
        return (FULL_TURN,)
    return tuple(
        mod1(sorted_positions[(i + 1) % n] - sorted_positions[i]) for i in range(n)
    )


def least_period(seq: Sequence) -> int:
    """Smallest p dividing len(seq) such that rotating seq by p places fixes it."""
    n = len(seq)
    for p in range(1, n):
        if n % p == 0 and seq[p:] == seq[:-p]:
            return p
    return n


def prefix_sums(seq: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(0, seq[0], seq[0]+seq[1], ...): offsets of cycle members from the root.

    The leading zero has the type of the entries, so int gaps give int offsets.
    """
    zero = seq[0] * 0 if seq else Fraction(0)
    return tuple(accumulate(seq[:-1], initial=zero))
