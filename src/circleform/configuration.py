"""Global configurations and the classification operations built on them.

A configuration is the sorted tuple of distinct robot positions.  Everything a
robot is allowed to act on is delivered through :class:`Snapshot`: relative gap
structure, read the presentation's way round.  That this way round changes no
move is checked by the rule, in its survey of a tied shape
(``formation._survey``).

Classification works on integer gap cycles: a configuration's gaps over one
common denominator, divided by their gcd.  That reduced cycle is unique for
the gaps it stands for, so caches keyed on it hit exactly when the gaps are
equal.  The class is read off the owners of the cycle's least reading
(``angles.least_reading``): one owner is the leader, two are the tied
nominees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import lt
from typing import Iterable, Optional, Union

from .angles import Direction, least_period, least_reading, mod1, prefix_sums
from .errors import ClassificationError, PreconditionError, StructuralError

_CACHE = 1 << 16


@dataclass(frozen=True)
class Configuration:
    """n distinct robot positions, sorted ascending in the presentation frame.

    Positions are exact rationals, checked once as integer numerators over
    their common denominator: the numerators ``cycle`` is derived from."""

    positions: tuple[Fraction, ...]
    cycle: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = self.positions
        if not pos:
            raise StructuralError("a configuration needs at least one robot")
        try:
            den = lcm(*(p.denominator for p in pos))
            nums = [p.numerator * (den // p.denominator) for p in pos]
        except AttributeError:
            raise StructuralError("positions must be exact rationals") from None
        if not (0 <= nums[0] and nums[-1] < den and all(map(lt, nums, nums[1:]))):
            # strictly ascending in [0, 1) fails: name the first broken rule
            if any(not (0 <= x < den) for x in nums):
                raise StructuralError("positions must be normalised into [0, 1)")
            if nums != sorted(nums):
                raise StructuralError("positions must be sorted ascending")
            raise StructuralError("positions must be distinct")
        cycle = [b - a for a, b in zip(nums, nums[1:])]
        cycle.append(nums[0] + den - nums[-1])
        g = gcd(*cycle)
        object.__setattr__(self, "cycle", tuple(x // g for x in cycle))

    @classmethod
    def from_positions(cls, positions: Iterable[Fraction]) -> "Configuration":
        """Build from positions in any order; values are reduced mod 1."""
        return cls(tuple(sorted(mod1(Fraction(p)) for p in positions)))

    @property
    def n(self) -> int:
        return len(self.positions)

    @cached_property
    def den(self) -> int:
        """Denominator of ``cycle``: the sum of its entries."""
        return sum(self.cycle)

    @cached_property
    def gaps(self) -> tuple[Fraction, ...]:
        """Cyclic gaps, gaps[i] from robot i to robot i+1 in presentation order."""
        den = self.den
        return tuple(Fraction(g, den) for g in self.cycle)

    def fold(self) -> int:
        return self.n // least_period(self.cycle)


@dataclass(frozen=True)
class Snapshot:
    """What one robot sees: its two rooted gap sequences.

    ``cycle`` is the gap sequence read forward (the presentation frame's
    way) from the robot, as ints over ``den``; ``forward_gaps`` and
    ``reverse_gaps`` are the same readings as turns.  The robot's other
    reading is its forward reading in the mirror image, where the rule must
    make the mirror move.  ``observer_position`` places a computed move back
    on the shared circle; the choice logic only ever reads the gaps.
    """

    cycle: tuple[int, ...]
    den: int
    observer_position: Fraction

    @property
    def n(self) -> int:
        return len(self.cycle)

    @property
    def forward_gaps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(g, self.den) for g in self.cycle)

    @property
    def reverse_gaps(self) -> tuple[Fraction, ...]:
        return self.forward_gaps[::-1]


def snapshot_of(c: Configuration, i: int) -> Snapshot:
    """The two gap sequences rooted at robot i."""
    n = c.n
    if not (0 <= i < n):
        raise StructuralError(f"robot index {i} out of range for n={n}")
    cycle = c.cycle
    return Snapshot(cycle[i:] + cycle[:i], c.den, c.positions[i])


@dataclass(frozen=True)
class Symmetric:
    fold: int


@dataclass(frozen=True)
class LeaderConfig:
    leader: int
    pivotal: Direction


@dataclass(frozen=True)
class DoubleNomineeTied:
    """Two owners of the least reading, mirror images of each other."""

    nominee_a: int
    nominee_b: int
    # index of the robot sitting on a bisector point, or None (even n only)
    bisector_robot: Optional[int]


ConfigClass = Union[Symmetric, LeaderConfig, DoubleNomineeTied]


def nominees(c: Configuration) -> list[tuple[int, Direction]]:
    """Robots owning the global minimum angle sequence, with the realising
    direction, in index order.

    Defined only for rotationally asymmetric configurations of n >= 3
    robots, the ones ``classify`` sends to a leader or a tie.
    """
    if isinstance(classify(c), Symmetric):
        raise ClassificationError("nominees are undefined for symmetric configurations")
    n = c.n
    # no robot owns the least reading both ways round, so the sort never
    # compares two directions
    return sorted(
        (-j % n, Direction.REVERSE) if r else (j, Direction.FORWARD)
        for j, r in least_reading(c.cycle)[1]
    )


def _on_bisector(gaps: tuple[int, ...], ia: int, ib: int) -> list[int]:
    """The robots sitting on the two bisector points of robots ``ia`` and
    ``ib`` of an integer gap cycle, in index order.

    Robot k sits at 2 * offset[k] of a turn of 2 * sum(gaps), so the
    bisector points of robots a and b, (a + b) / 2 and half a turn on, are
    whole numbers.
    """
    full = sum(gaps)
    at = [2 * x for x in prefix_sums(gaps)]
    p = (at[ia] + at[ib]) // 2
    q = (p + full) % (2 * full)
    return [idx for idx, pos in enumerate(at) if pos == p or pos == q]


@lru_cache(maxsize=_CACHE)
def _classify_cycle(gaps: tuple[int, ...]) -> ConfigClass:
    """Classification in the index space of a rooted integer gap cycle.

    The result only depends on the cycle, so it is shared by every
    configuration that differs by a global rotation.  A leader comes only
    from a single nominee: two nominees read the least reading opposite
    ways round (the same way would make the rotation between them a
    symmetry), so they are mirror images, tied, and a robot on their
    bisector reads the same both ways round.
    """
    n = len(gaps)
    fold = n // least_period(gaps)
    if fold > 1:
        return Symmetric(fold)
    owners = least_reading(gaps)[1]
    if len(owners) > 2:
        raise ClassificationError(
            f"{len(owners)} owners of the minimal sequence in an asymmetric configuration"
        )
    if len(owners) == 1:
        (j, r), = owners
        return LeaderConfig(-j % n, Direction.REVERSE) if r else LeaderConfig(j, Direction.FORWARD)
    ia, ib = sorted(-j % n if r else j for j, r in owners)
    on_bis = _on_bisector(gaps, ia, ib)
    return DoubleNomineeTied(ia, ib, on_bis[0] if len(on_bis) == 1 else None)


def classify(c: Configuration) -> ConfigClass:
    """Full classification of a configuration with n >= 3 robots.

    Symmetric(k) when a nontrivial rotation fixes the set; otherwise a leader
    configuration when a single robot owns the least reading; otherwise the
    tied case of two nominees, which are mirror images, carrying the unique
    bisector robot when n is odd and None when n is even and the bisector is
    empty or doubly occupied.
    """
    if c.n < 3:
        raise PreconditionError("classification needs n >= 3")
    return _classify_cycle(c.cycle)
