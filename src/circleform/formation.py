"""The formation rule: from one robot's snapshot to its next move.

The decision logic runs on integer gaps.  Every robot reading one
configuration derives the same leader, pivotal direction and role frame, so
the rule surveys a configuration shape once per miss of ``_decide``'s cache
(``_survey``) and turns the survey into one instruction table per gap
cycle (``_decide``): robot k, reading the cycle forward from index k,
finds its instruction at index k, a draw if it takes the randomized
tie-break.  The table also carries the configuration's progress phase
(formed, symmetric, tied, or a leader configuration's stage), which the
survey labels from the same role gaps it chooses moves on.  ``compute``
reads index 0 of its snapshot's cycle; the simulator reads a whole
configuration's table, and its phase, at once.  One function
(``_to_decision``) maps any instruction back onto the shared circle: a
draw takes its travel from the caller's random source and waits without
one.  Every stay branch and termination maps to one shared, frozen
``Decision`` (decoded traces share them too); only moves are built anew.
Every other interval choice is made by midpoint subdivision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from random import Random
from typing import Iterable, Optional

from .angles import (
    FULL_TURN,
    Direction,
    canonical_cycle,
    least_reading,
    mod1,
    prefix_sums,
)
from .configuration import (
    Configuration,
    DoubleNomineeTied,
    LeaderConfig,
    Snapshot,
    Symmetric,
    _classify_cycle,
)
from .errors import (
    EmptyIntervalError,
    GenerationError,
    InvariantViolationError,
    PatternError,
    PreconditionError,
    StructuralError,
    SymmetricConfigurationError,
)

_CACHE = 1 << 16
# denominator of randomized tie-break draws; two independent draws collide
# with probability 1/_RAND_DENOM
_RAND_DENOM = 1 << 61


@dataclass(frozen=True)
class TargetPattern:
    """A formable pattern, held as its canonical gap cycle.

    ``angles`` is the lexicographically least reading of the requested cycle
    over all rotations of both orientations, so angles[0] is a smallest gap
    and angles[1] <= angles[-1].  Rotated or mirrored inputs collapse to the
    same value; the mirror image is recovered, when a run needs it, by the
    pivotal direction the targets are laid out along.
    """

    angles: tuple[Fraction, ...]
    original: tuple[Fraction, ...]

    @classmethod
    def from_angles(cls, angles: Iterable[Fraction]) -> "TargetPattern":
        orig = tuple(Fraction(a) for a in angles)
        if len(orig) < 3:
            raise PatternError("a pattern needs at least 3 gaps")
        if any(a <= 0 for a in orig):
            raise PatternError("pattern gaps must all be positive")
        if sum(orig) != FULL_TURN:
            raise PatternError("pattern gaps must sum to one full turn")
        canon = canonical_cycle(orig)
        if canon[1] == canon[-1]:
            # the endgame releases the leader's two neighbours through a gate
            # that only opens when these two gaps differ; regular polygons are
            # the simplest pattern this excludes
            raise PatternError(
                "unsupported pattern: the gaps flanking its smallest gap are equal"
            )
        return cls(canon, orig)

    def __hash__(self) -> int:
        # equal patterns have equal cycles, whose ints hash faster than Fractions
        return hash(self.cycle)

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def min_gap_floor(self) -> Fraction:
        """Every gap the rule manufactures stays strictly above this bound.

        Keeping gaps above it guarantees the endgame's parking interval is
        never empty.  Initial configurations must respect it too; the
        instance generator enforces that.
        """
        return Fraction(_gap_floor(self.cycle), self.den)

    @cached_property
    def cycle(self) -> tuple[int, ...]:
        """``angles`` as coprime ints over ``den``: the key the rule caches on."""
        return Configuration(prefix_sums(self.angles)).cycle

    @cached_property
    def den(self) -> int:
        return sum(self.cycle)

    def admits(self, c: Configuration) -> bool:
        """True when every gap of ``c`` clears ``min_gap_floor``, as the rule
        requires of a starting configuration."""
        return Fraction(min(c.cycle), c.den) > self.min_gap_floor


def _gap_floor(pat: tuple[int, ...]) -> int:
    """The gap floor of an int pattern cycle, in the units of its gaps."""
    return max(0, 2 * pat[0] - pat[-1])


class DecisionKind(Enum):
    STAY = "stay"
    MOVE = "move"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class Decision:
    """One robot's computed action.

    ``branch`` names the rule branch that produced the action; traces carry
    it so replays can be checked branch by branch.  ``is_move`` is stored
    once, since the run loop asks it of every decision every round; it takes
    no part in equality, hashing or ``repr``.  A move needs a ``Fraction``
    destination in [0, 1) and a ``Direction``; a stay or termination carries
    neither.  Anything else raises StructuralError.
    """

    kind: DecisionKind
    destination: Optional[Fraction] = None
    path_direction: Optional[Direction] = None
    branch: str = ""
    is_move: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        to, way = self.destination, self.path_direction
        move = self.kind is DecisionKind.MOVE
        object.__setattr__(self, "is_move", move)
        if not move:
            if to is not None or way is not None:
                raise StructuralError(f"a {self.kind.value} carries no destination or direction")
        elif not isinstance(to, Fraction) or not 0 <= to.numerator < to.denominator:
            raise StructuralError(f"a move needs a destination in [0, 1), got {to}")
        elif not isinstance(way, Direction):
            raise StructuralError(f"a move needs a direction, got {way}")


def select_in_interval(lo: Fraction, hi: Fraction, forbidden: Iterable[Fraction] = ()) -> Fraction:
    """Deterministic pick from the open interval (lo, hi) avoiding a finite set.

    Takes the midpoint; if that is forbidden, tries the midpoints of the two
    halves (left first), then quarters, and so on level by level.  A finite
    forbidden set cannot cover a whole level, so this terminates.
    """
    if lo >= hi:
        raise EmptyIntervalError(f"empty open interval ({lo}, {hi})")
    bad = frozenset(forbidden)
    queue = deque([(lo, hi)])
    while True:
        a, b = queue.popleft()
        mid = (a + b) / 2
        if mid not in bad:
            return mid
        queue.append((a, mid))
        queue.append((mid, b))


def _bisector_blocked(nb: int, sign: int, others: Iterable[int], full: int) -> set:
    """Move amounts that would leave some robot on a bisector point.

    Offsets are ints over ``full`` from the mover, which travels in direction
    ``sign`` toward its neighbour at ``nb``.  A robot at x sits on a bisector
    point of the moved pair exactly when 2x = sign * eps + nb (mod full).
    """
    return {(sign * (2 * x - nb)) % full for x in others}


def _pick(lo: int, hi: int, bad: Iterable[int], full: int) -> Fraction:
    """select_in_interval on integer bounds over ``full``; the choice as a turn."""
    return select_in_interval(
        Fraction(lo, full), Fraction(hi, full), {Fraction(b, full) for b in bad}
    )


def _common_scale(
    gaps: tuple[int, ...], den: int, pat: tuple[int, ...], pden: int
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(full, gaps, pat): two int cycles over den and pden, rescaled to one
    common denominator ``full``."""
    full = lcm(den, pden)
    a, b = full // den, full // pden
    return (
        full,
        gaps if a == 1 else tuple(g * a for g in gaps),
        pat if b == 1 else tuple(x * b for x in pat),
    )


def _settled(gaps: tuple, pat: tuple) -> bool:
    """Every role past the leader's two neighbours sits on its target."""
    return prefix_sums(gaps)[3:] == prefix_sums(pat)[3:]


def _check_size(pattern: TargetPattern, n: int) -> None:
    if pattern.n != n:
        raise StructuralError(f"pattern has {pattern.n} gaps for {n} robots")


def pattern_formed(c: Configuration, pattern: TargetPattern) -> bool:
    """True when the configuration realises the pattern in either direction."""
    _check_size(pattern, c.n)
    # coprime cycles of one shape have equal sums
    return c.den == pattern.den and canonical_cycle(c.cycle) == pattern.cycle


def _rfc_on(gaps: tuple[int, ...], beta0: int) -> bool:
    """Released (RFC): the leader's gap strictly least, its successor's gap
    strictly second least, both under the pattern's smallest gap ``beta0``."""
    lead_margin = min(min(gaps[1:]), beta0)
    second_margin = min(min(gaps[2:]), beta0)
    return gaps[0] < lead_margin and gaps[1] < second_margin


def _move_ready_role(gaps: tuple, goal: tuple, full: int) -> Optional[int]:
    """First role >= 3 that is off target with clearance to reach it.

    Clearance: the gap to the next robot on the destination side must exceed
    the travel distance by more than gaps[1], so the landed robot still
    leaves a wider gap than the second-smallest one.  ``full`` is one turn
    in the units of the gaps.
    """
    n = len(gaps)
    at = prefix_sums(gaps)
    for k in range(3, n):
        if at[k] == goal[k]:
            continue
        if goal[k] > at[k]:
            room = (at[k + 1] if k + 1 < n else full) - at[k]
            dist = goal[k] - at[k]
        else:
            room = at[k] - at[k - 1]
            dist = at[k] - goal[k]
        if room - dist > gaps[1]:
            return k
    return None


def _break_tie(cycle: tuple[int, ...], full: int, floor: int) -> tuple:
    """The bisector robot's tie-breaking move; it reads ``cycle`` forward.

    The two nominees are mirror images and the robot sits on their axis, so
    its two readings are the same: either neighbour will do (sign 0).  The
    move is worked out toward the neighbour across cycle[0].
    """
    off = prefix_sums(cycle)
    near = cycle[0]
    lo, hi = near - min(cycle), near - floor
    if hi <= lo:
        hi = near
    bad = _bisector_blocked(off[1], 1, off[2:], full)
    return ("move", _pick(lo, hi, bad, full), 0, "break_tie")


MUTANTS = ("eps1-lower",)  # weakened rules the schedule explorer must catch


def _check_mutant(mutant: Optional[str]) -> None:
    if mutant is not None and mutant not in MUTANTS:
        raise PreconditionError(f"unknown mutant {mutant!r}; known: {', '.join(MUTANTS)}")


def _role_moves(
    gaps: tuple[int, ...], pat: tuple[int, ...], full: int, floor: int, mutant: Optional[str]
) -> tuple[tuple[tuple, ...], str]:
    """The instruction of every role of a leader configuration, and its phase.

    ``gaps`` are the role gaps (read from the leader along the pivotal
    direction) and ``pat`` the pattern, both over ``full``.  A move's sign
    is +1 along the pivotal direction and -1 against it.
    """
    n = len(gaps)
    at = prefix_sums(gaps)
    goal = prefix_sums(pat)
    settled = _settled(gaps, pat)
    lead_margin = min(min(gaps[1:]), pat[0])
    r1_home = gaps[0] == pat[0]
    moves = [("stay", "wait_lead"), ("stay", "wait_near"), ("stay", "wait_second")]
    moves += [("stay", "hold")] * (n - 3)

    # the leader only moves while its gap is not yet the strict minimum;
    # once the two stragglers are finishing it must hold still even though
    # its gap has grown back to pat[0]
    if gaps[0] >= lead_margin and not (r1_home and settled):
        lo, hi = gaps[0] - lead_margin, gaps[0] - floor
        if hi <= lo:
            hi = gaps[0]
        bad = _bisector_blocked(at[1], 1, at[2:], full)
        moves[0] = ("move", _pick(lo, hi, bad, full), 1, "shrink_lead_gap")

    if settled and gaps[0] < lead_margin and gaps[1] > pat[1]:
        # at n=3 ``settled`` is vacuous, so role 2 may not have finished yet;
        # landing alone must then keep role 0 leading along the same direction
        landed = (pat[0], gaps[0] + gaps[1] - pat[0]) + gaps[2:]
        if landed == pat or _classify_cycle(landed) == LeaderConfig(0, Direction.FORWARD):
            moves[1] = _move_by(Fraction(goal[1] - at[1], full), "finish_near")

    second_margin = min(min(gaps[2:]), pat[0])
    if not settled and gaps[0] < lead_margin and gaps[1] >= second_margin:
        if mutant == "eps1-lower":
            lo, hi = 0, gaps[1] - gaps[0]
        else:
            lo, hi = gaps[1] - second_margin, gaps[1] - gaps[0]
        moves[2] = ("move", _pick(lo, hi, (), full), -1, "shrink_second_gap")
    elif settled and gaps[0] <= pat[0] and (gaps[0] < lead_margin or r1_home):
        if pat[0] + pat[1] - gaps[0] < pat[-1]:
            dist, tag = Fraction(goal[2] - at[2], full), "finish_direct"
        else:
            # going straight to target would hand the smallest readings to
            # the far side; park short of it until role 1 passes
            lo = max(pat[1], 2 * pat[0] - gaps[0])
            hi = pat[-1]
            if hi <= lo:
                lo = pat[0] - gaps[0]
            dist = Fraction(gaps[0] - at[2], full) + _pick(lo, hi, (), full)
            tag = "finish_detour"
        moves[2] = ("stay", "parked") if dist == 0 else _move_by(dist, tag)

    released = _rfc_on(gaps, pat[0])
    if released and not settled:
        k = _move_ready_role(gaps, goal, full)
        if k is None:
            why = "no robot is cleared to move in a releasable configuration"
            moves[3:] = [("invariant", why)] * (n - 3)
        else:
            moves[3:] = [("stay", "wait_settle")] * (n - 3)
            moves[k] = _move_by(Fraction(goal[k] - at[k], full), "settle_target")
    phase = ("pfc" if settled else "rfc") if released else ("beyond" if settled else "lead")
    return tuple(moves), phase


def _survey(canon: tuple[int, ...], pat: tuple[int, ...], mutant: Optional[str]):
    """The rule's analysis of one configuration shape, shared by every observer.

    ``canon`` is a canonical cycle (``least_reading``) and ``pat`` the
    pattern's, each over its own sum.  Returns (moves, phase): moves[k] is
    the instruction of canon robot k in ``_decide``'s contract, with move
    and draw signs along canon-forward, and phase is ``_decide``'s.

    Robots have no chirality.  In a tied shape robot i is the mirror image
    of robot a + b - i (a and b the nominees), and a robot told otherwise
    than its image, read the other way round, gets ("invariant", "decision
    depends on presentation orientation").  A leader shape is read through
    its one owner both ways round (``_decide``), so its readings agree.
    """
    n = len(canon)
    den, pden = sum(canon), sum(pat)
    # coprime cycles of one shape have equal sums
    if den == pden and canon == pat:
        return (("terminate",),) * n, "formed"
    found = _classify_cycle(canon)
    if isinstance(found, Symmetric):
        return (("unsolvable", found.fold),) * n, "symmetric"
    # from here on every length is an int over ``full``
    full, cycle, pat = _common_scale(canon, den, pat, pden)
    floor = _gap_floor(pat)

    if isinstance(found, DoubleNomineeTied):
        moves = [("stay", "wait_tie")] * n
        b = found.bisector_robot
        if b is not None:
            moves[b] = _break_tie(cycle[b:] + cycle[:b], full, floor)
        # at an even count each nominee draws below half of (min gap -
        # floor), toward its smaller reading; a nominee reading the same both
        # ways would own the minimum twice, which forces a rotation symmetry
        window = Fraction(min(cycle) - floor, 2 * full)
        for i in (found.nominee_a, found.nominee_b) if n % 2 == 0 else ():
            row = canon[i:] + canon[:i]
            if row == row[::-1]:
                raise InvariantViolationError("nominee with a palindromic view")
            moves[i] = ("draw", window, 1 if row < row[::-1] else -1, "random_tiebreak")
        ab = found.nominee_a + found.nominee_b
        return tuple(
            m if _act(m) == _act(_against(moves[(ab - i) % n]))
            else ("invariant", "decision depends on presentation orientation")
            for i, m in enumerate(moves)
        ), "tied"

    # robot 0 reads the canonical cycle forward, so it owns the least
    # reading; a second owner would be its mirror image and the shape tied.
    # Hence robot 0 leads, canon-forward is pivotal and role k is index k.
    if found != LeaderConfig(0, Direction.FORWARD):
        raise InvariantViolationError(f"canonical cycle classified as {found}")
    return _role_moves(cycle, pat, full, floor, mutant)


@lru_cache(maxsize=_CACHE)
def _decide(cycle: tuple[int, ...], pat: tuple[int, ...], mutant: Optional[str]):
    """The instruction table of a presentation cycle: (instrs, phase).

    ``cycle`` and ``pat`` are coprime integer gap cycles, each over its own
    sum (``Configuration.cycle`` and ``TargetPattern.cycle``).  instrs[k] is
    the instruction of robot k, which reads ``cycle`` forward from index k:
    ("terminate",), ("stay", why), ("unsolvable", fold), ("invariant",
    message), ("move", dist, sign, branch) with dist a Fraction of a turn
    and sign +1 for cycle-forward, -1 for cycle-reverse, 0 when the caller
    may pick either (the two readings tie, so both neighbours are
    equivalent), or ("draw", window, sign, branch) for each nominee of a
    tied, unformed configuration of an even count: given a draw source it
    moves a random fraction of the turn ``window`` in direction ``sign``,
    and without one it waits.  ``phase`` is the configuration's progress
    label, as ``simulator.phase_of`` lists them; a leader configuration's
    is read on its role gaps.

    The table comes from one reading, ``least_reading(cycle) == (canon,
    owners)`` with ``owners[0] == (j, r)``, and one ``_survey`` of canon:
    robot k is canon robot (k - j) % n, or -(j + k) % n with the sign
    negated when the reading is reversed.
    """
    canon, owners = least_reading(cycle)
    j, r = owners[0]
    moves, phase = _survey(canon, pat, mutant)
    n = len(cycle)
    if r:
        return tuple(_against(moves[-(j + k) % n]) for k in range(n)), phase
    return moves[-j % n:] + moves[:-j % n], phase


def _move_by(d: Fraction, branch: str) -> tuple:
    """The move instruction for signed travel d along the pivotal direction."""
    return ("move", abs(d), 1 if d > 0 else -1, branch)


def _against(instr: tuple) -> tuple:
    """``instr`` for a robot reading the other way round: its sign flips."""
    head = instr[0]
    return (head, instr[1], -instr[2], instr[3]) if head in ("move", "draw") else instr


def _act(instr: tuple) -> Optional[tuple]:
    """(travel, runs against the reading) of a move; None for a stay or a draw."""
    return (instr[1], instr[2] < 0) if instr[0] == "move" else None


# the one Decision of each stay branch the rule takes, and of terminating;
# the table holds the rule's own branch names only, so no input makes it grow
_STAYS = {why: Decision(DecisionKind.STAY, branch=why) for why in (
    "wait_lead", "wait_near", "wait_second", "hold", "parked", "wait_settle", "wait_tie")}
_FORMED = Decision(DecisionKind.TERMINATE, branch="formed")


def _to_decision(instr: tuple, at: Fraction, rng: Optional[Random] = None) -> Decision:
    """The robot at ``at`` acting on ``instr``, whose sign is along the
    presentation frame; a draw takes its fraction of the window from
    ``rng``, and waits when ``rng`` is None.  Stays and terminations are
    the shared objects of ``_STAYS`` and ``_FORMED``; moves are new."""
    head = instr[0]
    if head == "terminate":
        return _FORMED
    if head == "stay":
        return _STAYS[instr[1]]
    if head == "unsolvable":
        raise SymmetricConfigurationError(instr[1])
    if head == "invariant":
        raise InvariantViolationError(instr[1])
    _, dist, sign, branch = instr
    if head == "draw":
        if rng is None:
            return _STAYS["wait_tie"]
        dist = Fraction(rng.randrange(1, _RAND_DENOM), _RAND_DENOM) * dist
    pdir = Direction.REVERSE if sign < 0 else Direction.FORWARD
    return Decision(DecisionKind.MOVE, mod1(at + pdir.sign * dist), pdir, branch)


def compute(
    s: Snapshot,
    pattern: TargetPattern,
    rng: Optional[Random] = None,
    mutant: Optional[str] = None,
) -> Decision:
    """One robot's full look-compute step.

    Deterministic unless ``rng`` is given; then even-count tied
    configurations take the randomized tie-break (with the pattern's gap
    floor respected) instead of waiting for a bisector robot.  ``mutant``
    selects a deliberately weakened variant for the schedule explorer; an
    unknown name is refused.
    """
    _check_mutant(mutant)
    _check_size(pattern, s.n)
    return _to_decision(_decide(s.cycle, pattern.cycle, mutant)[0][0], s.observer_position, rng)


# ---------------------------------------------------------------------------
# instance generation

_ATTEMPTS = 1000


def gen_instance(n: int, seed: int, q: Optional[int] = None) -> tuple[Configuration, TargetPattern]:
    """Seeded random instance: asymmetric start plus a formable pattern.

    Positions land on the 1/q grid (so denominators never exceed q), the
    configuration is rotationally asymmetric, and its smallest gap clears the
    pattern's gap floor, which the decision rule maintains as an invariant.
    Identical arguments produce identical instances.
    """
    if n < 3:
        raise PreconditionError("instances need at least 3 robots")
    q = q if q is not None else 36 * n
    if q < 4 * n:
        raise PreconditionError("grid denominator must be at least 4n")
    rng = Random(seed)
    for _ in range(_ATTEMPTS):
        weights = [rng.randrange(1, q) for _ in range(n)]
        total = sum(weights)
        try:
            pattern = TargetPattern.from_angles(Fraction(w, total) for w in weights)
        except PatternError:
            continue
        positions = sorted(Fraction(k, q) for k in rng.sample(range(q), n))
        c = Configuration(tuple(positions))
        if c.fold() != 1:
            continue
        if not pattern.admits(c):
            continue
        return c, pattern
    raise GenerationError(f"no valid instance in {_ATTEMPTS} attempts (n={n}, q={q})")


def symmetric_instance(
    fold: int, per_sector: int, seed: int, q: Optional[int] = None
) -> Configuration:
    """A fold-rotation-symmetric configuration of fold*per_sector robots."""
    if fold < 2:
        raise PreconditionError("symmetric instances need fold >= 2")
    grid = q if q is not None else max(8 * per_sector, 16)
    if not 1 <= per_sector <= grid:
        raise PreconditionError(f"need 1 <= per_sector <= grid; got {per_sector} and {grid}")
    rng = Random(seed)
    base = rng.sample(range(grid), per_sector)
    positions = [
        mod1(Fraction(x, grid * fold) + Fraction(j, fold))
        for x in base
        for j in range(fold)
    ]
    return Configuration.from_positions(positions)
