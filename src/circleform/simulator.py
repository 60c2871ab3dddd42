"""Scheduled execution of the formation rule, and its audit.

Activation policies, exact collision detection, full runs, offline trace
verification, batch sweeps, exhaustive schedule exploration for small
instances, and the fully synchronous symmetry experiment.

A robot's physical move does not depend on which way it reads the circle:
the rule checks that in its survey of a tied shape (``formation._survey``),
so every driver decides robots from one reading and refuses a table that
breaks it.
One audit serves ``run``, ``verify_trace`` and ``explore_schedules``.
The rest of this docstring is the one full account of the frame, step and
audit design.

The frame is the unit of work.  A ``_Frame`` holds one position state by
robot id, the rule it is decided under (pattern, mutant and draw source,
which the frame after a round inherits), the robots' sorted order and the
configuration, and lazily its integer key, class and instruction table.
Robot k of the sorted order reads its decision off entry k of the table
(``_Frame.decide``, shared by every driver; a tied nominee's entry is its
draw, which waits without a draw source), and the frame reads its phase
off the same table (``_Frame.phase``), so while no move lands all of these
are reusable across rounds.  ``_Frame.plan`` memoises a round's decisions,
moves, terminations and move branches per activation set (``_Plan``).  A
frame built without a pattern only moves and checks collisions.

``_Frame.step`` is a round, the one transition every driver takes: the
round's collision, if any, and the frame after it, which is the frame
itself after a collision or an idle round.  A round without a collision
keeps the robots' cyclic order, so the next frame rotates the old sorted
order instead of sorting afresh.  ``step`` memoises its outcome per set of
movers, so a frame builds each successor once; an entry answers only a
plan whose moves equal the ones it was made from (an identity check for
the frame's own plans), and a plan built elsewhere with other moves for
the same movers is worked out afresh.

``_Frame.transition``, called on the frame before a round, is the audit:
the lock after the round (leader and pivotal direction, fixed from the
first released round) and every failed check, from symmetry creation and
the lock through coincident tie-break draws and branch postconditions to
a full activation that moved nobody.  Its after-state checks are memoised
per lock on the frame after the round, and its move checks in the step's
memo entry.  ``_EpochLedger`` calls it and adds epoch accounting on top
for ``run`` and ``verify_trace``.  ``explore_schedules`` calls it too, but
has no epochs and keeps the lock in its state instead; its queue carries
each state's frame, and it keys states on the frame's integer key
(``_Frame.key``), ints that hash without the modular inverse a
``Fraction`` hash takes.  A steady round, whose activation set and frame
repeat the last round's, does no per-robot work besides its record and
the ledger's coverage update: the policy returns the set it holds, and
plan, step and transition are memo hits.

Det-mode runs share their start frames (``_start_frame``, an
``lru_cache`` of the last two (start, pattern, mutant) triples).
``batch`` and the acceptance battery run one start under every scheduler
in a row, and the rule is deterministic and the robots oblivious, so the
later runs walk the frames the earlier ones built, reaching them through
the step memos.  So a frame's memos must hold for the rule alone: anything
that patches the rule (``formation._decide`` or what it calls) must also
call ``_start_frame.cache_clear()``, as it clears the rule's caches.
Rand-mode frames hold their run's draw source and are never shared.

Robots are oblivious, so the only run state is the multiset of positions plus
which robots have switched themselves off.  ``run`` tracks robots by a stable
id (their index in the starting configuration); within a single round, robots
are addressed by their index in that round's sorted configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from random import Random
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .angles import Direction, Turn, least_reading, mod1
from .configuration import (
    ConfigClass,
    Configuration,
    LeaderConfig,
    Snapshot,
    Symmetric,
    classify,
    snapshot_of,
)
from .errors import (
    CircleFormError,
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SymmetricConfigurationError,
)
from .formation import (
    Decision,
    DecisionKind,
    TargetPattern,
    _check_mutant,
    _check_size,
    _common_scale,
    _decide,
    _to_decision,
    gen_instance,
)


# ---------------------------------------------------------------------------
# activation policies


class ActivationPolicy:
    """Chooses which robots wake each round.

    Subclasses implement ``select``; the base class keeps the fairness
    bookkeeping (no robot may starve longer than ``fairness`` rounds), which
    policies record through ``_note`` alone: the set chosen last (``_held``,
    in round ``_held_at``) and the last round of each robot that has left it
    since (``_last``), so a repeated choice returns the held set itself.
    ``reset`` is called once at the start of every run with a derived seed,
    so a policy instance can be reused across runs deterministically.
    """

    name = "base"
    needs_movers = False

    def __init__(self, fairness: Optional[int] = None):
        self.fairness = fairness
        self._window = 0
        self._held, self._held_at, self._last = frozenset(), 0, {}

    def reset(self, n: int, seed: int) -> None:
        self._window = self.fairness if self.fairness is not None else 2 * n
        if self._window < 1:
            raise PreconditionError("fairness window must be at least one round")
        self._held, self._held_at, self._last = frozenset(), 0, {}

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        raise NotImplementedError

    def _last_at(self, i: int) -> int:
        # rounds are 1-based; an unseen robot counts as last active at round 0
        return self._held_at if i in self._held else self._last.get(i, 0)

    def _due(self, rnd: int, ids: Iterable[int]) -> set[int]:
        held, at, last, window = self._held, self._held_at, self._last, self._window
        return {i for i in ids if rnd - (at if i in held else last.get(i, 0)) >= window}

    def _note(self, rnd: int, chosen: Iterable[int]) -> frozenset:
        chosen, held = frozenset(chosen), self._held
        if chosen != held:
            self._last.update(dict.fromkeys(held - chosen, self._held_at))
            self._held = held = chosen
        self._held_at = rnd
        return held


class FullSync(ActivationPolicy):
    """Every live robot, every round."""

    name = "fsync"

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        return self._note(rnd, alive)


class RoundRobinSingleton(ActivationPolicy):
    """One robot per round in cyclic id order, skipping finished robots."""

    name = "rr"

    def reset(self, n: int, seed: int) -> None:
        super().reset(n, seed)
        self._n = n
        self._cursor = n - 1

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        for _ in range(self._n):
            self._cursor = (self._cursor + 1) % self._n
            if self._cursor in alive:
                return self._note(rnd, {self._cursor})
        raise PreconditionError("no live robot to schedule")


class RandomSubset(ActivationPolicy):
    """Independent coin per robot, with starvation forced out at the window."""

    name = "random"

    def __init__(self, p: float = 0.5, fairness: Optional[int] = None):
        super().__init__(fairness)
        if not 0 < p <= 1:
            raise PreconditionError("activation probability must be in (0, 1]")
        self.p = p

    def reset(self, n: int, seed: int) -> None:
        super().reset(n, seed)
        self._rng = Random(seed)

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        chosen = {i for i in alive if self._rng.random() < self.p}
        chosen |= self._due(rnd, alive)
        if not chosen:
            chosen = {alive[self._rng.randrange(len(alive))]}
        return self._note(rnd, chosen)


class LazyAdversary(ActivationPolicy):
    """Keeps every robot that wants to move asleep for as long as fairness
    allows, waking everyone else instead.  A choice of exactly the robots
    that stay holds, without looking at any robot, while ``select`` is passed
    the same ``alive`` and ``movers`` objects (``run`` replaces them rather
    than changing them) and no mover falls due."""

    name = "lazy"
    needs_movers = True
    # (held set, alive, movers, first due round); ``reset`` replaces the held set
    _steady: tuple = (None, None, None, 0)

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        held, live, still, wake = self._steady
        if held is self._held and live is alive and still is movers and rnd < wake:
            self._held_at = rnd
            return held
        rest, due = set(alive) - movers, self._due(rnd, movers)
        chosen = rest | due
        if not chosen:
            # everyone live wants to move and none is overdue; stall the one
            # with the most recent activation
            chosen = {max(alive, key=lambda i: (self._last_at(i), i))}
        held = self._note(rnd, chosen)
        wake = min(map(self._last_at, movers), default=inf) + self._window
        self._steady = (held, alive, movers, wake) if rest and not due else LazyAdversary._steady
        return held


POLICIES: dict[str, Callable[[], ActivationPolicy]] = {
    "fsync": FullSync,
    "rr": RoundRobinSingleton,
    "random": RandomSubset,
    "lazy": LazyAdversary,
}


def make_policy(name: str, p: float = 0.5, fairness: Optional[int] = None) -> ActivationPolicy:
    if name not in POLICIES:
        raise PreconditionError(f"unknown scheduler {name!r}")
    if name == "random":
        return RandomSubset(p, fairness)
    return POLICIES[name](fairness)


# ---------------------------------------------------------------------------
# collision detection


@dataclass(frozen=True)
class CollisionWitness:
    """Two robots meeting at normalised in-flight time ``time`` in (0, 1]."""

    first: int
    second: int
    time: Fraction


def detect_collision(
    c: Configuration, decisions: Mapping[int, Decision]
) -> Optional[CollisionWitness]:
    """Earliest meeting of any two robots during simultaneous rigid motion.

    Every robot moves at constant angular speed along its chosen arc over the
    unit time interval; stationary robots sit at speed zero.  Arrival on top
    of another robot at t = 1 counts as a collision.  Returns the earliest
    witness (ties broken by index pair) or None.

    Robots keep their cyclic order until the first meeting, so the earliest
    time is the earliest closing of a gap between cyclic neighbours.  Every
    robot at one point then is a run of neighbours whose gaps all close at
    that time; the witness is the least index pair within such a run.

    The arithmetic is on ints over one denominator: the lcm of ``c.den`` and
    every mover's travel denominator.  A gap g closing at speed s does so at
    t = g / s, so closing times compare by cross-multiplying, and only the
    witness's time is built as a Fraction.
    """
    pos = c.positions
    n = c.n
    steps: dict[int, tuple[int, int]] = {}  # each mover's signed travel, as (num, den)
    for i, d in decisions.items():
        if not 0 <= i < n:
            raise PreconditionError(f"decision for unknown robot {i}")
        if d.is_move:
            a, b = d.destination.as_integer_ratio()
            p, q = pos[i].as_integer_ratio()
            den = lcm(b, q)
            ahead = a * (den // b) - p * (den // q)
            step = ahead % den if d.path_direction is Direction.FORWARD else -(-ahead % den)
            if step:
                steps[i] = step, den
    if not steps or n < 2:
        return None
    cycle = c.cycle
    m = lcm(c.den, *(den for _, den in steps.values()))
    scale = m // c.den
    vel = {i: step * (m // den) for i, (step, den) in steps.items()}
    best_gap = best_speed = 0  # the earliest closing time, as best_gap / best_speed
    closing: set[int] = set()  # i such that the gap from robot i to i+1 closes then
    for i in {(k - 1) % n for k in vel} | set(vel):
        speed = vel.get(i, 0) - vel.get((i + 1) % n, 0)
        gap = cycle[i] * scale
        if speed <= 0 or gap > speed:
            continue  # never closes, or closes after t = 1
        if not closing or gap * best_speed < best_gap * speed:
            best_gap, best_speed, closing = gap, speed, set()
        elif gap * best_speed > best_gap * speed:
            continue
        closing.add(i)
    if not closing:
        return None
    pairs = []
    for i in closing:
        if (i - 1) % n in closing:
            continue  # not the first gap of its run
        run_ids = [i]
        while run_ids[-1] in closing:
            run_ids.append((run_ids[-1] + 1) % n)
        first, second = sorted(run_ids)[:2]
        pairs.append((first, second))
    first, second = min(pairs)
    return CollisionWitness(first, second, Fraction(best_gap, best_speed))


# ---------------------------------------------------------------------------
# rounds and runs


@dataclass(frozen=True, init=False)
class RoundRecord:
    """Everything needed to replay one round.

    Positions are indexed by stable robot id; ``config_class`` classifies the
    post-round configuration (its indices refer to the sorted order of
    ``positions_after``).  The constructor fills the fields in one store,
    where the frozen dataclass's own would make one ``object.__setattr__``
    call per field.
    """

    round: int
    epoch: int
    activated: tuple[int, ...]
    decisions: Mapping[int, Decision]
    positions_before: tuple[Turn, ...]
    positions_after: tuple[Turn, ...]
    config_class: ConfigClass

    def __init__(self, round: int, epoch: int, activated: tuple[int, ...],
                 decisions: Mapping[int, Decision], positions_before: tuple[Turn, ...],
                 positions_after: tuple[Turn, ...], config_class: ConfigClass):
        self.__dict__.update(round=round, epoch=epoch, activated=activated,
                             decisions=decisions, positions_before=positions_before,
                             positions_after=positions_after, config_class=config_class)


@dataclass
class RunReport:
    """Outcome summary of one scheduled run."""

    n: int
    scheduler: str
    mode: str
    formed: bool = False
    formed_epoch: Optional[int] = None
    epochs: int = 0
    rounds: int = 0
    terminated: int = 0
    collisions: int = 0
    violations: list[str] = field(default_factory=list)
    bound: int = 0
    joint_tiebreaks: int = 0

    @property
    def ok(self) -> bool:
        return (
            self.formed
            and self.terminated == self.n
            and self.collisions == 0
            and not self.violations
        )


def phase_of(c: Configuration, pattern: TargetPattern) -> str:
    """Coarse progress label used by the inline run checks.

    One of ``formed``, ``symmetric``, ``tied``, ``lead`` (a leader exists but
    release has not happened), ``rfc`` (released, intermediate robots still
    settling), ``pfc`` (released and settled), or ``beyond`` (settled but the
    leader's gap has been restored for the finishing moves).
    """
    _check_size(pattern, c.n)
    return _decide(c.cycle, pattern.cycle, None)[1]


# ---------------------------------------------------------------------------
# the audit: position frames, the per-round transition check, epoch ledger

# (leader id, pivotal direction), fixed from the first released round on
_Lock = Optional[tuple[int, Direction]]

_NO_MOTION = "full activation produced no motion before formation"


class _Plan(NamedTuple):
    """One round's decisions by robot id (read-only: records of idle rounds
    share them) and what follows from them."""

    ids: tuple[int, ...]
    decisions: Mapping[int, Decision]
    moves: tuple[tuple[int, Decision], ...]
    movers: frozenset
    ended: frozenset
    branches: tuple[str, ...]


def _plan(decisions: Mapping[int, Decision]) -> _Plan:
    """The plan of a round that takes ``decisions``."""
    moves = tuple((rid, d) for rid, d in decisions.items() if d.is_move)
    ended = frozenset(rid for rid, d in decisions.items() if d.kind is DecisionKind.TERMINATE)
    return _Plan(tuple(sorted(decisions)), MappingProxyType(decisions), moves,
                 frozenset(rid for rid, _ in moves), ended, tuple(d.branch for _, d in moves))


class _Frame:
    """One position state under one rule, with its memos (the module
    docstring gives the design).  Anything that patches the rule must also
    call ``_start_frame.cache_clear()``: shared start frames hold memos
    made under the rule."""

    __slots__ = ("pos", "pattern", "mutant", "rng", "order", "idx_of", "c", "dec", "_table",
                 "_cls", "_plans", "_audit", "_key", "_steps")

    def __init__(self, pos: Sequence[Turn], pattern: Optional[TargetPattern] = None,
                 mutant: Optional[str] = None, rng: Optional[Random] = None,
                 order: Optional[list[int]] = None):
        self.pos = tuple(pos)
        self.pattern, self.mutant, self.rng = pattern, mutant, rng
        self.order = order or sorted(range(len(self.pos)), key=self.pos.__getitem__)
        self.idx_of = {rid: k for k, rid in enumerate(self.order)}
        self.c = Configuration(tuple(self.pos[r] for r in self.order))
        self.dec: dict[int, Decision] = {}
        self._table: Optional[tuple] = None
        self._cls: Optional[ConfigClass] = None
        self._plans: dict[frozenset, _Plan] = {}
        self._audit: dict[_Lock, tuple[_Lock, tuple[str, ...]]] = {}
        self._key: Optional[tuple[int, ...]] = None
        # movers -> [the moves the entry was made from, the step's outcome, their checks]
        self._steps: dict[frozenset, list] = {}

    def key(self) -> tuple[int, ...]:
        """The positions as ints: their least common denominator, then each
        robot's numerator over it, in id order.  Two frames' keys are equal
        exactly when their position tuples are."""
        k = self._key
        if k is None:
            den = lcm(*(p.denominator for p in self.pos))
            k = self._key = (den, *(p.numerator * (den // p.denominator) for p in self.pos))
        return k

    def classify(self) -> ConfigClass:
        if self._cls is None:
            self._cls = classify(self.c)
        return self._cls

    def table(self) -> tuple:
        if self._table is None:
            self._table = _decide(self.c.cycle, self.pattern.cycle, self.mutant)
        return self._table

    def phase(self) -> str:
        return self.table()[1]

    def decide(self, rid: int) -> Decision:
        """Robot ``rid``'s decision off the table: a drawer draws from the
        frame's draw source, and waits without one."""
        d = self.dec.get(rid)
        if d is None:
            k = self.idx_of[rid]
            d = self.dec[rid] = _to_decision(self.table()[0][k], self.c.positions[k], self.rng)
        return d

    def plan(self, active: frozenset) -> _Plan:
        """The plan of activating ``active``, deciding its robots in id order
        (so rand-mode draws keep their order)."""
        p = self._plans.get(active)
        if p is None:
            p = self._plans[active] = _plan({rid: self.decide(rid) for rid in sorted(active)})
        return p

    def step(self, plan: _Plan) -> tuple[Optional[str], "_Frame"]:
        """The plan's round: how its moves collide (None if they do not), and
        the frame once they land, ``self`` on a collision or an idle round
        (a frame's positions are distinct, so nothing idle can meet).

        Without a collision the robots keep their cyclic order, so the new
        sorted order is a rotation of the old one.  Its first robot is a
        mover or the first robot of the old order that stays."""
        moves = plan.moves
        if not moves:
            return None, self
        got = self._steps.get(plan.movers)
        if got is not None and got[0] == moves:
            return got[1]
        w = detect_collision(self.c, {self.idx_of[r]: d for r, d in moves})
        if w is not None:
            why = f"robots {self.order[w.first]} and {self.order[w.second]} collide at t={w.time}"
            out = why, self
        else:
            pos = list(self.pos)
            for r, d in moves:
                pos[r] = d.destination
            order = self.order
            heads = [*plan.movers, *next(([r] for r in order if r not in plan.movers), [])]
            k = self.idx_of[min(heads, key=pos.__getitem__)]
            out = None, _Frame(pos, self.pattern, self.mutant, self.rng, order[k:] + order[:k])
        self._steps[plan.movers] = [moves, out, None]
        return out

    def transition(self, after: "_Frame", plan: _Plan, alive: tuple[int, ...],
                   lock: _Lock) -> tuple[_Lock, list[str]]:
        """Audit the round from here to ``after`` under ``plan``, entered with
        ``lock``: the lock after it, and the message of every failed check,
        in this order.

        - After-state checks, memoised on ``after`` per lock: symmetry
          created before formation; leader or pivotal direction changed, or
          leadership lost, after release (the lock is taken at the first
          released round).
        - If something moved, the move checks, kept in the step's entry when
          ``after`` is its frame: coincident tie-break draws, and a lone
          mover's branch postconditions unless ``after`` is formed.
        - Else a full activation of ``alive`` (a sorted tuple) before
          formation (``_NO_MOTION``), last, since the ledger halts on it.
        """
        got = after._audit.get(lock)
        if got is None:
            out, state_found, phase = lock, [], after.phase()
            if phase != "formed":
                cls = after.classify()
                if isinstance(cls, Symmetric):
                    state_found.append(f"{cls.fold}-fold symmetry created before formation")
                if isinstance(cls, LeaderConfig):
                    current = (after.order[cls.leader], cls.pivotal)
                    if lock is None:
                        if phase in ("rfc", "pfc"):
                            out = current
                    elif current != lock:
                        state_found.append("leader or direction changed after release")
                elif lock is not None:
                    state_found.append("leadership lost after release")
            got = after._audit[lock] = out, tuple(state_found)
        found = list(got[1])
        moves = plan.moves
        if moves:
            entry = self._steps.get(plan.movers)
            ours = entry is not None and entry[0] == moves and entry[1][1] is after
            checks = entry[2] if ours else None
            if checks is None:
                travels = [mod1(d.path_direction.sign * (d.destination - self.pos[rid]))
                           for rid, d in moves if d.branch == "random_tiebreak"]
                checks = (("simultaneous tie-break draws coincide",)
                          * (len(set(travels)) < len(travels)))
                if len(moves) == 1 and after.phase() != "formed":
                    checks += tuple(_branch_postconditions(after, self, moves[0][1].branch))
                if ours:
                    entry[2] = checks
            found += checks
        elif not plan.ended and plan.ids == alive and after.phase() != "formed":
            found.append(_NO_MOTION)
        return got[0], found


@lru_cache(maxsize=2)
def _start_frame(c0: Configuration, pattern: TargetPattern, mutant: Optional[str]) -> _Frame:
    """The shared det-mode start frame of ``c0`` under the rule.  ``batch``
    and the acceptance battery run one start's schedulers back to back, so
    two starts suffice; every frame reached from a held start stays alive."""
    return _Frame(c0.positions, pattern, mutant)


def _branch_postconditions(after: _Frame, before: _Frame, branch: str) -> list[str]:
    """Checks owed by each move branch, applied on single-mover rounds that
    do not form the pattern."""
    found = after.classify()
    a, b = after.c, before.c
    tie = branch in ("break_tie", "random_tiebreak")
    msgs: list[str] = []
    if not isinstance(found, LeaderConfig):
        if tie and a.n % 2 == 0:
            # an even count can legitimately stay tied only under joint moves
            msgs.append(f"{branch}: no leader after a lone tie-break move")
        elif branch != "random_tiebreak":
            msgs.append(f"{branch}: configuration lost its leader")
    # min gap after >= min gap before, cross-multiplied over the two denominators
    if tie and min(a.cycle) * b.den >= min(b.cycle) * a.den:
        msgs.append(f"{branch}: minimum gap did not shrink")
    if tie or not isinstance(found, LeaderConfig):
        return msgs
    # the leader reads the least reading along the pivotal direction, so
    # that reading is the role gaps
    p = after.pattern
    full, g, pat = _common_scale(least_reading(a.cycle)[0], a.den, p.cycle, p.den)
    beta0 = pat[0]
    if branch == "shrink_lead_gap":
        if not g[0] < min(min(g[1:]), beta0):
            msgs.append("shrink_lead_gap: leader gap is not the strict minimum")
    elif branch == "shrink_second_gap":
        if not g[0] < g[1] < min(min(g[2:]), beta0):
            x, y, m = (Fraction(v, full) for v in (g[0], g[1], min(min(g[2:]), beta0)))
            msgs.append(
                "shrink_second_gap: second gap missed the strict corridor "
                f"({x} < {y} < {m} fails)"
            )
    elif branch == "settle_target":
        if after.phase() not in ("rfc", "pfc"):
            msgs.append("settle_target: landing broke the released ordering")
    elif branch == "finish_detour":
        if not g[1] > pat[1]:
            msgs.append("finish_detour: parked robot sits within the second target gap")
    # finish_direct / finish_near only owe leadership, checked above
    return msgs


def formation_bound(n: int, mode: str) -> int:
    """Epochs within which a run of ``n`` robots in ``mode`` must form the pattern."""
    return n + 4 if mode == "det" else n + 6


class _EpochLedger:
    """Epoch accounting over audited rounds, shared by ``run`` and ``verify_trace``.

    An epoch ends once every robot still running has been activated since it
    began.  The ledger tracks termination, coverage, landings and the first
    released epoch; it checks the formation bound, each round's transition
    (``_Frame.transition``), and at every epoch boundary: a leader by the
    first, release by the third, settling within n - 3 epochs of release, a
    landing in every released epoch, and termination within an epoch of
    formation.  ``halted`` is set when a full activation moved nobody or the
    epoch ``budget`` ran out.

    A round costs O(|plan|): the robots not yet activated this epoch are
    kept as ``_uncovered``, and ``alive`` (a sorted tuple, with
    ``alive_set`` beside it) is rebuilt only when a robot terminates.  On an
    idle round ``_Frame.transition`` answers from its memos, so the round
    costs its coverage update and a few O(1) tests.
    """

    def __init__(self, n: int, mode: str, budget: Optional[int] = None):
        self.n = n
        self.bound = formation_bound(n, mode)
        self.budget = budget
        self.alive = tuple(range(n))
        self.alive_set = frozenset(self.alive)
        self.epoch = 1
        self.formed_epoch: Optional[int] = None
        self.joint_tiebreaks = 0
        self.halted = False
        self._uncovered = set(self.alive)
        self._lock: _Lock = None
        self._released: Optional[int] = None
        self._landings = 0
        self._start_phase: Optional[str] = None

    def round(self, rnd: int, before: _Frame, after: _Frame, plan: _Plan) -> list[str]:
        """Account one round and return its violations."""
        if self._start_phase is None:
            self._start_phase = before.phase()
        if plan.ended:
            self.alive = tuple(i for i in self.alive if i not in plan.ended)
            self.alive_set = frozenset(self.alive)
        out: list[str] = []
        phase = after.phase()
        if phase == "formed" and self.formed_epoch is None:
            self.formed_epoch = self.epoch
            if self.epoch > self.bound:
                out.append(
                    f"round {rnd}: formation took {self.epoch} epochs, bound is {self.bound}"
                )
        was = self._lock
        # a robot that terminated this round did not stay, so the robots still
        # running are the ones the full-activation check compares against
        self._lock, found = before.transition(after, plan, self.alive, was)
        if was is None and self._lock is not None:
            self._released = self.epoch
        out += [f"round {rnd}: {m}" for m in found]
        self._landings += plan.branches.count("settle_target")
        if plan.branches.count("random_tiebreak") > 1:
            self.joint_tiebreaks += 1
        if found and found[-1] == _NO_MOTION:
            self.halted = True
            return out

        self._uncovered.difference_update(plan.ids)
        if self._uncovered:
            return out
        alive = self.alive
        # epoch boundary: every still-running robot completed a cycle
        epoch, n = self.epoch, self.n
        if epoch == 1 and phase in ("tied", "symmetric"):
            out.append("epoch 1: no leader by the first epoch boundary")
        if epoch == 3 and phase in ("tied", "lead"):
            out.append("epoch 3: still unreleased at the third epoch boundary")
        if (
            self._released is not None
            and phase == "rfc"
            and epoch >= self._released + max(n - 3, 1)
        ):
            out.append(f"epoch {epoch}: settling exceeded {n - 3} epochs after release")
        if self._start_phase == "rfc" and phase == "rfc" and self._landings == 0:
            out.append(f"epoch {epoch}: released epoch without a landing")
        if self.formed_epoch is not None and alive and epoch > self.formed_epoch:
            out.append(f"epoch {epoch}: robots still running an epoch after formation")
        if not alive:
            return out
        self.epoch += 1
        self._uncovered = set(alive)
        self._landings = 0
        self._start_phase = phase
        if self.budget is not None and self.epoch > self.budget:
            out.append(f"epoch budget ({self.budget}) exhausted before full termination")
            self.epoch -= 1
            self.halted = True
        return out


def _check_start(c0: Configuration, pattern: TargetPattern, mutant: Optional[str]) -> None:
    """Refuse an unknown mutant, a pattern of another size, a rotationally
    symmetric start and a start gap at or below the pattern's gap floor."""
    _check_mutant(mutant)
    _check_size(pattern, c0.n)
    fold = c0.fold()
    if fold > 1:
        raise SymmetricConfigurationError(fold)
    if not pattern.admits(c0):
        raise PreconditionError(
            f"starting gap {min(c0.gaps)} is not above the pattern's gap floor "
            f"{pattern.min_gap_floor}"
        )


def run(
    c0: Configuration,
    pattern: TargetPattern,
    policy: ActivationPolicy,
    *,
    mode: str = "det",
    seed: int = 0,
    max_epochs: Optional[int] = None,
    mutant: Optional[str] = None,
) -> tuple[RunReport, list[RoundRecord]]:
    """Drive a full run until every robot terminates or the budget runs out.

    Each round's plan comes from the frame (``_Frame.plan``, memoised per
    activation set), and the round itself from ``_Frame.step``: an idle
    round leaves the frame as it was and is not checked for collisions, a
    collided round leaves it too and ends the run, and a round with moves
    rotates the frame's sorted order instead of sorting afresh.  A det-mode
    run starts from the start's shared frame (``_start_frame``), so it
    walks the frames earlier runs of the start built; a rand-mode run
    builds its own, which draw from the run's seed.  Every
    round is audited as it happens (``_EpochLedger``): the audit records
    (never raises) violations of the progress and stability guarantees.
    Collisions, scheduler contract breaks, decision errors, a full
    activation that moves nobody, and an exhausted epoch budget
    (``max_epochs``, at least 1) end the run.
    """
    n = c0.n
    if max_epochs is not None and max_epochs < 1:
        raise PreconditionError(f"epoch budget must be at least 1, got {max_epochs}")
    if mode not in ("det", "rand"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "det" and n % 2 == 0:
        raise PreconditionError("deterministic runs need an odd robot count")
    if mode == "rand" and (n % 2 or n < 4):
        raise PreconditionError("randomized runs need an even robot count of at least 4")
    _check_start(c0, pattern, mutant)

    master = Random(seed)
    policy.reset(n, master.getrandbits(64))
    master.getrandbits(64)  # the retired orientation stream's seed: keeps the tie-break seed
    rng = Random(master.getrandbits(64)) if mode == "rand" else None
    budget = max_epochs if max_epochs is not None else n + 6
    ledger = _EpochLedger(n, mode, budget)

    report = RunReport(n=n, scheduler=policy.name, mode=mode, bound=ledger.bound)
    records: list[RoundRecord] = []
    state = (_start_frame(c0, pattern, mutant) if rng is None
             else _Frame(c0.positions, pattern, mutant, rng))
    rnd = 0

    while not ledger.halted:
        alive = ledger.alive
        if not alive:
            break
        rnd += 1

        try:
            movers = state.plan(ledger.alive_set).movers if policy.needs_movers else frozenset()
            active = policy.select(rnd, alive, movers)
            # the contract: a non-empty frozenset of live ids, which plans key on
            if not (isinstance(active, frozenset) and active and active <= ledger.alive_set):
                report.violations.append(f"round {rnd}: scheduler broke the activation contract")
                break
            plan = state.plan(active)
        except CircleFormError as e:
            report.violations.append(f"round {rnd}: {e}")
            break

        before = state
        collision, state = state.step(plan)
        records.append(RoundRecord(rnd, ledger.epoch, plan.ids, plan.decisions,
                                   before.pos, state.pos, state.classify()))
        if collision is not None:
            report.collisions += 1
            report.violations.append(f"round {rnd}: {collision}")
            break
        report.violations += ledger.round(rnd, before, state, plan)

    report.formed = ledger.formed_epoch is not None
    report.formed_epoch = ledger.formed_epoch
    report.epochs = ledger.epoch
    report.rounds = rnd
    report.terminated = n - len(ledger.alive)
    report.joint_tiebreaks = ledger.joint_tiebreaks
    return report, records


# ---------------------------------------------------------------------------
# trace verification


def verify_trace(
    records: Sequence[RoundRecord], pattern: TargetPattern, mode: str = "det"
) -> list[str]:
    """Replay a trace and list everything inconsistent about it.

    The replay re-derives the decision each activated robot must have
    computed from the recorded pre-round positions, through frames of the
    kind ``run`` uses, built from the trace's own positions: a replay
    shares no frame with a run or another replay.  Each activated robot is
    checked against the frame's decision; when every one is alive and decided as the frame
    decides it, the round's plan is the frame's own (``_Frame.plan``), and
    otherwise it is built from the recorded decisions.  Each round then
    takes ``_Frame.step``, as in ``run``, so a collided round leaves every
    robot where it was; a frame is built from a record's positions only
    when it ends elsewhere than its round puts it.  Verification also
    checks continuity with the previous record, round numbers (1, 2, ...),
    the record's ids (``_record_fault``, shared with the trace decoder),
    collisions, that every robot ends where the step puts it, and the
    recorded class.  Every round without a collision then goes through the
    audit ``run`` applies (``_EpochLedger``), so verification reports what
    the inline audit reports.  The end positions are compared with
    ``positions_before`` with only the round's movers at their
    destinations, so the robots that stay compare by identity.

    In ``rand`` mode a robot whose table entry is a draw, or recorded as
    drawing, is checked against that entry (its direction and window)
    instead of for equality, since the draw itself is not reproducible from
    the trace.
    """
    if mode not in ("det", "rand"):
        raise PreconditionError(f"unknown mode {mode!r}")
    problems: list[str] = []
    if not records:
        return problems
    n = len(records[0].positions_before)
    try:
        _check_size(pattern, n)
    except StructuralError as e:
        return [str(e)]
    ledger = _EpochLedger(n, mode)
    prev: Optional[_Frame] = None
    prev_rec: Optional[RoundRecord] = None

    for rnd, rec in enumerate(records, start=1):
        where = f"round {rec.round}"
        if len(rec.positions_before) != n or len(rec.positions_after) != n:
            problems.append(f"{where}: robot count changed mid-trace")
            break
        fault = _record_fault(rec.activated, rec.decisions, n)
        if fault is not None:
            problems.append(f"{where}: {fault}")
            break
        # decoded traces share position objects, so the tuples compare by identity
        continuous = prev_rec is None or rec.positions_before == prev_rec.positions_after
        if not continuous:
            problems.append(f"{where}: positions_before break continuity")
        if rec.round != rnd:
            problems.append(f"{where}: round recorded as {rec.round}, expected {rnd}")
        if rec.epoch != ledger.epoch:
            problems.append(f"{where}: epoch recorded as {rec.epoch}, expected {ledger.epoch}")
        try:
            before = (prev if prev is not None and continuous
                      else _Frame(rec.positions_before, pattern))
        except CircleFormError as e:
            problems.append(f"{where}: bad pre-round positions: {e}")
            break

        alive = ledger.alive_set
        own = True  # every activated robot is alive and decided as the frame decides it
        for rid in rec.activated:
            if rid not in alive:
                problems.append(f"{where}: robot {rid} was activated after terminating")
                own = False
                continue
            recorded = rec.decisions[rid]
            try:
                if mode == "rand":
                    # the table's drawers draw, whatever their records say
                    k = before.idx_of[rid]
                    instr = before.table()[0][k]
                    if instr[0] == "draw" or recorded.branch == "random_tiebreak":
                        problems.extend(
                            f"{where}: robot {rid}: {msg}"
                            for msg in _check_random_move(instr, recorded, before.c.positions[k])
                        )
                        own = False
                        continue
                expected = before.decide(rid)
            except CircleFormError as e:
                problems.append(f"{where}: robot {rid}: {e}")
                own = False
                continue
            if expected is not recorded and expected != recorded:
                problems.append(
                    f"{where}: robot {rid} recorded {recorded} but the rule gives {expected}"
                )
                own = False
        plan = before.plan(frozenset(rec.activated)) if own else _plan(rec.decisions)
        # robots end where the step puts them: positions_before with the
        # movers at their destinations, unless nothing moved, so the robots
        # that stay compare by identity when the trace was decoded
        collision, after = before.step(plan)
        if collision is not None:
            problems.append(f"{where}: {collision}")
        want = rec.positions_before
        if after is not before:
            want = list(want)
            for rid, d in plan.moves:
                want[rid] = d.destination
            want = tuple(want)
        if rec.positions_after != want:
            problems.extend(
                f"{where}: robot {rid} ended at an unexplained position"
                for rid in range(n) if rec.positions_after[rid] != want[rid]
            )
            try:
                after = _Frame(rec.positions_after, pattern)
            except CircleFormError as e:
                problems.append(f"{where}: bad post-round positions: {e}")
                break
        if after.classify() != rec.config_class:
            problems.append(f"{where}: recorded class does not match the positions")
        if collision is None:
            problems += ledger.round(rec.round, before, after, plan)
        prev, prev_rec = after, rec
    return problems


def _record_fault(activated: Sequence[int], decisions: Mapping, n: int) -> Optional[str]:
    """What is wrong with a record's activation of ``n`` robots, None if
    nothing: no robot activated, an id activated twice, ids that are not
    the decisions' keys, or an id outside 0..n-1 (the smallest is named)."""
    if not activated:
        return "no robot activated"
    if len(set(activated)) != len(activated):
        return "activated ids repeat"
    if set(activated) != decisions.keys():
        return "activated ids and decision keys disagree"
    if min(activated) < 0 or max(activated) >= n:
        outside = min(rid for rid in activated if not 0 <= rid < n)
        return f"robot id {outside} is not in 0..{n - 1}"
    return None


def _check_random_move(instr: tuple, recorded: Decision, at: Turn) -> list[str]:
    """Validity of a draw that cannot be replayed exactly, by the robot at
    ``at`` whose table entry is ``instr``."""
    if instr[0] != "draw":
        return ["tie-break move by a robot the rule does not send to the tie-break"]
    if not recorded.is_move:
        return ["tie-break record is not a move"]
    _, limit, sign, branch = instr
    msgs = [] if recorded.branch == branch else [f"tie-break move recorded as {recorded.branch}"]
    if recorded.path_direction.sign != sign:
        msgs.append("tie-break moved away from its smaller reading")
    travel = mod1(recorded.path_direction.sign * (recorded.destination - at))
    if not 0 < travel < limit:
        msgs.append(f"tie-break draw {travel} outside (0, {limit})")
    return msgs


# ---------------------------------------------------------------------------
# batch sweeps


def batch(
    ns: Sequence[int],
    trials: int,
    schedulers: Sequence[str],
    seed: int = 0,
    mode: str = "det",
    max_epochs: Optional[int] = None,
) -> list[dict]:
    """One row per (n, scheduler) cell; run errors become failed cells.

    ``formed`` counts runs that formed and fully terminated; ``max_epochs``
    and ``mean_epochs`` summarise the epochs to formation over formed runs.
    An unknown mode or scheduler, an empty ``ns`` or ``schedulers``, a
    robot count below 3, a negative ``trials`` and a ``max_epochs`` below 1
    are refused before any run starts.  Errors raised by a run (for example
    a parity/mode mismatch) count as violations in the cell instead of
    crashing the sweep.
    """
    if trials < 0 or (max_epochs is not None and max_epochs < 1):
        raise PreconditionError(f"need trials >= 0, max_epochs >= 1; got {trials}, {max_epochs}")
    if mode not in ("det", "rand"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if not ns or not schedulers:
        raise PreconditionError("a sweep needs at least one robot count and one scheduler")
    if min(ns) < 3:
        raise PreconditionError(f"instances need at least 3 robots; got {min(ns)}")
    for name in schedulers:
        make_policy(name)  # refuses an unknown scheduler
    rows: list[dict] = []
    for n in ns:
        cells = {
            name: {"formed": 0, "epochs": [], "violations": 0, "collisions": 0}
            for name in schedulers
        }
        for t in range(trials):
            inst_seed = seed * 1_000_003 + n * 10_007 + t
            try:
                c0, pattern = gen_instance(n, inst_seed)
            except CircleFormError:
                for cell in cells.values():
                    cell["violations"] += 1
                continue
            for name in schedulers:
                cell = cells[name]
                try:
                    report, _ = run(
                        c0, pattern, make_policy(name),
                        mode=mode, seed=inst_seed, max_epochs=max_epochs,
                    )
                except CircleFormError:
                    cell["violations"] += 1
                    continue
                cell["collisions"] += report.collisions
                cell["violations"] += len(report.violations)
                if report.ok:
                    cell["formed"] += 1
                    cell["epochs"].append(report.formed_epoch)
        for name in schedulers:
            cell = cells[name]
            epochs = cell["epochs"]
            rows.append({
                "n": n,
                "scheduler": name,
                "trials": trials,
                "formed": cell["formed"],
                "max_epochs": max(epochs) if epochs else None,
                "mean_epochs": sum(epochs) / len(epochs) if epochs else None,
                "bound": formation_bound(n, mode),
                "violations": cell["violations"],
                "collisions": cell["collisions"],
            })
    return rows


# ---------------------------------------------------------------------------
# exhaustive schedule exploration


@dataclass(frozen=True)
class ScheduleCounterexample:
    """A failing schedule: activations per round, the failure, the state."""

    path: tuple[tuple[int, ...], ...]
    reason: str
    positions: tuple[Turn, ...]


@dataclass
class ExploreReport:
    budget: int
    states: int
    edges: int
    counterexample: Optional[ScheduleCounterexample]

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def explore_schedules(
    c0: Configuration,
    pattern: TargetPattern,
    round_budget: int,
    *,
    mutant: Optional[str] = None,
    state_cap: int = 200_000,
) -> ExploreReport:
    """Check every schedule prefix up to ``round_budget`` rounds (at least 0).

    Every robot is decided from one reading through the frame's cache
    (``_Frame.decide``), as in ``run``; a robot whose move would depend on
    which way it reads the circle fails there, since the rule marks it
    (``formation._survey``).  Activation subsets that differ only in robots
    deciding to stay reach identical states, so subsets are enumerated over
    the robots whose decisions have an effect, and each edge's plan comes
    from the frame's memo (``_Frame.plan``).  States are memoised on the
    frame's integer key (``_Frame.key``), the terminated set and the lock,
    making the walk exhaustive over reachable states rather than over the
    exponentially redundant schedule tree.

    Verified per state: no error from the rule deciding a robot.  Verified
    per edge: no collision, and the round checks ``run`` applies
    (``_Frame.transition``): no symmetry creation, leader and direction
    stable from release, and each move branch's postcondition
    (single-mover edges).  The lock is part of the state.  Returns the
    first failing state or edge as a counterexample, if any; an edge's
    reason lists every check it fails.  An error raised by the audit
    itself propagates, as it does from ``run`` and ``verify_trace``.
    """
    n = c0.n
    if n > 5:
        raise PreconditionError("exhaustive exploration is capped at 5 robots")
    if not 0 <= round_budget <= 6:
        raise PreconditionError(f"round budget {round_budget} is outside 0..6")
    _check_start(c0, pattern, mutant)

    # (frame key, terminated frozenset, lock): the key's ints stand for the
    # positions, which hash slowly as Fractions
    State = tuple
    start = _Frame(c0.positions, pattern, mutant)
    seen: set[State] = {(start.key(), frozenset(), None)}
    # a queued state carries the frame that the edge reaching it built
    queue = deque([(start, frozenset(), None, ())])
    edges = 0

    def fail(path, reason, positions) -> ExploreReport:
        return ExploreReport(
            round_budget, len(seen), edges,
            ScheduleCounterexample(path, reason, positions),
        )

    while queue:
        frame, terms, lock, path = queue.popleft()
        if len(path) >= round_budget:
            continue
        alive = tuple(i for i in range(n) if i not in terms)
        if not alive:
            continue
        dec = frame.dec
        for rid in alive:
            try:
                frame.decide(rid)
            except CircleFormError as e:
                return fail(path + ((rid,),), f"robot {rid}: {e}", frame.pos)

        relevant = [rid for rid in alive if dec[rid].kind is not DecisionKind.STAY]
        stayers = [rid for rid in alive if dec[rid].kind is DecisionKind.STAY]
        for mask in range(2 ** len(relevant)):
            sub = [relevant[b] for b in range(len(relevant)) if mask >> b & 1]
            if not sub and not stayers:
                continue
            edges += 1
            act = tuple(sub) if sub else (stayers[0],)
            plan = frame.plan(frozenset(act))
            collision, after = frame.step(plan)
            if collision is not None:
                return fail(path + (act,), collision, frame.pos)
            new_lock, found = frame.transition(after, plan, alive, lock)
            if found:
                return fail(path + (act,), "; ".join(found), after.pos)
            new_terms = terms | plan.ended
            state: State = (after.key(), new_terms, new_lock)
            if state not in seen:
                if len(seen) >= state_cap:
                    raise PreconditionError(
                        f"state cap ({state_cap}) reached after {edges} edges; "
                        "narrow the instance or the budget"
                    )
                seen.add(state)
                queue.append((after, new_terms, new_lock, path + (act,)))
    return ExploreReport(round_budget, len(seen), edges, None)


# ---------------------------------------------------------------------------
# fully synchronous symmetry experiment

MotionRule = Callable[[Snapshot], Decision]


def rule_stay(s: Snapshot) -> Decision:
    """Nobody moves."""
    return Decision(DecisionKind.STAY, branch="stay")


def rule_drift(s: Snapshot) -> Decision:
    """Creep 1/100 of a turn toward the next robot ahead, capped at half the
    gap so neighbours can never meet."""
    step = min(Fraction(1, 100), s.forward_gaps[0] / 2)
    return Decision(DecisionKind.MOVE, mod1(s.observer_position + step), Direction.FORWARD, "drift")


def rule_close(s: Snapshot) -> Decision:
    """Move a quarter of the way toward the nearer neighbour; stay on ties.

    A quarter, not a half: two facing robots closing over the same gap cover
    at most half of it together, so they cannot meet.
    """
    front, back = s.forward_gaps[0], s.reverse_gaps[0]
    if front == back:
        return Decision(DecisionKind.STAY, branch="close")
    pdir = Direction.FORWARD if front < back else Direction.REVERSE
    dest = mod1(s.observer_position + pdir.sign * min(front, back) / 4)
    return Decision(DecisionKind.MOVE, dest, pdir, "close")


SYMMETRY_RULES: dict[str, MotionRule] = {
    "stay": rule_stay,
    "drift": rule_drift,
    "close": rule_close,
}


def fsync_symmetry_experiment(
    c0: Configuration, rule: MotionRule, rounds: int
) -> list[int]:
    """Run a rotation-symmetric start fully synchronously under ``rule``.

    Returns the rotational fold after each round, the initial fold first.
    Any deterministic same-view-same-move rule keeps every rotation that maps
    the configuration to itself, so the fold can never drop below its initial
    value; a drop raises InvariantViolationError.
    """
    if rounds < 0:
        raise PreconditionError(f"need rounds >= 0; got {rounds}")
    k0 = c0.fold()
    if k0 < 2:
        raise PreconditionError("the experiment needs a rotationally symmetric start")
    folds = [k0]
    frame = _Frame(c0.positions)
    for rnd in range(1, rounds + 1):
        plan = _plan({
            rid: rule(snapshot_of(frame.c, frame.idx_of[rid])) for rid in frame.order
        })
        collision, frame = frame.step(plan)
        if collision is not None:
            raise InvariantViolationError(f"round {rnd}: {collision}")
        k = frame.c.fold()
        folds.append(k)
        if k < k0:
            raise InvariantViolationError(
                f"round {rnd}: fold dropped from {k0} to {k}"
            )
    return folds
