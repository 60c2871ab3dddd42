"""Scheduled execution of the formation rule.

Activation policies, the orientation adversary, exact collision detection,
single rounds, full runs with inline invariant checks, exhaustive schedule
exploration for small instances, and the fully synchronous symmetry
experiment.

Robots are oblivious, so the only run state is the multiset of positions plus
which robots have switched themselves off.  ``run`` tracks robots by a stable
id (their index in the starting configuration); within a single round, robots
are addressed by their index in that round's sorted configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Mapping, Optional, Sequence

from .angles import Direction, Turn, mod1
from .configuration import (
    ConfigClass,
    Configuration,
    DoubleNomineeTied,
    LeaderConfig,
    Snapshot,
    Symmetric,
    classify,
    snapshot_of,
)
from .errors import (
    CircleFormError,
    ClassificationError,
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SymmetricConfigurationError,
)
from .formation import (
    Decision,
    DecisionKind,
    TargetPattern,
    _rfc_on,
    _role_gaps,
    _settled,
    compute,
    pattern_formed,
)


# ---------------------------------------------------------------------------
# activation policies


class ActivationPolicy:
    """Chooses which robots wake each round.

    Subclasses implement ``select``; the base class keeps the fairness
    bookkeeping (no robot may starve longer than ``fairness`` rounds).
    ``reset`` is called once at the start of every run with a derived seed,
    so a policy instance can be reused across runs deterministically.
    """

    name = "base"
    needs_movers = False

    def __init__(self, fairness: Optional[int] = None):
        self.fairness = fairness
        self._window = 0
        self._last: dict[int, int] = {}
        self._rng = Random(0)

    def reset(self, n: int, seed: int) -> None:
        self._window = self.fairness if self.fairness is not None else 2 * n
        if self._window < 1:
            raise PreconditionError("fairness window must be at least one round")
        self._last = {}
        self._rng = Random(seed)

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        raise NotImplementedError

    def _due(self, rnd: int, alive: Sequence[int]) -> set[int]:
        # rounds are 1-based; an unseen robot counts as last active at round 0
        return {i for i in alive if rnd - self._last.get(i, 0) >= self._window}

    def _note(self, rnd: int, chosen: set[int]) -> frozenset:
        for i in chosen:
            self._last[i] = rnd
        return frozenset(chosen)


class FullSync(ActivationPolicy):
    """Every live robot, every round."""

    name = "fsync"

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        return self._note(rnd, set(alive))


class RoundRobinSingleton(ActivationPolicy):
    """One robot per round in cyclic id order, skipping finished robots."""

    name = "rr"

    def reset(self, n: int, seed: int) -> None:
        super().reset(n, seed)
        self._n = n
        self._cursor = n - 1

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        live = set(alive)
        for _ in range(self._n):
            self._cursor = (self._cursor + 1) % self._n
            if self._cursor in live:
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

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        chosen = {i for i in alive if self._rng.random() < self.p}
        chosen |= self._due(rnd, alive)
        if not chosen:
            chosen = {alive[self._rng.randrange(len(alive))]}
        return self._note(rnd, chosen)


class LazyAdversary(ActivationPolicy):
    """Keeps every robot that wants to move asleep for as long as fairness
    allows, waking everyone else instead."""

    name = "lazy"
    needs_movers = True

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        chosen = set(alive) - movers
        chosen |= self._due(rnd, alive) & movers
        if not chosen:
            # everyone live wants to move and none is overdue; stall the one
            # with the most recent activation
            chosen = {max(alive, key=lambda i: (self._last.get(i, 0), i))}
        return self._note(rnd, chosen)


POLICIES: dict[str, Callable[[], ActivationPolicy]] = {
    "fsync": FullSync,
    "rr": RoundRobinSingleton,
    "random": RandomSubset,
    "lazy": LazyAdversary,
}


@dataclass
class OrientationAdversary:
    """Hands each activated robot a fresh orientation every activation.

    ``random`` redraws a coin per robot per round; the fixed modes pin all
    robots to one handedness, which is the worst systematic skew available.
    """

    mode: str = "random"

    def __post_init__(self) -> None:
        if self.mode not in ("random", "fixed-false", "fixed-true"):
            raise PreconditionError(f"unknown orientation mode {self.mode!r}")
        self._rng = Random(0)

    def reset(self, seed: int) -> None:
        self._rng = Random(seed)

    def flips(self, ids: Sequence[int]) -> dict[int, bool]:
        if self.mode == "fixed-false":
            return {i: False for i in ids}
        if self.mode == "fixed-true":
            return {i: True for i in ids}
        return {i: self._rng.random() < 0.5 for i in sorted(ids)}


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
    """
    pos = c.positions
    n = c.n
    vel: dict[int, Fraction] = {}
    for i, d in decisions.items():
        if not 0 <= i < n:
            raise PreconditionError(f"decision for unknown robot {i}")
        if d.is_move:
            travel = mod1(d.path_direction.sign * (d.destination - pos[i]))
            if travel:
                vel[i] = d.path_direction.sign * travel
    if not vel or n < 2:
        return None
    cycle, den = c.cycle, c.den
    best: Optional[Fraction] = None
    closing: set[int] = set()  # i such that the gap from robot i to i+1 closes at best
    for i in {(m - 1) % n for m in vel} | set(vel):
        speed = vel.get(i, 0) - vel.get((i + 1) % n, 0)
        if speed <= 0:
            continue
        t = Fraction(cycle[i], den) / speed
        if t > 1 or (best is not None and t > best):
            continue
        if t != best:
            best, closing = t, set()
        closing.add(i)
    if best is None:
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
    return CollisionWitness(first, second, best)


# ---------------------------------------------------------------------------
# rounds and runs


@dataclass(frozen=True)
class RoundRecord:
    """Everything needed to replay one round.

    Positions are indexed by stable robot id; ``config_class`` classifies the
    post-round configuration (its indices refer to the sorted order of
    ``positions_after``).
    """

    round: int
    epoch: int
    activated: tuple[int, ...]
    decisions: Mapping[int, Decision]
    positions_before: tuple[Turn, ...]
    positions_after: tuple[Turn, ...]
    config_class: ConfigClass


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
    if pattern_formed(c, pattern):
        return "formed"
    found = classify(c)
    if isinstance(found, Symmetric):
        return "symmetric"
    if isinstance(found, DoubleNomineeTied):
        return "tied"
    _, gaps, pat = _role_gaps(c, found, pattern)
    settled = _settled(gaps, pat)
    released = _rfc_on(gaps, pat[0])
    if released and settled:
        return "pfc"
    if released:
        return "rfc"
    if settled:
        return "beyond"
    return "lead"


def _branch_postconditions(
    after: Configuration,
    before: Configuration,
    branch: str,
    pattern: TargetPattern,
) -> list[str]:
    """Checks owed by each move branch, applied on single-mover rounds."""
    try:
        found = classify(after)
    except ClassificationError as e:
        return [f"{branch}: {e}"]
    if pattern_formed(after, pattern):
        return []
    msgs: list[str] = []
    # min gap after >= min gap before, cross-multiplied over the two denominators
    no_shrink = min(after.cycle) * before.den >= min(before.cycle) * after.den
    if not isinstance(found, LeaderConfig):
        if branch in ("break_tie", "random_tiebreak") and after.n % 2 == 0:
            # an even count can legitimately stay tied only under joint moves
            msgs.append(f"{branch}: no leader after a lone tie-break move")
        elif branch != "random_tiebreak":
            msgs.append(f"{branch}: configuration lost its leader")
        if branch in ("break_tie", "random_tiebreak") and no_shrink:
            msgs.append(f"{branch}: minimum gap did not shrink")
        return msgs
    full, g, pat = _role_gaps(after, found, pattern)
    beta0 = pat[0]
    if branch in ("break_tie", "random_tiebreak"):
        if no_shrink:
            msgs.append(f"{branch}: minimum gap did not shrink")
    elif branch == "shrink_lead_gap":
        if not g[0] < min(min(g[1:]), beta0):
            msgs.append("shrink_lead_gap: leader gap is not the strict minimum")
    elif branch == "shrink_second_gap":
        if not g[0] < g[1] < min(min(g[2:]), beta0):
            a, b, m = (Fraction(x, full) for x in (g[0], g[1], min(min(g[2:]), beta0)))
            msgs.append(
                "shrink_second_gap: second gap missed the strict corridor "
                f"({a} < {b} < {m} fails)"
            )
    elif branch == "settle_target":
        if not _rfc_on(g, beta0):
            msgs.append("settle_target: landing broke the released ordering")
    elif branch == "finish_detour":
        if not g[1] > pat[1]:
            msgs.append("finish_detour: parked robot sits within the second target gap")
    # finish_direct / finish_near only owe leadership, checked above
    return msgs


def _execute(
    c: Configuration,
    decisions: Mapping[int, Decision],
) -> tuple[Optional[CollisionWitness], tuple[Turn, ...]]:
    """Apply decisions simultaneously; positions returned in input indexing."""
    witness = detect_collision(c, decisions)
    if witness is not None:
        return witness, c.positions
    out = list(c.positions)
    for i, d in decisions.items():
        if d.is_move:
            out[i] = d.destination
    return None, tuple(out)


def step_round(
    c: Configuration,
    pattern: TargetPattern,
    policy: ActivationPolicy,
    orientation: OrientationAdversary,
    *,
    round_index: int = 1,
    epoch: int = 1,
    rng: Optional[Random] = None,
    mutant: Optional[str] = None,
) -> tuple[Configuration, RoundRecord]:
    """One SSYNC round over a bare configuration.

    Robots are identified by their index in ``c``.  All activated robots
    observe the same pre-round configuration and move simultaneously.
    Raises InvariantViolationError if the moves collide.  Callers tracking
    termination across rounds should use ``run``; a robot deciding to
    terminate here is simply recorded.
    """
    ids = tuple(range(c.n))
    flips = orientation.flips(ids)

    def decide(i: int) -> Decision:
        return compute(snapshot_of(c, i, flips[i]), pattern, rng, mutant)

    precomputed: Optional[dict[int, Decision]] = None
    movers: frozenset = frozenset()
    if policy.needs_movers:
        precomputed = {i: decide(i) for i in ids}
        movers = frozenset(i for i, d in precomputed.items() if d.is_move)
    active = policy.select(round_index, ids, movers)
    if not active:
        raise InvariantViolationError("scheduler activated no robot")
    decisions = {
        i: (precomputed[i] if precomputed is not None else decide(i))
        for i in sorted(active)
    }
    witness, after_pos = _execute(c, decisions)
    if witness is not None:
        raise InvariantViolationError(
            f"robots {witness.first} and {witness.second} collide at t={witness.time}"
        )
    after = Configuration.from_positions(after_pos)
    record = RoundRecord(
        round_index,
        epoch,
        tuple(sorted(active)),
        decisions,
        c.positions,
        after_pos,
        classify(after),
    )
    return after, record


class _GeomState:
    """Per-position-state cache for the run loop.

    Decisions are pure functions of the observed geometry (the orientation
    flip never changes the physical outcome, which ``explore_schedules``
    asserts exhaustively), so while no move lands the per-robot decisions,
    the classification, and the phase are all reusable across rounds.
    """

    __slots__ = ("pos", "order", "idx_of", "c", "dec", "_cls", "_phase")

    def __init__(self, pos: Sequence[Turn]):
        self.pos = tuple(pos)
        self.order = sorted(range(len(self.pos)), key=self.pos.__getitem__)
        self.idx_of = {rid: k for k, rid in enumerate(self.order)}
        self.c = Configuration(tuple(self.pos[r] for r in self.order))
        self.dec: dict[int, Decision] = {}
        self._cls: Optional[ConfigClass] = None
        self._phase: Optional[str] = None

    def classify(self) -> ConfigClass:
        if self._cls is None:
            self._cls = classify(self.c)
        return self._cls

    def phase(self, pattern: TargetPattern) -> str:
        if self._phase is None:
            self._phase = phase_of(self.c, pattern)
        return self._phase

    def decide(
        self,
        rid: int,
        flip: bool,
        pattern: TargetPattern,
        rng: Optional[Random],
        mutant: Optional[str],
    ) -> Decision:
        d = self.dec.get(rid)
        if d is None:
            d = compute(snapshot_of(self.c, self.idx_of[rid], flip), pattern, rng, mutant)
            self.dec[rid] = d
        return d


def formation_bound(n: int, mode: str) -> int:
    """Epochs within which a run of ``n`` robots in ``mode`` must form the pattern."""
    return n + 4 if mode == "det" else n + 6


def _check_gap_floor(c0: Configuration, pattern: TargetPattern) -> None:
    if not pattern.admits(c0):
        raise PreconditionError(
            f"starting gap {min(c0.gaps)} is not above the pattern's gap floor "
            f"{pattern.min_gap_floor}"
        )


def run(
    c0: Configuration,
    pattern: TargetPattern,
    policy: ActivationPolicy,
    orientation: Optional[OrientationAdversary] = None,
    *,
    mode: str = "det",
    seed: int = 0,
    max_epochs: Optional[int] = None,
    mutant: Optional[str] = None,
) -> tuple[RunReport, list[RoundRecord]]:
    """Drive a full run until every robot terminates or the budget runs out.

    Inline checks record (never raise) violations of the progress and
    stability guarantees: a leader by the first epoch boundary, release by
    the third, one landing per released epoch, a stable leader and direction
    from the first released round, formation within the epoch bound, and
    termination at most one epoch after formation.  Collisions abort the run.
    """
    n = c0.n
    if pattern.n != n:
        raise StructuralError(f"pattern has {pattern.n} gaps for {n} robots")
    if mode not in ("det", "rand"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "det" and n % 2 == 0:
        raise PreconditionError("deterministic runs need an odd robot count")
    if mode == "rand" and (n % 2 or n < 4):
        raise PreconditionError("randomized runs need an even robot count of at least 4")
    fold = c0.fold()
    if fold > 1:
        raise SymmetricConfigurationError(fold)
    _check_gap_floor(c0, pattern)

    orientation = orientation if orientation is not None else OrientationAdversary()
    master = Random(seed)
    policy.reset(n, master.getrandbits(64))
    orientation.reset(master.getrandbits(64))
    rng = Random(master.getrandbits(64)) if mode == "rand" else None
    bound = formation_bound(n, mode)
    budget = max_epochs if max_epochs is not None else n + 6

    report = RunReport(n=n, scheduler=policy.name, mode=mode, bound=bound)
    records: list[RoundRecord] = []

    terminated: set[int] = set()
    coverage: set[int] = set()
    epoch = 1
    rnd = 0
    formed_epoch: Optional[int] = None
    done_epoch: Optional[int] = None
    locked: Optional[tuple[int, Direction]] = None
    first_rfc_epoch: Optional[int] = None
    landings = 0
    state = _GeomState(c0.positions)
    epoch_start_phase = state.phase(pattern)

    while True:
        alive = [i for i in range(n) if i not in terminated]
        if not alive:
            break
        rnd += 1
        flips = orientation.flips(alive)

        try:
            movers: frozenset = frozenset()
            if policy.needs_movers:
                movers = frozenset(
                    rid for rid in alive
                    if state.decide(rid, flips[rid], pattern, rng, mutant).is_move
                )
            active = policy.select(rnd, tuple(alive), movers)
            if not active or not active <= set(alive):
                report.violations.append(f"round {rnd}: scheduler broke the activation contract")
                break
            decisions = {
                rid: state.decide(rid, flips[rid], pattern, rng, mutant)
                for rid in sorted(active)
            }
        except CircleFormError as e:
            report.violations.append(f"round {rnd}: {e}")
            break

        witness, _ = _execute(state.c, {state.idx_of[r]: d for r, d in decisions.items()})
        if witness is not None:
            a, b = state.order[witness.first], state.order[witness.second]
            report.collisions += 1
            report.violations.append(
                f"round {rnd}: robots {a} and {b} collide at t={witness.time}"
            )
            records.append(
                RoundRecord(rnd, epoch, tuple(sorted(active)), decisions,
                            state.pos, state.pos, state.classify())
            )
            break

        before_by_id = state.pos
        move_ids = [rid for rid, d in decisions.items() if d.is_move]
        for rid, d in decisions.items():
            if d.kind is DecisionKind.TERMINATE:
                terminated.add(rid)
        if move_ids:
            new_pos = list(state.pos)
            for rid in move_ids:
                new_pos[rid] = decisions[rid].destination
            prev_state, state = state, _GeomState(new_pos)
        else:
            prev_state = state
        cls_after = state.classify()
        records.append(
            RoundRecord(rnd, epoch, tuple(sorted(active)), decisions,
                        before_by_id, state.pos, cls_after)
        )

        phase = state.phase(pattern)
        formed_now = phase == "formed"
        if formed_now and formed_epoch is None:
            formed_epoch = epoch
            if formed_epoch > bound:
                report.violations.append(
                    f"round {rnd}: formation took {formed_epoch} epochs, bound is {bound}"
                )

        # stability of leadership from the first released round
        if not formed_now:
            if phase in ("rfc", "pfc") and locked is None:
                assert isinstance(cls_after, LeaderConfig)
                locked = (state.order[cls_after.leader], cls_after.pivotal)
                first_rfc_epoch = epoch
            elif locked is not None:
                if not isinstance(cls_after, LeaderConfig):
                    report.violations.append(f"round {rnd}: leadership lost after release")
                elif (state.order[cls_after.leader], cls_after.pivotal) != locked:
                    report.violations.append(
                        f"round {rnd}: leader or direction changed after release"
                    )

        landings += sum(
            1 for d in decisions.values() if d.is_move and d.branch == "settle_target"
        )

        tie_travels = [
            mod1(d.path_direction.sign * (d.destination - before_by_id[rid]))
            for rid, d in decisions.items()
            if d.is_move and d.branch == "random_tiebreak"
        ]
        if len(tie_travels) > 1:
            report.joint_tiebreaks += 1
            if len(set(tie_travels)) < len(tie_travels):
                report.violations.append(
                    f"round {rnd}: simultaneous tie-break draws coincide"
                )

        if len(move_ids) == 1:
            for msg in _branch_postconditions(
                state.c, prev_state.c, decisions[move_ids[0]].branch, pattern
            ):
                report.violations.append(f"round {rnd}: {msg}")

        if (
            set(active) == set(alive)
            and all(d.kind is DecisionKind.STAY for d in decisions.values())
            and not formed_now
        ):
            report.violations.append(
                f"round {rnd}: full activation produced no motion before formation"
            )
            break

        coverage.update(active)
        alive_after = [i for i in range(n) if i not in terminated]
        if not alive_after or coverage >= set(alive_after):
            # epoch boundary: every still-running robot completed a cycle
            if epoch == 1 and phase in ("tied", "symmetric"):
                report.violations.append("epoch 1: no leader by the first epoch boundary")
            if epoch == 3 and phase in ("tied", "lead"):
                report.violations.append("epoch 3: still unreleased at the third epoch boundary")
            if (
                first_rfc_epoch is not None
                and phase == "rfc"
                and epoch >= first_rfc_epoch + max(n - 3, 1)
            ):
                report.violations.append(
                    f"epoch {epoch}: settling exceeded {n - 3} epochs after release"
                )
            if epoch_start_phase == "rfc" and phase == "rfc" and landings == 0:
                report.violations.append(f"epoch {epoch}: released epoch without a landing")
            if formed_epoch is not None and alive_after and epoch > formed_epoch:
                report.violations.append(
                    f"epoch {epoch}: robots still running an epoch after formation"
                )
            if not alive_after:
                done_epoch = epoch
                break
            epoch += 1
            coverage.clear()
            landings = 0
            epoch_start_phase = phase
            if epoch > budget:
                report.violations.append(
                    f"epoch budget ({budget}) exhausted before full termination"
                )
                epoch -= 1
                break

    report.formed = formed_epoch is not None
    report.formed_epoch = formed_epoch
    report.epochs = done_epoch if done_epoch is not None else epoch
    report.rounds = rnd
    report.terminated = len(terminated)
    return report, records


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
    """Check every schedule prefix up to ``round_budget`` rounds.

    Both orientation assignments are evaluated for every robot and must agree
    physically, which collapses the flip dimension; activation subsets that
    differ only in robots deciding to stay reach identical states, so subsets
    are enumerated over the robots whose decisions have an effect.  States
    are memoised, making the walk exhaustive over reachable states rather
    than over the exponentially redundant schedule tree.

    Verified per edge: no collision, no classification failure, no symmetry
    creation, leader and direction stable from release, and each move
    branch's postcondition (single-mover edges).  Returns the first failure
    as a counterexample, if any.
    """
    n = c0.n
    if n > 5:
        raise PreconditionError("exhaustive exploration is capped at 5 robots")
    if round_budget > 6:
        raise PreconditionError(
            "round budget capped at 6 (roughly "
            f"{(2 ** n - 1) ** round_budget:,} raw schedules)"
        )
    if pattern.n != n:
        raise StructuralError(f"pattern has {pattern.n} gaps for {n} robots")
    fold = c0.fold()
    if fold > 1:
        raise SymmetricConfigurationError(fold)
    _check_gap_floor(c0, pattern)

    State = tuple  # (positions by id, terminated frozenset, locked leader)
    start: State = (c0.positions, frozenset(), None)
    seen: set[State] = {start}
    queue: deque[tuple[State, tuple[tuple[int, ...], ...]]] = deque([(start, ())])
    edges = 0

    def fail(path, reason, positions) -> ExploreReport:
        return ExploreReport(
            round_budget, len(seen), edges,
            ScheduleCounterexample(path, reason, positions),
        )

    while queue:
        (positions, terms, locked), path = queue.popleft()
        if len(path) >= round_budget:
            continue
        alive = [i for i in range(n) if i not in terms]
        if not alive:
            continue
        order = sorted(range(n), key=lambda i: positions[i])
        idx_of = {rid: k for k, rid in enumerate(order)}
        c = Configuration(tuple(positions[rid] for rid in order))

        dec: dict[int, Decision] = {}
        for rid in alive:
            i = idx_of[rid]
            try:
                d0 = compute(snapshot_of(c, i, False), pattern, None, mutant)
                d1 = compute(snapshot_of(c, i, True), pattern, None, mutant)
            except CircleFormError as e:
                return fail(path + ((rid,),), f"robot {rid}: {e}", positions)
            same = d0.kind is d1.kind and d0.destination == d1.destination
            if same and d0.is_move:
                same = d0.path_direction is d1.path_direction
            if not same:
                return fail(
                    path + ((rid,),),
                    f"robot {rid}: decision depends on presentation orientation",
                    positions,
                )
            dec[rid] = d0

        relevant = [rid for rid in alive if dec[rid].kind is not DecisionKind.STAY]
        stayers = [rid for rid in alive if rid not in set(relevant)]
        for mask in range(2 ** len(relevant)):
            sub = [relevant[b] for b in range(len(relevant)) if mask >> b & 1]
            if not sub and not stayers:
                continue
            edges += 1
            act = tuple(sub) if sub else (stayers[0],)
            moves = {idx_of[r]: dec[r] for r in sub if dec[r].is_move}
            witness = detect_collision(c, moves)
            if witness is not None:
                a, b = order[witness.first], order[witness.second]
                return fail(
                    path + (act,),
                    f"robots {a} and {b} collide at t={witness.time}",
                    positions,
                )
            new_pos = list(positions)
            new_terms = set(terms)
            for r in sub:
                if dec[r].is_move:
                    new_pos[r] = dec[r].destination
                else:
                    new_terms.add(r)
            new_order = sorted(range(n), key=lambda i: new_pos[i])
            c_after = Configuration(tuple(new_pos[rid] for rid in new_order))
            try:
                cls = classify(c_after)
            except ClassificationError as e:
                return fail(path + (act,), str(e), tuple(new_pos))
            formed = pattern_formed(c_after, pattern)
            new_locked = locked
            if not formed:
                if isinstance(cls, Symmetric):
                    return fail(
                        path + (act,),
                        f"{cls.fold}-fold symmetry created before formation",
                        tuple(new_pos),
                    )
                if isinstance(cls, LeaderConfig):
                    current = (new_order[cls.leader], cls.pivotal)
                    if locked is not None and current != locked:
                        return fail(
                            path + (act,),
                            "leader or direction changed after release",
                            tuple(new_pos),
                        )
                    if locked is None:
                        _, gaps, pat = _role_gaps(c_after, cls, pattern)
                        if _rfc_on(gaps, pat[0]):
                            new_locked = current
                elif locked is not None:
                    return fail(
                        path + (act,), "leadership lost after release", tuple(new_pos)
                    )
            mover_ids = [r for r in sub if dec[r].is_move]
            if len(mover_ids) == 1:
                msgs = _branch_postconditions(
                    c_after, c, dec[mover_ids[0]].branch, pattern
                )
                if msgs:
                    return fail(path + (act,), "; ".join(msgs), tuple(new_pos))
            state: State = (tuple(new_pos), frozenset(new_terms), new_locked)
            if state not in seen:
                if len(seen) >= state_cap:
                    raise PreconditionError(
                        f"state cap ({state_cap}) reached after {edges} edges; "
                        "narrow the instance or the budget"
                    )
                seen.add(state)
                queue.append((state, path + (act,)))
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
    dest = mod1(s.observer_position + s.physical_direction(Direction.FORWARD).sign * step)
    return Decision(DecisionKind.MOVE, dest, s.physical_direction(Direction.FORWARD), "drift")


def rule_close(s: Snapshot) -> Decision:
    """Move a quarter of the way toward the nearer neighbour; stay on ties.

    A quarter, not a half: two facing robots closing over the same gap cover
    at most half of it together, so they cannot meet.
    """
    front, back = s.forward_gaps[0], s.reverse_gaps[0]
    if front == back:
        return Decision(DecisionKind.STAY, branch="close")
    label = Direction.FORWARD if front < back else Direction.REVERSE
    pdir = s.physical_direction(label)
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
    k0 = c0.fold()
    if k0 < 2:
        raise PreconditionError("the experiment needs a rotationally symmetric start")
    folds = [k0]
    c = c0
    for rnd in range(1, rounds + 1):
        decisions = {i: rule(snapshot_of(c, i, False)) for i in range(c.n)}
        witness = detect_collision(c, decisions)
        if witness is not None:
            raise InvariantViolationError(
                f"round {rnd}: robots {witness.first} and {witness.second} "
                f"collide at t={witness.time}"
            )
        _, after_pos = _execute(c, decisions)
        c = Configuration.from_positions(after_pos)
        k = c.fold()
        folds.append(k)
        if k < k0:
            raise InvariantViolationError(
                f"round {rnd}: fold dropped from {k0} to {k}"
            )
    return folds
