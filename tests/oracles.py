"""Brute-force reference implementations the test suite checks against.

Everything here is written the slow, obvious way from raw positions, on
purpose: no gap-cycle caching, no candidate pruning, no role frames.  Where
the library restricts a scan (nominee candidates, canonical rotations), the
oracle enumerates everything instead.

``reference_decide`` is the one exception: it is the decision rule in its
per-observer form, which analyses every rooted reading on its own, kept as
the reference for the rule that surveys each configuration once;
``reference_phase`` likewise labels a configuration's progress from its
own classification and role frame, for the phase the rule's table carries.
The first seven functions are small angle, mirror and bisector helpers
that only the tests need; ``arc_population`` counts a pair's arcs on raw
positions and checks the library's bisector robots against them.
``_rooted`` and ``_role_gaps`` read a leader configuration's role gaps
from the leader's own reading, for the rule that takes them from the
configuration's least reading (``angles.least_reading``); ``brute_owners``
finds that reading's owners over all 2n readings.
``reference_record_to_json`` encodes a trace line formatting every
position anew, for the encoder that formats a position tuple once.
``ReferencePolicy`` keeps the schedulers' fairness bookkeeping in one
dict, for the policies that note only the robots whose status changed.
"""

from fractions import Fraction
from random import Random
from typing import Mapping, Optional, Sequence

from circleform import (
    CollisionWitness,
    Configuration,
    Decision,
    DecisionKind,
    Direction,
    LeaderConfig,
    PreconditionError,
    TargetPattern,
    classify,
)
from circleform.angles import format_turn, mod1, prefix_sums
from circleform.configuration import (
    DoubleNomineeTied,
    Symmetric,
    _classify_cycle,
    _on_bisector,
)
from circleform.formation import (
    _bisector_blocked,
    _common_scale,
    _move_ready_role,
    _pick,
    _rfc_on,
    _settled,
    pattern_formed,
)
from circleform.formats import class_to_json, decision_to_json


def angle_between(a: Fraction, b: Fraction, d: Direction) -> Fraction:
    """Angular distance from point a to point b walking in direction d."""
    if d is Direction.FORWARD:
        return mod1(b - a)
    return mod1(a - b)


def rotate(seq: Sequence, j: int) -> tuple:
    """Cyclic left rotation by j places."""
    n = len(seq)
    if n == 0:
        return ()
    j %= n
    return tuple(seq[j:]) + tuple(seq[:j])


def mirror(c: Configuration) -> Configuration:
    """The mirror image of ``c``: every position negated mod 1.

    Robot i of ``c`` is robot ``mirror_index(c, i)`` of the mirror, and reads
    forward there the gaps it reads in reverse here: the mirror is the other
    reading of every robot, laid out as a configuration of its own.
    """
    return Configuration.from_positions(mod1(-p) for p in c.positions)


def mirror_index(c: Configuration, i: int) -> int:
    """Robot i of ``c``'s index in ``mirror(c)``, found by its position."""
    return mirror(c).positions.index(mod1(-c.positions[i]))


def mirror_decisions(
    d: Decision, at: Fraction, view: Sequence, instr: tuple
) -> list[Decision]:
    """What the robot at ``at``, deciding ``d`` from the table instruction
    ``instr`` on its gap reading ``view``, may decide in the mirror image:
    the mirror move, its destination negated and its path reversed.  A
    robot whose reading is the same both ways round cannot tell its
    neighbours apart; if its instruction is direction-free (sign 0) the
    configuration is symmetric through it, so the mirror of its move toward
    its other neighbour stands too.  A signed instruction there picks a side
    the robot cannot see, and only the strict mirror move is admitted."""
    if not d.is_move:
        return [d]
    out = [Decision(d.kind, mod1(-d.destination), d.path_direction.opposite, d.branch)]
    if tuple(view) == tuple(view)[::-1] and instr[2] == 0:
        out.append(Decision(d.kind, mod1(d.destination - 2 * at), d.path_direction, d.branch))
    return out


def bisector_points(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """The two antipodal circle points of the perpendicular bisector of chord ab.

    Returned as ((a+b)/2 mod 1, (a+b)/2 + 1/2 mod 1); symmetric in a and b.
    """
    if mod1(a) == mod1(b):
        raise ValueError("bisector of a point with itself is undefined")
    mid = mod1((a + b) / 2)
    return mid, mod1(mid + Fraction(1, 2))


def arc_population(
    c: Configuration, nominee_a: int, nominee_b: int
) -> tuple[int, int, list[int]]:
    """The arc split of two distinct robots, (count_a, count_b,
    on_bisector), counted on raw positions; its bisector robots must be
    the library's (``_on_bisector`` on the configuration's cycle)."""
    if nominee_a == nominee_b:
        raise PreconditionError("arc_population needs two distinct nominees")
    split = brute_arc_population(c.positions, nominee_a, nominee_b)
    assert _on_bisector(c.cycle, nominee_a, nominee_b) == split[2]
    return split


def rooted_sequence(
    positions: Sequence[Fraction], i: int, d: Direction
) -> tuple[Fraction, ...]:
    """Gap sequence read from robot i by walking neighbor to neighbor."""
    n = len(positions)
    step = 1 if d is Direction.FORWARD else -1
    out = []
    for j in range(n):
        a = positions[(i + step * j) % n]
        b = positions[(i + step * (j + 1)) % n]
        out.append(angle_between(a, b, d))
    return tuple(out)


def brute_nominees(positions: Sequence[Fraction]) -> dict[int, set[Direction]]:
    """Owners of the least rooted sequence over all 2n readings, by index."""
    readings = {
        (i, d): rooted_sequence(positions, i, d)
        for i in range(len(positions))
        for d in (Direction.FORWARD, Direction.REVERSE)
    }
    best = min(readings.values())
    out: dict[int, set[Direction]] = {}
    for (i, d), seq in readings.items():
        if seq == best:
            out.setdefault(i, set()).add(d)
    return out


def brute_min_rotation(seq: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], int]:
    """Least rotation by enumerating all of them; smallest offset on ties."""
    n = len(seq)
    if n == 0:
        return (), 0
    rots = [tuple(seq[(j + k) % n] for k in range(n)) for j in range(n)]
    best = min(rots)
    return best, rots.index(best)


def brute_owners(seq: Sequence) -> tuple[tuple[int, bool], ...]:
    """Every (offset, reversed) whose reading of ``seq`` is the least of all
    2n readings, a reading being a rotation of ``seq`` or of ``seq[::-1]``:
    forward readings first, then by offset."""
    readings = {
        (j, r): rotate(seq[::-1] if r else seq, j)
        for r in (False, True)
        for j in range(len(seq))
    }
    best = min(readings.values())
    return tuple(k for k, reading in readings.items() if reading == best)


def _rooted(gaps: tuple, i: int, d: Direction) -> tuple:
    """Gap sequence read from robot i in presentation direction d."""
    if d is Direction.FORWARD:
        return gaps[i:] + gaps[:i]
    # gaps[i-1], gaps[i-2], ..., wrapping round to gaps[i]
    return gaps[i - 1::-1] + gaps[:i - 1:-1] if i else gaps[::-1]


def _role_gaps(
    c: Configuration, found: LeaderConfig, pattern: TargetPattern
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(full, role gaps, pattern gaps) of a leader configuration, as ints over full.

    Role k is the k-th robot from the leader along the pivotal direction and
    role gap k separates roles k and k+1; role k's target sits
    ``prefix_sums(pattern gaps)[k]`` from the leader along the same direction.
    """
    gaps = _rooted(c.cycle, found.leader, found.pivotal)
    return _common_scale(gaps, c.den, pattern.cycle, pattern.den)


def brute_fold(positions: Sequence[Fraction]) -> int:
    """Largest k whose 1/k rotation fixes the set, tried from n down."""
    pset = set(positions)
    n = len(pset)
    for k in range(n, 1, -1):
        if n % k == 0 and {mod1(p + Fraction(1, k)) for p in pset} == pset:
            return k
    return 1


def brute_move_ready(c: Configuration, pattern: TargetPattern) -> Optional[int]:
    """Definition-level scan for the next robot cleared to settle.

    Anchors the pattern at the leader, its gaps laid out along the pivotal
    direction, then walks robots outward from the leader the same way,
    skipping the first two; the first one off its target whose gap toward the
    target side exceeds the travel by more than the second role gap wins.
    Works on physical angles only, independent of the library's role-offset
    frame.
    """
    found = classify(c)
    assert isinstance(found, LeaderConfig)
    n = c.n
    piv = found.pivotal
    order = [(found.leader + piv.sign * k) % n for k in range(n)]
    pos = c.positions
    alpha1 = angle_between(pos[order[1]], pos[order[2]], piv)
    anchor = pos[found.leader]
    targets = [anchor]
    for beta in pattern.angles[:-1]:
        targets.append(mod1(targets[-1] + piv.sign * beta))
    for k in range(3, n):
        r = pos[order[k]]
        target = targets[k]
        if r == target:
            continue
        if angle_between(anchor, target, piv) > angle_between(anchor, r, piv):
            toward = piv
            nb = pos[order[(k + 1) % n]]
        else:
            toward = piv.opposite
            nb = pos[order[k - 1]]
        if angle_between(r, nb, toward) - angle_between(r, target, toward) > alpha1:
            return order[k]
    return None


def on_some_bisector(
    others: Sequence[Fraction], mover: Fraction, neighbor: Fraction
) -> bool:
    """Direct occupancy test: does any listed robot sit on a bisector point
    of the (mover, neighbor) pair?"""
    p, q = bisector_points(mover, neighbor)
    return any(x == p or x == q for x in others)


def brute_arc_population(
    positions: Sequence[Fraction], a: int, b: int
) -> tuple[int, int, list[int]]:
    """Split robots by the bisector of robots a and b, on raw positions.

    Returns (robots on a's side, robots on b's side, robots on the bisector).
    """
    p, q = bisector_points(positions[a], positions[b])
    lo, hi = sorted((p, q))
    a_inside = lo < positions[a] < hi
    count_a = count_b = 0
    on_bisector = []
    for idx, x in enumerate(positions):
        if x in (p, q):
            on_bisector.append(idx)
        elif (lo < x < hi) == a_inside:
            count_a += 1
        else:
            count_b += 1
    return count_a, count_b, on_bisector


def all_pairs_collision(
    c: Configuration, decisions: Mapping[int, Decision]
) -> Optional[CollisionWitness]:
    """Earliest meeting by trying every mover against every robot.

    Each pair's separation changes linearly, so the pair meets at the times
    t = (k - dp) / dv in (0, 1] for whole turns k; five values of k cover
    every separation and relative speed below one turn.
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
    best: Optional[tuple[Fraction, int, int]] = None
    for i in sorted(vel):
        for j in range(n):
            if j == i or (j in vel and j < i):
                continue
            dp = pos[i] - pos[j]
            dv = vel[i] - vel.get(j, 0)
            if dv == 0:
                continue
            for k in (-2, -1, 0, 1, 2):
                t = (k - dp) / dv
                if 0 < t <= 1:
                    cand = (t, min(i, j), max(i, j))
                    if best is None or cand < best:
                        best = cand
    if best is None:
        return None
    return CollisionWitness(best[1], best[2], best[0])


def _brute_canonical(cycle: Sequence) -> tuple:
    """Least rotation of either reading, over every rotation."""
    return min(brute_min_rotation(cycle)[0], brute_min_rotation(tuple(cycle[::-1]))[0])


def _move_by(d: Fraction, q: int, branch: str) -> tuple:
    return ("move", abs(d), (1 if d > 0 else -1) * q, branch)


def reference_decide(cycle: tuple[int, ...], pat: tuple[int, ...], mutant: Optional[str]):
    """The formation rule analysed afresh for one observer.

    The observer is cycle index 0; the return contract is that of
    ``formation._decide``.  Canonical form, classification and role frame
    are all recomputed from this one rooted reading, with no sharing
    between the observers of one configuration.
    """
    n = len(cycle)
    if _brute_canonical(cycle) == pat:
        return ("terminate",)
    found = _classify_cycle(cycle)
    if isinstance(found, Symmetric):
        return ("unsolvable", found.fold)
    full, cycle, pat = _common_scale(cycle, sum(cycle), pat, sum(pat))
    floor = max(0, 2 * pat[0] - pat[-1])
    off = prefix_sums(cycle)

    if isinstance(found, DoubleNomineeTied):
        if found.bisector_robot != 0:
            return ("stay", "wait_tie")
        rev = cycle[::-1]
        if cycle <= rev:
            sign, near, nb, others = (1 if cycle < rev else 0), cycle[0], off[1], off[2:]
        else:
            sign, near, nb, others = -1, cycle[-1], off[-1], off[1:-1]
        g_min = min(cycle)
        lo, hi = near - g_min, near - floor
        if hi <= lo:
            hi = near
        bad = _bisector_blocked(nb, sign or 1, others, full)
        return ("move", _pick(lo, hi, bad, full), sign, "break_tie")

    lead, q = found.leader, found.pivotal.sign
    role = (q * (0 - lead)) % n
    gaps = _rooted(cycle, lead, found.pivotal)
    at = prefix_sums(gaps)
    goal = prefix_sums(pat)
    settled = _settled(gaps, pat)
    lead_margin = min(min(gaps[1:]), pat[0])
    r1_home = gaps[0] == pat[0]

    if role == 0:
        if gaps[0] >= lead_margin and not (r1_home and settled):
            lo, hi = gaps[0] - lead_margin, gaps[0] - floor
            if hi <= lo:
                hi = gaps[0]
            nb = off[1] if q > 0 else off[-1]
            others = off[2:] if q > 0 else off[1:-1]
            bad = _bisector_blocked(nb, q, others, full)
            blocker = gaps[1] - gaps[n - 1]
            if blocker > 0:
                bad.add(blocker)
            return ("move", _pick(lo, hi, bad, full), q, "shrink_lead_gap")
        return ("stay", "wait_lead")

    if role == 2:
        second_margin = min(min(gaps[2:]), pat[0])
        if not settled and gaps[0] < lead_margin and gaps[1] >= second_margin:
            if mutant == "eps1-lower":
                lo, hi = 0, gaps[1] - gaps[0]
            else:
                lo, hi = gaps[1] - second_margin, gaps[1] - gaps[0]
            return ("move", _pick(lo, hi, (), full), -q, "shrink_second_gap")
        if settled and gaps[0] <= pat[0] and (gaps[0] < lead_margin or r1_home):
            if pat[0] + pat[1] - gaps[0] < pat[-1]:
                dist, tag = Fraction(goal[2] - at[2], full), "finish_direct"
            else:
                lo = max(pat[1], 2 * pat[0] - gaps[0])
                hi = pat[-1]
                if hi <= lo:
                    lo = pat[0] - gaps[0]
                dist = Fraction(gaps[0] - at[2], full) + _pick(lo, hi, (), full)
                tag = "finish_detour"
            if dist == 0:
                return ("stay", "parked")
            return _move_by(dist, q, tag)
        return ("stay", "wait_second")

    if role == 1:
        if settled and gaps[0] < lead_margin and gaps[1] > pat[1]:
            landed = (pat[0], gaps[0] + gaps[1] - pat[0]) + gaps[2:]
            if landed == pat or _classify_cycle(landed) == LeaderConfig(0, Direction.FORWARD):
                return _move_by(Fraction(goal[1] - at[1], full), q, "finish_near")
        return ("stay", "wait_near")

    if _rfc_on(gaps, pat[0]) and not settled:
        k = _move_ready_role(gaps, goal, full)
        if k is None:
            return ("invariant", "no robot is cleared to move in a releasable configuration")
        if k != role:
            return ("stay", "wait_settle")
        return _move_by(Fraction(goal[k] - at[k], full), q, "settle_target")
    return ("stay", "hold")


def reference_tied_nominee(cycle: tuple[int, ...], pat: tuple[int, ...]) -> bool:
    """Whether the observer (cycle index 0) takes the randomized tie-break:
    it is one of the two nominees of a tied configuration not yet formed."""
    if _brute_canonical(cycle) == pat:
        return False
    found = _classify_cycle(cycle)
    return isinstance(found, DoubleNomineeTied) and 0 in (found.nominee_a, found.nominee_b)


def reference_phase(c: Configuration, pattern: TargetPattern) -> str:
    """Coarse progress label of a configuration, derived afresh.

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


def reference_epochs(records: Sequence, n: int) -> list[int]:
    """Each record's epoch, recounted from the activated sets and the
    ``TERMINATE`` decisions alone: an epoch ends after the first round by
    which every robot still running has been activated since it began."""
    out = []
    epoch, activated, running = 1, set(), set(range(n))
    for rec in records:
        out.append(epoch)
        activated |= set(rec.activated)
        running -= {r for r in rec.activated if rec.decisions[r].kind is DecisionKind.TERMINATE}
        if running and running <= activated:
            epoch, activated = epoch + 1, set()
    return out


def reference_record_to_json(rec) -> dict:
    """A trace line's object with every position formatted on its own, as
    the encoder did before it kept the last position tuple's texts."""
    return {
        "round": rec.round,
        "epoch": rec.epoch,
        "activated": list(rec.activated),
        "decisions": {str(i): decision_to_json(d) for i, d in sorted(rec.decisions.items())},
        "positions_before": [format_turn(p) for p in rec.positions_before],
        "positions_after": [format_turn(p) for p in rec.positions_after],
        "class": class_to_json(rec.config_class),
    }


class ReferencePolicy:
    """An activation policy keeping its fairness bookkeeping in one dict of
    every robot's last activation round, as ``simulator.ActivationPolicy``
    did before it kept the set chosen last apart.  ``select`` is the named
    policy's (``fsync``, ``rr``, ``random`` or ``lazy``); a subclass may
    replace it with one written against ``_due`` and ``_note``."""

    def __init__(self, name: str, p: float = 0.5, fairness: Optional[int] = None):
        self.name, self.p, self.fairness = name, p, fairness

    def reset(self, n: int, seed: int) -> None:
        self._window = self.fairness if self.fairness is not None else 2 * n
        self._last: dict[int, int] = {}
        self._rng = Random(seed)
        self._n, self._cursor = n, n - 1

    def _due(self, rnd: int, alive) -> set:
        return {i for i in alive if rnd - self._last.get(i, 0) >= self._window}

    def _note(self, rnd: int, chosen) -> frozenset:
        self._last.update(dict.fromkeys(chosen, rnd))
        return frozenset(chosen)

    def select(self, rnd: int, alive: Sequence[int], movers: frozenset) -> frozenset:
        if self.name == "fsync":
            return self._note(rnd, alive)
        if self.name == "rr":
            for _ in range(self._n):
                self._cursor = (self._cursor + 1) % self._n
                if self._cursor in alive:
                    return self._note(rnd, {self._cursor})
            raise PreconditionError("no live robot to schedule")
        if self.name == "random":
            chosen = {i for i in alive if self._rng.random() < self.p}
            chosen |= self._due(rnd, alive)
            if not chosen:
                chosen = {alive[self._rng.randrange(len(alive))]}
            return self._note(rnd, chosen)
        chosen = set(alive) - movers
        chosen |= self._due(rnd, movers)
        if not chosen:
            chosen = {max(alive, key=lambda i: (self._last.get(i, 0), i))}
        return self._note(rnd, chosen)
