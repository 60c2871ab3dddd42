"""Brute-force reference implementations the test suite checks against.

Everything here is written the slow, obvious way from raw positions, on
purpose: no gap-cycle caching, no candidate pruning, no role frames.  Where
the library restricts a scan (nominee candidates, canonical rotations), the
oracle enumerates everything instead.
"""

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from circleform import (
    CollisionWitness,
    Configuration,
    Decision,
    Direction,
    Embedding,
    LeaderConfig,
    PreconditionError,
    angle_between,
    bisector_points,
    classify,
    mod1,
)


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


def brute_fold(positions: Sequence[Fraction]) -> int:
    """Largest k whose 1/k rotation fixes the set, tried from n down."""
    pset = set(positions)
    n = len(pset)
    for k in range(n, 1, -1):
        if n % k == 0 and {mod1(p + Fraction(1, k)) for p in pset} == pset:
            return k
    return 1


def brute_move_ready(c: Configuration, emb: Embedding) -> Optional[int]:
    """Definition-level scan for the next robot cleared to settle.

    Walks robots outward from the leader along the pivotal direction, skipping
    the first two; the first one off its target whose gap toward the target
    side exceeds the travel by more than the second role gap wins.  Works on
    physical angles only, independent of the library's role-offset frame.
    """
    found = classify(c)
    assert isinstance(found, LeaderConfig)
    n = c.n
    piv = found.pivotal
    order = [(found.leader + piv.sign * k) % n for k in range(n)]
    pos = c.positions
    alpha1 = angle_between(pos[order[1]], pos[order[2]], piv)
    anchor = pos[found.leader]
    for k in range(3, n):
        r = pos[order[k]]
        target = emb.targets[k]
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
