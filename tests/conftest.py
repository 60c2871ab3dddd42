"""Shared fixtures: small hand-built configurations with known classifications,
and hypothesis strategies for positions and for near-floor and tied run starts."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from circleform import Configuration, TargetPattern, classify, formation, gen_instance, simulator
from circleform.angles import mod1
from circleform.configuration import DoubleNomineeTied

F = Fraction
# denominator of randomized tie-break draws
TIE_DEN = 1 << 61


def config(*positions) -> Configuration:
    return Configuration.from_positions([F(p) for p in positions])


@pytest.fixture
def single_nominee5() -> Configuration:
    """Five robots, one nominee (robot 0 reading forward), leader config."""
    return config(0, F(1, 12), F(1, 3), F(1, 2), F(17, 24))


@pytest.fixture
def pattern5() -> TargetPattern:
    """Five-gap pattern, already in canonical reading; floor 0."""
    return TargetPattern.from_angles(
        [F(1, 18), F(1, 9), F(2, 9), F(5, 18), F(1, 3)]
    )


@pytest.fixture
def tied5() -> Configuration:
    """Odd tied case: two nominees with equal arcs, robot 0 on the bisector."""
    return config(0, F(1, 12), F(1, 3), F(2, 3), F(11, 12))


@pytest.fixture
def skewed_tie_break(monkeypatch):
    """The rule with a tie-break that depends on the reading.

    A bisector robot whose two readings tie may take either neighbour; sent
    along the canonical reading's forward instead, its move depends on
    which way the presentation reads the circle."""
    plain = formation._break_tie

    def skewed(*args):
        head, dist, sign, branch = plain(*args)
        return head, dist, sign or 1, branch

    formation._decide.cache_clear()
    simulator._start_frame.cache_clear()
    monkeypatch.setattr(formation, "_break_tie", skewed)
    yield
    monkeypatch.undo()
    formation._decide.cache_clear()
    simulator._start_frame.cache_clear()


@pytest.fixture
def mirror_tied4() -> Configuration:
    """Even tied case: mirror-symmetric, nobody on the bisector."""
    return config(F(1, 12), F(1, 3), F(2, 3), F(11, 12))


def random_positions(n: int, rng: Random, den_max: int = 720) -> list[F]:
    """n distinct exact points; denominators vary so ties stay possible."""
    den = rng.randrange(4 * n, den_max)
    nums = rng.sample(range(den), n)
    return sorted(F(k, den) for k in nums)


def tied_even_instance(n: int, seed: int) -> tuple[Configuration, TargetPattern]:
    """Even-count instance that starts in the tied two-nominee class.

    Mirrors half the points through a diameter, then retries until the result
    is asymmetric, genuinely tied, and leaves room under the pattern floor.
    Used to force the randomized tie-break path in tests.
    """
    assert n % 2 == 0
    rng = Random(seed)
    for _ in range(1000):
        half = sorted(rng.sample(range(1, 500), n // 2))
        pts = {F(k, 1000) for k in half} | {1 - F(k, 1000) for k in half}
        if len(pts) != n:
            continue
        c = Configuration.from_positions(pts)
        if c.fold() != 1 or not isinstance(classify(c), DoubleNomineeTied):
            continue
        _, pattern = gen_instance(n, rng.randrange(1 << 30))
        if min(c.gaps) > pattern.min_gap_floor:
            return c, pattern
    raise AssertionError(f"no tied instance found for n={n}, seed={seed}")


# ---------------------------------------------------------------------------
# strategies: positions with unrelated denominators, mirror images and
# rotation-symmetric sets built from them

mixed_turns = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=720),
    st.integers(0, TIE_DEN - 1).map(lambda k: F(k, TIE_DEN)),
    st.integers(0, 3 * TIE_DEN - 1).map(lambda k: F(k, 3 * TIE_DEN)),
).map(mod1)


@st.composite
def mixed_position_sets(draw):
    shape = draw(st.sampled_from(("free", "mirror", "rotated")))
    if shape == "free":
        return draw(st.sets(mixed_turns, min_size=3, max_size=9))
    if shape == "mirror":
        half = draw(st.sets(mixed_turns, min_size=2, max_size=5))
        axis = draw(mixed_turns)
        return half | {mod1(2 * axis - h) for h in half}
    base = draw(st.sets(mixed_turns, min_size=1, max_size=3))
    k = draw(st.integers(2, 4))
    return {mod1(b + F(j, k)) for b in base for j in range(k)}


@st.composite
def near_floor_starts(draw):
    """(mode, start, pattern): a seeded instance whose smallest gap is pulled
    down to just above the pattern's gap floor."""
    mode = draw(st.sampled_from(("det", "rand")))
    n = draw(st.sampled_from((3, 5, 7) if mode == "det" else (4, 6)))
    c0, pattern = gen_instance(n, draw(st.integers(0, 10**6)))
    keep = draw(st.sampled_from((F(1, 1000), F(1, 20), F(1, 2))))
    pos = list(c0.positions)
    i = min(range(n), key=c0.gaps.__getitem__)
    floor = pattern.min_gap_floor
    pos[(i + 1) % n] = mod1(pos[i] + floor + keep * (c0.gaps[i] - floor))
    c = Configuration.from_positions(pos)
    assume(c.fold() == 1)
    return mode, c, pattern


@st.composite
def tied_starts(draw):
    """(mode, start, pattern): a mirror-symmetric start in the tied class,
    with a robot on the mirror axis when the count is odd."""
    mode = draw(st.sampled_from(("det", "rand")))
    n = draw(st.sampled_from((5, 7) if mode == "det" else (4, 6)))
    half = draw(st.sets(st.integers(1, 499), min_size=n // 2, max_size=n // 2))
    pts = {F(k, 1000) for k in half} | {1 - F(k, 1000) for k in half}
    if n % 2:
        pts.add(F(0))
    c = Configuration.from_positions(pts)
    assume(c.fold() == 1 and isinstance(classify(c), DoubleNomineeTied))
    _, pattern = gen_instance(n, draw(st.integers(0, 10**6)))
    assume(pattern.admits(c))
    return mode, c, pattern
