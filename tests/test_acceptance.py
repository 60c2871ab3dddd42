"""Acceptance battery: the guarantees the library advertises, at full scale.

One test per guarantee so a verbose run reads as a checklist.  The
deterministic sweep (six robot counts, fifty seeded instances each, four
schedulers) is shared by the first five tests through a module fixture.
"""

import itertools
import time
from fractions import Fraction as F
from random import Random

import pytest

from circleform import (
    Configuration,
    LeaderConfig,
    SymmetricConfigurationError,
    TargetPattern,
    classify,
    nominees,
    run,
)
from circleform.angles import least_reading, mod1, prefix_sums
from circleform.cli import gen_instance, main, make_policy, symmetric_instance
from circleform.formation import _move_ready_role, _rfc_on
from circleform.simulator import (
    SYMMETRY_RULES,
    explore_schedules,
    fsync_symmetry_experiment,
)

import oracles
from conftest import config, random_positions, tied_even_instance

NS_DET = (3, 5, 7, 9, 11, 15)
TRIALS = 50
SCHEDULERS = ("fsync", "rr", "random", "lazy")

PATTERN5 = TargetPattern.from_angles([F(1, 18), F(1, 9), F(2, 9), F(5, 18), F(1, 3)])
TIED5 = config(0, F(1, 12), F(1, 3), F(2, 3), F(11, 12))


@pytest.fixture(scope="module")
def battery():
    """Every deterministic run for the sweep criteria, plus tied starts.

    Rows are (n, scheduler, start class, report).  The four extra runs from a
    tied start guarantee the sweep contains non-leader configurations.  Thin
    lists the seeded runs' rounds, as (n, seed, scheduler, round), whose
    post-round state has a gap at or below the pattern's floor.
    """
    t0 = time.perf_counter()
    rows, thin = [], []
    for n in NS_DET:
        for t in range(TRIALS):
            seed = n * 1_000_003 + t
            c0, pattern = gen_instance(n, seed)
            start = classify(c0)
            for name in SCHEDULERS:
                report, records = run(c0, pattern, make_policy(name), mode="det", seed=seed)
                rows.append((n, name, start, report))
                # idle rounds share their position tuple: check each state once
                states = {id(rec.positions_after): rec for rec in records}
                thin += [(n, seed, name, rec.round) for rec in states.values()
                         if not pattern.admits(Configuration.from_positions(rec.positions_after))]
    start = classify(TIED5)
    for name in SCHEDULERS:
        report, _ = run(TIED5, PATTERN5, make_policy(name), mode="det", seed=3)
        rows.append((5, name, start, report))
    return rows, time.perf_counter() - t0, thin


def test_criterion_01_formation_within_n_plus_4_epochs(battery):
    rows, elapsed, _ = battery
    assert len(rows) == len(NS_DET) * TRIALS * len(SCHEDULERS) + len(SCHEDULERS)
    late = [
        (n, name, report.formed_epoch, report.violations)
        for n, name, _, report in rows
        if not (report.formed and report.formed_epoch <= n + 4 and report.terminated == report.n)
    ]
    assert late == []
    assert elapsed < 120.0


def test_criterion_02_no_collisions_at_exact_precision(battery):
    rows, _, _ = battery
    assert sum(report.collisions for _, _, _, report in rows) == 0


def test_criterion_03_leader_by_the_first_epoch_boundary(battery):
    rows, _, _ = battery
    non_leader_starts = [
        row for row in rows if not isinstance(row[2], LeaderConfig)
    ]
    assert non_leader_starts, "sweep must include non-leader starts"
    offenders = [
        v
        for _, _, _, report in rows
        for v in report.violations
        if "no leader by the first epoch" in v
    ]
    assert offenders == []


def test_criterion_04_release_and_settling_bounds(battery):
    rows, _, _ = battery
    words = ("unreleased", "settling exceeded", "without a landing")
    offenders = [
        v
        for _, _, _, report in rows
        for v in report.violations
        if any(w in v for w in words)
    ]
    assert offenders == []


def test_criterion_05_leader_and_direction_stable_after_release(battery):
    rows, _, _ = battery
    words = ("leadership lost", "leader or direction changed")
    offenders = [
        v
        for _, _, _, report in rows
        for v in report.violations
        if any(w in v for w in words)
    ]
    assert offenders == []


def test_post_round_gaps_stay_above_the_pattern_floor(battery):
    """``TargetPattern.min_gap_floor`` promises that every gap the rule
    manufactures stays strictly above it.  Over the battery's seeded starts
    under every scheduler, every post-round state keeps that promise, so no
    run here takes the leader shrink's fallback (``hi <= lo`` in
    ``formation._role_moves``), which needs a gap at or below the floor."""
    _, _, thin = battery
    assert thin == []


def test_criterion_06_nominee_count_is_one_or_two():
    grid = [F(k, 24) for k in range(24)]
    checked = 0
    for n in (3, 4, 5):
        for combo in itertools.combinations(grid, n):
            c = Configuration(combo)
            if c.fold() != 1:
                continue
            owners = {i for i, _ in nominees(c)}
            assert 1 <= len(owners) <= 2, combo
            checked += 1
    assert checked > 50_000

    rng = Random(6)
    done = 0
    while done < 10_000:
        n = rng.randrange(3, 13)
        c = Configuration.from_positions(random_positions(n, rng))
        if c.fold() != 1:
            continue
        owners = {i for i, _ in nominees(c)}
        assert 1 <= len(owners) <= 2, c.positions
        done += 1


def test_criterion_07_exhaustive_schedules_clean_and_mutant_caught():
    t0 = time.perf_counter()
    c0, pattern = gen_instance(3, 2)
    report = explore_schedules(c0, pattern, 4)
    assert report.counterexample is None
    assert report.states > 1

    weakened_start = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
    caught = explore_schedules(weakened_start, PATTERN5, 2, mutant="eps1-lower")
    assert caught.counterexample is not None
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_symmetry_never_drops_and_is_unsolvable(tmp_path, capsys):
    rng = Random(8)
    rules = sorted(SYMMETRY_RULES)
    for idx in range(20):
        k = (2, 3, 4)[idx % 3]
        per_sector = rng.randrange(1, 4)
        while k * per_sector < 3:
            per_sector += 1
        c0 = symmetric_instance(k, per_sector, rng.getrandbits(32))
        rule = SYMMETRY_RULES[rules[idx % len(rules)]]
        folds = fsync_symmetry_experiment(c0, rule, 10)
        assert folds[0] >= k
        assert min(folds) >= k, (k, folds)

    c6 = config(0, F(1, 12), F(1, 3), F(1, 2), F(7, 12), F(5, 6))
    pattern6 = TargetPattern.from_angles(
        [F(1, 12), F(1, 6), F(1, 6), F(1, 4), F(1, 12), F(1, 4)]
    )
    with pytest.raises(SymmetricConfigurationError):
        run(c6, pattern6, make_policy("fsync"), mode="rand")

    from circleform.formats import save_config, save_pattern

    cpath, ppath = tmp_path / "c.json", tmp_path / "p.json"
    save_config(c6, cpath)
    save_pattern(pattern6, ppath)
    code = main(["run", "--config", str(cpath), "--pattern", str(ppath), "--mode", "rand"])
    assert code == 2
    assert "Unsolvable" in capsys.readouterr().out


def test_criterion_09_randomized_runs_form_with_distinct_draws():
    joint = 0
    for n in (4, 6, 8):
        for t in range(100):
            seed = n * 7919 + t
            if t % 10 == 0:
                c0, pattern = tied_even_instance(n, seed)
                name = "fsync"
            else:
                c0, pattern = gen_instance(n, seed)
                name = SCHEDULERS[t % len(SCHEDULERS)]
            report, _ = run(c0, pattern, make_policy(name), mode="rand", seed=seed)
            assert report.formed and report.formed_epoch <= n + 6, (n, t, report.violations)
            assert report.terminated == n
            assert not any("coincide" in v for v in report.violations)
            joint += report.joint_tiebreaks
    assert joint > 0, "sweep must include simultaneous tie-break draws"


def _random_released(rng: Random) -> tuple[Configuration, TargetPattern]:
    """A released configuration built around a fresh pattern.

    The chain robot sits closer to the leader than the tie blocker, both gaps
    stay under the pattern floor, and a random subset of the tail is nudged
    off target without letting any gap shrink to the blocker gap.  A random
    rotation and an optional mirror keep the leader and direction arbitrary.
    """
    n = rng.randrange(4, 8)
    _, pattern = gen_instance(n, rng.randrange(1 << 30))
    betas = pattern.angles
    beta0 = min(betas)
    d = rng.randrange(8, 24)
    a1 = beta0 * F(rng.randrange(2, d), d + 1)
    a0 = a1 * F(rng.randrange(1, 8), 8)

    targets = [F(0)]
    for b in betas[:-1]:
        targets.append(targets[-1] + b)
    positions = [F(0), a0, a0 + a1] + targets[3:]
    for i in range(3, n):
        if rng.random() < 0.6:
            nxt = positions[(i + 1) % n]
            room = mod1(nxt - positions[i]) - a1
            if room <= 0:
                continue
            positions[i] += room * F(rng.randrange(1, 16), 16)

    spin = F(rng.randrange(0, 360), 360)
    points = [mod1(p + spin) for p in positions]
    if rng.random() < 0.5:
        points = [mod1(-p) for p in points]
    return Configuration.from_positions(points), pattern


def test_criterion_10_oracle_agreement_on_random_instances():
    rng = Random(10)

    done = 0
    while done < 1000:
        n = rng.randrange(3, 11)
        c = Configuration.from_positions(random_positions(n, rng))
        if c.fold() != 1:
            continue
        brute = oracles.brute_nominees(c.positions)
        mine = nominees(c)
        assert {i for i, _ in mine} == set(brute), c.positions
        assert all(d in brute[i] for i, d in mine), c.positions
        done += 1

    for _ in range(1000):
        m = rng.randrange(1, 9)
        den = rng.randrange(2, 12)
        seq = tuple(F(rng.randrange(den), den) for _ in range(m))
        if rng.random() < 0.3:
            seq = seq * rng.randrange(2, 4)  # forced repeats exercise tie handling
        # the least rotation either way round, and every offset reading it
        canon, owners = least_reading(seq)
        assert owners == oracles.brute_owners(seq), seq
        assert canon == min(
            oracles.brute_min_rotation(seq)[0], oracles.brute_min_rotation(seq[::-1])[0]
        ), seq

    done = 0
    while done < 1000:
        c, pattern = _random_released(rng)
        cls = classify(c)
        assert isinstance(cls, LeaderConfig), c.positions
        full, gaps, pat = oracles._role_gaps(c, cls, pattern)
        if not _rfc_on(gaps, pat[0]):
            continue
        k = _move_ready_role(gaps, prefix_sums(pat), full)
        mine = None if k is None else (cls.leader + cls.pivotal.sign * k) % c.n
        assert mine == oracles.brute_move_ready(c, pattern), c.positions
        done += 1
