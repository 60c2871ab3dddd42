"""Schedulers, collision detection, full runs, exploration, symmetry runs."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleform import (
    Configuration,
    Decision,
    DecisionKind,
    Direction,
    InvariantViolationError,
    LeaderConfig,
    PreconditionError,
    RoundRecord,
    StructuralError,
    SymmetricConfigurationError,
    TargetPattern,
)
from circleform import formation, simulator
from circleform.angles import mod1, prefix_sums
from circleform.cli import gen_instance
from circleform.formats import read_trace, record_to_json
from circleform.simulator import (
    POLICIES,
    SYMMETRY_RULES,
    ActivationPolicy,
    CollisionWitness,
    FullSync,
    LazyAdversary,
    RandomSubset,
    RoundRobinSingleton,
    detect_collision,
    explore_schedules,
    formation_bound,
    fsync_symmetry_experiment,
    make_policy,
    phase_of,
    run,
    verify_trace,
)
import golden_corpus as gc
from conftest import config, near_floor_starts, tied_even_instance, tied_starts
from oracles import ReferencePolicy

F = Fraction


def move_to(dest, direction=Direction.FORWARD):
    return Decision(DecisionKind.MOVE, F(dest), direction, "test")


STAY = Decision(DecisionKind.STAY, branch="test")


class TestPolicies:
    def test_registry_names(self):
        assert set(POLICIES) == {"fsync", "rr", "random", "lazy"}
        for name, factory in POLICIES.items():
            assert factory().name == name

    def test_fsync_takes_everyone(self):
        p = FullSync()
        p.reset(4, 0)
        assert p.select(1, (0, 1, 2, 3), frozenset()) == frozenset({0, 1, 2, 3})

    def test_round_robin_cycles_and_skips_dead(self):
        p = RoundRobinSingleton()
        p.reset(3, 0)
        picks = [p.select(r, (0, 1, 2), frozenset()) for r in (1, 2, 3, 4)]
        assert picks == [frozenset({0}), frozenset({1}), frozenset({2}), frozenset({0})]
        assert p.select(5, (0, 2), frozenset()) == frozenset({2})

    def test_random_subset_is_seeded_and_nonempty(self):
        a, b = RandomSubset(p=0.3), RandomSubset(p=0.3)
        a.reset(6, 42)
        b.reset(6, 42)
        for r in range(1, 20):
            pick = a.select(r, tuple(range(6)), frozenset())
            assert pick == b.select(r, tuple(range(6)), frozenset())
            assert pick

    def test_random_subset_forces_the_starving(self):
        p = RandomSubset(p=0.5, fairness=1)
        p.reset(3, 7)
        # a one-round window makes every robot due every round
        assert p.select(1, (0, 1, 2), frozenset()) == frozenset({0, 1, 2})

    def test_random_subset_rejects_bad_probability(self):
        with pytest.raises(PreconditionError):
            RandomSubset(p=0.0)
        with pytest.raises(PreconditionError):
            RandomSubset(p=1.5)

    def test_zero_fairness_rejected(self):
        p = FullSync(fairness=0)
        with pytest.raises(PreconditionError):
            p.reset(3, 0)

    def test_lazy_starves_movers_within_the_window(self):
        p = LazyAdversary()
        p.reset(4, 0)
        assert p.select(1, (0, 1, 2, 3), frozenset({1})) == frozenset({0, 2, 3})

    def test_lazy_must_release_an_overdue_mover(self):
        p = LazyAdversary(fairness=2)
        p.reset(2, 0)
        assert p.select(1, (0, 1), frozenset({1})) == frozenset({0})
        # robot 1 last moved at round 0, window 2: due from round 2 on
        assert p.select(2, (0, 1), frozenset({1})) == frozenset({0, 1})

    def test_lazy_holds_until_a_mover_falls_due(self):
        p = LazyAdversary(fairness=4)
        p.reset(4, 0)
        alive, movers = (0, 1, 2, 3), frozenset({1})
        held = p.select(1, alive, movers)
        # robot 1 last moved at round 0, window 4: held through round 3
        assert p.hold(1) == 3
        assert p.select(4, alive, movers) == held | {1}

    def test_lazy_all_movers_fallback_is_a_singleton(self):
        p = LazyAdversary()
        p.reset(3, 0)
        first = p.select(1, (0, 1, 2), frozenset({0, 1, 2}))
        assert len(first) == 1


class TestDetectCollision:
    def test_crossing_a_stationary_robot(self):
        c = config(0, F(1, 2))
        witness = detect_collision(c, {0: move_to(F(3, 4))})
        assert witness == CollisionWitness(0, 1, F(2, 3))

    def test_landing_on_a_robot_counts(self):
        c = config(0, F(1, 2))
        witness = detect_collision(c, {0: move_to(F(1, 2))})
        assert witness == CollisionWitness(0, 1, F(1))

    def test_stopping_short_is_clean(self):
        c = config(0, F(1, 2))
        assert detect_collision(c, {0: move_to(F(1, 4))}) is None

    def test_all_stay(self):
        c = config(0, F(1, 3), F(2, 3))
        assert detect_collision(c, {0: STAY, 1: STAY, 2: STAY}) is None

    def test_equal_velocities_never_meet(self):
        c = config(0, F(1, 2))
        ds = {0: move_to(F(1, 4)), 1: move_to(F(3, 4))}
        assert detect_collision(c, ds) is None

    def test_head_on_movers(self):
        c = config(0, F(1, 2))
        ds = {0: move_to(F(1, 4)), 1: move_to(F(1, 4), Direction.REVERSE)}
        assert detect_collision(c, ds) == CollisionWitness(0, 1, F(1))

    def test_unknown_robot_rejected(self):
        c = config(0, F(1, 2))
        with pytest.raises(PreconditionError):
            detect_collision(c, {7: STAY})


class _PickThree(ActivationPolicy):
    """Robot 3 alone in round 1, then every live robot, so the epoch closes."""

    name = "pick3"

    def select(self, rnd, alive, movers):
        return self._note(rnd, {3} if rnd == 1 else set(alive))


def _lowest_and_due(self, rnd, alive, movers):
    """A policy written against the bookkeeping: one live robot in turn,
    and every robot due."""
    return self._note(rnd, {alive[rnd % len(alive)]} | self._due(rnd, alive))


CUSTOM_SELECTS = {"pick3": _PickThree.select, "lowest-and-due": _lowest_and_due}


class TestPoliciesMatchTheirReference:
    """The policies choose what they chose while the fairness bookkeeping
    was one dict of last activation rounds (``oracles.ReferencePolicy``),
    over runs in which robots terminate, the movers change, and ``alive``
    and ``movers`` are passed again as the same objects, as ``run`` passes
    them while nothing changes.  A streak booked by ``hold`` is one the
    reference keeps choosing the held set through, round by round."""

    @staticmethod
    def _pair(name, fairness):
        if name in CUSTOM_SELECTS:
            select = CUSTOM_SELECTS[name]
            new = type("Custom", (ActivationPolicy,), {"select": select})(fairness)
            ref = type("CustomReference", (ReferencePolicy,), {"select": select})(name, 0.5, fairness)
            return new, ref
        return make_policy(name, 0.5, fairness), ReferencePolicy(name, 0.5, fairness)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_round_chooses_the_reference_set(self, data):
        n = data.draw(st.integers(2, 7), label="n")
        name = data.draw(st.sampled_from([*POLICIES, *CUSTOM_SELECTS]), label="policy")
        fairness = data.draw(st.one_of(st.none(), st.integers(1, 2 * n)), label="fairness")
        new, ref = self._pair(name, fairness)
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        new.reset(n, seed)
        ref.reset(n, seed)
        alive, movers = tuple(range(n)), frozenset()
        rnd, rounds = 0, data.draw(st.integers(1, 8 * n), label="rounds")
        while rnd < rounds:
            rnd += 1
            # mostly idle rounds, as under ``run``, so that movers fall due
            step = data.draw(st.sampled_from(["same"] * 8 + ["copies", "movers", "all-move",
                                                             "terminate"]))
            if step == "terminate" and len(alive) > 1:
                # a robot that stays terminates; the movers may stay the same object
                gone = data.draw(st.sets(st.sampled_from(alive), max_size=len(alive) - 1))
                alive = tuple(i for i in alive if i not in gone)
                if not movers <= set(alive):
                    step = "movers"
            if step == "movers":
                movers = frozenset(data.draw(st.sets(st.sampled_from(alive))))
            elif step == "all-move":
                movers = frozenset(alive)
            elif step == "copies":
                alive, movers = tuple(list(alive)), frozenset(set(movers))
            want = ref.select(rnd, alive, movers)
            assert new.select(rnd, alive, movers) == want, (rnd, step, alive, movers)
            if data.draw(st.booleans(), label="hold"):
                # ``run`` skips the selects of a held streak; the reference,
                # asked each of them, keeps choosing the held set
                last = new.hold(rnd)
                if name != "lazy":
                    assert last == rnd
                for r in range(rnd + 1, last + 1):
                    assert ref.select(r, alive, movers) == want, (rnd, r, last, alive, movers)
                rnd = last

    def test_a_repeated_choice_is_the_held_set(self):
        p = LazyAdversary()
        p.reset(4, 0)
        alive, movers = (0, 1, 2, 3), frozenset({1})
        first = p.select(1, alive, movers)
        assert p.select(2, alive, movers) is first
        assert p.select(3, tuple(list(alive)), frozenset(set(movers))) is first


class _Wakes(ActivationPolicy):
    """Returns the same object every round, whether or not it keeps the
    activation contract."""

    name = "wakes"

    def __init__(self, woken):
        super().__init__()
        self.woken = woken

    def select(self, rnd, alive, movers):
        return self.woken


class TestFirstRound:
    def test_singleton_stay_changes_nothing(self, single_nominee5, pattern5):
        # robot 3 of the worked example holds until release
        _, records = run(single_nominee5, pattern5, _PickThree(), seed=0, max_epochs=1)
        rec = records[0]
        after = Configuration.from_positions(rec.positions_after)
        assert after == single_nominee5
        assert rec.activated == (3,)
        assert rec.positions_before == rec.positions_after
        assert rec.round == 1 and rec.epoch == 1
        assert not rec.decisions[3].is_move


class TestRoundRecord:
    def test_it_stays_a_frozen_dataclass(self):
        # the constructor stores the fields at once; the dataclass contract holds
        before, after = (F(0), F(1, 3), F(2, 3)), (F(0), F(1, 2), F(2, 3))
        rec = RoundRecord(3, 2, (1,), {1: move_to(F(1, 2))}, before, after,
                          LeaderConfig(0, Direction.FORWARD))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.round = 4
        later = dataclasses.replace(rec, round=4)
        assert (later.round, later.epoch, later.decisions, later.positions_after) == (
            4, 2, rec.decisions, after)
        assert later != rec and dataclasses.replace(later, round=3) == rec
        assert rec == RoundRecord(round=3, epoch=2, activated=(1,), decisions=dict(rec.decisions),
                                  positions_before=before, positions_after=after,
                                  config_class=LeaderConfig(0, Direction.FORWARD))
        assert repr(rec) == (
            "RoundRecord(round=3, epoch=2, activated=(1,), decisions={1: "
            f"{move_to(F(1, 2))!r}}}, positions_before={before!r}, "
            f"positions_after={after!r}, config_class=LeaderConfig(leader=0, "
            f"pivotal={Direction.FORWARD!r}))"
        )


class TestRun:
    def test_worked_example_under_full_sync(self, single_nominee5, pattern5):
        report, records = run(single_nominee5, pattern5, FullSync(), seed=0)
        assert report.ok
        assert report.formed_epoch == 6
        assert report.epochs == 7
        assert report.rounds == 7
        assert report.terminated == 5
        assert report.bound == 9
        assert report.scheduler == "fsync"
        assert report.mode == "det"
        assert len(records) == report.rounds

    def test_already_formed_ends_in_one_epoch(self, pattern5):
        from circleform.angles import prefix_sums

        c = Configuration.from_positions(prefix_sums(pattern5.angles))
        report, records = run(c, pattern5, FullSync(), seed=0)
        assert report.ok
        assert report.formed_epoch == 1
        assert report.rounds == 1
        assert all(
            d.kind is DecisionKind.TERMINATE for d in records[0].decisions.values()
        )

    def test_every_policy_forms_the_tied_start(self, tied5, pattern5):
        for name, factory in POLICIES.items():
            report, _ = run(tied5, pattern5, factory(), seed=3)
            assert report.ok, (name, report.violations)
            assert report.formed_epoch <= report.bound

    def test_record_chain_is_continuous(self, tied5, pattern5):
        _, records = run(tied5, pattern5, RoundRobinSingleton(), seed=1)
        for prev, cur in zip(records, records[1:]):
            assert cur.positions_before == prev.positions_after
            assert cur.round == prev.round + 1
            assert cur.epoch >= prev.epoch

    def test_epoch_budget_cuts_the_run(self, single_nominee5, pattern5):
        report, _ = run(single_nominee5, pattern5, FullSync(), seed=0, max_epochs=1)
        assert not report.ok
        assert any("budget" in v for v in report.violations)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_epoch_budget_below_one_is_refused(self, single_nominee5, pattern5, budget):
        with pytest.raises(PreconditionError, match="epoch budget"):
            run(single_nominee5, pattern5, FullSync(), seed=0, max_epochs=budget)

    def test_even_count_needs_randomized_mode(self, mirror_tied4):
        p = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        with pytest.raises(PreconditionError):
            run(mirror_tied4, p, FullSync(), seed=0)

    def test_odd_count_rejects_randomized_mode(self, single_nominee5, pattern5):
        with pytest.raises(PreconditionError):
            run(single_nominee5, pattern5, FullSync(), seed=0, mode="rand")

    def test_unknown_mode_is_refused(self, single_nominee5, pattern5):
        with pytest.raises(PreconditionError, match="unknown mode"):
            run(single_nominee5, pattern5, FullSync(), seed=0, mode="x")

    @pytest.mark.parametrize("woken", [frozenset(), frozenset({5}), {0, 1}, [0, 1]],
                             ids=["nobody", "not-alive", "a set", "a list"])
    def test_broken_activation_contract_ends_the_run(self, single_nominee5, pattern5, woken):
        report, records = run(single_nominee5, pattern5, _Wakes(woken), seed=0)
        assert report.violations == ["round 1: scheduler broke the activation contract"]
        assert not report.ok and records == []

    def test_symmetric_start_is_refused(self):
        c = config(0, F(1, 12), F(1, 3), F(1, 2), F(7, 12), F(5, 6))
        assert c.fold() == 2
        betas = [F(1, 12), F(1, 6), F(1, 6), F(1, 4), F(1, 12), F(1, 4)]
        p = TargetPattern.from_angles(betas)
        with pytest.raises(SymmetricConfigurationError):
            run(c, p, FullSync(), seed=0, mode="rand")

    def test_pattern_size_mismatch(self, single_nominee5):
        p = TargetPattern.from_angles([F(1, 6), F(1, 3), F(1, 2)])
        with pytest.raises(StructuralError):
            run(single_nominee5, p, FullSync(), seed=0)

    @pytest.mark.parametrize("low", [F(1, 10), F(21, 100)])
    def test_start_at_or_below_the_gap_floor_is_refused(self, low):
        # floor 21/100: the smallest start gap is below it, then exactly on it
        p = TargetPattern.from_angles([F(30, 100), F(31, 100), F(39, 100)])
        c = config(0, low, F(1, 2))
        assert not p.admits(c)
        with pytest.raises(PreconditionError, match="gap floor"):
            run(c, p, FullSync(), seed=0)

    def test_bound_has_one_definition(self, single_nominee5, pattern5):
        report, _ = run(single_nominee5, pattern5, FullSync(), seed=0)
        assert report.bound == formation_bound(5, "det") == 9
        assert formation_bound(4, "rand") == 10

    def test_randomized_tie_break_forms_and_draws_distinctly(self, mirror_tied4):
        p = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        report, _ = run(mirror_tied4, p, FullSync(), seed=2, mode="rand")
        assert report.ok, report.violations
        assert report.joint_tiebreaks >= 1
        assert report.formed_epoch <= report.bound == mirror_tied4.n + 6


class TestRunsVerify:
    """Whatever a run records, offline verification accepts."""

    @given(st.one_of(near_floor_starts(), tied_starts()), st.sampled_from(sorted(POLICIES)),
           st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_run_traces_verify_clean(self, start, name, seed):
        mode, c0, pattern = start
        report, records = run(c0, pattern, POLICIES[name](), mode=mode, seed=seed)
        assert report.ok, report.violations
        assert verify_trace(records, pattern, mode) == []


def _outcome(c0, pattern, name, mode="det", seed=0, mutant=None):
    """A run's report and encoded records, as plain values."""
    report, records = run(c0, pattern, make_policy(name), mode=mode, seed=seed, mutant=mutant)
    return dataclasses.asdict(report), [record_to_json(rec) for rec in records]


def _cold(c0, pattern, name, mode="det", seed=0, mutant=None):
    simulator._start_frame.cache_clear()
    return _outcome(c0, pattern, name, mode, seed, mutant)


class TestSharedStartFrames:
    """Det runs of one start share its frames, and replays share the rule's
    caches with runs; no run or replay may see the sharing."""

    @staticmethod
    def _cases():
        """(mode, start, pattern, seed) of every golden-trace start, a
        seven-robot start and the tied five-robot start."""
        out = {}
        for case in gc.cases():
            mode, n, seed, _, tied = case
            out[(mode, n, seed, tied)] = (mode, *gc.start(case), seed)
        out["gen7"] = ("det", *gen_instance(7, 70_001), 70_001)
        out["tied5"] = ("det", gc.TIED5, gc.PATTERN5, 3)
        return list(out.values())

    def test_cold_and_warm_runs_are_equal(self):
        for mode, c0, pattern, seed in self._cases():
            cold = {name: _cold(c0, pattern, name, mode, seed) for name in gc.SCHEDULERS}
            for order in (gc.SCHEDULERS, gc.SCHEDULERS[::-1]):
                simulator._start_frame.cache_clear()
                for _ in range(2):  # the table empty for the first run, then warm
                    for name in order:
                        assert _outcome(c0, pattern, name, mode, seed) == cold[name], (
                            mode, c0, name, order)

    @staticmethod
    def _forged(records):
        """The trace with its first mover sent halfway along its path instead."""
        i, rid, d = next((i, rid, d) for i, rec in enumerate(records)
                         for rid, d in rec.decisions.items() if d.is_move)
        rec = records[i]
        at = rec.positions_before[rid]
        sign = d.path_direction.sign
        half = mod1(at + sign * mod1(sign * (d.destination - at)) / 2)
        after = list(rec.positions_after)
        after[rid] = half
        forged = dataclasses.replace(
            rec, decisions={**rec.decisions, rid: dataclasses.replace(d, destination=half)},
            positions_after=tuple(after))
        return [*records[:i], forged, *records[i + 1:]]

    @staticmethod
    def _clear():
        """Empty the caches a run and a replay of one start share."""
        formation._decide.cache_clear()
        simulator._start_frame.cache_clear()

    def test_verify_sees_no_sharing(self):
        for mode, c0, pattern, seed in self._cases():
            traces = {name: run(c0, pattern, make_policy(name), mode=mode, seed=seed)[1]
                      for name in gc.SCHEDULERS}
            forged = {name: self._forged(records) for name, records in traces.items()}
            cold_runs = {name: _cold(c0, pattern, name, mode, seed) for name in gc.SCHEDULERS}
            cold = {}
            for name in gc.SCHEDULERS:
                for kind, trace in (("run", traces[name]), ("forged", forged[name])):
                    self._clear()
                    cold[name, kind] = verify_trace(trace, pattern, mode)
                assert cold[name, "run"] == [] and cold[name, "forged"], (mode, c0, name)
            self._clear()
            for name in gc.SCHEDULERS:
                run(c0, pattern, make_policy(name), mode=mode, seed=seed)
                assert verify_trace(traces[name], pattern, mode) == cold[name, "run"]
            for name in gc.SCHEDULERS:
                assert verify_trace(forged[name], pattern, mode) == cold[name, "forged"]
            for name in gc.SCHEDULERS:
                assert verify_trace(traces[name], pattern, mode) == cold[name, "run"]
                assert _outcome(c0, pattern, name, mode, seed) == cold_runs[name]

    @pytest.mark.parametrize("kind, problems", [
        (list, []),
        (lambda pos: tuple(map(float, pos)),
         ["round 1: bad pre-round positions: positions must be exact rationals"]),
    ], ids=["lists", "floats"])
    def test_positions_of_another_type_verify_the_same_cold_and_warm(self, kind, problems):
        # dyadic positions, so each float equals the Fraction it came from
        c0 = Configuration.from_positions([F(0), F(1, 8), F(3, 8), F(1, 2), F(3, 4)])
        _, records = run(c0, gc.PATTERN5, make_policy("rr"))
        other = [dataclasses.replace(rec, positions_before=kind(rec.positions_before),
                                     positions_after=kind(rec.positions_after))
                 for rec in records]
        assert list(other[0].positions_before) == list(records[0].positions_before)
        assert verify_trace(records, gc.PATTERN5) == []
        assert verify_trace(other, gc.PATTERN5) == problems  # after the run and its replay
        self._clear()
        assert verify_trace(other, gc.PATTERN5) == problems

    def test_a_mutant_run_leaves_the_clean_rule_alone(self):
        start, pattern = gc.MUTANT_START, gc.PATTERN5
        for name in gc.SCHEDULERS:
            clean = _cold(start, pattern, name)
            mutant = _cold(start, pattern, name, mutant="eps1-lower")
            assert _outcome(start, pattern, name, mutant="eps1-lower") == mutant
            assert _outcome(start, pattern, name) == clean

    def test_a_rand_run_never_adds_to_the_table(self, mirror_tied4):
        p = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        simulator._start_frame.cache_clear()
        for name in gc.SCHEDULERS:
            run(mirror_tied4, p, make_policy(name), mode="rand", seed=2)
        info = simulator._start_frame.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_the_table_is_bounded_and_an_evicted_start_rebuilds(self):
        info = simulator._start_frame.cache_info
        held = info().maxsize
        first = gen_instance(5, 0)
        before = _cold(*first, "rr")
        start_frame = simulator._start_frame(first[0], first[1], None)
        assert info().hits == 1  # the run above built it
        for seed in range(1, held + 3):
            run(*gen_instance(5, seed), RoundRobinSingleton())
            assert info().currsize <= held
        misses = info().misses
        assert _outcome(*first, "rr") == before
        assert info().misses == misses + 1  # evicted, so built again
        assert simulator._start_frame(first[0], first[1], None) is not start_frame


class TestFramePlans:
    """A frame's round outcomes are memoised per mover set, but only for
    the moves they were worked out from."""

    def test_same_mover_other_moves_get_their_own_outcome(self):
        frame = simulator._Frame(config(0, F(1, 4), F(1, 2), F(3, 4)).positions)
        near = simulator._plan({0: move_to(F(1, 8))})
        nearer = simulator._plan({0: move_to(F(1, 16))})
        onto = simulator._plan({0: move_to(F(1, 4))})  # lands on robot 1
        assert near.movers == nearer.movers == onto.movers
        for _ in range(2):
            collision, after = frame.step(near)
            assert collision is None and after.pos[0] == F(1, 8)
            assert frame.step(onto) == ("robots 0 and 1 collide at t=1", frame)
            collision, after = frame.step(nearer)
            assert collision is None and after.pos[0] == F(1, 16)
        assert frame.step(near)[1] is frame.step(near)[1]

    @staticmethod
    def _onto_neighbour():
        """The rr run of a five-robot start, the index and record of its first
        single-mover round, and that mover's decision sent onto the neighbour
        it heads for (the least travel along its path)."""
        c0, pattern = gen_instance(5, 1_005)
        _, records = run(c0, pattern, RoundRobinSingleton())
        k, rec = next((k, r) for k, r in enumerate(records) if len(r.decisions) == 1
                      and next(iter(r.decisions.values())).is_move)
        (rid, d), = rec.decisions.items()
        at = rec.positions_before[rid]
        neighbour = min(set(rec.positions_before) - {at},
                        key=lambda p: d.path_direction.sign * (p - at) % 1)
        return pattern, records, k, rec, {rid: dataclasses.replace(d, destination=neighbour)}

    def test_a_forged_collision_is_found_on_a_warm_start(self):
        pattern, records, k, rec, onto = self._onto_neighbour()
        after = list(rec.positions_before)
        for rid, d in onto.items():
            after[rid] = d.destination
        forged = dataclasses.replace(rec, decisions=onto, positions_after=tuple(after))
        problems = verify_trace([*records[:k], forged, *records[k + 1:]], pattern)
        assert any(re.fullmatch(rf"round {rec.round}: robots \d+ and \d+ collide at t=1", m)
                   for m in problems), problems

    def test_a_collided_round_leaves_every_robot_where_it_was(self):
        # run ends on a collision with every robot where it was, classed as
        # before; the forged move is not the rule's, which is reported first
        pattern, records, k, rec, onto = self._onto_neighbour()
        collided = dataclasses.replace(
            rec, decisions=onto, positions_after=rec.positions_before,
            config_class=simulator._Frame(rec.positions_before).classify())
        (rid,) = onto
        rule, collision = verify_trace([*records[:k], collided], pattern)
        assert rule.startswith(f"round {rec.round}: robot {rid} recorded ")
        assert re.fullmatch(rf"round {rec.round}: robots \d+ and \d+ collide at t=1", collision)


FORGED = "forged collision"


class TestOneStep:
    """Every driver takes its rounds through ``_Frame.step``: a step that
    reports a collision for any plan with moves ends each of them at the
    first such round."""

    @pytest.fixture
    def forged_step(self, monkeypatch):
        step = simulator._Frame.step
        monkeypatch.setattr(simulator._Frame, "step",
                            lambda frame, plan: (FORGED, frame) if plan.moves else step(frame, plan))

    def test_run_reports_it_and_verify_agrees(self, forged_step):
        c0, pattern = gen_instance(5, 1_005)
        report, records = run(c0, pattern, RoundRobinSingleton())
        last = records[-1]
        assert any(d.is_move for d in last.decisions.values())
        assert not any(d.is_move for rec in records[:-1] for d in rec.decisions.values())
        assert report.collisions == 1
        assert report.violations == [f"round {last.round}: {FORGED}"]
        assert last.positions_after == last.positions_before
        assert verify_trace(records, pattern) == [f"round {last.round}: {FORGED}"]

    def test_verify_reports_it_on_a_golden_trace(self, forged_step):
        case = ("det", 5, 1_005, "rr", False)
        records = read_trace(gc.GOLDEN / gc.case_name(case))
        first = next(rec for rec in records if any(d.is_move for d in rec.decisions.values()))
        problems = verify_trace(records, gc.start(case)[1])
        assert problems[0] == f"round {first.round}: {FORGED}"

    def test_explore_returns_it_as_the_counterexample(self, forged_step):
        cx = explore_schedules(*gen_instance(3, 2), 4).counterexample
        assert cx is not None and cx.reason == FORGED

    def test_the_symmetry_experiment_raises_it(self, forged_step):
        square = config(0, F(1, 4), F(1, 2), F(3, 4))
        with pytest.raises(InvariantViolationError, match=f"round 1: {FORGED}"):
            fsync_symmetry_experiment(square, SYMMETRY_RULES["drift"], 3)


PROBE = "probe"


class TestOneAudit:
    """``run``, ``verify_trace`` and ``explore_schedules`` audit every round
    through ``_Frame.transition``: a message it adds to the first transition
    that moves robot 0 shows up in each driver's report of that round."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Installs the probe; robot 0 of the single-nominee start first
        moves in round 10 under the lazy adversary."""
        transition = simulator._Frame.transition
        fired = []

        def probed(frame, after, plan, alive, lock):
            lock, found = transition(frame, after, plan, alive, lock)
            if 0 in plan.movers and not fired:
                fired.append(plan)
                found = [*found, PROBE]
            return lock, found

        return lambda: monkeypatch.setattr(simulator._Frame, "transition", probed)

    @staticmethod
    def _first_move_of_robot_0(records):
        return next(rec.round for rec in records
                    if 0 in rec.decisions and rec.decisions[0].is_move)

    def test_run_reports_it(self, probe):
        probe()
        report, records = run(gc.SINGLE_NOMINEE5, gc.PATTERN5, LazyAdversary())
        assert self._first_move_of_robot_0(records) == 10
        assert report.violations == [f"round 10: {PROBE}"]

    def test_verify_reports_it(self, probe):
        report, records = run(gc.SINGLE_NOMINEE5, gc.PATTERN5, LazyAdversary())
        assert report.ok
        probe()
        r = self._first_move_of_robot_0(records)
        assert verify_trace(records, gc.PATTERN5) == [f"round {r}: {PROBE}"]

    def test_explore_returns_it_as_the_counterexample(self, probe):
        probe()
        cx = explore_schedules(gc.SINGLE_NOMINEE5, gc.PATTERN5, 4).counterexample
        # the path's one round is the first to move robot 0
        assert cx is not None and cx.reason == PROBE
        assert cx.path == ((0,),)
        assert cx.positions[0] != gc.SINGLE_NOMINEE5.positions[0]


@pytest.fixture
def everyone_stays(monkeypatch):
    """The rule with every table entry read as a stay; the shared start
    frames hold the real rule's decisions, so they are dropped."""
    monkeypatch.setattr(simulator, "_to_decision", lambda instr, at, rng=None: STAY)
    simulator._start_frame.cache_clear()
    yield
    simulator._start_frame.cache_clear()


class _IdleThenAll(ActivationPolicy):
    """Robots 0 and 1 for three rounds, then every live robot."""

    name = "idle-then-all"

    def select(self, rnd, alive, movers):
        return self._note(rnd, {0, 1} if rnd <= 3 else alive)


class TestSteadyRounds:
    """A round that repeats the last one takes the memoised paths (the
    scheduler's held set, and ``_Frame.transition``'s after-state memo and
    the move checks kept with the step), and they answer what the full
    checks answer."""

    def test_same_mover_other_moves_get_their_own_checks(self):
        # robot 0 of the single-nominee start, 1/12 behind robot 1: a tie-break
        # branch owes a shrinking minimum gap, a travel of 1/12 collides (the
        # step's frame is the frame itself), and checks are also asked for an
        # after-state that is not the step's (the frame itself)
        frame = simulator._Frame(gc.SINGLE_NOMINEE5.positions, gc.PATTERN5)
        alive = tuple(range(5))
        plans = [simulator._plan({0: Decision(DecisionKind.MOVE, travel, Direction.FORWARD, b)})
                 for travel in (F(1, 100), F(1, 12)) for b in ("break_tie", "test")]
        assert len({p.movers for p in plans}) == 1
        afters, answers = [frame], set()
        for _ in range(2):
            for p in plans:
                afters.append(frame.step(p)[1])
                for q in plans:
                    for after in afters:
                        fresh = simulator._Frame(frame.pos, gc.PATTERN5)
                        want = fresh.transition(after, q, alive, None)
                        assert frame.transition(after, q, alive, None) == want
                        answers.add(tuple(want[1]))
        assert len(answers) > 1

    def test_an_idle_round_on_a_forged_state_reports_it_every_round(self):
        c0, pattern = gen_instance(5, 1_005)
        _, records = run(c0, pattern, LazyAdversary())
        idle = records[:4]
        assert all(len(r.activated) < 5 and r.positions_after == r.positions_before for r in idle)
        sym = tuple(F(k, 5) for k in range(5))
        forged = [dataclasses.replace(rec, positions_before=sym if k else rec.positions_before,
                                      positions_after=sym, config_class=simulator.Symmetric(5))
                  for k, rec in enumerate(idle)]
        problems = verify_trace(forged, pattern)
        assert [m for m in problems if "symmetry created" in m] == [
            f"round {rec.round}: 5-fold symmetry created before formation" for rec in idle]

    def test_a_full_activation_that_moves_nobody_halts_the_run(self, everyone_stays):
        c0, pattern = gen_instance(5, 1_005)
        report, records = run(c0, pattern, _IdleThenAll())
        assert report.rounds == 4
        assert report.violations == ["round 4: full activation produced no motion before formation"]
        assert verify_trace(records, pattern) == report.violations


class _RoundByRound(LazyAdversary):
    """The lazy adversary without streaks: ``run`` takes every round."""

    def hold(self, rnd):
        return rnd


class _Holds(ActivationPolicy):
    """``first`` in round 1, then ``then`` through round ``until``, then
    every live robot, each less the robots that have ended (every live robot
    if none is left); ``hold`` says so while ``alive`` stays the same."""

    name = "holds"

    def __init__(self, first, then, until):
        super().__init__()
        self.first, self.then, self.until = first, then, until

    def select(self, rnd, alive, movers):
        pick = self.first if rnd == 1 else self.then if rnd <= self.until else alive
        return self._note(rnd, set(pick) & set(alive) or alive)

    def hold(self, rnd):
        self._held_at = last = self.until if 2 <= rnd <= self.until else rnd
        return last


class _EachRound(_Holds):
    hold = ActivationPolicy.hold


class TestIdleStreaks:
    """``run`` records a held set's idle streak in one step, and its report
    and every record equal those of the run that takes each round."""

    @staticmethod
    def _both(c0, pattern, fairness=None, **kw):
        """The report and records of the lazy run with streaks and without,
        and the number of rounds the first asked ``select`` for."""
        asked = []

        class Counted(LazyAdversary):
            def select(self, rnd, alive, movers):
                asked.append(rnd)
                return super().select(rnd, alive, movers)

        fast = run(c0, pattern, Counted(fairness), **kw)
        slow = run(c0, pattern, _RoundByRound(fairness), **kw)
        return fast, slow, len(asked)

    def _assert_equal(self, cases):
        asked = rounds = 0
        for c0, pattern, fairness, kw in cases:
            (report, records), (want_report, want_records), selects = self._both(
                c0, pattern, fairness, **kw)
            assert (report, records) == (want_report, want_records), (c0, fairness, kw)
            asked, rounds = asked + selects, rounds + report.rounds
        assert asked < rounds  # streaks were taken

    def test_the_battery_starts_at_every_fairness(self):
        # the acceptance battery's det starts: its seeded instances and TIED5
        starts = [(*gen_instance(n, n * 1_000_003 + t), n * 1_000_003 + t)
                  for n in (3, 5, 7, 9, 11, 15) for t in range(50)]
        starts.append((gc.TIED5, gc.PATTERN5, 3))
        self._assert_equal([(c0, pattern, fairness, {"seed": seed})
                            for fairness in (None, 1, 2, 3) for c0, pattern, seed in starts])

    def test_rand_mode_with_tied_starts(self):
        starts = [(*gen_instance(n, seed), seed) for n in (4, 6, 8) for seed in range(5)]
        starts += [(*tied_even_instance(n, seed), seed) for n in (4, 6, 8) for seed in range(3)]
        self._assert_equal([(c0, pattern, None, {"mode": "rand", "seed": seed})
                            for c0, pattern, seed in starts])

    def test_the_mutant_and_epoch_budgets(self):
        cases = [(gc.MUTANT_START, gc.PATTERN5, None, {"seed": seed, "mutant": "eps1-lower"})
                 for seed in gc.MUTANT_SEEDS]
        cases += [(*gen_instance(n, 1_000 + n), None, {"max_epochs": budget})
                  for n in (5, 9) for budget in (1, 2, 3)]
        self._assert_equal(cases)

    @pytest.mark.parametrize("start, first, then", [
        (gc.SINGLE_NOMINEE5, {1}, {0, 1}),  # round 2 moves robot 0
        ("formed", {0}, {1, 2}),  # round 2 ends robots 1 and 2
    ], ids=["moves", "ends"])
    def test_a_held_round_that_moves_or_ends_a_robot_is_not_repeated(self, start, first, then):
        if start == "formed":
            start = Configuration.from_positions(prefix_sums(gc.PATTERN5.angles))
        want = run(start, gc.PATTERN5, _EachRound(first, then, 4))
        assert run(start, gc.PATTERN5, _Holds(first, then, 4)) == want

    def test_a_held_round_that_closes_an_epoch_is_not_repeated(self, everyone_stays):
        # round 2 covers robots 2, 3 and 4 last, so round 3 is in epoch 2
        c0, pattern = gen_instance(5, 1_005)
        report, records = run(c0, pattern, _Holds({0, 1}, {2, 3, 4}, 5))
        assert (report, records) == run(c0, pattern, _EachRound({0, 1}, {2, 3, 4}, 5))
        assert [rec.epoch for rec in records] == [1, 1, 2, 2, 2, 2]

    def test_an_audit_that_reports_every_idle_round_is_asked_every_round(self, monkeypatch):
        transition = simulator._Frame.transition

        def probed(frame, after, plan, alive, lock):
            lock, found = transition(frame, after, plan, alive, lock)
            return lock, [PROBE, *found] if not plan.moves else found

        monkeypatch.setattr(simulator._Frame, "transition", probed)
        c0, pattern = gen_instance(9, 1_009)
        (report, records), want, _ = self._both(c0, pattern)
        assert (report, records) == want
        idle = [rec.round for rec in records if not any(d.is_move for d in rec.decisions.values())]
        assert len(idle) > len(records) // 2
        assert [m for m in report.violations if m.endswith(PROBE)] == [
            f"round {r}: {PROBE}" for r in idle]


class TestPhases:
    def test_labels(self, single_nominee5, tied5, pattern5):
        from circleform.angles import prefix_sums

        assert phase_of(single_nominee5, pattern5) == "lead"
        assert phase_of(tied5, pattern5) == "tied"
        rfc = config(0, F(1, 100), F(3, 100), F(7, 18), F(12, 18))
        assert phase_of(rfc, pattern5) == "pfc"
        off = config(0, F(1, 100), F(3, 100), F(7, 18) + F(1, 200), F(12, 18))
        assert phase_of(off, pattern5) == "rfc"
        formed = Configuration.from_positions(prefix_sums(pattern5.angles))
        assert phase_of(formed, pattern5) == "formed"
        square = config(0, F(1, 4), F(1, 2), F(3, 4))
        p4 = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        assert phase_of(square, p4) == "symmetric"


class TestExploreSchedules:
    def test_small_instance_is_clean(self):
        c0, pattern = gen_instance(3, 2)
        report = explore_schedules(c0, pattern, 4)
        assert report.ok
        assert report.counterexample is None
        assert (report.states, report.edges) == (15, 19)

    def test_zero_budget_is_vacuous(self):
        c0, pattern = gen_instance(3, 2)
        report = explore_schedules(c0, pattern, 0)
        assert report.ok
        assert (report.states, report.edges) == (1, 0)

    def test_weakened_rule_is_caught(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        report = explore_schedules(c, pattern5, 2, mutant="eps1-lower")
        assert not report.ok
        cx = report.counterexample
        assert cx is not None
        assert cx.reason.startswith("shrink_second_gap")
        assert cx.path
        assert cx.positions

    def test_healthy_rule_passes_the_same_start(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        assert explore_schedules(c, pattern5, 2).ok

    def test_refuses_unknown_mutants(self, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        with pytest.raises(PreconditionError, match="unknown mutant"):
            explore_schedules(c, pattern5, 2, mutant="typo-of-eps1")
        with pytest.raises(PreconditionError, match="unknown mutant"):
            run(c, pattern5, FullSync(), mutant="nonsense")

    def test_chirality_is_checked(self, skewed_tie_break, tied5, pattern5):
        report = explore_schedules(tied5, pattern5, 2)
        cx = report.counterexample
        assert cx is not None
        assert cx.reason == "robot 0: decision depends on presentation orientation"
        assert cx.path == ((0,),)

    def test_refuses_large_instances(self, pattern5):
        c0, pattern = gen_instance(7, 1)
        with pytest.raises(PreconditionError):
            explore_schedules(c0, pattern, 2)

    def test_refuses_deep_budgets(self):
        c0, pattern = gen_instance(3, 2)
        with pytest.raises(PreconditionError):
            explore_schedules(c0, pattern, 7)

    def test_refuses_a_negative_budget(self):
        c0, pattern = gen_instance(3, 2)
        with pytest.raises(PreconditionError, match="round budget"):
            explore_schedules(c0, pattern, -1)

    def test_refuses_a_start_below_the_gap_floor(self):
        p = TargetPattern.from_angles([F(30, 100), F(31, 100), F(39, 100)])
        with pytest.raises(PreconditionError, match="gap floor"):
            explore_schedules(config(0, F(1, 10), F(1, 2)), p, 2)

    # (states, edges, ok) of gen_instance(n, seed) explored at budget 6
    PINNED = {
        (4, 8000): (21, 25, True), (4, 8001): (20, 73, True), (4, 8002): (21, 25, True),
        (4, 8003): (20, 73, True), (4, 8004): (20, 73, True), (4, 8005): (21, 25, True),
        (4, 8006): (21, 25, True), (4, 8007): (21, 25, True), (4, 8008): (21, 25, True),
        (4, 8009): (20, 73, True), (5, 8000): (7, 12, True), (5, 8001): (37, 41, True),
        (5, 8002): (37, 41, True), (5, 8003): (7, 12, True), (5, 8004): (37, 41, True),
        (5, 8005): (7, 12, True), (5, 8006): (37, 41, True), (5, 8007): (37, 41, True),
        (5, 8008): (7, 12, True), (5, 8009): (7, 12, True),
        # n=3: the benchmark's two probe starts, which once had
        # counterexamples, and eight seeded starts
        (3, 111442966): (10, 23, True), (3, 927313916): (10, 23, True),
        (3, 8000): (11, 25, True), (3, 8001): (11, 25, True), (3, 8002): (10, 23, True),
        (3, 8003): (11, 25, True), (3, 8004): (11, 25, True), (3, 8005): (12, 29, True),
        (3, 8006): (11, 25, True), (3, 8007): (11, 25, True),
    }

    def test_seeded_counts_are_pinned(self):
        got = {}
        for n, seed in self.PINNED:
            r = explore_schedules(*gen_instance(n, seed), 6)
            got[(n, seed)] = (r.states, r.edges, r.ok)
        assert got == self.PINNED

    def test_refuses_blowing_the_state_cap(self):
        c0, pattern = gen_instance(3, 2)
        with pytest.raises(PreconditionError):
            explore_schedules(c0, pattern, 4, state_cap=3)


class TestChiralityFromEveryDriver:
    # the rule marks a robot whose move depends on which way it reads the
    # circle, so run and verify refuse the skewed tie-break as explore does
    WHY = "decision depends on presentation orientation"

    @pytest.mark.parametrize("name", gc.SCHEDULERS)
    def test_run_reports_it(self, skewed_tie_break, name):
        report, _ = run(gc.TIED5, gc.PATTERN5, make_policy(name), mode="det", seed=3)
        assert report.violations == [f"round 1: {self.WHY}"]
        assert not report.ok

    @pytest.mark.parametrize("name", gc.SCHEDULERS)
    def test_verify_reports_it_at_the_bisector_robots_first_activation(
        self, skewed_tie_break, name
    ):
        records = read_trace(gc.GOLDEN / gc.case_name(("det", 5, 3_005, name, True)))
        first = next(rec.round for rec in records if 0 in rec.activated)
        assert verify_trace(records, gc.PATTERN5) == [f"round {first}: robot 0: {self.WHY}"]


class TestSymmetryExperiment:
    def test_stay_rule_keeps_the_fold_constant(self):
        square = config(0, F(1, 4), F(1, 2), F(3, 4))
        folds = fsync_symmetry_experiment(square, SYMMETRY_RULES["stay"], 6)
        assert folds == [4] * 7

    def test_moving_rules_never_lose_symmetry(self):
        square = config(0, F(1, 4), F(1, 2), F(3, 4))
        for name in ("drift", "close"):
            folds = fsync_symmetry_experiment(square, SYMMETRY_RULES[name], 10)
            assert len(folds) == 11
            assert all(k >= 4 for k in folds)

    def test_two_fold_start(self):
        c = config(0, F(1, 12), F(1, 3), F(1, 2), F(7, 12), F(5, 6))
        folds = fsync_symmetry_experiment(c, SYMMETRY_RULES["drift"], 10)
        assert folds[0] == 2
        assert all(k >= 2 for k in folds)

    def test_asymmetric_start_rejected(self, single_nominee5):
        with pytest.raises(PreconditionError):
            fsync_symmetry_experiment(single_nominee5, SYMMETRY_RULES["drift"], 3)

    def test_negative_rounds_rejected(self):
        square = config(0, F(1, 4), F(1, 2), F(3, 4))
        with pytest.raises(PreconditionError, match="rounds"):
            fsync_symmetry_experiment(square, SYMMETRY_RULES["drift"], -3)
