"""CLI subcommands, exit codes, and trace verification."""

import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from circleform import (
    Decision,
    DecisionKind,
    Direction,
    FullSync,
    PreconditionError,
    RandomSubset,
    TargetPattern,
    classify,
    run,
    simulator,
)
from circleform.cli import (
    batch,
    batch_ok,
    gen_instance,
    main,
    make_policy,
    symmetric_instance,
    verify_trace,
)
from circleform.formats import (
    load_config,
    load_pattern,
    read_trace,
    save_config,
    save_pattern,
    write_trace,
)

from conftest import config


def write_instance(tmp_path, c, pattern):
    cpath, ppath = tmp_path / "c.json", tmp_path / "p.json"
    save_config(c, cpath)
    save_pattern(pattern, ppath)
    return str(cpath), str(ppath)


class TestGenInstance:
    def test_deterministic(self):
        a = gen_instance(5, 42)
        b = gen_instance(5, 42)
        assert a == b

    def test_seeds_differ(self):
        assert gen_instance(5, 1) != gen_instance(5, 2)

    def test_instance_is_runnable(self):
        c, pattern = gen_instance(5, 7)
        assert c.fold() == 1
        assert pattern.n == 5
        assert min(c.gaps) > pattern.min_gap_floor
        assert pattern.admits(c)

    def test_rejects_tiny_n(self):
        with pytest.raises(PreconditionError):
            gen_instance(2, 0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(PreconditionError):
            gen_instance(5, 0, q=10)

    def test_symmetric_instance_has_the_fold(self):
        c = symmetric_instance(3, 2, seed=5)
        assert c.n == 6
        assert c.fold() % 3 == 0

    def test_symmetric_instance_rejects_fold_one(self):
        with pytest.raises(PreconditionError):
            symmetric_instance(1, 3, seed=0)

    @pytest.mark.parametrize("per_sector, q", [(5, 3), (1, 0), (1, -4)])
    def test_symmetric_instance_rejects_a_grid_below_per_sector(self, per_sector, q):
        with pytest.raises(PreconditionError, match="grid"):
            symmetric_instance(2, per_sector, 0, q=q)


class TestGenCommand:
    def test_gen_writes_loadable_instance(self, tmp_path, capsys):
        cpath, ppath = tmp_path / "c.json", tmp_path / "p.json"
        code = main(["gen", "--n", "5", "--seed", "9",
                     "--config", str(cpath), "--pattern", str(ppath)])
        assert code == 0
        assert "n=5, fold=1" in capsys.readouterr().out
        c = load_config(cpath)
        pattern = load_pattern(ppath)
        assert c.n == 5 and pattern.n == 5

    def test_gen_is_reproducible(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            cpath, ppath = tmp_path / f"c{tag}.json", tmp_path / f"p{tag}.json"
            assert main(["gen", "--n", "4", "--seed", "3",
                         "--config", str(cpath), "--pattern", str(ppath)]) == 0
            paths.append((cpath, ppath))
        assert paths[0][0].read_text() == paths[1][0].read_text()
        assert paths[0][1].read_text() == paths[1][1].read_text()

    def test_gen_symmetric_start(self, tmp_path, capsys):
        cpath, ppath = tmp_path / "c.json", tmp_path / "p.json"
        code = main(["gen", "--n", "6", "--fold", "2", "--seed", "1",
                     "--config", str(cpath), "--pattern", str(ppath)])
        assert code == 0
        assert load_config(cpath).fold() % 2 == 0

    def test_gen_symmetric_start_without_q_is_unchanged(self, tmp_path):
        cpath = tmp_path / "c.json"
        assert main(["gen", "--n", "6", "--fold", "2", "--seed", "1",
                     "--config", str(cpath), "--pattern", str(tmp_path / "p.json")]) == 0
        assert load_config(cpath).positions == (
            F(1, 24), F(1, 12), F(3, 8), F(13, 24), F(7, 12), F(7, 8)
        )

    def test_gen_symmetric_start_lies_on_the_q_grid(self, tmp_path):
        # without --q the start of this seed lies on the 1/24 grid, which
        # neither 1/30 nor 1/36 contains
        cpath = tmp_path / "c.json"
        for q in (30, 36, 48):
            assert main(["gen", "--n", "6", "--fold", "2", "--seed", "1", "--q", str(q),
                         "--config", str(cpath), "--pattern", str(tmp_path / "p.json")]) == 0
            c = load_config(cpath)
            assert c.fold() % 2 == 0
            assert all(q % p.denominator == 0 for p in c.positions), (q, c.positions)

    def test_gen_q_must_be_a_multiple_of_the_fold(self, tmp_path, capsys):
        code = main(["gen", "--n", "8", "--fold", "4", "--q", "50", "--seed", "1",
                     "--config", str(tmp_path / "c.json"),
                     "--pattern", str(tmp_path / "p.json")])
        assert code == 1
        assert "--q must be a multiple of --fold" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_gen_fold_below_one_exits_one(self, tmp_path, capsys):
        for fold in ("0", "-2"):
            code = main(["gen", "--n", "5", "--fold", fold, "--seed", "1",
                         "--config", str(tmp_path / "c.json"),
                         "--pattern", str(tmp_path / "p.json")])
            assert code == 1
            assert "--fold" in capsys.readouterr().err
            assert not (tmp_path / "c.json").exists()

    def test_gen_fold_must_divide_n(self, tmp_path, capsys):
        code = main(["gen", "--n", "5", "--fold", "2", "--seed", "1",
                     "--config", str(tmp_path / "c.json"),
                     "--pattern", str(tmp_path / "p.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestRunCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys, single_nominee5, pattern5):
        cpath, ppath = write_instance(tmp_path, single_nominee5, pattern5)
        code = main(["run", "--config", cpath, "--pattern", ppath, "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "formed in epoch" in out

    def test_trace_and_svg_outputs(self, tmp_path, capsys, single_nominee5, pattern5):
        cpath, ppath = write_instance(tmp_path, single_nominee5, pattern5)
        tpath = tmp_path / "trace.jsonl"
        svgdir = tmp_path / "frames"
        code = main(["run", "--config", cpath, "--pattern", ppath,
                     "--trace", str(tpath), "--svg", str(svgdir)])
        assert code == 0
        records = read_trace(tpath)
        assert records
        frames = sorted(svgdir.glob("epoch_*.svg"))
        assert frames and frames[0].name == "epoch_000.svg"
        assert "<svg" in frames[0].read_text()

    def test_symmetric_start_is_unsolvable(self, tmp_path, capsys):
        c = config(0, F(1, 12), F(1, 3), F(1, 2), F(7, 12), F(5, 6))
        pattern = TargetPattern.from_angles(
            [F(1, 12), F(1, 6), F(1, 6), F(1, 4), F(1, 12), F(1, 4)]
        )
        cpath, ppath = write_instance(tmp_path, c, pattern)
        code = main(["run", "--config", cpath, "--pattern", ppath, "--mode", "rand"])
        assert code == 2
        assert "Unsolvable" in capsys.readouterr().out

    def test_parity_mismatch_is_a_usage_error(self, tmp_path, capsys, mirror_tied4):
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        cpath, ppath = write_instance(tmp_path, mirror_tied4, pattern)
        code = main(["run", "--config", cpath, "--pattern", ppath, "--mode", "det"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_joint_tiebreak_rounds_are_reported(self, tmp_path, capsys):
        cpath, ppath = str(tmp_path / "t.json"), str(tmp_path / "tp.json")
        assert main(["gen", "--n", "4", "--seed", "7221", "--config", cpath,
                     "--pattern", ppath]) == 0
        capsys.readouterr()
        code = main(["run", "--config", cpath, "--pattern", ppath, "--mode", "rand",
                     "--scheduler", "fsync", "--seed", "3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "formed in epoch 5 (bound 10); 6 epochs, 6 rounds, 4/4 terminated",
            "joint tie-break rounds: 1",
        ]

    def test_exhausted_epoch_budget_exits_two(self, tmp_path, capsys):
        cpath, ppath = write_instance(tmp_path, *gen_instance(7, 3))
        code = main(["run", "--config", cpath, "--pattern", ppath, "--max-epochs", "1"])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "did not form: 1 epochs, 1 rounds, 0/7 terminated",
            "violation: epoch budget (1) exhausted before full termination",
        ]

    def test_start_below_the_gap_floor_exits_one(self, tmp_path, capsys):
        p = TargetPattern.from_angles([F(30, 100), F(31, 100), F(39, 100)])
        cpath, ppath = write_instance(tmp_path, config(0, F(1, 10), F(1, 2)), p)
        assert main(["run", "--config", cpath, "--pattern", ppath]) == 1
        assert "gap floor" in capsys.readouterr().err
        assert main(["explore", "--config", cpath, "--pattern", ppath, "--budget", "2"]) == 1
        assert "gap floor" in capsys.readouterr().err

    def test_numeric_position_exits_one(self, tmp_path, capsys, single_nominee5, pattern5):
        cpath, ppath = write_instance(tmp_path, single_nominee5, pattern5)
        doc = json.loads(Path(cpath).read_text())
        doc["positions"][1] = float(F(doc["positions"][1]))
        Path(cpath).write_text(json.dumps(doc))
        assert main(["run", "--config", cpath, "--pattern", ppath]) == 1
        assert "not a rational angle text" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--pattern", str(tmp_path / "also-nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", "only-half-the-args.json"])
        assert err.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["conquer"])
        assert err.value.code == 1


class TestSeedResolution:
    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch):
        flagged = tmp_path / "flag.json"
        main(["gen", "--n", "4", "--seed", "11",
              "--config", str(flagged), "--pattern", str(tmp_path / "pf.json")])
        monkeypatch.setenv("APF_SEED", "11")
        env = tmp_path / "env.json"
        main(["gen", "--n", "4",
              "--config", str(env), "--pattern", str(tmp_path / "pe.json")])
        assert flagged.read_text() == env.read_text()

    def test_bad_env_seed_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("APF_SEED", "lucky")
        code = main(["gen", "--n", "4",
                     "--config", str(tmp_path / "c.json"),
                     "--pattern", str(tmp_path / "p.json")])
        assert code == 1
        assert "APF_SEED" in capsys.readouterr().err


class TestBatchCommand:
    def test_small_grid_passes(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(["batch", "--ns", "3,5", "--trials", "2",
                     "--schedulers", "fsync,rr", "--seed", "1",
                     "--csv", str(csv_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler" in out
        lines = csv_path.read_text().strip().splitlines()
        # header plus one row per (n, scheduler) cell
        assert len(lines) == 1 + 2 * 2
        assert lines[0].startswith("n,scheduler,trials,formed")

    def test_zero_trials_is_vacuously_ok(self, capsys):
        code = main(["batch", "--ns", "3", "--trials", "0", "--schedulers", "fsync"])
        assert code == 0

    def test_negative_counts_exit_one(self, capsys):
        assert main(["batch", "--ns", "5", "--trials", "-2", "--schedulers", "fsync"]) == 1
        assert main(["batch", "--ns", "5", "--trials", "1", "--max-epochs", "0"]) == 1
        with pytest.raises(PreconditionError):
            batch([5], -2, ["fsync"])

    def test_even_n_det_cell_fails(self, capsys):
        code = main(["batch", "--ns", "4", "--trials", "2", "--schedulers", "fsync"])
        assert code == 2

    def test_unknown_scheduler_exits_one(self, capsys):
        code = main(["batch", "--ns", "3", "--trials", "1", "--schedulers", "chaos"])
        assert code == 1

    def test_bad_inputs_are_refused_before_any_run(self, monkeypatch):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(simulator, "run", no_runs)
        for ns, schedulers, mode in (
            ([5], ["fsync"], "chaos"),
            ([5], ["nope"], "det"),
            ([2], ["fsync"], "det"),
            ([5, 2], ["fsync"], "det"),
        ):
            with pytest.raises(PreconditionError):
                batch(ns, 1, schedulers, mode=mode)

    def test_empty_counts_or_schedulers_are_refused(self, capsys):
        with pytest.raises(PreconditionError):
            batch([3, 5], 2, [])
        with pytest.raises(PreconditionError):
            batch([], 2, ["fsync"])
        assert main(["batch", "--ns", "3,5", "--trials", "3", "--schedulers", ","]) == 1
        assert "scheduler" in capsys.readouterr().err

    def test_small_n_exits_one(self, capsys):
        assert main(["batch", "--ns", "2", "--trials", "1", "--schedulers", "fsync"]) == 1

    def test_non_integer_count_exits_one(self, capsys):
        assert main(["batch", "--ns", "3,x", "--trials", "1"]) == 1
        assert "--ns expects comma-separated integers" in capsys.readouterr().err

    def test_batch_ok_flags_missing_forms(self):
        rows = batch([4], 1, ["fsync"], seed=0, mode="det")
        assert rows[0]["violations"] > 0
        assert not batch_ok(rows)


class TestExploreCommand:
    def test_small_instance_is_clean(self, tmp_path, capsys):
        c, pattern = gen_instance(3, 2)
        cpath, ppath = write_instance(tmp_path, c, pattern)
        code = main(["explore", "--config", cpath, "--pattern", ppath, "--budget", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no counterexample" in out

    def test_mutant_is_caught(self, tmp_path, capsys, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        cpath, ppath = write_instance(tmp_path, c, pattern5)
        code = main(["explore", "--config", cpath, "--pattern", ppath,
                     "--budget", "2", "--mutant", "eps1-lower"])
        assert code == 2
        out = capsys.readouterr().out
        assert "counterexample:" in out
        assert "schedule:" in out

    def test_unknown_mutant_is_a_usage_error(self, tmp_path, capsys, pattern5):
        c = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
        cpath, ppath = write_instance(tmp_path, c, pattern5)
        with pytest.raises(SystemExit) as err:
            main(["explore", "--config", cpath, "--pattern", ppath,
                  "--budget", "3", "--mutant", "typo-of-eps1"])
        assert err.value.code == 1
        assert "no counterexample" not in capsys.readouterr().out

    def test_symmetric_start_exits_two(self, tmp_path, capsys):
        cpath, ppath = str(tmp_path / "c.json"), str(tmp_path / "p.json")
        assert main(["gen", "--n", "4", "--fold", "2", "--seed", "1",
                     "--config", cpath, "--pattern", ppath]) == 0
        capsys.readouterr()
        code = main(["explore", "--config", cpath, "--pattern", ppath, "--budget", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: configuration has 2-fold rotational symmetry; unsolvable\n"
        )

    def test_large_n_is_rejected(self, tmp_path, capsys):
        c, pattern = gen_instance(7, 1)
        cpath, ppath = write_instance(tmp_path, c, pattern)
        code = main(["explore", "--config", cpath, "--pattern", ppath, "--budget", "2"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestSymmetryCommand:
    def test_folds_never_drop(self, capsys):
        code = main(["symmetry", "--folds", "2,3", "--instances", "4",
                     "--rounds", "5", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert all("->" in line for line in out)

    def test_a_two_fold_instance_of_one_robot_per_sector_grows_to_four(self, capsys):
        # seed 1 draws one robot per sector; two robots are too few, so the
        # sector count is raised until the instance has at least three
        code = main(["symmetry", "--folds", "2", "--instances", "1", "--rounds", "1",
                     "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["instance 0 (fold 2, n 4): 2 -> 2"]

    def test_a_rule_that_breaks_the_fold_fails_its_instances(self, monkeypatch, capsys):
        drift, stay = simulator.SYMMETRY_RULES["drift"], simulator.SYMMETRY_RULES["stay"]
        # robots on one half of the circle drift and the rest stay, so the
        # rotations that mapped the start to itself are lost
        monkeypatch.setitem(simulator.SYMMETRY_RULES, "half-drift",
                            lambda s: (drift if s.observer_position < F(1, 2) else stay)(s))
        code = main(["symmetry", "--folds", "2,3", "--instances", "4", "--rounds", "5",
                     "--seed", "0", "--rule", "half-drift"])
        assert code == 2
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"instance {i} (fold {k}): FAILED: round 1: fold dropped from {k} to 1"
            for i, k in enumerate((2, 3, 2, 3))
        ]

    def test_bad_fold_exits_one(self, capsys):
        code = main(["symmetry", "--folds", "1", "--instances", "1"])
        assert code == 1

    def test_negative_counts_exit_one(self, capsys):
        assert main(["symmetry", "--rounds", "-3", "--instances", "2", "--seed", "0"]) == 1
        assert "rounds" in capsys.readouterr().err
        assert main(["symmetry", "--instances", "-2", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert "--instances" in captured.err and captured.out == ""
        # refused before any instance runs, so also when there are none
        assert main(["symmetry", "--rounds", "-3", "--instances", "0", "--seed", "0"]) == 1
        assert "--rounds" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.fixture
    def traced_run(self, tmp_path, single_nominee5, pattern5):
        cpath, ppath = write_instance(tmp_path, single_nominee5, pattern5)
        tpath = tmp_path / "trace.jsonl"
        assert main(["run", "--config", cpath, "--pattern", ppath,
                     "--scheduler", "rr", "--trace", str(tpath)]) == 0
        return tpath, ppath

    def test_clean_trace_verifies(self, traced_run, capsys):
        tpath, ppath = traced_run
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_edited_destination_is_flagged(self, traced_run, capsys):
        tpath, ppath = traced_run
        records = read_trace(tpath)
        tampered = None
        for i, rec in enumerate(records):
            moves = [r for r, d in rec.decisions.items() if d.is_move]
            if moves:
                rid = moves[0]
                d = rec.decisions[rid]
                fake = d.__class__(d.kind, d.destination + F(1, 997),
                                   d.path_direction, d.branch)
                decisions = dict(rec.decisions)
                decisions[rid] = fake
                after = list(rec.positions_after)
                after[rid] = fake.destination
                tampered = rec.__class__(
                    rec.round, rec.epoch, rec.activated, decisions,
                    rec.positions_before, tuple(after), rec.config_class,
                )
                records[i] = tampered
                break
        assert tampered is not None
        write_trace(records[: records.index(tampered) + 1], tpath)
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        assert "the rule gives" in capsys.readouterr().out

    def test_edited_stay_on_a_repeated_idle_frame_is_flagged(
        self, tmp_path, capsys, single_nominee5, pattern5
    ):
        # lazy keeps the start frame for many idle rounds, so robot 1 is
        # decided on it from the frame's cache from round 2 on; the edit in
        # rounds 1 and 2 must be checked against the rule both times
        cpath, ppath = write_instance(tmp_path, single_nominee5, pattern5)
        tpath = tmp_path / "trace.jsonl"
        assert main(["run", "--config", cpath, "--pattern", ppath,
                     "--scheduler", "lazy", "--trace", str(tpath)]) == 0
        records = read_trace(tpath)
        for i in (0, 1):
            rec = records[i]
            assert rec.positions_before == rec.positions_after == records[0].positions_before
            d = rec.decisions[1]
            assert not d.is_move and d.branch != "hold"
            decisions = dict(rec.decisions)
            decisions[1] = d.__class__(d.kind, d.destination, d.path_direction, "hold")
            records[i] = rec.__class__(
                rec.round, rec.epoch, rec.activated, decisions,
                rec.positions_before, rec.positions_after, rec.config_class,
            )
        write_trace(records, tpath)
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        out = capsys.readouterr().out
        for rnd in (1, 2):
            assert f"round {rnd}: robot 1 recorded" in out
        assert out.count("the rule gives") == 2

    def test_truncated_line_names_its_number(self, traced_run, capsys):
        tpath, ppath = traced_run
        lines = tpath.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        tpath.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        out = capsys.readouterr().out
        assert "parse error" in out and "line 3" in out

    def test_robot_id_outside_the_trace_is_a_parse_error(self, traced_run, capsys):
        tpath, ppath = traced_run
        lines = tpath.read_text().splitlines()
        obj = json.loads(lines[1])
        (decision,) = obj["decisions"].values()
        obj["activated"] = [7]
        obj["decisions"] = {"7": decision}
        lines[1] = json.dumps(obj)
        tpath.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        out = capsys.readouterr().out
        assert "parse error" in out and "line 2" in out

    def test_numeric_position_is_a_parse_error(self, traced_run, capsys):
        tpath, ppath = traced_run
        lines = tpath.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["positions_after"][0] = float(F(obj["positions_after"][0]))
        lines[1] = json.dumps(obj)
        tpath.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        assert "parse error: line 2: not a rational angle text" in capsys.readouterr().out

    def test_repeated_activated_id_is_a_parse_error(self, traced_run, capsys):
        tpath, ppath = traced_run
        lines = tpath.read_text().splitlines()
        obj = json.loads(lines[1])
        (rid,) = obj["activated"]
        obj["activated"] = [rid, rid]
        lines[1] = json.dumps(obj)
        tpath.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["verify", "--trace", str(tpath), "--pattern", ppath])
        assert code == 2
        assert "parse error: line 2: activated ids repeat" in capsys.readouterr().out


class TestVerifyTrace:
    def test_clean_records_have_no_problems(self, single_nominee5, pattern5):
        _, records = run(single_nominee5, pattern5, FullSync())
        assert verify_trace(records, pattern5) == []

    def test_round_numbers_are_checked(self):
        c, p = gen_instance(5, 3)
        _, records = run(c, p, make_policy("rr"), seed=1)
        scaled = [replace(rec, round=7 * rec.round) for rec in records]
        assert verify_trace(scaled, p) == [
            f"round {7 * k}: round recorded as {7 * k}, expected {k}"
            for k in range(1, len(records) + 1)
        ]

    def test_random_mode_tiebreaks_verify(self, mirror_tied4):
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        assert any(
            d.branch == "random_tiebreak"
            for rec in records
            for d in rec.decisions.values()
        )
        assert verify_trace(records, pattern, mode="rand") == []

    def test_forged_tiebreak_draws_are_reported(self, mirror_tied4):
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        first = records[0]
        drawer = next(r for r, d in first.decisions.items() if d.branch == "random_tiebreak")
        stayer = next(r for r, d in first.decisions.items() if not d.is_move)

        def forged(rid, way):
            step = F(1, 10_000) * way.sign
            d = Decision(DecisionKind.MOVE, first.positions_before[rid] + step, way,
                         "random_tiebreak")
            after = list(first.positions_after)
            after[rid] = d.destination
            return [replace(first, decisions={**first.decisions, rid: d},
                            positions_after=tuple(after))]

        wrong_way = first.decisions[drawer].path_direction.opposite
        assert "robot %d: tie-break moved away from its smaller reading" % drawer in " ".join(
            verify_trace(forged(drawer, wrong_way), pattern, mode="rand")
        )
        assert "robot %d: tie-break move by a robot the rule does not send" % stayer in " ".join(
            verify_trace(forged(stayer, Direction.FORWARD), pattern, mode="rand")
        )

    def test_draw_past_its_window_is_reported(self, mirror_tied4):
        # floor 3/26 and a pattern over 26 against a start over 12
        pattern = TargetPattern.from_angles([F(5, 26), F(6, 26), F(8, 26), F(7, 26)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        first = records[0]
        drawer, d = next((r, d) for r, d in first.decisions.items()
                         if d.branch == "random_tiebreak")
        limit = (min(mirror_tied4.gaps) - F(3, 26)) / 2
        assert limit == F(1, 39)
        far = replace(d, destination=first.positions_before[drawer] + d.path_direction.sign * limit)
        after = list(first.positions_after)
        after[drawer] = far.destination
        forged = replace(first, decisions={**first.decisions, drawer: far},
                         positions_after=tuple(after))
        assert f"round 1: robot {drawer}: tie-break draw {limit} outside (0, {limit})" in (
            verify_trace([forged], pattern, mode="rand")
        )

    def test_drawer_recorded_under_another_branch_is_reported(self, mirror_tied4):
        # a drawer's draw is checked against its window, which must not
        # let through a move the trace files under a deterministic branch
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        first = records[0]
        drawer, d = next((r, d) for r, d in first.decisions.items()
                         if d.branch == "random_tiebreak")
        filed = replace(d, branch="break_tie")
        forged = replace(first, decisions={**first.decisions, drawer: filed})
        assert verify_trace([forged], pattern, mode="rand") == [
            f"round 1: robot {drawer}: tie-break move recorded as break_tie"
        ]

    def test_drawer_recorded_as_staying_is_reported(self, mirror_tied4):
        # robot 0 is a nominee of the tied start, so in rand mode the rule
        # draws for it whenever it is activated; it cannot wait for a tie
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        first = records[0]
        assert first.decisions[0].branch == "random_tiebreak"
        stayed = replace(first, activated=(0,),
                         decisions={0: Decision(DecisionKind.STAY, branch="wait_tie")},
                         positions_after=first.positions_before,
                         config_class=classify(mirror_tied4))
        assert verify_trace([stayed], pattern, mode="rand") == [
            "round 1: robot 0: tie-break record is not a move"
        ]

    def test_continuity_break_is_reported(self, single_nominee5, pattern5):
        _, records = run(single_nominee5, pattern5, RandomSubset(0.6), seed=4)
        assert len(records) > 2
        problems = verify_trace(records[:1] + records[2:], pattern5)
        assert any("continuity" in p for p in problems)

    def test_wrong_pattern_size_is_reported(self, single_nominee5, pattern5):
        _, records = run(single_nominee5, pattern5, FullSync())
        small = TargetPattern.from_angles([F(2, 12), F(4, 12), F(6, 12)])
        problems = verify_trace(records, small)
        assert problems and "5 robots" in problems[0]

    def test_empty_trace_is_vacuously_clean(self, pattern5):
        assert verify_trace([], pattern5) == []

    def test_unknown_mode_is_rejected(self, pattern5):
        with pytest.raises(PreconditionError):
            verify_trace([], pattern5, mode="半")


class TestForgedTraces:
    """Checks ``verify_trace`` makes of input from outside the program, each
    on records of a real run with one thing forged."""

    @pytest.fixture
    def records(self, single_nominee5, pattern5):
        report, records = run(single_nominee5, pattern5, FullSync())
        assert report.ok and len(records) > 2
        return records

    def test_robot_count_change_is_reported(self, records, pattern5):
        second = records[1]
        short = replace(second, positions_before=second.positions_before[:-1])
        problems = verify_trace([records[0], short], pattern5)
        assert problems[-1] == "round 2: robot count changed mid-trace"

    def test_repeated_pre_round_position_is_reported(self, records, pattern5):
        first = records[0]
        before = (first.positions_before[0],) + first.positions_before[:-1]
        assert verify_trace([replace(first, positions_before=before)], pattern5) == [
            "round 1: bad pre-round positions: positions must be distinct"
        ]

    def test_activation_after_termination_is_reported(self, records, pattern5):
        last = records[-1]
        assert all(d.kind is DecisionKind.TERMINATE for d in last.decisions.values())
        again = replace(last, round=last.round + 1, positions_before=last.positions_after)
        problems = verify_trace(records + [again], pattern5)
        assert [f"round {again.round}: robot {rid} was activated after terminating"
                for rid in again.activated] == [p for p in problems if "activated after" in p]

    def test_reactivation_with_the_previous_decisions_is_reported(
        self, tmp_path, single_nominee5, pattern5
    ):
        # the forged record repeats a lone termination while others still
        # run; read back, it shares the decisions mapping of the round
        # before, which the frame's memoised plan also matches
        report, records = run(single_nominee5, pattern5, make_policy("rr"))
        assert report.ok
        i, rec = next((i, r) for i, r in enumerate(records)
                      if r.decisions[r.activated[0]].kind is DecisionKind.TERMINATE)
        assert rec.round < len(records)
        again = replace(rec, round=rec.round + 1, positions_before=rec.positions_after)
        path = tmp_path / "trace.jsonl"
        write_trace(records[: i + 1] + [again], path)
        back = read_trace(path)
        assert back[-1].decisions is back[-2].decisions
        (rid,) = again.activated
        assert [p for p in verify_trace(back, pattern5) if "activated after" in p] == [
            f"round {again.round}: robot {rid} was activated after terminating"
        ]

    def test_edited_decision_on_a_repeated_idle_frame_is_reported(self):
        # a round whose frame and activation set the round before already
        # planned: the memoised plan no longer matches the record
        c0, pattern = gen_instance(7, 1007)
        _, records = run(c0, pattern, make_policy("lazy"), seed=1007)
        i = next(i for i in range(1, len(records))
                 if records[i - 1].activated == records[i].activated
                 and records[i - 1].positions_after is records[i].positions_before
                 is records[i].positions_after)
        rec = records[i]
        rid = rec.activated[0]
        d = rec.decisions[rid]
        edited = replace(d, branch=d.branch + "_edited")
        records[i] = replace(rec, decisions={**rec.decisions, rid: edited})
        assert verify_trace(records, pattern) == [
            f"round {rec.round}: robot {rid} recorded {edited} but the rule gives {d}"
        ]

    def test_symmetric_pre_round_positions_are_reported(self, mirror_tied4):
        pattern = TargetPattern.from_angles([F(1, 12), F(3, 12), F(4, 12), F(4, 12)])
        _, records = run(mirror_tied4, pattern, FullSync(), mode="rand", seed=2)
        first = records[0]
        assert first.decisions[1].branch == "wait_tie"
        forged = replace(first, positions_before=(F(0), F(1, 8), F(1, 2), F(5, 8)))
        assert "round 1: robot 1: configuration has 2-fold rotational symmetry; unsolvable" in (
            verify_trace([forged], pattern, mode="rand")
        )

    def test_collision_is_reported(self, records, pattern5):
        # robot 0 at 0 moving forward to 1/6 meets robot 1 at 1/12 halfway
        first = records[0]
        assert first.positions_before[:2] == (0, F(1, 12))
        dash = Decision(DecisionKind.MOVE, F(1, 6), Direction.FORWARD, "shrink_lead_gap")
        forged = replace(first, decisions={**first.decisions, 0: dash},
                         positions_after=(F(1, 6),) + first.positions_before[1:])
        problems = verify_trace([forged], pattern5)
        assert "round 1: robots 0 and 1 collide at t=1/2" in problems
        # a collided round leaves every robot where it was, so a record that
        # has the robots arrive is unexplained
        assert "round 1: robot 0 ended at an unexplained position" in problems

    def test_unexplained_end_position_is_reported(self, records, pattern5):
        first = records[0]
        still = next(r for r, d in first.decisions.items() if not d.is_move)
        after = list(first.positions_after)
        after[still] += F(1, 10_000)
        forged = replace(first, positions_after=tuple(after))
        assert f"round 1: robot {still} ended at an unexplained position" in (
            verify_trace([forged], pattern5)
        )

    def test_mover_off_its_destination_is_reported(self, records, pattern5):
        first = records[0]
        mover = next(r for r, d in first.decisions.items() if d.is_move)
        after = list(first.positions_after)
        after[mover] += F(1, 10_000)
        forged = replace(first, positions_after=tuple(after))
        assert f"round 1: robot {mover} ended at an unexplained position" in (
            verify_trace([forged], pattern5)
        )

    def test_every_misplaced_robot_is_reported_in_id_order(self, records, pattern5):
        first = records[0]
        mover = next(r for r, d in first.decisions.items() if d.is_move)
        still = next(r for r, d in first.decisions.items() if not d.is_move)
        after = list(first.positions_after)
        for rid in (mover, still):
            after[rid] += F(1, 10_000)
        problems = verify_trace([replace(first, positions_after=tuple(after))], pattern5)
        assert [p for p in problems if "unexplained" in p] == [
            f"round 1: robot {rid} ended at an unexplained position"
            for rid in sorted((mover, still))
        ]

    def test_repeated_post_round_position_is_reported(self, records, pattern5):
        first = records[0]
        after = (first.positions_after[1],) + first.positions_after[1:]
        problems = verify_trace([replace(first, positions_after=after)], pattern5)
        assert problems[-1] == "round 1: bad post-round positions: positions must be distinct"

    def test_activated_id_out_of_range_is_reported(self, records, pattern5):
        first = records[0]
        # the smallest id outside 0..n-1 is named
        for ids, named in [((9,), 9), ((5,), 5), ((2, 9, -1), -1)]:
            forged = replace(first, activated=ids,
                             decisions=dict.fromkeys(ids, first.decisions[0]))
            assert verify_trace([forged], pattern5) == [
                f"round 1: robot id {named} is not in 0..4"
            ]

    def test_repeated_activation_is_reported(self, records, pattern5):
        first = records[0]
        forged = replace(first, activated=first.activated + first.activated[:1])
        assert verify_trace([forged], pattern5) == ["round 1: activated ids repeat"]

    def test_round_without_activation_is_reported(self, records, pattern5):
        first = records[0]
        idle = replace(first, activated=(), decisions={}, positions_after=first.positions_before)
        renumbered = [replace(r, round=r.round + 1) for r in records]
        assert verify_trace([idle] + renumbered, pattern5) == ["round 1: no robot activated"]

    def test_activation_without_a_decision_is_reported(self, records, pattern5):
        first = records[0]
        forged = replace(first, activated=(0, 1), decisions={0: first.decisions[0]})
        assert verify_trace([forged], pattern5) == [
            "round 1: activated ids and decision keys disagree"
        ]
