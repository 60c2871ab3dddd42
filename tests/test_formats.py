"""Instance files, decision/class JSON values, and JSONL traces."""

import json
from dataclasses import replace
from fractions import Fraction as F
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleform import (
    Decision,
    DecisionKind,
    Direction,
    DoubleNomineeTied,
    LeaderConfig,
    POLICIES,
    RoundRobinSingleton,
    StructuralError,
    Symmetric,
    TargetPattern,
    TraceParseError,
    gen_instance,
    run,
)
from circleform.cli import make_policy
from circleform.formation import _FORMED, _STAYS, _to_decision
from circleform.formats import (
    _decision,
    class_from_json,
    class_to_json,
    decision_from_json,
    decision_to_json,
    load_config,
    load_pattern,
    read_trace,
    record_from_json,
    record_to_json,
    save_config,
    save_pattern,
    write_trace,
)
from circleform.simulator import verify_trace

import golden_corpus as gc
from conftest import config, near_floor_starts, tied_starts
from oracles import reference_record_to_json

GOLDEN_TRACES = sorted(gc.GOLDEN.glob("*.jsonl"))
# a det run under the lazy scheduler: long idle stretches, repeated decisions
LAZY_CASE = ("det", 7, 1_007, "lazy", False)


class TestInstanceFiles:
    def test_config_round_trip(self, tmp_path, single_nominee5):
        path = tmp_path / "c.json"
        save_config(single_nominee5, path)
        assert load_config(path) == single_nominee5

    def test_config_file_uses_fraction_strings(self, tmp_path):
        path = tmp_path / "c.json"
        save_config(config(0, F(1, 3)), path)
        doc = json.loads(path.read_text())
        assert doc == {"positions": ["0/1", "1/3"]}

    def test_load_config_normalises(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"positions": ["1/3", "0/1"]}))
        assert load_config(path).positions == (F(0), F(1, 3))

    def test_pattern_round_trip(self, tmp_path, pattern5):
        path = tmp_path / "p.json"
        save_pattern(pattern5, path)
        assert load_pattern(path).angles == pattern5.angles

    def test_pattern_file_keeps_original_order(self, tmp_path):
        pattern = TargetPattern.from_angles([F(6, 18), F(1, 18), F(1, 9), F(2, 9), F(5, 18)])
        path = tmp_path / "p.json"
        save_pattern(pattern, path)
        doc = json.loads(path.read_text())
        assert doc["pattern"] == ["1/3", "1/18", "1/9", "2/9", "5/18"]
        # loading canonicalises regardless of the stored rotation
        assert load_pattern(path).angles == pattern.angles

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(StructuralError):
            load_config(path)

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(StructuralError):
            load_config(path)

    def test_load_rejects_missing_field(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"posns": ["0/1"]}))
        with pytest.raises(StructuralError):
            load_config(path)

    def test_load_rejects_wrong_field_type(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"pattern": "1/3"}))
        with pytest.raises(StructuralError):
            load_pattern(path)

    @pytest.mark.parametrize("value", [0.5, ["1/2"]])
    def test_load_config_rejects_a_non_string_position(self, tmp_path, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"positions": ["0/1", value, "3/4"]}))
        with pytest.raises(StructuralError):
            load_config(path)

    @pytest.mark.parametrize("value", [0.5, {"p": 1}])
    def test_load_pattern_rejects_a_non_string_gap(self, tmp_path, value):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"pattern": ["1/4", value, "1/4"]}))
        with pytest.raises(StructuralError):
            load_pattern(path)


class TestDecisionJson:
    def test_stay_round_trip(self):
        d = Decision(DecisionKind.STAY, branch="hold")
        back = decision_from_json(decision_to_json(d), "here")
        assert back == d
        assert "to" not in decision_to_json(d)

    def test_move_round_trip(self):
        d = Decision(DecisionKind.MOVE, F(1, 24), Direction.REVERSE, "break_tie")
        obj = decision_to_json(d)
        assert obj == {"kind": "move", "branch": "break_tie", "to": "1/24", "dir": "reverse"}
        assert decision_from_json(obj, "here") == d

    def test_terminate_round_trip(self):
        d = Decision(DecisionKind.TERMINATE, branch="formed")
        assert decision_from_json(decision_to_json(d), "here") == d

    def test_rejects_unknown_kind(self):
        with pytest.raises(StructuralError):
            decision_from_json({"kind": "sprint"}, "here")

    @pytest.mark.parametrize("kind", [["move"], {"a": 1}], ids=["list", "object"])
    def test_rejects_a_kind_that_is_not_a_string(self, kind):
        with pytest.raises(StructuralError, match="here: unknown decision kind"):
            decision_from_json({"kind": kind}, "here")

    def test_rejects_a_direction_that_is_not_a_string(self):
        with pytest.raises(StructuralError, match="here: unknown direction"):
            decision_from_json({"kind": "move", "to": "1/2", "dir": ["forward"]}, "here")

    def test_rejects_move_without_destination(self):
        with pytest.raises(StructuralError):
            decision_from_json({"kind": "move", "dir": "forward"}, "here")

    def test_rejects_unknown_direction(self):
        with pytest.raises(StructuralError):
            decision_from_json({"kind": "move", "to": "1/2", "dir": "widdershins"}, "here")

    def test_rejects_non_object(self):
        with pytest.raises(StructuralError):
            decision_from_json(["move"], "here")

    @pytest.mark.parametrize("to", [0.5, 1, ["1/2"]])
    def test_rejects_a_non_string_destination(self, to):
        with pytest.raises(StructuralError, match="here: 'to'"):
            decision_from_json({"kind": "move", "to": to, "dir": "forward"}, "here")

    @pytest.mark.parametrize("kind", ["stay", "move"])
    def test_rejects_a_non_string_branch(self, kind):
        obj = {"kind": kind, "branch": 17, "to": "1/2", "dir": "forward"}
        with pytest.raises(StructuralError, match="here: branch"):
            decision_from_json(obj, "here")

    @pytest.mark.parametrize("to, why", [
        ("3/2", "a move needs a destination in [0, 1), got 3/2"),
        ("abc", "not a rational angle: 'abc'"),
    ])
    def test_a_refused_destination_names_its_decision(self, to, why):
        obj = {"kind": "move", "branch": "x", "to": to, "dir": "forward"}
        with pytest.raises(StructuralError) as err:
            decision_from_json(obj, "decision 4")
        assert str(err.value) == f"decision 4: {why}"

    def test_equal_decisions_decode_to_one_object(self):
        obj = {"kind": "move", "branch": "break_tie", "to": "1/24", "dir": "reverse"}
        assert decision_from_json(obj, "here") is decision_from_json(dict(obj), "there")


class TestClassJson:
    @pytest.mark.parametrize(
        "cls",
        [
            Symmetric(4),
            LeaderConfig(2, Direction.FORWARD),
            LeaderConfig(0, Direction.REVERSE),
            DoubleNomineeTied(1, 4, 0),
            DoubleNomineeTied(0, 3, None),
        ],
    )
    def test_round_trip(self, cls):
        assert class_from_json(class_to_json(cls), "here") == cls

    def test_tied_bisector_serialises_as_null(self):
        obj = class_to_json(DoubleNomineeTied(0, 3, None))
        assert obj["bisector"] is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(StructuralError):
            class_from_json({"kind": "anarchy"}, "here")

    def test_rejects_short_nominee_list(self):
        with pytest.raises(StructuralError):
            class_from_json({"kind": "tied", "nominees": [1], "bisector": None}, "here")

    def test_rejects_bad_pivotal(self):
        with pytest.raises(StructuralError):
            class_from_json({"kind": "leader", "leader": 0, "pivotal": "up"}, "here")


class TestTraces:
    @pytest.fixture
    def records(self, tied5, pattern5):
        _, records = run(tied5, pattern5, RoundRobinSingleton(), seed=1)
        return records

    def test_round_trip(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        back = read_trace(path)
        assert back == records

    @given(st.one_of(near_floor_starts(), tied_starts()), st.sampled_from(sorted(POLICIES)),
           st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_run_traces_round_trip(self, tmp_path_factory, start, name, seed):
        mode, c0, pattern = start
        _, records = run(c0, pattern, POLICIES[name](), mode=mode, seed=seed)
        path = tmp_path_factory.getbasetemp() / "drawn.jsonl"
        write_trace(records, path)
        assert read_trace(path) == records

    def test_one_line_per_round(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        assert len(lines) == len(records)

    def test_blank_lines_are_skipped(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n" + path.read_text().replace("\n", "\n\n"))
        assert read_trace(padded) == records

    def test_bad_json_names_the_line(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError) as err:
            read_trace(path)
        assert err.value.line_no == 2

    def test_record_rejects_activation_mismatch(self, records):
        obj = record_to_json(records[0])
        obj["activated"] = [99]
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 7)
        assert err.value.line_no == 7
        assert "activated" in str(err.value)

    def test_record_rejects_repeated_activated_ids(self, records):
        obj = record_to_json(records[0])
        (rid,) = obj["activated"]
        obj["activated"] = [rid, rid]
        with pytest.raises(TraceParseError, match="line 5: activated ids repeat"):
            record_from_json(obj, 5)

    def test_record_rejects_an_empty_activation(self, records):
        obj = record_to_json(records[0])
        obj["activated"], obj["decisions"] = [], {}
        with pytest.raises(TraceParseError, match="line 6: no robot activated"):
            record_from_json(obj, 6)

    @pytest.mark.parametrize("rid", [7, -1])
    def test_read_rejects_a_robot_id_outside_the_trace(self, tmp_path, records, rid):
        obj = record_to_json(records[0])
        (decision,) = obj["decisions"].values()
        obj["activated"] = [rid]
        obj["decisions"] = {str(rid): decision}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(TraceParseError) as err:
            read_trace(path)
        assert err.value.line_no == 1
        assert f"robot id {rid}" in str(err.value)

    @staticmethod
    def _forge_first_move(tmp_path, records, to):
        """The records written out with the first move's destination text
        replaced by ``to``; the path, the 1-based line and the robot key."""
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if '"to":' in line)
        obj = json.loads(lines[k])
        rid = next(r for r, d in obj["decisions"].items() if "to" in d)
        obj["decisions"][rid]["to"] = to
        lines[k] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        return path, k + 1, rid

    def test_read_rejects_a_move_outside_the_circle(self, tmp_path, records):
        path, line, rid = self._forge_first_move(tmp_path, records, "3/2")
        with pytest.raises(TraceParseError) as err:
            read_trace(path)
        assert str(err.value) == (
            f"line {line}: decision {rid}: a move needs a destination in [0, 1), got 3/2")

    def test_read_names_the_decision_of_an_unreadable_destination(self, tmp_path, records):
        path, line, rid = self._forge_first_move(tmp_path, records, "abc")
        with pytest.raises(TraceParseError) as err:
            read_trace(path)
        assert str(err.value) == f"line {line}: decision {rid}: not a rational angle: 'abc'"

    @pytest.mark.parametrize("fault", ["empty", "repeat", "keys", "above", "below"])
    def test_record_faults_read_as_verify_reports_them(self, records, pattern5, fault):
        rec = records[0]
        ((rid, d),) = rec.decisions.items()
        other = (rid + 1) % len(rec.positions_before)
        activated, keys = {
            "empty": ((), ()), "repeat": ((rid, rid), (rid,)), "keys": ((rid,), (other,)),
            "above": ((5, rid), (5, rid)), "below": ((9, -1), (9, -1)),
        }[fault]
        forged = replace(rec, activated=activated, decisions={k: d for k in keys})
        with pytest.raises(TraceParseError) as err:
            record_from_json(record_to_json(forged), 4)
        msg = str(err.value).removeprefix("line 4: ")
        assert msg != str(err.value)
        assert verify_trace([forged], pattern5) == [f"round {rec.round}: {msg}"]

    def test_record_rejects_length_mismatch(self, records):
        obj = record_to_json(records[0])
        obj["positions_after"] = obj["positions_after"][:-1]
        with pytest.raises(TraceParseError):
            record_from_json(obj, 3)

    def test_record_rejects_garbled_angle(self, records):
        obj = record_to_json(records[0])
        obj["positions_before"][0] = "sideways"
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 4)
        assert err.value.line_no == 4

    def test_record_rejects_non_object(self):
        with pytest.raises(TraceParseError):
            record_from_json("not a record", 12)

    @pytest.mark.parametrize("field", ["positions_before", "positions_after"])
    @pytest.mark.parametrize("forge", [lambda t: float(F(t)), lambda t: [t]], ids=["float", "list"])
    def test_record_rejects_a_non_string_position(self, records, field, forge):
        # the float is what a JSON writer makes of the exact angle
        obj = record_to_json(records[0])
        obj[field][1] = forge(obj[field][1])
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 5)
        assert err.value.line_no == 5

    def test_read_records_share_positions(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        write_trace(records, path)
        back = read_trace(path)
        for prev, rec in zip(back, back[1:]):
            assert all(a is b for a, b in zip(prev.positions_after, rec.positions_before))

    @pytest.mark.parametrize("field", ["round", "epoch"])
    def test_record_rejects_a_boolean_count(self, records, field):
        obj = record_to_json(records[0])
        obj[field] = bool(obj[field])
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 3)
        assert str(err.value) == f"line 3: field {field!r} must be an int"

    @pytest.mark.parametrize("forge", [lambda rid: rid + 0.5, str], ids=["float", "string"])
    def test_record_rejects_a_non_integer_activated_id(self, records, forge):
        obj = record_to_json(records[0])
        (rid,) = obj["activated"]
        obj["activated"] = [forge(rid)]
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 3)
        assert str(err.value) == "line 3: field 'activated' must hold ints"

    @pytest.mark.parametrize("pad", [" {}", "0{}", "+{}"], ids=["space", "zero", "plus"])
    def test_record_rejects_a_decision_key_that_is_not_an_id(self, records, pad):
        obj = record_to_json(records[0])
        ((key, decision),) = obj["decisions"].items()
        obj["decisions"] = {pad.format(key): decision}
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 3)
        assert str(err.value) == f"line 3: decision key {pad.format(key)!r} is not a robot id"

    @pytest.mark.parametrize(
        "cls, message",
        [
            ({"kind": "symmetric", "fold": True}, "field 'fold' must be an int"),
            ({"kind": "leader", "leader": True, "pivotal": "forward"},
             "field 'leader' must be an int"),
            ({"kind": "tied", "nominees": [0.5, 3], "bisector": None},
             "field 'nominees' must hold ints"),
            ({"kind": "tied", "nominees": [1, 4], "bisector": True},
             "field 'bisector' must be an int or null"),
        ],
        ids=["fold", "leader", "nominees", "bisector"],
    )
    def test_record_rejects_a_non_integer_class_field(self, records, cls, message):
        obj = record_to_json(records[0])
        obj["class"] = cls
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 3)
        assert str(err.value) == f"line 3: class: {message}"

    def test_field_errors_name_the_line_once(self, records):
        obj = record_to_json(records[0])
        obj["epoch"] = "0"
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 1)
        assert str(err.value) == "line 1: field 'epoch' must be an int"
        del obj["epoch"]
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 1)
        assert str(err.value) == "line 1: missing field 'epoch'"
        (key,) = obj["decisions"]
        obj["decisions"][key] = {"kind": "sprint"}
        obj["epoch"] = 0
        with pytest.raises(TraceParseError) as err:
            record_from_json(obj, 1)
        assert str(err.value) == f"line 1: decision {key}: unknown decision kind 'sprint'"


class TestDecodedSharing:
    """What ``read_trace`` shares between the records it decodes."""

    @pytest.fixture(scope="class")
    def lines(self):
        path = gc.GOLDEN / gc.case_name(LAZY_CASE)
        return [json.loads(line) for line in path.read_text().splitlines()]

    @pytest.fixture(scope="class")
    def records(self):
        return read_trace(gc.GOLDEN / gc.case_name(LAZY_CASE))

    def test_idle_records_hold_one_position_tuple(self, lines, records):
        idle = [rec for obj, rec in zip(lines, records)
                if obj["positions_before"] == obj["positions_after"]]
        assert len(idle) > len(records) // 2
        assert all(rec.positions_after is rec.positions_before for rec in idle)

    def test_each_record_starts_on_the_tuple_the_previous_one_ended_on(self, records):
        for prev, rec in pairwise(records):
            assert rec.positions_before is prev.positions_after

    def test_equal_raw_decisions_share_one_read_only_mapping(self, lines, records):
        shared = 0
        for (a, prev), (b, rec) in pairwise(zip(lines, records)):
            if a["decisions"] == b["decisions"]:
                assert rec.decisions is prev.decisions
                shared += 1
            else:
                assert rec.decisions is not prev.decisions
        assert shared > len(records) // 2
        rid = records[0].activated[0]
        with pytest.raises(TypeError):
            records[0].decisions[rid] = records[0].decisions[rid]

    def test_shared_records_equal_the_run(self, records):
        assert records == gc.run_case(LAZY_CASE)[1]


def full_decode(path):
    """``read_trace`` as it reads a trace with every line decoded in full."""
    out = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(line_no, f"not valid JSON: {exc.msg}") from exc
            out.append(record_from_json(obj, line_no))
    return out


def read_outcome(read, path):
    """The records ``read`` decodes from ``path``, or its parse error's text."""
    try:
        return read(path)
    except TraceParseError as exc:
        return str(exc)


def _after_head(line: str) -> str:
    return line.split(",", 1)[1]


def _next_epoch(body: str) -> str:
    """``body`` with its leading ``"epoch"`` raised by one."""
    epoch, rest = body.split(",", 1)
    key, value = epoch.split(":")
    assert key == '"epoch"'
    return f"{key}:{int(value) + 1},{rest}"


# lines that follow a repeated golden line {"round":r,<body>: each reads
# exactly as its full decode does, whether or not its body repeats
REPEATED_LINE_FORGERIES = {
    "verbatim": lambda r, body: [f'{{"round":{r},{body}'],
    "a trailing duplicate round key": lambda r, body: [
        f'{{"round":{r + k},{body[:-2]},"round":7}}\n' for k in (1, 2)],
    "an escaped round key": lambda r, body: [
        f'{{"round":{r + k},{body[:-2]},"\\u0072ound":7}}\n' for k in (1, 2)],
    "a leading duplicate round key": lambda r, body: [f'{{"round":{r + 1},"round":9,{body}'],
    "no body": lambda r, body: ['{"round":5,}\n'],
    "a leading zero": lambda r, body: [f'{{"round":0{r + 1},{body}'],
    "a negative round": lambda r, body: [f'{{"round":-{r + 1},{body}'],
    "a space after the colon": lambda r, body: [f'{{"round": {r + 1},{body}'],
    "no final newline": lambda r, body: [f'{{"round":{r + 1},{body[:-1]}'],
    "next epoch, same decisions": lambda r, body: [f'{{"round":{r + 1},{_next_epoch(body)}'],
}


class TestRepeatedLines:
    """A line whose text after its round repeats the line before's is read
    as that line's record with the new round, without a full decode."""

    @pytest.mark.parametrize("path", GOLDEN_TRACES, ids=lambda p: p.name)
    def test_every_golden_trace_reads_as_its_full_decode(self, path):
        assert read_trace(path) == full_decode(path)

    @pytest.mark.parametrize("forge", REPEATED_LINE_FORGERIES.values(),
                             ids=REPEATED_LINE_FORGERIES.keys())
    def test_a_forged_line_reads_as_its_full_decode(self, tmp_path, forge):
        lines = (gc.GOLDEN / gc.case_name(LAZY_CASE)).read_text().splitlines(keepends=True)
        i = next(i for i in range(1, len(lines))
                 if _after_head(lines[i]) == _after_head(lines[i - 1]))
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines[: i + 1] + forge(i + 1, _after_head(lines[i]))))
        assert read_outcome(read_trace, path) == read_outcome(full_decode, path)

    def test_only_a_changed_line_is_decoded_in_full(self, monkeypatch):
        lines = (gc.GOLDEN / gc.case_name(LAZY_CASE)).read_text().splitlines()
        changed = 1 + sum(_after_head(a) != _after_head(b) for a, b in pairwise(lines))
        assert changed < len(lines) // 2
        calls = []

        def counted(obj, line_no):
            calls.append(line_no)
            return record_from_json(obj, line_no)

        monkeypatch.setattr("circleform.formats.record_from_json", counted)
        assert len(read_trace(gc.GOLDEN / gc.case_name(LAZY_CASE))) == len(lines)
        assert len(calls) == changed


class TestVerifyRepeatedRecords:
    """A repeated record, whose activated and decisions objects are the
    previous record's (``read_trace`` shares them through an idle stretch),
    is checked in full like any other record: its ids, round, epoch and
    each activated robot's decision."""

    CASE = ("det", 5, 1_005, "lazy", False)

    @pytest.fixture
    def lines(self):
        return (gc.GOLDEN / gc.case_name(self.CASE)).read_text().splitlines(keepends=True)

    @pytest.fixture
    def pattern(self):
        return gc.start(self.CASE)[1]

    def _verify(self, tmp_path, lines, pattern):
        path = tmp_path / "trace.jsonl"
        path.write_text("".join(lines))
        return verify_trace(read_trace(path), pattern)

    def test_a_repeated_line_duplicated_with_its_round(self, tmp_path, lines, pattern):
        i = next(i for i in range(1, len(lines))
                 if _after_head(lines[i]) == _after_head(lines[i - 1]))
        assert i == 1
        forged = lines[: i + 1] + [lines[i]] + lines[i + 1:]
        assert self._verify(tmp_path, forged, pattern) == [
            f"round {r}: round recorded as {r}, expected {r + 1}" for r in range(2, 62)
        ]

    def test_a_repeated_line_with_a_wrong_epoch_after_a_boundary(self, tmp_path, lines, pattern):
        j = next(j for j in range(1, len(lines) - 1)
                 if json.loads(lines[j])["epoch"] != json.loads(lines[j - 1])["epoch"]
                 and _after_head(lines[j + 1]) == _after_head(lines[j]))
        epoch = json.loads(lines[j])["epoch"]
        assert (j, epoch) == (10, 2)
        wrong = [line.replace(',"epoch":2,', ',"epoch":1,', 1) for line in lines[j:j + 2]]
        assert _after_head(wrong[1]) == _after_head(wrong[0])
        assert self._verify(tmp_path, lines[:j] + wrong + lines[j + 2:], pattern) == [
            "round 11: epoch recorded as 1, expected 2",
            "round 12: epoch recorded as 1, expected 2",
        ]

    def test_a_changed_activation_with_shared_decisions(self, pattern):
        records = read_trace(gc.GOLDEN / gc.case_name(self.CASE))
        rec, prev = records[1], records[0]
        assert rec.decisions is prev.decisions and rec.activated is prev.activated
        records[1] = replace(rec, activated=rec.activated[1:])
        assert verify_trace(records, pattern) == [
            "round 2: activated ids and decision keys disagree"
        ]

    def test_shared_decisions_on_the_frame_after_a_move(self, pattern):
        records = read_trace(gc.GOLDEN / gc.case_name(self.CASE))
        k = next(k for k, rec in enumerate(records) if rec.positions_after != rec.positions_before)
        moved = records[k]
        assert moved.round == 10
        again = replace(records[k + 1], activated=moved.activated, decisions=moved.decisions)
        rule = {0: _STAYS["wait_second"], 2: _STAYS["wait_settle"],
                1: Decision(DecisionKind.MOVE, F(15973, 39060), Direction.FORWARD, "settle_target")}
        assert verify_trace(records[: k + 1] + [again], pattern) == [
            f"round 11: robot {rid} recorded {moved.decisions[rid]} but the rule gives {rule[rid]}"
            for rid in (0, 1, 2)
        ] + ["epoch 2: released epoch without a landing"]


class TestSharedDecisions:
    """The rule makes one ``Decision`` per stay branch and one for
    terminating, and decoding a trace hands back those same objects."""

    @staticmethod
    def _shared(d: Decision) -> bool:
        return d is (_FORMED if d.kind is DecisionKind.TERMINATE else _STAYS.get(d.branch))

    def test_rule_returns_one_object_per_stay_branch_and_for_terminate(self):
        for why, d in _STAYS.items():
            assert _to_decision(("stay", why), F(0)) is d
            assert _to_decision(("stay", why), F(1, 3)) is d
            assert d == Decision(DecisionKind.STAY, branch=why)
        formed = _to_decision(("terminate",), F(0))
        assert formed is _to_decision(("terminate",), F(1, 3))
        assert formed == Decision(DecisionKind.TERMINATE, branch="formed")
        # a drawer with no draw source waits
        draw = ("draw", F(1, 8), 1, "random_tiebreak")
        assert _to_decision(draw, F(0)) is _STAYS["wait_tie"]

    def test_decoded_golden_stays_are_the_rules_objects(self):
        for path in GOLDEN_TRACES:
            kept = [d for rec in read_trace(path) for d in rec.decisions.values() if not d.is_move]
            assert kept and all(map(self._shared, kept)), path.name

    def test_det_plan_refuses_a_stay_that_differs_only_in_branch(self):
        c0, pattern = gen_instance(7, 1007)
        _, records = run(c0, pattern, make_policy("lazy"), seed=1007)
        i, rid = next((i, rid) for i, rec in enumerate(records)
                      for rid, d in rec.decisions.items() if d.kind is DecisionKind.STAY)
        rec = records[i]
        stay = rec.decisions[rid]
        other = next(d for why, d in _STAYS.items() if why != stay.branch)
        records[i] = replace(rec, decisions={**rec.decisions, rid: other})
        assert verify_trace(records, pattern) == [
            f"round {rec.round}: robot {rid} recorded {other} but the rule gives {stay}"
        ]

    def test_distinct_stay_branches_in_a_trace_leave_the_tables_bounded(self, tmp_path):
        obj = json.loads((gc.GOLDEN / gc.case_name(LAZY_CASE)).read_text().splitlines()[0])
        rid = str(obj["activated"][0])
        path = tmp_path / "trace.jsonl"
        with path.open("w") as fh:
            for k in range(5000):
                obj["decisions"][rid] = {"kind": "stay", "branch": f"stay_{k}"}
                fh.write(json.dumps(obj) + "\n")
        stays = dict(_STAYS)
        records = read_trace(path)
        assert _STAYS == stays
        info = _decision.cache_info()
        assert info.currsize <= info.maxsize < 5000
        got = records[4321].decisions[int(rid)]
        assert got == Decision(DecisionKind.STAY, branch="stay_4321") and not self._shared(got)
        # the rule's stays still decode to the shared objects afterwards
        assert decision_from_json({"kind": "stay", "branch": "hold"}, "here") is _STAYS["hold"]


class TestEncoderAgainstReference:
    """``record_to_json`` keeps the last position tuple's texts; it must
    encode exactly what formatting every field anew does."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {path.name: read_trace(path) for path in GOLDEN_TRACES}

    def test_every_golden_record(self, traces):
        for name, records in traces.items():
            lines = (gc.GOLDEN / name).read_text().splitlines()
            for rec, line in zip(records, lines, strict=True):
                obj = record_to_json(rec)
                assert obj == reference_record_to_json(rec)
                assert json.dumps(obj, separators=(",", ":")) == line

    def test_two_traces_encoded_in_turn(self, traces):
        names = sorted(traces)
        for first, second in zip(names, names[1:] + names[:1]):
            for a, b in zip(traces[first], traces[second]):
                assert record_to_json(a) == reference_record_to_json(a)
                assert record_to_json(b) == reference_record_to_json(b)

    def test_equal_tuples_that_are_distinct_objects(self, traces):
        for rec in traces[gc.case_name(LAZY_CASE)]:
            copy = replace(rec, positions_before=tuple(F(p) for p in rec.positions_before),
                           positions_after=tuple(list(rec.positions_after)))
            assert copy.positions_before is not rec.positions_before
            assert record_to_json(rec) == record_to_json(copy) == reference_record_to_json(rec)

    def test_a_returned_list_changed_by_the_caller(self, traces):
        rec = next(r for r in traces[gc.case_name(LAZY_CASE)]
                   if r.positions_after is r.positions_before)
        obj = record_to_json(rec)
        obj["positions_before"][0] = "sideways"
        obj["positions_after"].clear()
        assert record_to_json(rec) == reference_record_to_json(rec)

    def test_a_returned_decision_changed_by_the_caller(self, traces):
        rec = next(r for r in traces[gc.case_name(LAZY_CASE)] if len(r.decisions) > 1)
        obj = record_to_json(rec)
        first, *rest = obj["decisions"].values()
        first["kind"] = "sideways"
        first.pop("branch")
        rest[0]["to"] = "1/2"
        obj["decisions"].clear()
        assert record_to_json(rec) == reference_record_to_json(rec)

    def test_a_decisions_dict_changed_in_place(self, traces):
        # records hold read-only mappings; a caller's dict is encoded on every call
        rec = traces[gc.case_name(LAZY_CASE)][0]
        decisions = dict(rec.decisions)
        listed = replace(rec, decisions=decisions)
        assert record_to_json(listed) == reference_record_to_json(listed)
        rid = rec.activated[0]
        decisions[rid] = Decision(DecisionKind.STAY, branch="edited")
        assert record_to_json(listed) == reference_record_to_json(listed)
        assert record_to_json(listed)["decisions"][str(rid)]["branch"] == "edited"

    def test_a_position_list_changed_in_place(self, traces):
        # records hold tuples; a caller's list is formatted on every call
        rec = traces[gc.case_name(LAZY_CASE)][0]
        positions = list(rec.positions_before)
        listed = replace(rec, positions_before=positions, positions_after=positions)
        assert record_to_json(listed) == reference_record_to_json(listed)
        positions[0] = positions[0] + F(1, 10_000)
        assert record_to_json(listed) == reference_record_to_json(listed)
