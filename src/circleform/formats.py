"""On-disk formats: JSON instance files and JSONL round traces.

Instances are small JSON documents ({"positions": [...]} for configurations,
{"pattern": [...]} for target patterns) with every angle written as an exact
'p/q' fraction of a turn.  A trace is one JSON object per line per round,
with fixed field names, so runs can be replayed and audited offline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Union

from .angles import Direction, format_turn, parse_turn
from .configuration import (
    ConfigClass,
    Configuration,
    DoubleNomineeTied,
    LeaderConfig,
    Symmetric,
)
from .errors import CircleFormError, StructuralError, TraceParseError
from .formation import Decision, DecisionKind, TargetPattern
from .simulator import RoundRecord

PathLike = Union[str, Path]

_KIND = {DecisionKind.STAY: "stay", DecisionKind.MOVE: "move", DecisionKind.TERMINATE: "terminate"}
_KIND_BACK = {v: k for k, v in _KIND.items()}
_DIR = {Direction.FORWARD: "forward", Direction.REVERSE: "reverse"}
_DIR_BACK = {v: k for k, v in _DIR.items()}


# ---------------------------------------------------------------------------
# instance files


def save_config(c: Configuration, path: PathLike) -> None:
    doc = {"positions": [format_turn(p) for p in c.positions]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_config(path: PathLike) -> Configuration:
    doc = _load_json(path)
    positions = _field(doc, "positions", list, str(path))
    return Configuration.from_positions(parse_turn(str(p)) for p in positions)


def save_pattern(pattern: TargetPattern, path: PathLike) -> None:
    # the file keeps the gaps as given; canonicalisation happens on load
    doc = {"pattern": [format_turn(g) for g in pattern.original]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_pattern(path: PathLike) -> TargetPattern:
    doc = _load_json(path)
    gaps = _field(doc, "pattern", list, str(path))
    return TargetPattern.from_angles(parse_turn(str(g)) for g in gaps)


def _load_json(path: PathLike) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    return doc


def _field(doc: Mapping[str, Any], name: str, typ: type, where: str):
    if name not in doc:
        raise StructuralError(f"{where}: missing field {name!r}")
    value = doc[name]
    if not isinstance(value, typ):
        raise StructuralError(f"{where}: field {name!r} must be a {typ.__name__}")
    return value


# ---------------------------------------------------------------------------
# decisions and classes as JSON values


def decision_to_json(d: Decision) -> dict:
    out: dict[str, Any] = {"kind": _KIND[d.kind], "branch": d.branch}
    if d.is_move:
        out["to"] = format_turn(d.destination)
        out["dir"] = _DIR[d.path_direction]
    return out


def decision_from_json(obj: Any, where: str) -> Decision:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise StructuralError(f"{where}: decision must be an object with a 'kind'")
    kind = _KIND_BACK.get(obj["kind"])
    if kind is None:
        raise StructuralError(f"{where}: unknown decision kind {obj['kind']!r}")
    branch = obj.get("branch", "")
    if kind is not DecisionKind.MOVE:
        return Decision(kind, branch=str(branch))
    if "to" not in obj or "dir" not in obj:
        raise StructuralError(f"{where}: a move needs 'to' and 'dir'")
    direction = _DIR_BACK.get(obj["dir"])
    if direction is None:
        raise StructuralError(f"{where}: unknown direction {obj['dir']!r}")
    return Decision(kind, parse_turn(str(obj["to"])), direction, str(branch))


def class_to_json(cls: ConfigClass) -> dict:
    if isinstance(cls, Symmetric):
        return {"kind": "symmetric", "fold": cls.fold}
    if isinstance(cls, LeaderConfig):
        return {"kind": "leader", "leader": cls.leader, "pivotal": _DIR[cls.pivotal]}
    assert isinstance(cls, DoubleNomineeTied)
    return {
        "kind": "tied",
        "nominees": [cls.nominee_a, cls.nominee_b],
        "bisector": cls.bisector_robot,
    }


def class_from_json(obj: Any, where: str) -> ConfigClass:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise StructuralError(f"{where}: class must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "symmetric":
        return Symmetric(int(_field(obj, "fold", int, where)))
    if kind == "leader":
        direction = _DIR_BACK.get(obj.get("pivotal"))
        if direction is None:
            raise StructuralError(f"{where}: unknown pivotal direction")
        return LeaderConfig(int(_field(obj, "leader", int, where)), direction)
    if kind == "tied":
        nominees = _field(obj, "nominees", list, where)
        if len(nominees) != 2:
            raise StructuralError(f"{where}: a tie names exactly two nominees")
        bis = obj.get("bisector")
        return DoubleNomineeTied(
            int(nominees[0]), int(nominees[1]), None if bis is None else int(bis)
        )
    raise StructuralError(f"{where}: unknown class kind {kind!r}")


# ---------------------------------------------------------------------------
# traces


def record_to_json(rec: RoundRecord) -> dict:
    return {
        "round": rec.round,
        "epoch": rec.epoch,
        "activated": list(rec.activated),
        "decisions": {str(i): decision_to_json(d) for i, d in sorted(rec.decisions.items())},
        "positions_before": [format_turn(p) for p in rec.positions_before],
        "positions_after": [format_turn(p) for p in rec.positions_after],
        "class": class_to_json(rec.config_class),
    }


def record_from_json(obj: Any, line_no: int) -> RoundRecord:
    where = f"line {line_no}"
    try:
        if not isinstance(obj, dict):
            raise StructuralError(f"{where}: expected a JSON object")
        rnd = int(_field(obj, "round", int, where))
        epoch = int(_field(obj, "epoch", int, where))
        activated = tuple(int(i) for i in _field(obj, "activated", list, where))
        raw_dec = _field(obj, "decisions", dict, where)
        decisions = {
            int(i): decision_from_json(d, where) for i, d in raw_dec.items()
        }
        before = tuple(parse_turn(str(p)) for p in _field(obj, "positions_before", list, where))
        after = tuple(parse_turn(str(p)) for p in _field(obj, "positions_after", list, where))
        cls = class_from_json(_field(obj, "class", dict, where), where)
    except (CircleFormError, ValueError, TypeError) as exc:
        raise TraceParseError(line_no, str(exc)) from exc
    if len(before) != len(after):
        raise TraceParseError(line_no, "positions_before and positions_after differ in length")
    if not activated:
        raise TraceParseError(line_no, "no robot activated")
    if len(set(activated)) != len(activated):
        raise TraceParseError(line_no, "activated ids repeat")
    if set(activated) != set(decisions):
        raise TraceParseError(line_no, "activated ids and decision keys disagree")
    outside = sorted(i for i in activated if not 0 <= i < len(before))
    if outside:
        raise TraceParseError(line_no, f"robot id {outside[0]} is not in 0..{len(before) - 1}")
    return RoundRecord(rnd, epoch, activated, decisions, before, after, cls)


def write_trace(records: Iterable[RoundRecord], path: PathLike) -> None:
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), separators=(",", ":")) + "\n")


def read_trace(path: PathLike) -> list[RoundRecord]:
    """Parse a JSONL trace; malformed lines raise TraceParseError with the
    1-based line number."""
    out: list[RoundRecord] = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(line_no, f"not valid JSON: {exc.msg}") from exc
            out.append(record_from_json(obj, line_no))
    return out
