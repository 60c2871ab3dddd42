"""On-disk formats: JSON instance files and JSONL round traces.

Instances are small JSON documents ({"positions": [...]} for configurations,
{"pattern": [...]} for target patterns) with every angle written as an exact
'p/q' fraction of a turn.  A trace is one JSON object per line per round,
with fixed field names, so runs can be replayed and audited offline.

Decoding parses each distinct angle text, each distinct list of angle
texts and each distinct decision once (``parse_turn``, ``_parse_turns`` and
``_decision`` are cached), so decoded records share immutable Fraction,
position tuple and ``Decision`` objects: an idle round's positions are one
tuple, which is the round before's ``positions_after``.  A stay or
termination the rule makes decodes to the rule's own shared ``Decision``,
so a replay compares it with the rule's by identity.  Decisions decode
to read-only mappings.  A line that repeats the line before except for
its round, as most lines of a lazy trace do, costs little more than its
round number: it reads as the record before with the new round, without
a second JSON decode (``read_trace``), and only such a line shares the
line before's decisions mapping.  Encoding formats a position tuple only
when it is not the one encoded last (``record_to_json``), and every
record's decisions afresh.  Ids, rounds, epochs and class fields must be
JSON integers; booleans, floats and strings are refused.
Angles, decision destinations and branches must be JSON strings: a number
is refused, not read as its decimal expansion.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from .angles import Direction, Turn, format_turn, parse_turn
from .configuration import (
    ConfigClass,
    Configuration,
    DoubleNomineeTied,
    LeaderConfig,
    Symmetric,
)
from .errors import CircleFormError, StructuralError, TraceParseError
from .formation import _FORMED, _STAYS, Decision, DecisionKind, TargetPattern
from .simulator import RoundRecord, _record_fault

PathLike = Union[str, Path]

# decoding tables; encoding reads a kind's value and tests a direction's identity
_KIND_BACK = {k.value: k for k in DecisionKind}
_DIR_BACK = {"forward": Direction.FORWARD, "reverse": Direction.REVERSE}
# a trace line's head: its first key, the round, as JSON writes a whole number
_HEAD = re.compile(r'\{"round":(0|[1-9][0-9]*),')


# ---------------------------------------------------------------------------
# instance files


def save_config(c: Configuration, path: PathLike) -> None:
    doc = {"positions": [format_turn(p) for p in c.positions]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_config(path: PathLike) -> Configuration:
    return Configuration.from_positions(_turns(_load_json(path), "positions", str(path)))


def save_pattern(pattern: TargetPattern, path: PathLike) -> None:
    # the file keeps the gaps as given; canonicalisation happens on load
    doc = {"pattern": [format_turn(g) for g in pattern.original]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_pattern(path: PathLike) -> TargetPattern:
    return TargetPattern.from_angles(_turns(_load_json(path), "pattern", str(path)))


def _load_json(path: PathLike) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError(f"{path}: expected a JSON object")
    return doc


def _at(where: str, msg: str) -> str:
    """``msg`` located at ``where``; an empty ``where`` adds nothing."""
    return f"{where}: {msg}" if where else msg


def _field(doc: Mapping[str, Any], name: str, typ: type, where: str):
    if name not in doc:
        raise StructuralError(_at(where, f"missing field {name!r}"))
    value = doc[name]
    # JSON decodes to exact types, so a boolean is not an int here
    if type(value) is not typ:
        article = "an" if typ is int else "a"
        raise StructuralError(_at(where, f"field {name!r} must be {article} {typ.__name__}"))
    return value


def _int_list(doc: Mapping[str, Any], name: str, where: str) -> tuple[int, ...]:
    values = _field(doc, name, list, where)
    if any(type(v) is not int for v in values):
        raise StructuralError(_at(where, f"field {name!r} must hold ints"))
    return tuple(values)


def _turns(doc: Mapping[str, Any], name: str, where: str) -> tuple[Turn, ...]:
    """The angles listed in field ``name``: 'p/q' strings, each parsed by
    ``parse_turn``, which refuses any other value.  Equal lists decode to
    one tuple (``_parse_turns``).  A list or an object cannot key that
    cache, so it is refused here."""
    try:
        return _parse_turns(tuple(_field(doc, name, list, where)))
    except TypeError:
        raise StructuralError(_at(where, f"field {name!r} must hold 'p/q' strings")) from None


@lru_cache(maxsize=1 << 8)
def _parse_turns(texts: tuple) -> tuple[Turn, ...]:
    """The one shared tuple of angles for a tuple of texts.  A text that
    does not parse raises, and nothing is cached for it; no other JSON value
    equals a string, so a cached key holds strings only."""
    return tuple(map(parse_turn, texts))


# ---------------------------------------------------------------------------
# decisions and classes as JSON values


def decision_to_json(d: Decision) -> dict:
    # ``_value_``, the JSON name: the ``value`` property costs more in CPython 3.11
    out: dict[str, Any] = {"kind": d.kind._value_, "branch": d.branch}
    if d.is_move:
        out["to"] = format_turn(d.destination)
        out["dir"] = "forward" if d.path_direction is Direction.FORWARD else "reverse"
    return out


def decision_from_json(obj: Any, where: str) -> Decision:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise StructuralError(f"{where}: decision must be an object with a 'kind'")
    kind = obj["kind"]
    # a JSON list or object cannot key the lookup tables, so test for a string first
    if not isinstance(kind, str) or kind not in _KIND_BACK:
        raise StructuralError(f"{where}: unknown decision kind {kind!r}")
    branch = obj.get("branch", "")
    if not isinstance(branch, str):
        raise StructuralError(f"{where}: branch must be a string")
    if kind != "move":
        return _decision(kind, branch, None, None)
    if "to" not in obj or "dir" not in obj:
        raise StructuralError(f"{where}: a move needs 'to' and 'dir'")
    if not isinstance(obj["dir"], str) or obj["dir"] not in _DIR_BACK:
        raise StructuralError(f"{where}: unknown direction {obj['dir']!r}")
    if not isinstance(obj["to"], str):
        raise StructuralError(f"{where}: 'to' must be a 'p/q' string")
    try:
        return _decision(kind, branch, obj["to"], obj["dir"])
    except StructuralError as e:  # an angle text or a destination refused
        raise StructuralError(f"{where}: {e}") from None


@lru_cache(maxsize=1 << 12)
def _decision(kind: str, branch: str, to: Optional[str], direction: Optional[str]) -> Decision:
    """The one shared Decision for validated decision fields, keyed on their
    texts (Decision is frozen, and text keys hash faster than enums).  A
    stay or termination the rule makes is the rule's own object
    (``formation._STAYS`` and ``_FORMED``)."""
    if to is None:
        if kind == "stay" and branch in _STAYS:
            return _STAYS[branch]
        if kind == "terminate" and branch == _FORMED.branch:
            return _FORMED
        return Decision(_KIND_BACK[kind], branch=branch)
    return Decision(DecisionKind.MOVE, parse_turn(to), _DIR_BACK[direction], branch)


def class_to_json(cls: ConfigClass) -> dict:
    if isinstance(cls, Symmetric):
        return {"kind": "symmetric", "fold": cls.fold}
    if isinstance(cls, LeaderConfig):
        pivotal = "forward" if cls.pivotal is Direction.FORWARD else "reverse"
        return {"kind": "leader", "leader": cls.leader, "pivotal": pivotal}
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
        return Symmetric(_field(obj, "fold", int, where))
    if kind == "leader":
        direction = _DIR_BACK.get(obj.get("pivotal"))
        if direction is None:
            raise StructuralError(f"{where}: unknown pivotal direction")
        return LeaderConfig(_field(obj, "leader", int, where), direction)
    if kind == "tied":
        nominees = _int_list(obj, "nominees", where)
        if len(nominees) != 2:
            raise StructuralError(f"{where}: a tie names exactly two nominees")
        bis = obj.get("bisector")
        if bis is not None and type(bis) is not int:
            raise StructuralError(f"{where}: field 'bisector' must be an int or null")
        return DoubleNomineeTied(nominees[0], nominees[1], bis)
    raise StructuralError(f"{where}: unknown class kind {kind!r}")


# ---------------------------------------------------------------------------
# traces


# the position tuple encoded last and its texts (see record_to_json), kept as
# one pair so that a concurrent caller never reads one without the other
_last_encoded: tuple[tuple, list[str]] = ((), [])


def _turn_texts(turns: Sequence[Turn]) -> list[str]:
    global _last_encoded
    last, texts = _last_encoded
    if turns is not last:
        texts = [format_turn(p) for p in turns]
        if type(turns) is tuple:
            _last_encoded = (turns, texts)
    return list(texts)


def record_to_json(rec: RoundRecord) -> dict:
    """The JSON object of one trace line.

    A position tuple is formatted only when it is not the object encoded
    last: an idle round's positions are one tuple, and so are a round's
    positions_after and the next round's positions_before, in ``run``'s
    records and in decoded ones.  The memo holds one tuple (so its id is
    not reused while it is held) and never a list, which a caller could
    change; every call returns fresh lists.  It is keyed on identity, not on
    the Fractions, whose hash costs more than formatting them.  Decisions
    are encoded afresh on every call, in id order.
    """
    return {
        "round": rec.round,
        "epoch": rec.epoch,
        "activated": list(rec.activated),
        "decisions": {str(i): decision_to_json(d) for i, d in sorted(rec.decisions.items())},
        "positions_before": _turn_texts(rec.positions_before),
        "positions_after": _turn_texts(rec.positions_after),
        "class": class_to_json(rec.config_class),
    }


def _robot_id(key: str) -> int:
    """A decision key, which must be the decimal form of a robot id."""
    try:
        rid = int(key)
    except ValueError:
        rid = None
    if rid is None or str(rid) != key:
        raise StructuralError(f"decision key {key!r} is not a robot id")
    return rid


def record_from_json(obj: Any, line_no: int) -> RoundRecord:
    """One trace line's record; its decisions are a read-only mapping."""
    # TraceParseError names the line, so the fields' errors name only their place in it
    try:
        if not isinstance(obj, dict):
            raise StructuralError("expected a JSON object")
        rnd = _field(obj, "round", int, "")
        epoch = _field(obj, "epoch", int, "")
        activated = _int_list(obj, "activated", "")
        raw = _field(obj, "decisions", dict, "")
        decisions = MappingProxyType({
            _robot_id(k): decision_from_json(d, f"decision {k}") for k, d in raw.items()
        })
        before = _turns(obj, "positions_before", "")
        after = _turns(obj, "positions_after", "")
        cls = class_from_json(_field(obj, "class", dict, ""), "class")
    except (CircleFormError, ValueError, TypeError) as exc:
        raise TraceParseError(line_no, str(exc)) from exc
    if len(before) != len(after):
        raise TraceParseError(line_no, "positions_before and positions_after differ in length")
    fault = _record_fault(activated, decisions, len(before))
    if fault is not None:
        raise TraceParseError(line_no, fault)
    return RoundRecord(rnd, epoch, activated, decisions, before, after, cls)


def write_trace(records: Iterable[RoundRecord], path: PathLike) -> None:
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), separators=(",", ":")) + "\n")


def read_trace(path: PathLike) -> list[RoundRecord]:
    """Parse a JSONL trace; malformed lines raise TraceParseError with the
    1-based line number.

    The records share immutable objects: equal angle texts decode to one
    Fraction, equal decisions to one ``Decision`` and equal position lists
    to one tuple, across records and across calls.  So an idle record's
    ``positions_after`` is its ``positions_before``, and a record's
    ``positions_before`` is the previous record's ``positions_after``.

    A line is ``{"round":N,`` (N written as JSON writes a whole number)
    followed by its body.  A line whose body is the previous record's is
    that record with round N: it is not decoded, and its shared objects are
    the record before's, its decisions mapping too; no other two records
    share a decisions mapping.  Every line is still checked in full, since
    the same body after any such head decodes to the same fields but the
    round, and the body passed every check on the line before.  A body is
    reused only when it holds no ``"round"`` text and no backslash, so that
    no second ``round`` key, escaped or not, can override the head; any
    other line, blank, malformed or written another way, is decoded as
    before.
    """
    out: list[RoundRecord] = []
    body = None  # the text after the previous record's head, when it may be reused
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            head = _HEAD.match(line)
            if (body is not None and head is not None
                    and head.end() + len(body) == len(line) and line.endswith(body)):
                rec = out[-1]
                out.append(RoundRecord(int(head[1]), rec.epoch, rec.activated, rec.decisions,
                                       rec.positions_before, rec.positions_after,
                                       rec.config_class))
                continue
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceParseError(line_no, f"not valid JSON: {exc.msg}") from exc
            out.append(record_from_json(obj, line_no))
            body = None
            if head is not None:
                rest = line[head.end():]
                if '"round"' not in rest and "\\" not in rest:
                    body = rest
    return out
