"""Behaviour lock: regenerated traces and audit findings equal the stored corpus."""

import json

import pytest

from circleform.formats import read_trace
from circleform.simulator import verify_trace

import golden_corpus as gc

# the cases whose traces are stored as bytes, not only as a digest
STORED = [c for c in gc.cases() if c[:2] not in gc.DIGEST_ONLY]


def _stored_digests() -> dict[str, str]:
    out = {}
    for line in (gc.GOLDEN / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        out[name] = digest
    return out


@pytest.mark.parametrize("case", gc.cases(), ids=gc.case_name)
def test_trace_matches_golden(case, tmp_path):
    name = gc.case_name(case)
    fresh = tmp_path / name
    gc.write_case(case, fresh)
    if case[:2] in gc.DIGEST_ONLY:
        assert gc.sha256_of(fresh) == _stored_digests()[name]
    else:
        assert fresh.read_bytes() == (gc.GOLDEN / name).read_bytes()


@pytest.mark.parametrize("case", STORED, ids=gc.case_name)
def test_stored_trace_verifies_clean(case):
    mode = case[0]
    records = read_trace(gc.GOLDEN / gc.case_name(case))
    assert verify_trace(records, gc.start(case)[1], mode) == []


def test_corpus_is_complete_and_small():
    stored = {p.name for p in gc.GOLDEN.glob("*.jsonl")}
    digests = _stored_digests()
    expected = {gc.case_name(c) for c in gc.cases()}
    assert stored | set(digests) == expected
    assert stored == {gc.case_name(c) for c in STORED}
    assert not stored & set(digests)
    assert sum(p.stat().st_size for p in gc.GOLDEN.iterdir()) < 1_000_000


def test_audit_matches_corpus():
    assert gc.audit_corpus() == json.loads(gc.AUDIT.read_text())
