"""Golden corpus: seeded runs whose traces and audit findings must never change.

Each trace case is a run fixed by (mode, n, instance seed, scheduler).
Regenerate the stored files with

    PYTHONPATH=src python tests/golden_corpus.py

only when a change of behaviour is intended; ``tests/test_golden.py``
regenerates every case and compares it with what is stored.  Traces of the
largest robot count are stored as a sha256 in ``SHA256SUMS`` instead of as
bytes, to keep the corpus small.

``audit.json`` locks what the audits report: the ``RunReport`` of every
trace case, of the weakened-rule start under every scheduler, and of a run
cut by its epoch budget, plus the counterexamples that ``explore_schedules``
finds on the weakened-rule start and on the two known n=3 defects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

from circleform.cli import gen_instance, make_policy
from circleform.angles import format_turn
from circleform.formation import TargetPattern
from circleform.formats import write_trace
from circleform.simulator import FullSync, explore_schedules, run

from conftest import config, tied_even_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEDULERS = ("fsync", "rr", "random", "lazy")
DET_NS = (3, 5, 7, 9)
RAND_NS = (4, 6)
# (mode, n) whose traces are stored by digest only
DIGEST_ONLY = {("det", 9)}
AUDIT = GOLDEN / "audit.json"

PATTERN5 = TargetPattern.from_angles([F(1, 18), F(1, 9), F(2, 9), F(5, 18), F(1, 3)])
TIED5 = config(0, F(1, 12), F(1, 3), F(2, 3), F(11, 12))
SINGLE_NOMINEE5 = config(0, F(1, 12), F(1, 3), F(1, 2), F(17, 24))
# the start on which the eps1-lower mutant breaks shrink_second_gap
MUTANT_START = config(0, F(1, 36), F(11, 36), F(20, 36), F(27, 36))
MUTANT_SEEDS = range(5)
# n=3 starts on which exploration once found a counterexample
KNOWN_DEFECTS = ((3, 111442966), (3, 927313916))


def cases() -> list[tuple[str, int, int, str, bool]]:
    """(mode, n, instance seed, scheduler, tied start) for every case."""
    out = [("det", n, 1_000 + n, name, False) for n in DET_NS for name in SCHEDULERS]
    out += [("rand", n, 2_000 + n, name, False) for n in RAND_NS for name in SCHEDULERS]
    out.append(("rand", 6, 3_006, "fsync", True))
    # the odd tied start breaks its tie through the bisector robot
    out += [("det", 5, 3_005, name, True) for name in SCHEDULERS]
    return out


def start(case):
    """The case's starting configuration and pattern."""
    mode, n, seed, _, tied = case
    if not tied:
        return gen_instance(n, seed)
    if mode == "rand":
        return tied_even_instance(n, seed)
    return TIED5, PATTERN5


def case_name(case) -> str:
    mode, n, seed, name, tied = case
    return f"{mode}-n{n}-{'tied-' if tied else ''}{name}-{seed}.jsonl"


def run_case(case):
    """The case's run: (report, records)."""
    mode, _, seed, name, _ = case
    c0, pattern = start(case)
    return run(c0, pattern, make_policy(name), mode=mode, seed=seed)


def write_case(case, path: Path) -> None:
    write_trace(run_case(case)[1], path)


def mutant_runs():
    """(name, report, records) of the weakened rule from MUTANT_START."""
    out = []
    for name in SCHEDULERS:
        for seed in MUTANT_SEEDS:
            report, records = run(
                MUTANT_START, PATTERN5, make_policy(name),
                mode="det", seed=seed, mutant="eps1-lower",
            )
            out.append((f"eps1-lower-{name}-{seed}", report, records))
    return out


def _explored(c0, pattern, budget, mutant=None) -> dict:
    report = explore_schedules(c0, pattern, budget, mutant=mutant)
    out = {"states": report.states, "edges": report.edges, "counterexample": None}
    cx = report.counterexample
    if cx is not None:
        out["counterexample"] = {
            "path": [list(step) for step in cx.path],
            "reason": cx.reason,
            "positions": [format_turn(p) for p in cx.positions],
        }
    return out


def audit_corpus() -> dict:
    """Every audited outcome the corpus locks, as plain JSON values."""
    runs = {case_name(case): dataclasses.asdict(run_case(case)[0]) for case in cases()}
    for name, report, _ in mutant_runs():
        runs[name] = dataclasses.asdict(report)
    budget_cut, _ = run(SINGLE_NOMINEE5, PATTERN5, FullSync(), seed=0, max_epochs=1)
    runs["single-nominee5-max-epochs-1"] = dataclasses.asdict(budget_cut)
    explored = {"eps1-lower": _explored(MUTANT_START, PATTERN5, 2, "eps1-lower")}
    for n, seed in KNOWN_DEFECTS:
        explored[f"gen_instance({n}, {seed})"] = _explored(*gen_instance(n, seed), 6)
    return {"runs": runs, "explore": explored}


def dump_audit(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    sums = []
    for case in cases():
        path = GOLDEN / case_name(case)
        write_case(case, path)
        if case[:2] in DIGEST_ONLY:
            sums.append(f"{sha256_of(path)}  {path.name}\n")
            path.unlink()
    (GOLDEN / "SHA256SUMS").write_text("".join(sums))
    AUDIT.write_text(dump_audit(audit_corpus()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
