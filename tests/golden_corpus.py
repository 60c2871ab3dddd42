"""Golden-trace corpus: seeded runs whose trace bytes must never change.

Each case is a run fixed by (mode, n, instance seed, scheduler).  Regenerate
the stored files with

    PYTHONPATH=src python tests/golden_corpus.py

only when a change of behaviour is intended; ``tests/test_golden.py``
regenerates every case and compares it with what is stored.  Traces of the
largest robot count are stored as a sha256 in ``SHA256SUMS`` instead of as
bytes, to keep the corpus small.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction as F
from pathlib import Path

from circleform.cli import gen_instance, make_policy
from circleform.formation import TargetPattern
from circleform.formats import write_trace
from circleform.simulator import run

from conftest import config, tied_even_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEDULERS = ("fsync", "rr", "random", "lazy")
DET_NS = (3, 5, 7, 9)
RAND_NS = (4, 6)
# (mode, n) whose traces are stored by digest only
DIGEST_ONLY = {("det", 9)}


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
    tied5 = config(0, F(1, 12), F(1, 3), F(2, 3), F(11, 12))
    return tied5, TargetPattern.from_angles([F(1, 18), F(1, 9), F(2, 9), F(5, 18), F(1, 3)])


def case_name(case) -> str:
    mode, n, seed, name, tied = case
    return f"{mode}-n{n}-{'tied-' if tied else ''}{name}-{seed}.jsonl"


def write_case(case, path: Path) -> None:
    mode, _, seed, name, _ = case
    c0, pattern = start(case)
    _, records = run(c0, pattern, make_policy(name), mode=mode, seed=seed)
    write_trace(records, path)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
