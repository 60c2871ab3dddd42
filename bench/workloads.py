"""The four workloads: inputs made from (seed, block), the timed operations,
and the check each operation's output must pass.

An operation is one run (det-sweep, rand-sweep), one instance explored
(explore) or one stored trace read, verified and re-encoded (verify).  Every
block runs in its own interpreter, so the rule's caches start cold, as they
do for a user of the ``circleform`` command.

Why these workloads:

* det-sweep is the acceptance battery's shape: every robot count of the
  battery, each instance under the four schedulers in the battery's order
  (the consecutive schedulers on one instance are what make the decision
  cache hit at all).  It is dominated by the decision rule, gap extraction
  and canonicalisation at n=15.
* rand-sweep runs the same modules at small even n in randomized mode, in
  the shape of the randomized acceptance criterion: every tenth instance is
  a tied start under fsync.  The 2**61 tie-break draws make position
  denominators far wider than on the instance grid, so a change that wins on
  small denominators but loses on wide ones shows here, and an O(n^2) to
  O(n) change should show no gain.
* explore drives the same modules through the exhaustive explorer: both
  orientations per decision and a collision check, classification and
  formation test per edge, on n=4 and n=5 starts.  The weakened-rule start
  must be caught.
* verify is the only workload where trace decoding and encoding do work;
  it replays traces that another process wrote, so the timed process starts
  cold.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

WORKLOADS = ("det-sweep", "rand-sweep", "explore", "verify")
SWEEPS = ("det-sweep", "rand-sweep")
SCHEDULERS = ("fsync", "rr", "random", "lazy")
DET_NS = (3, 5, 7, 9, 11, 15)
RAND_NS = (4, 6, 8)
RAND_DECADES = 2
# (n, instances per block).  No n=3 instances: about one random n=3 start
# in 3 000 has a counterexample (see KNOWN_DEFECTS), and an operation of a
# workload must not fail.  No counterexample turned up in 8 000 random n=4
# and 20 000 random n=5 starts.
EXPLORE_INSTANCES = ((4, 30), (5, 50))
EXPLORE_BUDGET = 6
# Explore starts on which the rule is wrong at this commit: activating one
# robot alone, finish_near makes a mirror-symmetric configuration and the
# leader is lost.  Every explore run explores them once, untimed, and prints
# whether each counterexample still reproduces; the result is not a check.
KNOWN_DEFECTS = ((3, 111442966), (3, 927313916))
VERIFY_NS = (9, 11, 15)
VERIFY_SETS = 8
MODULES = ("angles", "configuration", "formation", "simulator", "formats", "cli")

# The weakened-rule start from the acceptance suite: exploring it with the
# eps1-lower mutant must produce a counterexample.
MUTANT_START = (0, Fraction(1, 36), Fraction(11, 36), Fraction(20, 36), Fraction(27, 36))
MUTANT_PATTERN = (
    Fraction(1, 18), Fraction(1, 9), Fraction(2, 9), Fraction(5, 18), Fraction(1, 3)
)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def load_package(root: Path) -> SimpleNamespace:
    """Import circleform from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("circleform")
    if src not in Path(package.__file__).resolve().parents:
        raise ImportError(f"circleform imported from {package.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"circleform.{name}") for name in MODULES}
    return SimpleNamespace(package=package, modules=mods, **mods)


def bound(n: int, mode: str) -> int:
    """The formation-epoch bound every checked run must meet."""
    return n + 4 if mode == "det" else n + 6


def block_rng(seed: int, block: int) -> Random:
    return Random(seed * 1_000_003 + block)


# ---------------------------------------------------------------------------
# inputs: plain job tuples, a pure function of (seed, block)


def det_jobs(seed: int, block: int) -> list[tuple]:
    """(n, instance seed, scheduler) in the battery's order."""
    t = block_rng(seed, block).randrange(1 << 30)
    return [(n, n * 1_000_003 + t, name) for n in DET_NS for name in SCHEDULERS]


def rand_jobs(seed: int, block: int) -> list[tuple]:
    """(n, instance seed, scheduler, tied start) over whole decades of t."""
    rng = block_rng(seed, block)
    jobs = []
    for n in RAND_NS:
        for _ in range(RAND_DECADES):
            base = rng.randrange(1 << 24) * 10
            for t in range(base, base + 10):
                tied = t % 10 == 0
                name = "fsync" if tied else SCHEDULERS[t % len(SCHEDULERS)]
                jobs.append((n, n * 7919 + t, name, tied))
    return jobs


def explore_jobs(seed: int, block: int) -> list[tuple]:
    """(n, instance seed)."""
    rng = block_rng(seed, block)
    return [(n, rng.randrange(1 << 30)) for n, count in EXPLORE_INSTANCES for _ in range(count)]


def verify_jobs(seed: int, trace_set: int) -> list[tuple]:
    """(n, instance seed, scheduler) of one stored trace set."""
    t = block_rng(seed, trace_set).randrange(1 << 30)
    return [(n, n * 1_000_003 + t, name) for n in VERIFY_NS for name in SCHEDULERS]


def tied_even_instance(cf, n: int, seed: int):
    """Even-count start in the tied two-nominee class.

    Mirrors half the points through a diameter and retries until the start is
    asymmetric, tied, and clear of the pattern's gap floor (the same
    construction as the test suite's tied fixture).
    """
    rng = Random(seed)
    for _ in range(1000):
        half = sorted(rng.sample(range(1, 500), n // 2))
        pts = {Fraction(k, 1000) for k in half} | {1 - Fraction(k, 1000) for k in half}
        if len(pts) != n:
            continue
        c = cf.configuration.Configuration.from_positions(pts)
        if c.fold() != 1:
            continue
        if not isinstance(cf.configuration.classify(c), cf.configuration.DoubleNomineeTied):
            continue
        _, pattern = cf.cli.gen_instance(n, rng.randrange(1 << 30))
        if min(c.gaps) > pattern.min_gap_floor:
            return c, pattern
    raise CheckFailed(f"no tied instance for n={n}, seed={seed}")


# ---------------------------------------------------------------------------
# operations
#
# prepare() returns (cell, source, op, check) tuples.  ``source`` names the
# input so a failure can be reproduced; ``op`` is the timed call; ``check``
# runs untimed on its output and returns the counts the benchmark reports,
# raising CheckFailed when the output is wrong.


def _records_digest(cf, records, digest) -> None:
    encode = getattr(cf.formats.record_to_json, "__wrapped__", cf.formats.record_to_json)
    for rec in records:
        digest.update(json.dumps(encode(rec), separators=(",", ":")).encode() + b"\n")


def _run_op(cf, c0, pattern, name, mode, seed, digest):
    def op():
        return cf.simulator.run(c0, pattern, cf.cli.make_policy(name), mode=mode, seed=seed)

    def check(out):
        report, records = out
        if not report.ok:
            raise CheckFailed(f"run not ok: {report.violations[:3]}")
        if report.formed_epoch > bound(c0.n, mode):
            raise CheckFailed(f"formed in epoch {report.formed_epoch} > {bound(c0.n, mode)}")
        if digest is not None:
            _records_digest(cf, records, digest)
        used = len({id(d) for rec in records for d in rec.decisions.values()})
        return {"rounds": report.rounds, "used": used}

    return op, check


def _explore_op(cf, c0, pattern, mutant):
    def op():
        return cf.simulator.explore_schedules(c0, pattern, EXPLORE_BUDGET, mutant=mutant)

    def check(report):
        if mutant is None and report.counterexample is not None:
            raise CheckFailed(f"counterexample on a clean instance: {report.counterexample.reason}")
        if mutant is not None and report.counterexample is None:
            raise CheckFailed("the weakened rule was not caught")
        return {"rounds": report.edges, "states": report.states}

    return op, check


def _verify_op(cf, path: Path, pattern):
    def op():
        records = cf.formats.read_trace(path)
        problems = cf.cli.verify_trace(records, pattern, "det")
        encoded = [
            json.dumps(cf.formats.record_to_json(rec), separators=(",", ":"))
            for rec in records
        ]
        return records, problems, encoded

    def check(out):
        records, problems, encoded = out
        if problems:
            raise CheckFailed(f"verify_trace found {problems[:3]}")
        if encoded != path.read_text().splitlines():
            raise CheckFailed("re-encoded records differ from the stored lines")
        return {"rounds": len(records), "trace_bytes": path.stat().st_size}

    return op, check


def prepare(cf, workload: str, seed: int, block: int, workdir: Path, digest) -> list[tuple]:
    """Generate or load one block's inputs and return its operations.

    ``digest`` (a hashlib object or None) receives the encoded records of
    every sweep run, so that behaviour can be compared across commits.
    """
    ops = []
    if workload == "det-sweep":
        instances = {}
        for n, s, name in det_jobs(seed, block):
            if (n, s) not in instances:
                instances[(n, s)] = cf.cli.gen_instance(n, s)
            c0, pattern = instances[(n, s)]
            source = f"gen_instance({n}, {s})"
            ops.append((f"n={n} {name}", source, *_run_op(cf, c0, pattern, name, "det", s, digest)))
    elif workload == "rand-sweep":
        for n, s, name, tied in rand_jobs(seed, block):
            c0, pattern = tied_even_instance(cf, n, s) if tied else cf.cli.gen_instance(n, s)
            source = f"{'tied_even_instance' if tied else 'gen_instance'}({n}, {s}) {name}"
            ops.append((f"n={n}", source, *_run_op(cf, c0, pattern, name, "rand", s, digest)))
    elif workload == "explore":
        for n, s in explore_jobs(seed, block):
            c0, pattern = cf.cli.gen_instance(n, s)
            ops.append((f"n={n}", f"gen_instance({n}, {s})", *_explore_op(cf, c0, pattern, None)))
        start = cf.configuration.Configuration.from_positions(MUTANT_START)
        pattern = cf.formation.TargetPattern.from_angles(MUTANT_PATTERN)
        ops.append(("mutant", "MUTANT_START", *_explore_op(cf, start, pattern, "eps1-lower")))
    elif workload == "verify":
        trace_set = block % VERIFY_SETS
        patterns = {}
        for n, s, name in verify_jobs(seed, trace_set):
            if n not in patterns:
                patterns[n] = cf.formats.load_pattern(workdir / f"{trace_set}-{n}.pattern.json")
            pattern = patterns[n]
            path = workdir / f"{trace_set}-{n}-{name}.jsonl"
            ops.append((f"n={n} {name}", path.name, *_verify_op(cf, path, pattern)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def probe_known_defects(cf) -> list[str]:
    """One line per KNOWN_DEFECTS start: its counterexample, or that it is gone."""
    lines = []
    for n, s in KNOWN_DEFECTS:
        c0, pattern = cf.cli.gen_instance(n, s)
        report = cf.simulator.explore_schedules(c0, pattern, EXPLORE_BUDGET)
        found = report.counterexample
        lines.append(f"gen_instance({n}, {s}): "
                     + (f"counterexample: {found.reason}" if found else "no counterexample"))
    return lines


def write_traces(cf, seed: int, workdir: Path) -> str:
    """Write every verify trace set for ``seed``; return the traces' sha256."""
    digest = hashlib.sha256()
    for trace_set in range(VERIFY_SETS):
        instances = {}
        for n, s, name in verify_jobs(seed, trace_set):
            if n not in instances:
                instances[n] = cf.cli.gen_instance(n, s)
                cf.formats.save_pattern(instances[n][1], workdir / f"{trace_set}-{n}.pattern.json")
            c0, pattern = instances[n]
            report, records = cf.simulator.run(
                c0, pattern, cf.cli.make_policy(name), mode="det", seed=s
            )
            if not report.ok:
                raise CheckFailed(f"trace run n={n} {name} seed={s}: {report.violations[:3]}")
            path = workdir / f"{trace_set}-{n}-{name}.jsonl"
            cf.formats.write_trace(records, path)
            digest.update(path.read_bytes())
    return digest.hexdigest()
