"""Benchmark for circleform: end-to-end and per-layer metrics on four workloads.

    python3 bench/run.py --workload det-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/`` and nowhere else.  The command starts one worker
interpreter per block of operations (see ``bench/workloads.py``), one at a
time, until ``--seconds`` have passed, checks every operation's output, and
prints a readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` blocks alternate between an untraced and a traced worker
on the same inputs; the metrics are the per-layer ones, measured in the
traced workers, and the report adds the traced run's end-to-end numbers
next to the untraced ones.  Exit code 0 when every check passed, 1 when an
operation failed its check, 2 when the benchmark could not run.

Self-tests: ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import BOUNDARIES, CACHES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 60
# Workers time operations in CPU time (see worker.cpu_time), and the speed
# of the CPU itself still drifts by more than a third within a minute on a
# shared machine.  Every worker times a fixed reference computation next to
# its operations, and reported times are scaled to a host that runs this
# many reference units per second; the unscaled figures are printed too.
REF_UNITS_PER_S = 400.0
# p95 is reported only with at least this many operations, so that ten or
# more samples lie beyond it.
P95_MIN_OPS = 200

END_TO_END = (
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("peak_rss_mb", "MB"),
)
# Printed for every workload but not gated.  The operation-time percentiles
# mix unlike operations: on verify (twelve trace kinds, about a hundred
# operations a run) the median falls between two kinds, and over ten seeds
# on a 2-core host its interquartile range was 11% of its median.
REPORT_UNITS = dict(END_TO_END) | {
    "op_ms_p50": "ms", "op_ms_p95": "ms", "states_per_s": "states/s",
    "edges_per_s": "edges/s", "failed_frac": "ratio",
}

# per-layer metric name -> unit; the values come from layer_metrics().  The
# comments name the end-to-end figure each group should move, and where.
PER_LAYER = {
    # rounds_per_s on every workload
    "angles.gaps_of.calls": "count/op",
    "angles.gaps_of.busy_s": "s/op",
    # n=15 operation times on det-sweep; no change expected on rand-sweep
    "angles.canonical_cycle.calls": "count/op",
    "angles.canonical_cycle.busy_s": "s/op",
    "angles.canonical_cache.hit_ratio": "ratio",
    # explains a rand-sweep vs det-sweep divergence
    "angles.max_den_bits": "bits",
    # rounds_per_s on det-sweep
    "configuration.snapshot_of.calls": "count/op",
    "configuration.snapshot_of.busy_s": "s/op",
    # rounds_per_s on rand-sweep and explore
    "configuration.classify.calls": "count/op",
    "configuration.classify.busy_s": "s/op",
    "configuration.classify_cache.hit_ratio": "ratio",
    # rounds_per_s on det-sweep and explore
    "formation.compute.calls": "count/op",
    "formation.compute.busy_s": "s/op",
    "formation.compute.self_s": "s/op",
    "formation.compute.used_ratio": "ratio",
    "formation.decide_cache.hit_ratio": "ratio",
    # rounds_per_s on explore
    "formation.pattern_formed.calls": "count/op",
    "formation.pattern_formed.busy_s": "s/op",
    # rounds_per_s on both sweeps, and on explore
    "simulator.run.self_s": "s/op",
    "simulator.explore_schedules.self_s": "s/op",
    # n=15 fsync operation times on det-sweep and rounds_per_s on explore;
    # no change expected on rand-sweep
    "simulator.detect_collision.calls": "count/op",
    "simulator.detect_collision.busy_s": "s/op",
    "simulator.detect_collision.pair_checks": "count/op",
    # rounds_per_s on det-sweep
    "simulator.phase_of.calls": "count/op",
    "simulator.phase_of.busy_s": "s/op",
    # rounds_per_s on verify; zero on the sweeps
    "formats.record_from_json.calls": "count/op",
    "formats.record_from_json.busy_s": "s/op",
    "formats.record_to_json.busy_s": "s/op",
    "formats.trace_bytes": "bytes/op",
    # setup_s
    "cli.gen_instance.busy_s": "s/op",
    # rounds_per_s on verify
    "cli.verify_trace.self_s": "s/op",
    # traced over untraced busy time, minus one
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_worker(task: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(task)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# aggregation


def _speed(rate: float) -> float:
    return rate / REF_UNITS_PER_S


def scaled_busy(block: dict) -> float:
    """The block's operation time, each operation scaled by its host speed."""
    return sum(r[1] * _speed(r[4]) for r in block["results"])


def host_speed(block: dict) -> float:
    """Median host speed over the block's reference slices."""
    return _speed(statistics.median(block["ref_rates"]))


def end_to_end(blocks: list[dict], scaled: bool = True) -> dict:
    """Every end-to-end figure, keyed by metric name (info figures included).

    With ``scaled`` each operation's time is multiplied by the host speed
    measured around it (set-up time by the speed measured right after it),
    so the figures read as on a host running REF_UNITS_PER_S reference units
    per second.  Rates are totals over all blocks: total rounds over total
    busy time.
    """
    def op_s(r):
        return r[1] * (_speed(r[4]) if scaled else 1.0)

    rows = [r for b in blocks for r in b["results"]]
    busy = sum(op_s(r) for r in rows)
    op_ms = sorted(1000 * op_s(r) for r in rows)
    attempted = sum(b["attempted"] for b in blocks)
    out = {
        "setup_s": statistics.median(
            b["setup_s"] * (_speed(b["setup_rate"]) if scaled else 1.0) for b in blocks
        ),
        "rounds_per_s": sum(r[2] for r in rows) / busy,
        "op_ms_p50": statistics.median(op_ms),
        "peak_rss_mb": statistics.median(b["rss_mb"] for b in blocks),
        "ops": len(op_ms),
        "failed_frac": sum(len(b["failures"]) for b in blocks) / attempted,
        "host_speed": statistics.median(host_speed(b) for b in blocks),
    }
    if len(op_ms) >= P95_MIN_OPS:
        out["op_ms_p95"] = statistics.quantiles(op_ms, n=20)[-1]
    states = sum(r[3] for r in rows)
    if states:
        out["states_per_s"] = states / busy
        out["edges_per_s"] = out["rounds_per_s"]
    return out


def cell_breakdown(blocks: list[dict]) -> dict:
    """Per cell: [operations, scaled seconds, measured seconds, rounds]."""
    cells: dict[str, list] = {}
    for b in blocks:
        for cell, sec, rounds, _, rate in b["results"]:
            entry = cells.setdefault(cell, [0, 0.0, 0.0, 0])
            entry[0] += 1
            entry[1] += sec * _speed(rate)
            entry[2] += sec
            entry[3] += rounds
    return cells


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[dict], pairs: list[tuple[dict, dict]]) -> tuple[dict, list]:
    """Per-layer values from the traced blocks, and the names found absent.

    Counts and times are per operation, times scaled by host speed like the
    end-to-end figures.  ``pairs`` holds (untraced, traced) blocks run on the
    same inputs; their busy-time ratio gives the tracing overhead.
    """
    ops = sum(len(b["results"]) for b in traced)
    absent = sorted({name for b in traced for name in b["absent"]})
    stats: dict[str, list] = {}
    for b in traced:
        speed = host_speed(b)
        for name, (calls, busy, self_s) in b["layers"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy * speed
            entry[2] += self_s * speed
    values: dict[str, float] = {}
    for prefix, _, _ in BOUNDARIES:
        if prefix in absent:
            continue
        calls, busy, self_s = stats.get(prefix, (0, 0.0, 0.0))
        values[f"{prefix}.calls"] = calls / ops
        values[f"{prefix}.busy_s"] = busy / ops
        values[f"{prefix}.self_s"] = self_s / ops
    for prefix, _, _ in CACHES:
        counts = [b["caches"][prefix] for b in traced]
        if any(c is None for c in counts):
            absent.append(prefix)
            continue
        hits = sum(c[0] for c in counts)
        values[f"{prefix}.hit_ratio"] = _ratio(hits, hits + sum(c[1] for c in counts))
    values["angles.max_den_bits"] = max(b["max_den_bits"] for b in traced)
    values["simulator.detect_collision.pair_checks"] = sum(b["pair_checks"] for b in traced) / ops
    values["formats.trace_bytes"] = sum(b["trace_bytes"] for b in traced) / ops
    if "formation.compute" not in absent:
        compute_calls = stats.get("formation.compute", (0,))[0]
        values["formation.compute.used_ratio"] = _ratio(
            sum(b["used"] for b in traced), compute_calls
        )
    values["trace.overhead"] = statistics.median(
        scaled_busy(t) / scaled_busy(u) for u, t in pairs
    ) - 1
    return {k: v for k, v in values.items() if k in PER_LAYER}, absent


# ---------------------------------------------------------------------------
# report


def machine_facts(version: str) -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "circleform": version,
        "commit": git_commit(ROOT),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(workload: str, blocks: list[dict], label: str) -> dict:
    scaled, measured = end_to_end(blocks), end_to_end(blocks, scaled=False)
    print(f"{workload} [{label}]: {len(blocks)} blocks, {scaled['ops']} operations, "
          f"median host speed {scaled['host_speed']:.3f}")
    print(f"  {'metric':<16} {'scaled':>12} {'measured':>12}")
    for name, unit in REPORT_UNITS.items():
        if name in scaled:
            print(f"  {name:<16} {_fmt(scaled[name]):>12} {_fmt(measured[name]):>12} {unit}")
    if "op_ms_p95" not in scaled:
        print(f"  op_ms_p95        not reported: fewer than {P95_MIN_OPS} operations")
    return scaled


def _cell_order(cell: str):
    head = cell.split()[0]
    return (int(head[2:]) if head.startswith("n=") else 1 << 30, cell)


def print_cells(blocks: list[dict]) -> None:
    print(f"  {'cell':<14} {'ops':>5} {'ms/op':>10} {'ms/round':>10} {'measured':>10}")
    cells = cell_breakdown(blocks)
    for cell in sorted(cells, key=_cell_order):
        count, scaled, measured, rounds = cells[cell]
        print(f"  {cell:<14} {count:>5} {1000 * scaled / count:>10.3f} "
              f"{_ratio(1000 * scaled, rounds):>10.4f} {_ratio(1000 * measured, rounds):>10.4f}")


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed non-negative")
    return args


def measure(args, workdir: Path) -> tuple[list[dict], list[dict]]:
    """Run blocks until the time is up: (untraced blocks, traced blocks)."""
    task = {
        "task": "block", "root": str(ROOT), "workload": args.workload,
        "seed": args.seed, "workdir": str(workdir),
    }
    plain, traced = [], []
    start = time.perf_counter()
    block = 0
    while True:
        plain.append(run_worker({**task, "block": block, "traced": False}))
        if args.trace:
            traced.append(run_worker({**task, "block": block, "traced": True}))
        block += 1
        if time.perf_counter() - start >= args.seconds:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        if args.workload == "verify":
            t = time.perf_counter()
            written = run_worker({
                "task": "write-traces", "root": str(ROOT), "seed": args.seed,
                "workdir": str(workdir),
            })
            print(f"verify traces written in {time.perf_counter() - t:.2f} s, "
                  f"sha256 {written['digest']}")
        if args.workload == "explore":
            probe = run_worker({"task": "known-defects", "root": str(ROOT)})
            for line in probe["lines"]:
                print(f"known defect, not checked: {line}")
        plain, traced = measure(args, workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blocks = plain + traced
    failures = [f for b in blocks for f in b["failures"]]
    if not all(b["results"] for b in blocks):
        for msg in failures[:20]:
            print(f"FAILED {msg}")
        print("no operation of some block succeeded; nothing to measure", file=sys.stderr)
        return 1

    print("machine:", json.dumps(machine_facts(plain[0]["version"])))
    print("host speed per block:", " ".join(f"{host_speed(b):.3f}" for b in plain))
    e2e = print_report(args.workload, plain, "untraced")
    print_cells(plain)
    if plain[0]["digest"] is not None:
        print(f"  block 0 records sha256 {plain[0]['digest']}")
    if traced and traced[0]["digest"] != plain[0]["digest"]:
        failures.append("block 0 records differ between the traced and untraced worker")

    if args.trace:
        traced_e2e = print_report(args.workload, traced, "traced")
        print("  tracing overhead (traced / untraced - 1):")
        for name, _ in END_TO_END:
            print(f"    {name:<16} {_fmt(traced_e2e[name] / e2e[name] - 1):>12}")
        values, absent = layer_metrics(traced, list(zip(plain, traced)))
        spans = sum(b["spans"] for b in traced)
        print(f"  spans recorded: {spans}; absent boundaries: {absent or 'none'}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items() if name in values}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    for msg in failures[:20]:
        print(f"FAILED {msg}")
    attempted = sum(b["attempted"] for b in blocks)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
