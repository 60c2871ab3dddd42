"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py '<json task>'

The task is ``{"task": "block", "root", "workload", "seed", "block",
"traced", "workdir"}``, ``{"task": "write-traces", "root", "seed",
"workdir"}`` or ``{"task": "known-defects", "root"}``.  The worker prints one JSON object on its last stdout line.
``bench/run.py`` starts the workers one at a time; nothing else needs to.
"""

from __future__ import annotations

import time

_T0 = time.process_time()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

# A reference slice runs after any operation that ends at least this long
# after the previous slice, so host speed is sampled throughout a block.
REF_EVERY_S = 0.1


def cpu_time() -> float:
    """CPU seconds used by this process and the children it has waited for.

    Operations are timed in CPU time, not wall time: on a shared virtual
    machine the host takes the CPU away for a share of each second (steal
    time) that changes from minute to minute and is not the program's doing.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_unit() -> Fraction:
    """Fixed exact-arithmetic work that never changes between commits.

    Its rate, measured next to the workload, tracks the host's speed, which
    drifts on a shared machine independently of the code under test.
    """
    third, total = Fraction(1, 3), Fraction(0)
    for k in range(1, 400):
        total += third / k
    return total


def _time_reference() -> float:
    start = cpu_time()
    reference_unit()
    return cpu_time() - start


def _close_rates(pending: list, rates: list) -> None:
    """Take a reference slice and stamp the pending rows with their rate."""
    rates.append(1 / _time_reference())
    for row in pending:
        row.append((rates[-2] + rates[-1]) / 2)
    pending.clear()


def _layer_hooks(counters: dict) -> dict:
    def on_collision_check(c, decisions):
        movers = [d for d in decisions.values() if d.is_move]
        counters["pair_checks"] += len(movers) * c.n
        points = [*c.positions, *(d.destination for d in movers)]
        bits = max(p.denominator.bit_length() for p in points)
        counters["max_den_bits"] = max(counters["max_den_bits"], bits)

    return {"simulator.detect_collision": on_collision_check}


def run_block(task: dict) -> dict:
    cf = workloads.load_package(Path(task["root"]))
    tracer = absent = None
    counters = {"pair_checks": 0, "max_den_bits": 0}
    if task["traced"]:
        tracer = tracing.Tracer(clock=time.process_time)
        absent = tracing.install(tracer, cf.modules, _layer_hooks(counters))
    sweep = task["workload"] in workloads.SWEEPS
    digest = hashlib.sha256() if sweep and task["block"] == 0 else None
    ops = workloads.prepare(
        cf, task["workload"], task["seed"], task["block"], Path(task["workdir"]), digest
    )
    caches_before = tracing.cache_counts(cf.modules)
    setup_s = time.process_time() - _T0

    results, failures = [], []
    totals = {"used": 0, "trace_bytes": 0}
    # Each result row ends with the host's reference rate around it: the
    # mean of the reference slices just before and just after the operation.
    rates = [1 / _time_reference()]
    setup_rate, pending = rates[0], []
    last_ref = cpu_time()
    for cell, source, op, check in ops:
        start = cpu_time()
        try:
            out = op()
        except Exception:  # a failing operation is counted, not fatal
            failures.append(f"{cell} from {source}: {traceback.format_exc(limit=-2).strip()}")
            continue
        elapsed = cpu_time() - start
        try:
            counts = check(out)
        except workloads.CheckFailed as exc:
            failures.append(f"{cell} from {source}: {exc}")
            continue
        row = [cell, elapsed, counts["rounds"], counts.get("states", 0)]
        results.append(row)
        pending.append(row)
        for key in totals:
            totals[key] += counts.get(key, 0)
        if cpu_time() - last_ref >= REF_EVERY_S:
            _close_rates(pending, rates)
            last_ref = cpu_time()
    if pending:
        _close_rates(pending, rates)

    caches_after = tracing.cache_counts(cf.modules)
    caches = {
        name: None if before is None else [a - b for a, b in zip(caches_after[name], before)]
        for name, before in caches_before.items()
    }
    out = {
        "setup_s": setup_s,
        "attempted": len(ops),
        "results": results,
        "failures": failures,
        "setup_rate": setup_rate,
        "ref_rates": rates,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest() if digest is not None else None,
        "caches": caches,
        "version": getattr(cf.package, "__version__", "unknown"),
        **totals,
    }
    if tracer is not None:
        out["layers"] = tracing.summarize(tracer.spans)
        out["absent"] = absent
        out["spans"] = len(tracer.spans)
        out.update(counters)
    return out


def main(argv: list[str]) -> int:
    task = json.loads(argv[1])
    if task["task"] == "write-traces":
        cf = workloads.load_package(Path(task["root"]))
        digest = workloads.write_traces(cf, task["seed"], Path(task["workdir"]))
        print(json.dumps({"digest": digest}))
    elif task["task"] == "known-defects":
        cf = workloads.load_package(Path(task["root"]))
        print(json.dumps({"lines": workloads.probe_known_defects(cf)}))
    else:
        print(json.dumps(run_block(task)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
