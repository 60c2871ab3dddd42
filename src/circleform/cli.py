"""Command-line harness around the simulator.

The commands parse arguments, call the library (instances from
``formation``; runs, sweeps, exploration and trace verification from
``simulator``) and print the results.  Subcommands:

* ``gen``      write a seeded instance (configuration and pattern files)
* ``run``      simulate one run, optionally tracing and rendering SVG frames
* ``batch``    sweep robot counts by schedulers; CSV plus a readable table
* ``explore``  exhaustively check every schedule on a small instance
* ``symmetry`` fully synchronous rounds from symmetric starts, fold trajectory
* ``verify``   replay a recorded trace and apply ``run``'s audit to it

Exit codes: 0 when all checks pass, 1 for usage or input problems, 2 when a
run violates an invariant, a counterexample or collision is found, the input
is unsolvable, or a trace fails verification.  ``--seed`` falls back to the
``APF_SEED`` environment variable, then to 0, so sweeps are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Optional, Sequence

from .angles import format_turn
from .configuration import Configuration
from .errors import (
    CircleFormError,
    InvariantViolationError,
    PreconditionError,
    StructuralError,
    SymmetricConfigurationError,
    TraceParseError,
)
from .formation import MUTANTS, gen_instance, symmetric_instance
from .formats import (
    load_config,
    load_pattern,
    read_trace,
    save_config,
    save_pattern,
    write_trace,
)
from .simulator import (
    POLICIES,
    SYMMETRY_RULES,
    RoundRecord,
    RunReport,
    batch,
    explore_schedules,
    fsync_symmetry_experiment,
    make_policy,
    run,
    verify_trace,
)


# ---------------------------------------------------------------------------
# batch sweeps

CSV_COLUMNS = (
    "n", "scheduler", "trials", "formed", "max_epochs", "mean_epochs",
    "bound", "violations", "collisions",
)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def write_batch_csv(rows: Sequence[dict], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])


def format_batch_table(rows: Sequence[dict]) -> str:
    header = [col for col in CSV_COLUMNS]
    body = [[_format_cell(row[col]) for col in CSV_COLUMNS] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def batch_ok(rows: Sequence[dict]) -> bool:
    return all(
        row["violations"] == 0
        and row["collisions"] == 0
        and row["formed"] == row["trials"]
        and (row["max_epochs"] is None or row["max_epochs"] <= row["bound"])
        for row in rows
    )


# ---------------------------------------------------------------------------
# SVG rendering


def render_svg(positions: Sequence[Fraction], caption: str) -> str:
    """A minimal standalone picture of one configuration."""
    size, r = 400, 160
    cx = cy = size // 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for rid, p in enumerate(positions):
        theta = 2 * math.pi * float(p)
        x = cx + r * math.cos(theta)
        y = cy - r * math.sin(theta)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="#1f6fb2"/>')
        lx = cx + (r + 14) * math.cos(theta)
        ly = cy - (r + 14) * math.sin(theta)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" text-anchor="middle" '
            f'dominant-baseline="middle" fill="#333">{rid}</text>'
        )
    parts.append(
        f'<text x="{cx}" y="{size - 12}" font-size="12" text-anchor="middle" '
        f'fill="#333">{caption}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_epoch_svgs(
    c0: Configuration, records: Sequence[RoundRecord], out_dir
) -> list[Path]:
    """Write one frame for the start and one per epoch boundary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    path = out / "epoch_000.svg"
    path.write_text(render_svg(c0.positions, "start"))
    written.append(path)
    for i, rec in enumerate(records):
        last = i + 1 == len(records)
        if last or records[i + 1].epoch != rec.epoch:
            path = out / f"epoch_{rec.epoch:03d}.svg"
            path.write_text(
                render_svg(rec.positions_after, f"after epoch {rec.epoch}")
            )
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# command handlers


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("APF_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"APF_SEED must be an integer, got {env!r}")


def _print_report(report: RunReport) -> None:
    if report.formed:
        print(
            f"formed in epoch {report.formed_epoch} (bound {report.bound}); "
            f"{report.epochs} epochs, {report.rounds} rounds, "
            f"{report.terminated}/{report.n} terminated"
        )
    else:
        print(
            f"did not form: {report.epochs} epochs, {report.rounds} rounds, "
            f"{report.terminated}/{report.n} terminated"
        )
    if report.joint_tiebreaks:
        print(f"joint tie-break rounds: {report.joint_tiebreaks}")
    for v in report.violations:
        print(f"violation: {v}")


def _cmd_gen(args) -> int:
    if args.fold < 1:
        raise PreconditionError("--fold must be at least 1")
    seed = _resolve_seed(args.seed)
    if args.fold > 1:
        per_sector = max(1, args.n // args.fold)
        if per_sector * args.fold != args.n:
            raise PreconditionError("--n must be a multiple of --fold")
        if args.q is not None and args.q % args.fold:
            raise PreconditionError("--q must be a multiple of --fold")
        _, pattern = gen_instance(args.n, seed, args.q)
        # a sector grid of q / fold puts the start on the 1/q grid
        grid = None if args.q is None else args.q // args.fold
        c = symmetric_instance(args.fold, per_sector, seed, grid)
    else:
        c, pattern = gen_instance(args.n, seed, args.q)
    save_config(c, args.config)
    save_pattern(pattern, args.pattern)
    print(f"wrote {args.config} (n={c.n}, fold={c.fold()}) and {args.pattern}")
    return 0


def _cmd_run(args) -> int:
    c0 = load_config(args.config)
    pattern = load_pattern(args.pattern)
    seed = _resolve_seed(args.seed)
    policy = make_policy(args.scheduler, args.p, args.fairness)
    try:
        report, records = run(
            c0, pattern, policy, mode=args.mode, seed=seed, max_epochs=args.max_epochs
        )
    except SymmetricConfigurationError as e:
        print(f"Unsolvable: {e}")
        return 2
    _print_report(report)
    if args.trace:
        write_trace(records, args.trace)
        print(f"trace: {args.trace}")
    if args.svg:
        files = render_epoch_svgs(c0, records, args.svg)
        print(f"svg: {len(files)} frames in {args.svg}")
    return 0 if report.ok else 2


def _cmd_batch(args) -> int:
    ns = _parse_int_list(args.ns, "--ns")
    schedulers = [s.strip() for s in args.schedulers.split(",") if s.strip()]
    seed = _resolve_seed(args.seed)
    rows = batch(ns, args.trials, schedulers, seed, args.mode, args.max_epochs)
    print(format_batch_table(rows))
    if args.csv:
        write_batch_csv(rows, args.csv)
        print(f"csv: {args.csv}")
    return 0 if batch_ok(rows) else 2


def _cmd_explore(args) -> int:
    c0 = load_config(args.config)
    pattern = load_pattern(args.pattern)
    report = explore_schedules(c0, pattern, args.budget, mutant=args.mutant)
    print(
        f"explored {report.states} states over {report.edges} scheduled rounds "
        f"(budget {report.budget})"
    )
    if report.counterexample is None:
        print("no counterexample")
        return 0
    ce = report.counterexample
    print(f"counterexample: {ce.reason}")
    print("schedule: " + " ".join("{" + ",".join(map(str, step)) + "}" for step in ce.path))
    print("positions: " + " ".join(format_turn(p) for p in ce.positions))
    return 2


def _cmd_symmetry(args) -> int:
    folds = _parse_int_list(args.folds, "--folds")
    if any(k < 2 for k in folds):
        raise PreconditionError("--folds entries must be at least 2")
    if args.instances < 0 or args.rounds < 0:
        raise PreconditionError("--instances and --rounds must be at least 0")
    rule = SYMMETRY_RULES[args.rule]  # argparse refuses other names
    seed = _resolve_seed(args.seed)
    rng = Random(seed)
    failures = 0
    for idx in range(args.instances):
        k = folds[idx % len(folds)]
        per_sector = rng.randrange(1, 4)
        while k * per_sector < 3:
            per_sector += 1
        c0 = symmetric_instance(k, per_sector, rng.getrandbits(32))
        try:
            folds_seen = fsync_symmetry_experiment(c0, rule, args.rounds)
        except InvariantViolationError as e:
            print(f"instance {idx} (fold {k}): FAILED: {e}")
            failures += 1
            continue
        print(
            f"instance {idx} (fold {k}, n {c0.n}): "
            + " -> ".join(map(str, folds_seen))
        )
    return 2 if failures else 0


def _cmd_verify(args) -> int:
    pattern = load_pattern(args.pattern)
    try:
        records = read_trace(args.trace)
    except TraceParseError as e:
        print(f"parse error: {e}")
        return 2
    problems = verify_trace(records, pattern, args.mode)
    if problems:
        for p in problems:
            print(p)
        return 2
    print(f"OK: {len(records)} rounds verified")
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise PreconditionError(f"{flag} expects comma-separated integers")
    if not values:
        raise PreconditionError(f"{flag} must name at least one value")
    return values


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1; 2 is reserved for failed checks
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="circleform", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="write a seeded instance")
    p.add_argument("--n", type=int, required=True, help="robot count")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--q", type=int, default=None, help="position grid denominator (>= 4n)")
    p.add_argument("--fold", type=int, default=1, help="rotational fold for a symmetric start")
    p.add_argument("--config", required=True, help="output configuration JSON")
    p.add_argument("--pattern", required=True, help="output pattern JSON")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="simulate one run")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--scheduler", choices=sorted(POLICIES), default="fsync")
    p.add_argument("--p", type=float, default=0.5, help="activation probability (random)")
    p.add_argument("--fairness", type=int, default=None, help="starvation window in rounds")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    p.add_argument("--trace", default=None, help="write a JSONL trace here")
    p.add_argument("--svg", default=None, help="write per-epoch SVG frames here")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", help="sweep robot counts and schedulers")
    p.add_argument("--ns", required=True, help="comma-separated robot counts")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--schedulers", default="fsync,rr,random,lazy")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--csv", default=None, help="write the summary CSV here")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("explore", help="exhaustively check schedules")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--budget", type=int, required=True, help="rounds to explore (0 to 6)")
    p.add_argument("--mutant", choices=MUTANTS, default=None,
                   help="run a deliberately weakened rule")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("symmetry", help="fold trajectories from symmetric starts")
    p.add_argument("--folds", default="2,3,4", help="comma-separated rotation folds")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--rule", choices=sorted(SYMMETRY_RULES), default="drift")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_symmetry)

    p = sub.add_parser("verify", help="replay and audit a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=("det", "rand"), default="det")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PreconditionError, StructuralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CircleFormError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
