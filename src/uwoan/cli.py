"""Command-line front end: single runs, turbidity sweeps, topology export.

Exit codes: 0 on success, 1 on usage errors, 2 on configuration or input
validation errors and on runs the frame format or ID space cannot carry.
All outputs are canonical, so rerunning a command with the same config
and seed produces byte-identical files.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

from .base_station import ProtocolError
from .config import ConfigError, load_config
from .engine import simulate
from .frame import FrameError
from .report import (
    CSV_COLUMNS,
    ReportError,
    aggregate,
    csv_row,
    export_topology,
    report_from_json,
    report_to_json,
    summary_csv_rows,
)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; remap to this tool's contract
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uwoan",
                     description="Simulate initialization of a hybrid "
                                 "underwater optical-acoustic network")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one run and write artifacts")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep",
                             help="run a seed sweep per attenuation value")
    p_sweep.add_argument("--config", required=True, help="config file path")
    p_sweep.add_argument("--c-list", required=True,
                         help="comma-separated attenuation coefficients")
    p_sweep.add_argument("--seeds", type=int, required=True,
                         help="number of seeds per coefficient (0..N-1)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes, at most one per "
                              "run and per usable CPU")

    p_topo = sub.add_parser("topo", help="export topology from a report file")
    p_topo.add_argument("--report", required=True, help="report JSON path")
    p_topo.add_argument("--format", default="json", choices=("json", "dot"))
    return parser


def _out_path(text: str) -> Path:
    """The --out path; an empty one would silently mean the working dir."""
    if not text.strip():
        raise ConfigError(f"--out is empty: '{text}'")
    return Path(text)


def _check_out_dir(out: Path) -> None:
    """Raise ConfigError unless `out` is or can be made a directory."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"--out: {path} exists and is not a "
                                  "directory")
            return


def _check_out_file(out: Path) -> None:
    """Raise ConfigError unless `out` can be written as a file."""
    if out.is_dir():
        raise ConfigError(f"--out: {out} is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"--out: directory {out.parent} does not exist")


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out = _out_path(args.out)
    _check_out_dir(out)  # before the run, which may take long
    result = simulate(config, seed=args.seed, collect_trace=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(result.report))
    (out / "trace.log").write_text("\n".join(result.trace_lines) + "\n")
    (out / "topology.json").write_text(export_topology(result.report, "json"))
    (out / "topology.dot").write_text(export_topology(result.report, "dot"))
    r = result.report
    print(f"seed {r.seed} c0 {r.c0}: access {r.access_rate:.4f}, "
          f"dual-hop {r.dual_hop_rate:.4f}, "
          f"{r.n_failed} failed, {r.n_unresolved} unresolved -> {out}")
    return 0


def _sweep_one(task):
    """A run's CSV row, and its report less the `nodes` and `edges` that
    `aggregate` does not read, which are most of its pickled bytes."""
    config, c0, seed = task
    report = simulate(replace(config, c0=c0, seed=seed)).report
    return csv_row(report), replace(report, nodes=(), edges=())


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    # csv and the process pool are imported here, not at module level, so
    # that `run` and `topo` start without them
    import csv

    config = load_config(args.config)
    tokens = args.c_list.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ConfigError(f"--c-list has an empty entry: '{args.c_list}'")
    try:
        c_values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"--c-list is not a list of numbers: '{args.c_list}'")
    repeated = sorted({c0 for c0 in c_values if c_values.count(c0) > 1})
    if repeated:
        raise ConfigError("--c-list repeats "
                          + ", ".join(map(repr, repeated)))
    if args.seeds <= 0:
        raise ConfigError(f"--seeds must be positive, got {args.seeds}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be positive, got {args.workers}")
    for c0 in c_values:
        replace(config, c0=c0)  # validate every coefficient up front
    out = _out_path(args.out)
    _check_out_file(out)
    # seed-major, so each chunk a worker takes mixes the water types, whose
    # runs differ in cost about twofold; the rows are sorted below
    tasks = [(config, c0, seed) for seed in range(args.seeds) for c0 in c_values]
    # the pool starts every worker up front, so start no more than there
    # are tasks, nor more than the CPUs this process may run on
    workers = min(args.workers, len(tasks), _usable_cpus())
    if workers > 1:
        # small chunks, so that no worker idles long through another's last
        # one: a 60-run sweep on two workers is 15 chunks of 4, not 4 of
        # 16.  Chunks of one task cost more in IPC than they save
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, tasks, chunksize=4))
    else:
        results = [_sweep_one(task) for task in tasks]
    results.sort(key=lambda item: item[0][:2])  # by (c0, seed)
    summaries = aggregate([report for _, report in results])

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row, _ in results:
        writer.writerow(row)
    for row in summary_csv_rows(summaries):
        writer.writerow(row)
    out.write_text(buffer.getvalue())
    for s in summaries:
        print(f"c0 {s['c0']}: mean access {s['mean_access_rate']:.4f} "
              f"(sigma {s['std_access_rate']:.4f}), "
              f"mean dual-hop {s['mean_dual_hop_rate']:.4f} "
              f"over {s['n_runs']} runs")
    return 0


def _cmd_topo(args) -> int:
    path = Path(args.report)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        report = report_from_json(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                          f"{exc.start}") from None
    except ReportError as exc:
        raise ConfigError(str(exc))
    sys.stdout.write(export_topology(report, args.format))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_topo(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ReportError, ProtocolError, FrameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
