"""Host-time benchmark of the uwoan simulator.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 55 --trace 0

Runs one workload, or ``all`` four one after another, each in a fresh
process of this script.  Runs are serial: a closed loop with one client.
Every output is checked.

With ``--trace 0`` it prints the end-to-end metrics, timed with no wrapper
installed.  With ``--trace 1`` it alternates untraced passes with passes
under the layer tracer, prints the per-layer metrics and writes the
deterministic count artifact.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The exit code is 0 only when every output check passed, and 2 when the
simulator's sources are missing.  Every run simulates 50 s.  End-to-end
times are host times scaled to a reference host speed (see
``reference_kernel``); the raw host values are printed beside them.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import heapq
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("paper", "cli_run", "drift", "codepth")
# A shared host changes speed by up to 1.5x from second to second, so the
# fastest of a few repeats is itself noisy.  The end-to-end loop instead
# interleaves runs, sweeps and set-up probes in small steps over the whole
# budget, each taking a fixed share of it, and reports medians and
# percentiles over every timed repeat.
TIME_SHARES = {"runs": 0.55, "sweep": 0.35, "setup": 0.1}
WARMUP_RUNS = 3
EQUIVALENCE_EVERY = 8      # every 8th run of the first pass is re-run
SWEEP_SEEDS = 20           # per c0, so one sweep is 60 runs
SWEEP_WORKERS = 2
# reference_kernel's time on the host the benchmark was tuned on, a shared
# 2-vCPU cloud VM with Python 3.11, where it takes 11 to 15 ms
REFERENCE_KERNEL_S = 0.013

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import uwoan
cfg = uwoan.parse_config({text!r})
world = {deploy}
print(time.perf_counter() - t0, world.n)
"""


class _Point:
    __slots__ = ("x", "y", "z", "tag")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z, self.tag = x, y, z, None


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure Python, with the collector off.

    A shared host's speed can drift by 1.5x over minutes.  The kernel mixes
    what the simulator does (object creation, attribute access, a heap, dict
    lookups, float math) over a small and a larger working set, and uses
    none of its code, so its time tracks the host's speed and not the
    program's.  A run's time is scaled by REFERENCE_KERNEL_S over the mean
    time of the kernel runs just before and just after it.
    """
    gc.disable()
    t0 = perf_counter()
    heap: list = []
    by_key: dict = {}
    acc = 0.0
    for i in range(2500):
        p = _Point(i * 0.5, i * 0.25, 100.0)
        heapq.heappush(heap, (math.sin(i) * 10.0, i, p))
        by_key[i % 257] = p
        if len(heap) > 64:
            _, j, q = heapq.heappop(heap)
            r = by_key.get(j % 257)
            if r is not None:
                q.tag = r.x
            acc += math.exp(-0.05 * math.hypot(q.x - q.y, q.z))
    n = 4000
    points = [_Point(i * 0.5, i * 0.25, 100.0) for i in range(n)]
    by_key = {(i * 7919) % 100003: p for i, p in enumerate(points)}
    keys = list(by_key)
    heap = []
    j = 0
    for i in range(1500):
        j = (j + 7331) % n
        q = by_key[keys[(j * 31) % n]]
        heapq.heappush(heap, (math.sin(i) * 10.0, i, points[j]))
        if len(heap) > 256:
            _, _, r = heapq.heappop(heap)
            r.tag = q.x
            acc += math.exp(-0.05 * math.hypot(r.x - q.y, r.z))
    elapsed = perf_counter() - t0
    del points, by_key, keys, heap
    gc.enable()
    return elapsed


@dataclass
class Sample:
    """Untraced run times, plus the outcome of every check."""

    times: list[float] = field(default_factory=list)    # seconds, in order
    kernel: list[float] = field(default_factory=list)   # around each
    last_kernel: float | None = None    # the kernel just after the last run
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    reports: list = field(default_factory=list)         # first pass, by spec

    def fail(self, what: str, why: str, runs: int = 1) -> None:
        self.failed += runs
        print(f"check failed: {what}: {why}", file=sys.stderr)


# -- the timed loops -----------------------------------------------------------


def run_checked(sample: Sample, workload, specs, k: int,
                tracer=None) -> None:
    """Run spec ``k`` once, untraced and timed or under ``tracer``.

    A spec's first run checks its output fully and, for every
    EQUIVALENCE_EVERY-th spec, re-runs it with the opposite trace setting;
    later runs must reproduce its report exactly.
    """
    from workloads import check_output, equivalent_report
    spec = specs[k]
    sample.attempted += 1
    try:
        if tracer is not None:
            with tracer:
                out = tracer.measure(workload.run, spec)
                why = check_output(out)
        else:
            before = sample.last_kernel or reference_kernel()
            t0 = perf_counter()
            out = workload.run(spec)
            sample.times.append(perf_counter() - t0)
            sample.last_kernel = reference_kernel()
            sample.kernel.append((before + sample.last_kernel) / 2)
            why = None
        if sample.reports[k] is None:
            why = why or check_output(out)
            if why is None and k % EQUIVALENCE_EVERY == 0:
                why = equivalent_report(workload, spec, out)
            sample.reports[k] = out.report
        elif out.report != sample.reports[k]:
            why = why or "report differs from the first pass"
    except Exception:
        why = traceback.format_exc()
    if why:
        sample.fail(f"{workload.name} spec {k} (seed {spec.seed})", why)


def _start(sample: Sample, workload, specs) -> None:
    sample.reports = [None] * len(specs)
    for spec in specs[:WARMUP_RUNS]:
        workload.run(spec)


def timed_sample(sample: Sample, workload, specs, budget_s: float,
                 probes: dict) -> None:
    """Untraced runs over ``specs`` in turn, interleaved with ``probes``.

    Each step goes to the activity furthest below its share of the time
    spent (TIME_SHARES, keyed "runs" and by probe name), so every activity
    sees the host's fast and slow spells alike.  The loop stops once the
    budget is spent, every spec has run and every probe has a value or a
    failure.
    """
    _start(sample, workload, specs)
    steps = {"runs": None, **probes}
    spent = dict.fromkeys(steps, 0.0)
    k = 0
    start = perf_counter()
    while (perf_counter() - start < budget_s or k < len(specs)
           or not all(p.values or p.failed for p in probes.values())):
        name = min(steps, key=lambda n: spent[n] / TIME_SHARES[n])
        t0 = perf_counter()
        if name == "runs":
            run_checked(sample, workload, specs, k % len(specs))
            k += 1
        else:
            steps[name](sample)
            sample.last_kernel = None
        spent[name] += perf_counter() - t0
    sample.passes = k // len(specs)


def traced_sample(sample: Sample, workload, specs, budget_s: float,
                  tracer) -> None:
    """Full passes over ``specs``, untraced and under ``tracer`` in turn,
    until another pair of passes would overrun the budget."""
    _start(sample, workload, specs)
    start = perf_counter()
    while True:
        for k in range(len(specs)):
            run_checked(sample, workload, specs, k,
                        tracer if sample.passes % 2 else None)
        sample.passes += 1
        elapsed = perf_counter() - start
        if sample.passes % 2 == 0 \
                and elapsed * (sample.passes + 2) / sample.passes > budget_s:
            return


# -- set-up and sweep probes -----------------------------------------------------


class SetupProbe:
    """Seconds, in a fresh interpreter, to import uwoan, parse the workload
    config and deploy its first world."""

    def __init__(self, spec) -> None:
        if spec.positions is None:
            deploy = f"uwoan.generate(cfg, {spec.seed!r})"
        else:
            deploy = (f"uwoan.World(cfg.bs_position(), [uwoan.Position(*p) "
                      f"for p in {spec.positions!r}], (cfg.region_east_m, "
                      f"cfg.region_north_m, cfg.region_depth_m))")
        self.code = _SETUP_PROBE.format(src=str(SRC), text=spec.config_text,
                                        deploy=deploy)
        self.n_uwn = spec.config.n_uwn
        self.values: list[float] = []
        self.failed = 0
        self._probe()      # untimed: writes bytecode caches, warms the disk

    def _probe(self) -> float:
        done = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe exited {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
        seconds, n = done.stdout.split()
        if int(n) != self.n_uwn:
            raise RuntimeError(f"setup probe deployed {n} nodes")
        return float(seconds)

    def __call__(self, sample: Sample) -> None:
        sample.attempted += 1
        try:
            self.values.append(self._probe())
        except (RuntimeError, ValueError, subprocess.SubprocessError):
            self.failed += 1
            sample.fail("setup", traceback.format_exc())


def _kernel_median(_: int) -> float:
    return statistics.median(reference_kernel() for _ in range(3))


class SweepProbe:
    """Runs per second of ``uwoan sweep --workers 2`` over the paper configs:
    the criterion-1 gate path, the same input in every workload.

    The first sweep is checked and not timed; later sweeps must write the
    same CSV.  A sweep keeps every worker busy, so its rate is scaled by
    the reference kernel timed in as many processes at once, just before.
    """

    def __init__(self, workdir: Path) -> None:
        from workloads import C0_ROTATION, PAPER_BASE
        self.c0s = C0_ROTATION
        self.config = workdir / "sweep.cfg"
        self.config.write_text(PAPER_BASE)
        self.out = workdir / "sweep.csv"
        self.values: list[float] = []       # host runs per second
        self.scaled: list[float] = []
        self.failed = 0
        self.first_csv: str | None = None

    @staticmethod
    def _kernel() -> float:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(SWEEP_WORKERS, mp_context=context) as pool:
            return statistics.fmean(
                pool.map(_kernel_median, range(SWEEP_WORKERS)))

    def __call__(self, sample: Sample) -> None:
        from uwoan import cli
        n_runs = SWEEP_SEEDS * len(self.c0s)
        argv = ["sweep", "--config", str(self.config),
                "--c-list", ",".join(map(str, self.c0s)),
                "--seeds", str(SWEEP_SEEDS), "--out", str(self.out),
                "--workers", str(SWEEP_WORKERS)]
        sample.attempted += n_runs
        kernel = self._kernel() if self.first_csv is not None else 0.0
        with redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            dt = perf_counter() - t0
        if code != 0:
            why = f"exit code {code}"
        elif self.first_csv is None:
            self.first_csv = self.out.read_text()
            why = self._check(self.first_csv)
        elif self.out.read_text() != self.first_csv:
            why = "CSV changed"
        else:
            why = None
            self.values.append(n_runs / dt)
            self.scaled.append(n_runs / dt * kernel / REFERENCE_KERNEL_S)
        if why:
            self.failed += 1
            sample.fail("sweep", why, n_runs)

    def _check(self, text: str) -> str | None:
        import uwoan
        rows = list(csv.DictReader(io.StringIO(text)))
        runs = [r for r in rows if r["seed"] != "mean"]
        if len(runs) != SWEEP_SEEDS * len(self.c0s):
            return f"{len(runs)} run rows"
        if len(rows) - len(runs) != len(self.c0s):
            return "not one mean row per c0"
        base = uwoan.parse_config(self.config.read_text())
        for c0 in self.c0s:
            row = next(r for r in runs if float(r["c0"]) == c0)
            expect = uwoan.run(replace(base, c0=c0), seed=int(row["seed"]))
            if (float(row["access_rate"]), float(row["dual_hop_rate"]),
                    int(row["n_failed"])) != (expect.access_rate,
                                              expect.dual_hop_rate,
                                              expect.n_failed):
                return f"row c0={c0} seed={row['seed']} disagrees with run"
        return None


# -- the two modes -----------------------------------------------------------------


def end_to_end(workload, specs, seconds: int):
    """Untraced timings, set-up time, memory and sweep throughput."""
    sample = Sample()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        setup = SetupProbe(specs[0])
        sweep = SweepProbe(Path(tmp))

        timed_sample(sample, workload, specs, seconds,
                     {"sweep": sweep, "setup": setup})
    times = sample.times
    # each run scaled by the kernel times around it; the set-up probes,
    # which run in fresh interpreters, by the median of those
    scaled = [t * REFERENCE_KERNEL_S / k
              for t, k in zip(times, sample.kernel)]
    slowdown = statistics.median(sample.kernel) / REFERENCE_KERNEL_S

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    def p90(values: list[float]) -> float:
        return statistics.quantiles(values, n=10)[-1]
    raw = {
        "run_ms_p50": statistics.median(times) * 1e3,
        "run_ms_p90": p90(times) * 1e3,
        "runs_per_s": len(times) / sum(times),
        "setup_s": median(setup.values),
        "sweep_runs_per_s": median(sweep.values),
    }
    metrics = {
        "run_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "run_ms_p90": (p90(scaled) * 1e3, "ms"),
        "runs_per_s": (len(scaled) / sum(scaled), "runs/s"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_run_share": ((sample.attempted - sample.failed)
                         / sample.attempted, "fraction"),
        "sweep_runs_per_s": (median(sweep.scaled), "runs/s"),
    }
    runs = f"n={len(times)} timed runs of {len(specs)} specs"
    notes = {
        "run_ms_p50": runs,
        "run_ms_p90": runs,
        "runs_per_s": runs,
        "setup_s": f"median of n={len(setup.values)} fresh interpreters",
        "sweep_runs_per_s": f"median of n={len(sweep.values)} sweeps of "
                            f"{SWEEP_SEEDS * len(sweep.c0s)} runs",
        "ok_run_share": f"failed_run_share={sample.failed}/"
                        f"{sample.attempted}",
    }
    for name, value in raw.items():
        notes[name] += f"; host value {value:.6g}"
    notes["host_slowdown"] = (f"{slowdown:.4f}: median reference kernel "
                              f"time over {REFERENCE_KERNEL_S} s, n="
                              f"{len(sample.kernel)}")
    return metrics, notes, sample, None


def per_layer(workload, specs, seconds: int, seed: int):
    """Per-layer counts and times, and the deterministic count artifact."""
    from tracing import LayerTracer, unit_of
    from uwoan.report import report_to_json
    tracer = LayerTracer()
    sample = Sample()
    traced_sample(sample, workload, specs, seconds, tracer)
    untraced = sample.times
    counts = tracer.counts()
    reports = [r for r in sample.reports if r is not None]
    digest = hashlib.sha256()
    for r in sample.reports:
        digest.update(report_to_json(r).encode() if r is not None
                      else b"missing\n")
    artifact = {
        "workload": workload.name,
        "seed": seed,
        "sim_seeds": [s.seed for s in specs],
        "counts": counts,
        "report_sha256": digest.hexdigest(),
        "mean_access_rate": statistics.fmean(r.access_rate for r in reports),
        "mean_dual_hop_rate":
            statistics.fmean(r.dual_hop_rate for r in reports),
    }
    timings = tracer.timings(sum(untraced) / len(untraced) * 1e3)
    metrics = {name: (value, unit_of(name))
               for name, value in {**counts, **timings}.items()}
    note = f"{tracer.runs} traced and {len(untraced)} untraced runs"
    notes = {name: note for name in timings}
    return metrics, notes, sample, artifact


# -- reporting -------------------------------------------------------------------


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    specs = workload.specs(args.seed)
    metrics, notes, sample, artifact = (
        per_layer(workload, specs, args.seconds, args.seed) if args.trace
        else end_to_end(workload, specs, args.seconds))
    meta = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "passes": sample.passes,
        "sim_seeds": [s.seed for s in specs], "samples": notes,
    }
    result = {"correct": sample.failed == 0, "attempted": sample.attempted,
              "failed": sample.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    if artifact is not None:
        (RESULTS / f"{stem}.counts.json").write_text(
            json.dumps(artifact, sort_keys=True, indent=2) + "\n")
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=2) + "\n")

    print(f"# {workload.name}: {workload.why}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:45s} {value:14.6g} {unit:8s}"
              + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload serially, each in a fresh process of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        try:
            part = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {done.returncode})",
                  file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "uwoan" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
