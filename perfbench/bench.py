"""Measurement of one benchmark run; `run.py` is the entry point.

A run of one workload measures, within its time budget:

* ``setup_s``: median time of fresh interpreters finishing
  ``import ncphase.cli``;
* ``process_s``: per op, the median time of fresh ``python -m ncphase.cli``
  processes, summed over the workload's ops, and ``peak_rss_mb``, the
  largest max RSS of any of those processes;
* ``work_s``: median time of one pass over the ops through ``cli.main`` in
  this process, after a warm-up pass;
* ``oracle_digits``: -log10 of the largest rounding-level deviation of any
  output from its oracle.

Times are in reference seconds (see `Calibrated`): wall seconds rescaled to
the baseline machine's typical speed.  The report also prints them in raw
wall seconds.  With tracing on, a run instead measures the per-layer
metrics: ``-X importtime`` splits of the import, and the median per-pass
self time of each span from passes run with `spans.Tracer` installed,
alternated with untraced passes that give ``trace.overhead_ratio``.

Every output of every execution is hashed; each distinct output is checked
by `oracles.check`, and an op whose bytes change between executions fails.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import oracles
import spans
import workloads
from ncphase import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

# A run is a series of rounds, so every metric samples the whole run rather
# than one stretch of it.  An end-to-end round takes SETUP_PER_ROUND fresh
# imports, one fresh process per op and in-process passes worth PASS_SHARE
# of the process time, carried over between rounds when a pass is longer;
# a traced round takes an untraced and a traced pass.  Rounds continue
# while the budget has room for another; in-process passes fill what is
# left, so workloads with long passes (trajectories) still get several.
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
PASS_SHARE = 1.0
IMPORTTIME_RUNS = 3     # -X importtime runs per traced run
# Median kernel times over 60 benchmark runs on the machine recorded in
# baseline.json, so that reference seconds read as wall seconds at that
# machine's typical speed (see `Calibrated`).
LOOP_KERNEL_S = 0.0083
IMPORT_KERNEL_S = 0.108
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile

E2E_UNITS = {
    "setup_s": "s", "process_s": "s", "work_s": "s",
    "peak_rss_mb": "MB", "oracle_digits": "digits",
}
SPAN_METRICS = (
    "cli.load_config", "cli.cmd", "structure.poisson_matrix", "structure.psi_phi",
    "darboux.symplectic_gram_schmidt", "darboux.closed_form", "dynamics.flow_matrix",
    "dynamics.propagator", "dynamics.integrate", "dynamics.hamiltonian",
    "constrained.gnh_chain", "constrained.degenerate_flow_n2", "constrained.kernel",
    "constrained.residual", "spectrum.ladder", "spectrum.chi_limit_scan",
)
CALL_METRICS = (
    "structure.poisson_matrix", "darboux.symplectic_gram_schmidt",
    "dynamics.hamiltonian", "constrained.residual",
)
IMPORT_PACKAGES = ("numpy", "scipy", "ncphase")

PER_LAYER_UNITS = {
    **{f"import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES},
    **{f"{name}.self_s": "s" for name in SPAN_METRICS},
    **{f"{name}.calls": "count" for name in CALL_METRICS},
    "cli.bytes_out": "bytes", "dynamics.rows": "count", "spectrum.levels": "count",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    """This process's environment, BLAS thread count included, plus src/.

    Fresh processes write and read bytecode caches, as they would for an
    installed package, whatever the caller's setting.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def machine_note() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas,
    }


def run_process(argv: list, env: dict, stderr_path: Path):
    """Wall time, max RSS in MB and exit code of one child process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def stderr_of(argv: list, env: dict) -> str:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True).stderr


def tail(samples: list):
    """Highest percentile with at least TAIL_BEYOND samples above it, or None."""
    if len(samples) <= TAIL_BEYOND:
        return None
    return sorted(samples)[len(samples) - TAIL_BEYOND - 1]


def parse_importtime(text: str) -> dict:
    """Import time in s per package from ``-X importtime`` output.

    numpy and scipy get the cumulative time of their outermost modules, so
    what they pull in counts as theirs: the numpy submodules that scipy loads
    count as scipy.  ncphase, whose modules import numpy and scipy, gets the
    self time of its own modules.
    """
    rows = []
    for line in text.splitlines():
        fields = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip().split(".")[0], int(fields[0]), int(fields[1])))
    out = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    ancestors = []          # importtime prints a module after the ones it imports
    for depth, top, self_us, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if top == "ncphase":
            out[top] += self_us * 1e-6
        elif top in out and not any(a in ("numpy", "scipy") for _, a in ancestors):
            out[top] += cumulative_us * 1e-6
        ancestors.append((depth, top))
    return out


def loop_kernel() -> None:
    """A step-observe-format loop like ncphase's own, in this process."""
    z, p, out = np.ones(4), np.eye(4), []
    for _ in range(3000):
        z = p @ z
        out.append(format(float(z @ z), ".17g"))


def import_kernel(env: dict):
    """A fresh interpreter importing a fixed set of standard-library modules."""
    argv = [sys.executable, "-c", "import argparse, decimal, email.mime.multipart, "
            "http.client, json, logging, unittest, xml.dom.minidom"]
    return lambda: subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL)


class Calibrated:
    """Wall time converted to reference seconds.

    On a shared two-vCPU virtual machine (Xeon under KVM) each vCPU was seen
    to change speed by up to 1.8x for seconds at a time, on its own
    schedule, so raw medians of runs minutes apart disagreed by 20-30%.  The
    run is pinned to one CPU, children included, and each sample is scaled
    by ref_s over the time of a fixed kernel on that CPU, measured just
    before and just after the sample.  Kernels use no ncphase code, so a
    change to the program does not move them.  ref_s is the kernel's median
    time at the baseline, so a reference second is a wall second at the
    baseline machine's typical speed; the report prints raw wall seconds
    beside each time.

    Each kind of sample has the kernel that followed its slowdowns best.
    For fresh processes it is `import_kernel`: within a minute, calibrated
    samples spread by 0.07-0.17 of their median, against 0.12-0.23 with
    `loop_kernel` and 0.27-0.39 raw.  In-process ops use `loop_kernel`,
    timed around each op: over five runs the generic-fields work_s spread
    by 0.04, against 0.10 with the import kernel timed around each pass.
    """

    STALE_S = 0.05

    def __init__(self, kernel, ref_s: float):
        self.kernel, self.ref_s = kernel, ref_s
        self.k, self.at = self.kernel_time(), time.perf_counter()

    def kernel_time(self) -> float:
        """Fastest of two runs of the kernel."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def time(self, fn, *args):
        """(result, raw seconds, reference seconds) of fn(*args)."""
        if time.perf_counter() - self.at > self.STALE_S:
            self.k = self.kernel_time()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        after = self.kernel_time()
        scale = self.ref_s / (0.5 * (self.k + after))
        self.k, self.at = after, time.perf_counter()
        return result, raw, raw * scale


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.seconds = seconds
        self.ops = workloads.build(workload, seed)
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.configs = workloads.write_configs(self.ops, str(WORK))
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.hashes = {}        # op name -> sha256 of its first output
        self.checks = {}        # op name -> list of oracle checks
        self.problems = []      # one line per failed execution
        self.counters = {}      # output-derived counts of one pass
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.ops_clock = Calibrated(loop_kernel, LOOP_KERNEL_S)
        self.process_clock = Calibrated(import_kernel(self.env), IMPORT_KERNEL_S)
        self.started = time.perf_counter()
        self.excluded = 0.0     # time spent checking outputs, outside the budget

    def out_path(self, op, prefix: str) -> Path:
        return WORK / f"{prefix}{op.name}{op.out_ext}"

    def left(self) -> float:
        return self.seconds - (time.perf_counter() - self.started - self.excluded)

    # --- outputs -----------------------------------------------------------

    def record(self, op, code, path: Path, how: str):
        """Account one execution: exit code, output hash, oracle verdict."""
        start = time.perf_counter()
        self.attempted += 1
        if code != 0 or not path.is_file():
            self.failed += 1
            self.problems.append(f"{op.name} ({how}): exit {code}")
        else:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.hashes.setdefault(op.name, digest)
            if op.name not in self.checks:
                self.checks[op.name] = oracles.check(op, str(path))
                self.count_output(op, path)
            if digest != first:
                self.failed += 1
                self.problems.append(f"{op.name} ({how}): output bytes differ from first run")
            elif not all(c.ok for c in self.checks[op.name]):
                self.failed += 1
                bad = [c.name for c in self.checks[op.name] if not c.ok]
                self.problems.append(f"{op.name} ({how}): oracle failed {bad}")
        self.excluded += time.perf_counter() - start

    def count_output(self, op, path: Path):
        data = path.read_bytes()
        c = self.counters
        c["cli.bytes_out"] = c.get("cli.bytes_out", 0) + len(data)
        if op.command == "simulate":
            c["dynamics.rows"] = c.get("dynamics.rows", 0) + data.count(b"\n") - 1
        if op.command == "spectrum":
            c["spectrum.levels"] = c.get("spectrum.levels", 0) + len(json.loads(data)["levels"])

    # --- in-process passes -------------------------------------------------

    def run_pass(self, tracer=None):
        """One pass over the ops through cli.main, each op timed on its own.

        Returns the pass time in raw and in reference seconds and, when
        traced, the span table of the pass in reference seconds.
        """
        paths = [self.out_path(op, "pass-") for op in self.ops]
        for path in paths:
            path.unlink(missing_ok=True)
        raw = ref = 0.0
        codes, table = [], {}
        gc.collect()
        for op, path in zip(self.ops, paths):
            code, r, s = self.ops_clock.time(self.call_main,
                                             op.argv(self.configs[op.name], str(path)))
            raw, ref = raw + r, ref + s
            codes.append(code)
            if tracer is not None:
                for name, (self_s, calls) in spans.self_times(tracer.take()).items():
                    agg = table.setdefault(name, [0.0, 0])
                    agg[0] += self_s * s / r
                    agg[1] += calls
        for op, code, path in zip(self.ops, codes, paths):
            self.record(op, code, path, "in-process")
        return raw, ref, table

    @staticmethod
    def call_main(argv) -> int:
        try:
            return cli.main(argv)
        except Exception as exc:  # a traceback is a failed op, not a failed run
            sys.stderr.write(f"perfbench: {argv[0]} raised {type(exc).__name__}: {exc}\n")
            return -1

    # --- fresh processes ---------------------------------------------------

    def measure_setup(self, runs: int) -> list:
        argv = [sys.executable, "-c", "import ncphase.cli"]
        samples = []
        for _ in range(runs):
            (_, _, code), raw, ref = self.process_clock.time(run_process, argv, self.env,
                                                     WORK / "setup.err")
            if code != 0:
                raise RuntimeError("import ncphase.cli failed in a fresh interpreter")
            samples.append((raw, ref))
        return samples

    def measure_processes(self):
        """One fresh process per op: {op: (raw, ref)} and the largest max RSS."""
        samples, peak = {}, 0.0
        for op in self.ops:
            path = self.out_path(op, "proc-")
            path.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "ncphase.cli",
                    *op.argv(self.configs[op.name], str(path))]
            (_, rss, code), raw, ref = self.process_clock.time(
                run_process, argv, self.env, WORK / f"{op.name}.err")
            samples[op.name] = (raw, ref)
            peak = max(peak, rss)
            self.record(op, code, path, "process")
        return samples, peak

    def measure_importtime(self, runs: int) -> dict:
        argv = [sys.executable, "-X", "importtime", "-c", "import ncphase.cli"]
        samples = []
        for _ in range(runs):
            text, raw, ref = self.process_clock.time(stderr_of, argv, self.env)
            samples.append({k: v * ref / raw for k, v in parse_importtime(text).items()})
        return {f"import.{pkg}_s": statistics.median(s[pkg] for s in samples)
                for pkg in IMPORT_PACKAGES}

    # --- the two modes -----------------------------------------------------

    def warm(self) -> float:
        """Fill the bytecode cache and run the warm-up pass; its time in s."""
        run_process([sys.executable, "-c", "import ncphase.cli"], self.env, WORK / "warm.err")
        return self.run_pass()[0]

    def rounds(self, body):
        """Call body() while the budget has room for one more round."""
        count, cost = 0, 0.0
        while count < MIN_ROUNDS or self.left() > cost:
            before = self.left()
            body()
            count, cost = count + 1, before - self.left()
        return count

    def end_to_end(self, report: list) -> dict:
        pass_raw = self.warm()
        setup, passes, peak, credit = [], [], 0.0, 0.0
        procs = {op.name: [] for op in self.ops}

        def one_round():
            nonlocal peak, pass_raw, credit
            setup.extend(self.measure_setup(SETUP_PER_ROUND))
            samples, rss = self.measure_processes()
            peak = max(peak, rss)
            for name, sample in samples.items():
                procs[name].append(sample)
            credit += PASS_SHARE * sum(raw for raw, _ in samples.values()) / pass_raw
            while credit >= 1.0 or not passes:
                passes.append(self.run_pass()[:2])
                credit -= 1.0
            pass_raw = statistics.median(raw for raw, _ in passes)

        count = self.rounds(one_round)
        while len(passes) < MIN_ROUNDS or self.left() > pass_raw:
            passes.append(self.run_pass()[:2])
        setup_s = statistics.median(ref for _, ref in setup)
        process_s = sum(statistics.median(ref for _, ref in s) for s in procs.values())
        work = [ref for _, ref in passes]
        errs = [c.err for cs in self.checks.values() for c in cs if c.rounding]
        oracle_err = max(errs) if errs else float("inf")
        work_tail = tail(work)
        raw_med = lambda samples: statistics.median(raw for raw, _ in samples)
        report += [
            f"{count} rounds; times in reference seconds (raw wall seconds in brackets), "
            f"pinned to cpu {self.cpu}",
            f"setup_s        {setup_s:.6f} s ({raw_med(setup):.6f})   "
            f"median of {len(setup)} fresh imports",
            f"process_s      {process_s:.6f} s   sum over {len(procs)} ops of the median "
            f"of {count} fresh processes each",
            *[f"  {name:<18} {statistics.median(r for _, r in s):.6f} s ({raw_med(s):.6f})"
              for name, s in procs.items()],
            f"work_s         {statistics.median(work):.6f} s ({raw_med(passes):.6f})   "
            f"median of {len(passes)} passes",
            "work_tail_s    " + (f"{work_tail:.6f} s   {TAIL_BEYOND} of {len(work)} "
                                 "passes are slower" if work_tail is not None else
                                 f"n/a   {len(work)} passes, needs more than {TAIL_BEYOND}"),
            f"peak_rss_mb    {peak:.1f} MB",
            f"oracle_err     {oracle_err:.3e} relative",
            f"failed_ratio   {self.failed / max(1, self.attempted):.6f} ratio   "
            f"{self.failed} of {self.attempted} ops",
        ]
        return {
            "setup_s": setup_s,
            "process_s": process_s,
            "work_s": statistics.median(work),
            "peak_rss_mb": peak,
            # Digits of agreement with the oracles: unlike the raw error it is
            # comparable across seeds, so a bound on it can gate accuracy.
            "oracle_digits": -math.log10(max(oracle_err, np.finfo(float).eps / 2)),
        }

    def per_layer(self, report: list) -> dict:
        self.warm()
        metrics = self.measure_importtime(IMPORTTIME_RUNS)
        tracer = spans.Tracer()
        overheads, tables = [], []

        def one_round():
            plain = self.run_pass()[0]
            with tracer.installed():
                traced, _, table = self.run_pass(tracer)
            # Adjacent passes run at nearly the same machine speed, so their
            # raw ratio needs no calibration.
            overheads.append(traced / plain)
            tables.append(table)

        self.rounds(one_round)
        median = lambda name, i: statistics.median(t.get(name, (0.0, 0))[i] for t in tables)
        for name in SPAN_METRICS:
            metrics[f"{name}.self_s"] = median(name, 0)
        for name in CALL_METRICS:
            metrics[f"{name}.calls"] = tables[0].get(name, (0.0, 0))[1]
        for name in ("cli.bytes_out", "dynamics.rows", "spectrum.levels"):
            metrics[name] = self.counters.get(name, 0)
        metrics["trace.overhead_ratio"] = statistics.median(overheads)

        report.append(f"{len(tables)} traced and untraced passes, reference seconds, "
                      f"pinned to cpu {self.cpu}")
        if tracer.missing:
            report.append("not traced, no longer bound: " + ", ".join(tracer.missing))
        report.append("span self time per pass (median), calls per pass:")
        for name in sorted(tables[0], key=lambda n: -median(n, 0)):
            report.append(f"  {name:<34} {median(name, 0):.6f} s  {tables[0][name][1]:>8}")
        report += [f"{k:<40} {v:.6g}" for k, v in metrics.items() if k.startswith("import.")]
        return metrics

    def close(self):
        shutil.rmtree(WORK, ignore_errors=True)


def main(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    report = [f"workload {workload}  seed {seed}  budget {seconds} s  trace {int(trace)}",
              "machine " + json.dumps(machine_note(), sort_keys=True)]
    try:
        metrics = run.per_layer(report) if trace else run.end_to_end(report)
    finally:
        run.close()
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    for op in run.ops:
        checks = run.checks.get(op.name, [])
        worst = max((c.err for c in checks if c.rounding), default=float("nan"))
        verdict = "ok" if checks and all(c.ok for c in checks) else "FAILED"
        report.append(f"op {op.name:<16} {verdict:<6} max rounding err {worst:.2e}  "
                      f"sha256 {run.hashes.get(op.name, '-')}")
        report += [f"    {c.name}: {c.err:.3e} (tol {c.tol:.3e})" for c in checks if not c.ok]
    report += [f"{n} x {line}" for line, n in Counter(run.problems).items()]
    print("\n".join(report))
    return {
        "correct": run.failed == 0 and len(run.checks) == len(run.ops),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
