"""Run the aerosurrogate benchmark.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 2 --seconds 35 \
        --out perfbench/results/BENCH_1.json

A single workload runs in this process: set-up (repeated SETUP_REPEATS
times; the median counts), WARMUP_OPS untimed ops, then a closed loop
with one client until --seconds of op time have been measured. Every
op's output is checked outside the timed region. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With --trace 1 the loop is split in two halves, untraced then traced, so
that the tracing overhead is measured in the same process; the per-layer
metrics come from the traced half and from a traced set-up.

`--workload all` runs every workload untraced and traced, each in its own
process, for every seed given, prints a table and optionally writes the
results with the environment to --out.
"""

import time

_T0 = time.perf_counter()

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from spans import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 9
WARMUP_OPS = 1
MAX_FAILURES = 50
# op_ms_tail's percentile, fixed per workload so that two commits are
# compared on the same percentile. Each keeps at least 10 samples beyond
# it in a --seconds 35 run on the reference machine (see README.md); the
# report gives the count in each run.
TAIL_PERCENTILE = {"train-desk": 90, "predict-large": 75, "ingest": 75}
REPORTED_PERCENTILES = (50, 75, 90, 95, 99)
# One BLAS thread: the benchmark is one client on one core. A second
# OpenBLAS thread only spins at the desk profile's matrix sizes and makes
# run-to-run times depend on what else the machine is running.
BLAS_THREADS = 1

END_TO_END = [("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]
REPORT_PREFIX = "perfbench-report "


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile (nearest rank) and the number of samples
    strictly beyond it."""
    s = sorted(latencies)
    k = min(len(s) - 1, max(0, math.ceil(pct / 100.0 * len(s)) - 1))
    return s[k], sum(1 for x in s if x > s[k])


class Runner:
    """Runs one workload in this process and collects its figures."""

    def __init__(self, workload, recorder=None):
        self.wl = workload
        self.rec = recorder
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op = 0

    def _fail(self, i, reason):
        self.failures.append(f"op {i}: {reason}")
        if len(self.failures) <= 3:
            print(f"perfbench: {self.wl.name} op {i} failed: {reason}",
                  file=sys.stderr)

    def setup(self, repeats: int) -> list[float]:
        times = []
        for k in range(repeats):
            t0 = time.perf_counter()
            root = self.rec.open("setup", f"setup-{k}") if self.rec else None
            try:
                self.wl.setup()
            finally:
                if root is not None:
                    self.rec.close(root)
            times.append(time.perf_counter() - t0)
        return times

    def one_op(self, traced: bool) -> float:
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        root = self.rec.open("op", f"op-{i}") if traced else None
        error = None
        t0 = time.perf_counter()
        try:
            result = self.wl.op(i)
        except Exception:
            error = traceback.format_exc(limit=4)
        dt = time.perf_counter() - t0
        if root is not None:
            self.rec.close(root, failed=error is not None)
        if error is None:
            try:
                error = self.wl.check_op(i, result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=4)
        if error is not None:
            self._fail(i, error)
        return dt

    def loop(self, seconds: float, traced: bool = False) -> list[float]:
        """Run ops until their timed total reaches `seconds`; the output
        checks between them are not counted. A run whose ops keep failing
        stops early, as its result is already wrong; at least one op runs."""
        latencies = []
        busy = 0.0
        while not latencies or (busy < seconds
                                and len(self.failures) < MAX_FAILURES):
            latencies.append(self.one_op(traced))
            busy += latencies[-1]
        return latencies


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, workdir: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, report). The result is the
    contract object printed last; the report adds the environment, the
    figures behind the metrics and the failures."""
    from spans import Recorder, install, summarize
    from workloads import FULL, WORKLOADS

    own_workdir = workdir is None
    workdir = workdir or WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](seed, sizes or FULL, workdir)
        rec = Recorder() if trace else None
        runner = Runner(wl, rec)
        uninstall = install(rec) if trace else None
        try:
            setup_times = runner.setup(SETUP_REPEATS)
        finally:
            if uninstall:
                uninstall()
        for _ in range(WARMUP_OPS):
            runner.one_op(False)
        if not trace:
            latencies = runner.loop(seconds)
        else:
            plain = runner.loop(seconds / 2)
            uninstall = install(rec)
            try:
                latencies = runner.loop(seconds / 2, traced=True)
            finally:
                uninstall()
        problems = wl.check_run()
    finally:
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    p50 = statistics.median(latencies)
    tail_s, beyond = percentile(latencies, TAIL_PERCENTILE[name])
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "ops_timed": len(latencies),
              "warmup_ops": WARMUP_OPS, "setup_repeats": SETUP_REPEATS,
              "setup_pass_s": setup_times,
              "tail_percentile": TAIL_PERCENTILE[name], "tail_beyond": beyond,
              "op_ms_percentiles": {p: percentile(latencies, p)[0] * 1e3
                                    for p in REPORTED_PERCENTILES},
              "failed_frac": len(runner.failures) / runner.attempted,
              "failures": runner.failures[:20], "problems": problems,
              **wl.extras()}
    if not trace:
        values = {"ops_per_s": len(latencies) / sum(latencies),
                  "op_ms_p50": p50 * 1e3, "op_ms_tail": tail_s * 1e3,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0}
        units = dict(END_TO_END)
    else:
        figures = summarize(rec)
        figures["trace.overhead_ratio"] = p50 / statistics.median(plain)
        report["untraced_op_ms_p50"] = statistics.median(plain) * 1e3
        report["traced_op_ms_p50"] = p50 * 1e3
        units = dict(PER_LAYER)
        values = {k: float(figures.get(k, 0.0)) for k in units}
        if figures["trace.self_time_gap"] > 1e-6:
            problems.append("self times do not add up to the root spans: gap "
                            f"{figures['trace.self_time_gap']:.3g}")
        tdir = WORK / "traces"
        tdir.mkdir(parents=True, exist_ok=True)
        rec.write(tdir / f"{name}-seed{seed}.jsonl")
        report["trace_file"] = str((tdir / f"{name}-seed{seed}.jsonl").relative_to(ROOT))
    result = {"correct": not runner.failures and not problems,
              "attempted": runner.attempted, "failed": len(runner.failures),
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    report["environment"] = environment(seed)
    return result, report


def _print_single(result: dict, report: dict) -> None:
    name = report["workload"]
    env = report["environment"]
    timed = "traced ops in the second half of" if report["trace"] else "ops in"
    print(f"{name}: seed {report['seed']}, {report['ops_timed']} {timed} "
          f"{report['seconds']} s, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} {env['blas_version']} ({env['blas_threads']} threads), "
          f"nproc {env['nproc']}")
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {report['failed_frac']:>16.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    if not report["trace"]:
        print(f"  op_ms_tail is p{report['tail_percentile']} of "
              f"{report['ops_timed']} ops ({report['tail_beyond']} beyond)")
    if "train_loss_end" in report:
        print(f"  {'train_loss_end':42s} {report['train_loss_end']:>16.6g} "
              f"(first pass {report['train_loss_start']:.6g}, "
              f"{report['train_passes']} passes)")
    for p in report["problems"]:
        print(f"  CHECK FAILED: {p}")
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps(result))


def _run_all(seeds: list[int], seconds: float, out: str | None) -> int:
    from workloads import WORKLOADS

    runs = []
    ok = True
    for seed in seeds:
        for name in WORKLOADS:
            for trace in (0, 1):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed} trace {trace}: exit "
                          f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                report = json.loads(next(ln for ln in lines
                                         if ln.startswith(REPORT_PREFIX))
                                    [len(REPORT_PREFIX):])
                print("\n".join(ln for ln in lines[:-1]
                                if not ln.startswith(REPORT_PREFIX)))
                ok = ok and result["correct"]
                runs.append({"result": result, "report": report})
    if out:
        env = environment(seeds[0])
        del env["seed"]
        doc = {"environment": env, "seconds": seconds, "dev_seed": seeds[0],
               "held_out_seeds": seeds[1:], "runs": runs}
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train-desk", "predict-large", "ingest", "all"])
    ap.add_argument("--seed", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None,
                    help="results file to write (with --workload all)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.out)
    if len(args.seed) != 1:
        ap.error("a single workload takes one --seed")
    result, report = run_workload(args.workload, args.seed[0], args.seconds,
                                  bool(args.trace))
    report["import_s"] = IMPORT_S
    _print_single(result, report)
    return 0


if __name__ == "__main__":
    if not (SRC / "aerosurrogate" / "__init__.py").is_file():
        print(f"perfbench: no aerosurrogate sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import aerosurrogate  # noqa: F401
    IMPORT_S = time.perf_counter() - _T0
    sys.exit(main())
