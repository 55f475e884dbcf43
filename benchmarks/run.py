"""gsloc benchmark: seeded workloads through the public CLI, one job at a time.

Usage (from the repository root):

    python3 benchmarks/run.py --workload localize --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each repetition runs in a fresh interpreter that starts only after the
previous one has exited (a closed loop with a single caller), with fresh
output and cache directories. After one untimed warm-up repetition,
repetitions continue until --seconds have passed, at least MIN_REPS times. With --trace 0 the last line reports the
end-to-end metrics (medians over the repetitions); with --trace 1 one more
repetition runs with every public gsloc function wrapped, and the last line
reports the per-layer metrics of that repetition. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metrics as layer_metrics
from workloads import (THRESHOLD_M, WORKLOADS, check_run, check_study,
                       commands, make_inputs, queries_scored,
                       reachable_query_ids)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = BENCH_DIR / "worker.py"

MIN_REPS = 3
# Start no repetition after this many seconds of a workload, and kill one
# still running at LIMIT_S, so that a run ends well inside three minutes.
START_BY_S = 110.0
LIMIT_S = 165.0

END_TO_END = {  # name -> unit; error_rate is reported as attempted/failed
    "wall_s": "s",
    "localizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def environment(pool_threads: int, blas_threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    llc = None
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=10).stdout
        llc = next((line.split(":", 1)[1].strip() for line in lscpu.splitlines()
                    if line.startswith("L3 cache:")), None)
    except (OSError, subprocess.SubprocessError):
        pass
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "pool_threads": pool_threads, "blas_threads": blas_threads,
        "git_sha": sha, "last_level_cache": llc,
    }


class WorkloadRun:
    """All repetitions of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.dir = WORK / f"{workload}-{seed}"
        self.data_dir = self.dir / "data"
        nproc = len(os.sched_getaffinity(0))
        # pool threads x BLAS threads stays within nproc
        self.pool, blas = (nproc, 1) if workload == "study" else (1, nproc)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas),
                        OMP_NUM_THREADS=str(blas), MKL_NUM_THREADS=str(blas),
                        PYTHONPATH=os.pathsep.join(
                            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.environment = environment(self.pool, blas)
        start = time.perf_counter()
        self.inputs = make_inputs(workload, seed, self.data_dir)
        self.inputs["generate_s"] = time.perf_counter() - start
        self.reachable = reachable_query_ids(self.data_dir)
        self.inputs["n_query_reachable"] = len(self.reachable)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def repetition(self, index: int, trace: bool) -> dict | None:
        """Run one repetition, check its outputs, and return the worker's
        result, or None when the worker itself failed. Failed operations
        are counted either way."""
        rep_dir = self.dir / f"rep{index}"
        rep_dir.mkdir()
        try:
            job, check = commands(self.workload, self.data_dir, rep_dir, self.pool)
            spec = {"src": str(SRC), "threshold_m": THRESHOLD_M, "trace": trace,
                    "commands": job, "check_commands": check}
            for role in ("support", "query"):
                spec[f"{role}_metadata"] = str(self.data_dir / f"{role}_metadata.csv")
                spec[f"{role}_descriptors"] = str(self.data_dir / f"{role}_descriptors.emb1")
            (rep_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
            names = [argv[0] for argv in job + check]
            self.attempted += len(names)
            problems = self._run_worker(rep_dir)
            result = None
            if not problems:
                result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
                per_op = {name: [] for name in names}
                for op in result["ops"] + result["check_ops"]:
                    if op["rc"] != 0:
                        per_op[op["command"]].append(
                            f"exit {op['rc']}: {op['output'].strip()[-300:]}")
                if not any(per_op.values()):
                    per_op["run"] += check_run(rep_dir / "run", self.data_dir,
                                               self.reachable)
                    if self.workload == "study":
                        for name, found in check_study(rep_dir).items():
                            per_op[name] += found
                problems = [f"{name}: {p}" for name, found in per_op.items() for p in found]
                n_failed = sum(1 for found in per_op.values() if found)
            else:
                n_failed = len(names)
            self.failed += n_failed
            self.problems += [f"rep {index}: {p}" for p in problems]
            return result
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def _run_worker(self, rep_dir: Path) -> list[str]:
        timeout = max(5.0, LIMIT_S - (time.perf_counter() - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(rep_dir / "spec.json"),
                 str(rep_dir / "result.json")],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return [f"worker killed after {timeout:.0f} s"]
        if proc.returncode != 0 or not (rep_dir / "result.json").is_file():
            return [f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        return []


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = WorkloadRun(workload, seed)
    try:
        # The first repetition after input generation runs slow (its BLAS
        # threads and page cache are cold), so it is checked but not timed.
        run.repetition(0, trace=False)
        results = []
        index = 1
        deadline = time.perf_counter() + seconds
        while index <= MIN_REPS or time.perf_counter() < deadline:
            if time.perf_counter() - run.started > START_BY_S:
                break
            result = run.repetition(index, trace=False)
            index += 1
            if result is not None:
                results.append(result)
        if not results:
            raise RuntimeError(f"{workload}: no repetition finished: "
                               + "; ".join(run.problems[-3:]))
        scored = queries_scored(workload, len(run.reachable))
        samples = {
            "wall_s": [r["wall_s"] for r in results],
            "localizations_per_s": [scored / r["wall_s"] for r in results],
            "setup_s": [r["setup_s"] for r in results],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in results],
        }
        traced = run.repetition(index, trace=True) if trace else None
        if trace and traced is None:
            raise RuntimeError(f"{workload}: traced repetition failed: "
                               + "; ".join(run.problems[-3:]))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    summary = {name: dict(zip(("median", "q1", "q3"), _quartiles(values)),
                          n=len(values), unit=END_TO_END[name])
               for name, values in samples.items()}
    out = {
        "workload": workload, "seed": seed, "inputs": run.inputs,
        "queries_scored_per_rep": scored, "environment": run.environment,
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / run.attempted, "problems": run.problems,
        "samples": samples, "summary": summary,
        "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                    for name, s in summary.items()},
    }
    if traced is not None:
        overhead = traced["wall_s"] - summary["wall_s"]["median"]
        out["metrics"] = layer_metrics(
            traced["tracer"]["spans"], traced["tracer"]["raw"],
            traced["cache_hits"], traced["cache_misses"], overhead)
    return out


def print_report(res: dict) -> None:
    inp = res["inputs"]
    print(f"== {res['workload']} (seed {res['seed']}): {inp['n_support']} support x "
          f"{inp['n_query']} query ({inp['n_query_reachable']} reachable), "
          f"d={inp['dim']}, {sum(inp['bytes_on_disk'].values()) / 1e6:.1f} MB on "
          f"disk; {res['queries_scored_per_rep']} queries scored per repetition")
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit")
    for name, s in res["summary"].items():
        print(f"{name:<22}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['n']:>5}  {s['unit']}")
    print(f"{'error_rate':<22}{res['error_rate']:>14.6g}{'':>28}{res['attempted']:>5}  "
          f"ratio ({res['failed']} of {res['attempted']} operations failed)")
    for problem in res["problems"]:
        print(f"  failed: {problem}")
    if "trace.overhead_s" in res["metrics"]:
        print("per-layer (traced repetition; bytes and flops are computed):")
        for name, m in res["metrics"].items():
            print(f"  {name:<44}{m['value']:>16.6g} {m['unit']}")
    record = {k: res[k] for k in ("workload", "seed", "inputs", "environment",
                                  "queries_scored_per_rep", "samples", "problems")}
    print("record: " + json.dumps(record, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gsloc" / "__init__.py").is_file():
        print(f"error: no gsloc source tree at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A killed run can leave a directory (and its .lock) behind; one caller
    # at a time owns the work directory, so sweep it.
    shutil.rmtree(WORK, ignore_errors=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(res)
            results.append(res)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    prefix = len(results) > 1
    line = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
