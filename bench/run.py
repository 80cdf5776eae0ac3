"""Benchmark for inhibopt: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Each workload runs in child processes (``bench/child.py``) that import the
program from ``src/``; this process imports nothing that starts threads.  With
``--trace 0`` the end-to-end metrics named in BENCHMARK.json are measured with
tracing off: ``setup_s`` is the median over several child starts, the other
metrics come from one child that runs passes of the workload for
``--seconds``.  With ``--trace 1`` one child alternates untraced and traced
passes and reports the per-layer metrics.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("field-large", "cli-small", "averaged-batch")
SETUP_STARTS = 7  # setup_s is the median over this many child starts
TIME_LIMIT_S = 170.0  # one workload, all of its children, must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env(nproc: int) -> dict:
    """This environment with every BLAS/OpenMP thread count capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            env[var] = str(nproc)
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, env: dict,
           deadline: float, setup_only: bool = False) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before starting a child")
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child killed after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: child printed no result line") from None


def _median_wall(passes: list[dict]) -> float:
    """Median over passes of the pass's timed ops, in seconds."""
    return statistics.median(sum(p["op_ms"]) for p in passes) / 1e3


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def measure(workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    """Run one workload's children; return metrics, op counts and failure messages."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setup = [] if trace else [
        _spawn(workload, seed, seconds, 0, env, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_STARTS - 1)]
    run = _spawn(workload, seed, seconds, trace, env, deadline)
    passes = run["passes"]
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "passes": len(passes),
        "ops_per_pass": passes[0]["attempted"],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "failures": failures,
        "environment": run["environment"],
    }
    if trace:
        untraced, traced = ([p for p in passes if p["traced"] == t] for t in (False, True))
        # the first pass also pays the fresh process's first touch of its memory
        overhead = _median_wall(traced) - _median_wall(untraced[1:] or untraced)
        result["metrics"] = {**run["per_layer"], "trace.overhead_s": overhead}
        return result
    setup.append(run["setup_s"])
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "wall_s": _median_wall(passes),
        "peak_rss_mb": passes[0]["rss_mb"],
        "op_p50_ms": statistics.median(_percentile(p["op_ms"], 50) for p in passes),
        "op_p90_ms": statistics.median(_percentile(p["op_ms"], 90) for p in passes),
    }
    result["setup_starts"] = len(setup)
    return result


def _declared(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _report(workload: str, seed: int, res: dict, declared: list[dict], trace: int) -> None:
    ops = res["ops_per_pass"]
    print(f"{workload}  seed={seed}  trace={trace}  passes={res['passes']}  ops={res['attempted']} "
          f"({ops} per pass)  failed={res['failed']}  "
          f"fail_ratio={res['failed'] / res['attempted']:.4g}")
    notes = {
        "setup_s": f"median of {res.get('setup_starts')} process starts",
        "wall_s": f"median over {res['passes']} passes of {ops} timed ops",
        "peak_rss_mb": "ru_maxrss of the measuring child after set-up and one pass",
        "op_p50_ms": f"per pass over {ops} ops, median of {res['passes']} passes",
        "op_p90_ms": f"per pass over {ops} ops, median of {res['passes']} passes",
    }
    for m in declared:
        value = res["metrics"][m["name"]]
        print(f"  {m['name']:<32} {value:>14.6g} {m['unit']:<6} {notes.get(m['name'], '')}")
    for msg in res["failures"][:10]:
        print(f"  FAILED {msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inhibopt" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'inhibopt'} is missing",
              file=sys.stderr)
        return 2
    declared = _declared(args.trace)
    nproc = _nproc()
    env = _child_env(nproc)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for w in workloads:
            results[w] = measure(w, args.seed, args.seconds, args.trace, env)
            _report(w, args.seed, results[w], declared, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    environment = {"nproc": nproc, **results[workloads[0]]["environment"],
                   **{v: env[v] for v in THREAD_VARS}}
    print("environment: " + "  ".join(f"{k}={v}" for k, v in environment.items()))

    def entry(res, m):
        return {"value": res["metrics"][m["name"]], "unit": m["unit"]}

    if args.workload:
        metrics = {m["name"]: entry(results[args.workload], m) for m in declared}
    else:
        metrics = {f"{w}/{m['name']}": entry(results[w], m) for w in workloads for m in declared}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
