"""Run one workload in this process and print one JSON line of raw results.

Started by ``bench/run.py``, which passes its monotonic clock reading taken
just before the spawn (``--spawned``), so set-up time counts from process
start: interpreter start-up, imports, input generation and problem
construction.  With ``--setup-only`` the process stops there.  Otherwise it
runs passes of the workload until another pass would overrun ``--seconds``
(at least two).  With ``--trace 1`` the passes alternate untraced and traced,
starting untraced; the traced ones give the per-layer metrics and every pass
must reproduce the first pass's results bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import inhibopt

    where = Path(inhibopt.__file__).resolve().parent
    if where != src / "inhibopt":
        raise ImportError(f"imported inhibopt from {where}, not from {src}")


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas_name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if tracer is not None:
            tracer.uninstall()
        setup_spans = tracer.take() if tracer is not None else []
        out = {"setup_s": time.monotonic() - args.spawned}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        passes, layers = [], []
        first = None
        start = time.monotonic()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                rec = workload.run_pass()
            finally:
                if traced:
                    tracer.uninstall()
            failures = rec.failures
            first = first or rec.fingerprint
            if rec.fingerprint != first:
                failures = failures + [f"pass {len(passes) + 1} ({'traced' if traced else 'untraced'})"
                                       " results differ from pass 1"]
            passes.append({"traced": traced, "op_ms": [1e3 * s for s in rec.op_seconds],
                           "attempted": rec.attempted, "failures": failures,
                           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            if traced:
                metrics = per_layer_metrics(setup_spans + tracer.take())
                metrics.update(rec.indicators)
                layers.append(metrics)
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break

        if layers:
            out["per_layer"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        out["passes"] = passes
        out["environment"] = _environment()
        print(json.dumps(out))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
