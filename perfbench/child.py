"""One workload in a fresh process: import the program, report ready, run passes.

run.py starts this file; it is not meant to be run by hand.

    child.py --probe
        import cavsr, print "ready", exit (one set-up sample)
    child.py --workload W --seed N --seconds S --trace 0|1 --out-dir DIR
        import cavsr, print "ready", repeat passes of W until S seconds have
        gone by, run the oracles, print one JSON line with each pass's clock
        marks, the calls among them, the checks, the environment and, when traced, the per-layer
        metrics. Spans go to DIR/spans-W.json.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    for mod in (numpy, scipy):
        try:
            cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = cfg.get("openblas configuration") or f"{cfg['name']} {cfg['version']}"
        except (KeyError, TypeError):
            blas[mod.__name__] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # left at the user's setting, so spinning BLAS threads show in cpu_s
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }


def run_workload(args, import_s: float) -> dict:
    import spans
    import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as scratch:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        checks = workloads.Checks()
        tracer = spans.Tracer() if args.trace else None
        passes: list[list[tuple[float, float]]] = []
        calls: list[tuple[int, int]] = []
        peak_rss_mb = 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            with contextlib.ExitStack() as stack:
                wl.probes(stack)
                if tracer is not None:
                    workloads.install_tracing(tracer, stack)
                wl.marks, wl.calls = [workloads.mark()], []
                wl.run_pass()
                wl.marks.append(workloads.mark())
            if not passes:
                # one pass is what a user's process does; later passes would
                # add allocator growth that depends on how many passes fit
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                calls = wl.calls
            passes.append(wl.marks)
            wl.check_pass(checks)
        wl.check_run(checks)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "passes": passes,
        "calls": calls,
        "call_unit": wl.call_unit,
        "items": wl.items,
        "item_unit": wl.item_unit,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "misses": checks.misses,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "env": environment(),
    }
    if tracer is not None:
        traced_s = sum(marks[-1][0] - marks[0][0] for marks in passes)
        out["layers"] = workloads.layer_metrics(tracer, len(passes), traced_s, import_s)
        tracer.dump(os.path.join(args.out_dir, f"spans-{args.workload}.json"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cavsr.cli  # noqa: F401  (the program's own set-up cost)

    import_s = time.perf_counter() - T0
    print("ready", flush=True)
    if args.probe:
        return 0
    print(json.dumps(run_workload(args, import_s)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
