"""cavsr benchmark: one workload per call, each in its own child process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
One caller, closed loop: the child repeats fixed passes of the workload
back to back for S seconds, one pass at a time, and nothing else runs
beside it. Every output is checked against an oracle.

--trace 0 prints the end-to-end metrics: set-up time from three probe
processes plus the workload child, and the pass and call times with each
segment of a pass at its fastest repeat (best_segments).
--trace 1 runs the workload untraced and then traced, S/2 seconds each,
and prints the per-layer metrics from the traced half's spans, with the
tracing overhead as traced minus untraced pass time.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it records the environment and the sample counts. Exit
status 1 means an operation failed or an oracle missed; 2 means the run
could not be made at all and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("steady-large", "sweep-small", "trajectory", "transient")
SETUP_PROBES = 3
DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With n samples that is the eleventh largest, at percentile 100 (n - 10) / n.
    With ten or fewer there is no such percentile and the maximum is returned
    at percentile 100; the sample count is reported beside it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Child:
    """A child process started at t0; leaving the with block kills it if still running."""

    def __init__(self, argv: list[str], deadline: float) -> None:
        self.deadline = deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), *argv],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0.0:
            raise RunError("benchmark deadline passed")
        return left

    def ready(self) -> float:
        """Seconds from process start to its "ready" line."""
        readable, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
        if not readable or self.proc.stdout.readline().strip() != "ready":
            raise RunError("child did not start")
        return time.perf_counter() - self.t0

    def finish(self) -> str:
        """Everything the child printed after "ready", once it has exited cleanly."""
        try:
            out, _ = self.proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise RunError("child overran the benchmark deadline") from None
        if self.proc.returncode != 0:
            raise RunError(f"child exited with status {self.proc.returncode}")
        return out


def run_child(args, seconds: float, trace: int, deadline: float) -> tuple[dict, float]:
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--out-dir", OUT_DIR]
    with Child(argv, deadline) as child:
        setup = child.ready()
        lines = child.finish().strip().splitlines()
    if not lines:
        raise RunError("child printed no result")
    return json.loads(lines[-1]), setup


def setup_sample(deadline: float) -> float:
    with Child(["--probe"], deadline) as child:
        setup = child.ready()
        child.finish()
    return setup


def best_segments(passes: list[list[list[float]]]) -> tuple[list[float], list[float]]:
    """Wall and CPU time of each segment of a pass, at its fastest repeat.

    A pass's marks, each (wall, cpu), cut it into segments: the gap before
    the first timed function, that function, the gap to the next mark, and
    so on to the gap after the last. Every pass does the same work, so
    segment i is the same work in each; its time is the least over the
    passes with as many marks as the first. Summed, the segments give a
    pass free of the host's slow spells, which come and go within
    milliseconds and which a whole pass's time averages in.
    """
    n = len(passes[0])
    same = [marks for marks in passes if len(marks) == n]
    walls = [min(m[i + 1][0] - m[i][0] for m in same) for i in range(n - 1)]
    cpus = [min(m[i + 1][1] - m[i][1] for m in same) for i in range(n - 1)]
    return walls, cpus


def call_times(walls: list[float], calls: list[list[int]]) -> list[float]:
    """Each call's time: the segments between its first and last mark, summed."""
    return [sum(walls[first:last]) for first, last in calls]


def end_to_end(res: dict, setups: list[float]) -> dict:
    walls, cpus = best_segments(res["passes"])
    calls = call_times(walls, res["calls"])
    if not calls:
        raise RunError("no call of the workload completed")
    tail_s, _ = tail(calls)
    wall_s = sum(walls)
    items_per_pass = res["items"] / len(res["passes"])
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "cpu_s": {"value": sum(cpus), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "throughput_per_s": {"value": items_per_pass / wall_s, "unit": "1/s"},
        "call_p50_ms": {"value": 1e3 * statistics.median(calls), "unit": "ms"},
        "call_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    layers = dict(traced["layers"])
    overhead = sum(best_segments(traced["passes"])[0]) - sum(best_segments(untraced["passes"])[0])
    layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return layers


def detail(args, children: list[dict], setups: list[float], result: dict) -> dict:
    """The record printed before the result line: environment and sample counts."""
    res = children[0]
    calls = call_times(best_segments(res["passes"])[0], res["calls"])
    _, pct = tail(calls) if calls else (None, None)
    pass_walls = [marks[-1][0] - marks[0][0] for marks in res["passes"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "passes": [len(c["passes"]) for c in children],
        # whole passes as timed, beside the fastest-segment wall_s
        "pass_wall_s": {"median": statistics.median(pass_walls), "min": min(pass_walls),
                        "max": max(pass_walls)},
        "calls": len(calls),
        "call_unit": res["call_unit"],
        "call_tail_percentile": pct,
        "items": res["items"],
        "item_unit": res["item_unit"],
        "setup_samples": setups,
        "failed_frac": result["failed"] / result["attempted"] if result["attempted"] else 1.0,
        "misses": [m for c in children for m in c["misses"]],
    }


def summarize(children: list[dict], metrics: dict) -> tuple[dict, int]:
    """Result line and exit status: any failed operation or oracle miss fails the run."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = attempted > 0 and failed == 0
    return (
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
        0 if correct else 1,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cavsr benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "cavsr", "__init__.py")):
            raise RunError(f"no cavsr sources under {os.path.join(ROOT, 'src')}")
        if args.trace:
            untraced, setup = run_child(args, 0.5 * args.seconds, 0, deadline)
            traced, _ = run_child(args, 0.5 * args.seconds, 1, deadline)
            children, setups = [untraced, traced], [setup]
            metrics = per_layer(untraced, traced)
        else:
            res, setup = run_child(args, args.seconds, 0, deadline)
            setups = [setup] + [setup_sample(deadline) for _ in range(SETUP_PROBES)]
            children = [res]
            metrics = end_to_end(res, setups)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result, status = summarize(children, metrics)
    print(json.dumps(detail(args, children, setups, result)))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
