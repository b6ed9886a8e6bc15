"""Benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs one workload from ``workloads.py`` as a closed loop with a single
caller: the next op starts when the previous one has returned and been
checked.  The loop stops after the op in flight once ``--seconds`` have passed.  Every
op's answer is checked, outside the timed part.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up time
is the median of several set-ups: this process's own and a few more in fresh
processes run one after another.

``--trace 1`` runs the first round with the layers wrapped by ``tracer.py``
(in-process, or through ``cli_child.py`` for CLI children), then whole
untraced rounds until ``--seconds`` have passed, and reports the per-layer
metrics of BENCHMARK.json summed over the traced round, plus the tracing
overhead: traced minus untraced median op time.

The last line of standard output is the result object; a human summary goes
to standard error.  ``--out`` appends the full result, stamped with host,
Python, nproc and commit, to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import workloads as wl
from cli_child import MARKER
from tracer import Tracer, merge

SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile


def load_spec() -> dict:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = wl.ROOT / ".git"
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


def stamp() -> dict:
    return {"host": platform.node(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": git_commit()}


class Runner:
    """Runs ops, times them, checks their answers and keeps the tallies."""

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.expected = wl.load_digests() if workload.digests else {}
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.layers: Dict[str, float] = {}

    def _digest(self, key: str, text: str) -> None:
        d = wl.digest(text)
        if self.workload.digests:
            wl.check(self.expected.get(key) == d, f"{key}: digest {d} is not the recorded one")
        wl.check(self.digests.setdefault(key, d) == d, f"{key}: digest changed within the run")

    def run_op(self, op, tracer: Optional[Tracer] = None) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.op_id, tracer.on = self.attempted, True
            try:
                raw = op.run()
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.on = False
            self._digest(op.key, op.check(raw))
            if getattr(op, "traced", False):
                self._child_trace(raw.stderr, elapsed)
        except Exception as exc:  # a failed op is counted, reported and the loop goes on
            self.failed += 1
            sys.stderr.write(f"FAILED {op.key}: {type(exc).__name__}: {exc}\n")
        return elapsed

    def _child_trace(self, stderr: str, wall: float) -> None:
        line = stderr.rstrip("\n").rsplit("\n", 1)[-1]
        wl.check(line.startswith(MARKER), "traced CLI child wrote no trace summary")
        part = json.loads(line[len(MARKER):])
        part["cli.interpreter_s"] = wall - part["cli.import_s"] - part.get("cli.main.s", 0.0)
        merge(self.layers, part)

    def run_rounds(self, first, rounds, seconds: float) -> dict:
        """Ops of ``first`` and the following rounds until ``seconds`` have
        passed.  Throughput counts whole rounds only, so that every seed
        weighs the same mix."""
        times: List[float] = []
        start = time.perf_counter()
        failed_before = self.failed
        whole = None  # (completed ops, seconds) at the end of the last whole round
        batch = first
        while True:
            for i, op in enumerate(batch, 1):
                times.append(self.run_op(op))
                elapsed = time.perf_counter() - start
                completed = len(times) - (self.failed - failed_before)
                if i == len(batch):
                    whole = (completed, elapsed)
                if elapsed >= seconds:
                    done, spent = whole or (completed, elapsed)
                    return {"times": times, "elapsed_s": elapsed, "ops_per_s": done / spent}
            batch = next(rounds)


def tail(times: List[float]) -> tuple:
    """The highest percentile with at least TAIL_BEYOND ops beyond it, as
    (time, percentile, ops beyond); fewer ops leave fewer beyond it."""
    ordered = sorted(times)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def setup_probe(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def measure(name: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    workload, first, rounds = wl.setup(name, seed)
    setups = [time.perf_counter() - start]
    setups += [setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    runner = Runner(workload)
    loop = runner.run_rounds(first, rounds, seconds)
    times, elapsed = loop["times"], loop["elapsed_s"]
    tail_s, tail_pct, beyond = tail(times)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "ops_per_s": loop["ops_per_s"],
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    sys.stderr.write(
        f"{name} seed={seed}: {len(times)} ops in {elapsed:.1f} s, "
        f"p50 {values['op_s_p50']:.4f} s, tail p{tail_pct:.1f} {tail_s:.4f} s "
        f"({beyond} of {len(times)} ops beyond it), set-up {values['setup_s']:.4f} s, "
        f"failed {runner.failed}/{runner.attempted}\n")
    return {"runner": runner, "values": values,
            "extra": {"ops": len(times), "op_times": times, "tail_percentile": tail_pct,
                      "setup_samples": setups, "elapsed_s": elapsed}}


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    workload, first, rounds = wl.setup(name, seed)
    runner = Runner(workload)
    start = time.perf_counter()
    tracer = None
    if workload.in_process:
        tracer = Tracer()
        tracer.install()
    traced = []
    for op in first:
        if not workload.in_process:
            op.traced = True
        traced.append(runner.run_op(op, tracer))
    untraced = runner.run_rounds(next(rounds), rounds,
                                 max(0.0, seconds - (time.perf_counter() - start)))["times"]
    if tracer is not None:
        runner.layers = tracer.summary()
    values = dict(runner.layers)
    values["trace.ops"] = len(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    sys.stderr.write(
        f"{name} seed={seed} traced: {len(traced)} traced ops, p50 "
        f"{statistics.median(traced):.4f} s against {statistics.median(untraced):.4f} s "
        f"untraced over {len(untraced)} ops, failed {runner.failed}/{runner.attempted}\n")
    return {"runner": runner, "values": values, "extra": {"untraced_ops": len(untraced)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed length of the run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the stamped result to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        start = time.perf_counter()
        wl.setup(args.workload, args.seed)
        print(time.perf_counter() - start)
        return 0

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    run = (measure_traced if args.trace else measure)(args.workload, args.seed, seconds)
    runner: Runner = run["runner"]
    metrics = {m["name"]: {"value": run["values"].get(m["name"], 0), "unit": m["unit"]}
               for m in declared}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed, seconds=seconds,
                      trace=args.trace, stamp=stamp(),
                      failed_ratio=runner.failed / runner.attempted,
                      digests=runner.digests, **run["extra"])
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
