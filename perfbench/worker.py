"""One measuring process of the benchmark (started by run.py).

Every run gets a fresh interpreter. The process imports qnetcode from the
checkout's ``src/``, makes the workload's set-up invocations (``--trials
1`` of each command), prints ``READY`` and then, by ``--mode``:

- ``setup``: exits; the parent times process start to ``READY``.
- ``measure``: repeats the workload's cycle until ``--seconds`` have
  passed, with tracing off, and reports the wall time of every call and
  the process's peak resident memory.
- ``trace``: runs a fixed number of cycles untraced, then the same cycles
  traced, checks that both gave equal data rows, and reports per-layer
  metrics. Spans are written to ``perfbench/out/``.

The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

import workloads as wl  # noqa: E402  (sibling module; run as a script)


def import_cli():
    sys.path.insert(0, str(SRC))
    import qnetcode.cli

    if SRC.resolve() not in Path(qnetcode.cli.__file__).resolve().parents:
        raise SystemExit(f"qnetcode was imported from {qnetcode.cli.__file__}, not from {SRC}")
    return qnetcode.cli


# Neighbours on a shared machine slow every call by up to 2.5x for tens of
# seconds at a time, longer than a run. Each call is therefore timed next
# to a fixed calibration kernel, and its wall time is scaled to the speed
# at which the kernel takes CALIBRATION_REF_S (its fast-phase time on the
# 2-core Xeon the benchmark was written on).
CALIBRATION_ITERS = 2000
CALIBRATION_REF_S = 0.030


def calibration_s() -> float:
    """Wall time of a fixed kernel of small-array numpy and interpreter work,
    the mix of work the CLI spends its time on. Timed next to every call,
    it tracks how fast the shared machine runs at that moment."""
    import numpy as np

    a = (np.arange(75 * 75, dtype=np.int64).reshape(75, 75) * 7 % 3 == 0).astype(np.uint8)
    v = np.ones(75, dtype=np.int64)
    acc = 0
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ITERS):
        r = (a @ v) % 2
        a[i % 75] ^= r.astype(np.uint8)
        v = r + 1
        acc += int(r.sum()) + i * i % 7
    return time.perf_counter() - t0


class Runner:
    """Makes CLI invocations through ``cli.main`` and checks their rows.

    The first call with a given argv is checked and pooled; a repeat must
    print the same data rows (wall-time columns aside)."""

    def __init__(self, cli, reference: dict):
        self.cli = cli
        self.reference = reference
        self.pools: dict[str, wl.Pool] = defaultdict(wl.Pool)
        self.commands: dict[str, wl.Command] = {}
        self.ok: list[tuple[str, bool]] = []  # (command key, passed) per invocation
        self.problems: list[str] = []
        self.digests: dict[tuple[str, ...], str] = {}

    def invoke(self, cmd: wl.Command, seed: int, trials: int | None = None) -> float:
        """One CLI call; returns its wall time in seconds."""
        argv = cmd.invocation(seed, trials)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as e:  # a crash is a failed invocation, not a dead run
                code = f"raised {e!r}"
            wall = time.perf_counter() - t0
        self.commands[cmd.key] = cmd
        problems = []
        if code != 0:
            problems.append(f"{cmd.key}: exit {code}: {err.getvalue().strip()[-300:]}")
        else:
            try:
                rows = json.loads(out.getvalue())
            except ValueError as e:
                problems.append(f"{cmd.key}: output is not JSON: {e}")
            else:
                data = json.dumps(wl.comparable(rows), sort_keys=True).encode()
                digest = hashlib.sha256(data).hexdigest()
                key = tuple(argv)
                if key not in self.digests:
                    self.digests[key] = digest
                    problems += wl.check_invocation(cmd, trials, rows, self.pools[cmd.key])
                elif self.digests[key] != digest:
                    problems.append(f"{cmd.key}: rows differ from an earlier call with the same argv")
        self.ok.append((cmd.key, not problems))
        self.problems += [f"{' '.join(argv)}: {p}" for p in problems]
        return wall

    def setup(self, workload: wl.Workload, seed: int):
        for cmd in workload.setup:
            self.invoke(cmd, seed, trials=1)

    def cycle(self, workload: wl.Workload, seed: int) -> list[list[float]]:
        """One pass over the mix; returns [call wall s, calibration s] per
        command, the calibration being the mean of kernel runs just before
        and just after the call."""
        calls = []
        for cmd in workload.mix:
            before = calibration_s()
            wall = self.invoke(cmd, seed)
            calls.append([wall, (before + calibration_s()) / 2])
        return calls

    def finish(self) -> dict:
        """Pooled rate checks; a failed one fails every invocation pooled in it."""
        bad_keys = set()
        for key, pool in self.pools.items():
            problems = wl.check_pool(self.commands[key], pool, self.reference)
            if problems:
                bad_keys.add(key)
                self.problems += problems
        failed = sum(1 for key, ok in self.ok if not ok or key in bad_keys)
        return {"attempted": len(self.ok), "failed": failed, "problems": self.problems[:20]}


def reference_cycle_s(cycles: list[list[list[float]]], raw: bool = False) -> float:
    """Sum over the mix's commands of the median call time, each call's wall
    time scaled to the reference machine speed at which the calibration
    kernel takes CALIBRATION_REF_S (unscaled with ``raw``)."""
    return sum(
        statistics.median(wall if raw else wall * CALIBRATION_REF_S / cal for wall, cal in calls)
        for calls in zip(*cycles)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    runner = Runner(import_cli(), wl.load_reference())
    runner.setup(workload, args.seed)
    print("READY", flush=True)
    result: dict = {}

    if args.mode == "measure":
        cycles = []
        t0 = time.perf_counter()
        while not cycles or time.perf_counter() - t0 < args.seconds:
            cycles.append(runner.cycle(workload, args.seed))
        result["cycles"] = cycles
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    elif args.mode == "trace":
        from tracer import Tracer

        n = workload.trace_cycles(args.seconds)
        untraced = [runner.cycle(workload, args.seed) for _ in range(n)]
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer:  # repeats are compared with the untraced rows by the runner
            traced = [runner.cycle(workload, args.seed) for _ in range(n)]
        phase_wall = time.perf_counter() - t0
        overhead = reference_cycle_s(traced) / reference_cycle_s(untraced) - 1.0
        result["cycles"] = n
        traced_cli_s = sum(call[0] for cycle in traced for call in cycle)
        result["metrics"] = tracer.metrics(phase_wall, traced_cli_s, overhead)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    result.update(runner.finish())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
