"""qnetcode benchmark: Monte Carlo trials per second through the public CLI.

    python3 perfbench/run.py --workload knill_surface5 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports qnetcode from ``src/``.
Workloads are defined in ``workloads.py`` and described in README.md.

With ``--trace 0`` it reports the end-to-end metrics ``trials_per_s``
(median over cycles), ``setup_s`` (median over SETUP_SAMPLES fresh
processes) and ``peak_rss_mb``. With ``--trace 1`` it reports per-layer
metrics from a traced run (see ``tracer.py``). Metric names and units
are those listed in ``BENCHMARK.json``. Either way the last stdout
line is one JSON object with ``correct``, ``attempted`` (CLI invocations),
``failed`` (invocations that raised, exited non-zero or failed a check)
and ``metrics``. The line before it records the machine, the git SHA,
the ``src/`` line count and the per-cycle figures; the same record goes
to ``perfbench/out/``.

The parent process never imports qnetcode; each measurement runs in a
fresh worker process (``worker.py``) with one closed-loop caller.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run must end within 180 s

sys.path.insert(0, str(BENCH))
import workloads as wl  # noqa: E402
from worker import reference_cycle_s  # noqa: E402


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0 or not rest.strip():
        raise BenchError(f"worker {mode} exited with {code} (deadline or crash); see stderr")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups, results = [], []
    for _ in range(SETUP_SAMPLES - 1):
        setup_s, res = spawn(workload, seed, seconds, "setup", deadline)
        setups.append(setup_s)
        results.append(res)
    setup_s, res = spawn(workload, seed, seconds, "measure", deadline)
    setups.append(setup_s)
    results.append(res)
    cycles = res["cycles"]
    trials = sum(cmd.trial_count() for cmd in wl.WORKLOADS[workload].mix)
    metrics = {
        "trials_per_s": trials / reference_cycle_s(cycles),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "setup_samples_s": setups,
        "trials_per_cycle": trials,
        "raw_trials_per_s": trials / reference_cycle_s(cycles, raw=True),
        "calls_wall_and_calibration_s": cycles,
    }
    return metrics, _merge(results, detail)


def trace(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    _, res = spawn(workload, seed, seconds, "trace", deadline)
    return res["metrics"], _merge([res], {"cycles": res["cycles"]})


def _merge(results: list[dict], detail: dict) -> dict:
    detail["attempted"] = sum(r["attempted"] for r in results)
    detail["failed"] = sum(r["failed"] for r in results)
    detail["problems"] = [p for r in results for p in r["problems"]]
    return detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qnetcode" / "cli.py").is_file():
        print(f"error: no qnetcode sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        run = trace if args.trace else measure
        values, detail = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_record(), **detail}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=2))
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
