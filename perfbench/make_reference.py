"""Measure the Monte Carlo reference rates that the output checks use.

    python3 perfbench/make_reference.py > perfbench/reference.json

Run it once at the commit that defines (or deliberately changes) the
simulated statistics; it takes about five minutes on a 2-core Xeon. The
seeds lie far from the benchmark's cycle seeds.
"""

from __future__ import annotations

import json
import statistics
import sys

import workloads as wl
from worker import Runner, import_cli

REFERENCE_SEED = 424_242
RATE_TRIALS = ((wl.KNILL_S5, 6000), (wl.DECODE_BP, 4000), (wl.DECODE_MWPM, 100_000))
CHAIN_SAMPLES = 16


def main() -> int:
    runner = Runner(import_cli(), reference={})
    out = {}
    for cmd, trials in RATE_TRIALS:
        runner.invoke(cmd, REFERENCE_SEED, trials)
        pool = runner.pools[cmd.key]
        out[cmd.key] = {"trials": pool.trials, "failures": pool.events, "seed": REFERENCE_SEED}
    for i in range(CHAIN_SAMPLES):
        runner.invoke(wl.CHAIN, REFERENCE_SEED + i)
    values = runner.pools[wl.CHAIN.key].values
    out[wl.CHAIN.key] = {
        "mean": statistics.fmean(values),
        "std": statistics.stdev(values),
        "samples": len(values),
        "seeds": [REFERENCE_SEED, REFERENCE_SEED + CHAIN_SAMPLES - 1],
    }
    if runner.problems:
        print("\n".join(runner.problems), file=sys.stderr)
        return 1
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
