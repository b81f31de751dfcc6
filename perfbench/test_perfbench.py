"""Self-tests of the benchmark (about two minutes on two cores):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner, import_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_minimal_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and workload == "decode_mix":
        assert values["stabsim.measure.calls"] == values["stabsim.gate.calls"] == 0
    if trace and workload == "knill_surface5":
        assert values["stabsim.self_share"] > 0.5
    if not trace:
        assert all(v > 0 for v in values.values())


def test_traced_rows_equal_untraced_rows_and_originals_come_back():
    cli = import_cli()
    commands = [(wl.KNILL_S5, 3), (wl.DECODE_BP, 3), (wl.DECODE_MWPM, 50), (wl.SWAP, 20)]
    plain = Runner(cli, wl.load_reference())
    for cmd, trials in commands:
        plain.invoke(cmd, 11, trials)
    from qnetcode import cli as cli_module, decoders, stabsim

    def bindings():
        return (cli_module.main, cli_module.stream, decoders.code_syndrome,
                stabsim.StabilizerState.__dict__["measure_pauli"])

    before = bindings()
    traced = Runner(cli, wl.load_reference())
    tracer = Tracer()
    with tracer:
        assert all(w is not b for w, b in zip(bindings(), before))
        for cmd, trials in commands:
            traced.invoke(cmd, 11, trials)
    assert bindings() == before
    assert traced.digests == plain.digests and not traced.problems and not plain.problems
    assert set(tracer.metrics(1.0, 1.0, 0.0)) == {m["name"] for m in SPEC["per_layer"]}
    spans = tracer.arrays()
    assert set(spans["invocation"]) == {1, 2, 3, 4}  # one id per CLI call
    assert (spans["end"] >= spans["start"]).all()


def test_checks_catch_wrong_output():
    pool = wl.Pool()
    row = {"code_id": "surface:5", "p_eff": 0.02, "trials": 40, "logical_failures": 1,
           "failure_rate": 1 / 40}
    assert any("p_eff" in p for p in wl.check_invocation(wl.KNILL_S5, None, [row], pool))
    ref = wl.load_reference()[wl.DECODE_MWPM.key]
    assert wl.rate_matches_reference(ref["failures"] // 100, ref["trials"] // 100,
                                     ref["failures"], ref["trials"])
    assert not wl.rate_matches_reference(ref["failures"] // 50, ref["trials"] // 100,
                                         ref["failures"], ref["trials"])
    swaps = wl.Pool()
    swaps.trials, swaps.events = 10_000, 6_000
    assert wl.check_pool(wl.SWAP, swaps, {})


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("knill_surface5", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
