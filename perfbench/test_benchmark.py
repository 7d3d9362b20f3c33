"""Self-checks of the benchmark's own form.

    python3 -m pytest perfbench/test_benchmark.py -q

Every metric named in BENCHMARK.json is emitted with its declared unit, each
workload runs end to end at a tiny size in both modes, the hand expansion
reproduces the paper's values, and the tracer reaches every binding.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_benchmark_json_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert declared("end_to_end") == run.END_TO_END_UNITS


def test_hand_expansion_matches_paper():
    assert oracle.self_check() == []
    assert len(oracle.VARIANTS) == 24


def test_sweep_inputs_are_distinct():
    inputs = [repr(item) for item in workloads.sweep_inputs()]
    assert len(inputs) == len(set(inputs))


def test_tracer_rebinds_and_restores():
    import frsim.analysis
    import frsim.measurement
    import frsim.reference

    original = frsim.measurement.branch_all
    composite = frsim.reference._COMPOSITES["coin_lab"]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert frsim.analysis.branch_all is frsim.measurement.branch_all is not original
        assert frsim.reference._COMPOSITES["coin_lab"][1].__wrapped__ is composite[1]
        frsim.enumerate_exact(frsim.ProtocolVariant())
    finally:
        tracer.uninstall()
    assert frsim.analysis.branch_all is frsim.measurement.branch_all is original
    assert frsim.reference._COMPOSITES["coin_lab"] is composite
    assert tracer.calls["analysis.enumerate_exact"] == 1
    assert tracer.calls["measurement.branch_all"] > 0
    assert tracer.calls["systems.basis_build"] > 0


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_runs_tiny(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    per_round = 5 + sum(n - 1 for n in workloads.CLI_REPEATS.values()) + len(workloads.KNOWN_FAULTS)
    if workload != "cli_calls":
        assert result["failed"] == 0
    else:
        assert result["attempted"] % per_round == 0
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
