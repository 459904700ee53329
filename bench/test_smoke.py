"""Smoke test of the benchmark harness on a tiny dataset.

Every workload in BENCHMARK.json runs once untraced and once traced.  The
test checks that each metric BENCHMARK.json names is emitted with its
unit and that the correctness checks ran; it asserts no timing value.
Run from the repository root::

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> run.Workload:
    return replace(run.WORKLOADS[name], spec=run.SMALL, cycle=2)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_reports_every_metric_and_runs_its_checks(name, trace, tmp_path):
    workload = tiny(name)
    record = run.run_workload(workload, seed=3, seconds=0.01, trace=trace, work=tmp_path)

    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["problems"]
    assert result["attempted"] >= 2
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {metric: entry["unit"] for metric, entry in result["metrics"].items()} == wanted
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())
    assert record["detail"]["ops_failed_ratio"]["value"] == 0

    checks = record["checks"]
    assert checks["ops_checked"] >= 2
    assert checks["ledger_checks"] == checks["ops_checked"]
    if workload.kind == "cli":
        assert checks["fit_values_compared"] > 0
        assert checks["hash_compares"] >= 1
        assert "planted_recovered" in checks
        assert set(record["hashes"]) == set(run.HASHED_OUTPUTS)
    else:
        assert checks["coef_compares"] >= 1
        assert ("null_hits" if workload.null else "recovered_seeds") in checks
    assert set(record["env"]) >= {"OPENBLAS_NUM_THREADS", "python", "numpy", "scipy", "blas", "nproc", "src_lines"}
    assert set(record["inputs"]) == {"reports", "bars", "bytes"}


def test_cli_operation_fails_when_output_disagrees_with_in_memory_fit(tmp_path, monkeypatch):
    after_setup = run.CliRunner.after_setup

    def skewed(self, ds):
        inputs = after_setup(self, ds)
        key = next(iter(self.reference))
        coef, se, t = self.reference[key]
        self.reference[key] = (coef * (1 + 1e-6), se, t)
        return inputs

    monkeypatch.setattr(run.CliRunner, "after_setup", skewed)
    record = run.run_workload(tiny("cli-1x"), seed=3, seconds=0.01, trace=0, work=tmp_path)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] == record["result"]["attempted"]
