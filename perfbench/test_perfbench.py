"""Smoke test of the benchmark: every workload at its smallest size.

Run from the repository root (takes about a minute and a half):

    python3 -m pytest -q perfbench/test_perfbench.py

``--seconds 0`` runs only the fixed first units whose quality metrics are
reported, once untraced and once traced, on the same seed.
"""

import json
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-static", "sweep-moving", "bundle-cli")
SEED = 0


@lru_cache(maxsize=None)
def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, report file) of one smallest-size run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report_file = ROOT / ".perfbench" / f"{workload}-seed{SEED}-trace{trace}.json"
    return result, json.loads(report_file.read_text())


def declared(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_names_every_metric_with_its_unit(workload, trace):
    result, report = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["violations"] + report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["quality"]["fail_frac"]["value"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    result, _ = run(workload, 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_machine_block_records_pinned_blas(workload):
    _, report = run(workload, 0)
    machine = report["machine"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_version"):
        assert machine[key]
    assert machine["blas_threads_pinned"] == machine["blas_threads_read_back"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quality_repeats_exactly_for_a_seed(workload):
    assert run(workload, 0)[1]["quality"] == run(workload, 1)[1]["quality"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_are_not_negative(workload):
    _, report = run(workload, 1)
    spans = report["spans"]
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < i
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])
            child_time[parent] += end - start
    for (name, start, end, _, _), children in zip(spans, child_time):
        assert end - start - children >= -1e-9, name
    assert not any(s[0].rsplit(".", 1)[-1].startswith("_") for s in spans)
    # beamformer imports hermitian_evd by name; that binding is traced too
    evd_callers = {spans[s[3]][0] for s in spans if s[0] == "covariance.hermitian_evd"}
    assert {"covariance.sqrt_pair", "beamformer.inverse_with_loading"} <= evd_callers


@pytest.mark.parametrize("workload, kind, evd_calls", [
    ("sweep-moving", "evaluate:past", 3),
    ("sweep-moving", "evaluate:oracle", 3),
    ("sweep-static", "evaluate:cw-batch", 5),
    ("bundle-cli", "beamform:past", 6),
    ("bundle-cli", "beamform:none", 2),
])
def test_evd_calls_per_cell_match_the_code(workload, kind, evd_calls):
    _, report = run(workload, 1)
    calls = report["calls_per_cell_by_kind"][kind]
    assert calls["covariance.hermitian_evd"] == evd_calls
    assert calls["stft.analyze"] == (2 if kind.startswith("beamform") else 1)
