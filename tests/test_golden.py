"""Same numbers: `evaluate_bundle` must reproduce the committed golden table
(tests/data/reports.json, written by tests/data/write_reports.py) to 1e-9 dB.
The tolerance allows only for BLAS summation order; a change that means to
move these numbers rewrites the file and states the move.

tests/data/outputs.json (tests/data/write_outputs.py) pins, on the same
scenes, what the reports do not: the right-side RTF MSE, each trajectory's
valid-cell count and, for 'past' and 'oracle', the wideband beampattern's
sum and per-frame argmax. The MSE keeps the reports' 1e-9 dB and the sum
1e-9 relative; the counts and the argmax angles are exact. Every one of
these numbers read bit-identical with 1 and 2 BLAS threads, and in each
frame the largest pattern value leads the next by at least 1.1e-6 of
itself, unless the frame is flat (all angles equal, argmax 0)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rtfbeam import pipeline, rtf

DATA = Path(__file__).resolve().parent / "data"
TOL_DB = 1e-9
WIDEBAND_SUM_RTOL = 1e-9


@pytest.fixture(scope="module")
def golden_bundles(moving_bundle):
    """(seed, static, snr_db) -> bundle, rendered on first use."""
    bundles = {(3, False, 10.0): moving_bundle}  # the fixture's render

    def get(cell):
        key = (cell["seed"], cell["static"], cell["snr_db"])
        if key not in bundles:
            bundles[key] = pipeline.simulate(key[0], key[2], static=key[1])
        return bundles[key]

    return get


def test_evaluate_bundle_matches_golden_reports(golden_bundles):
    cells = json.loads((DATA / "reports.json").read_text())
    worst = 0.0
    for cell in cells:
        report = pipeline.evaluate_bundle(golden_bundles(cell), cell["method"])
        fields = [f for f in cell if f.startswith(("si_sdr", "rtf_mse"))]
        assert "si_sdr_left" in fields
        if cell["method"] == "none":
            assert math.isnan(report.rtf_mse_db)
        for field in fields:
            delta = abs(getattr(report, field) - cell[field])
            worst = max(worst, delta)
            print(f"seed {cell['seed']} {cell['method']:8s} {field:18s} |delta| {delta:.1e} dB")
            assert delta <= TOL_DB, (cell, field, getattr(report, field))
    print(f"worst |delta| {worst:.1e} dB over {len(cells)} cells")


def test_outputs_match_golden_table(golden_bundles):
    cells = json.loads((DATA / "outputs.json").read_text())
    assert {c["method"] for c in cells} == set(pipeline.METHODS)
    for cell in cells:
        bundle, method = golden_bundles(cell), cell["method"]
        trajs = pipeline.estimate(bundle, method)[1]
        for side, traj in trajs.items():
            assert np.count_nonzero(traj.valid) == cell[f"valid_{side}"], (cell, side)
        if method != "none":
            mse = rtf.rtf_mse(trajs["right"], bundle.truth.rtf["right"]())
            assert abs(mse - cell["rtf_mse_right_db"]) <= TOL_DB, (cell, mse)
        assert ("wideband_sum" in cell) == (method in ("past", "oracle"))
        if "wideband_sum" in cell:
            wideband = pipeline.beampattern(bundle, method, lambda b: None)[1]
            assert wideband.sum() == pytest.approx(cell["wideband_sum"],
                                                   rel=WIDEBAND_SUM_RTOL, abs=0)
            assert np.argmax(wideband, axis=0).tolist() == cell["wideband_argmax"], cell
