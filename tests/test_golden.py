"""Same numbers: `evaluate_bundle` must reproduce the committed golden table
(tests/data/reports.json, written by tests/data/write_reports.py) to 1e-9 dB.
The tolerance allows only for BLAS summation order; a change that means to
move these numbers rewrites the file and states the move."""

import json
import math
from pathlib import Path

from rtfbeam import pipeline

REPORTS = Path(__file__).resolve().parent / "data" / "reports.json"
TOL_DB = 1e-9


def test_evaluate_bundle_matches_golden_reports(moving_bundle):
    cells = json.loads(REPORTS.read_text())
    bundles = {(3, False, 10.0): moving_bundle}  # the fixture's render
    worst = 0.0
    for cell in cells:
        key = (cell["seed"], cell["static"], cell["snr_db"])
        if key not in bundles:
            bundles[key] = pipeline.simulate(key[0], key[2], static=key[1])
        report = pipeline.evaluate_bundle(bundles[key], cell["method"])
        fields = [f for f in cell if f.startswith(("si_sdr", "rtf_mse"))]
        assert "si_sdr_left" in fields
        if cell["method"] == "none":
            assert math.isnan(report.rtf_mse_db)
        for field in fields:
            delta = abs(getattr(report, field) - cell[field])
            worst = max(worst, delta)
            print(f"seed {key[0]} {cell['method']:8s} {field:18s} |delta| {delta:.1e} dB")
            assert delta <= TOL_DB, (cell, field, getattr(report, field))
    print(f"worst |delta| {worst:.1e} dB over {len(cells)} cells")
