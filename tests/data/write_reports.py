"""Write reports.json, the golden `evaluate_bundle` numbers that
tests/test_golden.py recomputes.

The table holds every method on two scenes at 10 dB: seed 3 with a moving
source and seed 5 with a static one. Run from the repository root:

    PYTHONPATH=src python3 tests/data/write_reports.py

Rewrite the file only with a change that means to move these numbers, and
state the move in SI-SDR and RTF MSE with that change.
"""

import json
from pathlib import Path

from rtfbeam import pipeline

SNR_DB = 10.0
SCENES = ((3, False), (5, True))  # (seed, static)
FIELDS = ("si_sdr_left", "si_sdr_right", "si_sdr_input_left",
          "si_sdr_input_right", "rtf_mse_db")


def report_fields(report) -> dict:
    """The golden fields of a report; 'none' has no RTF MSE."""
    return {f: getattr(report, f) for f in FIELDS
            if not (f == "rtf_mse_db" and report.method == "none")}


def main() -> None:
    cells = []
    for seed, static in SCENES:
        bundle = pipeline.simulate(seed, SNR_DB, static=static)
        for method in pipeline.METHODS:
            report = pipeline.evaluate_bundle(bundle, method)
            cells.append({"seed": seed, "static": static, "snr_db": SNR_DB,
                          "method": method, **report_fields(report)})
    path = Path(__file__).with_name("reports.json")
    path.write_text(json.dumps(cells, indent=1) + "\n")
    print(f"wrote {len(cells)} cells to {path}")


if __name__ == "__main__":
    main()
