"""Write outputs.json, the golden numbers beside the reports that
tests/test_golden.py recomputes: what reports.json does not pin.

For every method on the scenes of reports.json it holds the right-side RTF
MSE (not for 'none') and the valid-cell count of each side's trajectory; for
'past' and 'oracle' also the sum of the wideband beampattern of
`pipeline.beampattern` and its argmax angle index per frame. Run from the
repository root:

    PYTHONPATH=src python3 tests/data/write_outputs.py

Rewrite the file only with a change that means to move these numbers, and
state the move with that change.
"""

import json
from pathlib import Path

import numpy as np
from write_reports import SCENES, SNR_DB

from rtfbeam import pipeline, rtf

PATTERN_METHODS = ("past", "oracle")


def cell_outputs(bundle, method: str) -> dict:
    """The pinned outputs of one method on one bundle."""
    trajs = pipeline.estimate(bundle, method)[1]
    out = {f"valid_{side}": int(np.count_nonzero(traj.valid))
           for side, traj in trajs.items()}
    if method != "none":
        out["rtf_mse_right_db"] = rtf.rtf_mse(trajs["right"], bundle.truth.rtf["right"]())
    if method in PATTERN_METHODS:
        wideband = pipeline.beampattern(bundle, method, lambda b: None)[1]
        out["wideband_sum"] = float(wideband.sum())
        out["wideband_argmax"] = np.argmax(wideband, axis=0).tolist()
    return out


def main() -> None:
    cells = []
    for seed, static in SCENES:
        bundle = pipeline.simulate(seed, SNR_DB, static=static)
        for method in pipeline.METHODS:
            cells.append({"seed": seed, "static": static, "snr_db": SNR_DB,
                          "method": method, **cell_outputs(bundle, method)})
    path = Path(__file__).with_name("outputs.json")
    # one cell per line: the argmax lists hold a frame each
    path.write_text("[\n" + ",\n".join(map(json.dumps, cells)) + "\n]\n")
    print(f"wrote {len(cells)} cells to {path}")


if __name__ == "__main__":
    main()
