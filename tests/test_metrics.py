import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfbeam import cli, metrics, pipeline, rtf, simulator


def test_si_sdr_perfect_reconstruction_clamps():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000)
    assert metrics.si_sdr(x, x) == 120.0
    assert metrics.si_sdr(3.0 * x, x) == 120.0  # scale invariance at the clamp


def test_si_sdr_hand_example():
    # ref=[1,0], est=[1,1]: projection scale 1, signal power 1, error power 1
    assert metrics.si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(0.0)


def test_si_sdr_zero_inputs():
    with pytest.raises(metrics.MetricsError):
        metrics.si_sdr(np.ones(4), np.zeros(4))
    assert metrics.si_sdr(np.zeros(4), np.ones(4)) == -120.0


def test_si_sdr_is_layout_independent():
    # columns of a C-ordered (N, M) array are strided, like the rows of a
    # loaded bundle's transposed WAV data; einsum sums a strided operand in
    # another order, so the score must not see the layout
    rng = np.random.default_rng(0)
    data = rng.standard_normal((48000, 8))
    est, ref = data[:, 2], data[:, 7] + 0.5 * data[:, 2]
    assert not est.flags.c_contiguous
    contiguous = metrics.si_sdr(np.ascontiguousarray(est), np.ascontiguousarray(ref))
    assert metrics.si_sdr(est, ref) == contiguous


def test_scores_do_not_depend_on_the_blas_thread_count():
    """One `evaluate_bundle` cell per method on seed 3 moving at 10 dB, in
    two processes with 1 and 2 OpenBLAS threads: the reports must be equal
    to the last bit. OpenBLAS splits a long dot product over its threads, so
    this bites only where it really gets two cores; on one core both
    processes run one thread and agree whatever the code does."""
    code = "\n".join([
        "from rtfbeam import pipeline",
        "bundle = pipeline.simulate(3, 10.0)",
        "for method in pipeline.METHODS:",
        "    print(repr(pipeline.evaluate_bundle(bundle, method)))",
    ])
    src = str(Path(metrics.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONPATH": path,
                                  "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")]
    printed = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert printed[0].count("EvalReport(") == len(pipeline.METHODS)
    assert printed[0] == printed[1]


def test_si_sdr_length_mismatch():
    with pytest.raises(metrics.MetricsError):
        metrics.si_sdr(np.ones(4), np.ones(5))


@settings(deadline=None, max_examples=100)
@given(
    st.integers(0, 10**6),
    st.floats(-1000.0, 1000.0).filter(lambda a: abs(a) > 1e-3),
)
def test_si_sdr_scale_invariance(seed, alpha):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal(256)
    ref = rng.standard_normal(256)
    assert metrics.si_sdr(alpha * est, ref) == pytest.approx(
        metrics.si_sdr(est, ref), abs=1e-9
    )


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.floats(0.1, 10.0))
def test_si_sdr_ref_scale_invariance(seed, alpha):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal(256)
    ref = rng.standard_normal(256)
    assert metrics.si_sdr(est, alpha * ref) == pytest.approx(
        metrics.si_sdr(est, ref), abs=1e-9
    )


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6))
def test_si_sdr_bounded_by_clamp(seed):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal(64)
    ref = rng.standard_normal(64)
    assert metrics.si_sdr(est, ref) <= 120.0


def _truth_for_doa(doas, active=None):
    nframes = len(doas)
    values = np.ones((2, 2, nframes), dtype=complex)
    traj = rtf.RtfTrajectory(values, 0)
    return simulator.GroundTruth(
        doa_per_frame=np.asarray(doas, dtype=float),
        rtf=dict.fromkeys(rtf.SIDES, traj),
        active_frames=np.ones(nframes, dtype=bool) if active is None else active,
    )


def test_doa_error_peak_at_truth():
    angles = np.arange(-90.0, 91.0, 1.0)
    p = np.ones((len(angles), 3))
    for l, doa in enumerate((-30.0, 0.0, 45.0)):
        p[int(doa) + 90, l] = 10.0
    errs, mean, excluded = metrics.doa_error(
        angles, p, _truth_for_doa([-30.0, 0.0, 45.0])
    )
    assert mean == 0.0 and excluded == 0
    np.testing.assert_array_equal(errs, 0.0)


def test_doa_error_one_grid_step():
    angles = np.arange(-90.0, 91.0, 1.0)
    p = np.ones((len(angles), 1))
    p[121, 0] = 10.0  # 31 degrees vs truth 30
    _, mean, _ = metrics.doa_error(angles, p, _truth_for_doa([30.0]))
    assert mean == 1.0


def test_doa_error_excludes_flat_and_inactive_frames():
    angles = np.arange(-90.0, 91.0, 1.0)
    p = np.ones((len(angles), 3))
    p[100, 0] = 10.0
    p[100, 2] = 10.0  # frame 1 stays flat
    active = np.array([True, True, False])
    errs, _, excluded = metrics.doa_error(
        angles, p, _truth_for_doa([10.0, 10.0, 10.0], active)
    )
    assert excluded == 2
    assert np.isnan(errs[1]) and np.isnan(errs[2])
    with pytest.raises(metrics.MetricsError):
        metrics.doa_error(
            angles, np.ones((len(angles), 1)), _truth_for_doa([0.0])
        )


def test_doa_error_frame_count_mismatch():
    angles = np.arange(-90.0, 91.0, 1.0)
    with pytest.raises(metrics.MetricsError):
        metrics.doa_error(
            angles, np.ones((len(angles), 2)), _truth_for_doa([0.0])
        )


def test_eval_report_csv_row():
    report = metrics.EvalReport("seed1", 10.0, "past", si_sdr_left=3.5)
    row = report.csv_row()
    assert row["scenario_id"] == "seed1"
    assert row["method"] == "past"
    assert row["si_sdr_left"] == 3.5
    assert "doa_error_per_frame" not in row
    # the row is the results schema: no enhanced signals, no DOA column
    assert set(row) <= set(cli.RESULT_FIELDS)
    assert "enhanced" not in row and "doa_error_mean_deg" not in row
