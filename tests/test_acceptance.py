"""Acceptance suite: nine end-to-end checks with stated tolerances.

Each test prints a single PASS/FAIL line (bypassing capture) in addition to
its asserts, so a plain pytest run shows the per-criterion outcome.
"""

import time

import numpy as np

from conftest import discard_bins, random_complex, random_spd
from rtfbeam import beamformer, cli, covariance, metrics, pipeline, rtf


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_acceptance_1_past_vs_evd_equivalence(capsys):
    """PAST with beta=1 converges to the batch EVD principal eigenvector."""
    rng = np.random.default_rng(0)
    worst = 0.0
    start = time.perf_counter()
    for m in (2, 4, 8):
        a = random_complex(rng, m)
        a /= np.linalg.norm(a)
        frames = []
        psi = np.eye(m, dtype=complex)[:1]  # one bin, (1, M)
        delta = np.ones(1)
        for _ in range(500):
            s = random_complex(rng, 1)[0]
            n = random_complex(rng, m) * 0.1
            y = a * s + n  # covariance a a^H + 0.01 I
            frames.append(y)
            psi, delta = rtf.past_step(psi, delta, y[None, :], 1.0)
        frames = np.array(frames)
        sample_cov = frames.T @ frames.conj() / len(frames)
        evd = covariance.hermitian_evd(sample_cov[None, :, :])
        v1 = evd.eigenvectors[0, :, 0]
        cosine = abs(np.vdot(psi[0], v1)) / (
            np.linalg.norm(psi[0]) * np.linalg.norm(v1)
        )
        worst = max(worst, float(np.arccos(min(cosine, 1.0))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-2 and elapsed < 1.0
    _report(capsys, "1 (PAST vs EVD)", ok,
            f"max angle {worst:.2e} rad, {elapsed:.2f} s")


def test_acceptance_2_whitening_identity(capsys):
    """||Phi^{-1/2} Phi Phi^{-H/2} - I||_F < 1e-8 for 100 random SPD matrices."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(100):
        m = (2, 4, 8)[i % 3]
        phi = random_spd(rng, m)
        evd = covariance.hermitian_evd(phi[None, :, :])
        r = covariance.loaded_power(evd, -0.5, 0.0)[0]
        worst = max(worst, float(np.linalg.norm(r @ phi @ r.conj().T - np.eye(m))))
    ok = worst < 1e-8
    _report(capsys, "2 (whitening identity)", ok, f"max defect {worst:.2e}")


def test_acceptance_3_distortionless_constraint(capsys, moving_bundle):
    """|w^H a_hat - 1| < 1e-8 for every valid cell of a full scenario."""
    evd, trajs = pipeline.estimate(moving_bundle, "past")
    worst = 0.0
    for traj in trajs.values():
        w = beamformer.mvdr_weights(traj, evd)
        dots = np.einsum("kml,kml->kl", w.conj(), traj.values)
        worst = max(worst, float(np.max(np.abs(dots[traj.valid] - 1.0))))
    ok = worst < 1e-8
    _report(capsys, "3 (distortionless)", ok, f"max |w^H a - 1| {worst:.2e}")


def test_acceptance_4_mse_snr_trend(capsys):
    """Static-scene RTF MSE decreases strictly monotonically with SNR."""
    start = time.perf_counter()
    snrs = (-10.0, 0.0, 10.0, 20.0, 30.0)
    sums = np.zeros(len(snrs))
    num_seeds = 20
    for seed in range(num_seeds):
        base = pipeline.simulate(seed, 0.0, static=True)
        for i, snr in enumerate(snrs):
            bundle = pipeline.remix(base, snr)
            traj = pipeline.estimate(bundle, "cw-batch", sides=("left",))[1]["left"]
            sums[i] += rtf.rtf_mse(traj, bundle.truth.rtf["left"]())
    means = sums / num_seeds
    elapsed = time.perf_counter() - start
    monotone = bool(np.all(np.diff(means) < 0))
    deep = bool(np.all(means[2:] <= -20.0))
    ok = monotone and deep and elapsed < 300.0
    detail = ", ".join(f"{s:+.0f}dB:{m:.1f}" for s, m in zip(snrs, means))
    _report(capsys, "4 (Table-1 trend)", ok, f"{detail}; {elapsed:.0f} s")


def test_acceptance_5_si_sdr_improvement(capsys):
    """Oracle MVDR improves SI-SDR by >= 3 dB; PAST within 2 dB of oracle."""
    improvements, gaps = [], []
    for seed in range(20):
        base = pipeline.simulate(seed, 3.0)
        for snr in (3.0, 6.0, 10.0):
            bundle = pipeline.remix(base, snr)
            oracle = pipeline.evaluate_bundle(bundle, "oracle")
            past = pipeline.evaluate_bundle(bundle, "past")
            o = (oracle.si_sdr_left + oracle.si_sdr_right) / 2
            p = (past.si_sdr_left + past.si_sdr_right) / 2
            inp = (oracle.si_sdr_input_left + oracle.si_sdr_input_right) / 2
            improvements.append(o - inp)
            gaps.append(o - p)
    mean_imp = float(np.mean(improvements))
    mean_gap = float(np.mean(gaps))
    ok = mean_imp >= 3.0 and mean_gap <= 2.0
    _report(capsys, "5 (SI-SDR improvement)", ok,
            f"oracle +{mean_imp:.2f} dB, PAST gap {mean_gap:.2f} dB")


def test_acceptance_6_beampattern_tracking(capsys, moving_bundle):
    """Oracle-MVDR wideband beampower argmax within 10 deg for >= 80% frames."""
    angles, wideband = pipeline.beampattern(moving_bundle, "oracle", discard_bins)
    errs, _, _ = metrics.doa_error(angles, wideband, moving_bundle.truth)
    tracked = errs[~np.isnan(errs)]
    frac = float(np.mean(tracked <= 10.0))
    ok = frac >= 0.8
    _report(capsys, "6 (beampattern tracking)", ok,
            f"{100 * frac:.1f}% of {tracked.size} active frames within 10 deg")


def test_acceptance_7_si_sdr_scale_invariance(capsys):
    """si_sdr(alpha*est, ref) == si_sdr(est, ref) to 1e-9 dB, 1000 triples."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        est = rng.standard_normal(128)
        ref = rng.standard_normal(128)
        alpha = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        worst = max(
            worst, abs(metrics.si_sdr(alpha * est, ref) - metrics.si_sdr(est, ref))
        )
    ok = worst < 1e-9
    _report(capsys, "7 (SI-SDR scale invariance)", ok, f"max diff {worst:.2e} dB")


def test_acceptance_8_past_linear_complexity(capsys):
    """Instrumented multiply-add count of one past_step bin is linear in M."""
    ms = np.array([2, 4, 8, 16])
    counts = []
    for m in ms:
        ops = rtf.OpCounter()
        psi = np.eye(m, dtype=complex)[:1]  # one bin, (1, M)
        rtf.past_step(psi, np.ones(1), np.ones((1, m)), rtf.DEFAULT_BETA, ops)
        counts.append(ops.multiply_adds)
    counts = np.array(counts, dtype=float)
    slope, intercept = np.polyfit(ms, counts, 1)
    residual = float(np.max(np.abs(counts - (slope * ms + intercept))))
    ok = residual <= 1.0
    _report(capsys, "8 (O(M) complexity)", ok,
            f"counts {counts.astype(int).tolist()}, fit residual {residual:.2f}")


def test_acceptance_9_cli_determinism(capsys, tmp_path):
    """cmd_simulate and cmd_evaluate are byte-identical across reruns."""
    mismatches = []
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        rc = cli.main(
            ["simulate", "--seed", "7", "--count", "1", "--snr", "10",
             "--static", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        dirs.append(next(out.iterdir()))
    for f in sorted(p.name for p in dirs[0].iterdir()):
        if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes():
            mismatches.append(f"simulate:{f}")

    csvs = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}.csv"
        rc = cli.main(
            ["evaluate", "--seed", "3", "--count", "1", "--static",
             "--snrs", "10", "--methods", "past", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        csvs.append(out.read_bytes())
    if csvs[0] != csvs[1]:
        mismatches.append("evaluate:results.csv")
    ok = not mismatches
    _report(capsys, "9 (determinism)", ok,
            "byte-identical" if ok else f"mismatches: {mismatches}")
