import warnings

import numpy as np
import pytest

from conftest import (
    LAYOUTS,
    assert_matches_reference,
    collect_bins,
    discard_bins,
    layouts,
    random_complex,
    random_spd,
)
from rtfbeam import beamformer, covariance, metrics, pipeline, rtf, stft


def _noise_evd(*matrices):
    return covariance.hermitian_evd(np.stack(matrices))


def _traj(values, ref=0, valid=None):
    return rtf.RtfTrajectory(values, ref, valid)


def _small_cfg():
    return stft.StftConfig(window_len=4, hop=4)


# ----------------------------------------------------------------- MVDR


def test_mvdr_identity_covariance_closed_form():
    a = np.array([1.0, 0.5], dtype=complex)
    traj = _traj(np.tile(a[None, :, None], (1, 1, 1)))
    w = beamformer.mvdr_weights(traj, _noise_evd(np.eye(2, dtype=complex)), 0.0)
    np.testing.assert_allclose(w[0, :, 0], [0.8, 0.4], atol=1e-12)
    assert abs(np.vdot(w[0, :, 0], a) - 1.0) < 1e-12


def test_mvdr_reference_passthrough():
    a = np.zeros((1, 3, 1), dtype=complex)
    a[:, 1] = 1.0
    w = beamformer.mvdr_weights(
        _traj(a, ref=1), _noise_evd(np.diag([2.0, 3.0, 4.0]).astype(complex)), 0.0
    )
    np.testing.assert_allclose(w[0, :, 0], [0.0, 1.0, 0.0], atol=1e-12)


def test_mvdr_covariance_scale_invariance():
    rng = np.random.default_rng(0)
    phi = random_spd(rng, 3)
    a = random_complex(rng, 3)
    a /= a[0]
    traj = _traj(a[None, :, None])
    w1 = beamformer.mvdr_weights(traj, _noise_evd(phi), 0.0)
    w2 = beamformer.mvdr_weights(traj, _noise_evd(7.0 * phi), 0.0)
    np.testing.assert_allclose(w1, w2, atol=1e-10)


def test_mvdr_optimality_brute_force():
    # w minimizes w^H Phi w subject to w^H a = 1: every feasible
    # perturbation along the constraint null space has higher noise power
    rng = np.random.default_rng(1)
    phi = random_spd(rng, 2)
    a = random_complex(rng, 2)
    a /= a[0]
    w = beamformer.mvdr_weights(_traj(a[None, :, None]), _noise_evd(phi), 0.0)[0, :, 0]
    p_opt = np.real(np.vdot(w, phi @ w))
    null = np.array([-np.conj(a[1]), np.conj(a[0])])  # null^H a = 0
    for _ in range(200):
        xi = random_complex(rng, 1)[0] * rng.uniform(0.01, 2.0)
        cand = w + xi * null
        assert abs(np.vdot(cand, a) - 1.0) < 1e-10
        assert np.real(np.vdot(cand, phi @ cand)) >= p_opt - 1e-12


def test_mvdr_invalid_cell_carries_previous_weights():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 1, 2, 3)
    a[:, 0] = 1.0
    valid = np.array([[True, False, True]])
    w = beamformer.mvdr_weights(_traj(a, valid=valid), _noise_evd(np.eye(2, dtype=complex)), 0.0)
    np.testing.assert_array_equal(w[0, :, 1], w[0, :, 0])
    assert not np.array_equal(w[0, :, 2], w[0, :, 1])


def test_mvdr_dead_bin_warns_and_passes_through():
    # bin 1 is interior; the last (Nyquist) bin is not counted as dead
    a = np.ones((3, 2, 2), dtype=complex)
    valid = np.array([[True, True], [False, False], [True, True]])
    with pytest.warns(UserWarning, match="no valid RTF"):
        w = beamformer.mvdr_weights(
            _traj(a, valid=valid), _noise_evd(*[np.eye(2, dtype=complex)] * 3), 0.0
        )
    np.testing.assert_array_equal(w[1], [[1.0, 1.0], [0.0, 0.0]])


def test_mvdr_hold_matches_a_frame_loop():
    # each invalid cell takes its bin's last valid weights, or passthrough
    rng = np.random.default_rng(6)
    m, nbins, nframes = 3, 6, 9
    evd = _noise_evd(*(random_spd(rng, m) for _ in range(nbins)))
    a = random_complex(rng, nbins, m, nframes)
    a[:, 1] = 1.0
    valid = rng.random((nbins, nframes)) < 0.5
    valid[2] = False  # an interior dead bin
    with pytest.warns(UserWarning, match="1 bins have no valid RTF"):
        w = beamformer.mvdr_weights(_traj(a, ref=1, valid=valid), evd)
    fresh = beamformer.mvdr_weights(_traj(a, ref=1), evd)
    for k in range(nbins):
        held = np.eye(m)[1]
        for l in range(nframes):
            held = fresh[k, :, l] if valid[k, l] else held
            np.testing.assert_array_equal(w[k, :, l], held)


def test_mvdr_hold_carries_across_blocks():
    # blocks of one trajectory, each weighted with the WeightHold of the
    # frames before it, give the bits of the whole; the dead-bin warning
    # waits for the caller, and counts bins dead in every block only. The
    # blocks start on multiples of 32 frames, as a cell's do: BLAS sums the
    # trailing columns of a product in another order
    rng = np.random.default_rng(8)
    m, nbins, nframes = 3, 6, 80
    evd = _noise_evd(*(random_spd(rng, m) for _ in range(nbins)))
    a = random_complex(rng, nbins, m, nframes)
    a[:, 1] = 1.0
    valid = rng.random((nbins, nframes)) < 0.2
    valid[2] = False  # an interior dead bin
    valid[3] = False  # valid only in the last block
    valid[3, 70] = True
    with pytest.warns(UserWarning, match="^1 bins have no valid RTF"):
        whole = beamformer.mvdr_weights(_traj(a, ref=1, valid=valid), evd)
    hold = beamformer.WeightHold(nbins, m, 1)
    edges = [0, 32, 64, nframes]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no block warns
        blocks = [beamformer.mvdr_weights(_traj(a[:, :, i:j], ref=1, valid=valid[:, i:j]),
                                          evd, hold=hold)
                  for i, j in zip(edges, edges[1:])]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=2), whole)
    with pytest.warns(UserWarning, match="^1 bins have no valid RTF"):
        hold.warn_dead_bins()


def test_mvdr_one_frame_trajectory_matches_its_broadcast():
    # a frame-invariant trajectory keeps one frame; its weights, applied to
    # every frame, equal those of the trajectory broadcast to all L frames
    rng = np.random.default_rng(7)
    m, nbins, nframes = 4, 5, 6
    evd = _noise_evd(*(random_spd(rng, m) for _ in range(nbins)))
    a = random_complex(rng, nbins, m, 1)
    a[:, 0] = 1.0
    valid = np.array([[True], [False], [True], [True], [False]])
    one = _traj(a, valid=valid)
    full = _traj(np.broadcast_to(a, (nbins, m, nframes)),
                 valid=np.broadcast_to(valid, (nbins, nframes)))
    with pytest.warns(UserWarning, match="1 bins have no valid RTF"):
        w1 = beamformer.mvdr_weights(one, evd)
    with pytest.warns(UserWarning, match="1 bins have no valid RTF"):
        wl = beamformer.mvdr_weights(full, evd)
    assert w1.shape == (nbins, m, 1)
    assert_matches_reference(np.broadcast_to(w1, wl.shape), wl)
    spec = random_complex(rng, nbins, m, nframes)
    assert_matches_reference(beamformer.apply(w1, spec), beamformer.apply(wl, spec))


def test_mvdr_shape_mismatch():
    a = np.ones((3, 2, 1), dtype=complex)
    with pytest.raises(beamformer.BeamformerError):
        beamformer.mvdr_weights(_traj(a), _noise_evd(np.eye(2, dtype=complex)), 0.0)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_mvdr_numerator_matches_einsum_reference(layout):
    # every cell valid, so each weight is its own numerator over denominator
    rng = np.random.default_rng(23)
    m, nbins, nframes = 4, 5, 6
    evd = _noise_evd(*(random_spd(rng, m) for _ in range(nbins)))
    a = random_complex(rng, nbins, m, nframes)
    a[:, 0] = 1.0
    w = beamformer.mvdr_weights(_traj(layouts(a)[layout]), evd)
    inv = covariance.loaded_power(evd, -1.0, beamformer.MVDR_LOADING)
    num = np.einsum("kij,kjl->kil", inv, a)
    den = np.einsum("kil,kil->kl", a.conj(), num).real
    assert_matches_reference(w, num / den[:, None])


def test_distortionless_full_scenario(static_bundle):
    evd, trajs = pipeline.estimate(static_bundle, "cw-batch", sides=("left",))
    traj = trajs["left"]
    w = beamformer.mvdr_weights(traj, evd)
    dots = np.einsum("kml,kml->kl", w.conj(), traj.values)
    assert np.max(np.abs(dots[traj.valid] - 1.0)) < 1e-8


# ---------------------------------------------------------------- apply


def test_apply_selects_channel():
    rng = np.random.default_rng(3)
    y = random_complex(rng, 3, 2, 4)
    w = np.zeros((3, 2, 4), dtype=complex)
    w[:, 0] = 1.0
    out = beamformer.apply(w, y)
    assert out.shape == (3, 4)
    np.testing.assert_allclose(out, y[:, 0])


def test_apply_noise_free_model_is_exact():
    # y = a * s and w^H a = 1 imply s_hat = s
    rng = np.random.default_rng(4)
    a = random_complex(rng, 3)
    a /= a[0]
    s = random_complex(rng, 3, 5)  # (bins, frames)
    y = a[None, :, None] * s[:, None, :]
    traj = _traj(np.tile(a[None, :, None], (3, 1, 5)))
    w = beamformer.mvdr_weights(traj, _noise_evd(*[np.eye(3, dtype=complex)] * 3), 0.0)
    out = beamformer.apply(w, y)
    np.testing.assert_allclose(out, s, atol=1e-10)


def test_apply_matches_loop_oracle():
    rng = np.random.default_rng(5)
    y = random_complex(rng, 3, 4, 6)
    w = random_complex(rng, 3, 4, 6)
    out = beamformer.apply(w, y)
    for k in range(3):
        for l in range(6):
            oracle = np.vdot(w[k, :, l], y[k, :, l])
            assert abs(out[k, l] - oracle) < 1e-12


def test_apply_shape_mismatch():
    y = np.zeros((3, 2, 4), dtype=complex)
    with pytest.raises(beamformer.BeamformerError):
        beamformer.apply(np.zeros((3, 2, 5), dtype=complex), y)
    # the STFT must keep its channel axis
    with pytest.raises(beamformer.BeamformerError):
        beamformer.apply(np.zeros((3, 2, 4), dtype=complex), y[:, 0])


@pytest.mark.parametrize("shape", [(3, 3, 1), (2, 2, 1)])
def test_apply_one_frame_weights_need_matching_channels_and_bins(shape):
    # one frame broadcasts over the STFT's frames, nothing else does
    y = np.zeros((3, 2, 4), dtype=complex)
    with pytest.raises(beamformer.BeamformerError):
        beamformer.apply(np.zeros(shape, dtype=complex), y)


# ------------------------------------------------------------- steering


def _beampattern(w, x, cfg, angles):
    """The streamed |B| bins stacked to (F, T, L'), and the returned
    wideband power."""
    bins, sink = collect_bins()
    wideband = beamformer.narrowband_beampattern(w, x, cfg, angles, sink)
    return np.stack(bins), wideband


def _pattern(w, x, cfg, angles):
    """|B| of weights constant over one frame, shape (F, T)."""
    return _beampattern(np.asarray(w)[:, :, None], x, cfg, angles)[0][:, :, 0]


def test_steering_broadside_and_dc_are_ones():
    # the uniform-average beam gives |B| = 1 only where every h_m is equal
    cfg = stft.StftConfig()
    x = np.arange(4) * 0.05
    average = np.full((cfg.num_bins, 4), 0.25, dtype=complex)
    b = _pattern(average, x, cfg, np.array([0.0, 37.0]))
    np.testing.assert_allclose(b[100, 0], 1.0, atol=1e-12)  # broadside
    np.testing.assert_allclose(b[0, 1], 1.0, atol=1e-12)  # DC


def test_steering_half_wavelength_endfire():
    # two mics, f = c/(2d): 90-degree incidence gives a pi phase shift
    cfg = stft.StftConfig()  # f_k = k * 31.25 Hz
    k = 128  # 4000 Hz
    d = beamformer.SPEED_OF_SOUND / (2 * 4000.0)
    x = np.array([0.0, d])
    # h = [1, -1]: the matched weights pass it, the uniform average nulls it
    for pair, gain in (([0.5, -0.5], 1.0), ([0.5, 0.5], 0.0)):
        w = np.zeros((cfg.num_bins, 2), dtype=complex)
        w[k] = pair
        b = _pattern(w, x, cfg, np.array([90.0]))
        np.testing.assert_allclose(b[k, 0], gain, atol=1e-12)


# ---------------------------------------------------------- beampattern


def test_delay_and_sum_beampattern_peaks_at_steered_angle():
    cfg = stft.StftConfig()
    x = np.arange(8) * 0.05
    # delay-and-sum weights h(30 deg)/M per bin, constant over two frames
    tau = x / beamformer.SPEED_OF_SOUND * np.sin(np.deg2rad(30.0))
    freqs = np.fft.rfftfreq(cfg.window_len, 1 / cfg.sample_rate_hz)
    h = np.exp(-2j * np.pi * freqs[:, None] * tau[None, :])
    w = np.repeat(h[:, :, None] / 8, 2, axis=2)
    angles = np.arange(-90.0, 91.0, 1.0)
    narrowband, wideband = _beampattern(w, x, cfg, angles)
    # matched filter: |B| = 1 exactly at the steered angle, every bin/frame
    ti = int(np.where(angles == 30.0)[0][0])
    np.testing.assert_allclose(narrowband[:, ti, :], 1.0, atol=1e-12)
    assert np.all(np.argmax(wideband, axis=0) == ti)


def test_single_mic_weights_are_omnidirectional():
    cfg = stft.StftConfig()
    w = np.zeros((cfg.num_bins, 4, 2), dtype=complex)
    w[:, 0] = 1.0
    narrowband, _ = _beampattern(
        w, np.arange(4) * 0.05, cfg, np.arange(-90.0, 91.0, 1.0)
    )
    np.testing.assert_allclose(narrowband, 1.0, atol=1e-12)


def test_narrowband_matches_loop_oracle():
    rng = np.random.default_rng(6)
    cfg = _small_cfg()
    x = np.arange(3) * 0.05
    w = random_complex(rng, cfg.num_bins, 3, 2)
    angles = np.array([-40.0, 0.0, 65.0])
    narrowband, _ = _beampattern(w, x, cfg, angles)
    freqs = np.fft.rfftfreq(cfg.window_len, 1 / cfg.sample_rate_hz)
    for k in range(cfg.num_bins):
        for ti, theta in enumerate(angles):
            tau = x / beamformer.SPEED_OF_SOUND * np.sin(np.deg2rad(theta))
            h = np.exp(-2j * np.pi * freqs[k] * tau)
            for l in range(2):
                oracle = abs(np.vdot(w[k, :, l], h))
                assert abs(narrowband[k, ti, l] - oracle) < 1e-12


def test_wideband_recompute_and_examples():
    # P(theta, l) = sum_k |B(k, theta, l)|^2, recomputed from the stored B
    rng = np.random.default_rng(7)
    cfg = _small_cfg()
    x = np.arange(3) * 0.05
    angles = np.array([-10.0, 0.0, 10.0])
    w = random_complex(rng, cfg.num_bins, 3, 2)
    narrowband, wideband = _beampattern(w, x, cfg, angles)
    oracle = np.zeros((3, 2))
    for k in range(cfg.num_bins):
        oracle += narrowband[k] ** 2
    np.testing.assert_allclose(wideband, oracle, rtol=1e-12)

    # single nonzero bin -> P = |B|^2 at that bin
    w1 = np.zeros((cfg.num_bins, 3, 2), dtype=complex)
    w1[2, 0] = 0.5
    out1 = beamformer.narrowband_beampattern(w1, x, cfg, angles, discard_bins)
    np.testing.assert_allclose(out1, 0.25)

    # unit gain in every one of the F bins -> P = F
    w2 = np.zeros((cfg.num_bins, 3, 2), dtype=complex)
    w2[:, 0] = 1.0
    out2 = beamformer.narrowband_beampattern(w2, x, cfg, angles, discard_bins)
    np.testing.assert_allclose(out2, cfg.num_bins)


def test_mvdr_beampattern_tracks_static_doa(static_bundle):
    # the static truth has one frame: pipeline.beampattern broadcasts the
    # one-frame oracle weights' pattern over the L frames that doa_error scores
    angles, wideband = pipeline.beampattern(static_bundle, "oracle", discard_bins)
    _, mean_err, _ = metrics.doa_error(angles, wideband, static_bundle.truth)
    assert mean_err <= 10.0


def test_weights_validation():
    flat = np.zeros((2, 3), dtype=complex)  # no frame axis
    y = np.zeros((3, 2, 4), dtype=complex)
    with pytest.raises(beamformer.BeamformerError):
        beamformer.apply(flat, y)
    with pytest.raises(beamformer.BeamformerError):
        beamformer.narrowband_beampattern(
            flat, np.arange(3) * 0.05, _small_cfg(), np.arange(-90.0, 91.0, 1.0),
            discard_bins,
        )
    with pytest.raises(beamformer.BeamformerError):
        beamformer.narrowband_beampattern(
            np.zeros((3, 2, 4), dtype=complex),
            np.arange(3) * 0.05,
            _small_cfg(),
            np.arange(-90.0, 91.0, 1.0),
            discard_bins,
        )
    # 2 bins against the config's 3
    with pytest.raises(beamformer.BeamformerError):
        beamformer.narrowband_beampattern(
            np.zeros((2, 3, 4), dtype=complex),
            np.arange(3) * 0.05,
            _small_cfg(),
            np.arange(-90.0, 91.0, 1.0),
            discard_bins,
        )


def test_inverse_with_loading_defining_identity():
    rng = np.random.default_rng(8)
    phi = random_spd(rng, 4)
    inv = covariance.loaded_power(_noise_evd(phi), -1.0, 0.0)
    np.testing.assert_allclose(inv[0] @ phi, np.eye(4), atol=1e-9)
