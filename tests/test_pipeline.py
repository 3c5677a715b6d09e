import contextlib
import dataclasses
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import collect_bins, count_calls, frames_of, random_complex
from rtfbeam import beamformer, cli, covariance, metrics, pipeline, rtf, simulator, stft


@pytest.mark.parametrize(
    "method, evd_calls",
    # Phi_nn once per bundle; cw-batch adds the whitened mixture, once
    [("none", 1), ("past", 1), ("oracle", 1), ("cw-batch", 2)],
)
def test_evaluate_bundle_decomposes_noise_covariance_once(
    static_bundle, monkeypatch, method, evd_calls
):
    calls = count_calls(monkeypatch, covariance.hermitian_evd)
    pipeline.evaluate_bundle(static_bundle, method)
    assert calls[0] == evd_calls


@pytest.mark.parametrize(
    "method, pair_calls",
    # only the whitening estimators read the whitener pair
    [("none", 0), ("oracle", 0), ("cw-batch", 1), ("past", 1)],
)
def test_evaluate_bundle_builds_the_whitener_pair_only_to_whiten(
    static_bundle, monkeypatch, method, pair_calls
):
    calls = count_calls(monkeypatch, covariance.sqrt_pair)
    pipeline.evaluate_bundle(static_bundle, method)
    assert calls[0] == pair_calls


@pytest.mark.parametrize(
    "method, fn",
    [("cw-batch", covariance.estimate_mixture_covariance), ("past", covariance.whiten)],
)
def test_evaluate_bundle_does_per_bundle_estimation_work_once(
    static_bundle, monkeypatch, method, fn
):
    # the mixture covariance (cw-batch) and the whitened spectrogram (past)
    # serve both sides. 'past' runs blocks of frames, and whitens each frame
    # once; the mixture covariance is made once
    calls = count_calls(monkeypatch, fn, frames_of if method == "past" else lambda phi: 1)
    pipeline.evaluate_bundle(static_bundle, method)
    nframes = static_bundle.config.num_frames(static_bundle.mixture.shape[1])
    assert calls[0] == (1 if method == "cw-batch" else nframes)


@pytest.mark.parametrize("scene, method", [("static_bundle", "none"), ("moving_bundle", "none"),
                                           ("static_bundle", "oracle")])
def test_estimate_of_frame_invariant_sides_analyses_only_the_first_block(
    request, monkeypatch, scene, method
):
    # 'none' and a simulated static scene's truth have one frame for every
    # block: once each side's first block is that one frame, the later blocks
    # would change nothing. The 30 noise-only frames fit the first block
    bundle = request.getfixturevalue(scene)
    analyzed = count_calls(monkeypatch, stft.analyze, frames_of)
    trajs = pipeline.estimate(bundle, method)[1]
    nframes = bundle.config.num_frames(bundle.mixture.shape[1])
    assert analyzed[0] == pipeline._FRAME_BLOCK < nframes
    assert [t.values.shape[2] for t in trajs.values()] == [1, 1]


@pytest.mark.parametrize("method", ["cw-batch", "past", "oracle"])
@pytest.mark.parametrize("scene", ["static_bundle", "moving_bundle"])
def test_the_rtf_mse_of_estimate_is_the_cell_s(request, scene, method):
    # the whole left trajectory of `estimate`, scored at once, and the cell's
    # score, summed block by block (`rtf.mse_terms`), have the same bits
    bundle = request.getfixturevalue(scene)
    traj = pipeline.estimate(bundle, method, sides=("left",))[1]["left"]
    whole = rtf.rtf_mse(traj, bundle.truth.rtf["left"]())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
        report = pipeline.evaluate_bundle(bundle, method)
    assert whole == report.rtf_mse_db


@pytest.mark.parametrize(
    "call, bound",
    # in spectra, one (F, M, L) complex128 array of the scene (8.2 MB):
    # measured 1.30 for the past cell, which runs blocks of frames, and
    # 1.64 for the moving render, which runs blocks of samples. The whole
    # STFT, whitened frames and trajectories of a cell, or the render's Farrow
    # bank over the whole signal, read 3.60 and 2.90 and fail. `estimate`
    # runs the cell's blocks into a whole trajectory: measured 1.73 for the
    # left past side; with the whole STFT and whitened frames, 2.39
    [(lambda b: pipeline.evaluate_bundle(b, "past"), 1.5),
     (lambda b: pipeline.simulate(3, 10.0), 2.1),
     (lambda b: pipeline.estimate(b, "past", sides=("left",)), 2.2)],
    ids=["evaluate_bundle-past", "simulate-moving", "estimate-past-left"],
)
def test_peak_memory_in_spectra(moving_bundle, call, bound):
    # numpy reports its buffers to tracemalloc
    b = moving_bundle
    nframes = b.config.num_frames(b.mixture.shape[1])
    spectrum = b.config.num_bins * b.mixture.shape[0] * nframes * 16
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the past cell's dead-bin warning
            call(b)
        peak = tracemalloc.get_traced_memory()[1] / spectrum
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"peak {peak:.2f} spectra"


def _spectrum_bytes(b):
    """The bytes of one (F, M, L) complex128 spectrum of bundle `b`."""
    return b.config.num_bins * b.mixture.shape[0] * b.config.num_frames(b.mixture.shape[1]) * 16


@pytest.fixture(scope="module")
def moving_bundle_dir(tmp_path_factory, moving_bundle):
    out = tmp_path_factory.mktemp("moving") / "seed3"
    cli.write_bundle(out, moving_bundle)
    return out


@pytest.mark.parametrize(
    "argv, bound",
    # in spectra, after one warm call. beamform runs blocks of frames:
    # measured 2.19 (past), 1.51 (none) and 2.10 (oracle); with whole arrays
    # they read 4.47, 2.42 and 4.40 and fail. beampattern makes its left
    # trajectory in the same blocks and holds it whole: measured 2.96; with
    # the whole STFT and whitened frames it read 4.39 and fails. estimate-rtf
    # holds no whole STFT: measured 4.31 (oracle) and 2.30 (cw-batch);
    # holding it, 5.34 and 3.34
    [(["beamform", "--method", "past"], 2.7),
     (["beamform", "--method", "none"], 2.0),
     (["beamform", "--method", "oracle"], 2.4),
     (["beampattern", "--method", "past"], 3.5),
     (["estimate-rtf", "--method", "oracle"], 4.8),
     (["estimate-rtf", "--method", "cw-batch"], 2.8)],
    ids=["beamform-past", "beamform-none", "beamform-oracle", "beampattern-past",
         "estimate-rtf-oracle", "estimate-rtf-cw-batch"],
)
def test_cli_peak_memory_in_spectra(moving_bundle_dir, moving_bundle, tmp_path, argv, bound):
    spectrum = _spectrum_bytes(moving_bundle)
    if argv[0] == "beamform":
        argv = [*argv, "--results", str(tmp_path / "r.csv")]
    argv = [argv[0], "--bundle", str(moving_bundle_dir), *argv[1:]]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")  # the past cell's dead-bin warning
        assert cli.main(argv) == cli.EXIT_OK  # warm
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] / spectrum
        finally:
            tracemalloc.stop()
    assert peak <= bound, f"peak {peak:.2f} spectra"


def test_a_simulated_bundle_holds_no_truth_array(moving_bundle):
    # the clean, noise and mixture (M, N) float64 arrays are 1.5 spectra;
    # the truth is kept as makers. Measured 1.51; with both sides' truth
    # held as (F, M, L) arrays it reads 3.52 and fails
    spectrum = _spectrum_bytes(moving_bundle)  # the fixture's render is the warm call
    tracemalloc.start()
    try:
        bundle = pipeline.simulate(3, 10.0)
        held = tracemalloc.get_traced_memory()[0] / spectrum
    finally:
        tracemalloc.stop()
    assert bundle.truth.rtf
    assert held <= 2.0, f"held {held:.2f} spectra"


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_the_truth_is_never_overwritten_by_weights(moving_bundle, method):
    # every trajectory a cell weights is its own: an estimate, or a truth
    # fresh from its maker, which the weights then overwrite. The maker
    # gives the same truth before and after the cells
    truth = {side: make() for side, make in moving_bundle.truth.rtf.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
        pipeline.evaluate_bundle(moving_bundle, method)
        pipeline.beampattern(moving_bundle, method, lambda b: None, angle_step_deg=10.0)
    for side, before in truth.items():
        after = moving_bundle.truth.rtf[side]()
        np.testing.assert_array_equal(after.values, before.values)
        np.testing.assert_array_equal(after.valid, before.valid)


@pytest.mark.parametrize("frame", [40, 100, 200])
@pytest.mark.parametrize("method", ["past", "oracle", "none"])
def test_a_causal_cell_is_causal(moving_bundle, method, frame):
    # the mixture is changed after frame `frame`'s samples: every enhanced
    # sample that only frames up to `frame` cover keeps its bits. The frames
    # lie after the 30 noise-only frames, inside and at the end of blocks
    config = moving_bundle.config
    mixture = moving_bundle.mixture.copy()
    tail = mixture[:, frame * config.hop + config.window_len:]
    tail += np.random.default_rng(frame).standard_normal(tail.shape)
    changed = dataclasses.replace(moving_bundle, mixture=mixture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
        before = pipeline.evaluate_bundle(moving_bundle, method)
        after = pipeline.evaluate_bundle(changed, method)
    covered = (frame + 1) * config.hop  # frame + 1 starts here
    for side in rtf.SIDES:
        np.testing.assert_array_equal(after.enhanced[side][:covered],
                                      before.enhanced[side][:covered])
        assert not np.array_equal(after.enhanced[side], before.enhanced[side])


@pytest.mark.parametrize("block", [32, 1000])
@pytest.mark.parametrize("noise_frames", [None, 70])
@pytest.mark.parametrize("method", ["past", "oracle", "none"])
def test_a_cell_has_the_bits_of_one_block(moving_bundle, monkeypatch, method,
                                          noise_frames, block):
    # a block of 1000 frames is all L = 249 of them: the cell is then one
    # block, as 'cw-batch' is. 70 noise-only frames take a first block of
    # 128 at the default 64 frames, and of 96 at 32. The cell, the whole
    # trajectories of `estimate` and the beampattern of its left one all
    # keep their bits
    def outputs():
        report = pipeline.evaluate_bundle(moving_bundle, method, noise_frames=noise_frames)
        trajs = pipeline.estimate(moving_bundle, method, noise_frames=noise_frames)[1]
        wideband = pipeline.beampattern(moving_bundle, method, lambda b: None,
                                        noise_frames=noise_frames, angle_step_deg=5.0)[1]
        return report, trajs, wideband

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
        blocked, blocked_trajs, blocked_wideband = outputs()
        monkeypatch.setattr(pipeline, "_FRAME_BLOCK", block)
        other, other_trajs, other_wideband = outputs()
    assert repr(other) == repr(blocked)
    for side in rtf.SIDES:
        np.testing.assert_array_equal(other.enhanced[side], blocked.enhanced[side])
        np.testing.assert_array_equal(other_trajs[side].values, blocked_trajs[side].values)
        np.testing.assert_array_equal(other_trajs[side].valid, blocked_trajs[side].valid)
    np.testing.assert_array_equal(other_wideband, blocked_wideband)


@pytest.mark.parametrize("method", ["cw-batch", "past"])
def test_invalid_cells_hold_e_ref_and_never_reach_the_weights(moving_bundle, method):
    # the one rule for an estimated trajectory: every invalid cell holds
    # e_ref, and the MVDR weights, which hold their own, ignore its values
    rng = np.random.default_rng(27)
    evd, trajs = pipeline.estimate(moving_bundle, method)
    for traj in trajs.values():
        m = traj.values.shape[1]
        k, l = np.nonzero(~traj.valid)
        assert k.size
        assert np.all(traj.values[k, :, l] == np.eye(m)[traj.ref_channel])
        noisy = rtf.RtfTrajectory(traj.values.copy(), traj.ref_channel, traj.valid)
        noisy.values[k, :, l] = random_complex(rng, k.size, m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
            weights = beamformer.mvdr_weights(traj, evd)
            noisy_weights = beamformer.mvdr_weights(noisy, evd)
        np.testing.assert_array_equal(noisy_weights, weights)


# ------------------------------------------------------- fault injection
# seed 3 moving at 10 dB; the non-reference outcomes were measured, not designed


def _scores(report):
    scores = [report.si_sdr_left, report.si_sdr_right,
              report.si_sdr_input_left, report.si_sdr_input_right]
    return scores if report.method == "none" else scores + [report.rtf_mse_db]


@pytest.mark.parametrize("fault", ["zeroed", "clipped"])
@pytest.mark.parametrize("method", pipeline.METHODS)
def test_a_faulty_non_reference_mic_gives_finite_reports(moving_bundle, fault, method):
    mixture = moving_bundle.mixture.copy()
    peak = 0.1 * np.max(np.abs(mixture[3]))
    mixture[3] = 0.0 if fault == "zeroed" else np.clip(mixture[3], -peak, peak)
    bundle = dataclasses.replace(moving_bundle, mixture=mixture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pipeline.evaluate_bundle(bundle, method)
    assert np.all(np.isfinite(_scores(report)))


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_a_zeroed_reference_mic(moving_bundle, monkeypatch, method):
    # a dead reference mic would look noise-free to MVDR, which would pass
    # its silence through: the noise statistics refuse it, naming the mic
    # and its side, before any estimator runs
    calls = [count_calls(monkeypatch, fn)
             for fn in (rtf.cw_trajectory, rtf.track_rtf_past, beamformer.mvdr_weights)]
    for mic, side in ((0, "left"), (moving_bundle.mixture.shape[0] - 1, "right")):
        mixture = moving_bundle.mixture.copy()
        mixture[mic] = 0.0
        bundle = dataclasses.replace(moving_bundle, mixture=mixture)
        with pytest.raises(covariance.CovarianceError,
                           match=rf"^reference mic {mic} \({side} side\) is dead"):
            pipeline.evaluate_bundle(bundle, method)
    assert [c[0] for c in calls] == [0, 0, 0]


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_a_noise_free_mixture_is_refused_without_blaming_a_mic(moving_bundle, method):
    # at the SNR cap the mixture is the clean signal, so a moving scene's lead
    # silence is zero on every mic: there is no noise to whiten with, and no
    # one reference mic is at fault
    bundle = pipeline.remix(moving_bundle, simulator.SNR_CAP_DB)
    with pytest.raises(covariance.CovarianceError,
                       match="^the noise-only frames are silent on every mic$"):
        pipeline.evaluate_bundle(bundle, method)


def test_a_nan_in_the_mixture_stops_before_any_estimator(moving_bundle, monkeypatch):
    mixture = moving_bundle.mixture.copy()
    mixture[2, 1000] = np.nan
    bundle = dataclasses.replace(moving_bundle, mixture=mixture)
    calls = [count_calls(monkeypatch, fn)
             for fn in (rtf.cw_trajectory, rtf.track_rtf_past, covariance.hermitian_evd)]
    for method in pipeline.METHODS:
        with pytest.raises(stft.StftError, match="non-finite"):
            pipeline.evaluate_bundle(bundle, method)
    assert [c[0] for c in calls] == [0, 0, 0]


def test_a_scene_of_no_whole_number_of_hops_is_scored_by_every_method():
    # seed 3 moving over 4.01 s, as `simulate` renders it: N = 64,160, and
    # overlap-add covers the first (L - 1) hop + W = 64,000 samples, over
    # which the enhanced signal and the input mixture are both scored
    scenario = dataclasses.replace(simulator.sample_scenario(3), duration_s=4.01)
    config = stft.StftConfig(sample_rate_hz=scenario.sample_rate)
    target = simulator.synthesize_target_signal([3, 1], scenario)
    clean, truth = simulator.render_moving_source(target, scenario, config)
    babble = simulator.synthesize_babbler_signals(
        [3, 2], simulator.NUM_BABBLERS, scenario.duration_s, scenario.sample_rate)
    noise = simulator.render_babble(scenario, babble)
    bundle = pipeline.SimBundle(scenario, config, clean, noise,
                                simulator.mix_at_snr(clean, noise, 10.0), truth, 10.0)
    assert clean.shape[1] == 64160
    for method in pipeline.METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
            report = pipeline.evaluate_bundle(bundle, method)
        assert np.all(np.isfinite(_scores(report)))
        for side, ref in rtf.reference_mics(8).items():
            assert report.enhanced[side].shape == (64000,)
            assert getattr(report, f"si_sdr_input_{side}") == metrics.si_sdr(
                bundle.mixture[ref, :64000], bundle.clean[ref, :64000])


@pytest.mark.parametrize("method", ["cw-batch", "none"])
def test_a_frame_invariant_pattern_is_one_column_for_every_frame(moving_bundle, method):
    # one-frame weights give one grid column, broadcast to the L frames;
    # a product over L copies of the weights differs in the last bits
    bins, sink = collect_bins()
    _, wideband = pipeline.beampattern(moving_bundle, method, sink, angle_step_deg=5.0)
    narrowband = np.stack(bins)
    nframes = moving_bundle.config.num_frames(moving_bundle.mixture.shape[1])
    assert narrowband.shape[2] == wideband.shape[1] == nframes
    assert np.all(narrowband == narrowband[:, :, :1])
    assert np.all(wideband == wideband[:, :1])


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf"), 181.0])
def test_the_beampattern_refuses_a_step_outside_0_to_180_degrees(static_bundle, step):
    # the rule of the CLI's --angle-step, for callers that bypass its parser:
    # 0 divided by zero, -1 gave an empty grid, inf one NaN angle, 181 [-90]
    with pytest.raises(ValueError, match=r"not in \(0, 180\]"):
        pipeline.beampattern(static_bundle, "cw-batch", lambda b: None, angle_step_deg=step)


@pytest.mark.parametrize("step, last", [(7.0, 85.0), (0.7, 89.9), (100.0, 10.0),
                                        (180.0, 90.0), (1.0, 90.0), (0.1, 90.0)])
def test_the_beampattern_grid_stays_inside_plus_minus_90_degrees(
    static_bundle, step, last
):
    # a column past 90 deg would steer like its mirror (sin 92 = sin 88); a
    # step that divides 180 keeps 90 deg itself
    angles, wideband = pipeline.beampattern(static_bundle, "cw-batch", lambda b: None,
                                            angle_step_deg=step)
    count = round((last + 90.0) / step) + 1
    np.testing.assert_allclose(angles, -90.0 + step * np.arange(count), rtol=0, atol=1e-9)
    assert angles[0] == -90.0 and angles[-1] <= 90.0
    assert wideband.shape[0] == count
