import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy import fft as spfft
from scipy import signal as sps

from rtfbeam import simulator, stft
from rtfbeam.beamformer import SPEED_OF_SOUND


# ------------------------------------------------------------- sampling


def test_sample_scenario_deterministic():
    a = simulator.sample_scenario(42)
    b = simulator.sample_scenario(42)
    assert a.to_json() == b.to_json()


def test_sample_scenario_distinct_seeds():
    assert simulator.sample_scenario(1).to_json() != simulator.sample_scenario(2).to_json()


def test_sample_scenario_ranges():
    for seed in range(1000):
        s = simulator.sample_scenario(seed)
        assert 6.0 <= s.room_width <= 9.0
        assert 6.0 <= s.room_length <= 9.0
        assert abs(s.array_rotation_deg) <= 45.0
        assert 1.0 <= s.source_radius <= 1.5
        assert 45.0 <= abs(s.source_delta_deg) <= 150.0
        assert np.all(s.babbler_positions[:, 0] >= 0)
        assert np.all(s.babbler_positions[:, 0] <= s.room_width)
        assert np.all(s.babbler_positions[:, 1] >= 0)
        assert np.all(s.babbler_positions[:, 1] <= s.room_length)
        # arc stays inside the front-back-unambiguous broadside sector
        ends = (s.source_start_deg, s.source_start_deg + s.source_delta_deg)
        assert max(abs(e) for e in ends) <= simulator.MAX_ABS_DOA_DEG + 1e-9


def test_sample_scenario_static_mode():
    s = simulator.sample_scenario(5, static=True)
    assert s.source_delta_deg == 0.0


def test_scenario_json_round_trip():
    s = simulator.sample_scenario(9)
    t = simulator.Scenario.from_json(s.to_json())
    assert s.to_json() == t.to_json()
    assert json.loads(s.to_json())["seed"] == 9
    # a scenario.json without the optional fields loads with their defaults
    d = json.loads(s.to_json())
    optional = ["num_mics", "mic_spacing", "duration_s", "sample_rate",
                "lead_silence_s"]
    for key in optional:
        del d[key]
    u = simulator.Scenario.from_json(json.dumps(d))
    assert [getattr(u, key) for key in optional] == [
        simulator.NUM_MICS, simulator.MIC_SPACING_M, simulator.DEFAULT_DURATION_S,
        simulator.DEFAULT_SAMPLE_RATE, simulator.LEAD_SILENCE_S,
    ]
    np.testing.assert_array_equal(u.babbler_positions, s.babbler_positions)
    assert u.source_start_deg == s.source_start_deg and u.seed == 9
    # the room_height key of older scenario.json files is not a field: ignored
    d = json.loads(s.to_json())
    assert "room_height" not in d
    d["room_height"] = 3.0
    assert simulator.Scenario.from_json(json.dumps(d)).to_json() == s.to_json()


def test_scenario_validation():
    s = simulator.sample_scenario(0)
    bad = json.loads(s.to_json())
    bad["source_radius"] = 3.0
    with pytest.raises(simulator.SimulatorError):
        simulator.Scenario.from_json(json.dumps(bad))
    bad = json.loads(s.to_json())
    bad["room_width"] = 2.0
    bad["room_length"] = 2.0
    with pytest.raises(simulator.SimulatorError):
        simulator.Scenario.from_json(json.dumps(bad))


# ------------------------------------------------------------ rendering


def _config(scenario):
    return stft.StftConfig(sample_rate_hz=scenario.sample_rate)


def _static_scenario(seed=0, start_deg=0.0):
    s = simulator.sample_scenario(seed, static=True)
    d = json.loads(s.to_json())
    d["source_start_deg"] = start_deg
    d["array_rotation_deg"] = 0.0
    return simulator.Scenario.from_json(json.dumps(d))


def test_static_broadside_source_symmetric_channels():
    scenario = _static_scenario(start_deg=0.0)
    source = simulator.synthesize_target_signal(0, scenario)
    clean, _ = simulator.render_moving_source(source, scenario, _config(scenario))
    # broadside source is equidistant from mirror-image element pairs
    for m in range(scenario.num_mics // 2):
        np.testing.assert_allclose(
            clean[m], clean[scenario.num_mics - 1 - m], atol=1e-6
        )


def test_static_source_cross_correlation_matches_geometry():
    scenario = _static_scenario(start_deg=40.0)
    source = simulator.synthesize_target_signal(1, scenario)
    clean, _ = simulator.render_moving_source(source, scenario, _config(scenario))
    mics = scenario.mic_positions()
    pos = scenario.source_position(0.0)
    d0 = np.linalg.norm(pos - mics[0])
    d7 = np.linalg.norm(pos - mics[-1])
    expected_lag = (d7 - d0) / SPEED_OF_SOUND * scenario.sample_rate
    xc = sps.correlate(clean[-1], clean[0], mode="full")
    lag = np.argmax(xc) - (clean.shape[1] - 1)
    assert abs(lag - expected_lag) <= 1.0


def test_moving_source_doa_monotone():
    scenario = simulator.sample_scenario(3)
    source = simulator.synthesize_target_signal(3, scenario)
    _, truth = simulator.render_moving_source(source, scenario, _config(scenario))
    diffs = np.diff(truth.doa_per_frame)
    sign = np.sign(scenario.source_delta_deg)
    assert np.all(sign * diffs >= 0)
    total = truth.doa_per_frame[-1] - truth.doa_per_frame[0]
    assert sign * total > 0


def test_ground_truth_rtf_matches_geometry_oracle(moving_bundle):
    # recompute the free-field RTF at a few frames straight from geometry
    scenario = moving_bundle.scenario
    cfg = moving_bundle.config
    truth = moving_bundle.truth
    mics = scenario.mic_positions()
    freqs = np.fft.rfftfreq(cfg.window_len, 1 / cfg.sample_rate_hz)
    for l in (40, 120, 200):
        t = (l * cfg.hop + cfg.window_len / 2) / scenario.sample_rate
        dists = np.linalg.norm(scenario.source_position(t) - mics, axis=1)
        for k in (10, 100, 250):
            a = (dists[0] / dists) * np.exp(
                -2j * np.pi * freqs[k] * (dists - dists[0]) / SPEED_OF_SOUND
            )
            np.testing.assert_allclose(truth.rtf["left"]().values[k, :, l], a, atol=1e-9)


def test_static_truth_is_one_frame_of_the_per_frame_truth(static_bundle, moving_bundle):
    # a pinned source's RTF is the same in every frame: the truth keeps one
    # frame, and it equals each frame of the per-frame analytic RTF exactly
    scenario, cfg = static_bundle.scenario, static_bundle.config
    nframes = static_bundle.truth.doa_per_frame.size
    frame_times = (np.arange(nframes) * cfg.hop + cfg.window_len / 2) / scenario.sample_rate
    for side, ref in (("left", 0), ("right", scenario.num_mics - 1)):
        truth = static_bundle.truth.rtf[side]()
        assert truth.values.shape == (cfg.num_bins, scenario.num_mics, 1)
        assert truth.valid.shape == (cfg.num_bins, 1)
        per_frame = simulator._analytic_rtf(scenario, frame_times, cfg, ref)
        np.testing.assert_array_equal(
            np.broadcast_to(truth.values, per_frame.values.shape), per_frame.values)
        np.testing.assert_array_equal(
            np.broadcast_to(truth.valid, per_frame.valid.shape), per_frame.valid)
    moving = moving_bundle.truth
    for make in moving.rtf.values():
        traj = make()
        assert traj.values.shape[2] == traj.valid.shape[1] == moving.doa_per_frame.size


def test_a_truth_maker_makes_the_frames_it_is_asked_for(static_bundle, moving_bundle):
    # a moving truth's frame block has the bits of those frames of the whole;
    # a static truth is its one frame for any block
    for bundle in (moving_bundle, static_bundle):
        for make in bundle.truth.rtf.values():
            whole, block = make(), make(slice(64, 128))
            frames = slice(64, 128) if whole.values.shape[2] > 1 else slice(None)
            np.testing.assert_array_equal(block.values, whole.values[:, :, frames])
            np.testing.assert_array_equal(block.valid, whole.valid[:, frames])


def test_channel_power_follows_inverse_distance():
    scenario = _static_scenario(start_deg=50.0)
    source = simulator.synthesize_target_signal(2, scenario)
    clean, _ = simulator.render_moving_source(source, scenario, _config(scenario))
    dists = np.linalg.norm(
        scenario.mic_positions() - scenario.source_position(0.0), axis=1
    )
    powers = np.mean(clean**2, axis=1)
    order = np.argsort(dists)
    assert np.all(np.diff(powers[order]) < 0)


def test_render_rejects_wrong_length():
    scenario = simulator.sample_scenario(0)
    with pytest.raises(simulator.SimulatorError):
        simulator.render_moving_source(np.zeros(100), scenario, _config(scenario))


def test_active_frames_exclude_lead_silence(moving_bundle):
    truth = moving_bundle.truth
    cfg = moving_bundle.config
    lead = moving_bundle.scenario.lead_silence_s * moving_bundle.scenario.sample_rate
    fully_silent = int((lead - cfg.window_len) // cfg.hop + 1)
    assert not truth.active_frames[:fully_silent].any()
    assert truth.active_frames[fully_silent + 5 :].all()


def test_render_static_integer_sample_delays_are_shifts():
    # mics at whole-sample distances: each channel is the source delayed by
    # that many samples and scaled by 1/d
    fs = 16000
    lags = np.array([3, 17, 40, 111, 250])
    dists = lags * SPEED_OF_SOUND / fs
    mics = np.stack([dists, np.zeros_like(dists), np.zeros_like(dists)], axis=1)
    source = np.random.default_rng(0).standard_normal(3000)
    out = simulator._render_sources(source[None, :], np.zeros((1, 3)), mics, fs, 3000)
    for m, (lag, d) in enumerate(zip(lags, dists)):
        expected = np.concatenate([np.zeros(lag), source[:-lag]]) / d
        np.testing.assert_allclose(out[m], expected, rtol=0, atol=1e-12)


def _rows(delays, gains):
    """The `_delay_varying` rows of (R, N) delays and gains, a block of
    samples at a time."""
    return lambda start, stop: (delays[:, start:stop], gains[:, start:stop])


def _windowed_sinc_reference(signal, delay_samples, gain):
    """The (N, 32) raised-cosine windowed-sinc block with a clipped gather."""
    half = simulator.SINC_HALF_TAPS
    n = signal.shape[0]
    n0 = np.floor(delay_samples).astype(np.int64)
    frac = delay_samples - n0
    j = np.arange(2 * half)
    u = j[None, :] - (half - 1) - frac[:, None]
    window = 0.5 + 0.5 * np.cos(np.pi * u / half)
    window[np.abs(u) > half] = 0.0
    kern = np.sinc(u) * window
    idx = np.arange(n)[:, None] - n0[:, None] + (half - 1) - j[None, :]
    ok = (idx >= 0) & (idx < n)
    gathered = np.where(ok, signal[np.clip(idx, 0, n - 1)], 0.0)
    return gain * np.sum(kern * gathered, axis=1)


@pytest.mark.parametrize("lo, hi", [(3.0, 47.5), (60.2, 20.7), (-5.5, 12.0)])
def test_delay_varying_matches_windowed_sinc_reference(lo, hi):
    rng = np.random.default_rng(1)
    n = 4000
    signal = rng.standard_normal(n)
    delay = np.linspace(lo, hi, n)  # crosses many integers
    delay[::5] = np.round(delay[::5])  # fraction exactly 0
    gain = rng.uniform(0.5, 2.0, n)
    out = simulator._delay_varying(signal, _rows(delay[None], gain[None]))[0]
    ref = _windowed_sinc_reference(signal, delay, gain)
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_delay_varying_integer_delay_is_shift():
    signal = np.random.default_rng(2).standard_normal(500)
    out = simulator._delay_varying(signal, _rows(np.full((1, 500), 7.0), np.ones((1, 500))))[0]
    np.testing.assert_array_equal(out[7:], signal[:-7])
    np.testing.assert_array_equal(out[:7], 0.0)


def test_farrow_taps_match_the_windowed_sinc_on_a_dense_grid():
    # the kernel's Chebyshev series of each tap against h_k(f) itself, f from
    # 0 to 1 inclusive; the worst error measured at P = 14 is 4.9e-15
    coeffs = simulator._farrow_coefficients()
    half = simulator.SINC_HALF_TAPS
    assert coeffs.shape == (simulator.FARROW_DEGREE + 1, 2 * half)
    frac = np.linspace(0.0, 1.0, 20_001)
    lags = np.arange(1 - half, half + 1)[:, None] - frac[None, :]
    taps = np.sinc(lags) * (1 + np.cos(np.pi * lags / half)) / 2
    fitted = chebyshev.chebval(2 * frac - 1, coeffs)  # (32, len(frac))
    assert np.max(np.abs(fitted - taps)) <= 1e-14


def test_farrow_coefficients_are_the_least_squares_fit():
    # the kernel projects onto T_p, relying on their orthogonality over the
    # 4P nodes; chebfit solves the least-squares problem outright
    degree = simulator.FARROW_DEGREE
    half = simulator.SINC_HALF_TAPS
    nodes = np.cos(np.pi * (np.arange(4 * degree) + 0.5) / (4 * degree))
    lags = np.arange(1 - half, half + 1)[None, :] - (nodes[:, None] + 1) / 2
    taps = np.sinc(lags) * (1 + np.cos(np.pi * lags / half)) / 2
    np.testing.assert_allclose(simulator._farrow_coefficients(),
                               chebyshev.chebfit(nodes, taps, degree), rtol=0, atol=1e-14)


def test_delay_varying_rows_equal_one_row_calls():
    # the shared bank spans the union of the rows' integer delays; each row
    # must come out as if it were delayed alone
    rng = np.random.default_rng(4)
    n = 3000
    signal = rng.standard_normal(n)
    delays = np.stack([np.linspace(3.0, 47.5, n), np.linspace(60.2, 20.7, n),
                       np.linspace(-5.5, 12.0, n)])
    delays[:, ::7] = np.round(delays[:, ::7])
    gains = rng.uniform(0.5, 2.0, delays.shape)
    out = simulator._delay_varying(signal, _rows(delays, gains))
    assert out.shape == delays.shape
    for row, delay, gain in zip(out, delays, gains):
        np.testing.assert_array_equal(
            row, simulator._delay_varying(signal, _rows(delay[None], gain[None]))[0])


@pytest.mark.parametrize("block", [1, 37, 256, 1000])
def test_delay_varying_blocks_give_the_bits_of_one_block(monkeypatch, block):
    # each block's bank starts and ends on the aligned columns of the bank
    # over the whole signal, so any block size gives the same bits
    rng = np.random.default_rng(5)
    n = 3000
    signal = rng.standard_normal(n)
    delays = np.stack([np.linspace(3.0, 47.5, n), np.linspace(60.2, 20.7, n)])
    delays[:, ::7] = np.round(delays[:, ::7])
    gains = rng.uniform(0.5, 2.0, delays.shape)
    whole = simulator._delay_varying(signal, _rows(delays, gains))
    monkeypatch.setattr(simulator, "_SAMPLE_BLOCK", block)
    np.testing.assert_array_equal(simulator._delay_varying(signal, _rows(delays, gains)), whole)


def test_farrow_fit_is_lazy_and_runs_once():
    # nothing is fitted at import, the first moving render fits, later
    # renders reuse the fit, and numpy.polynomial (~3.5 ms to import) is
    # never loaded; this process has loaded it already
    code = "\n".join([
        "import sys, rtfbeam, rtfbeam.cli",
        "from rtfbeam import simulator, stft",
        "print(simulator._farrow_coefficients.cache_info().misses)",
        "scenario = simulator.sample_scenario(3)",
        "source = simulator.synthesize_target_signal(3, scenario)",
        "for _ in range(2):",
        "    simulator.render_moving_source(source, scenario, stft.StftConfig())",
        "info = simulator._farrow_coefficients.cache_info()",
        "print(info.misses, info.hits, 'numpy.polynomial' in sys.modules)",
    ])
    src = str(Path(simulator.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    printed = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
    assert printed == ["0", "1", "1", "False"]


def test_fast_len_matches_scipy_next_fast_len():
    sizes = list(range(1, 5001))
    sizes += [int(v) for v in np.random.default_rng(3).integers(1, 10**6, 2000)]
    for n in sizes:
        assert simulator._fast_len(n) == spfft.next_fast_len(n, real=True), n


def test_importing_rtfbeam_does_not_import_scipy_fft():
    # _fast_len stands in for scipy.fft.next_fast_len, and stft's own WAV
    # code for scipy.io.wavfile, because those imports add 150-300 ms to
    # every CLI run; this process has imported scipy already
    code = ("import sys, rtfbeam, rtfbeam.cli; "
            "print(*(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(simulator.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    imported = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split()
    assert "scipy.fft" not in imported
    assert imported == []


# --------------------------------------------------------------- babble


def test_render_babble_single_matches_static_render():
    scenario = simulator.sample_scenario(4)
    one = dataclasses.replace(scenario, babbler_positions=scenario.babbler_positions[:1])
    sig = simulator.synthesize_babbler_signals(0, 1, scenario.duration_s,
                                               scenario.sample_rate)
    out = simulator.render_babble(one, sig)
    oracle = simulator._render_sources(
        sig, scenario.babbler_positions[:1], scenario.mic_positions(),
        scenario.sample_rate, scenario.num_samples,
    )
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_render_babble_needs_one_signal_per_position():
    scenario = simulator.sample_scenario(4)
    sig = np.zeros((1, scenario.num_samples))
    with pytest.raises(simulator.SimulatorError,
                       match="^1 babbler signals for 20 positions"):
        simulator.render_babble(scenario, sig)


def test_render_babble_reads_a_stream_as_its_array():
    # the stream is read one signal at a time and renders the bits of its
    # stacked signals; a count or a length that does not fit is refused
    scenario = simulator.sample_scenario(4)
    n = scenario.num_samples
    args = ([4, 2], simulator.NUM_BABBLERS, scenario.duration_s, scenario.sample_rate)
    np.testing.assert_array_equal(
        simulator.render_babble(scenario, simulator.babbler_stream(*args)),
        simulator.render_babble(scenario, simulator.synthesize_babbler_signals(*args)))
    with pytest.raises(simulator.SimulatorError,
                       match="^25 babbler signals for 20 positions$"):
        simulator.render_babble(scenario, np.zeros((25, n)))
    with pytest.raises(simulator.SimulatorError,
                       match=rf"^babbler signal 1 has shape \({n - 1},\), expected \({n},\)$"):
        simulator.render_babble(scenario, [np.zeros(n - 1)])


def test_render_babble_zero_signals():
    scenario = simulator.sample_scenario(4)
    out = simulator.render_babble(
        scenario, np.zeros((simulator.NUM_BABBLERS, scenario.num_samples))
    )
    assert np.all(out == 0)


def test_babble_field_low_coherence_at_high_frequency():
    scenario = simulator.sample_scenario(6)
    rng = np.random.default_rng(0)
    sigs = rng.standard_normal((simulator.NUM_BABBLERS, scenario.num_samples))
    out = simulator.render_babble(scenario, sigs)
    f, coh = sps.coherence(out[0], out[-1], fs=scenario.sample_rate, nperseg=512)
    assert np.mean(coh[f > 2000.0]) < 0.5


# ---------------------------------------------------------------- mixing


def test_mix_at_snr_defining_property():
    rng = np.random.default_rng(1)
    clean = rng.standard_normal((2, 4000))
    noise = rng.standard_normal((2, 4000)) * 3.0
    for snr in (0.0, 10.0):
        mixed = simulator.mix_at_snr(clean, noise, snr)
        scaled = mixed - clean
        ratio = np.mean(clean[0] ** 2) / np.mean(scaled[0] ** 2)
        assert abs(ratio - 10.0 ** (snr / 10.0)) < 1e-9 * 10.0 ** (snr / 10.0)


def test_mix_at_snr_cap_drops_noise():
    rng = np.random.default_rng(2)
    clean = rng.standard_normal((2, 100))
    noise = rng.standard_normal((2, 100))
    np.testing.assert_array_equal(simulator.mix_at_snr(clean, noise, 120.0), clean)


def test_mix_at_snr_errors():
    with pytest.raises(simulator.SimulatorError):
        simulator.mix_at_snr(np.zeros((2, 10)), np.ones((2, 11)), 0.0)
    with pytest.raises(simulator.SimulatorError):
        simulator.mix_at_snr(np.zeros((2, 10)), np.ones((2, 10)), 0.0)
    with pytest.raises(simulator.SimulatorError):
        simulator.mix_at_snr(np.ones((2, 10)), np.zeros((2, 10)), 0.0)


# ---------------------------------------------------------- noise source


def test_babbler_signals_deterministic_and_unit_rms():
    a = simulator.synthesize_babbler_signals(7, 2, 1.0)
    b = simulator.synthesize_babbler_signals(7, 2, 1.0)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(np.sqrt(np.mean(a**2, axis=1)), 1.0, rtol=1e-12)


def test_babbler_signals_draw_per_signal_and_match_the_direct_modulation():
    # each signal draws its white noise, then its phase, in turn: signal 0
    # does not depend on the count, so a batched draw would fail here
    seed = [4, 2]
    many = simulator.synthesize_babbler_signals(seed, 20)
    np.testing.assert_array_equal(many[0], simulator.synthesize_babbler_signals(seed, 1)[0])
    # the shared sin/cos modulation against 1 + sin(w t + phi) / 2 per signal
    rng = np.random.default_rng(seed)
    n = many.shape[1]
    t = np.arange(n) / simulator.DEFAULT_SAMPLE_RATE
    freqs = np.fft.rfftfreq(n, t[1])
    shaping = np.where(freqs > 50.0, np.sqrt(50.0 / np.maximum(freqs, 50.0)), 1.0)
    shaping[0] = 0.0
    for sig in many:
        pink = np.fft.irfft(np.fft.rfft(rng.standard_normal(n)) * shaping, n=n)
        direct = pink * (1.0 + 0.5 * np.sin(2 * np.pi * 4.0 * t + rng.uniform(0, 2 * np.pi)))
        np.testing.assert_allclose(sig, direct / np.sqrt(np.mean(direct**2)),
                                   rtol=0, atol=1e-12)


def test_babbler_spectrum_slope_is_pink():
    sig = simulator.synthesize_babbler_signals(8, 1, 8.0)[0]
    f, psd = sps.welch(sig, fs=16000, nperseg=4096)
    band = (f >= 200.0) & (f <= 4000.0)
    slope = np.polyfit(np.log2(f[band]), 10.0 * np.log10(psd[band]), 1)[0]
    assert abs(slope - (-3.0)) <= 1.0  # dB per octave


def test_babbler_seeds_uncorrelated():
    a = simulator.synthesize_babbler_signals(9, 1, 2.0)[0]
    b = simulator.synthesize_babbler_signals(10, 1, 2.0)[0]
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.05


def test_target_signal_lead_silence():
    scenario = simulator.sample_scenario(0)
    sig = simulator.synthesize_target_signal(0, scenario)
    lead = int(round(scenario.lead_silence_s * scenario.sample_rate))
    assert np.all(sig[:lead] == 0)
    assert np.any(sig[lead:] != 0)
