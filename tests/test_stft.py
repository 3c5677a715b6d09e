import numpy as np
import pytest
from scipy.io import wavfile

from rtfbeam import stft


def test_config_validation():
    with pytest.raises(stft.StftError):
        stft.StftConfig(window_len=511)  # odd
    with pytest.raises(stft.StftError):
        stft.StftConfig(window_len=512, hop=513)
    with pytest.raises(stft.StftError):
        stft.StftConfig(sample_rate_hz=0)
    with pytest.raises(stft.StftError):
        stft.StftConfig(window="hamming")


def test_num_bins_and_frames():
    cfg = stft.StftConfig()
    assert cfg.num_bins == 257
    assert cfg.num_frames(512 + 5 * 256 + 3) == 6
    with pytest.raises(stft.StftError):
        cfg.num_frames(511)


def test_bin_frequencies():
    cfg = stft.StftConfig()
    f = cfg.bin_frequencies_hz()
    assert f[0] == 0.0
    assert f[-1] == 8000.0
    assert np.allclose(np.diff(f), 16000 / 512)


def test_impulse_frame_matches_dft_oracle():
    # single-frame DFT identity: frame 0 of the STFT is the DFT of the
    # windowed frame, computed here directly as the oracle
    cfg = stft.StftConfig(window_len=64, hop=32, window="hann")
    x = np.zeros(128)
    x[5] = 1.0
    spec = stft.analyze(x, cfg)
    win = cfg.analysis_window()
    oracle = np.fft.rfft(win * x[:64])
    assert np.all(np.isfinite(spec.data))
    np.testing.assert_allclose(np.abs(spec.data[:, 0, 0]), np.abs(oracle), atol=1e-12)
    np.testing.assert_allclose(spec.data[:, 0, 0], oracle, atol=1e-12)


def test_zero_signal_gives_zero_spectrogram():
    cfg = stft.StftConfig()
    spec = stft.analyze(np.zeros((2, 2048)), cfg)
    assert np.all(spec.data == 0)


def test_sinusoid_energy_concentrated_at_bin():
    cfg = stft.StftConfig(window_len=512, hop=256, window="hann")
    k0 = 32
    n = np.arange(512 + 4 * 256)
    x = np.cos(2 * np.pi * k0 * n / 512)
    spec = stft.analyze(x, cfg)
    power = np.abs(spec.data[:, 0]) ** 2  # (F, L)
    for l in range(spec.num_frames):
        total = np.sum(power[:, l])
        mainlobe = np.sum(power[k0 - 2 : k0 + 3, l])
        assert mainlobe >= 0.99 * total


@pytest.mark.parametrize("window", ["hann", "sqrt_hann"])
@pytest.mark.parametrize("hop", [256, 128])  # 50% and 75% overlap
def test_round_trip_interior(window, hop):
    cfg = stft.StftConfig(window_len=512, hop=hop, window=window)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8192)
    y = stft.synthesize(stft.analyze(x, cfg))
    lo, hi = 512, len(y) - 512
    err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    assert err < 1e-6


def test_constant_signal_round_trip():
    cfg = stft.StftConfig()
    x = np.full(4096, 0.7)
    y = stft.synthesize(stft.analyze(x, cfg))
    np.testing.assert_allclose(y[512:-512], 0.7, rtol=1e-9)


def test_zero_spectrogram_synthesizes_zero():
    cfg = stft.StftConfig()
    spec = stft.ComplexSpectrogram(np.zeros((257, 1, 10)), cfg)
    assert np.all(stft.synthesize(spec) == 0)


def test_parseval_one_frame():
    cfg = stft.StftConfig(window_len=512, hop=256)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(512)
    spec = stft.analyze(x, cfg)
    xw = cfg.analysis_window() * x
    mag2 = np.abs(spec.data[:, 0, 0]) ** 2
    # one-sided spectrum: interior bins count twice
    spectral = (mag2[0] + 2 * np.sum(mag2[1:-1]) + mag2[-1]) / 512
    time_energy = np.sum(xw**2)
    assert abs(spectral - time_energy) <= 1e-8 * time_energy


def test_analyze_errors():
    cfg = stft.StftConfig()
    with pytest.raises(stft.StftError):
        stft.analyze(np.zeros(100), cfg)  # shorter than one window
    bad = np.zeros(2048)
    bad[7] = np.nan
    with pytest.raises(stft.StftError):
        stft.analyze(bad, cfg)


def test_synthesize_rejects_multichannel():
    cfg = stft.StftConfig()
    spec = stft.ComplexSpectrogram(np.zeros((257, 2, 4)), cfg)
    with pytest.raises(stft.StftError):
        stft.synthesize(spec)


def test_spectrogram_shape_validation():
    cfg = stft.StftConfig()
    with pytest.raises(stft.StftError):
        stft.ComplexSpectrogram(np.zeros((257, 4)), cfg)
    with pytest.raises(stft.StftError):
        stft.ComplexSpectrogram(np.zeros((99, 1, 4)), cfg)


@pytest.mark.parametrize("dtype,tol", [("float32", 1e-7), ("pcm16", 1e-4)])
def test_wav_round_trip(tmp_path, dtype, tol):
    # write_wav writes float32 only; read_wav also reads the PCM16 files
    # other tools write, so that case is written with scipy directly
    rng = np.random.default_rng(2)
    x = np.clip(rng.standard_normal((2, 1600)) * 0.2, -1, 1)
    path = tmp_path / "x.wav"
    if dtype == "float32":
        stft.write_wav(path, 16000, x)
    else:
        pcm = np.round(np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0)
        wavfile.write(path, 16000, pcm.T.astype(np.int16))
    rate, y = stft.read_wav(path, expected_rate=16000)
    assert rate == 16000
    assert y.shape == x.shape
    assert y.dtype == np.float64 and y.flags.c_contiguous  # one channel per row
    np.testing.assert_allclose(y, x, atol=tol)


def test_read_wav_rate_mismatch(tmp_path):
    path = tmp_path / "x.wav"
    stft.write_wav(path, 8000, np.zeros(100))
    with pytest.raises(stft.StftError):
        stft.read_wav(path, expected_rate=16000)
