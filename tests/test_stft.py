import struct

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


def test_frames_follow_the_hop():
    cfg = stft.StftConfig(window_len=8, hop=3)
    x = np.arange(2 * 30.0).reshape(2, 30)
    frames = cfg.frames(x)
    assert frames.shape == (2, cfg.num_frames(30), 8)
    for l in range(frames.shape[1]):
        np.testing.assert_array_equal(frames[:, l], x[:, 3 * l : 3 * l + 8])
    with pytest.raises(stft.StftError):
        cfg.frames(np.zeros(7))


# the STFT's 257 bins, the render's 32,401 and 1024 bins, a whole number of
# blocks (the other two end in a partial block)
@pytest.mark.parametrize("nfft", [512, 64800, 2046])
@pytest.mark.parametrize("shape", [(), (8,), (3, 5)])
@pytest.mark.parametrize("with_gains", [False, True])
def test_phase_ramp_matches_direct_exp(nfft, shape, with_gains):
    rng = np.random.default_rng(nfft + len(shape))
    delays = rng.uniform(-20.0, 450.0, size=shape)  # samples, the render's range
    gains = rng.uniform(0.1, 2.0, size=shape) if with_gains else 1.0
    k = np.arange(nfft // 2 + 1)
    direct = np.exp(-2j * np.pi * np.multiply.outer(delays, k) / nfft)
    direct *= np.asarray(gains)[..., None]
    ramp = stft.phase_ramp(delays, nfft, gains)
    assert ramp.shape == shape + (k.size,)
    # measured: up to 5.4e-13 relative on these cases, most of it the
    # rounding of the direct exp's argument (|phase| up to ~1400 rad)
    np.testing.assert_allclose(ramp, direct, rtol=1e-12, atol=0)
    out = np.empty_like(ramp)
    assert stft.phase_ramp(delays, nfft, gains, out) is out
    np.testing.assert_array_equal(out, ramp)


@pytest.mark.parametrize("nfft", [512, 64800])
def test_phase_ramp_is_elementwise_in_the_delays(nfft):
    # a delay alone gives exactly its ramp within a batch: a static scene's
    # one-frame truth equals every frame of its per-frame truth
    rng = np.random.default_rng(1)
    delays = rng.uniform(-12.0, 12.0, size=(4, 6))
    gains = rng.uniform(0.5, 1.5, size=(4, 6))
    batch = stft.phase_ramp(delays, nfft, gains)
    for i, j in np.ndindex(delays.shape):
        np.testing.assert_array_equal(
            stft.phase_ramp(delays[i, j], nfft, gains[i, j]), batch[i, j])
    np.testing.assert_array_equal(stft.phase_ramp(delays[2], nfft, gains[2]), batch[2])


def test_impulse_frame_matches_dft_oracle():
    # single-frame DFT identity: frame 0 of the STFT is the DFT of the
    # windowed frame, computed here directly as the oracle
    cfg = stft.StftConfig(window_len=64, hop=32, window="hann")
    x = np.zeros(128)
    x[5] = 1.0
    spec = stft.analyze(x, cfg)
    win = cfg.analysis_window()
    oracle = np.fft.rfft(win * x[:64])
    assert np.all(np.isfinite(spec))
    np.testing.assert_allclose(np.abs(spec[:, 0, 0]), np.abs(oracle), atol=1e-12)
    np.testing.assert_allclose(spec[:, 0, 0], oracle, atol=1e-12)


def test_zero_signal_gives_zero_spectrogram():
    cfg = stft.StftConfig()
    spec = stft.analyze(np.zeros((2, 2048)), cfg)
    assert spec.shape == (257, 2, 7) and np.all(spec == 0)


def test_sinusoid_energy_concentrated_at_bin():
    cfg = stft.StftConfig(window_len=512, hop=256, window="hann")
    k0 = 32
    n = np.arange(512 + 4 * 256)
    x = np.cos(2 * np.pi * k0 * n / 512)
    spec = stft.analyze(x, cfg)
    power = np.abs(spec[:, 0]) ** 2  # (F, L)
    for l in range(spec.shape[2]):
        total = np.sum(power[:, l])
        mainlobe = np.sum(power[k0 - 2 : k0 + 3, l])
        assert mainlobe >= 0.99 * total


@pytest.mark.parametrize("window", ["hann", "sqrt_hann"])
# 50% and 75% overlap, and hops that do not divide the window length
@pytest.mark.parametrize("hop", [256, 128, 100, 200, 384])
def test_round_trip_interior(window, hop):
    cfg = stft.StftConfig(window_len=512, hop=hop, window=window)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(8192)
    y = stft.synthesize(stft.analyze(x, cfg)[:, 0], cfg)
    lo, hi = 512, len(y) - 512
    err = np.linalg.norm(y[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
    assert err < 1e-6


def test_constant_signal_round_trip():
    cfg = stft.StftConfig()
    x = np.full(4096, 0.7)
    y = stft.synthesize(stft.analyze(x, cfg)[:, 0], cfg)
    np.testing.assert_allclose(y[512:-512], 0.7, rtol=1e-9)


def test_zero_spectrogram_synthesizes_zero():
    cfg = stft.StftConfig()
    assert np.all(stft.synthesize(np.zeros((257, 10), dtype=complex), cfg) == 0)


def test_parseval_one_frame():
    cfg = stft.StftConfig(window_len=512, hop=256)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(512)
    spec = stft.analyze(x, cfg)
    xw = cfg.analysis_window() * x
    mag2 = np.abs(spec[:, 0, 0]) ** 2
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
    with pytest.raises(stft.StftError):
        stft.synthesize(np.zeros((257, 2, 4), dtype=complex), cfg)
    with pytest.raises(stft.StftError):
        stft.synthesize(np.zeros((257, 1, 4), dtype=complex), cfg)


def test_synthesize_shape_validation():
    # the spectrum's bin count must be its config's
    cfg = stft.StftConfig()
    with pytest.raises(stft.StftError, match=r"\(257, L\) spectrum, got shape \(99, 4\)"):
        stft.synthesize(np.zeros((99, 4), dtype=complex), cfg)
    with pytest.raises(stft.StftError):
        stft.synthesize(np.zeros(257, dtype=complex), cfg)


@pytest.mark.parametrize("window_len, hop", [(512, 256), (512, 128), (512, 200)])
def test_blocks_of_frames_analyse_and_synthesize_as_the_whole(window_len, hop):
    # the frames [l0, l1) are the analysis of the samples they cover, and
    # overlap-added into the slice of the whole signal that they cover they
    # give its bits, also where three or more frames overlap
    cfg = stft.StftConfig(window_len=window_len, hop=hop)
    x = np.random.default_rng(3).standard_normal((2, 9000))
    spec = stft.analyze(x, cfg)
    nframes = spec.shape[2]
    whole = stft.synthesize(spec[:, 1], cfg)
    out = np.zeros_like(whole)
    edges = [0, 5, 6, 20, nframes]
    for l0, l1 in zip(edges, edges[1:]):
        samples = slice(l0 * hop, (l1 - 1) * hop + window_len)
        block = stft.analyze(x[:, samples], cfg)
        np.testing.assert_array_equal(block, spec[:, :, l0:l1])
        assert stft.synthesize(block[:, 1], cfg, out[samples]).base is out
    np.testing.assert_array_equal(out, whole)
    with pytest.raises(stft.StftError, match="out holds"):
        stft.synthesize(spec[:, 1, :3], cfg, out[:window_len])


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
    with pytest.raises(stft.StftError) as err:
        stft.read_wav(path, expected_rate=16000)
    assert str(err.value) == f"{path}: sample rate 8000 != expected 16000"


# -------------------------------------------------------------- WAV format
# scipy.io.wavfile is the oracle for the bytes written and the samples read


@pytest.mark.parametrize("shape", [(1600,), (1, 1600), (2, 1600), (8, 1600)])
def test_write_wav_bytes_are_scipys(tmp_path, shape):
    x = np.random.default_rng(4).standard_normal(shape)
    stft.write_wav(tmp_path / "ours.wav", 16000, x)
    rows = np.atleast_2d(x)
    wavfile.write(tmp_path / "scipy.wav", 16000,
                  (rows.T if rows.shape[0] > 1 else rows[0]).astype(np.float32))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


_EXTENSIBLE_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _fmt(tag, channels, bits, extra=b""):
    align = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, 16000, 16000 * align, align, bits) + extra


def _riff(*chunks):
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _samples(dtype, shape=(400, 2)):
    x = np.random.default_rng(5).uniform(-1.0, 1.0, shape)
    if np.dtype(dtype).kind == "i":
        return (x * np.iinfo(dtype).max).astype(dtype)
    return x.astype(dtype)


def _extensible_float32():
    data = _samples("<f4")
    ext = struct.pack("<HHII", 22, 32, 0b11, 3) + _EXTENSIBLE_TAIL
    return _riff((b"fmt ", _fmt(0xFFFE, 2, 32, ext)), (b"data", data.tobytes()))


def _odd_list_before_data():
    data = _samples("<i2")
    return _riff((b"fmt ", _fmt(1, 2, 16)), (b"LIST", b"INFOodd"), (b"data", data.tobytes()))


WAV_FILES = [
    pytest.param(lambda p: wavfile.write(p, 16000, _samples("<i2")), id="pcm16"),
    pytest.param(lambda p: wavfile.write(p, 16000, _samples("<i4")), id="pcm32"),
    pytest.param(lambda p: wavfile.write(p, 16000, _samples("<f4")), id="float32"),
    pytest.param(lambda p: wavfile.write(p, 16000, _samples("<f8", (400,))), id="float64-mono"),
    pytest.param(lambda p: p.write_bytes(_extensible_float32()), id="extensible-float32"),
    pytest.param(lambda p: p.write_bytes(_odd_list_before_data()), id="odd-list-chunk"),
]


@pytest.mark.parametrize("make", WAV_FILES)
def test_read_wav_matches_scipy(tmp_path, make):
    path = tmp_path / "x.wav"
    make(path)
    rate, data = wavfile.read(path)
    expected = np.atleast_2d(data.T).astype(np.float64)
    if data.dtype.kind == "i":
        expected /= 2.0 ** (8 * data.dtype.itemsize - 1)
    got_rate, got = stft.read_wav(path)
    assert got_rate == rate == 16000
    assert got.dtype == np.float64 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, expected)


def _cut(nbytes):
    def make(path):
        stft.write_wav(path, 16000, np.zeros((2, 100)))
        path.write_bytes(path.read_bytes()[:nbytes])
    return make


WAV_DEFECTS = [
    pytest.param(lambda p: wavfile.write(p, 16000, _samples("u1")),
                 "unsupported sample format (tag 0x1, 8-bit", id="pcm8"),
    pytest.param(lambda p: p.write_bytes(_riff((b"fmt ", _fmt(1, 2, 24)), (b"data", bytes(60)))),
                 "unsupported sample format (tag 0x1, 24-bit", id="pcm24"),
    pytest.param(lambda p: p.write_bytes(_riff((b"fmt ", _fmt(6, 1, 8)), (b"data", bytes(10)))),
                 "unsupported sample format (tag 0x6, 8-bit", id="a-law"),
    pytest.param(lambda p: p.write_bytes(b"ID3\x03 not a wav file"), "no RIFF/WAVE header",
                 id="no-header"),
    pytest.param(_cut(6), "no RIFF/WAVE header", id="cut-in-header"),
    pytest.param(lambda p: p.write_bytes(_riff((b"data", bytes(8)))),
                 "no fmt chunk before the data chunk", id="no-fmt"),
    pytest.param(_cut(30), "short fmt chunk", id="cut-in-fmt"),
    pytest.param(lambda p: p.write_bytes(_riff((b"fmt ", _fmt(3, 1, 32)))), "no data chunk",
                 id="no-data"),
    pytest.param(_cut(40), "no data chunk", id="cut-before-data"),
    pytest.param(_cut(400), "short data chunk (342 of 800 bytes)", id="short-data"),
    pytest.param(lambda p: p.write_bytes(_riff((b"fmt ", _fmt(1, 2, 16)), (b"data", bytes(6)))),
                 "data chunk of 6 bytes holds a partial 4-byte frame", id="partial-frame"),
]


@pytest.mark.parametrize("make,defect", WAV_DEFECTS)
def test_read_wav_names_the_path_and_the_defect(tmp_path, make, defect):
    path = tmp_path / "bad.wav"
    make(path)
    with pytest.raises(stft.StftError) as err:
        stft.read_wav(path)
    assert str(err.value).startswith(f"{path}: {defect}")


@pytest.mark.parametrize("make", WAV_FILES)
def test_read_wav_shape_is_the_shape_read_wav_reads(tmp_path, make):
    path = tmp_path / "x.wav"
    make(path)
    rate, data = stft.read_wav(path)
    assert stft.read_wav_shape(path) == (rate, data.shape)


@pytest.mark.parametrize("make,defect", WAV_DEFECTS)
def test_read_wav_shape_refuses_what_read_wav_refuses(tmp_path, make, defect):
    # one header parser: the samples are not read, but a data chunk the file
    # is too short for is refused from the file size, with the same message
    path = tmp_path / "bad.wav"
    make(path)
    with pytest.raises(stft.StftError) as err:
        stft.read_wav_shape(path)
    assert str(err.value).startswith(f"{path}: {defect}")
