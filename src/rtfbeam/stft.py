"""Multichannel STFT analysis and single-channel overlap-add synthesis.

Frames are laid out without centering or zero padding: frame l covers
samples [l*hop, l*hop + window_len), so L = 1 + (N - window_len)//hop.
Synthesis uses the dual window w_a / sum_shifts(w_a^2), which gives perfect
reconstruction on the fully-overlapped interior for any NOLA window. The
spectrogram is bin-major, (F, M, L), the layout of every per-bin product
downstream; `analyze` has the rfft write its output into that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile


class StftError(ValueError):
    pass


def _make_window(kind: str, n: int) -> np.ndarray:
    # periodic hann: satisfies COLA at 50% / 75% overlap
    t = np.arange(n)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / n)
    if kind == "hann":
        return hann
    if kind == "sqrt_hann":
        return np.sqrt(hann)
    raise StftError(f"unknown window kind: {kind!r}")


@dataclass(frozen=True)
class StftConfig:
    sample_rate_hz: int = 16000
    window_len: int = 512
    hop: int = 256
    window: str = "sqrt_hann"

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise StftError("sample_rate_hz must be positive")
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise StftError("window_len must be positive and even")
        if not (0 < self.hop <= self.window_len):
            raise StftError("hop must satisfy 0 < hop <= window_len")
        _make_window(self.window, self.window_len)  # validates kind

    @property
    def num_bins(self) -> int:
        return self.window_len // 2 + 1

    def bin_frequencies_hz(self) -> np.ndarray:
        return np.arange(self.num_bins) * self.sample_rate_hz / self.window_len

    def analysis_window(self) -> np.ndarray:
        return _make_window(self.window, self.window_len)

    def ola_norm(self) -> np.ndarray:
        """Sum of hop-shifted squared analysis windows over one period."""
        w2 = self.analysis_window() ** 2
        norm = np.zeros(self.window_len)
        for shift in range(0, self.window_len, self.hop):
            norm += np.roll(w2, shift)
        return norm

    def num_frames(self, num_samples: int) -> int:
        if num_samples < self.window_len:
            raise StftError("signal shorter than one analysis window")
        return 1 + (num_samples - self.window_len) // self.hop


@dataclass
class ComplexSpectrogram:
    """Complex STFT tensor indexed (frequency bin k, channel m, frame l)."""

    data: np.ndarray  # complex, shape (F, M, L)
    config: StftConfig = field(default_factory=StftConfig)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise StftError("spectrogram data must have shape (F, M, L)")
        if self.data.shape[0] != self.config.num_bins:
            raise StftError(
                f"bin count {self.data.shape[0]} does not match config "
                f"({self.config.num_bins})"
            )

    @property
    def num_channels(self) -> int:
        return self.data.shape[1]

    @property
    def num_frames(self) -> int:
        return self.data.shape[2]


def analyze(signal: np.ndarray, config: StftConfig) -> ComplexSpectrogram:
    """STFT of a (M, N) or (N,) real signal; returns (F, M, L) one-sided spectra."""
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    if x.ndim != 2:
        raise StftError("signal must be 1-D or 2-D (channels, samples)")
    if not np.all(np.isfinite(x)):
        raise StftError("signal contains non-finite samples")
    n = x.shape[1]
    num_frames = config.num_frames(n)
    win = config.analysis_window()
    wlen, hop = config.window_len, config.hop

    frames = np.lib.stride_tricks.sliding_window_view(x, wlen, axis=1)
    frames = frames[:, :: hop, :][:, :num_frames, :]  # (M, L, W)
    spec = np.empty((config.num_bins, x.shape[0], num_frames), dtype=np.complex128)
    # the rfft writes each frame's spectrum straight into its (F, M, L) place
    np.fft.rfft(frames * win, axis=-1, out=spec.transpose(1, 2, 0))
    return ComplexSpectrogram(spec, config)


def synthesize(spec: ComplexSpectrogram) -> np.ndarray:
    """Overlap-add inverse STFT of a single-channel spectrogram."""
    if spec.num_channels != 1:
        raise StftError("synthesize expects a single-channel spectrogram")
    cfg = spec.config
    wlen, hop = cfg.window_len, cfg.hop
    num_frames = spec.num_frames
    win = cfg.analysis_window()
    norm = cfg.ola_norm()
    if np.min(norm) < 1e-12:
        raise StftError("window/hop pair violates NOLA; cannot invert")
    syn_win = win / norm

    frames = np.fft.irfft(spec.data[:, 0], n=wlen, axis=0)  # (W, L)
    frames *= syn_win[:, None]
    out = np.zeros((num_frames - 1) * hop + wlen)
    for l in range(num_frames):
        out[l * hop : l * hop + wlen] += frames[:, l]
    return out


def read_wav(path, expected_rate: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file as C-contiguous float64 (channels, samples) in
    [-1, 1] scaling: each channel's samples are adjacent in memory, as
    `analyze` reads them."""
    rate, data = wavfile.read(path)
    if expected_rate is not None and rate != expected_rate:
        raise StftError(f"sample rate {rate} != expected {expected_rate}")
    # the file interleaves the channels, (samples, channels): one copy
    # converts and transposes
    out = np.ascontiguousarray(np.atleast_2d(data.T), dtype=np.float64)
    if data.dtype == np.int16:
        out /= 32768.0
    elif data.dtype == np.int32:
        out /= 2147483648.0
    return rate, out


def write_wav(path, rate: int, signal: np.ndarray) -> None:
    """Write (channels, samples) or (samples,) to a float32 WAV file (a path
    or a binary file object)."""
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    out = x.T if x.shape[0] > 1 else x[0]
    wavfile.write(path, rate, out.astype(np.float32))
