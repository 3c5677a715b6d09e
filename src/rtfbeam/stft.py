"""Multichannel STFT analysis and single-channel overlap-add synthesis.

Frames are laid out without centering or zero padding: frame l covers
samples [l*hop, l*hop + window_len), so L = 1 + (N - window_len)//hop.
A spectrogram is a plain complex ndarray, bin-major (F, M, L), the layout
of every per-bin product downstream; `analyze` windows one mic's frames at
a time and has the rfft write them into that layout, and the frames
[l0, l1) are the analysis of the samples they cover. `synthesize` takes a
single-channel (F, L) spectrum and the config it was analysed with, and
can overlap-add a block of frames into the slice of a longer signal that
they cover.
Overlap-add divides window position n by the sum of w_a^2 over every
window position congruent to n modulo the hop: an interior sample is
covered by exactly those positions, one per frame, so the round trip is
exact on the fully-overlapped interior for any hop whose sums are nonzero
(NOLA), whether or not the hop divides the window length.

`phase_ramp`, gains * exp(-j 2 pi k d / nfft) over the rfft bins k for
delays d in samples, is the one free-field phase model: the render, the
analytic RTF truth and the steering vectors call it. Bin k = a B + b splits
a ramp into coarse and fine factors, a complex multiply per entry, with B
the smallest power of two >= sqrt(nbins). The bins trail, (..., nbins):
the render writes contiguous rows into its one reused buffer.

WAV files are read and written here with `struct` and numpy, not scipy.io,
whose import would more than double the import time of rtfbeam.
`write_wav` writes little-endian RIFF float32: a `fmt ` chunk (tag 3,
cbSize 0), a `fact` chunk and a `data` chunk, the bytes that
scipy.io.wavfile.write writes. `read_wav` reads little-endian RIFF with
PCM16, PCM32, float32 or float64 samples, also under WAVE_FORMAT_EXTENSIBLE,
and skips any other chunk; anything else (8- or 24-bit PCM, A-law, RIFX,
RF64, a missing `fmt ` or `data` chunk, a truncated file) raises an
StftError that names the file. `read_wav_shape` checks a file by the same
header parser and its size, without reading a sample.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np


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

    def analysis_window(self) -> np.ndarray:
        return _make_window(self.window, self.window_len)

    def num_frames(self, num_samples: int) -> int:
        if num_samples < self.window_len:
            raise StftError("signal shorter than one analysis window")
        return 1 + (num_samples - self.window_len) // self.hop

    def frames(self, x: np.ndarray) -> np.ndarray:
        """Read-only (..., L, window_len) view of x's frames along its last axis."""
        self.num_frames(x.shape[-1])  # refuses a signal shorter than a window
        windows = np.lib.stride_tricks.sliding_window_view(x, self.window_len, axis=-1)
        return windows[..., :: self.hop, :]


def analyze(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """STFT of a (M, N) or (N,) real signal; returns (F, M, L) one-sided spectra."""
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    if x.ndim != 2:
        raise StftError("signal must be 1-D or 2-D (channels, samples)")
    if not np.all(np.isfinite(x)):
        raise StftError("signal contains non-finite samples")
    frames = config.frames(x)  # (M, L, W)
    window = config.analysis_window()
    spec = np.empty((config.num_bins, *frames.shape[:2]), dtype=np.complex128)
    # one mic's windowed frames at a time, in one reused (L, W) buffer; the
    # rfft writes each frame's spectrum straight into its (F, M, L) place
    windowed = np.empty(frames.shape[1:])
    for m, mic_frames in enumerate(frames):
        np.multiply(mic_frames, window, out=windowed)
        np.fft.rfft(windowed, axis=-1, out=spec[:, m].T)
    return spec


def phase_ramp(delays, nfft: int, gains=1.0, out: np.ndarray | None = None) -> np.ndarray:
    """gains * exp(-j 2 pi k d / nfft), (*delays.shape, nfft//2 + 1), into `out`
    if given. Elementwise in the delays: a delay alone gives the same ramp as
    within any batch. The delays are in samples, k runs over the rfft bins."""
    delays = np.asarray(delays, dtype=np.float64)
    nbins = nfft // 2 + 1
    block = 1 << ((nbins - 1).bit_length() + 1) // 2  # smallest 2^e >= sqrt(nbins)
    whole = nbins // block
    out = np.empty(delays.shape + (nbins,), dtype=np.complex128) if out is None else out
    step = -2j * np.pi / nfft * delays[..., None]
    fine = np.exp(step * np.arange(block)) * np.asarray(gains)[..., None]
    coarse = np.exp(step * np.arange(0, nbins, block))
    np.multiply(coarse[..., :whole, None], fine[..., None, :],
                out=out[..., : whole * block].reshape(delays.shape + (whole, block)))
    # the last, partial block
    np.multiply(coarse[..., whole:], fine[..., : nbins % block], out=out[..., whole * block :])
    return out


def synthesize(spec: np.ndarray, config: StftConfig,
               out: np.ndarray | None = None) -> np.ndarray:
    """Overlap-add inverse STFT of a single-channel (F, L) spectrum, its
    (L - 1) hop + window_len samples.

    The frames are added into `out` if given: for a block of frames, the
    slice of the whole signal that they cover, which holds the W - hop
    samples that earlier frames carried into it and zeros after them. Each
    sample then sums its frames in frame order, as in one call over all the
    frames; None starts from zeros."""
    if spec.ndim != 2 or spec.shape[0] != config.num_bins:
        raise StftError(f"synthesize expects a ({config.num_bins}, L) spectrum, "
                        f"got shape {spec.shape}")
    wlen, hop = config.window_len, config.hop
    num_frames = spec.shape[1]
    length = (num_frames - 1) * hop + wlen
    if out is None:
        out = np.zeros(length)
    elif out.shape != (length,):
        raise StftError(f"{num_frames} frames fill {length} samples, out holds {out.shape}")
    win = config.analysis_window()
    # the overlap-add envelope: sum of w^2 over the window positions of each
    # residue modulo the hop
    phase = np.arange(wlen) % hop
    norm = np.bincount(phase, weights=win**2, minlength=hop)[phase]
    if np.min(norm) < 1e-12:
        raise StftError("window/hop pair violates NOLA; cannot invert")
    syn_win = win / norm

    frames = np.fft.irfft(spec, n=wlen, axis=0)  # (W, L)
    frames *= syn_win[:, None]
    for l in range(num_frames):
        out[l * hop : l * hop + wlen] += frames[:, l]
    return out


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# the sub-format GUID of WAVE_FORMAT_EXTENSIBLE is the format tag followed
# by these 12 bytes
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_SAMPLE_TYPES = {(_PCM, 16): "<i2", (_PCM, 32): "<i4",
                 (_IEEE_FLOAT, 32): "<f4", (_IEEE_FLOAT, 64): "<f8"}


def _wav_header(fh, path, expected_rate: int | None) -> tuple[int, int, int, str, int]:
    """Parse the RIFF chunks of the open file `fh` up to its data chunk, which
    `fh` is left at; returns (rate, format tag, channels, sample dtype, data
    bytes). A data chunk the file is too short for is refused from the file
    size, so the samples need not be read to find it."""
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise StftError(f"{path}: no RIFF/WAVE header")
    fmt = None
    while True:
        chunk = fh.read(8)
        if len(chunk) < 8:
            raise StftError(f"{path}: no {'fmt ' if fmt is None else 'data'} chunk")
        size = struct.unpack("<I", chunk[4:])[0]
        if chunk[:4] == b"data":
            break
        if chunk[:4] == b"fmt ":
            fmt = fh.read(size)
            if size < 16 or len(fmt) < size:
                raise StftError(f"{path}: short fmt chunk")
        else:
            fh.seek(size, 1)
        fh.seek(size & 1, 1)  # chunks are padded to an even length
    if fmt is None:
        raise StftError(f"{path}: no fmt chunk before the data chunk")
    tag, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag == _EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _GUID_TAIL:
        tag = struct.unpack("<I", fmt[24:28])[0]
    dtype = _SAMPLE_TYPES.get((tag, bits))
    if dtype is None or channels == 0 or block_align != channels * bits // 8:
        raise StftError(f"{path}: unsupported sample format (tag {tag:#x}, "
                        f"{bits}-bit, {channels} channels)")
    present = max(os.fstat(fh.fileno()).st_size - fh.tell(), 0)
    if present < size:
        raise StftError(f"{path}: short data chunk ({present} of {size} bytes)")
    if size % block_align:
        raise StftError(f"{path}: data chunk of {size} bytes holds a partial "
                        f"{block_align}-byte frame")
    if expected_rate is not None and rate != expected_rate:
        raise StftError(f"{path}: sample rate {rate} != expected {expected_rate}")
    return rate, tag, channels, dtype, size


def read_wav_shape(path, expected_rate: int | None = None) -> tuple[int, tuple[int, int]]:
    """The sample rate and (channels, samples) of a WAV file, from its header
    and its size alone: the file is refused as `read_wav` refuses it, but
    no sample is read."""
    with open(path, "rb") as fh:
        rate, _, channels, dtype, size = _wav_header(fh, path, expected_rate)
    return rate, (channels, size // (channels * np.dtype(dtype).itemsize))


def read_wav(path, expected_rate: int | None = None) -> tuple[int, np.ndarray]:
    """Read a WAV file as C-contiguous float64 (channels, samples) in
    [-1, 1] scaling: each channel's samples are adjacent in memory, as
    `analyze` reads them."""
    with open(path, "rb") as fh:
        rate, tag, channels, dtype, size = _wav_header(fh, path, expected_rate)
        data = fh.read(size)
    # the file interleaves the channels, (samples, channels): one copy
    # converts and transposes
    samples = np.frombuffer(data, dtype=dtype).reshape(-1, channels)
    out = np.ascontiguousarray(samples.T, dtype=np.float64)
    if tag == _PCM:
        out /= float(1 << (8 * samples.itemsize - 1))
    return rate, out


def write_wav(path, rate: int, signal: np.ndarray) -> None:
    """Write (channels, samples) or (samples,) to a float32 WAV file (a path
    or a binary file object)."""
    x = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    channels, frames = x.shape
    samples = np.ascontiguousarray(x.T, dtype="<f4")  # interleaved
    header = b"".join([
        b"RIFF", struct.pack("<I", 50 + samples.nbytes), b"WAVE",
        b"fmt ", struct.pack("<IHHIIHHH", 18, _IEEE_FLOAT, channels, rate,
                             4 * channels * rate, 4 * channels, 32, 0),
        b"fact", struct.pack("<II", 4, frames),
        b"data", struct.pack("<I", samples.nbytes),
    ])
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples)
