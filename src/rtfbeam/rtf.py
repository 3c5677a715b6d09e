"""RTF estimation: batch covariance whitening and recursive PAST tracking.

Both paths produce reference-normalized steering vectors: the de-whitened
principal eigenvector divided by its entry at the reference microphone, so
the reference entry is exactly 1+0j wherever the estimate is valid.

The reference channel enters only at that final normalization, apart from
the PAST start vector e_ref. CW takes the principal vectors of the whitened
mixture covariance; PAST tracks them frame by frame with ``past_step``, one
O(M) recursion per bin. Both de-whiten in one batched product and then
normalize.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .covariance import HermitianMatrixField
from .stft import ComplexSpectrogram, StftConfig

DENOM_TOL = 1e-12
# flag a bin when the reference entry is this far below the vector norm:
# a valid RTF has |a_ref|/||a|| ~ 1/sqrt(M), so 0.1 only trips on estimates
# whose reference channel sits in the (near-)null of the de-whitened vector
REF_NULL_REL_TOL = 0.1
MSE_FLOOR_DB = -120.0
# chosen empirically on moving-speaker scenes: an effective memory of a few
# frames tracks DOA motion without inflating the estimate variance too much
DEFAULT_BETA = 0.7

_MAGIC = b"RTFB"
_VERSION = 1


class RtfError(ValueError):
    pass


class OpCounter:
    """Counts complex multiply-add operations for complexity checks."""

    def __init__(self):
        self.multiply_adds = 0

    def add(self, n: int):
        self.multiply_adds += n


def past_step(
    psi: np.ndarray,
    delta: np.ndarray,
    y: np.ndarray,
    beta: float,
    ops: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One PAST recursion step for every bin: psi (F, M), delta (F,), y (F, M).

    alpha = psi^H y;  delta <- beta*delta + |alpha|^2;
    e = y - psi*alpha;  psi <- psi + e * conj(alpha)/delta.
    Costs 3M+3 complex multiply-adds per bin, counted into `ops`.
    """
    alpha = np.einsum("km,km->k", psi.conj(), y)
    delta = beta * delta + np.abs(alpha) ** 2
    e = y - psi * alpha[:, None]
    psi = psi + e * (alpha.conj() / delta)[:, None]
    if ops is not None:
        nbins, m = psi.shape
        ops.add(nbins * (3 * m + 3))
    return psi, delta


@dataclass
class RtfTrajectory:
    """Per-bin, per-frame RTF estimates, shape (M, F, L), with validity mask."""

    values: np.ndarray  # complex (M, F, L)
    ref_channel: int
    side: str = "left"
    valid: np.ndarray = field(default=None)  # bool (F, L)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 3:
            raise RtfError("trajectory values must have shape (M, F, L)")
        if self.side not in ("left", "right"):
            raise RtfError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.valid is None:
            self.valid = np.ones(self.values.shape[1:], dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != self.values.shape[1:]:
                raise RtfError("valid mask shape must be (F, L)")


def _normalize_dewhitened(
    b: np.ndarray, ref: int
) -> tuple[np.ndarray, np.ndarray]:
    """Divide (..., M) de-whitened vectors by their reference entry.

    Returns (rtf, valid); invalid vectors get the trivial e_ref vector.
    """
    den = b[..., ref]
    norm = np.linalg.norm(b, axis=-1)
    valid = (np.abs(den) >= DENOM_TOL) & (np.abs(den) >= REF_NULL_REL_TOL * norm)
    a = b / np.where(valid, den, 1.0)[..., None]
    a[~valid] = 0.0
    a[..., ref] = 1.0  # exact, not just within rounding
    return a, valid


def _check_ref_channel(ref_channel: int, m: int) -> None:
    if not (0 <= ref_channel < m):
        raise RtfError(f"ref_channel {ref_channel} out of range [0, {m})")


def cw_trajectory(
    principal: np.ndarray,
    phi_nn_sqrt: HermitianMatrixField,
    ref_channel: int,
    num_frames: int,
    side: str = "left",
) -> RtfTrajectory:
    """Batch covariance-whitening RTF, broadcast over `num_frames` frames.

    `principal` (F, M) holds the principal eigenvectors psi of the whitened
    mixture covariance Phi_ww; a = (Phi_nn^{H/2} psi) / (e_ref^T Phi_nn^{H/2}
    psi). Bins whose reference entry vanishes are flagged invalid.
    """
    _check_ref_channel(ref_channel, principal.shape[1])
    b = (phi_nn_sqrt.matrices @ principal[:, :, None])[:, :, 0]
    a, valid = _normalize_dewhitened(b, ref_channel)
    values = np.repeat(a.T[:, :, None], num_frames, axis=2)
    mask = np.repeat(valid[:, None], num_frames, axis=1)
    mask[-1, :] = False  # Nyquist bin: real-signal STFT cannot carry RTF phase
    return RtfTrajectory(values, ref_channel, side, mask)


def track_rtf_past(
    spec_whitened: ComplexSpectrogram,
    phi_nn_sqrt: HermitianMatrixField,
    ref_channel: int,
    beta: float = DEFAULT_BETA,
    delta0: float = 1.0,
    start_frame: int = 0,
    side: str = "left",
) -> RtfTrajectory:
    """Run one PAST tracker per bin over the whitened frames, starting from
    psi = e_ref, and de-whiten every tracked eigenvector into a
    reference-normalized RTF.

    Frames before `start_frame` emit the trivial RTF and are flagged
    invalid. A bin whose normalization fails at frame l holds its last
    valid value (the trivial RTF if there is none yet) and is flagged
    invalid at (k, l). Causal: frame l depends only on frames <= l.
    """
    if not (0.0 < beta <= 1.0):
        raise RtfError(f"beta must be in (0, 1], got {beta}")
    if delta0 <= 0.0:
        raise RtfError("delta0 must be positive")
    m, nbins, nframes = spec_whitened.data.shape
    _check_ref_channel(ref_channel, m)
    frames = np.ascontiguousarray(spec_whitened.data.transpose(2, 1, 0))  # (L, F, M)
    if not np.all(np.isfinite(frames)):
        raise RtfError("non-finite whitened input to track_rtf_past")

    start = min(max(start_frame, 0), nframes)
    psi = np.zeros((nbins, m), dtype=np.complex128)
    psi[:, ref_channel] = 1.0
    delta = np.full(nbins, float(delta0))
    tracked = np.empty((nframes - start, nbins, m), dtype=np.complex128)
    for l in range(start, nframes):
        psi, delta = past_step(psi, delta, frames[l], beta)
        tracked[l - start] = psi

    # de-whiten every frame at once: b[k, l] = Phi_nn^{1/2}(k) psi[l, k]
    b = np.matmul(tracked.transpose(1, 0, 2), phi_nn_sqrt.matrices.transpose(0, 2, 1))
    a, ok = _normalize_dewhitened(b, ref_channel)  # (F, L', M), (F, L')
    # zero-order hold: each cell takes its bin's last valid frame; a bin with
    # none yet takes frame 0, which is then invalid and so already e_ref
    last = np.maximum.accumulate(np.where(ok, np.arange(nframes - start), -1), axis=1)
    a = np.take_along_axis(a, np.maximum(last, 0)[:, :, None], axis=1)

    values = np.zeros((m, nbins, nframes), dtype=np.complex128)
    values[ref_channel] = 1.0
    values[:, :, start:] = a.transpose(2, 0, 1)
    valid = np.zeros((nbins, nframes), dtype=bool)
    valid[:, start:] = ok
    valid[-1, :] = False  # Nyquist bin: real-signal STFT cannot carry RTF phase
    return RtfTrajectory(values, ref_channel, side, valid)


def rtf_mse(estimate: RtfTrajectory, truth: RtfTrajectory) -> float:
    """Normalized MSE in dB: mean over valid (k,l) of ||a_hat - a||^2/||a||^2."""
    if estimate.values.shape != truth.values.shape:
        raise RtfError("estimate/truth shape mismatch")
    if estimate.ref_channel != truth.ref_channel:
        raise RtfError("estimate/truth reference channels differ")
    norm2 = np.sum(np.abs(truth.values) ** 2, axis=0)  # (F, L)
    mask = estimate.valid & truth.valid & (norm2 > 0)
    if not np.any(mask):
        raise RtfError("no valid cells for MSE computation")
    err2 = np.sum(np.abs(estimate.values - truth.values) ** 2, axis=0)
    mse = np.mean(err2[mask] / norm2[mask])
    if mse <= 10.0 ** (MSE_FLOOR_DB / 10.0):
        return MSE_FLOOR_DB
    return float(10.0 * np.log10(mse))


def save_trajectory(fh, traj: RtfTrajectory, config: StftConfig) -> None:
    """Write to the binary file object `fh`. Layout (little endian): magic
    'RTFB', u32 version, u32 M, F, L, u32 ref_channel, u8 side (0=left,
    1=right), u32 sample_rate, window_len, hop; then F*L u8 validity mask,
    then (M, F, L) row-major complex64."""
    m, f, l = traj.values.shape
    header = _MAGIC + struct.pack(
        "<IIIIIBIII",
        _VERSION,
        m,
        f,
        l,
        traj.ref_channel,
        0 if traj.side == "left" else 1,
        config.sample_rate_hz,
        config.window_len,
        config.hop,
    )
    fh.write(header)
    fh.write(traj.valid.astype(np.uint8).tobytes())
    fh.write(traj.values.astype(np.complex64).tobytes())


def load_trajectory(path) -> tuple[RtfTrajectory, dict]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise RtfError(f"bad magic {magic!r} in trajectory file")
        fields = struct.unpack("<IIIIIBIII", fh.read(33))
        version, m, f, l, ref, side_code, rate, wlen, hop = fields
        if version != _VERSION:
            raise RtfError(f"unsupported trajectory version {version}")
        valid = np.frombuffer(fh.read(f * l), dtype=np.uint8).reshape(f, l).astype(bool)
        values = np.frombuffer(fh.read(m * f * l * 8), dtype=np.complex64)
        values = values.reshape(m, f, l).astype(np.complex128)
    side = "left" if side_code == 0 else "right"
    meta = {"sample_rate_hz": rate, "window_len": wlen, "hop": hop}
    return RtfTrajectory(values, ref, side, valid), meta
