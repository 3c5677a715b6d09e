"""RTF estimation: batch covariance whitening and recursive PAST tracking.

CW takes the principal vectors of the whitened mixture covariance once per
bin; PAST tracks them frame by frame with ``past_step``, one O(M) recursion
per bin. Both de-whiten their vectors per bin in one product and end in one
in-place finisher, ``_trajectory``: it divides each de-whitened vector by its
entry at the reference microphone, so the reference entry is exactly 1+0j,
and flags a cell invalid where that entry falls into the null of the vector,
before the tracker's start frame, or in the Nyquist bin. Every invalid cell
holds the trivial RTF e_ref; no estimator carries an earlier value forward,
as the MVDR weights hold their own (``beamformer.mvdr_weights``).

PAST reads the frame-major whitened frames of ``covariance.whiten`` and
tracks into one frame-major (L, F, M) buffer, one row per frame, which it
de-whitens and finishes in place: its values are the (F, M, L) view of that
buffer, so one side's tracking holds one buffer and copies no frame. The
frames may come a block at a time: a ``PastState`` carries the recursion's
(psi, delta) and the frame count from each block to the next, and the
de-whitening runs over groups of frames aligned from the first tracked
frame, so a trajectory tracked in blocks has the bits of one tracked whole.
Its RTF MSE then takes each block's ``mse_terms`` and reduces them once,
in ``rtf_mse`` of the last block.

Trajectories are indexed bin-major, (F, M, L'), like the (F, M, L) STFT.
One whose RTF does not change over frames (CW, and the trivial 'none'
trajectory) keeps a frame axis of length L' = 1 instead of L copies of one
frame, and so does the analytic truth of a static scene. Every consumer
broadcasts that axis as numpy does: the MVDR weights are then solved once
per bin, and `rtf_mse` broadcasts either side, a one-frame estimate against
every frame of the truth or a one-frame truth under every frame of the
estimate.

The reference channel enters only at that normalization, apart from the
PAST start vector e_ref, and it is the trajectory's only side label.
`reference_mics` is the one rule from a side to its reference mic: the left
ear is mic 0, the right mic M-1. The ``.rtfb`` file stays (M, F, L) and
writes the side as a byte, 0 for ref_channel 0 and 1 for any other; only
`save_trajectory` and `load_trajectory` convert; `load_trajectory` reads
all frames or a block of them. `read_trajectory_header` checks a file by
its header and its size alone, with the parser that `load_trajectory` uses.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .covariance import PRODUCT_ALIGN, by_bins
from .stft import StftConfig

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
_HEADER = struct.Struct("<4sIIIIIBIII")
# the two ears, in the order of the .rtfb side byte
SIDES = ("left", "right")


class RtfError(ValueError):
    pass


def reference_mics(num_mics: int) -> dict[str, int]:
    """The reference mic of each side of an M-mic array, keyed by SIDES: the
    left ear is mic 0, the right mic M-1."""
    return dict(zip(SIDES, (0, num_mics - 1)))


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
    """Per-bin, per-frame RTF estimates, shape (F, M, L'), with validity mask.

    L' is the frame count L, or 1 for an RTF that is the same in every
    frame; the one frame then stands for all L of them.
    """

    values: np.ndarray  # complex (F, M, L')
    ref_channel: int
    valid: np.ndarray = field(default=None)  # bool (F, L')

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 3:
            raise RtfError("trajectory values must have shape (F, M, L)")
        nbins, _, nframes = self.values.shape
        if self.valid is None:
            self.valid = np.ones((nbins, nframes), dtype=bool)
        else:
            self.valid = np.asarray(self.valid, dtype=bool)
            if self.valid.shape != (nbins, nframes):
                raise RtfError("valid mask shape must be (F, L)")


def _trajectory(values: np.ndarray, ref: int, start: int) -> RtfTrajectory:
    """Finish de-whitened principal vectors in place into the
    reference-normalized (F, M, L') trajectory of either estimator. `values`
    holds them in frames start..L'-1: one vector per frame (PAST), or one
    vector per bin for the one frame of a frame-invariant (CW) trajectory;
    what it holds before `start` is overwritten.

    A cell is valid where its reference entry is clear of the null, from
    `start` on and outside the Nyquist bin; every other cell holds e_ref.
    """
    nbins, _, nframes = values.shape
    b = values[:, :, start:]
    den = b[:, ref].copy()  # b is divided in place
    mag = np.abs(den)
    ok = (mag >= DENOM_TOL) & (mag >= REF_NULL_REL_TOL * np.sqrt(_norm2(b)))
    ok[-1] = False  # Nyquist bin: real-signal STFT cannot carry RTF phase
    np.divide(b, den[:, None], out=b, where=ok[:, None])
    np.copyto(b, 0, where=~ok[:, None])
    values[:, :, :start] = 0
    values[:, ref] = 1.0  # exact, not just within rounding
    valid = np.zeros((nbins, nframes), dtype=bool)
    valid[:, start:] = ok
    return RtfTrajectory(values, ref, valid)


def _check_ref_channel(ref_channel: int, m: int) -> None:
    if not (0 <= ref_channel < m):
        raise RtfError(f"ref_channel {ref_channel} out of range [0, {m})")


def cw_trajectory(
    principal: np.ndarray,
    phi_nn_sqrt: np.ndarray,
    ref_channel: int,
) -> RtfTrajectory:
    """Batch covariance-whitening RTF: one frame, valid for every frame.

    `principal` (F, M) holds the principal eigenvectors psi of the whitened
    mixture covariance Phi_ww; a = (Phi_nn^{H/2} psi) / (e_ref^T Phi_nn^{H/2}
    psi), finished by `_trajectory`.
    """
    _check_ref_channel(ref_channel, principal.shape[1])
    return _trajectory(phi_nn_sqrt @ principal[:, :, None], ref_channel, 0)


class PastState:
    """What one side's PAST tracker carries from a block of frames to the
    next: psi (F, M) and delta (F,), from psi = e_ref and delta = 1, and
    `frame`, the number of the trajectory's `num_frames` frames given so
    far. `track_rtf_past` advances it over each block, so a trajectory
    tracked a block at a time is, bit for bit, the trajectory tracked
    whole."""

    def __init__(self, nbins: int, num_mics: int, ref_channel: int, num_frames: int):
        self.psi = np.zeros((nbins, num_mics), dtype=np.complex128)
        self.psi[:, ref_channel] = 1.0
        self.delta = np.ones(nbins)
        self.frame = 0
        self.num_frames = num_frames


def _dewhiten(phi_nn_sqrt: np.ndarray, values: np.ndarray, first: int, total: int) -> None:
    """b = Phi_nn^{1/2} psi in place over the (F, M, n) `values`, the
    tracked frames first..first + n - 1 of a trajectory's `total` tracked
    frames. The product runs from a multiple of `PRODUCT_ALIGN` frames
    counted from the first tracked frame to one or to the last, with zeros
    for the frames that are not in `values`, so every frame has the bits of
    one product over all tracked frames."""
    n = values.shape[2]
    before = first % PRODUCT_ALIGN
    after = min(-(-(first + n) // PRODUCT_ALIGN) * PRODUCT_ALIGN, total) - first - n

    def product(sqrt, psi):
        if before == after == 0:
            return sqrt @ psi
        padded = np.zeros((*psi.shape[:2], before + n + after), dtype=psi.dtype)
        padded[:, :, before:before + n] = psi
        return (sqrt @ padded)[:, :, before:before + n]

    by_bins(product, phi_nn_sqrt, values, out=values)


def track_rtf_past(
    spec_whitened: np.ndarray,
    phi_nn_sqrt: np.ndarray,
    ref_channel: int,
    beta: float = DEFAULT_BETA,
    start_frame: int = 0,
    state: PastState | None = None,
    out: np.ndarray | None = None,
) -> RtfTrajectory:
    """Run one PAST tracker per bin over the whitened frames from
    `start_frame` on, and de-whiten every tracked eigenvector into a
    reference-normalized RTF with `_trajectory`.

    The frames are the next block of the trajectory of `state`, which the
    tracker starts from and leaves after their last frame; None takes them
    as a whole trajectory, from psi = e_ref and delta = 1. `start_frame`
    counts from the trajectory's first frame. The values go into `out`, an
    (F, M, L) array like `spec_whitened`, or a new one if None; `out` may be
    `spec_whitened` itself, whose frames are then used up as they are
    tracked (each is read before its row is written).

    Causal: frame l depends only on frames <= l. Frames before
    `start_frame`, and cells whose normalization fails, are invalid and hold
    e_ref; no value of an earlier frame is carried over.
    """
    if not (0.0 < beta <= 1.0):
        raise RtfError(f"beta must be in (0, 1], got {beta}")
    nbins, m, nframes = spec_whitened.shape
    _check_ref_channel(ref_channel, m)
    if out is not None and out.shape != spec_whitened.shape:
        raise RtfError(f"out has shape {out.shape}, the frames {spec_whitened.shape}")
    state = PastState(nbins, m, ref_channel, nframes) if state is None else state
    if state.frame + nframes > state.num_frames:
        raise RtfError(f"{nframes} frames after frame {state.frame} overrun a trajectory "
                       f"of {state.num_frames}")
    # one contiguous (F, M) block per step of the recursion: `covariance.whiten`
    # stores its frames so, and only another layout is copied
    frames = np.ascontiguousarray(spec_whitened.transpose(2, 0, 1))  # (L, F, M)
    if not np.all(np.isfinite(frames)):
        raise RtfError("non-finite whitened input to track_rtf_past")

    first = min(max(start_frame, 0), state.num_frames)  # of the trajectory
    start = min(max(first - state.frame, 0), nframes)  # of these frames
    psi, delta = state.psi, state.delta
    # one row per frame; the trajectory's values are the (F, M, L) view of it
    tracked = (np.empty((nframes, nbins, m), dtype=np.complex128) if out is None
               else out.transpose(2, 0, 1))
    for l in range(start, nframes):
        psi, delta = past_step(psi, delta, frames[l], beta)
        tracked[l] = psi
    state.psi, state.delta = psi, delta

    values = tracked.transpose(1, 2, 0)
    _dewhiten(phi_nn_sqrt, values[:, :, start:], state.frame + start - first,
              state.num_frames - first)
    state.frame += nframes
    return _trajectory(values, ref_channel, start)


def _norm2(values: np.ndarray) -> np.ndarray:
    """Squared norm over the channel axis of complex (F, M, L) values,
    summed from the real and imaginary views with no (F, M, L) temporary."""
    real, imag = values.real, values.imag
    return np.einsum("kml,kml->kl", real, real) + np.einsum("kml,kml->kl", imag, imag)


def mse_terms(estimate: RtfTrajectory, truth: RtfTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """The normalized error ||a_hat - a||^2 / ||a||^2 of every (k, l) cell,
    and the mask of the cells `rtf_mse` averages: valid on both sides, with
    a nonzero truth. Both are (F, L''), L'' the longer frame count; a cell
    outside the mask keeps its error unnormalized. A block of frames gives
    the terms of its cells, so the terms of a trajectory's blocks, side by
    side, are its own.

    A side with one frame is broadcast over the other's frames: a one-frame
    estimate is scored against every frame of the truth, and every frame of
    the estimate against a one-frame truth.
    """
    est, true = estimate.values.shape, truth.values.shape
    if est[:2] != true[:2] or (est[2] != true[2] and 1 not in (est[2], true[2])):
        raise RtfError("estimate/truth shape mismatch")
    if estimate.ref_channel != truth.ref_channel:
        raise RtfError("estimate/truth reference channels differ")
    norm2 = _norm2(truth.values)  # (F, L')
    mask = estimate.valid & truth.valid & (norm2 > 0)
    # ||a_hat - a||^2 a block of bins at a time: no (F, M, L) difference
    err2 = by_bins(lambda a_hat, a: _norm2(a_hat - a), estimate.values, truth.values,
                   out=np.empty(mask.shape))
    return np.divide(err2, norm2, out=err2, where=mask), mask


def rtf_mse(estimate: RtfTrajectory, truth: RtfTrajectory, earlier=()) -> float:
    """Normalized MSE in dB: mean over valid (k,l) of ||a_hat - a||^2/||a||^2,
    over the cells of `mse_terms`, in row-major order.

    A trajectory scored a block of frames at a time passes its last block,
    and in `earlier` the `mse_terms` of the blocks before it: the mean is
    then over all of them, with the bits of the mean over the whole.
    """
    ratio, mask = (np.concatenate(part, axis=1)
                   for part in zip(*earlier, mse_terms(estimate, truth)))
    if not np.any(mask):
        raise RtfError("no valid cells for MSE computation")
    mse = np.mean(ratio[mask])
    if mse <= 10.0 ** (MSE_FLOOR_DB / 10.0):
        return MSE_FLOOR_DB
    return float(10.0 * np.log10(mse))


def save_trajectory(fh, traj: RtfTrajectory, config: StftConfig) -> None:
    """Write to the binary file object `fh`. Layout (little endian): magic
    'RTFB', u32 version, u32 M, F, L, u32 ref_channel, u8 side (0=left for
    ref_channel 0, else 1=right), u32 sample_rate, window_len, hop; then
    F*L u8 validity mask, then (M, F, L) row-major complex64, converted
    here from the (F, M, L) values; both arrays are written as C-contiguous
    buffers, with no bytes copy."""
    f, m, l = traj.values.shape
    fh.write(_HEADER.pack(
        _MAGIC, _VERSION, m, f, l, traj.ref_channel, int(traj.ref_channel != 0),
        config.sample_rate_hz, config.window_len, config.hop,
    ))
    fh.write(traj.valid.astype(np.uint8, order="C"))
    fh.write(traj.values.transpose(1, 0, 2).astype(np.complex64, order="C"))


@dataclass(frozen=True)
class TrajectoryHeader:
    """What a `save_trajectory` file says of itself: its (F, M, L) shape,
    reference channel and the STFT it was written with."""

    shape: tuple[int, int, int]
    ref_channel: int
    stft: dict  # sample_rate_hz, window_len, hop


def _read_header(fh, path) -> TrajectoryHeader:
    """Parse the header of the open `.rtfb` file `fh`, leaving `fh` at its
    mask, and check the file's size against it; a short, long or
    inconsistent file raises RtfError naming `path`."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise RtfError(f"{path}: {size} bytes, shorter than the header")
    magic, version, m, f, l, ref, side_code, rate, wlen, hop = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise RtfError(f"{path}: bad magic {magic!r} in trajectory file")
    if version != _VERSION:
        raise RtfError(f"{path}: unsupported trajectory version {version}")
    if not (ref < m and side_code == int(ref != 0)):
        raise RtfError(f"{path}: side byte {side_code} does not match ref_channel {ref} of M={m}")
    expected = _HEADER.size + f * l + 8 * m * f * l
    if size != expected:
        raise RtfError(f"{path}: {size} bytes, expected {expected} for M={m}, F={f}, L={l}")
    return TrajectoryHeader((f, m, l), ref,
                            {"sample_rate_hz": rate, "window_len": wlen, "hop": hop})


def read_trajectory_header(path) -> TrajectoryHeader:
    """The header of a `save_trajectory` file, checked as `load_trajectory`
    checks it, size included, without reading its mask or values."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_trajectory(path, frames: slice = slice(None)) -> tuple[RtfTrajectory, dict]:
    """Read the frames `frames` (all by default) of a `save_trajectory`
    file; a short, long or inconsistent one raises RtfError naming `path`.
    The complex64 values are read one mic's (F, L) rows at a time, and the
    frames' columns upcast into the (F, M, L) complex128 array, exactly: the
    file's bytes are never held whole beside it."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        f, m, l = header.shape
        valid = np.frombuffer(fh.read(f * l), np.uint8).reshape(f, l)[:, frames].astype(bool)
        values = np.empty((f, m, valid.shape[1]), dtype=np.complex128)
        row = np.empty((f, l), dtype=np.complex64)
        for mic in range(m):
            if fh.readinto(row.view(np.uint8)) != row.nbytes:
                raise RtfError(f"{path}: cut short while it was read")
            values[:, mic] = row[:, frames]
    return RtfTrajectory(values, header.ref_channel, valid), header.stft
