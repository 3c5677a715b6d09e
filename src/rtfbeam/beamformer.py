"""RTF-guided MVDR weights, filter-and-sum application, and beampatterns.

The MVDR beamformer here is a classical distortionless design steered by
the RTF trajectory: w = Phi_nn^{-1} a / (a^H Phi_nn^{-1} a), with Phi_nn^{-1}
taken from the `covariance.hermitian_evd` result of Phi_nn. Beampatterns
are evaluated against far-field plane-wave steering vectors on the caller's
broadside angle grid; the wideband pattern is a plain (T, L') ndarray over
those T angles. The weights w(l,k) are a plain complex (F, M, L') ndarray,
bin-major like the RTF trajectory, with L' = L or 1 for weights that hold
in every frame; they are applied as s = w^H y. `mvdr_weights` can write
them over the trajectory's own buffer, and weight a trajectory a block of
frames at a time, its zero-order hold carried from block to block in a
`WeightHold`.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from .covariance import by_bins, loaded_power
from .rtf import RtfTrajectory
from .stft import StftConfig, phase_ramp

SPEED_OF_SOUND = 343.0
# heavier loading than the covariance-whitening default: the MVDR inverse is
# otherwise dominated by the smallest sample eigenvalues of a 30-frame
# covariance, which makes the weights hypersensitive to small RTF errors
MVDR_LOADING = 0.1


class BeamformerError(ValueError):
    pass


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b per (k, l) of two (F, M, L) arrays, over the channel axis."""
    return np.einsum("kml,kml->kl", a.conj(), b)


class WeightHold:
    """The zero-order hold of `mvdr_weights` across the frame blocks of one
    trajectory: each bin's weights at the last frame so far (the reference
    passthrough before its first valid frame), and whether it has had a
    valid frame. It also keeps the loaded inverse of Phi_nn, made at the
    first block: a trajectory's blocks are weighted with one Phi_nn and one
    loading."""

    def __init__(self, nbins: int, num_mics: int, ref_channel: int):
        self.weights = np.zeros((nbins, num_mics), dtype=np.complex128)
        self.weights[:, ref_channel] = 1.0
        self.live = np.zeros(nbins, dtype=bool)
        self.inverse = None

    def warn_dead_bins(self) -> None:
        """Warn of the bins that had no valid frame, the Nyquist bin (invalid
        by design) aside: their weights are the reference passthrough."""
        dead = int(np.sum(~self.live[:-1]))
        if dead:
            warnings.warn(f"{dead} bins have no valid RTF; using reference passthrough weights")


def mvdr_weights(
    rtf: RtfTrajectory,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    loading: float = MVDR_LOADING,
    out: np.ndarray | None = None,
    hold: WeightHold | None = None,
) -> np.ndarray:
    """Distortionless MVDR weights per (k, l): w = Phi^{-1}a / (a^H Phi^{-1}a).

    Phi^{-1} is the loaded inverse from `phi_nn_evd`, the `hermitian_evd`
    result of the noise covariance. Invalid RTF cells, which hold e_ref
    (`rtf._trajectory`), reuse the previous frame's weights; a bin with no
    valid cell so far falls back to reference-channel passthrough. This is
    the package's only zero-order hold, and the weights do not depend on
    the values of invalid cells. A one-frame trajectory gives one-frame
    weights: one solve per bin.

    `hold` carries the hold, and the loaded inverse, from the frames before
    these, a block of a trajectory, and takes their last frame's weights;
    its caller warns of the dead bins after the last block. None holds nothing before the first
    frame and warns here, once per trajectory, of the bins with no valid
    cell, the Nyquist bin (invalid by design) aside.

    The weights go into `out`, an (F, M, L') array that may be the
    trajectory's own values, which they then replace, or a new array if
    None: a block of bins is solved from its RTFs before its weights are
    stored (`by_bins`), so no whole (F, M, L') product is held beside them.
    """
    nbins, m, nframes = rtf.values.shape
    if phi_nn_evd.eigenvalues.shape != (nbins, m):
        raise BeamformerError("noise covariance shape does not match RTF")
    whole = hold is None
    if whole:
        hold = WeightHold(nbins, m, rtf.ref_channel)
    if hold.inverse is None:
        hold.inverse = loaded_power(phi_nn_evd, -1.0, loading)

    def solve(inv, a, den):  # Phi^{-1} a, and a^H Phi^{-1} a into `den`
        num = inv @ a
        den[:] = _inner(a, num).real
        return num

    den = np.empty((nbins, nframes))
    num = np.empty((nbins, m, nframes), dtype=np.complex128) if out is None else out
    by_bins(solve, hold.inverse, rtf.values, den, out=num)
    ok = rtf.valid & (den > 1e-300)
    num /= np.where(ok, den, 1.0)[:, None]
    # zero-order hold: each invalid cell takes the weights of its bin's last
    # valid frame, or the held ones where there is none in these frames
    last = np.maximum.accumulate(np.where(ok, np.arange(nframes), -1), axis=1)
    k, l = np.nonzero(~ok & (last >= 0))
    num[k, :, l] = num[k, :, last[k, l]]
    k, l = np.nonzero(last < 0)
    num[k, :, l] = hold.weights[k]
    hold.weights[:] = num[:, :, -1]
    hold.live |= np.any(ok, axis=1)
    if whole:
        hold.warn_dead_bins()
    return num


def apply(weights: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Filter-and-sum of the (F, M, L) STFT: s_hat(l,k) = w^H(l,k) y(l,k),
    an (F, L) spectrum; weights with one frame apply to every frame."""
    if weights.ndim != 3:
        raise BeamformerError(f"weights must have shape (F, M, L), got {weights.shape}")
    nbins, m, nframes = weights.shape
    if (spec.ndim != 3 or (nbins, m) != spec.shape[:2]
            or nframes not in (1, spec.shape[2])):
        raise BeamformerError(f"weights shape {weights.shape} != STFT {spec.shape}")
    return by_bins(_inner, weights, spec, out=np.empty((nbins, spec.shape[2]), complex))


def narrowband_beampattern(
    weights: np.ndarray,
    positions_m: np.ndarray,
    config: StftConfig,
    angles_deg: np.ndarray,
    sink: Callable[[np.ndarray], None],
) -> np.ndarray:
    """|B(k, theta, l)| = |w^H(k,l) h(k, theta)| over the T angles of
    `angles_deg`, one bin at a time, and the wideband P(theta, l) =
    sum_k |B|^2, the (T, L') array returned.

    Each bin's float64 |B|, shape (T, L'), is handed to `sink` in bin order,
    in one buffer that the next bin overwrites: the (F, T, L') grid is never
    held.
    """
    angles_deg = np.asarray(angles_deg, dtype=np.float64)
    x = np.asarray(positions_m, dtype=np.float64)
    if weights.ndim != 3:
        raise BeamformerError(f"weights must have shape (F, M, L), got {weights.shape}")
    nbins, m, nframes = weights.shape
    if x.shape != (m,):
        raise BeamformerError("geometry length must equal channel count")
    if nbins != config.num_bins:
        raise BeamformerError(f"weights have {nbins} bins, config {config.num_bins}")

    tau = (x - x[0])[None, :] * np.sin(np.deg2rad(angles_deg))[:, None]  # (T, M) m
    h = np.empty((nbins, *tau.shape), dtype=np.complex128)  # (F, T, M)
    phase_ramp(tau / SPEED_OF_SOUND * config.sample_rate_hz, config.window_len,
               out=h.transpose(1, 2, 0))
    b = np.empty((angles_deg.size, nframes))
    wide = np.zeros((angles_deg.size, nframes))
    for k in range(nbins):
        np.abs(h[k] @ weights[k].conj(), out=b)
        wide += b ** 2
        sink(b)
    return wide
