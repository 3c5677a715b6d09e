"""Objective evaluation: SI-SDR and DOA tracking error."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .simulator import GroundTruth

SI_SDR_CLAMP_DB = 120.0
FLAT_PATTERN_RATIO = 1.01


class MetricsError(ValueError):
    pass


@dataclass
class EvalReport:
    scenario_id: str
    snr_db: float
    method: str
    si_sdr_left: float = float("nan")
    si_sdr_right: float = float("nan")
    si_sdr_input_left: float = float("nan")
    si_sdr_input_right: float = float("nan")
    rtf_mse_db: float = float("nan")
    # side -> enhanced time signal, (N',); not part of the CSV row or repr
    enhanced: dict = field(default_factory=dict, repr=False, compare=False)

    def csv_row(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "enhanced"}


def si_sdr(est: np.ndarray, ref: np.ndarray) -> float:
    """Scale-invariant SDR in dB, clamped to +/- 120 dB.

    Projects the estimate onto the reference, then takes the energy ratio
    of the projection to the residual. The score depends on the values
    alone: the products are einsum sums (OpenBLAS splits a dot product over
    its threads) of contiguous copies (einsum sums a strided operand, such as
    a row of a loaded bundle's transposed WAV data, in another order).
    """
    est = np.ascontiguousarray(est, dtype=np.float64)
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    if est.shape != ref.shape:
        raise MetricsError("est and ref must have equal length")
    ref_energy = float(np.einsum("i,i->", ref, ref))
    if ref_energy <= 0:
        raise MetricsError("all-zero reference")
    scale = float(np.einsum("i,i->", est, ref)) / ref_energy
    buf = scale * ref  # the target, then the error, in one buffer
    p_target = float(np.einsum("i,i->", buf, buf))
    np.subtract(est, buf, out=buf)
    p_err = float(np.einsum("i,i->", buf, buf))
    if p_target <= 0:
        return -SI_SDR_CLAMP_DB
    if p_err <= p_target * 10.0 ** (-SI_SDR_CLAMP_DB / 10.0):
        return SI_SDR_CLAMP_DB
    return float(np.clip(10.0 * np.log10(p_target / p_err), -SI_SDR_CLAMP_DB, SI_SDR_CLAMP_DB))


def doa_error(
    angles_deg: np.ndarray, wideband: np.ndarray, truth: GroundTruth
) -> tuple[np.ndarray, float, int]:
    """Per-frame |argmax_theta P(theta,l) - doa_true(l)| over active frames,
    for the (T, L) wideband power P over the (T,) grid `angles_deg`.

    Returns (per-frame errors with NaN for excluded frames, mean over
    included frames, number of excluded flat/inactive frames).
    """
    if truth.doa_per_frame.shape[0] != wideband.shape[1]:
        raise MetricsError("frame counts of beampower and ground truth differ")
    flat = wideband.max(axis=0) / np.maximum(wideband.min(axis=0), 1e-300) < FLAT_PATTERN_RATIO
    included = truth.active_frames & ~flat
    if not np.any(included):
        raise MetricsError("no frames available for DOA error")
    diff = np.abs(angles_deg[np.argmax(wideband, axis=0)] - truth.doa_per_frame) % 360.0
    errors = np.where(included, np.minimum(diff, 360.0 - diff), np.nan)
    return errors, float(np.mean(errors[included])), int(np.sum(~included))
