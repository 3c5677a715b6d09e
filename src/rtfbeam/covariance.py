"""Per-bin Hermitian covariance estimation, EVD, matrix functions, whitening.

Every bin's eigendecomposition comes from one batched LAPACK call
(``np.linalg.eigh``) over the (F, M, M) field, re-sorted descending. Each
matrix function the pipeline needs is ``loaded_power`` of that one EVD:
V (Lambda + loading*mean|lambda|*I)^p V^H, with p = -1/2 for the whitener
Phi_nn^{-1/2}, +1/2 for its de-whitening inverse and -1 for the MVDR
inverse. Phi_nn is therefore decomposed once per bundle.

The per-bin products (the covariances, the whitened frames and the whitened
mixture covariance) are batched ``np.matmul`` over the bin-major (F, M, L)
spectrogram as it is stored, one BLAS call per product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import ComplexSpectrogram

DEFAULT_LOADING = 1e-6
HERMITIAN_TOL = 1e-12


class CovarianceError(ValueError):
    pass


@dataclass
class HermitianMatrixField:
    """One M x M Hermitian matrix per frequency bin, shape (F, M, M)."""

    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=np.complex128)
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise CovarianceError("field must have shape (F, M, M)")

    def hermitian_defect(self) -> float:
        return float(
            np.max(np.abs(self.matrices - self.matrices.conj().transpose(0, 2, 1)))
        )

    def check_hermitian(self) -> None:
        scale = max(1.0, float(np.max(np.abs(self.matrices))))
        defect = self.hermitian_defect()
        if defect > max(HERMITIAN_TOL * scale, 1e-9):
            raise CovarianceError(f"matrices not Hermitian (defect {defect:.3e})")


@dataclass
class EigenDecomposition:
    """Per-bin eigenpairs: eigenvalues (F, M) real descending,
    eigenvectors (F, M, M) with orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def principal_vectors(self) -> np.ndarray:
        """Principal eigenvector per bin, shape (F, M)."""
        return self.eigenvectors[:, :, 0]


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().transpose(0, 2, 1))


def _frame_outer_average(spec: ComplexSpectrogram, frames: slice) -> HermitianMatrixField:
    y = spec.data[:, :, frames]  # (F, M, Lsel)
    if y.shape[2] == 0:
        raise CovarianceError("empty frame range")
    phi = (y @ y.conj().transpose(0, 2, 1)) / y.shape[2]
    return HermitianMatrixField(_hermitize(phi))


def estimate_noise_covariance(
    spec: ComplexSpectrogram, noise_frames: int
) -> HermitianMatrixField:
    """Average outer products over the leading noise-only frames [0, L_n)."""
    if not (1 <= noise_frames <= spec.num_frames):
        raise CovarianceError(
            f"noise_frames {noise_frames} out of range [1, {spec.num_frames}]"
        )
    return _frame_outer_average(spec, slice(0, noise_frames))


def estimate_mixture_covariance(
    spec: ComplexSpectrogram, noise_frames: int
) -> HermitianMatrixField:
    """Average outer products over the speech-plus-noise frames [L_n, L)."""
    if not (0 <= noise_frames < spec.num_frames):
        raise CovarianceError(
            f"noise_frames {noise_frames} leaves no mixture frames "
            f"(L = {spec.num_frames})"
        )
    return _frame_outer_average(spec, slice(noise_frames, spec.num_frames))


def hermitian_evd(field: HermitianMatrixField) -> EigenDecomposition:
    """Batched LAPACK EVD of every matrix in the field.

    Eigenvalues sorted descending; eigenvector columns orthonormal.
    """
    field.check_hermitian()
    eigvals, v = np.linalg.eigh(_hermitize(field.matrices))  # ascending
    return EigenDecomposition(eigvals[:, ::-1].copy(), v[:, :, ::-1].copy())


def loaded_power(
    evd: EigenDecomposition, power: float, loading: float
) -> HermitianMatrixField:
    """V (Lambda + loading*mean|lambda|*I)^power V^H per bin.

    The one matrix function of the package: the whitener (power -1/2), its
    de-whitening inverse (+1/2) and the MVDR inverse (-1) differ only in
    power and loading. The loaded eigenvalues must be positive.
    """
    mean_mag = np.mean(np.abs(evd.eigenvalues), axis=1, keepdims=True)
    lam = evd.eigenvalues + loading * mean_mag
    if loading < 0 or np.any(lam <= 0):
        raise CovarianceError(
            f"non-positive eigenvalue after loading {loading}; loading must be "
            ">= 0, raise it or use more noise frames"
        )
    v = evd.eigenvectors
    out = (v * lam[:, None, :] ** power) @ v.conj().transpose(0, 2, 1)
    return HermitianMatrixField(_hermitize(out))


def sqrt_pair(
    evd: EigenDecomposition, loading: float = DEFAULT_LOADING
) -> tuple[HermitianMatrixField, HermitianMatrixField]:
    """(Phi^{1/2}, Phi^{-1/2}) from one EVD with identical loading."""
    return loaded_power(evd, 0.5, loading), loaded_power(evd, -0.5, loading)


def whiten(spec: ComplexSpectrogram, w: HermitianMatrixField) -> ComplexSpectrogram:
    """Apply the per-bin whitening matrix: y_w(l,k) = W(k) y(l,k); the
    result's data is a contiguous (F, M, L) array."""
    if w.matrices.shape[:2] != spec.data.shape[:2]:  # both lead with (F, M)
        raise CovarianceError(
            f"whitener shape {w.matrices.shape} does not match spectrogram {spec.data.shape}"
        )
    return ComplexSpectrogram(w.matrices @ spec.data, spec.config)


def whitened_mixture_covariance(
    phi_yy: HermitianMatrixField, phi_nn_invsqrt: HermitianMatrixField
) -> HermitianMatrixField:
    """Phi_ww = Phi_nn^{-1/2} Phi_yy Phi_nn^{-H/2}."""
    w = phi_nn_invsqrt.matrices
    out = w @ phi_yy.matrices @ w.conj().transpose(0, 2, 1)
    return HermitianMatrixField(_hermitize(out))
