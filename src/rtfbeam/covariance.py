"""Per-bin Hermitian covariance estimation, EVD, matrix functions, whitening.

A per-bin matrix is a plain complex (F, M, M) ndarray, one M x M matrix per
frequency bin k at ``phi[k]``: every function here takes and returns that
array. Every bin's eigendecomposition comes from one batched LAPACK call
(``np.linalg.eigh``) over the (F, M, M) array. ``hermitian_evd`` checks
the shape and the Hermitian defect first, and returns numpy's own result,
its columns reversed as views into descending order. Each matrix function
the pipeline needs is ``loaded_power`` of that one EVD: V (Lambda +
loading*mean|lambda|*I)^p V^H, with p = -1/2 for the whitener Phi_nn^{-1/2},
+1/2 for its de-whitening inverse and -1 for the MVDR inverse. Phi_nn is
therefore decomposed once per bundle.

The per-bin products are batched ``np.matmul`` over the bin-major complex
(F, M, L) STFT array as `stft.analyze` returns it. The covariances y y^H
and ``whiten`` take theirs ``by_bins``: a block of bins at a time, with the
bits of one batched product, so that only one block of the conjugated
frames is ever held, and ``whiten`` can store its frames frame-major,
(L, F, M), for the PAST recursion.
"""

from __future__ import annotations

import numpy as np

DEFAULT_LOADING = 1e-6
HERMITIAN_TOL = 1e-12
# bins per block of `by_bins`: a (32, 8, 249) complex128 block is 1 MB
_BIN_CHUNK = 32
# BLAS sums the trailing columns of a product whose count is not a multiple
# of its unroll (4, 8 or 16) in another order than the rest. A product over
# a block of columns that starts on a multiple of this many columns of the
# whole, and ends on one or at the end of the whole, has the bits of those
# columns of one product over the whole
PRODUCT_ALIGN = 32


class CovarianceError(ValueError):
    pass


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().transpose(0, 2, 1))


def _frame_outer_average(spec: np.ndarray, frames: slice) -> np.ndarray:
    y = spec[:, :, frames]  # (F, M, Lsel)
    nbins, m, count = y.shape
    if count == 0:
        raise CovarianceError("empty frame range")
    # y y^H a block of bins at a time: no conjugated copy of the frames
    outer = by_bins(lambda b: b @ b.conj().transpose(0, 2, 1), y,
                    out=np.empty((nbins, m, m), dtype=np.result_type(y, 1.0)))
    outer /= count
    return _hermitize(outer)


def estimate_noise_covariance(spec: np.ndarray, noise_frames: int) -> np.ndarray:
    """Average the (F, M, L) STFT's outer products over the leading
    noise-only frames [0, L_n)."""
    if not (1 <= noise_frames <= spec.shape[2]):
        raise CovarianceError(
            f"noise_frames {noise_frames} out of range [1, {spec.shape[2]}]"
        )
    return _frame_outer_average(spec, slice(0, noise_frames))


def estimate_mixture_covariance(spec: np.ndarray, noise_frames: int) -> np.ndarray:
    """Average the (F, M, L) STFT's outer products over the speech-plus-noise
    frames [L_n, L)."""
    if not (0 <= noise_frames < spec.shape[2]):
        raise CovarianceError(
            f"noise_frames {noise_frames} leaves no mixture frames "
            f"(L = {spec.shape[2]})"
        )
    return _frame_outer_average(spec, slice(noise_frames, None))


def hermitian_evd(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched LAPACK EVD of every matrix of the (F, M, M) array `phi`.

    Returns numpy's `eigh` result, the named pair `eigenvalues` (F, M),
    real, and `eigenvectors` (F, M, M), orthonormal columns, both sorted
    descending: the principal vector of bin k is `eigenvectors[k, :, 0]`.

    A matrix whose Hermitian defect exceeds HERMITIAN_TOL of its largest
    entry (at least 1e-9) raises CovarianceError.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
        raise CovarianceError(f"matrices must have shape (F, M, M), got {phi.shape}")
    scale = max(1.0, float(np.max(np.abs(phi))))
    defect = float(np.max(np.abs(phi - phi.conj().transpose(0, 2, 1))))
    if defect > max(HERMITIAN_TOL * scale, 1e-9):
        raise CovarianceError(f"matrices not Hermitian (defect {defect:.3e})")
    res = np.linalg.eigh(_hermitize(phi))  # ascending
    # reversed as views, no copy: loaded_power sums over the eigenpairs in
    # this order, which fixes the last bits of every matrix function
    return res._replace(eigenvalues=res.eigenvalues[:, ::-1],
                        eigenvectors=res.eigenvectors[:, :, ::-1])


def loaded_power(
    evd: tuple[np.ndarray, np.ndarray], power: float, loading: float
) -> np.ndarray:
    """V (Lambda + loading*mean|lambda|*I)^power V^H per bin, from the
    `hermitian_evd` result `evd`.

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
    return _hermitize((v * lam[:, None, :] ** power) @ v.conj().transpose(0, 2, 1))


def sqrt_pair(
    evd: tuple[np.ndarray, np.ndarray], loading: float = DEFAULT_LOADING
) -> tuple[np.ndarray, np.ndarray]:
    """(Phi^{1/2}, Phi^{-1/2}) from the one `hermitian_evd` result `evd`,
    with identical loading."""
    return loaded_power(evd, 0.5, loading), loaded_power(evd, -0.5, loading)


def by_bins(fn, *arrays: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = `fn` of the bin-major `arrays`, computed a few bins at a time
    into `out`, which may be one of `arrays`: `fn`'s temporaries (a product,
    a conjugate) then hold one block of bins, not all F, and every bin is
    computed as in one call over all of them."""
    for k in range(0, out.shape[0], _BIN_CHUNK):
        out[k:k + _BIN_CHUNK] = fn(*(x[k:k + _BIN_CHUNK] for x in arrays))
    return out


def whiten(spec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply the per-bin whitening matrix to the (F, M, L) STFT:
    y_w(l,k) = W(k) y(l,k). The result is the (F, M, L) view of a
    frame-major (L, F, M) buffer, one contiguous (F, M) block per frame, as
    the PAST recursion reads it."""
    if w.shape[:2] != spec.shape[:2]:  # both lead with (F, M)
        raise CovarianceError(
            f"whitener shape {w.shape} does not match STFT {spec.shape}"
        )
    nbins, m, nframes = spec.shape
    frames = np.empty((nframes, nbins, m), dtype=np.result_type(w, spec))
    return by_bins(np.matmul, w, spec, out=frames.transpose(1, 2, 0))


def whitened_mixture_covariance(
    phi_yy: np.ndarray, phi_nn_invsqrt: np.ndarray
) -> np.ndarray:
    """Phi_ww = Phi_nn^{-1/2} Phi_yy Phi_nn^{-H/2}."""
    w = phi_nn_invsqrt
    return _hermitize(w @ phi_yy @ w.conj().transpose(0, 2, 1))
