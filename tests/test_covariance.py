import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAYOUTS, assert_matches_reference, layouts, random_complex, random_spd
from rtfbeam import covariance


def _field(*matrices):
    return np.stack(matrices)


# ---------------------------------------------------------------- estimators


def test_noise_covariance_single_frame_rank_one():
    y = np.zeros((2, 2, 1), dtype=complex)
    y[:, 0, 0] = 1.0  # y = e_0 in both bins
    phi = covariance.estimate_noise_covariance(y, 1)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(phi[0], expected, atol=1e-15)


def test_noise_covariance_two_frames_hand_sum():
    y = np.zeros((2, 2, 2), dtype=complex)
    y[:, 0, 0] = 1.0  # frame 0: [1, 0]
    y[:, 1, 1] = 1.0  # frame 1: [0, 1]
    phi = covariance.estimate_noise_covariance(y, 2)
    np.testing.assert_allclose(phi[0], np.diag([0.5, 0.5]), atol=1e-15)


def test_noise_covariance_monte_carlo_identity():
    rng = np.random.default_rng(0)
    y = random_complex(rng, 2, 3, 10000)
    phi = covariance.estimate_noise_covariance(y, 10000)
    for k in range(2):
        assert np.linalg.norm(phi[k] - np.eye(3)) < 0.1


def test_mixture_covariance_mirrors_noise_estimator():
    rng = np.random.default_rng(1)
    y = random_complex(rng, 2, 3, 40)
    phi_mix = covariance.estimate_mixture_covariance(y, 10)
    oracle = np.einsum("kil,kjl->kij", y[:, :, 10:], y[:, :, 10:].conj()) / 30
    np.testing.assert_allclose(phi_mix, oracle, atol=1e-12)
    # single trailing frame reduces to the rank-one outer product
    phi_one = covariance.estimate_mixture_covariance(y, 39)
    np.testing.assert_allclose(
        phi_one[0], np.outer(y[0, :, 39], y[0, :, 39].conj()), atol=1e-12
    )


def test_estimators_exactly_hermitian():
    rng = np.random.default_rng(2)
    y = random_complex(rng, 3, 4, 50)
    phi = covariance.estimate_noise_covariance(y, 50)
    assert np.array_equal(phi, phi.conj().transpose(0, 2, 1))


def test_estimator_frame_range_errors():
    rng = np.random.default_rng(3)
    spec = random_complex(rng, 2, 2, 5)
    with pytest.raises(covariance.CovarianceError):
        covariance.estimate_noise_covariance(spec, 0)
    with pytest.raises(covariance.CovarianceError):
        covariance.estimate_noise_covariance(spec, 6)
    with pytest.raises(covariance.CovarianceError):
        covariance.estimate_mixture_covariance(spec, 5)


# ------------------------------------------------------------------- EVD


def test_evd_identity():
    evd = covariance.hermitian_evd(_field(np.eye(3, dtype=complex)))
    np.testing.assert_allclose(evd.eigenvalues[0], np.ones(3), atol=1e-12)


def test_evd_diagonal():
    evd = covariance.hermitian_evd(_field(np.diag([3.0, 1.0]).astype(complex)))
    np.testing.assert_allclose(evd.eigenvalues[0], [3.0, 1.0], atol=1e-12)
    # eigenvector columns are (phase-scaled) identity columns
    np.testing.assert_allclose(np.abs(evd.eigenvectors[0]), np.eye(2), atol=1e-12)


def _power_method_eigvals(a, iters=50000, tol=1e-15):
    """Independent eigenvalue oracle: power iteration with deflation on the
    Gershgorin-shifted (PSD) matrix."""
    m = a.shape[0]
    shift = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    b = a + shift * np.eye(m)
    rng = np.random.default_rng(12345)
    vals = []
    for _ in range(m):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = b @ v
            nw = np.linalg.norm(w)
            w /= nw
            if np.linalg.norm(w - v * np.vdot(v, w) / abs(np.vdot(v, w))) < tol:
                v = w
                break
            v = w
        mu = float(np.real(np.vdot(v, b @ v)))
        vals.append(mu - shift)
        b = b - mu * np.outer(v, v.conj())
    return np.array(sorted(vals, reverse=True))


def test_evd_random_matches_power_method_oracle():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 8)
    evd = covariance.hermitian_evd(_field(a))
    oracle = _power_method_eigvals(a)
    scale = np.linalg.norm(a)
    np.testing.assert_allclose(evd.eigenvalues[0], oracle, atol=1e-9 * scale)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
def test_evd_invariants(seed, m):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, m, m)
    a = a + a.conj().T  # Hermitian, indefinite in general
    evd = covariance.hermitian_evd(_field(a))
    lam, v = evd.eigenvalues[0], evd.eigenvectors[0]
    assert np.all(np.diff(lam) <= 1e-12)
    assert np.linalg.norm(v.conj().T @ v - np.eye(m)) < 1e-10
    rebuilt = v @ np.diag(lam) @ v.conj().T
    assert np.linalg.norm(rebuilt - a) < 1e-9 * max(np.linalg.norm(a), 1.0)


def test_evd_rejects_non_hermitian():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(covariance.CovarianceError):
        covariance.hermitian_evd(_field(a))


# ---------------------------------------------------- matrix functions


def _power(field, p, loading=0.0):
    return covariance.loaded_power(covariance.hermitian_evd(field), p, loading)


def test_inverse_sqrt_scalar_matrix():
    out = _power(_field(4.0 * np.eye(3, dtype=complex)), -0.5)
    np.testing.assert_allclose(out[0], 0.5 * np.eye(3), atol=1e-12)


def test_inverse_sqrt_diagonal():
    out = _power(_field(np.diag([4.0, 1.0]).astype(complex)), -0.5)
    np.testing.assert_allclose(out[0], np.diag([0.5, 1.0]), atol=1e-12)


def test_inverse_sqrt_defining_identity():
    rng = np.random.default_rng(5)
    phi = random_spd(rng, 4)
    r = _power(_field(phi), -0.5)[0]
    assert np.linalg.norm(r @ phi @ r.conj().T - np.eye(4)) < 1e-8


def test_inverse_sqrt_singular_raises():
    a = np.diag([-1.0, 1.0]).astype(complex)
    with pytest.raises(covariance.CovarianceError):
        _power(_field(a), -0.5, 1e-6)
    with pytest.raises(covariance.CovarianceError):
        _power(_field(np.eye(2, dtype=complex)), -0.5, -1.0)


def test_sqrt_hermitian_scalar_and_diagonal():
    out = _power(_field(4.0 * np.eye(2, dtype=complex)), 0.5)
    np.testing.assert_allclose(out[0], 2.0 * np.eye(2), atol=1e-12)
    out = _power(_field(np.diag([4.0, 1.0]).astype(complex)), 0.5)
    np.testing.assert_allclose(out[0], np.diag([2.0, 1.0]), atol=1e-12)


def test_sqrt_hermitian_defining_identity():
    rng = np.random.default_rng(6)
    phi = random_spd(rng, 5)
    r = _power(_field(phi), 0.5)[0]
    assert np.linalg.norm(r @ r - phi) < 1e-8
    # Hermitian square root: R^H = R, so Phi^{H/2} = Phi^{1/2}
    assert np.linalg.norm(r - r.conj().T) < 1e-12


def test_sqrt_pair_consistency():
    rng = np.random.default_rng(7)
    phi = random_spd(rng, 4)
    s, si = covariance.sqrt_pair(covariance.hermitian_evd(_field(phi)), 0.0)
    np.testing.assert_allclose(s[0] @ si[0], np.eye(4), atol=1e-10)


# ------------------------------------------------------------- whitening


def test_whiten_identity_and_scalar():
    rng = np.random.default_rng(8)
    y = random_complex(rng, 2, 3, 6)
    eye = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3)).copy()
    np.testing.assert_allclose(covariance.whiten(y, eye), y)
    half = 0.5 * eye
    np.testing.assert_allclose(covariance.whiten(y, half), 0.5 * y)


def test_whiten_shape_mismatch():
    rng = np.random.default_rng(9)
    spec = random_complex(rng, 2, 3, 6)
    eye = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)).copy()
    with pytest.raises(covariance.CovarianceError):
        covariance.whiten(spec, eye)


def test_whitening_stationary_noise_monte_carlo():
    # whiten correlated noise by its own estimated inverse square root:
    # the empirical covariance of the output must approach the identity
    rng = np.random.default_rng(10)
    mix = random_complex(rng, 3, 3)
    y = np.einsum("ij,kjl->kil", mix, random_complex(rng, 2, 3, 5000))
    phi = covariance.estimate_noise_covariance(y, 5000)
    w = _power(phi, -0.5)
    yw = covariance.whiten(y, w)
    emp = covariance.estimate_noise_covariance(yw, 5000)
    assert np.linalg.norm(emp[0] - np.eye(3)) < 0.15


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 8]))
def test_whitening_identity_property(seed, m):
    rng = np.random.default_rng(seed)
    phi = random_spd(rng, m)
    r = _power(_field(phi), -0.5)[0]
    assert np.linalg.norm(r @ phi @ r.conj().T - np.eye(m)) < 1e-8


def test_whitened_mixture_covariance_formula():
    rng = np.random.default_rng(11)
    phi_yy = _field(random_spd(rng, 3))
    w = _field(random_spd(rng, 3))
    out = covariance.whitened_mixture_covariance(phi_yy, w)
    oracle = w[0] @ phi_yy[0] @ w[0].conj().T
    np.testing.assert_allclose(out[0], oracle, atol=1e-12)


# ------------------------------------ batched products vs. einsum reference


@pytest.mark.parametrize("layout", LAYOUTS)
def test_covariance_estimators_match_einsum_reference(layout):
    rng = np.random.default_rng(20)
    y = random_complex(rng, 5, 4, 30)
    spec = layouts(y)[layout]
    ln = 12
    for phi, frames in ((covariance.estimate_noise_covariance(spec, ln), y[:, :, :ln]),
                        (covariance.estimate_mixture_covariance(spec, ln), y[:, :, ln:])):
        ref = np.einsum("kil,kjl->kij", frames, frames.conj()) / frames.shape[2]
        assert_matches_reference(phi, ref)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_whiten_matches_einsum_reference(layout):
    rng = np.random.default_rng(21)
    y = random_complex(rng, 5, 4, 30)
    w = np.stack([random_spd(rng, 4) for _ in range(5)])
    for w_layout in LAYOUTS:
        out = covariance.whiten(layouts(y)[layout], layouts(w)[w_layout])
        assert_matches_reference(out, np.einsum("kij,kjl->kil", w, y))


def test_by_bins_has_the_bits_of_one_call_over_every_bin():
    # 70 bins are three blocks, the last one short; into the frame-major
    # `out` of whiten, and into the input itself (the in-place de-whitening),
    # the blocks get the bits of the one batched product
    rng = np.random.default_rng(23)
    w = np.stack([random_spd(rng, 4) for _ in range(70)])
    y = random_complex(rng, 70, 4, 30)
    whole = w @ y
    frames = np.empty((30, 70, 4), dtype=complex).transpose(1, 2, 0)
    np.testing.assert_array_equal(covariance.by_bins(np.matmul, w, y, out=frames), whole)
    np.testing.assert_array_equal(covariance.by_bins(np.matmul, w, frames, out=frames), w @ whole)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_whitened_mixture_covariance_matches_einsum_reference(layout):
    rng = np.random.default_rng(22)
    phi_yy = np.stack([random_spd(rng, 4) for _ in range(5)])
    w = np.stack([random_spd(rng, 4) for _ in range(5)])
    out = covariance.whitened_mixture_covariance(layouts(phi_yy)[layout], layouts(w)[layout])
    ref = np.einsum("kij,kjl,kml->kim", w, phi_yy, w.conj())
    assert_matches_reference(out, ref)


def test_field_shape_validation():
    with pytest.raises(covariance.CovarianceError):
        covariance.hermitian_evd(np.zeros((2, 3, 4)))
    with pytest.raises(covariance.CovarianceError):
        covariance.hermitian_evd(np.zeros((3, 3)))
