import pytest

from conftest import count_calls
from rtfbeam import covariance, pipeline


@pytest.mark.parametrize(
    "method, evd_calls",
    # Phi_nn once per bundle; cw-batch adds the whitened mixture, per side
    [("none", 1), ("past", 1), ("oracle", 1), ("cw-batch", 3)],
)
def test_evaluate_bundle_decomposes_noise_covariance_once(
    static_bundle, monkeypatch, method, evd_calls
):
    calls = count_calls(monkeypatch, covariance.hermitian_evd)
    pipeline.evaluate_bundle(static_bundle, method)
    assert calls[0] == evd_calls
