import pytest

from conftest import count_calls
from rtfbeam import covariance, pipeline


@pytest.mark.parametrize(
    "method, evd_calls",
    # Phi_nn once per bundle; cw-batch adds the whitened mixture, once
    [("none", 1), ("past", 1), ("oracle", 1), ("cw-batch", 2)],
)
def test_evaluate_bundle_decomposes_noise_covariance_once(
    static_bundle, monkeypatch, method, evd_calls
):
    calls = count_calls(monkeypatch, covariance.hermitian_evd)
    pipeline.evaluate_bundle(static_bundle, method)
    assert calls[0] == evd_calls


@pytest.mark.parametrize(
    "method, fn",
    [("cw-batch", covariance.estimate_mixture_covariance), ("past", covariance.whiten)],
)
def test_evaluate_bundle_does_per_bundle_estimation_work_once(
    static_bundle, monkeypatch, method, fn
):
    # the mixture covariance (cw-batch) and the whitened spectrogram (past)
    # serve both sides
    calls = count_calls(monkeypatch, fn)
    pipeline.evaluate_bundle(static_bundle, method)
    assert calls[0] == 1
