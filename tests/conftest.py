"""Shared fixtures: rendered scenario bundles are expensive, so a moving and
a static bundle are built once per session and reused across test modules."""

import inspect

import numpy as np
import pytest

import rtfbeam
from rtfbeam import pipeline


@pytest.fixture(scope="session")
def moving_bundle():
    """Moving-speaker scene, seed 3, 10 dB input SNR."""
    return pipeline.simulate(3, 10.0)


@pytest.fixture(scope="session")
def static_bundle():
    """Static-speaker scene, seed 3, 30 dB input SNR."""
    return pipeline.simulate(3, 30.0, static=True)


def random_spd(rng, m, floor=0.1):
    """Random Hermitian positive-definite matrix."""
    g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
    return g @ g.conj().T + floor * np.eye(m)


def random_complex(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def count_calls(monkeypatch, fn, weight=lambda result: 1):
    """Count calls to `fn` through every rtfbeam module attribute bound to
    it, so a direct `from .x import fn` is counted too; returns the counter,
    a one-element list. Each call adds `weight` of its result: 1, or for
    example the frames of the spectrum it returns."""
    calls = [0]

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls[0] += weight(result)
        return result

    for mod in vars(rtfbeam).values():
        if inspect.ismodule(mod):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def frames_of(spec):
    """The frames of an (F, M, L) spectrum: a `count_calls` weight."""
    return spec.shape[2]


def collect_bins():
    """A beampattern sink that keeps a copy of each bin it is handed (the
    buffer is reused for the next bin), and the list it appends them to:
    `np.stack` of the list is the (F, T, L) |B| grid."""
    bins = []
    return bins, lambda b: bins.append(np.array(b))


def discard_bins(b):
    """A beampattern sink for callers that only need the wideband power."""


LAYOUTS = ("contiguous", "frame slice", "transposed")


def layouts(x, pad=3):
    """`x` in three memory layouts with equal values: contiguous, as the
    slice [..., pad:] of an array wider in its last axis (a frame slice of
    a spectrogram), and as the swapped view of an array with its first two
    axes swapped (the (F, M, L) view of a channel-major (M, F, L) array)."""
    wide = np.concatenate([np.zeros(x.shape[:-1] + (pad,), x.dtype), x], axis=-1)
    swapped = np.swapaxes(np.ascontiguousarray(np.swapaxes(x, 0, 1)), 0, 1)
    return dict(zip(LAYOUTS, (x, wide[..., pad:], swapped)))


def assert_matches_reference(out, ref):
    """Agreement within 1e-12 of the reference's largest entry."""
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
