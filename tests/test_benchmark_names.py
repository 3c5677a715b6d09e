"""The benchmark (perfbench/run.py) reaches rtfbeam functions by name: its
traced run takes the median over the spans of each named function, so a
renamed or deleted one crashes it. These checks read run.py with `ast` and
never import it."""

import ast
import importlib
import inspect
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from rtfbeam import beamformer, covariance, pipeline, rtf

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SPAN_SUFFIXES = (".ms", ".self_ms", ".calls_per_cell")


def _run_py_constants() -> dict:
    """PER_LAYER, COUNTED and the DEAD_BINS pattern, as literals."""
    found = {}
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if name in ("PER_LAYER", "COUNTED"):
                found[name] = ast.literal_eval(node.value)
            elif name == "DEAD_BINS":  # re.compile(r"...")
                found[name] = ast.literal_eval(node.value.args[0])
    assert set(found) == {"PER_LAYER", "COUNTED", "DEAD_BINS"}
    return found


def _traced_names() -> list[str]:
    constants = _run_py_constants()
    stems = [metric[: -len(suffix)] for metric in constants["PER_LAYER"]
             for suffix in SPAN_SUFFIXES if metric.endswith(suffix)]
    return sorted(set(stems) | set(constants["COUNTED"]))


@pytest.mark.parametrize("name", _traced_names())
def test_benchmark_names_are_public_functions(name):
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"rtfbeam.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_dead_bin_warning_matches_the_benchmark_pattern():
    pattern = re.compile(_run_py_constants()["DEAD_BINS"])
    m, nbins, nframes = 3, 4, 2
    valid = np.ones((nbins, nframes), dtype=bool)
    valid[1] = False  # one bin with no valid RTF
    traj = rtf.RtfTrajectory(np.ones((nbins, m, nframes), dtype=complex), 0, valid=valid)
    evd = covariance.hermitian_evd(np.repeat(np.eye(m)[None], nbins, axis=0))
    with pytest.warns(UserWarning) as record:
        beamformer.mvdr_weights(traj, evd)
    matches = [pattern.search(str(w.message)) for w in record]
    assert [int(x.group(1)) for x in matches if x] == [1]


@pytest.mark.parametrize("method", ["cw-batch", "past"])
def test_a_clean_cell_reports_no_dead_bin(method):
    # both estimators flag the Nyquist bin invalid by design; it is not a
    # dead bin, so a clean scene gives the benchmark nothing to count
    pattern = re.compile(_run_py_constants()["DEAD_BINS"])
    bundle = pipeline.simulate(5, 10.0, static=True)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        pipeline.evaluate_bundle(bundle, method)
    assert not [w for w in record if pattern.search(str(w.message))]
