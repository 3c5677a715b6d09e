"""The three benchmark workloads, driven through rtfbeam's public functions.

Each workload renders or loads its inputs from the workload seed, then runs
whole units of work (one scene, or one round of CLI commands on a bundle)
until the run's time is spent. A cell is one ``pipeline.evaluate_bundle``
call, or one ``cli.main`` command. The benchmark times render, remix and
cell calls from outside; the program is never edited.

Library functions are always reached through their module attribute
(``pipeline.simulate``, never a name imported from it), so the traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rtfbeam import cli, pipeline, rtf, stft


@dataclass
class Cell:
    kind: str  # "evaluate:<method>", "beamform:<method>" or "beampattern:<method>"
    seconds: float
    error: str | None = None
    quality: dict = field(default_factory=dict)  # si_sdr_gain_db, rtf_mse_db, doa_err_deg


class Run:
    """Timings, outputs and check results of one workload run."""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.cells: list[Cell] = []
        self.render_s: list[float] = []
        self.busy_s = 0.0  # render + remix + cell time, benchmark checks excluded
        self.violations: list[str] = []

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext()

    def next_scene_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span, adding its wall time to the busy time."""
        with self.span(name):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        self.busy_s += dt
        return result, dt

    def render(self, seed: int, snr_db: float, static: bool):
        bundle, dt = self.timed(
            "bench.render", pipeline.simulate, seed, snr_db, static=static
        )
        self.render_s.append(dt)
        return bundle

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _quality(method: str, scores, mse: float) -> dict:
    """Quality of one cell from (left, right, input left, input right) SI-SDR."""
    left, right, in_left, in_right = scores
    quality = {}
    if method != "none":
        quality["si_sdr_gain_db"] = 0.5 * ((left - in_left) + (right - in_right))
    if method in ("cw-batch", "past"):
        quality["rtf_mse_db"] = mse
    return quality


class Sweep:
    """Render fresh scenes, remix each to every SNR and evaluate each method.

    One unit is one scene: a timed ``pipeline.simulate``, then for every SNR
    a remix (the first SNR uses the rendered mixture, as ``rtfbeam evaluate``
    does) and one ``evaluate_bundle`` cell per method.
    """

    quality_units = 1

    def __init__(self, static: bool, snrs, methods):
        self.static = static
        self.snrs = tuple(snrs)
        self.methods = tuple(methods)
        # the last scene and the report of its first cell, for recheck and
        # probe; cleared before each render so no extra scene stays resident
        self.last_bundle = None
        self.last_first_report = None

    def setup(self, run: Run) -> None:
        pass

    def unit(self, run: Run, index: int) -> None:
        self.last_bundle = self.last_first_report = None
        rendered = run.render(run.next_scene_seed(), self.snrs[0], self.static)
        mse_by_snr = {}
        for snr in self.snrs:
            if snr == self.snrs[0]:
                bundle = rendered
            else:
                bundle, _ = run.timed("bench.remix", pipeline.remix, rendered, snr)
            for method in self.methods:
                report = self._cell(run, bundle, method)
                if report is not None and method == "cw-batch":
                    mse_by_snr[snr] = report.rtf_mse_db
                if bundle is rendered and method == self.methods[0]:
                    self.last_first_report = report
        if self.static and len(mse_by_snr) == len(self.snrs):
            lo, hi = mse_by_snr[min(self.snrs)], mse_by_snr[max(self.snrs)]
            run.check(hi < lo, f"CW RTF MSE not lower at {max(self.snrs)} dB "
                      f"({hi:.2f}) than at {min(self.snrs)} dB ({lo:.2f})")
        self.last_bundle = rendered

    def _cell(self, run: Run, bundle, method: str):
        kind = f"evaluate:{method}"
        with run.span("bench.cell", kind=kind):
            t0 = time.perf_counter()
            try:
                report = pipeline.evaluate_bundle(bundle, method)
                error = None
            except Exception as exc:  # a failed cell is counted, the sweep goes on
                report, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        run.busy_s += dt
        cell = Cell(kind, dt, error)
        if report is not None:
            scores = [report.si_sdr_left, report.si_sdr_right,
                      report.si_sdr_input_left, report.si_sdr_input_right]
            if method != "none":
                scores.append(report.rtf_mse_db)
            if not _finite(scores):
                cell.error = f"non-finite output {scores}"
            else:
                cell.quality = _quality(method, scores[:4], report.rtf_mse_db)
                if method == "oracle":
                    run.check(report.rtf_mse_db == rtf.MSE_FLOOR_DB,
                              f"oracle RTF MSE {report.rtf_mse_db} is not the floor")
        run.cells.append(cell)
        return report if cell.error is None else None

    def recheck(self, run: Run) -> None:
        """Evaluate the last scene's first cell again: it must repeat exactly."""
        if self.last_first_report is None:
            return
        method = self.methods[0]
        again = pipeline.evaluate_bundle(self.last_bundle, method)
        # repr, not ==: unset fields are NaN, and NaN != NaN
        run.check(repr(again) == repr(self.last_first_report),
                  f"evaluate_bundle({method}) not deterministic")

    def probe(self, run: Run) -> None:
        """Traced run only: reach the layers this sweep bypasses, once, after
        the timed loop, so every per-layer time is measured."""
        if self.last_bundle is None:
            return
        bundle_dir = run.workdir / "probe"
        cli.write_bundle(bundle_dir, self.last_bundle)
        for argv in (["beampattern", "--method", "past"],
                     ["estimate-rtf", "--method", "cw-batch"]):
            code, err = _run_cli(argv + ["--bundle", str(bundle_dir)])
            run.check(code == 0, f"probe {' '.join(argv)} exited {code}: {err}")


SCORES = ("left", "right", "input_left", "input_right")  # results.csv si_sdr_* columns


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its output captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _si_sdr(est: np.ndarray, ref: np.ndarray) -> float:
    """Independent SI-SDR, used to check the CLI's reported scores."""
    scale = np.dot(est, ref) / np.dot(ref, ref)
    target = scale * ref
    return float(10 * np.log10(np.dot(target, target) / np.dot(est - target, est - target)))


class BundleCli:
    """Drive ``cli.main`` in-process on moving bundles written during set-up.

    One unit is one round of ``COMMANDS`` on one bundle; bundles alternate.
    """

    COMMANDS = (
        ("beamform", "past"),
        ("beamform", "cw-batch"),
        ("beamform", "oracle"),
        ("beamform", "none"),
        ("beampattern", "past"),
    )
    BUNDLE_SNRS = (3.0, 10.0)
    quality_units = len(BUNDLE_SNRS)
    # the WAVs are float32, so an SI-SDR recomputed from them differs from the
    # results row (computed in float64) by rounding only
    WAV_TOL_DB = 0.01

    def __init__(self):
        self.bundles: list[Path] = []
        self.seen: dict = {}  # (bundle, command, method) -> outputs of first run

    def setup(self, run: Run) -> None:
        for i, snr in enumerate(self.BUNDLE_SNRS):
            bundle = run.render(run.next_scene_seed(), snr, static=False)
            path = run.workdir / f"bundle{i}"
            with run.span("bench.write"):
                cli.write_bundle(path, bundle)
            self.bundles.append(path)

    def unit(self, run: Run, index: int) -> None:
        path = self.bundles[index % len(self.bundles)]
        for command, method in self.COMMANDS:
            self._cell(run, path, command, method)

    def _cell(self, run: Run, path: Path, command: str, method: str) -> None:
        results = path / "results.csv"
        argv = [command, "--bundle", str(path), "--method", method]
        if command == "beamform":
            argv += ["--results", str(results)]
        kind = f"{command}:{method}"
        with run.span("bench.cell", kind=kind):
            t0 = time.perf_counter()
            code, err = _run_cli(argv)
            dt = time.perf_counter() - t0
        run.busy_s += dt
        cell = Cell(kind, dt)
        run.cells.append(cell)
        if code != 0:
            cell.error = f"exit {code}: {err}"
            return
        if command == "beamform":
            outputs = self._beamform_outputs(run, path, results, method)
        else:
            outputs = self._beampattern_outputs(path)
        if not _finite(outputs.values()):
            cell.error = f"non-finite output {outputs}"
            return
        if command == "beamform":
            scores = [outputs[f"si_sdr_{k}"] for k in SCORES]
            cell.quality = _quality(method, scores, outputs.get("rtf_mse_db"))
        else:
            cell.quality = outputs
        key = (path, command, method)
        first = self.seen.setdefault(key, outputs)
        run.check(first == outputs, f"{kind} on {path.name} not deterministic")

    def _beamform_outputs(self, run: Run, path: Path, results: Path, method: str) -> dict:
        with open(results, newline="") as fh:
            row = list(csv.DictReader(fh))[-1]
        run.check(row["method"] == method and row["status"] == "ok",
                  f"unexpected results row {row}")
        out = {f"si_sdr_{k}": float(row[f"si_sdr_{k}"]) for k in SCORES}
        if method != "none":
            out["rtf_mse_db"] = float(row["rtf_mse_db"])
        for side in ("left", "right"):
            _, ref = stft.read_wav(path / f"clean_ref_{side}.wav")
            _, est = stft.read_wav(path / f"enhanced_{side}.wav")
            wav_score = _si_sdr(est[0, : ref.shape[1]], ref[0])
            run.check(abs(wav_score - out[f"si_sdr_{side}"]) < self.WAV_TOL_DB,
                      f"enhanced_{side}.wav scores {wav_score:.4f} dB, results row "
                      f"{out[f'si_sdr_{side}']:.4f} dB ({path.name}, {method})")
        return out

    @staticmethod
    def _beampattern_outputs(path: Path) -> dict:
        with open(path / "doa_error.csv", newline="") as fh:
            errs = [float(r["doa_error_deg"]) for r in csv.DictReader(fh)
                    if r["doa_error_deg"]]
        return {"doa_err_deg": float(np.mean(errs)) if errs else float("nan")}

    def recheck(self, run: Run) -> None:
        pass  # repeated rounds on each bundle are compared in _cell

    def probe(self, run: Run) -> None:
        pass  # set-up and the loop already reach every layer


WORKLOADS = {
    # Table-1 sweep: static FFT-delay render plus babble, and CW/EVD cells;
    # the bypass case for PAST, the moving-source kernel and beampatterns
    "sweep-static": lambda: Sweep(True, (-10.0, 0.0, 10.0, 20.0, 30.0), ("cw-batch",)),
    # moving-speaker experiment: windowed-sinc render, PAST and oracle MVDR,
    # and the passthrough baseline, so the median cell is an oracle cell and
    # not the midpoint between two equal groups
    "sweep-moving": lambda: Sweep(False, (3.0, 6.0, 10.0), ("past", "oracle", "none")),
    # the CLI on bundles from disk: no simulator in the loop, I/O and the
    # beampattern tail, and cmd_beamform's second estimation
    "bundle-cli": BundleCli,
}
