"""Command-line interface: simulate / estimate-rtf / beamform / beampattern /
evaluate.

Scenario bundles are directories with fixed filenames (scenario.json,
mixture.wav, ...), written by `write_bundle` and read by `load_bundle`;
the keys of ground_truth.json are one table that both walk. A loaded
bundle holds only mixture.wav and clean.wav in memory: noise.wav and the
true RTF files are checked by their headers, and a true trajectory is read
only when a method asks for it, and only the frames it asks for.

Every output file streams through one atomic writer, `_atomic_open`: a
temp file in the target directory, renamed over the target on success and
unlinked on failure, so a failed run leaves no partial files, except
`results.csv`: checked before any work, then appended to, each row
fsynced. Exit codes: 0 success, 2 configuration errors (flags
out of range, a missing bundle file), 1 runtime failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import beamformer, covariance, metrics, pipeline, rtf, simulator, stft

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# the flags that change a result: part of every row and of the resume key
CONFIG_FIELDS = ["static", "beta", "loading", "mvdr_loading"]
KEY_FIELDS = ["scenario_id", "snr_db", "method", *CONFIG_FIELDS]
RESULT_FIELDS = [
    *KEY_FIELDS,
    "status",
    "si_sdr_left",
    "si_sdr_right",
    "si_sdr_input_left",
    "si_sdr_input_right",
    "rtf_mse_db",
]


class ConfigError(ValueError):
    pass


class BundleError(ValueError):
    """A present bundle file that is unreadable, lacks a key or does not fit."""


@contextlib.contextmanager
def _atomic_open(path: Path, mode: str = "wb"):
    """Yield a temp file beside `path` opened in `mode`; on success it is
    renamed over `path`, on any exception unlinked, so `path` holds either
    its old bytes or the whole new file. Text is UTF-8 with no newline
    translation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with os.fdopen(fd, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_text(path: Path, text: str) -> None:
    with _atomic_open(path, "w") as fh:
        fh.write(text)


def _write_wav(path: Path, rate: int, signal: np.ndarray) -> None:
    with _atomic_open(path) as fh:
        stft.write_wav(fh, rate, signal)


def _write_trajectory(path: Path, traj, config, num_frames: int) -> None:
    """Write `traj` with all `num_frames` frames: a one-frame trajectory (a
    CW estimate, a static scene's truth) is broadcast, so every .rtfb file
    of a bundle holds L frames."""
    nbins, m, _ = traj.values.shape
    full = rtf.RtfTrajectory(np.broadcast_to(traj.values, (nbins, m, num_frames)),
                             traj.ref_channel,
                             np.broadcast_to(traj.valid, (nbins, num_frames)))
    with _atomic_open(path) as fh:
        rtf.save_trajectory(fh, full, config)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Stream `rows` (an iterable of sequences) under `header`."""
    with _atomic_open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# the keys of ground_truth.json: key -> (its value in a bundle, as written;
# the value read back). write_bundle and load_bundle both walk this table,
# so a key the writer writes is one the reader requires
GROUND_TRUTH_KEYS = {
    "snr_db": (lambda b: b.snr_db, float),
    "doa_per_frame_deg": (lambda b: b.truth.doa_per_frame.tolist(),
                          lambda v: np.asarray(v, dtype=float)),
    "active_frames": (lambda b: b.truth.active_frames.tolist(),
                      lambda v: np.asarray(v, dtype=bool)),
    "stft": (lambda b: dataclasses.asdict(b.config),
             lambda v: stft.StftConfig(**{f.name: v[f.name]
                                          for f in dataclasses.fields(stft.StftConfig)})),
}


def write_bundle(out_dir: Path, bundle: pipeline.SimBundle) -> None:
    """Write a simulated bundle (one with its noise samples) to `out_dir`;
    each side's truth is made from its maker, written and dropped."""
    rate = bundle.scenario.sample_rate
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "scenario.json", bundle.scenario.to_json())
    _write_wav(out_dir / "mixture.wav", rate, bundle.mixture)
    _write_wav(out_dir / "clean.wav", rate, bundle.clean)
    _write_wav(out_dir / "noise.wav", rate, bundle.noise)
    for side, make in bundle.truth.rtf.items():
        traj = make()
        # for readers of the bundle; load_bundle takes these rows from clean.wav
        ref = bundle.clean[traj.ref_channel]
        _write_wav(out_dir / f"clean_ref_{side}.wav", rate, ref)
        _write_trajectory(out_dir / f"rtf_true_{side}.rtfb", traj, bundle.config,
                          bundle.truth.doa_per_frame.size)
        del traj  # before the next side's is made
    _write_text(out_dir / "ground_truth.json", json.dumps(
        {key: write(bundle) for key, (write, _) in GROUND_TRUTH_KEYS.items()}, indent=2))
    _write_csv(
        out_dir / "doa.csv",
        ["frame", "doa_deg", "active"],
        ((l, float(d), int(a)) for l, (d, a) in enumerate(
            zip(bundle.truth.doa_per_frame, bundle.truth.active_frames))),
    )


@contextlib.contextmanager
def _reading(path: Path):
    """Re-raise a missing key or a bad value met while reading `path` as a
    BundleError that names the file and the exception's type."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"{path}: {type(exc).__name__}: {exc}") from None


def _truth_maker(path: Path):
    """The truth maker of a loaded bundle: it reads the frames it is asked
    for (all by default) from `path` when called."""
    return lambda frames=slice(None): rtf.load_trajectory(path, frames)[0]


def load_bundle(bundle_dir: Path) -> pipeline.SimBundle:
    """Read a `write_bundle` directory: (M, N) and the sample rate come from
    scenario.json, the STFT, SNR and per-frame lists from ground_truth.json,
    and every other copy is checked against them in one (file, key, got, want)
    list. A present file that is unreadable, lacks a key or does not fit
    raises an error naming it (exit 1); a missing one, FileNotFoundError (2).

    Only mixture.wav and clean.wav are read whole. noise.wav and the
    rtf_true_*.rtfb files are checked by their headers and sizes: the
    bundle's `noise` is None, and each side's truth is a maker that reads
    its file when called, so a command reads only the truth its method uses."""
    scenario_path, truth_path = bundle_dir / "scenario.json", bundle_dir / "ground_truth.json"
    with _reading(scenario_path):
        scenario = simulator.Scenario.from_json(scenario_path.read_text())
    m, n = scenario.num_mics, scenario.num_samples
    with _reading(truth_path):
        meta = json.loads(truth_path.read_text())
        facts = {key: read(meta[key]) for key, (_, read) in GROUND_TRUTH_KEYS.items()}
        config = facts["stft"]
        truth = simulator.GroundTruth(facts["doa_per_frame_deg"], {}, facts["active_frames"])
        nframes = config.num_frames(n)
    rate = scenario.sample_rate
    wavs = {name: stft.read_wav(bundle_dir / name, rate)[1]
            for name in ("mixture.wav", "clean.wav")}
    fits = [*((bundle_dir / name, "(M, N)", x.shape, (m, n)) for name, x in wavs.items()),
            (bundle_dir / "noise.wav", "(M, N)",
             stft.read_wav_shape(bundle_dir / "noise.wav", rate)[1], (m, n)),
            (truth_path, "doa_per_frame_deg", truth.doa_per_frame.shape, (nframes,)),
            (truth_path, "active_frames", truth.active_frames.shape, (nframes,)),
            (truth_path, "stft.sample_rate_hz", config.sample_rate_hz, rate)]
    for side, ref in rtf.reference_mics(m).items():
        path = bundle_dir / f"rtf_true_{side}.rtfb"
        header = rtf.read_trajectory_header(path)
        truth.rtf[side] = _truth_maker(path)
        fits += [(path, "ref_channel", header.ref_channel, ref),
                 (path, "(F, M, L)", header.shape, (config.num_bins, m, nframes)),
                 *((path, key, value, getattr(config, key))
                   for key, value in header.stft.items())]
    misfits = [f"{path}: {key} {got}, expected {want}"
               for path, key, got, want in fits if got != want]
    if misfits:
        raise BundleError("; ".join(misfits))
    return pipeline.SimBundle(scenario, config, wavs["clean.wav"], None,
                              wavs["mixture.wav"], truth, facts["snr_db"])


def cmd_simulate(args) -> int:
    out_root = Path(args.out)
    for i in range(args.count):
        seed = args.seed + i
        bundle = pipeline.simulate(seed, args.snr, static=args.static)
        name = f"seed{seed:05d}_snr{args.snr:+05.1f}"
        write_bundle(out_root / name, bundle)
        del bundle  # else it is still held while the next one renders
        print(f"wrote {out_root / name}")
    return EXIT_OK


def cmd_estimate_rtf(args) -> int:
    bundle_dir = Path(args.bundle)
    bundle = load_bundle(bundle_dir)
    trajs = pipeline.estimate(bundle, args.method, args.beta, args.loading,
                              args.noise_frames)[1]
    # score every side first: a side that cannot be scored writes no file
    mse = {side: rtf.rtf_mse(traj, bundle.truth.rtf[side]())
           for side, traj in trajs.items()}
    nframes = bundle.config.num_frames(bundle.mixture.shape[1])
    for side, traj in trajs.items():
        _write_trajectory(bundle_dir / f"rtf_est_{side}.rtfb", traj, bundle.config, nframes)
        print(f"{side}: MSE {mse[side]:.2f} dB")
    _write_csv(bundle_dir / "rtf_mse.csv", ["side", "method", "mse_db"],
               ((side, args.method, value) for side, value in mse.items()))
    return EXIT_OK


def cmd_beamform(args) -> int:
    prepare_results(Path(args.results))
    bundle_dir = Path(args.bundle)
    bundle = load_bundle(bundle_dir)
    report = pipeline.evaluate_bundle(
        bundle, args.method, args.beta, args.loading, args.mvdr_loading,
        noise_frames=args.noise_frames,
    )
    for side, signal in report.enhanced.items():
        _write_wav(
            bundle_dir / f"enhanced_{side}.wav", bundle.scenario.sample_rate, signal
        )
    row = report.csv_row()
    row.update(_config_columns(bundle.scenario.source_delta_deg == 0.0, args), status="ok")
    append_result_row(Path(args.results), row)
    print(
        f"SI-SDR L/R: {report.si_sdr_left:.2f}/{report.si_sdr_right:.2f} dB "
        f"(input {report.si_sdr_input_left:.2f}/{report.si_sdr_input_right:.2f})"
    )
    return EXIT_OK


def _preallocate(fh, size: int) -> None:
    """Reserve `size` bytes for the file `fh` up front, as `ndarray.tofile`
    does, where the platform can; a file grown by many small writes is
    slower to replace. Best-effort: a filesystem that refuses is ignored."""
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is not None:
        try:
            fallocate(fh.fileno(), 0, size)
        except OSError:
            pass


def cmd_beampattern(args) -> int:
    bundle_dir = Path(args.bundle)
    bundle = load_bundle(bundle_dir)
    nbins = bundle.config.num_bins
    # the narrowband .npy streams one float32 bin at a time under a header
    # written with the first bin, so the (F, T, L) grid is never held. All
    # else runs inside its atomic writer: a pattern with no scorable frame
    # (exit 1) unlinks the temp file and leaves an earlier run's three files
    # as they were
    with _atomic_open(bundle_dir / "beampattern_narrowband.npy") as npy:

        def write_bin(b):
            if npy.tell() == 0:
                shape = (nbins, *b.shape)
                np.lib.format.write_array_header_1_0(
                    npy, {"descr": "<f4", "fortran_order": False, "shape": shape})
                _preallocate(npy, npy.tell() + 4 * math.prod(shape))
            npy.write(b.astype("<f4"))

        angles, wideband = pipeline.beampattern(
            bundle, args.method, write_bin, args.beta, args.loading, args.mvdr_loading,
            args.noise_frames, args.angle_step,
        )
        errs, mean_err, excluded = metrics.doa_error(angles, wideband, bundle.truth)
        # one string per angle, values as Python float reprs: the bytes a
        # csv.writer of the numpy scalars writes, at a third of its cost. A
        # frame-invariant pattern is one column broadcast over the frames
        # (frame stride 0): its one value per angle is formatted once
        frames = range(wideband.shape[1])
        with _atomic_open(bundle_dir / "beampattern_wideband.csv", "w") as fh:
            fh.write("frame,bin,theta_deg,value\n")
            for theta, powers in zip(angles.tolist(), wideband):
                middle = f",wideband,{theta!r},"
                if powers.strides[0] == 0:
                    tail = f"{middle}{powers[0].item()!r}\n"
                    fh.write("".join(f"{l}{tail}" for l in frames))
                else:
                    fh.write("".join(f"{l}{middle}{value!r}\n"
                                     for l, value in enumerate(powers.tolist())))
        _write_csv(
            bundle_dir / "doa_error.csv",
            ["frame", "doa_error_deg"],
            ((l, "" if np.isnan(e) else e) for l, e in enumerate(errs)),
        )
    print(f"mean DOA error {mean_err:.2f} deg ({excluded} frames excluded)")
    return EXIT_OK


def _config_columns(static: bool, args) -> dict:
    """The CONFIG_FIELDS of a results row, formatted as written."""
    return {
        "static": str(int(static)),
        "beta": repr(args.beta),
        "loading": repr(args.loading),
        "mvdr_loading": repr(args.mvdr_loading),
    }


def prepare_results(path: Path) -> None:
    """Before a command's work: refuse a results file of other columns (exit
    2), untouched, and cut a last row torn by a crash (no final newline), so
    its cell runs again. Reads the header line and last byte; empty: no rows."""
    if not path.exists():
        return
    with open(path, "rb") as fh:
        header = next(csv.reader(fh.readline().decode().splitlines()), None)
        if header not in (None, RESULT_FIELDS):
            raise ConfigError(f"{path} has columns {header}, expected {RESULT_FIELDS}; "
                              "write to a new file")
        if header is None:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            fh.seek(0)
            os.truncate(path, fh.read().rfind(b"\n") + 1)


def append_result_row(path: Path, row: dict) -> None:
    """Single-writer durable append of one fsynced row to a file checked by
    `prepare_results`; a new file gets the header with its first row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS, lineterminator="\n")
        if fh.tell() == 0:
            writer.writeheader()
        writer.writerow({k: row.get(k, "") for k in RESULT_FIELDS})
        fh.flush()
        os.fsync(fh.fileno())


def completed_keys(path: Path) -> set[tuple]:
    """KEY_FIELDS of every "ok" row of a results file checked and cut back to
    complete rows by `prepare_results`: a cell whose rows are all errors is
    not done, and a rerun evaluates it again, appending its new row."""
    if not path.exists():
        return set()
    with open(path, newline="") as fh:
        return {tuple(r[k] for k in KEY_FIELDS) for r in csv.DictReader(fh)
                if r["status"] == "ok"}


def cmd_evaluate(args) -> int:
    out = Path(args.out)
    # a repeated SNR or method names the same cell: keep its first place
    # only, so its row is written once
    snrs = list(dict.fromkeys(args.snrs))
    methods = list(dict.fromkeys(args.methods.split(",")))
    for method in methods:
        if method not in pipeline.METHODS:
            raise ConfigError(f"unknown method {method!r}")
    prepare_results(out)
    done = completed_keys(out)
    config = _config_columns(args.static, args)
    for seed in range(args.seed, args.seed + args.count):
        rendered = None  # the seed at snrs[0], rendered for its first due cell
        for i, snr in enumerate(snrs):
            bundle = None  # remixed to `snr` for its first due cell
            for method in methods:
                row = {"scenario_id": f"seed{seed}", "snr_db": repr(snr),
                       "method": method, **config}
                if tuple(row[k] for k in KEY_FIELDS) in done:
                    continue
                if rendered is None:
                    rendered = pipeline.simulate(seed, snrs[0], static=args.static)
                if bundle is None:
                    bundle = pipeline.remix(rendered, snr) if i else rendered
                try:
                    report = pipeline.evaluate_bundle(
                        bundle, method, args.beta, args.loading, args.mvdr_loading
                    )
                    row.update(report.csv_row(), status="ok")
                except Exception as exc:  # record the failure, keep sweeping
                    row["status"] = f"error: {type(exc).__name__}: {exc}"
                append_result_row(out, row)
                print(f"seed {seed} snr {snr} method {method}: {row['status']}")
    return EXIT_OK


def _checked(cast, ok, rule: str):
    """An argparse type: `cast` of the text, refused unless `ok` holds, so a
    value out of range exits 2 at parse time."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid ... value"
    return parse


def _float_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of numbers") from None


_STEP = _checked(float, lambda v: 0.0 < v <= 180.0, "in (0, 180]")
_BETA = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_LOADING = _checked(float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(int, lambda v: v >= 1, ">= 1")
_SNR = _checked(float, math.isfinite, "a finite number")
_SNRS = _checked(_float_list, lambda v: all(map(math.isfinite, v)),
                 "a list of finite numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtfbeam",
        description="Moving-speaker RTF estimation, beamforming and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--beta", type=_BETA, default=rtf.DEFAULT_BETA,
                       help="PAST forgetting factor (default: %(default)s)")
        p.add_argument("--loading", type=_LOADING, default=covariance.DEFAULT_LOADING,
                       help="whitening diagonal loading (default: %(default)s)")
        p.add_argument("--mvdr-loading", type=_LOADING, default=beamformer.MVDR_LOADING,
                       help="MVDR diagonal loading (default: %(default)s)")

    def common_est(p):
        p.add_argument("--method", default="past", choices=pipeline.METHODS,
                       help="RTF source (default: past)")
        config_flags(p)
        p.add_argument("--noise-frames", type=_NON_NEGATIVE, default=0,
                       help="noise-only frame count; 0 = derive from lead silence")

    p = sub.add_parser("simulate", help="render scenario bundles to disk")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--count", type=_POSITIVE, default=1)
    p.add_argument("--snr", type=_SNR, default=10.0)
    p.add_argument("--static", action="store_true", help="pin the source")
    p.add_argument("--out", default="bundles")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate-rtf", help="estimate RTF trajectories for a bundle")
    p.add_argument("--bundle", required=True)
    common_est(p)
    p.set_defaults(func=cmd_estimate_rtf)

    p = sub.add_parser("beamform", help="beamform a bundle and score it")
    p.add_argument("--bundle", required=True)
    p.add_argument("--results", default="results.csv")
    common_est(p)
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("beampattern", help="export beampattern data for a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--angle-step", type=_STEP, default=1.0)
    common_est(p)
    p.set_defaults(func=cmd_beampattern)

    p = sub.add_parser("evaluate", help="run a seeds x SNR x method sweep")
    p.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    p.add_argument("--count", type=_POSITIVE, default=5)
    p.add_argument("--snrs", type=_SNRS, default="-10,0,10,20,30")
    p.add_argument("--methods", default="cw-batch,past,oracle")
    p.add_argument("--static", action="store_true")
    config_flags(p)
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
