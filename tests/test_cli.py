import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import collect_bins, count_calls, discard_bins, frames_of
from rtfbeam import cli, covariance, metrics, pipeline, rtf, simulator, stft


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, static_bundle):
    """Static 30 dB bundle written to disk once for the CLI tests."""
    root = tmp_path_factory.mktemp("bundles")
    out = root / "seed3"
    cli.write_bundle(out, static_bundle)
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------- bundles


def test_write_load_bundle_round_trip(bundle_dir, static_bundle):
    loaded = cli.load_bundle(bundle_dir)
    assert loaded.scenario.to_json() == static_bundle.scenario.to_json()
    # the noise-only frame count comes from scenario.json's lead silence alone
    assert "noise_frames" not in json.loads((bundle_dir / "ground_truth.json").read_text())
    assert loaded.snr_db == static_bundle.snr_db
    assert loaded.noise_frames == static_bundle.noise_frames
    # WAV payloads are float32, so round-trip within single precision
    np.testing.assert_allclose(loaded.mixture, static_bundle.mixture, atol=1e-6)
    np.testing.assert_array_equal(
        loaded.truth.active_frames, static_bundle.truth.active_frames
    )
    m = static_bundle.clean.shape[0]
    nframes = static_bundle.truth.doa_per_frame.size
    for side, ref in zip(rtf.SIDES, (0, m - 1)):
        # .rtfb payloads are complex64; the mask and the reference mic are
        # exact. The static truth's one frame is written to all L frames
        written, read = static_bundle.truth.rtf[side](), loaded.truth.rtf[side]()
        nbins = written.values.shape[0]
        np.testing.assert_array_equal(
            read.values,
            np.broadcast_to(written.values, (nbins, m, nframes)).astype(np.complex64))
        np.testing.assert_array_equal(read.valid,
                                      np.broadcast_to(written.valid, (nbins, nframes)))
        assert read.ref_channel == written.ref_channel == ref
        # the scores take a side's clean reference from clean.wav: it must be
        # the row that clean_ref_{side}.wav holds
        _, clean_ref = stft.read_wav(bundle_dir / f"clean_ref_{side}.wav")
        np.testing.assert_array_equal(loaded.clean[ref], clean_ref[0])


def test_bundle_snr_remeasured_from_files(tmp_path):
    rc = cli.main(
        ["simulate", "--seed", "11", "--count", "1", "--snr", "0", "--static",
         "--out", str(tmp_path)]
    )
    assert rc == cli.EXIT_OK
    out = next(tmp_path.iterdir())
    _, clean = stft.read_wav(out / "clean.wav")
    _, mixture = stft.read_wav(out / "mixture.wav")
    scaled_noise = mixture[0] - clean[0]
    ratio = np.mean(clean[0] ** 2) / np.mean(scaled_noise**2)
    assert abs(10.0 * np.log10(ratio)) < 1e-3  # 0 dB at the reference channel


def test_simulate_count_makes_multiple_bundles(tmp_path):
    rc = cli.main(
        ["simulate", "--seed", "20", "--count", "2", "--snr", "10", "--static",
         "--out", str(tmp_path)]
    )
    assert rc == cli.EXIT_OK
    dirs = sorted(p.name for p in tmp_path.iterdir())
    assert len(dirs) == 2
    for d in dirs:
        assert (tmp_path / d / "scenario.json").exists()
        assert (tmp_path / d / "mixture.wav").exists()


def test_simulate_count_holds_one_bundle_at_a_time(tmp_path):
    # numpy reports its buffers to tracemalloc. Each bundle is written and
    # dropped before the next renders, so a second bundle adds no clean,
    # noise and mixture (M, N) arrays (1.5 spectra) to the peak
    peaks = {}
    for count in (1, 2):
        tracemalloc.start()
        try:
            assert cli.main(["simulate", "--seed", "3", "--count", str(count),
                             "--out", str(tmp_path / str(count))]) == cli.EXIT_OK
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bundle = cli.load_bundle(next((tmp_path / "1").iterdir()))
    spectrum = (bundle.config.num_bins * bundle.mixture.shape[0]
                * bundle.config.num_frames(bundle.mixture.shape[1]) * 16)
    assert peaks[2] - peaks[1] <= 0.5 * spectrum, (peaks[2] - peaks[1]) / spectrum


def test_simulate_static_writes_every_frame_of_the_truth(tmp_path):
    # a static scene's truth keeps one frame in memory; its .rtfb files hold
    # all L frames of ground_truth.json, each a copy of the first
    rc = cli.main(["simulate", "--seed", "5", "--snr", "10", "--static",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    out = next(tmp_path.iterdir())
    meta = json.loads((out / "ground_truth.json").read_text())
    nframes = len(meta["doa_per_frame_deg"])
    for side in rtf.SIDES:
        traj, _ = rtf.load_trajectory(out / f"rtf_true_{side}.rtfb")
        assert traj.values.shape[2] == traj.valid.shape[1] == nframes
        assert np.all(traj.values == traj.values[:, :, :1])


def _counting_reads(monkeypatch):
    """Names of the files read through `rtf.load_trajectory` (a truth body)
    and `stft.read_wav` (WAV samples), in call order."""
    read = []
    for module, name in ((rtf, "load_trajectory"), (stft, "read_wav")):
        def counted(path, *args, fn=getattr(module, name)):
            read.append(os.path.basename(path))
            return fn(path, *args)
        monkeypatch.setattr(module, name, counted)
    return read


@pytest.mark.parametrize("argv, truths", [
    (["beamform", "--method", "none"], set()),
    (["beampattern", "--method", "past"], set()),
    (["beampattern", "--method", "cw-batch"], set()),
    (["beamform", "--method", "past"], {"rtf_true_left.rtfb"}),  # the left RTF MSE
    (["beamform", "--method", "oracle"], {"rtf_true_left.rtfb", "rtf_true_right.rtfb"}),
], ids=["beamform-none", "beampattern-past", "beampattern-cw-batch", "beamform-past",
        "beamform-oracle"])
def test_a_command_reads_only_the_files_its_method_uses(
    bundle_dir, tmp_path, monkeypatch, argv, truths
):
    # noise.wav and the truth files are checked by their headers; a truth
    # body is read only where the method uses it, noise samples never
    read = _counting_reads(monkeypatch)
    results = ["--results", str(tmp_path / "r.csv")] if argv[0] == "beamform" else []
    assert cli.main([argv[0], "--bundle", str(bundle_dir), *argv[1:], *results]) == cli.EXIT_OK
    assert {name for name in read if name.endswith(".rtfb")} == truths
    assert {name for name in read if name.endswith(".wav")} == {"mixture.wav", "clean.wav"}


def test_a_truth_maker_gives_the_same_bits_on_every_call(
    bundle_dir, static_bundle, moving_bundle
):
    # a simulated bundle's makers compute the truth from geometry, a loaded
    # one's read it from its file; each call returns a fresh trajectory, and
    # an 'oracle' cell, which writes its weights over the truth it is given,
    # leaves the next call's bits as they were
    for bundle in (static_bundle, moving_bundle, cli.load_bundle(bundle_dir)):
        first = {side: make() for side, make in bundle.truth.rtf.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the Nyquist bin is a dead bin
            pipeline.evaluate_bundle(bundle, "oracle")
        for side, make in bundle.truth.rtf.items():
            again = make()
            assert again.values is not first[side].values
            np.testing.assert_array_equal(again.values, first[side].values)
            np.testing.assert_array_equal(again.valid, first[side].valid)
            assert again.ref_channel == first[side].ref_channel


def test_a_loaded_bundle_carries_no_noise_and_cannot_be_remixed(bundle_dir):
    loaded = cli.load_bundle(bundle_dir)
    assert loaded.noise is None
    with pytest.raises(ValueError, match="carries no noise samples"):
        pipeline.remix(loaded, 0.0)


# ---------------------------------------------------------- subcommands


def test_estimate_rtf_oracle_hits_floor(bundle_dir):
    rc = cli.main(["estimate-rtf", "--bundle", str(bundle_dir), "--method", "oracle"])
    assert rc == cli.EXIT_OK
    rows = _read_csv(bundle_dir / "rtf_mse.csv")
    assert {r["side"] for r in rows} == {"left", "right"}
    for r in rows:
        assert float(r["mse_db"]) == -120.0


def test_estimate_rtf_past_static_high_snr(bundle_dir):
    rc = cli.main(["estimate-rtf", "--bundle", str(bundle_dir), "--method", "past"])
    assert rc == cli.EXIT_OK
    for r in _read_csv(bundle_dir / "rtf_mse.csv"):
        assert float(r["mse_db"]) <= -20.0
    traj, meta = rtf.load_trajectory(bundle_dir / "rtf_est_left.rtfb")
    assert traj.ref_channel == 0
    assert meta["window_len"] == 512


@pytest.mark.parametrize("method", ["cw-batch", "none"])
def test_estimate_rtf_writes_frame_invariant_trajectories_with_every_frame(
    bundle_dir, static_bundle, method
):
    # the estimate keeps one frame; the file repeats it over the L frames
    # of the spectrogram, as the true trajectories in the bundle have them
    rc = cli.main(["estimate-rtf", "--bundle", str(bundle_dir), "--method", method])
    assert rc == cli.EXIT_OK
    nframes = static_bundle.config.num_frames(static_bundle.mixture.shape[1])
    for side in ("left", "right"):
        traj, _ = rtf.load_trajectory(bundle_dir / f"rtf_est_{side}.rtfb")
        assert traj.values.shape[2] == traj.valid.shape[1] == nframes
        assert np.all(traj.values == traj.values[:, :, :1])
        assert np.all(traj.valid == traj.valid[:, :1])


def test_a_failed_estimate_rtf_writes_nothing(tmp_path, static_bundle, capsys):
    # with every frame taken as noise-only, PAST starts after the last frame:
    # no cell is valid, so no side can be scored and the run exits 1
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    nframes = static_bundle.config.num_frames(static_bundle.mixture.shape[1])
    failing = ["estimate-rtf", "--bundle", str(out), "--method", "past",
               "--noise-frames", str(nframes)]
    for earlier in ([], ["--method", "cw-batch"]):
        if earlier:
            assert cli.main(["estimate-rtf", "--bundle", str(out), *earlier]) == cli.EXIT_OK
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert cli.main(failing) == cli.EXIT_RUNTIME
        assert "no valid cells" in capsys.readouterr().err
        # no new rtf_est_*.rtfb or rtf_mse.csv, and an earlier run's unchanged
        assert {path.name: path.read_bytes() for path in out.iterdir()} == files


def test_estimate_rtf_bad_path_exit_code(tmp_path):
    assert cli.main(["estimate-rtf", "--bundle", "/nonexistent"]) == cli.EXIT_CONFIG
    # a file given as the bundle directory is a bad path too
    (tmp_path / "results.csv").write_text("")
    assert cli.main(["estimate-rtf", "--bundle", str(tmp_path / "results.csv")]) \
        == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def bundle_dir_10db(tmp_path_factory, static_bundle):
    """The same static scene remixed to 10 dB, where MVDR has noise to remove."""
    out = tmp_path_factory.mktemp("bundles10") / "seed3"
    cli.write_bundle(out, pipeline.remix(static_bundle, 10.0))
    return out


def test_beamform_oracle_improves_si_sdr(bundle_dir_10db, tmp_path):
    results = tmp_path / "results.csv"
    argv = ["beamform", "--bundle", str(bundle_dir_10db), "--method", "oracle",
            "--results", str(results)]
    assert cli.main(argv) == cli.EXIT_OK
    (row,) = _read_csv(results)
    assert float(row["si_sdr_left"]) > float(row["si_sdr_input_left"])
    assert float(row["si_sdr_right"]) > float(row["si_sdr_input_right"])
    assert (bundle_dir_10db / "enhanced_left.wav").exists()
    # a last row torn by a crash is cut, and one complete row appended
    text = results.read_text()
    line = text.splitlines()[1]
    results.write_text(text + line[:20])
    assert cli.main(argv) == cli.EXIT_OK
    assert results.read_text() == text + line + "\n"


def test_beamform_refuses_results_with_other_columns_before_any_work(
    tmp_path, static_bundle, capsys
):
    # the results file is checked before the bundle is read: a refused run
    # writes no enhanced WAV, and an earlier run's stay as they were
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    results = tmp_path / "old.csv"
    results.write_text("scenario_id,snr_db,method,status\nseed3,30.0,past,ok\n")
    before = results.read_bytes()
    refused = ["beamform", "--bundle", str(out), "--method", "none",
               "--results", str(results)]
    for earlier in ([], ["--method", "past", "--results", str(tmp_path / "r.csv")]):
        if earlier:
            assert cli.main(["beamform", "--bundle", str(out), *earlier]) == cli.EXIT_OK
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert cli.main(refused) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {results} has columns")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == files
        assert results.read_bytes() == before
    assert "enhanced_left.wav" in files


def test_beamform_none_is_reference_passthrough(bundle_dir, tmp_path, static_bundle):
    rc = cli.main(
        ["beamform", "--bundle", str(bundle_dir), "--method", "none",
         "--results", str(tmp_path / "r.csv")]
    )
    assert rc == cli.EXIT_OK
    _, enhanced = stft.read_wav(bundle_dir / "enhanced_left.wav")
    ref = static_bundle.mixture[0]
    n = min(enhanced.shape[1], ref.shape[0])
    lo, hi = 512, n - 512  # interior, outside the analysis-window taper
    err = np.linalg.norm(enhanced[0, lo:hi] - ref[lo:hi]) / np.linalg.norm(ref[lo:hi])
    assert err < 1e-5


@pytest.mark.parametrize("command", ["beamform", "beampattern", "estimate-rtf"])
def test_a_command_analyzes_and_decomposes_once(bundle_dir_10db, tmp_path, monkeypatch,
                                                command):
    # each command runs the cell's blocks of frames: each frame is analysed
    # and whitened once, and Phi_nn is decomposed once
    analyzed = count_calls(monkeypatch, stft.analyze, frames_of)
    whitened = count_calls(monkeypatch, covariance.whiten, frames_of)
    evd = count_calls(monkeypatch, covariance.hermitian_evd)
    results = ["--results", str(tmp_path / "r.csv")] if command == "beamform" else []
    rc = cli.main([command, "--bundle", str(bundle_dir_10db), "--method", "past", *results])
    assert rc == cli.EXIT_OK
    bundle = cli.load_bundle(bundle_dir_10db)
    nframes = bundle.config.num_frames(bundle.mixture.shape[1])
    assert (analyzed[0], whitened[0], evd[0]) == (nframes, nframes, 1)


def test_the_output_defaults_ignore_the_environment(monkeypatch):
    # `simulate --out` names a directory and `evaluate --out` a file, so no
    # one setting can serve as the default of both
    monkeypatch.setenv("RTFBEAM_OUT", "elsewhere")
    parser = cli.build_parser()
    assert parser.parse_args(["simulate"]).out == "bundles"
    assert parser.parse_args(["evaluate"]).out == "results.csv"


def test_beamform_missing_bundle(tmp_path):
    assert (
        cli.main(["beamform", "--bundle", "/nonexistent", "--results", str(tmp_path / "x.csv")])
        == cli.EXIT_CONFIG
    )


def test_beamform_on_a_cut_trajectory_file_names_it(tmp_path, static_bundle, capsys):
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    path = out / "rtf_true_left.rtfb"
    path.write_bytes(path.read_bytes()[:1000])
    rc = cli.main(["beamform", "--bundle", str(out), "--results", str(tmp_path / "r.csv")])
    assert rc == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error: {path}: 1000 bytes")


# each defect edits the left truth file and returns the misfits named first
def _swap_truth_sides(out, static_bundle):
    left, right = out / "rtf_true_left.rtfb", out / "rtf_true_right.rtfb"
    left_bytes = left.read_bytes()
    left.write_bytes(right.read_bytes())
    right.write_bytes(left_bytes)
    return ["ref_channel 7, expected 0"]


def _truth_of_another_stft(out, static_bundle):
    # the left truth written as if analysed with a hop of 128, in its one frame
    traj = static_bundle.truth.rtf["left"]()
    config = dataclasses.replace(static_bundle.config, hop=128)
    with open(out / "rtf_true_left.rtfb", "wb") as fh:
        rtf.save_trajectory(fh, traj, config)
    nframes = static_bundle.truth.doa_per_frame.size
    return [f"(F, M, L) (257, 8, 1), expected (257, 8, {nframes})", "hop 128, expected 256"]


def _truth_one_frame_short(out, static_bundle):
    nbins, m, _ = static_bundle.truth.rtf["left"]().values.shape
    nframes = static_bundle.truth.doa_per_frame.size
    traj = rtf.RtfTrajectory(np.ones((nbins, m, nframes - 1), dtype=complex), 0)
    with open(out / "rtf_true_left.rtfb", "wb") as fh:
        rtf.save_trajectory(fh, traj, static_bundle.config)
    return [f"(F, M, L) (257, 8, {nframes - 1}), expected (257, 8, {nframes})"]


@pytest.mark.parametrize("defect", [_swap_truth_sides, _truth_of_another_stft,
                                    _truth_one_frame_short])
@pytest.mark.parametrize("method", ["oracle", "past"])
def test_a_truth_file_that_does_not_fit_the_bundle_is_refused_by_name(
    tmp_path, static_bundle, capsys, defect, method
):
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    misfits = defect(out, static_bundle)
    rc = cli.main(["beamform", "--bundle", str(out), "--method", method,
                   "--results", str(tmp_path / "r.csv")])
    assert rc == cli.EXIT_RUNTIME
    path = out / "rtf_true_left.rtfb"
    assert capsys.readouterr().err.startswith(
        "error: " + "; ".join(f"{path}: {misfit}" for misfit in misfits))
    assert not (out / "enhanced_left.wav").exists()


@pytest.mark.parametrize("name,cut", [
    ("clean.wav", lambda x: x[:, :-300]),  # 300 samples short
    ("noise.wav", lambda x: x[:4]),  # 4 of the 8 channels
])
def test_a_wav_that_does_not_fit_the_mixture_is_refused_by_name(
    tmp_path, static_bundle, capsys, name, cut
):
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    signal = cut(getattr(static_bundle, name[:-4]))
    stft.write_wav(out / name, 16000, signal)
    files = sorted(out.iterdir())
    for argv in (["estimate-rtf"], ["beamform", "--results", str(tmp_path / "r.csv")],
                 ["beampattern"]):
        capsys.readouterr()
        rc = cli.main([argv[0], "--bundle", str(out), *argv[1:]])
        assert rc == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            f"error: {out / name}: (M, N) {signal.shape}, "
            f"expected {static_bundle.mixture.shape}")
    # no enhanced WAV, nor any other output
    assert sorted(out.iterdir()) == files
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key", ["doa_per_frame_deg", "active_frames"])
def test_a_truth_list_that_does_not_fit_the_bundle_is_refused_by_name(
    tmp_path, static_bundle, capsys, key
):
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    path = out / "ground_truth.json"
    meta = json.loads(path.read_text())
    meta[key] = meta[key][:-1]  # one frame short
    path.write_text(json.dumps(meta))
    nframes = static_bundle.config.num_frames(static_bundle.mixture.shape[1])
    files = sorted(out.iterdir())
    for argv in (["estimate-rtf"], ["beamform", "--results", str(tmp_path / "r.csv")],
                 ["beampattern", "--method", "past"],
                 ["beampattern", "--method", "cw-batch"]):
        capsys.readouterr()
        rc = cli.main([argv[0], "--bundle", str(out), *argv[1:]])
        assert rc == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            f"error: {path}: {key} ({nframes - 1},), expected ({nframes},)")
    assert sorted(out.iterdir()) == files
    assert not (tmp_path / "r.csv").exists()


BUNDLE_FILES = ("scenario.json", "ground_truth.json", "mixture.wav", "clean.wav",
                "noise.wav", "rtf_true_left.rtfb", "rtf_true_right.rtfb")


def _edit_json(name, edit):
    def defect(out):
        path = out / name
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
    return defect


def _contract_cases():
    """(id, defect, exit code, the file the message names, text it holds)."""
    # every key of the one table that write_bundle and load_bundle walk
    for key in cli.GROUND_TRUTH_KEYS:
        yield (f"ground_truth-{key}", _edit_json("ground_truth.json", lambda d, k=key: d.pop(k)),
               cli.EXIT_RUNTIME, "ground_truth.json", f"KeyError: '{key}'")
    for field in dataclasses.fields(stft.StftConfig):
        key = field.name  # a missing hop is refused, not taken as the default
        yield (f"ground_truth-stft.{key}",
               _edit_json("ground_truth.json", lambda d, k=key: d["stft"].pop(k)),
               cli.EXIT_RUNTIME, "ground_truth.json", f"KeyError: '{key}'")
    for field in dataclasses.fields(simulator.Scenario):
        if field.default is dataclasses.MISSING:
            key = field.name
            yield (f"scenario-{key}", _edit_json("scenario.json", lambda d, k=key: d.pop(k)),
                   cli.EXIT_RUNTIME, "scenario.json", f"KeyError: '{key}'")
    # scenario.json sets (M, N): the WAVs are held against it, mixture.wav first
    yield ("scenario-num_mics-4", _edit_json("scenario.json", lambda d: d.update(num_mics=4)),
           cli.EXIT_RUNTIME, "mixture.wav", "(M, N) (8, 64000), expected (4, 64000)")
    yield ("scenario-duration_s-3", _edit_json("scenario.json",
                                               lambda d: d.update(duration_s=3.0)),
           cli.EXIT_RUNTIME, "mixture.wav", "(M, N) (8, 64000), expected (8, 48000)")
    for name in ("ground_truth.json", "scenario.json"):
        yield (f"{name}-garbled", lambda out, n=name: (out / n).write_text("{garbled"),
               cli.EXIT_RUNTIME, name, "Expecting property name")
    for name in BUNDLE_FILES:
        yield (f"missing-{name}", lambda out, n=name: (out / n).unlink(),
               cli.EXIT_CONFIG, name, "")


CONTRACT_CASES = list(_contract_cases())


@pytest.mark.parametrize("defect, rc, named, text", [case[1:] for case in CONTRACT_CASES],
                         ids=[case[0] for case in CONTRACT_CASES])
def test_every_bundle_fault_is_refused_by_file_and_key(
    tmp_path, bundle_dir, capsys, defect, rc, named, text
):
    # the JSON files are copied, to be edited; the WAV and .rtfb files are
    # linked, as a case at most deletes them
    out = tmp_path / "bundle"
    out.mkdir()
    for name in BUNDLE_FILES:
        if name.endswith(".json"):
            shutil.copy(bundle_dir / name, out / name)
        else:
            (out / name).symlink_to(bundle_dir / name)
    defect(out)
    files = sorted(out.iterdir())
    for argv in (["estimate-rtf"], ["beamform", "--results", str(tmp_path / "r.csv")],
                 ["beampattern"]):
        capsys.readouterr()
        assert cli.main([argv[0], "--bundle", str(out), "--method", "cw-batch",
                         *argv[1:]]) == rc
        err = capsys.readouterr().err
        if rc == cli.EXIT_RUNTIME:
            assert err.startswith(f"error: {out / named}: ") and text in err, err
        else:
            assert err.startswith("configuration error: ") and str(out / named) in err, err
    assert sorted(out.iterdir()) == files
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("name,defect", [
    ("mixture.wav", "unsupported sample format (tag 0x1, 8-bit"),
    ("clean.wav", "short data chunk"),
])
def test_beamform_on_an_unreadable_wav_names_it(tmp_path, static_bundle, capsys, name, defect):
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    path = out / name
    if name == "mixture.wav":  # 8-bit PCM, which read_wav does not read
        pcm8 = np.clip(static_bundle.mixture.T * 128.0 + 128.0, 0, 255).astype(np.uint8)
        wavfile.write(path, 16000, pcm8)
    else:
        path.write_bytes(path.read_bytes()[:-5])
    capsys.readouterr()
    rc = cli.main(["beamform", "--bundle", str(out), "--results", str(tmp_path / "r.csv")])
    assert rc == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error: {path}: {defect}")
    assert not (tmp_path / "r.csv").exists()


def test_beamform_on_a_dead_reference_mic_names_it(tmp_path, static_bundle, capsys):
    mixture = static_bundle.mixture.copy()
    mixture[0] = 0.0
    out = tmp_path / "bundle"
    cli.write_bundle(out, dataclasses.replace(static_bundle, mixture=mixture))
    results = tmp_path / "r.csv"
    capsys.readouterr()
    rc = cli.main(["beamform", "--bundle", str(out), "--results", str(results)])
    assert rc == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: reference mic 0 (left side) is dead")
    assert not results.exists() and not (out / "enhanced_left.wav").exists()


@pytest.mark.parametrize("method", ["cw-batch", "past", "oracle"])
def test_a_dead_right_mic_refuses_beamform_but_not_the_left_beampattern(
    tmp_path, static_bundle, capsys, method
):
    # the beampattern only uses the left side, so only mic 0 is checked
    mixture = static_bundle.mixture.copy()
    mixture[-1] = 0.0
    bundle = dataclasses.replace(static_bundle, mixture=mixture)
    bins, sink = collect_bins()
    _, wideband = pipeline.beampattern(bundle, method, sink, angle_step_deg=5.0)
    assert np.all(np.isfinite(bins)) and np.all(np.isfinite(wideband))
    out = tmp_path / "bundle"
    cli.write_bundle(out, bundle)
    args = ["--bundle", str(out), "--method", method]
    assert cli.main(["beampattern", *args, "--angle-step", "5"]) == cli.EXIT_OK
    assert np.all(np.isfinite(np.load(out / "beampattern_narrowband.npy")))
    values = [float(r["value"]) for r in _read_csv(out / "beampattern_wideband.csv")]
    assert np.all(np.isfinite(values))
    errs = [r["doa_error_deg"] for r in _read_csv(out / "doa_error.csv")]
    assert np.all(np.isfinite([float(e) for e in errs if e]))
    capsys.readouterr()
    rc = cli.main(["beamform", *args, "--results", str(tmp_path / "r.csv")])
    assert rc == cli.EXIT_RUNTIME
    assert capsys.readouterr().err.startswith("error: reference mic 7 (right side) is dead")


def test_a_lead_silence_shorter_than_a_window_needs_noise_frames(
    tmp_path, static_bundle, capsys
):
    # 0.01 s is less than one 512-sample window: no frame is noise-only, so
    # the count is 0 and the estimate asks for --noise-frames
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    path = out / "scenario.json"
    scenario = json.loads(path.read_text())
    scenario["lead_silence_s"] = 0.01
    path.write_text(json.dumps(scenario))
    assert cli.load_bundle(out).noise_frames == 0
    args = ["beamform", "--bundle", str(out), "--method", "cw-batch",
            "--results", str(tmp_path / "r.csv")]
    capsys.readouterr()
    assert cli.main(args) == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("error: the lead silence of 0.01 s is shorter than one "
                          "512-sample window")
    assert "--noise-frames" in err
    assert cli.main([*args, "--noise-frames", "20"]) == cli.EXIT_OK


def test_beampattern_outputs(bundle_dir):
    rc = cli.main(
        ["beampattern", "--bundle", str(bundle_dir), "--method", "oracle",
         "--angle-step", "5"]
    )
    assert rc == cli.EXIT_OK
    rows = _read_csv(bundle_dir / "beampattern_wideband.csv")
    n_angles = len(np.arange(-90.0, 95.0, 5.0))
    n_frames = {int(r["frame"]) for r in rows}
    assert len(rows) == n_angles * len(n_frames)
    narrow = np.load(bundle_dir / "beampattern_narrowband.npy")
    assert narrow.shape[1] == n_angles
    errs = _read_csv(bundle_dir / "doa_error.csv")
    vals = [float(r["doa_error_deg"]) for r in errs if r["doa_error_deg"]]
    assert np.mean(vals) <= 10.0


def test_beampattern_wideband_csv_is_what_a_csv_writer_writes(bundle_dir):
    # the CSV is written from Python float reprs, one string per angle; its
    # bytes must be those of csv.writer over the grid's numpy scalars, and
    # each value must read back as the float in the grid
    rc = cli.main(["beampattern", "--bundle", str(bundle_dir), "--angle-step", "5"])
    assert rc == cli.EXIT_OK
    angles, wideband = pipeline.beampattern(
        cli.load_bundle(bundle_dir), "past", discard_bins, angle_step_deg=5.0)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["frame", "bin", "theta_deg", "value"])
    writer.writerows((l, "wideband", theta, value)
                     for theta, powers in zip(angles, wideband)
                     for l, value in enumerate(powers))
    written = (bundle_dir / "beampattern_wideband.csv").read_bytes()
    assert written == ref.getvalue().encode()
    values = [float(r["value"]) for r in _read_csv(bundle_dir / "beampattern_wideband.csv")]
    np.testing.assert_array_equal(values, wideband.ravel())


def test_frame_invariant_wideband_csv_is_the_per_value_formatting(bundle_dir):
    # a cw-batch pattern is one column broadcast over the frames, and its CSV
    # formats each angle's value once; the bytes must be those of formatting
    # every (frame, angle) value on its own
    args = ["beampattern", "--bundle", str(bundle_dir), "--method", "cw-batch"]
    assert cli.main(args) == cli.EXIT_OK
    angles, wideband = pipeline.beampattern(cli.load_bundle(bundle_dir), "cw-batch",
                                            discard_bins)
    assert wideband.strides[1] == 0
    ref = ["frame,bin,theta_deg,value\n"]
    ref += [f"{l},wideband,{theta!r},{value!r}\n"
            for theta, powers in zip(angles.tolist(), wideband.tolist())
            for l, value in enumerate(powers)]
    assert (bundle_dir / "beampattern_wideband.csv").read_bytes() == "".join(ref).encode()


@pytest.mark.parametrize("fallocate", ["present", "absent", "raising"])
@pytest.mark.parametrize("method", ["past", "cw-batch"])
def test_beampattern_npy_is_np_save_of_the_collected_bins(
    bundle_dir, monkeypatch, method, fallocate
):
    # the .npy is streamed one float32 bin at a time into a preallocated
    # temp file; its bytes must be those of np.save of the whole float32
    # grid, with per-frame ('past') and broadcast ('cw-batch') bins, and
    # whether or not the platform can preallocate
    sizes = []
    if fallocate == "present":
        real = os.posix_fallocate

        def spy(fd, offset, size):
            sizes.append(size)
            real(fd, offset, size)

        monkeypatch.setattr(os, "posix_fallocate", spy)
    elif fallocate == "absent":
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        def refuse(fd, offset, size):
            raise OSError(95, "Operation not supported")

        monkeypatch.setattr(os, "posix_fallocate", refuse)
    args = ["beampattern", "--bundle", str(bundle_dir), "--method", method]
    assert cli.main([*args, "--angle-step", "5"]) == cli.EXIT_OK
    bins, sink = collect_bins()
    pipeline.beampattern(cli.load_bundle(bundle_dir), method, sink, angle_step_deg=5.0)
    ref = io.BytesIO()
    np.save(ref, np.stack(bins).astype(np.float32))
    written = (bundle_dir / "beampattern_narrowband.npy").read_bytes()
    assert written == ref.getvalue()
    assert sizes == ([len(written)] if fallocate == "present" else [])
    assert list(bundle_dir.glob("*.tmp*")) == []


def test_beampattern_memory_does_not_grow_with_the_narrowband_grid(bundle_dir):
    # numpy reports its buffers to tracemalloc. From 37 angles to 181, the
    # streamed pattern's peak grows by its per-bin buffers and steering
    # vectors, a few MB; holding the grid would add at least its float32
    # size, F * (181 - 37) * L * 4 bytes (37 MB)
    peaks = {}
    for step in ("1", "5"):
        tracemalloc.start()
        try:
            args = ["beampattern", "--bundle", str(bundle_dir), "--angle-step", step]
            assert cli.main(args) == cli.EXIT_OK
            peaks[step] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bundle = cli.load_bundle(bundle_dir)
    nframes = bundle.config.num_frames(bundle.mixture.shape[1])
    grid_growth = bundle.config.num_bins * (181 - 37) * nframes * 4
    assert peaks["1"] - peaks["5"] < grid_growth


def test_beampattern_failing_score_keeps_earlier_outputs(tmp_path, static_bundle, capsys):
    # 'none' passes the reference channel through: its pattern is flat in
    # every frame, so the DOA score fails; it must do so before any write
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    args = ["beampattern", "--bundle", str(out), "--angle-step", "5"]
    assert cli.main([*args, "--method", "past"]) == cli.EXIT_OK
    names = ("beampattern_narrowband.npy", "beampattern_wideband.csv", "doa_error.csv")
    before = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    capsys.readouterr()
    assert cli.main([*args, "--method", "none"]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "error: no frames available for DOA error\n"
    after = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}
    assert after == before
    assert list(out.glob("*.tmp*")) == []


# ------------------------------------------------------------- evaluate


def test_evaluate_grid_and_resume(tmp_path):
    out = tmp_path / "results.csv"
    args = ["evaluate", "--seed", "3", "--count", "1", "--static",
            "--snrs", "0,10,20", "--methods", "cw-batch,past,oracle",
            "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    rows = _read_csv(out)
    assert len(rows) == 9  # 3 methods x 3 SNRs
    assert all(r["status"] == "ok" for r in rows)
    before = out.read_bytes()
    # resume: everything is already done, so the file must not change
    assert cli.main(args) == cli.EXIT_OK
    assert out.read_bytes() == before


def test_evaluate_resume_key_includes_configuration(tmp_path, monkeypatch):
    # a rerun with other result-changing flags must evaluate its cells, and a
    # rerun whose cells are all done must not render its seed
    evaluated = []
    rendered = []

    def fake_simulate(seed, snr, static=False):
        rendered.append((seed, snr, static))
        return (seed, snr, static)

    def fake_evaluate(bundle, method, beta, loading, mvdr_loading):
        evaluated.append((bundle[2], beta, loading, mvdr_loading))
        return metrics.EvalReport(f"seed{bundle[0]}", bundle[1], method)

    monkeypatch.setattr(pipeline, "simulate", fake_simulate)
    monkeypatch.setattr(pipeline, "evaluate_bundle", fake_evaluate)
    out = tmp_path / "results.csv"
    base = ["evaluate", "--seed", "3", "--count", "1", "--snrs", "10",
            "--methods", "past", "--out", str(out)]
    reruns = [[], ["--static"], ["--beta", "0.5"], ["--loading", "1e-4"],
              ["--mvdr-loading", "0.2"]]
    for flags in reruns:
        assert cli.main(base + flags) == cli.EXIT_OK
    assert len(rendered) == len(reruns)
    for flags in reruns:  # the second pass finds every cell done
        assert cli.main(base + flags) == cli.EXIT_OK
    assert len(rendered) == len(reruns)
    assert evaluated == [
        (False, 0.7, 1e-6, 0.1), (True, 0.7, 1e-6, 0.1), (False, 0.5, 1e-6, 0.1),
        (False, 0.7, 1e-4, 0.1), (False, 0.7, 1e-6, 0.2),
    ]
    assert [tuple(r[k] for k in cli.CONFIG_FIELDS) for r in _read_csv(out)] == [
        ("0", "0.7", "1e-06", "0.1"), ("1", "0.7", "1e-06", "0.1"),
        ("0", "0.5", "1e-06", "0.1"), ("0", "0.7", "0.0001", "0.1"),
        ("0", "0.7", "1e-06", "0.2"),
    ]


@pytest.mark.parametrize("torn_row", [
    "seed3,20.0,none,1,0.7,1e-",  # torn inside the resume key
    "seed3,20.0,none,1,0.7,1e-06,0.1,o",  # torn after a complete key
])
def test_evaluate_resume_cuts_a_torn_last_row(tmp_path, monkeypatch, torn_row):
    # a crash mid-row leaves a last line without its newline; the rerun must
    # evaluate that cell once and replace the torn row, not append to it
    evaluated = []

    def fake_evaluate(bundle, method, beta, loading, mvdr_loading):
        evaluated.append((bundle[1], method))
        return metrics.EvalReport(f"seed{bundle[0]}", bundle[1], method)

    monkeypatch.setattr(pipeline, "simulate", lambda seed, snr, static: (seed, snr))
    monkeypatch.setattr(pipeline, "remix", lambda bundle, snr: (bundle[0], snr))
    monkeypatch.setattr(pipeline, "evaluate_bundle", fake_evaluate)
    out = tmp_path / "results.csv"
    args = ["evaluate", "--seed", "3", "--count", "1", "--static", "--snrs",
            "10,20", "--methods", "none", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_OK
    text = out.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    assert text[last:].startswith(torn_row)
    out.write_text(text[:last] + torn_row)
    evaluated.clear()

    assert cli.main(args) == cli.EXIT_OK
    assert evaluated == [(20.0, "none")]
    lines = out.read_text().splitlines()
    assert all(len(row) == len(cli.RESULT_FIELDS) for row in csv.reader(lines))
    keys = [tuple(r[k] for k in cli.KEY_FIELDS) for r in _read_csv(out)]
    assert len(keys) == len(set(keys)) == 2


def test_evaluate_remixes_only_the_snrs_it_evaluates(tmp_path, monkeypatch):
    # the seed is rendered at the first SNR and remixed to an SNR only when
    # that SNR has a due cell: a rerun that adds SNR 30 remixes once
    calls = []

    def fake_simulate(seed, snr, static=False):
        calls.append(("simulate", snr))
        return (seed, snr)

    def fake_remix(bundle, snr):
        calls.append(("remix", snr))
        return (bundle[0], snr)

    def fake_evaluate(bundle, method, beta, loading, mvdr_loading):
        calls.append(("evaluate", bundle[1], method))
        return metrics.EvalReport(f"seed{bundle[0]}", bundle[1], method)

    monkeypatch.setattr(pipeline, "simulate", fake_simulate)
    monkeypatch.setattr(pipeline, "remix", fake_remix)
    monkeypatch.setattr(pipeline, "evaluate_bundle", fake_evaluate)
    out = tmp_path / "results.csv"
    args = ["evaluate", "--seed", "3", "--count", "1", "--methods", "none,past",
            "--out", str(out)]
    assert cli.main([*args, "--snrs", "10,20"]) == cli.EXIT_OK
    calls.clear()
    assert cli.main([*args, "--snrs", "10,20,30"]) == cli.EXIT_OK
    assert calls == [("simulate", 10.0), ("remix", 30.0),
                     ("evaluate", 30.0, "none"), ("evaluate", 30.0, "past")]
    assert len(_read_csv(out)) == 6


def test_evaluate_writes_a_repeated_snr_or_method_once(tmp_path, monkeypatch):
    evaluated = []

    def fake_evaluate(bundle, method, beta, loading, mvdr_loading):
        evaluated.append((bundle[1], method))
        return metrics.EvalReport(f"seed{bundle[0]}", bundle[1], method)

    monkeypatch.setattr(pipeline, "simulate", lambda seed, snr, static: (seed, snr))
    monkeypatch.setattr(pipeline, "evaluate_bundle", fake_evaluate)
    out = tmp_path / "results.csv"
    rc = cli.main(["evaluate", "--seed", "5", "--count", "1", "--static", "--snrs",
                   "10,10", "--methods", "none,none", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert evaluated == [(10.0, "none")]
    (row,) = _read_csv(out)
    assert (row["snr_db"], row["method"], row["status"]) == ("10.0", "none", "ok")


def test_evaluate_refuses_results_with_other_columns(tmp_path):
    out = tmp_path / "results.csv"
    out.write_text("scenario_id,snr_db,method,status\nseed3,10.0,past,ok\n")
    before = out.read_bytes()
    rc = cli.main(
        ["evaluate", "--seed", "3", "--count", "1", "--snrs", "10",
         "--methods", "past", "--out", str(out)]
    )
    assert rc == cli.EXIT_CONFIG
    assert out.read_bytes() == before


def test_evaluate_mse_monotone_over_snr(tmp_path):
    out = tmp_path / "results.csv"
    rc = cli.main(
        ["evaluate", "--seed", "3", "--count", "1", "--static",
         "--snrs=-10,0,10,20,30", "--methods", "cw-batch", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    mses = [float(r["rtf_mse_db"]) for r in _read_csv(out)]
    assert len(mses) == 5
    assert all(b < a for a, b in zip(mses, mses[1:]))


def test_evaluate_unknown_method_exit_code(tmp_path):
    rc = cli.main(
        ["evaluate", "--seed", "0", "--count", "1", "--methods", "magic",
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == cli.EXIT_CONFIG


def test_evaluate_records_failure_rows(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(pipeline, "evaluate_bundle", boom)
    out = tmp_path / "results.csv"
    rc = cli.main(
        ["evaluate", "--seed", "3", "--count", "1", "--static", "--snrs", "10",
         "--methods", "past", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    (row,) = _read_csv(out)
    assert row["status"].startswith("error:")


def test_evaluate_retries_a_failed_cell(tmp_path, monkeypatch):
    # an error row does not mark its cell done: the rerun evaluates it again
    # and appends its new row, and a third run finds every cell done
    calls = []

    def flaky(bundle, method, beta, loading, mvdr_loading):
        calls.append(method)
        if len(calls) == 1:
            raise MemoryError("transient")
        return metrics.EvalReport("seed3", 10.0, method)

    monkeypatch.setattr(pipeline, "simulate", lambda seed, snr, static: None)
    monkeypatch.setattr(pipeline, "evaluate_bundle", flaky)
    out = tmp_path / "results.csv"
    args = ["evaluate", "--seed", "3", "--count", "1", "--snrs", "10",
            "--methods", "none", "--out", str(out)]
    for _ in range(3):
        assert cli.main(args) == cli.EXIT_OK
    assert calls == ["none", "none"]
    assert [r["status"] for r in _read_csv(out)] == ["error: MemoryError: transient", "ok"]


def test_evaluate_failure_rows_keep_the_exception_type(tmp_path, monkeypatch):
    def no_valid_cells(*args, **kwargs):
        raise rtf.RtfError("no valid cells for MSE computation")

    monkeypatch.setattr(pipeline, "simulate", lambda seed, snr, static: None)
    monkeypatch.setattr(pipeline, "evaluate_bundle", no_valid_cells)
    out = tmp_path / "results.csv"
    rc = cli.main(
        ["evaluate", "--seed", "3", "--count", "1", "--snrs", "10",
         "--methods", "cw-batch", "--out", str(out)]
    )
    assert rc == cli.EXIT_OK
    (row,) = _read_csv(out)
    assert row["status"] == "error: RtfError: no valid cells for MSE computation"


def test_bad_arguments_exit_code(bundle_dir, tmp_path):
    assert cli.main(["simulate", "--seed", "notanint"]) == cli.EXIT_CONFIG
    assert cli.main(["unknowncmd"]) == cli.EXIT_CONFIG
    # out-of-range flags are refused at parse time, before any work
    bundle = ["--bundle", str(bundle_dir)]
    for flags in (["--angle-step", "0"], ["--angle-step", "-1"],
                  ["--angle-step", "nan"], ["--angle-step", "181"],
                  ["--beta", "0"], ["--beta", "1.5"],
                  ["--noise-frames", "-3"], ["--loading", "-1"],
                  ["--mvdr-loading", "-1"]):
        assert cli.main(["beampattern", *bundle, *flags]) == cli.EXIT_CONFIG, flags
    for flags in (["--beta", "0"], ["--mvdr-loading", "-1"]):
        assert cli.main(["beamform", *bundle, "--results", str(tmp_path / "r.csv"),
                         *flags]) == cli.EXIT_CONFIG
    out = tmp_path / "e.csv"
    for flags in (["--snrs", "1,x"], ["--loading", "-1"], ["--snrs", "10,nan"],
                  ["--snrs", "inf"], ["--seed", "-1"], ["--count", "0"],
                  ["--count", "-1"]):
        assert cli.main(["evaluate", "--count", "1", *flags, "--out", str(out)]) \
            == cli.EXIT_CONFIG, flags
    sims = tmp_path / "sims"
    for flags in (["--snr", "nan"], ["--snr", "-inf"], ["--seed", "-1"],
                  ["--count", "0"], ["--count", "-1"]):
        assert cli.main(["simulate", *flags, "--out", str(sims)]) == cli.EXIT_CONFIG, flags
    assert not out.exists() and not (tmp_path / "r.csv").exists() and not sims.exists()


def test_a_failed_write_keeps_the_old_file(tmp_path, monkeypatch, static_bundle):
    # outputs stream into a temp file, so a writer can fail after it has
    # written some bytes: the target must keep its old bytes, and no temp
    # file may be left behind
    out = tmp_path / "bundle"
    cli.write_bundle(out, static_bundle)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def rows():
        yield ("left", "past", 1.0)
        raise ValueError("row failed")

    with pytest.raises(ValueError):
        cli._write_csv(out / "doa.csv", ["side", "method", "mse_db"], rows())

    def failing_write_wav(fh, rate, signal):
        fh.write(b"RIFF" + bytes(4096))
        fh.flush()
        raise OSError("disk full")

    monkeypatch.setattr(stft, "write_wav", failing_write_wav)
    with pytest.raises(OSError):
        cli.write_bundle(out, static_bundle)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert list(out.glob("*.tmp*")) == []
