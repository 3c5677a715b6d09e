"""Output-identity check between two source trees of rtfbeam.

    python tools/compare_outputs.py run --tree TREE --out DIR [--scenes moving:3,static:5]
    python tools/compare_outputs.py compare DIR_A DIR_B

`run` drives TREE's command-line interface (`python -m rtfbeam.cli` with
TREE/src first on PYTHONPATH and one BLAS thread) over a fixed matrix, for
each scene at 10 dB: `simulate`; then `estimate-rtf`, `beamform` and
`beampattern` for each of the four methods, each method on its own copy of
the bundle; `estimate-rtf` and `beamform` with `--method past --noise-frames
80` on one more copy, whose first block of frames grows to hold the
noise-only frames; then `evaluate --snrs 0,10` over the four methods. It
writes DIR/manifest.json: every command with its exit code, the sha256 of
every file written, and each command's peak resident memory (the child's
`ru_maxrss`, from `os.wait4`). It exits 1 when a command's exit code is not
the expected one (`beampattern --method none` exits 1: a flat pattern has no
scorable frame).

`compare` reads two such directories and prints, per file, "identical", or
how many values moved with the largest absolute and relative move. WAV,
`.rtfb`, `.npy`, CSV and JSON files are decoded with rtfbeam's own readers
(this tree's). It then prints the two trees' peak memory per command, where
both manifests hold it. It exits 0 only when every file is identical and
every exit code matches; the peaks are reported, never judged.

Byte identity depends on the BLAS and the platform, so this is a developer
tool for A/B checks of a change, not a test.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from rtfbeam import rtf, stft  # noqa: E402  (compare decodes with this tree's readers)

METHODS = ("cw-batch", "past", "oracle", "none")
SNR_DB = 10.0


def _scene_commands(kind: str, seed: int, root: Path):
    """(argv, expected exit code, bundle copy or None) for one scene, in order."""
    static = ["--static"] if kind == "static" else []
    yield ["simulate", "--seed", str(seed), "--count", "1", "--snr", str(SNR_DB),
           *static, "--out", str(root / "bundle")], 0, None
    for method in METHODS:
        copy = root / method
        for command in ("estimate-rtf", "beamform", "beampattern"):
            argv = [command, "--bundle", str(copy), "--method", method]
            if command == "beamform":
                argv += ["--results", str(copy / "results.csv")]
            # a flat pattern has no scorable frame
            yield argv, int((command, method) == ("beampattern", "none")), copy
    # more noise-only frames than one default block of a causal cell: its
    # first block grows to hold them
    copy = root / "past-noise80"
    flags = ["--bundle", str(copy), "--method", "past", "--noise-frames", "80"]
    yield ["estimate-rtf", *flags], 0, copy
    yield ["beamform", *flags, "--results", str(copy / "results.csv")], 0, copy
    yield ["evaluate", "--seed", str(seed), "--count", "1", "--snrs", "0,10",
           "--methods", ",".join(METHODS), *static,
           "--out", str(root / "evaluate.csv")], 0, None


def _run_cli(argv: list[str], env: dict) -> tuple[int, str, float]:
    """Run `python -m rtfbeam.cli argv`; returns its exit code, its stderr and
    its peak resident memory: Linux's ru_maxrss, in KiB, over 1024, the MB
    that perfbench's `peak_rss_mb` reports."""
    proc = subprocess.Popen([sys.executable, "-m", "rtfbeam.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, err, usage.ru_maxrss / 1024


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(tree: Path, out: Path, scenes: list[tuple[str, int]]) -> int:
    if not (tree / "src" / "rtfbeam").is_dir():
        sys.exit(f"{tree} is not a checkout of rtfbeam: no src/rtfbeam")
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    commands, bad = [], 0
    for kind, seed in scenes:
        root = out / f"{kind}{seed}"
        for argv, expected, copy in _scene_commands(kind, seed, root):
            if copy is not None and not copy.exists():
                (bundle,) = (root / "bundle").iterdir()
                shutil.copytree(bundle, copy)
            code, err, peak_mb = _run_cli(argv, env)
            shown = " ".join(argv).replace(str(out) + os.sep, "")
            commands.append({"argv": shown, "exit": code, "peak_rss_mb": round(peak_mb, 1)})
            if code != expected:
                bad += 1
                print(f"exit {code}, expected {expected}: {shown}\n{err}", file=sys.stderr)
    files = {p.relative_to(out).as_posix(): _sha256(p)
             for p in sorted(out.rglob("*")) if p.is_file()}
    manifest = {"tree": str(tree), "commands": commands, "files": files}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(commands)} commands, {len(files)} files, {bad} unexpected exit codes")
    return 1 if bad else 0


def _numbers(value):
    """The numeric leaves of a parsed JSON value, and the rest as text."""
    if isinstance(value, dict):
        value = [v for item in sorted(value.items()) for v in item]
    if isinstance(value, list):
        parts = [_numbers(v) for v in value]
        return [x for n, _ in parts for x in n], [t for _, s in parts for t in s]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)], []
    return [], [repr(value)]


def _csv_cells(path: Path):
    numbers, text = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    text.append(cell)
    return numbers, text


def _decode(path: Path):
    """(numeric array, list of non-numeric parts) of an output file."""
    suffix = path.suffix
    if suffix == ".wav":
        return stft.read_wav(path)[1], []
    if suffix == ".rtfb":
        traj, _ = rtf.load_trajectory(path)
        return traj.values, traj.valid.ravel().tolist()
    if suffix == ".npy":
        return np.load(path), []
    if suffix == ".csv":
        numbers, text = _csv_cells(path)
        return np.array(numbers), text
    if suffix == ".json":
        numbers, text = _numbers(json.loads(path.read_text()))
        return np.array(numbers), text
    return np.frombuffer(path.read_bytes(), dtype=np.uint8), []


def _describe(a_path: Path, b_path: Path) -> str:
    (a, a_text), (b, b_text) = _decode(a_path), _decode(b_path)
    if a.shape != b.shape or len(a_text) != len(b_text):
        return f"differs in shape: {a.shape} against {b.shape}"
    text_moves = sum(x != y for x, y in zip(a_text, b_text))
    moved = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not moved.any():
        return f"{text_moves} non-numeric fields differ" if text_moves else "same values"
    diff = np.abs(a[moved] - b[moved])
    scale = np.maximum(np.abs(a[moved]), np.abs(b[moved]))
    note = f", {text_moves} non-numeric fields differ" if text_moves else ""
    return (f"{int(moved.sum())} of {a.size} values moved, largest abs {diff.max():.3g}, "
            f"largest rel {(diff / scale).max():.3g}{note}")


def compare(a_dir: Path, b_dir: Path) -> int:
    a, b = (json.loads((d / "manifest.json").read_text()) for d in (a_dir, b_dir))
    runs = [[(c["argv"], c["exit"]) for c in m["commands"]] for m in (a, b)]
    exits_match = runs[0] == runs[1]
    for ca, cb in itertools.zip_longest(*runs):
        if ca != cb:
            print(f"command: {ca} against {cb}")
    identical = 0
    names = sorted(set(a["files"]) | set(b["files"]))
    for name in names:
        if name not in a["files"] or name not in b["files"]:
            print(f"{name}: only in {a_dir if name in a['files'] else b_dir}")
        elif a["files"][name] == b["files"][name]:
            identical += 1
            print(f"{name}: identical")
        else:
            print(f"{name}: {_describe(a_dir / name, b_dir / name)}")
    # a manifest written before the tool read ru_maxrss holds no peaks
    for ca, cb in zip(a["commands"], b["commands"]):
        if "peak_rss_mb" in ca and "peak_rss_mb" in cb and ca["argv"] == cb["argv"]:
            print(f"peak RSS {ca['peak_rss_mb']:7.1f} -> {cb['peak_rss_mb']:7.1f} MB: "
                  f"{ca['argv']}")
    print(f"{identical} of {len(names)} files sha256-identical; commands and exit codes "
          f"{'match' if exits_match else 'differ'} ({len(a['commands'])} commands)")
    return 0 if identical == len(names) and exits_match else 1


def _scenes(text: str) -> list[tuple[str, int]]:
    scenes = []
    for item in text.split(","):
        kind, _, seed = item.partition(":")
        if kind not in ("moving", "static") or not seed.isdigit():
            raise argparse.ArgumentTypeError(f"{item!r} is not moving:SEED or static:SEED")
        scenes.append((kind, int(seed)))
    return scenes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the CLI matrix of one tree")
    p.add_argument("--tree", type=Path, required=True, help="a checkout of rtfbeam")
    p.add_argument("--out", type=Path, required=True, help="an empty or new directory")
    p.add_argument("--scenes", type=_scenes, default="moving:3,static:5")
    p = sub.add_parser("compare", help="compare the outputs of two runs")
    p.add_argument("dirs", type=Path, nargs=2)
    args = parser.parse_args(argv)
    if args.mode == "run":
        return run(args.tree, args.out, args.scenes)
    return compare(*args.dirs)


if __name__ == "__main__":
    sys.exit(main())
