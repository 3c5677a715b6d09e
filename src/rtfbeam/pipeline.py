"""End-to-end glue: simulate a scene, estimate RTFs, beamform, evaluate.

The CLI and the batch evaluation sweep are thin wrappers around these
functions; they are also the entry points the verification suite drives.
`_blocks` is the one driver from a bundle's mixture to the STFT of each
block of frames, the noise statistics and, through `estimate_trajectory`
with a `BlockState`, each block's RTF trajectories; `side_weights` is the
one rule from a trajectory to weights. `evaluate_bundle` consumes the
blocks as they come, and `estimate` writes them into whole trajectories,
which `beampattern` weights.

The noise statistics of a bundle are the one `covariance.hermitian_evd`
result of Phi_nn that `noise_stats` returns; it is passed on to the
estimators and the weights. Only 'cw-batch' and 'past' build the whitener
pair from it, once per trajectory. Per-bin matrices, weights and beampatterns
are plain ndarrays, in the layouts of `covariance` and `beamformer`.

A bundle's truth is a maker per side (`simulator.GroundTruth`), called
where the truth is read, for the frames it is read for: by the 'oracle'
trajectories and by the left RTF MSE. Every trajectory a cell weights is
thus its own fresh array, an estimate or a truth just made, and
`side_weights` writes the MVDR weights over its values whatever the method.

`evaluate_bundle` runs a cell in blocks of frames (`_frame_blocks`).
'past', 'oracle' and 'none' are causal: they run blocks of _FRAME_BLOCK
frames, the first holding the noise-only frames, and Phi_nn and its one EVD
come from that block. Each block is analysed and, for 'past', whitened
once, and each side is tracked (carrying its `rtf.PastState`), de-whitened
and finished, the last one over the whitened frames, or made from the
truth. Then each side in turn, the scored left ear last, is scored
(`rtf.mse_terms`; the last block's `rtf.rtf_mse` reduces them all once),
weighted (carrying its `beamformer.WeightHold`), applied and overlap-added
into its enhanced signal (`stft.synthesize`). The left truth block is made
once: for 'oracle' it is both the trajectory and what it is scored
against. A causal cell thus holds at most one block's STFT, whitened frames
and trajectories, or its STFT, left trajectory and left truth, and every
output has the bits of one block of all frames. 'cw-batch' needs Phi_yy
over all frames, so its cell is that one block. `estimate` runs the same
blocks and keeps whole trajectories but no whole STFT; `beampattern` weights
the whole left trajectory in one `beamformer.mvdr_weights` call, whose
bits are those of the blocks' (`covariance.PRODUCT_ALIGN`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import beamformer, covariance, metrics, rtf, simulator, stft

METHODS = ("cw-batch", "past", "oracle", "none")
# a reference mic with at most this share of the median mic's noise-only
# power is dead: on 16 clean scenes (seeds 0-7, static and moving, 10 dB)
# every mic lies within 0.965-1.054 of the median, a zeroed one at exactly 0
DEAD_MIC_POWER_RATIO = 0.01
# frames per block of a 'past', 'oracle' or 'none' cell, a multiple of
# covariance.PRODUCT_ALIGN: a (257, 8, 64) complex128 block is a quarter of
# the STFT of a 4 s scene
_FRAME_BLOCK = 64


@dataclass
class SimBundle:
    scenario: simulator.Scenario
    config: stft.StftConfig
    clean: np.ndarray  # (M, N)
    noise: np.ndarray | None  # (M, N), unscaled babble; None once loaded from disk
    mixture: np.ndarray  # (M, N) at the requested SNR
    truth: simulator.GroundTruth
    snr_db: float

    @property
    def noise_frames(self) -> int:
        """Frames fully inside the leading source-silent segment; 0 when the
        lead silence is shorter than one window."""
        lead = int(round(self.scenario.lead_silence_s * self.scenario.sample_rate))
        return max(0, (lead - self.config.window_len) // self.config.hop + 1)


def simulate(seed: int, snr_db: float, static: bool = False) -> SimBundle:
    """Render one scenario at the requested SNR; deterministic per seed.

    The babble is rendered first, each babbler's signal drawn from the
    `simulator.babbler_stream` and added into the mic spectra before the
    next is drawn, and then the target, so the two renders' temporaries do
    not stack; the two draw from independent streams, [seed, 2] and
    [seed, 1].
    """
    scenario = simulator.sample_scenario(seed, static=static)
    config = stft.StftConfig(sample_rate_hz=scenario.sample_rate)
    noise = simulator.render_babble(scenario, simulator.babbler_stream(
        [seed, 2], simulator.NUM_BABBLERS, scenario.duration_s, scenario.sample_rate
    ))
    target = simulator.synthesize_target_signal([seed, 1], scenario)
    clean, truth = simulator.render_moving_source(target, scenario, config)
    mixture = simulator.mix_at_snr(clean, noise, snr_db)
    return SimBundle(scenario, config, clean, noise, mixture, truth, snr_db)


def remix(bundle: SimBundle, snr_db: float) -> SimBundle:
    """Same rendered scene at a different SNR (avoids re-rendering). A
    bundle loaded from disk carries no noise samples and is refused."""
    if bundle.noise is None:
        raise ValueError("this bundle carries no noise samples (a bundle loaded from "
                         "disk reads only the header of noise.wav), so it cannot be remixed")
    mixture = simulator.mix_at_snr(bundle.clean, bundle.noise, snr_db)
    return SimBundle(
        bundle.scenario, bundle.config, bundle.clean, bundle.noise, mixture,
        bundle.truth, snr_db,
    )


def noise_stats(
    mix_spec: np.ndarray,
    noise_frames: int,
    sides: tuple[str, ...] = rtf.SIDES,
) -> tuple[np.ndarray, np.ndarray]:
    """The `covariance.hermitian_evd` result of Phi_nn over the first
    `noise_frames` frames. Frames silent on every mic (a noise-free mixture) and
    a dead reference mic of one of `sides` (MVDR would take it for a noise-free
    one) raise CovarianceError, the second naming the mic and its side."""
    phi_nn = covariance.estimate_noise_covariance(mix_spec, noise_frames)
    power = phi_nn.diagonal(axis1=1, axis2=2).real.sum(axis=0)  # per mic
    if not power.any():
        raise covariance.CovarianceError("the noise-only frames are silent on every mic")
    median = np.median(power)
    refs = rtf.reference_mics(power.size)
    for side in sides:
        ref = refs[side]
        if power[ref] <= DEAD_MIC_POWER_RATIO * median:
            raise covariance.CovarianceError(
                f"reference mic {ref} ({side} side) is dead: its noise-only power is "
                f"{power[ref]:.3g}, the median mic's {median:.3g}")
    return covariance.hermitian_evd(phi_nn)


def _frame_blocks(num_frames: int, noise_frames: int, method: str) -> list[slice]:
    """The blocks of frames a cell runs: all frames at once for 'cw-batch',
    whose Phi_yy spans them; else blocks of _FRAME_BLOCK frames, the first
    as many of them as hold the `noise_frames` that Phi_nn is estimated
    from. Every block starts on a multiple of _FRAME_BLOCK, so the per-bin
    products over a block's frames (whitening, MVDR) have the bits of one
    product over all frames (`covariance.PRODUCT_ALIGN`)."""
    if method == "cw-batch":
        return [slice(0, num_frames)]
    first = min(-(-noise_frames // _FRAME_BLOCK) * _FRAME_BLOCK, num_frames)
    return [slice(0, first), *(slice(l0, min(l0 + _FRAME_BLOCK, num_frames))
                               for l0 in range(first, num_frames, _FRAME_BLOCK))]


def _samples(frames: slice, config: stft.StftConfig) -> slice:
    """The samples that the frames `frames` cover."""
    return slice(frames.start * config.hop, (frames.stop - 1) * config.hop + config.window_len)


def _estimator(
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    num_frames: int,
    noise_frames: int,
    method: str,
    beta: float,
    loading: float,
    truth: simulator.GroundTruth | None,
    sides: tuple[str, ...],
) -> Callable[[np.ndarray, slice], dict[str, rtf.RtfTrajectory]]:
    """The trajectories of `sides` by the rules of `estimate_trajectory`, a
    block of frames at a time: `block(spec, frames)` returns them for the
    (F, M, l1 - l0) STFT `spec` of the frames `frames`, [l0, l1), of the
    `num_frames` frames. Blocks come in frame order: 'past' carries each
    side's `rtf.PastState` from block to block; 'cw-batch' takes all frames
    in one block."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    if method == "oracle" and truth is None:
        raise ValueError("oracle method requires ground truth")
    nbins, m = phi_nn_evd.eigenvalues.shape
    refs = {side: rtf.reference_mics(m)[side] for side in sides}
    if method == "none":
        def block(spec, frames):
            trajs = {}
            for side, ref in refs.items():
                values = np.zeros((nbins, m, 1), dtype=np.complex128)
                values[:, ref] = 1.0
                trajs[side] = rtf.RtfTrajectory(values, ref)
            return trajs
        return block
    if method == "oracle":
        return lambda spec, frames: {side: truth.rtf[side](frames) for side in refs}
    sqrt_nn, invsqrt_nn = covariance.sqrt_pair(phi_nn_evd, loading)
    if method == "cw-batch":
        def block(spec, frames):
            phi_yy = covariance.estimate_mixture_covariance(spec, noise_frames)
            phi_ww = covariance.whitened_mixture_covariance(phi_yy, invsqrt_nn)
            principal = covariance.hermitian_evd(phi_ww).eigenvectors[:, :, 0]
            return {side: rtf.cw_trajectory(principal, sqrt_nn, ref)
                    for side, ref in refs.items()}
        return block
    states = {side: rtf.PastState(nbins, m, ref, num_frames) for side, ref in refs.items()}

    def block(spec, frames):
        whitened = covariance.whiten(spec, invsqrt_nn)
        last = list(refs)[-1]  # tracks over the whitened frames, which no side reads after
        return {side: rtf.track_rtf_past(whitened, sqrt_nn, ref, beta, noise_frames,
                                         states[side], whitened if side == last else None)
                for side, ref in refs.items()}
    return block


@dataclass
class BlockState:
    """What the estimation of one trajectory a block of frames at a time
    carries from block to block: its frame count, the frames given so far,
    and its method's estimator (`_estimator`), which keeps the whitener pair,
    built once, and each side's `rtf.PastState`."""

    num_frames: int
    frame: int = 0
    estimator: Callable[[np.ndarray, slice], dict[str, rtf.RtfTrajectory]] | None = None


def estimate_trajectory(
    mix_spec: np.ndarray,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    noise_frames: int,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    truth: simulator.GroundTruth | None = None,
    sides: tuple[str, ...] = rtf.SIDES,
    state: BlockState | None = None,
) -> dict[str, rtf.RtfTrajectory]:
    """RTF trajectory per side by the chosen method ('oracle' needs ground
    truth; 'none' is the trivial e_ref trajectory of reference passthrough).

    Each side is referenced to its mic in `rtf.reference_mics`. The work
    shared by the sides is done once: the whitener pair, built from
    `phi_nn_evd`, the `covariance.hermitian_evd` result of Phi_nn, with
    `loading` for 'cw-batch' and 'past' only; the whitening for 'past'; the
    mixture covariance and its whitened EVD for 'cw-batch'. The
    frame-invariant 'cw-batch' and 'none' trajectories have one frame
    (`rtf.RtfTrajectory`).

    `mix_spec` holds all frames, or with `state` the next block of frames
    of a trajectory estimated a block at a time, in frame order: its calls
    share one `BlockState`, which carries the estimator from block to block.
    """
    state = BlockState(mix_spec.shape[2]) if state is None else state
    if state.estimator is None:
        state.estimator = _estimator(phi_nn_evd, state.num_frames, noise_frames, method,
                                     beta, loading, truth, sides)
    frames = slice(state.frame, state.frame + mix_spec.shape[2])
    state.frame = frames.stop
    return state.estimator(mix_spec, frames)


def _blocks(
    bundle: SimBundle,
    method: str,
    beta: float,
    loading: float,
    noise_frames: int | None,
    sides: tuple[str, ...],
) -> Iterator[tuple[slice, np.ndarray, tuple[np.ndarray, np.ndarray], str,
                    rtf.RtfTrajectory]]:
    """Run a cell's `_frame_blocks` in order: yield (frames, spec, evd, side,
    trajectory) for each block of frames and each of `sides` in turn, with
    the block's STFT (the analysis of the samples its frames cover, frame
    for frame the bits of the whole analysis), the
    `covariance.hermitian_evd` result of Phi_nn, which the first block's
    leading frames give (checking only the reference mics of `sides` for a
    dead one), and the side's trajectory for the block
    (`estimate_trajectory`). Phi_nn spans `noise_frames` frames, or when 0
    or None the bundle's lead-silence count; a lead silence shorter than
    one window holds no noise-only frame, and then `noise_frames` must be
    given. A caller that drops the spectrum and the trajectory before it
    asks for the next never holds two blocks' arrays."""
    config = bundle.config
    ln = noise_frames or bundle.noise_frames
    if ln == 0:
        raise ValueError(
            f"the lead silence of {bundle.scenario.lead_silence_s} s is shorter than "
            f"one {config.window_len}-sample window, so no frame is noise-only; "
            "give the noise-only frame count (--noise-frames)"
        )
    nframes = config.num_frames(bundle.mixture.shape[1])
    state = BlockState(nframes)
    for frames in _frame_blocks(nframes, ln, method):
        spec = stft.analyze(bundle.mixture[:, _samples(frames, config)], config)
        if frames.start == 0:
            evd = noise_stats(spec, ln, sides)
        trajs = estimate_trajectory(spec, evd, ln, method, beta, loading, bundle.truth, sides,
                                    state)
        for side in sides:
            yield frames, spec, evd, side, trajs.pop(side)
        del spec  # before the next block is analysed


def estimate(
    bundle: SimBundle,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    noise_frames: int | None = None,
    sides: tuple[str, ...] = rtf.SIDES,
) -> tuple[tuple[np.ndarray, np.ndarray], dict[str, rtf.RtfTrajectory]]:
    """The `covariance.hermitian_evd` result of Phi_nn and the RTF
    trajectory of each of `sides`, made as a cell makes them (`_blocks`):
    each block's values and valid mask are written into one whole
    (F, M, L) trajectory per side, made at the side's first block, so it
    has the bits of the cell's. A frame-invariant first block, one frame
    for a block of more ('cw-batch', 'none', a static scene's truth), is
    kept as it is."""
    nframes = bundle.config.num_frames(bundle.mixture.shape[1])
    trajs = {}
    for frames, spec, evd, side, block in _blocks(bundle, method, beta, loading,
                                                  noise_frames, sides):
        if side not in trajs:
            nbins, m, width = block.values.shape
            trajs[side] = block if width < frames.stop - frames.start else rtf.RtfTrajectory(
                np.empty((nbins, m, nframes), complex), block.ref_channel,
                np.empty((nbins, nframes), bool))
        whole = trajs[side]
        if whole.values.shape[2] == nframes:  # not a frame-invariant block
            whole.values[:, :, frames] = block.values
            whole.valid[:, frames] = block.valid
        del spec, block  # before the next block's are made
    return evd, trajs


def side_weights(
    traj: rtf.RtfTrajectory,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    method: str,
    loading: float = beamformer.MVDR_LOADING,
    hold: beamformer.WeightHold | None = None,
) -> np.ndarray:
    """MVDR weights, (F, M, L'), from the `covariance.hermitian_evd` result
    of Phi_nn, carrying `hold` for a block of a trajectory
    (`beamformer.mvdr_weights`); method 'none' passes the reference channel
    through. The trajectory is the caller's own, an estimate or a truth
    fresh from its maker: its weights are written over its values, so score
    it first."""
    if method == "none":  # the trivial 'none' trajectory is the passthrough
        return traj.values
    return beamformer.mvdr_weights(traj, phi_nn_evd, loading, out=traj.values, hold=hold)


def beamform_side(
    mix_spec: np.ndarray,
    config: stft.StftConfig,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    traj: rtf.RtfTrajectory,
    method: str,
    loading: float = beamformer.MVDR_LOADING,
    hold: beamformer.WeightHold | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Beamform one side: its `side_weights` from the `covariance.hermitian_evd`
    result of Phi_nn (over an estimated trajectory's own values), applied to
    the mixture's (F, M, L) STFT and synthesized with the `config` it was
    analysed with. For a block of frames, `hold` carries the weights and
    `out` is the slice of the enhanced signal the frames are overlap-added
    into (`stft.synthesize`)."""
    weights = side_weights(traj, phi_nn_evd, method, loading, hold)
    return stft.synthesize(beamformer.apply(weights, mix_spec), config, out)


def evaluate_bundle(
    bundle: SimBundle,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    mvdr_loading: float = beamformer.MVDR_LOADING,
    noise_frames: int | None = None,
) -> metrics.EvalReport:
    """Full pipeline on one bundle: estimate, beamform both sides, score.

    The cell runs its `_frame_blocks` in order: each block is analysed,
    its trajectories made (`estimate_trajectory`), the left one scored, and
    each side weighted, applied and overlap-added into its enhanced signal.
    The report keeps both sides' enhanced signals in `enhanced`. Overlap-add
    covers the samples of whole frames only, so the enhanced signal and the
    input mixture are both scored over its first len(enhanced) samples: all
    N when N - window_len is a whole number of hops.
    """
    config = bundle.config
    m, n = bundle.mixture.shape
    nframes = config.num_frames(n)
    refs = rtf.reference_mics(m)
    report = metrics.EvalReport(
        scenario_id=f"seed{bundle.scenario.seed}",
        snr_db=bundle.snr_db,
        method=method,
    )
    enhanced = {}  # side -> its signal, made at its first block
    holds = {side: beamformer.WeightHold(config.num_bins, m, ref)
             for side, ref in refs.items()}
    scored = []  # the left RTF MSE terms of each block before the last
    # the scored left ear goes last, so its truth is made after the right
    # trajectory is dropped
    for frames, spec, evd, side, traj in _blocks(bundle, method, beta, loading,
                                                 noise_frames, rtf.SIDES[::-1]):
        if side == "left" and method != "none":  # before its weights overwrite it
            # an oracle trajectory is the truth: made once, it is also scored
            truth = traj if method == "oracle" else bundle.truth.rtf[side](frames)
            if frames.stop < nframes:
                scored.append(rtf.mse_terms(traj, truth))
            else:
                report.rtf_mse_db = rtf.rtf_mse(traj, truth, scored)
            del truth
        if side not in enhanced:
            enhanced[side] = np.zeros(_samples(slice(0, nframes), config).stop)
        beamform_side(spec, config, evd, traj, method, mvdr_loading, holds[side],
                      enhanced[side][_samples(frames, config)])
        del spec, traj  # before the next are made
    if method != "none":
        for hold in holds.values():
            hold.warn_dead_bins()
    for side, ref in refs.items():
        report.enhanced[side] = enhanced[side]
        clean = bundle.clean[ref, :enhanced[side].size]
        mixture = bundle.mixture[ref, :enhanced[side].size]
        setattr(report, f"si_sdr_{side}", metrics.si_sdr(enhanced[side], clean))
        setattr(report, f"si_sdr_input_{side}", metrics.si_sdr(mixture, clean))
    return report


def beampattern(
    bundle: SimBundle,
    method: str,
    sink: Callable[[np.ndarray], None],
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    mvdr_loading: float = beamformer.MVDR_LOADING,
    noise_frames: int | None = None,
    angle_step_deg: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The (T,) broadside angles -90 + i * `angle_step_deg` deg, up to 90 deg,
    and the (T, L) wideband beampattern of the left-ear weights, one column
    per STFT frame. The weights are the `side_weights` of the whole left
    trajectory of `estimate`, one `beamformer.mvdr_weights` call that warns
    of its own dead bins. Each bin's |B|, (T, L), goes to `sink` in bin order
    (`beamformer.narrowband_beampattern`). Frame-invariant weights (one
    frame: 'cw-batch', 'none', a static scene's 'oracle') give one column,
    broadcast read-only over the frames."""
    if not 0.0 < angle_step_deg <= 180.0:  # refuses nan and inf too
        raise ValueError(f"angle step {angle_step_deg!r} deg is not in (0, 180]")
    evd, trajs = estimate(bundle, method, beta, loading, noise_frames, ("left",))
    weights = side_weights(trajs.pop("left"), evd, method, mvdr_loading)
    count = int(180.0 / angle_step_deg + 1e-9) + 1  # a step dividing 180 keeps 90
    angles = np.minimum(-90.0 + angle_step_deg * np.arange(count), 90.0)
    shape = (angles.size, bundle.config.num_frames(bundle.mixture.shape[1]))
    wideband = beamformer.narrowband_beampattern(
        weights, bundle.scenario.mic_axis_offsets(), bundle.config, angles,
        lambda b: sink(np.broadcast_to(b, shape)),
    )
    return angles, np.broadcast_to(wideband, shape)
