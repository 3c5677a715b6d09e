"""End-to-end glue: simulate a scene, estimate RTFs, beamform, evaluate.

The CLI and the batch evaluation sweep are thin wrappers around these
functions; they are also the entry points the verification suite drives.
`_analysis` is the one path from a bundle to its STFT and noise
statistics, `_trajectories` the one path from those to RTF trajectories
(`estimate` and `estimate_trajectory` collect them into a dict) and
`side_weights` the one rule from a trajectory to weights: `evaluate_bundle`
and `beampattern` both go through them.

The noise statistics of a bundle are the one `covariance.hermitian_evd`
result of Phi_nn that `noise_stats` returns; it is passed on to the
estimators and the weights. Only 'cw-batch' and 'past' build the whitener
pair from it, inside `_trajectories`. Per-bin matrices, weights and
beampatterns are plain ndarrays, in the layouts of `covariance` and `beamformer`.

A bundle's truth is a maker per side (`simulator.GroundTruth`), called
where the truth is read: by the 'oracle' trajectories and by the left RTF
MSE. Every trajectory a cell weights is thus its own fresh array, an
estimate or a truth just made, and `side_weights` writes the MVDR weights
over its values whatever the method.

`evaluate_bundle` finishes one ear before it tracks the next, and tracks
the scored left ear last: the right trajectory is made, its weights
written over its own buffer, applied and synthesized, and dropped; then
the left one is made, and the whitened frames of 'past' go after its
track, so the left truth it is scored against is made after they are
gone. A 'past' cell holds at most the STFT, the whitened frames and one
trajectory at a time, or the STFT, the left trajectory and its truth.
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


def _trajectories(
    mix_spec: np.ndarray,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    noise_frames: int,
    method: str,
    beta: float,
    loading: float,
    truth: simulator.GroundTruth | None,
    sides: tuple[str, ...],
) -> Iterator[tuple[str, rtf.RtfTrajectory]]:
    """Yield (side, trajectory) for each of `sides`, each made only when
    asked for, by the rules of `estimate_trajectory`: a caller that drops a
    side's trajectory before asking for the next never holds two. The
    whitened frames of 'past' are dropped after the last side's track."""
    nbins, m, _ = mix_spec.shape
    refs = [(side, rtf.reference_mics(m)[side]) for side in sides]
    if method == "none":
        for side, ref in refs:
            values = np.zeros((nbins, m, 1), dtype=np.complex128)
            values[:, ref] = 1.0
            yield side, rtf.RtfTrajectory(values, ref)
        return
    if method == "oracle":
        if truth is None:
            raise ValueError("oracle method requires ground truth")
        yield from ((side, truth.rtf[side]()) for side, _ in refs)
        return
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    sqrt_nn, invsqrt_nn = covariance.sqrt_pair(phi_nn_evd, loading)
    if method == "cw-batch":
        phi_yy = covariance.estimate_mixture_covariance(mix_spec, noise_frames)
        phi_ww = covariance.whitened_mixture_covariance(phi_yy, invsqrt_nn)
        principal = covariance.hermitian_evd(phi_ww).eigenvectors[:, :, 0]
        yield from ((side, rtf.cw_trajectory(principal, sqrt_nn, ref)) for side, ref in refs)
        return
    whitened = covariance.whiten(mix_spec, invsqrt_nn)
    for i, (side, ref) in enumerate(refs, 1):
        traj = rtf.track_rtf_past(whitened, sqrt_nn, ref, beta, start_frame=noise_frames)
        if i == len(refs):
            del whitened
        yield side, traj
        del traj  # before the next side is tracked


def estimate_trajectory(
    mix_spec: np.ndarray,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    noise_frames: int,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    truth: simulator.GroundTruth | None = None,
    sides: tuple[str, ...] = rtf.SIDES,
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
    """
    return dict(_trajectories(mix_spec, phi_nn_evd, noise_frames, method, beta, loading,
                              truth, sides))


def _analysis(
    bundle: SimBundle, noise_frames: int | None, sides: tuple[str, ...]
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], int]:
    """The mixture's (F, M, L) STFT, the `covariance.hermitian_evd` result
    of Phi_nn over its first `noise_frames` frames (0 or None: the bundle's
    lead-silence count), and that count; only the reference mics of `sides`
    are checked for a dead one. A lead silence shorter than one window holds
    no noise-only frame: then `noise_frames` must be given."""
    ln = noise_frames or bundle.noise_frames
    if ln == 0:
        raise ValueError(
            f"the lead silence of {bundle.scenario.lead_silence_s} s is shorter than "
            f"one {bundle.config.window_len}-sample window, so no frame is noise-only; "
            "give the noise-only frame count (--noise-frames)"
        )
    mix_spec = stft.analyze(bundle.mixture, bundle.config)
    return mix_spec, noise_stats(mix_spec, ln, sides), ln


def estimate(
    bundle: SimBundle,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    noise_frames: int | None = None,
    sides: tuple[str, ...] = rtf.SIDES,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray],
           dict[str, rtf.RtfTrajectory]]:
    """Analyse the mixture into its (F, M, L) STFT, take the
    `covariance.hermitian_evd` result of Phi_nn over its first
    `noise_frames` frames (`_analysis`) and estimate the RTF trajectory of
    each of `sides`."""
    mix_spec, evd, ln = _analysis(bundle, noise_frames, sides)
    trajs = estimate_trajectory(mix_spec, evd, ln, method, beta, loading, bundle.truth,
                                sides)
    return mix_spec, evd, trajs


def side_weights(
    traj: rtf.RtfTrajectory,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    method: str,
    loading: float = beamformer.MVDR_LOADING,
) -> np.ndarray:
    """MVDR weights, (F, M, L'), from the `covariance.hermitian_evd` result
    of Phi_nn; method 'none' passes the reference channel through. The
    trajectory is the caller's own, an estimate or a truth fresh from its
    maker: its weights are written over its values, so score it first."""
    if method == "none":  # the trivial 'none' trajectory is the passthrough
        return traj.values
    return beamformer.mvdr_weights(traj, phi_nn_evd, loading, out=traj.values)


def beamform_side(
    mix_spec: np.ndarray,
    config: stft.StftConfig,
    phi_nn_evd: tuple[np.ndarray, np.ndarray],
    traj: rtf.RtfTrajectory,
    method: str,
    loading: float = beamformer.MVDR_LOADING,
) -> np.ndarray:
    """Beamform one side: its `side_weights` from the `covariance.hermitian_evd`
    result of Phi_nn (over an estimated trajectory's own values), applied to
    the mixture's (F, M, L) STFT and synthesized with the `config` it was
    analysed with."""
    weights = side_weights(traj, phi_nn_evd, method, loading)
    return stft.synthesize(beamformer.apply(weights, mix_spec), config)


def evaluate_bundle(
    bundle: SimBundle,
    method: str,
    beta: float = rtf.DEFAULT_BETA,
    loading: float = covariance.DEFAULT_LOADING,
    mvdr_loading: float = beamformer.MVDR_LOADING,
    noise_frames: int | None = None,
) -> metrics.EvalReport:
    """Full pipeline on one bundle: estimate, beamform both sides, score.

    The report keeps both sides' enhanced signals in `enhanced`. Overlap-add
    covers the samples of whole frames only, so the enhanced signal and the
    input mixture are both scored over its first len(enhanced) samples: all
    N when N - window_len is a whole number of hops.
    """
    mix_spec, evd, ln = _analysis(bundle, noise_frames, rtf.SIDES)
    report = metrics.EvalReport(
        scenario_id=f"seed{bundle.scenario.seed}",
        snr_db=bundle.snr_db,
        method=method,
    )
    # one side at a time: each is tracked, scored, beamformed and dropped
    # before the next is tracked. The scored left ear goes last, so its
    # truth is made after the whitened frames of 'past' are dropped
    for side, traj in _trajectories(mix_spec, evd, ln, method, beta, loading,
                                    bundle.truth, rtf.SIDES[::-1]):
        if side == "left" and method != "none":  # before its weights overwrite it
            report.rtf_mse_db = rtf.rtf_mse(traj, bundle.truth.rtf[side]())
        enhanced = beamform_side(mix_spec, bundle.config, evd, traj, method,
                                 mvdr_loading)
        ref = traj.ref_channel
        del traj
        report.enhanced[side] = enhanced
        n = enhanced.size
        clean = bundle.clean[ref, :n]
        mixture = bundle.mixture[ref, :n]
        setattr(report, f"si_sdr_{side}", metrics.si_sdr(enhanced, clean))
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
    per STFT frame. Each bin's |B|, (T, L), goes to `sink` in bin order
    (`beamformer.narrowband_beampattern`). Frame-invariant ('cw-batch',
    'none') weights give one column, broadcast read-only over the frames."""
    if not 0.0 < angle_step_deg <= 180.0:  # refuses nan and inf too
        raise ValueError(f"angle step {angle_step_deg!r} deg is not in (0, 180]")
    # the STFT and the trajectory are dropped before the pattern is
    # computed, so their ~16 MB is not held under it at the peak
    evd, trajs = estimate(bundle, method, beta, loading, noise_frames, ("left",))[1:]
    weights = side_weights(trajs.pop("left"), evd, method, mvdr_loading)
    count = int(180.0 / angle_step_deg + 1e-9) + 1  # a step dividing 180 keeps 90
    angles = np.minimum(-90.0 + angle_step_deg * np.arange(count), 90.0)
    shape = (angles.size, bundle.config.num_frames(bundle.mixture.shape[1]))
    wideband = beamformer.narrowband_beampattern(
        weights, bundle.scenario.mic_axis_offsets(), bundle.config, angles,
        lambda b: sink(np.broadcast_to(b, shape)),
    )
    return angles, np.broadcast_to(wideband, shape)
