"""Moving-speaker scenario simulator with analytic free-field ground truth.

Geometry: an 8-mic linear array at room center, randomly rotated; a source
on a circular arc around the array center; 20 babblers near the walls.
Rendering is free-field (gain 1/r, pure propagation delay) and linear in
the sources. Static sources (a pinned target, or the babblers) are
rendered in the frequency domain: one rfft per source at a common 5-smooth
length, each spectrum times its fractional-delay `stft.phase_ramp` and 1/r
summed into each mic's row of bins in turn, then one irfft per mic. The
babblers' signals come from `babbler_stream` one at a time, each added into
the mic spectra before the next is drawn. A moving source goes through a
32-tap raised-cosine windowed-sinc interpolator, its trajectory sampled per
STFT hop, in Farrow form: each tap is a degree-14 Chebyshev polynomial in
the delay fraction, fitted once per process. The render runs blocks of
4096 output samples: the mics' delay and gain rows of a block are
interpolated from their hop knots, one matrix product filters the source by
the 15 coefficient columns over the samples the block gathers, and every
mic gathers the filtered signals at its integer delays and sums the
polynomial by Clenshaw's recurrence. No (M, N) delay row or whole-signal
filter bank is held, and each block's product is aligned so that the
output has the bits of one product over all samples. The babble's 4 Hz
modulations share one sin and one cos of the time axis: each signal's
phase enters by angle addition.

The DOA and the analytic RTFs of the same geometry are returned as ground
truth for verifying the estimators. The RTFs are kept as geometry, not
arrays: each side's truth is a maker that computes a fresh trajectory each
time it is called, of all frames or of the block of frames it is asked
for, its ramps written straight into the (F, M, L) values. So a held
bundle holds no (F, M, L) truth, and a caller may write over what it is
given. A static source's RTF is the same
in every frame, so its truth has one frame, (F, M, 1), the L' = 1 rule of
`rtf.RtfTrajectory`; a moving source's has all L.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .beamformer import SPEED_OF_SOUND
from .covariance import PRODUCT_ALIGN
from .rtf import RtfTrajectory, reference_mics
from .stft import StftConfig, phase_ramp

NUM_MICS = 8
MIC_SPACING_M = 0.05
ARRAY_HEIGHT_M = 1.3
DEFAULT_DURATION_S = 4.0
DEFAULT_SAMPLE_RATE = 16000
LEAD_SILENCE_S = 0.5
NUM_BABBLERS = 20
# trajectory kept inside +/- this broadside angle: a linear array cannot
# disambiguate front/back, so arcs crossing endfire would fold the DOA
MAX_ABS_DOA_DEG = 80.0
SINC_HALF_TAPS = 16  # 32-tap interpolator
FARROW_DEGREE = 14  # polynomial degree of each tap in the fraction
# output samples per block of the moving render: its (M, 4096) rows are 256 KB
_SAMPLE_BLOCK = 4096
SNR_CAP_DB = 120.0


class SimulatorError(ValueError):
    pass


@dataclass
class Scenario:
    room_width: float
    room_length: float
    array_rotation_deg: float
    source_start_deg: float
    source_delta_deg: float
    source_radius: float
    babbler_positions: np.ndarray  # (B, 3)
    seed: int
    num_mics: int = NUM_MICS
    mic_spacing: float = MIC_SPACING_M
    duration_s: float = DEFAULT_DURATION_S
    sample_rate: int = DEFAULT_SAMPLE_RATE
    lead_silence_s: float = LEAD_SILENCE_S

    def __post_init__(self):
        self.babbler_positions = np.asarray(self.babbler_positions, dtype=np.float64)
        if not (1.0 <= self.source_radius <= 1.5):
            raise SimulatorError("source radius must be in [1, 1.5] m")
        aperture = (self.num_mics - 1) * self.mic_spacing
        if aperture + 2 * self.source_radius > min(self.room_width, self.room_length):
            raise SimulatorError("array plus trajectory does not fit in room")

    @property
    def num_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate))

    @property
    def array_center(self) -> np.ndarray:
        return np.array([self.room_width / 2, self.room_length / 2, ARRAY_HEIGHT_M])

    def array_axis(self) -> np.ndarray:
        phi = np.deg2rad(self.array_rotation_deg)
        return np.array([np.cos(phi), np.sin(phi), 0.0])

    def array_normal(self) -> np.ndarray:
        phi = np.deg2rad(self.array_rotation_deg)
        return np.array([-np.sin(phi), np.cos(phi), 0.0])

    def mic_positions(self) -> np.ndarray:
        """(M, 3) room coordinates; mic 0 is the left-most element."""
        offsets = (np.arange(self.num_mics) - (self.num_mics - 1) / 2) * self.mic_spacing
        return self.array_center[None, :] + offsets[:, None] * self.array_axis()[None, :]

    def mic_axis_offsets(self) -> np.ndarray:
        """Element coordinates along the array axis (for steering vectors)."""
        return np.arange(self.num_mics) * self.mic_spacing

    def source_doa_deg(self, t: float | np.ndarray) -> np.ndarray:
        """Broadside DOA of the source at time t (constant during the lead)."""
        t = np.asarray(t, dtype=np.float64)
        t0 = self.lead_silence_s
        frac = np.clip((t - t0) / max(self.duration_s - t0, 1e-12), 0.0, 1.0)
        return self.source_start_deg + frac * self.source_delta_deg

    def source_position(self, t: float | np.ndarray) -> np.ndarray:
        # positive DOA lies on the -axis side so that propagation delay grows
        # with the element coordinate, matching the far-field steering model
        # tau_m = (x_m / c) sin(theta)
        theta = np.deg2rad(self.source_doa_deg(t))
        u = self.array_axis()
        n = self.array_normal()
        pos = (
            self.array_center[None, :]
            - self.source_radius * np.sin(theta)[..., None] * u[None, :]
            + self.source_radius * np.cos(theta)[..., None] * n[None, :]
        )
        return pos if np.ndim(t) else pos[0]

    def to_json(self) -> str:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["babbler_positions"] = self.babbler_positions.tolist()
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of `to_json`: a missing required field raises KeyError, a
        missing optional one takes its default, and a key that is not a field
        (the `room_height` of older bundles) is ignored."""
        d = json.loads(text)
        return cls(**{f.name: d[f.name] for f in fields(cls)
                      if f.name in d or f.default is MISSING})


@dataclass
class GroundTruth:
    doa_per_frame: np.ndarray  # degrees, (L,)
    # side -> maker of its trajectory: make(frames=slice(None)) returns a
    # fresh one of those frames; a one-frame truth returns its one frame
    rtf: dict[str, Callable[..., RtfTrajectory]]
    active_frames: np.ndarray  # bool (L,)


def sample_scenario(seed: int, static: bool = False) -> Scenario:
    """Draw a random scenario; deterministic given the seed.

    static=True pins the source (delta = 0) for estimation-accuracy sweeps.
    """
    rng = np.random.default_rng(seed)
    width = rng.uniform(6.0, 9.0)
    length = rng.uniform(6.0, 9.0)
    rotation = rng.uniform(-45.0, 45.0)
    radius = rng.uniform(1.0, 1.5)
    if static:
        delta = 0.0
        start = rng.uniform(-MAX_ABS_DOA_DEG, MAX_ABS_DOA_DEG)
    else:
        delta = rng.uniform(45.0, 150.0) * rng.choice([-1.0, 1.0])
        lo = min(0.0, delta)
        hi = max(0.0, delta)
        start = rng.uniform(-MAX_ABS_DOA_DEG - lo, MAX_ABS_DOA_DEG - hi)

    # babblers 0.3 m off a random wall, random height
    margin = 0.3
    babblers = np.empty((NUM_BABBLERS, 3))
    for i in range(NUM_BABBLERS):
        wall = rng.integers(0, 4)
        along = rng.uniform(margin, (width if wall < 2 else length) - margin)
        if wall == 0:
            babblers[i, :2] = (along, margin)
        elif wall == 1:
            babblers[i, :2] = (along, length - margin)
        elif wall == 2:
            babblers[i, :2] = (margin, along)
        else:
            babblers[i, :2] = (width - margin, along)
        babblers[i, 2] = rng.uniform(1.2, 1.9)

    return Scenario(
        room_width=width,
        room_length=length,
        array_rotation_deg=rotation,
        source_start_deg=start,
        source_delta_deg=delta,
        source_radius=radius,
        babbler_positions=babblers,
        seed=int(seed),
    )


def _fast_len(n: int) -> int:
    """Smallest 5-smooth integer >= n: a length numpy's FFT transforms fast."""
    # not scipy.fft.next_fast_len(n, real=True), which gives the same
    # lengths: rtfbeam imports no scipy at all, and scipy.fft alone would
    # add 150-180 ms (python -X importtime) to the ~200 ms import of rtfbeam
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _render_sources(
    signals, positions: np.ndarray, mic_positions: np.ndarray, fs: int, n: int
) -> np.ndarray:
    """Free-field sum of static sources at each mic, (M, n).

    Source s reaches mic m with gain 1/d_sm after tau_sm = d_sm / c. Each
    source is transformed once at a common 5-smooth FFT length, long enough
    that no delayed sample wraps; its spectrum times the `stft.phase_ramp`
    exp(-j 2 pi f tau_sm) / d_sm is summed into the mic spectra, and one
    inverse FFT over the mics returns the field, each path an exact
    band-limited fractional delay. `signals` is read one n-sample signal at
    a time, in the order of `positions`, so it may be a stream. Each path's
    ramp is formed, multiplied and added one mic at a time, in one reused
    row of bins: `phase_ramp` is elementwise in the delays, so the field has
    the bits of one (M, F) ramp array per source, without its 4 MB.
    """
    num_mics = mic_positions.shape[0]
    dists = np.linalg.norm(positions[:, None, :] - mic_positions[None, :, :], axis=2)
    delays = dists / SPEED_OF_SOUND * fs  # (S, M) samples
    longest = int(np.ceil(delays.max(initial=0.0)))
    nfft = _fast_len(n + longest + 4 * SINC_HALF_TAPS)
    nbins = nfft // 2 + 1
    field = np.zeros((num_mics, nbins), dtype=np.complex128)
    path = np.empty(nbins, dtype=np.complex128)
    for signal, delay, dist in zip(signals, delays, dists):
        spectrum = np.fft.rfft(signal, n=nfft)
        for row, d, r in zip(field, delay, dist):
            phase_ramp(d, nfft, 1.0 / r, path)
            path *= spectrum
            row += path
    return np.fft.irfft(field, n=nfft, axis=1)[:, :n]


@functools.cache
def _farrow_coefficients() -> np.ndarray:
    """(P+1, 32) Chebyshev coefficients of the taps h_k(f), k = -15..16.

    Row p holds c_kp of the degree-P least-squares fit
    h_k(f) ~ sum_p c_kp T_p(2f - 1) at the 4P Chebyshev nodes
    u_j = cos(theta_j), f_j = (u_j + 1) / 2. T_0..T_P are orthogonal over
    those nodes, so the fit is a projection,
    c_kp = (2 - [p == 0]) / 4P sum_j cos(p theta_j) h_k(f_j), with no solve
    and no numpy.polynomial. Computed at the first moving render and kept,
    read-only.
    """
    theta = np.pi * (np.arange(4 * FARROW_DEGREE) + 0.5) / (4 * FARROW_DEGREE)
    frac = (np.cos(theta) + 1) / 2
    lags = np.arange(1 - SINC_HALF_TAPS, SINC_HALF_TAPS + 1) - frac[:, None]
    taps = np.sinc(lags) * (1 + np.cos(np.pi * lags / SINC_HALF_TAPS)) / 2
    chebyshev = np.cos(np.outer(np.arange(FARROW_DEGREE + 1), theta))  # T_p(u_j)
    coeffs = chebyshev @ taps / (2 * FARROW_DEGREE)
    coeffs[0] /= 2
    coeffs.flags.writeable = False  # every render shares this one array
    return coeffs


def _delay_varying(signal: np.ndarray, rows: Callable[[int, int], tuple]) -> np.ndarray:
    """Time-varying fractional delay: 32-tap windowed-sinc interpolation.

    y[i] = gain[i] sum_k h_k(f_i) x[i - n0_i - k] for k = -15..16, with
    n0 = floor(delay), f = delay - n0 and the raised-cosine windowed sinc
    h_k(f) = sinc(k - f) (1 + cos(pi (k - f) / 16)) / 2; samples outside the
    signal are zero. `rows(start, stop)` returns the (delays, gains) of
    output samples [start, stop), two (R, stop - start) arrays, one row per
    output, R outputs of the same source. It is called for one block of
    _SAMPLE_BLOCK samples at a time, twice per block: once for the bounds
    of the delays and once for the outputs, so the (R, N) delays and gains
    are never held.

    Farrow structure. `_farrow_coefficients` fits each tap by a Chebyshev
    series of degree P = FARROW_DEGREE in u = 2f - 1, h_k(f) ~ sum_p c_kp
    T_p(u), within 5e-15 of h_k at P = 14. Then
    y[i] = gain[i] sum_p T_p(u_i) z_p[i - n0_i], where z_p = sum_k c_kp
    x[. - k] is the source filtered by coefficient column p. A block's bank
    of the P+1 filtered signals is one matrix product over the columns its
    rows gather, so the outputs share it. What is left is a gather of each
    z_p and a Clenshaw recurrence over p, for all rows of the block at once.
    A sample with f == 0 copies x[i - n0_i] exactly: there h_k is 1 at k = 0
    and 0 elsewhere, which the fit only approximates.

    A block's bank starts and ends on a multiple of `PRODUCT_ALIGN` columns
    of the bank over the whole signal, or at its end, so its columns have
    the bits of one product over all of them.
    """
    n = signal.shape[0]
    half = SINC_HALF_TAPS
    coeffs = _farrow_coefficients()[:, ::-1]
    starts = range(0, n, _SAMPLE_BLOCK)
    bounds = [(np.floor(delays.min()), np.floor(delays.max()))
              for delays, _ in (rows(i, min(i + _SAMPLE_BLOCK, n)) for i in starts)]
    first = int(min(lo for lo, _ in bounds))
    last = int(max(hi for _, hi in bounds))
    # padded[q] = x[q - last - half], so window t, padded[t:t + 32], holds
    # x[t - last - k] for k = 16..-15, and the bank over the whole signal
    # would hold z_p[t - last] in its column t = i - n0_i + last, 0 <= t < width
    width = n + last - first
    padded = np.zeros(width + 2 * half - 1)
    lo, hi = max(-last - half, 0), min(width + half - 1 - last, n)
    if lo < hi:
        padded[lo + last + half : hi + last + half] = signal[lo:hi]
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half)

    out = None
    for start, (least, most) in zip(starts, bounds):
        stop = min(start + _SAMPLE_BLOCK, n)
        delay, g = rows(start, stop)
        if out is None:
            out = np.empty((delay.shape[0], n))
        # the block gathers bank columns start - most + last .. stop - 1 - least + last
        t0 = (start - int(most) + last) // PRODUCT_ALIGN * PRODUCT_ALIGN
        t1 = min(-(-(stop - int(least) + last) // PRODUCT_ALIGN) * PRODUCT_ALIGN, width)
        bank = coeffs @ windows[t0:t1].T
        floor = np.floor(delay)
        u = delay - floor
        exact = u == 0
        u *= 2.0
        u -= 1.0
        two_u = 2.0 * u
        index = np.empty(delay.shape, dtype=np.int64)
        np.subtract(np.arange(start + last - t0, stop + last - t0, dtype=np.float64), floor,
                    out=index, casting="unsafe")
        # Clenshaw: b_p = z_p + 2u b_{p+1} - b_{p+2}, y = z_0 + u b_1 - b_2
        b1, b2, z = np.take(bank[-1], index), np.zeros(delay.shape), np.empty(delay.shape)
        for filtered in bank[-2:0:-1]:
            np.take(filtered, index, out=z)
            np.subtract(z, b2, out=b2)
            np.multiply(two_u, b1, out=z)
            b2 += z
            b1, b2 = b2, b1
        y = out[:, start:stop]
        np.take(bank[0], index, out=y)
        y -= b2
        np.multiply(u, b1, out=z)
        y += z
        y[exact] = padded[index[exact] + t0 + half]
        y *= g
    return out


def _analytic_rtf(
    scenario: Scenario,
    frame_times: np.ndarray,
    config: StftConfig,
    ref_channel: int,
    frames: slice = slice(None),
) -> RtfTrajectory:
    """The analytic RTF of the frames `frames` of those at `frame_times`; a
    truth of one frame (a static source's) is that frame for any `frames`.
    Each frame's values are those of a call over all frames."""
    if frame_times.size > 1:
        frame_times = frame_times[frames]
    mics = scenario.mic_positions()
    pos = scenario.source_position(frame_times)  # (L, 3)
    dists = np.linalg.norm(mics[:, None, :] - pos[None, :, :], axis=2)  # (M, L)
    tau = dists / SPEED_OF_SOUND * config.sample_rate_hz  # samples
    # a_m(k, l) = exp(-j 2 pi f_k (tau_m - tau_ref)) * d_ref / d_m
    # written straight into the (M, L, F) view of the (F, M, L) values
    values = np.empty((config.num_bins, *tau.shape), dtype=np.complex128)
    phase_ramp(tau - tau[ref_channel], config.window_len, dists[ref_channel] / dists,
               values.transpose(1, 2, 0))
    return RtfTrajectory(values, ref_channel)


def render_moving_source(
    source: np.ndarray, scenario: Scenario, config: StftConfig
) -> tuple[np.ndarray, GroundTruth]:
    """Free-field render of the (possibly moving) target source.

    Returns the (M, N) multichannel clean signal and ground truth sampled
    at STFT frame centers: DOA, and a maker of the analytic RTF trajectory
    of each side, one frame for a static source and L for a moving one.
    """
    source = np.asarray(source, dtype=np.float64)
    n = scenario.num_samples
    if source.shape != (n,):
        raise SimulatorError(f"source must have {n} samples, got {source.shape}")
    fs = scenario.sample_rate
    mics = scenario.mic_positions()

    if scenario.source_delta_deg == 0.0:
        clean = _render_sources(
            source[None, :], scenario.source_position(0.0)[None, :], mics, fs, n
        )
    else:
        # positions at hop resolution, linearly interpolated per sample
        hop_times = np.arange(0, n + config.hop, config.hop) / fs
        hop_pos = scenario.source_position(hop_times)  # (H, 3)
        hop_d = np.linalg.norm(hop_pos[None, :, :] - mics[:, None, :], axis=2)  # (M, H)

        def rows(start, stop):
            """Every mic's delays and gains over samples [start, stop)."""
            t = np.arange(start, stop) / fs
            dist = np.stack([np.interp(t, hop_times, knots) for knots in hop_d])
            delay = np.divide(dist, SPEED_OF_SOUND)
            delay *= fs
            return delay, np.divide(1.0, dist)

        clean = _delay_varying(source, rows)

    num_frames = config.num_frames(n)
    frame_times = (np.arange(num_frames) * config.hop + config.window_len / 2) / fs
    doa = scenario.source_doa_deg(frame_times)
    # a pinned source has one RTF: its truth is the first frame's, (F, M, 1)
    rtf_times = frame_times[:1] if scenario.source_delta_deg == 0.0 else frame_times
    rtfs = {side: functools.partial(_analytic_rtf, scenario, rtf_times, config, ref)
            for side, ref in reference_mics(scenario.num_mics).items()}

    frame_energy = np.sum(config.frames(clean[0]) ** 2, axis=-1)
    active = frame_energy > 1e-4 * max(np.max(frame_energy), 1e-300)
    truth = GroundTruth(doa_per_frame=doa, rtf=rtfs, active_frames=active)
    return clean, truth


def render_babble(scenario: Scenario, babbler_signals: Iterable) -> np.ndarray:
    """Sum of static free-field renderings of each babbler, (M, N): one
    N-sample signal per babbler position of the scenario, from a (B, N)
    array or any iterable of B signals, such as `babbler_stream`, read one
    signal at a time. A count other than B raises SimulatorError once the
    signals are read."""
    positions = scenario.babbler_positions
    n = scenario.num_samples
    count = 0

    def checked():
        nonlocal count
        for count, signal in enumerate(babbler_signals, 1):
            signal = np.asarray(signal, dtype=np.float64)
            if signal.shape != (n,):
                raise SimulatorError(f"babbler signal {count} has shape {signal.shape}, "
                                     f"expected ({n},)")
            if count <= len(positions):
                yield signal

    noise = _render_sources(checked(), positions, scenario.mic_positions(),
                            scenario.sample_rate, n)
    if count != len(positions):
        raise SimulatorError(f"{count} babbler signals for {len(positions)} positions")
    return noise


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale noise so the clean/noise power ratio at mic 0 equals snr_db."""
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise SimulatorError("clean and noise shapes differ")
    if snr_db >= SNR_CAP_DB:
        return clean.copy()
    p_clean = np.mean(clean[0] ** 2)
    p_noise = np.mean(noise[0] ** 2)
    if p_clean <= 0 or p_noise <= 0:
        raise SimulatorError("zero-power clean or noise at reference channel")
    gain = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    # gain * noise + clean in one buffer: the bits of clean + gain * noise
    mixture = np.multiply(gain, noise)
    mixture += clean
    return mixture


def babbler_stream(
    seed: int,
    count: int = NUM_BABBLERS,
    duration_s: float = DEFAULT_DURATION_S,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> Iterator[np.ndarray]:
    """Speech-shaped noise: pink spectrum, 4 Hz amplitude modulation.

    Yields `count` signals of N samples, one at a time, each a fresh array
    of unit RMS; deterministic per seed. Signal i draws its white noise,
    then its modulation phase phi, from one generator in turn, so signal 0
    is the same for every count. The modulation 1 + sin(w t + phi) / 2
    expands by angle addition over one sin(w t) and cos(w t) shared by all
    signals.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    wt = 2 * np.pi * 4.0 * (np.arange(n) / sample_rate)
    sin_wt, cos_wt = np.sin(wt), np.cos(wt)
    mod, scratch = np.empty(n), np.empty(n)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    shaping = np.where(freqs > 50.0, np.sqrt(50.0 / np.maximum(freqs, 50.0)), 1.0)
    shaping[0] = 0.0
    for _ in range(count):
        white = rng.standard_normal(n)
        sig = np.fft.irfft(np.fft.rfft(white) * shaping, n=n)
        phase = rng.uniform(0, 2 * np.pi)
        np.multiply(sin_wt, np.cos(phase), out=mod)
        np.multiply(cos_wt, np.sin(phase), out=scratch)
        mod += scratch
        mod *= 0.5
        mod += 1.0
        sig *= mod
        sig /= np.sqrt(np.mean(sig**2))
        yield sig


def synthesize_babbler_signals(
    seed: int,
    count: int = NUM_BABBLERS,
    duration_s: float = DEFAULT_DURATION_S,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> np.ndarray:
    """The `babbler_stream` signals as one (count, N) array."""
    n = int(round(duration_s * sample_rate))
    out = np.empty((count, n))
    for row, sig in zip(out, babbler_stream(seed, count, duration_s, sample_rate)):
        row[:] = sig
    return out


def synthesize_target_signal(seed: int, scenario: Scenario) -> np.ndarray:
    """Speech-shaped target with the leading noise-only segment zeroed."""
    sig = synthesize_babbler_signals(
        seed, 1, scenario.duration_s, scenario.sample_rate
    )[0]
    lead = int(round(scenario.lead_silence_s * scenario.sample_rate))
    sig[:lead] = 0.0
    return sig
