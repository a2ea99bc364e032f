"""WDM fiber channel: pulse shaping, multiplexing, split-step propagation, EDFAs.

The simulation currency is :class:`FieldWaveform`: complex baseband samples of
shape (..., 2, T) with row -2 indexing polarization (x then y). Leading axes
batch independent blocks through the same vectorized operations. All blocks
are processed with periodic boundary conditions (circular filtering and FFT
propagation), so each block is self-contained.

Internally everything runs in SI units (seconds, Hz, W, m); configuration
dataclasses accept the usual engineering units and convert on access.

Propagation integrates the Manakov equation

    dA/dz = -(alpha/2) A - i (beta2/2) d^2A/dt^2 + i (8/9) gamma (|Ax|^2+|Ay|^2) A

by the symmetric split-step method: dispersion/loss half-steps in the FFT
domain around a nonlinear phase rotation evaluated at the step midpoint with
the loss-integrated effective length 2*sinh(alpha*dz/2)/alpha, which makes
constant-envelope self-phase rotation exact for any step count. The step
lengths follow :class:`SsfmStepConfig`: short where the power is high, so
that each step carries a bounded nonlinear phase, and capped in length
elsewhere (the nonlinear-phase and local-error step selection of Sinkin et
al., JLT 2003). Adjacent half-steps are merged into one multiplier.

The rotation exp(i*phi), phi = gnl*(|Ax|^2 + |Ay|^2), is evaluated without
trigonometric calls: sin comes from a Horner series in phi^2 whose length
keeps the truncation below 2^-53 for every phase up to the step bound
max_step_phase_rad, and cos = sqrt(1 - sin^2). With the default 0.05 rad
bound the series has four terms. Phases past 1/8 rad are halved m times
before the series and squared back m times after it. Because the series is
picked from the bound and not from the batch, a block's result does not
depend on which blocks share its batch. Against np.exp(1j*phi) the rotation
agrees within 4 ulp up to the 0.05 rad bound, and within 1e-13 absolute up
to 10 rad. A span runs block by block in cache-sized chunks, on
preallocated buffers, with np.fft writing in place through out= (numpy 2.0
or later); the caller's field is never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PLANCK_J_S",
    "FiberParams",
    "WdmConfig",
    "SsfmStepConfig",
    "AmplifierParams",
    "FieldWaveform",
    "ChannelError",
    "StepSizeError",
    "dbm_to_watts",
    "pulse_spectrum",
    "rrc_modulate",
    "wdm_mux",
    "wdm_demux",
    "ssfm_span",
    "edfa",
    "propagate_link",
    "standard_complex_noise",
]

PLANCK_J_S = 6.62607015e-34

MANAKOV_FACTOR = 8.0 / 9.0


class ChannelError(ValueError):
    pass


class StepSizeError(RuntimeError):
    """A split step rotated one block by more than the per-step phase bound.

    The message names what reproduces the failure: the block (its row in
    the propagated batch), the span (set by propagate_link), the step and
    its length, the phase and the block's peak power, the bound, and the
    schedule's peak allowance.
    """

    def __init__(self, block: int, step: int, step_m: float, phase_rad: float,
                 peak_w: float, bound_rad: float, peak_allowance_w: float):
        super().__init__(block, step, step_m, phase_rad, peak_w, bound_rad,
                         peak_allowance_w)
        self.span = None

    def __str__(self):
        block, step, step_m, phase, peak, bound, allowance = self.args
        where = "block %d" % block if self.span is None else \
            "block %d, span %d" % (block, self.span)
        return ("%s, step %d (%.6g m): nonlinear phase %.4g rad exceeds the %.3g rad "
                "bound; peak %.4g W against a %.4g W step allowance"
                % (where, step, step_m, phase, bound, peak, allowance))


def dbm_to_watts(p_dbm: float) -> float:
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


@dataclass(frozen=True)
class FiberParams:
    """Per-span fiber constants. beta2 keeps its sign (negative = anomalous)."""

    beta2_ps2_per_km: float = -21.7
    gamma_per_w_km: float = 1.27
    alpha_db_per_km: float = 0.2
    span_length_km: float = 100.0
    n_spans: int = 30

    def __post_init__(self):
        if self.alpha_db_per_km < 0:
            raise ChannelError("loss coefficient must be >= 0")
        if self.span_length_km <= 0:
            raise ChannelError("span length must be positive")
        if self.n_spans < 0:
            raise ChannelError("span count must be >= 0")

    @property
    def beta2_s2_per_m(self) -> float:
        return self.beta2_ps2_per_km * 1e-27

    @property
    def gamma_per_w_m(self) -> float:
        return self.gamma_per_w_km * 1e-3

    @property
    def alpha_per_m(self) -> float:
        """Power attenuation in 1/m (natural units)."""
        return self.alpha_db_per_km * (math.log(10.0) / 10.0) * 1e-3

    @property
    def span_length_m(self) -> float:
        return self.span_length_km * 1e3

    @property
    def span_loss_db(self) -> float:
        return self.alpha_db_per_km * self.span_length_km

    @property
    def total_length_m(self) -> float:
        return self.n_spans * self.span_length_m


@dataclass(frozen=True)
class WdmConfig:
    """Grid and pulse parameters shared by the transmitter and receiver.

    The pulse is root-raised-cosine with the given rolloff, realized as its
    closed-form frequency response sampled on the cyclic block grid, so the
    matched cascade is exactly inter-symbol-interference free on that grid.
    """

    n_channels: int = 5
    symbol_rate_gbd: float = 46.5
    spacing_ghz: float = 50.0
    rolloff: float = 0.05
    sps: int = 16

    def __post_init__(self):
        if self.n_channels < 1 or self.n_channels % 2 == 0:
            raise ChannelError("channel count must be odd and >= 1")
        if self.symbol_rate_gbd <= 0:
            raise ChannelError("symbol rate must be positive")
        if not 0 < self.rolloff <= 1:
            raise ChannelError("rolloff must be in (0, 1]")
        if self.sps < 2:
            raise ChannelError("need at least 2 samples per symbol")
        if self.spacing_ghz < self.symbol_rate_gbd:
            raise ChannelError("channel spacing below the symbol rate")
        if self.sps * self.symbol_rate_gbd < self.n_channels * self.spacing_ghz:
            raise ChannelError(
                "sample rate %.3g GHz cannot carry %d channels at %.3g GHz spacing"
                % (self.sps * self.symbol_rate_gbd, self.n_channels, self.spacing_ghz)
            )

    @property
    def symbol_rate_hz(self) -> float:
        return self.symbol_rate_gbd * 1e9

    @property
    def spacing_hz(self) -> float:
        return self.spacing_ghz * 1e9

    @property
    def sample_rate_hz(self) -> float:
        return self.sps * self.symbol_rate_hz

    @property
    def center_channel(self) -> int:
        return (self.n_channels - 1) // 2

    def channel_offset_hz(self, channel: int) -> float:
        """Carrier offset of channel k on the symmetric grid."""
        if not 0 <= channel < self.n_channels:
            raise ChannelError("channel index out of range")
        return (channel - (self.n_channels - 1) / 2.0) * self.spacing_hz


# share of max_step_phase_rad a phase-limited step carries at the peak allowance
_PHASE_FILL = 0.95


@dataclass(frozen=True)
class SsfmStepConfig:
    """Split-step schedule of one span, fixed by the config alone.

    Every step is at most span_length / steps_per_span long (default: 10
    steps per km). Where the power is high, a step is shortened further so
    that a span-input peak of peak_allowance_w rotates by no more than 0.95
    of max_step_phase_rad over it: (8/9) gamma P integral(exp(-alpha z) dz)
    over the step. Phase-limited steps run from the span input until they
    reach the length cap; the rest of the span is split into equal steps no
    longer than the cap. With no allowance (the default) the schedule is
    steps_per_span equal steps. The schedule never depends on the field, so
    a block's steps and result do not depend on its batch. Every step still
    checks each block's peak against max_step_phase_rad and raises
    :class:`StepSizeError` past it.
    """

    steps_per_span: int | None = None
    max_step_phase_rad: float = 0.05
    peak_allowance_w: float = 0.0

    def __post_init__(self):
        if self.steps_per_span is not None and self.steps_per_span < 1:
            raise ChannelError("steps_per_span must be >= 1")
        if self.max_step_phase_rad <= 0:
            raise ChannelError("max step phase must be positive")
        if self.peak_allowance_w < 0:
            raise ChannelError("peak allowance must be >= 0")

    def step_lengths(self, fiber: FiberParams, peak_power_w: float = 0.0) -> list[float]:
        """Step lengths in m, in order, for an allowance of at least peak_power_w."""
        length = fiber.span_length_m
        count = self.steps_per_span or max(1, math.ceil(10.0 * fiber.span_length_km))
        cap = length / count
        alpha = fiber.alpha_per_m
        # phase per metre at the span input under the allowance
        rate = MANAKOV_FACTOR * abs(fiber.gamma_per_w_m) \
            * max(self.peak_allowance_w, peak_power_w)
        budget = _PHASE_FILL * self.max_step_phase_rad
        steps = []
        z = 0.0
        while rate > 0.0:
            if alpha == 0.0:
                h = budget / rate
            else:  # rate * (exp(-alpha z) - exp(-alpha (z + h))) / alpha = budget
                x = budget * alpha / rate * math.exp(alpha * z)
                h = math.inf if x >= 1.0 else -math.log1p(-x) / alpha
            if h >= cap:
                break
            if z + h >= length:  # phase-limited up to the span end
                return steps + [length - z]
            steps.append(h)
            z += h
        rest = length - z
        # 1e-9 absorbs the rounding of rest / cap, so that without an allowance
        # the steps are exactly steps_per_span of length / steps_per_span
        n = max(1, math.ceil(rest / cap - 1e-9))
        return steps + [rest / n] * n

    def resolve(self, fiber: FiberParams, peak_power_w: float = 0.0) -> int:
        """Steps per span: the length of step_lengths(fiber, peak_power_w)."""
        return len(self.step_lengths(fiber, peak_power_w))


@dataclass(frozen=True)
class AmplifierParams:
    """Lumped EDFA model: flat amplitude gain plus white ASE per polarization."""

    noise_figure_db: float = 5.0
    noise_on: bool = True
    center_frequency_thz: float = 193.41

    def __post_init__(self):
        if self.noise_on and self.noise_figure_db < 3.0:
            raise ChannelError("noise figure below the 3 dB quantum limit")
        if self.center_frequency_thz <= 0:
            raise ChannelError("center frequency must be positive")

    @property
    def spontaneous_emission_factor(self) -> float:
        return 10.0 ** (self.noise_figure_db / 10.0) / 2.0

    def ase_variance_per_sample(self, gain_db: float, sample_rate_hz: float) -> float:
        """Complex-sample ASE variance per polarization for a given gain."""
        g = 10.0 ** (gain_db / 10.0)
        psd = (g - 1.0) * PLANCK_J_S * self.center_frequency_thz * 1e12 \
            * self.spontaneous_emission_factor
        return psd * sample_rate_hz


@dataclass
class FieldWaveform:
    """Sampled dual-polarization optical field.

    samples: complex ndarray, shape (..., 2, T).
    symbol_scale: constellation-to-waveform amplitude factor recorded at
    modulation (scalar, or an array broadcastable over the leading axes) so
    the receiver can return symbols in constellation units. A multiplexed
    waveform carries one scale per channel along a leading axis of its own.
    """

    samples: np.ndarray
    sample_rate_hz: float
    symbol_scale: np.ndarray | float = 1.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim < 2 or self.samples.shape[-2] != 2:
            raise ChannelError("field samples must have shape (..., 2, T)")
        if self.sample_rate_hz <= 0:
            raise ChannelError("sample rate must be positive")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]

    def mean_power_w(self) -> np.ndarray | float:
        """Time-averaged total (x+y) power, per leading batch element."""
        p = (np.abs(self.samples) ** 2).sum(axis=-2).mean(axis=-1)
        return float(p) if p.ndim == 0 else p


def _omega(n: int, sample_rate_hz: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / sample_rate_hz)


def _rc_spectrum(f_over_rs: np.ndarray, rolloff: float) -> np.ndarray:
    """Closed-form raised-cosine spectrum, frequency in symbol-rate units."""
    af = np.abs(f_over_rs)
    out = np.zeros_like(af)
    flat = af <= (1.0 - rolloff) / 2.0
    out[flat] = 1.0
    edge = (~flat) & (af <= (1.0 + rolloff) / 2.0)
    out[edge] = 0.5 * (1.0 + np.cos(np.pi / rolloff * (af[edge] - (1.0 - rolloff) / 2.0)))
    return out


def pulse_spectrum(wdm: WdmConfig, n_samples: int) -> np.ndarray:
    """Tx/Rx pulse filter response on the cyclic grid (real, zero phase).

    The squared response is the sampled raised-cosine spectrum, scaled so
    the matched cascade has unit gain at symbol instants.
    """
    f = np.fft.fftfreq(n_samples, d=1.0 / wdm.sps)  # in symbol-rate units
    g = _rc_spectrum(f, wdm.rolloff)
    mean = g.mean()
    if mean <= 0:
        raise ChannelError("degenerate pulse spectrum")
    return np.sqrt(g / mean)


def rrc_modulate(symbols: np.ndarray, wdm: WdmConfig,
                 launch_power_dbm: float) -> FieldWaveform:
    """Pulse-shape symbol blocks and scale each block to the launch power.

    symbols: (..., 2, n) complex in constellation units. The returned
    waveform has T = n * sps samples per block; the per-block amplitude
    factor applied to reach the launch power is stored in symbol_scale.
    """
    sym = np.asarray(symbols, dtype=complex)
    if sym.ndim < 2 or sym.shape[-2] != 2:
        raise ChannelError("expected symbols of shape (..., 2, n)")
    n = sym.shape[-1]
    t_len = n * wdm.sps
    up = np.zeros(sym.shape[:-1] + (t_len,), dtype=complex)
    up[..., ::wdm.sps] = sym
    h = pulse_spectrum(wdm, t_len)
    wave = np.fft.ifft(np.fft.fft(up, axis=-1) * h, axis=-1)
    power = (np.abs(wave) ** 2).sum(axis=-2).mean(axis=-1)
    if np.any(power <= 0):
        raise ChannelError("cannot scale an all-zero block to the launch power")
    scale = np.sqrt(dbm_to_watts(launch_power_dbm) / power)
    wave *= scale[..., None, None]
    return FieldWaveform(wave, wdm.sample_rate_hz, symbol_scale=scale)


def _carrier_bin(wdm: WdmConfig, channel: int, n_samples: int) -> int:
    """Carrier offset snapped to the nearest cyclic FFT bin."""
    df = wdm.sample_rate_hz / n_samples
    return int(round(wdm.channel_offset_hz(channel) / df))


def wdm_mux(channels: list[FieldWaveform], wdm: WdmConfig) -> FieldWaveform:
    """Sum per-channel waveforms onto the symmetric carrier grid.

    Carriers are snapped to FFT bins of the block (sub-bin error is below
    half the block line spacing) so the composite stays exactly cyclic.
    Channel symbol scales are stacked along a new leading axis of
    symbol_scale, in channel order.
    """
    if len(channels) != wdm.n_channels:
        raise ChannelError("expected %d channel waveforms" % wdm.n_channels)
    t_len = channels[0].n_samples
    shape = channels[0].samples.shape
    total = np.zeros(shape, dtype=complex)
    scales = []
    for k, ch in enumerate(channels):
        if ch.samples.shape != shape:
            raise ChannelError("channel waveform shapes differ")
        if ch.sample_rate_hz != channels[0].sample_rate_hz:
            raise ChannelError("channel sample rates differ")
        spec = np.fft.fft(ch.samples, axis=-1)
        total += np.fft.ifft(np.roll(spec, _carrier_bin(wdm, k, t_len), axis=-1), axis=-1)
        scales.append(np.broadcast_to(np.asarray(ch.symbol_scale), shape[:-2]).copy())
    return FieldWaveform(total, channels[0].sample_rate_hz,
                         symbol_scale=np.stack(scales, axis=0))


def wdm_demux(field: FieldWaveform, wdm: WdmConfig, channel: int) -> FieldWaveform:
    """Shift one channel to baseband and brick-wall filter to half the spacing.

    The field must come from wdm_mux: one symbol scale per channel and block.
    """
    scale = np.asarray(field.symbol_scale)
    want = (wdm.n_channels,) + field.samples.shape[:-2]
    if scale.shape != want:
        raise ChannelError("symbol scale shaped %s, not %s: demux needs a field from wdm_mux"
                           % (scale.shape, want))
    t_len = field.n_samples
    spec = np.roll(np.fft.fft(field.samples, axis=-1),
                   -_carrier_bin(wdm, channel, t_len), axis=-1)
    f = np.fft.fftfreq(t_len, d=1.0 / field.sample_rate_hz)
    spec *= np.abs(f) <= wdm.spacing_hz / 2.0 + 1e-6
    return FieldWaveform(np.fft.ifft(spec, axis=-1), field.sample_rate_hz,
                         symbol_scale=scale[channel])


# Series rotation. sin(phi)/phi = sum_k (-1)^k u^k/(2k+1)!, u = phi^2. K terms
# are enough for |phi| <= _SIN_LIMIT[K]: there the first dropped term, relative
# to sin(phi), is x^(2K)/(2K+1)! <= 2^-53. Five terms cover _SERIES_RANGE (up to
# 0.146 rad); larger phases are halved into it. cos(phi) = sqrt(1 - sin(phi)^2)
# holds to rounding because cos > 0 on the range.
_SERIES_RANGE = 0.125
_SIN_COEF = [(-1) ** k / math.factorial(2 * k + 1) for k in range(5)]
_SIN_LIMIT = {k: (math.factorial(2 * k + 1) * 2.0 ** -53) ** (1.0 / (2 * k))
              for k in range(2, 5)}


# Blocks run through a span in chunks of about this many complex samples, so
# that a chunk and its work buffers stay in a core's L2 cache for all steps.
_CHUNK_SAMPLES = 1 << 14


class _SplitStepWork:
    """Preallocated buffers for split steps on up to `rows` blocks of t_len samples."""

    def __init__(self, rows: int, t_len: int):
        n = rows * t_len
        self.squares = np.empty((rows, 2, 2 * t_len))  # re^2, im^2 interleaved
        self.pol_sum = np.empty((rows, 2 * t_len))
        self.power = np.empty((rows, t_len))
        self.u = np.empty(n)
        self.sin = np.empty(n)
        self.rot = np.empty(n, dtype=complex)

    def power_of(self, buf: np.ndarray) -> np.ndarray:
        """|Ax|^2 + |Ay|^2 of (rows, 2, t_len) samples, as re^2 + im^2."""
        n = buf.shape[0]
        squares, pol_sum, power = self.squares[:n], self.pol_sum[:n], self.power[:n]
        np.square(buf.view(float), out=squares)
        np.add(squares[:, 0], squares[:, 1], out=pol_sum)
        return np.add(pol_sum[:, 0::2], pol_sum[:, 1::2], out=power)

    def rotation(self, power: np.ndarray, gnl: float, phi_range: float) -> np.ndarray:
        """exp(i*gnl*power), shaped like power, for phases |gnl*power| <= phi_range."""
        halvings = max(0, math.frexp(phi_range / _SERIES_RANGE)[1])
        x = math.ldexp(phi_range, -halvings)
        terms = next((k for k, limit in _SIN_LIMIT.items() if x <= limit), 5)
        g = math.ldexp(gnl, -halvings)
        n = power.size
        p, u, s, rot = power.reshape(-1), self.u[:n], self.sin[:n], self.rot[:n]
        # Horner in u = power^2 with g folded into the coefficients: sin(g*p)/p
        np.multiply(p, p, out=u)
        np.multiply(u, _SIN_COEF[terms - 1] * g ** (2 * terms - 1), out=s)
        for k in range(terms - 2, -1, -1):
            s += _SIN_COEF[k] * g ** (2 * k + 1)
            if k:
                s *= u
        np.multiply(s, p, out=rot.imag)
        np.multiply(rot.imag, rot.imag, out=s)
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=rot.real)
        for _ in range(halvings):
            rot *= rot
        return rot.reshape(power.shape)


def _span_operators(fiber: FiberParams, step_cfg: SsfmStepConfig, t_len: int,
                    sample_rate_hz: float):
    """One span's schedule as (first, linear, gnls, lengths).

    first is the opening half-step. linear[i] follows nonlinear step i: the
    half-steps of steps i and i+1 merged into one multiplier, and the closing
    half-step after the last. One exponential is taken per distinct step
    length and one product per distinct pair, shared by every step using it.
    gnls[i] is the nonlinear coefficient of step i, loss-integrated over it.
    """
    lengths = step_cfg.step_lengths(fiber)
    alpha = fiber.alpha_per_m
    w2 = _omega(t_len, sample_rate_hz) ** 2
    halves, merged = {}, {}
    for h in lengths:
        if h not in halves:
            halves[h] = np.exp((0.5j * fiber.beta2_s2_per_m * w2 - 0.5 * alpha) * (h / 2.0))
    linear = []
    for pair in zip(lengths, lengths[1:]):
        if pair not in merged:
            merged[pair] = halves[pair[0]] * halves[pair[1]]
        linear.append(merged[pair])
    linear.append(halves[lengths[-1]])
    gnls = [MANAKOV_FACTOR * fiber.gamma_per_w_m
            * (h if alpha == 0.0 else 2.0 * math.sinh(alpha * h / 2.0) / alpha)
            for h in lengths]
    return halves[lengths[0]], linear, gnls, lengths


def _split_steps(buf: np.ndarray, operators, step_cfg: SsfmStepConfig,
                 work: _SplitStepWork, first_row: int) -> None:
    """All steps of one span on a (rows, 2, t_len) spectrum, in place.

    Each block is held to the phase bound by its own peak, so whether a
    block passes does not depend on the blocks beside it; the error names
    the first block over the bound by its row in the whole batch.
    """
    first, linear, gnls, lengths = operators
    bound = step_cfg.max_step_phase_rad
    buf *= first
    for step, (gnl, lin) in enumerate(zip(gnls, linear)):
        np.fft.ifft(buf, axis=-1, out=buf)
        power = work.power_of(buf)
        phase = abs(gnl) * power.max(axis=1)
        if phase.max() > bound:
            row = int(np.argmax(phase > bound))
            raise StepSizeError(first_row + row, step, lengths[step], float(phase[row]),
                                float(phase[row] / abs(gnl)), bound,
                                step_cfg.peak_allowance_w)
        # the guard caps every phase at the bound, whatever the batch
        buf *= work.rotation(power, gnl, bound)[:, None, :]
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= lin


class _Span:
    """One span's split-step operators and work buffers, for fields shaped like `field`.

    They depend on the fiber, the step schedule and the field's shape and
    sample rate alone, so a link builds them once and runs every span on them.
    """

    def __init__(self, field: FieldWaveform, fiber: FiberParams, step_cfg: SsfmStepConfig):
        t_len = field.n_samples
        self.step_cfg = step_cfg
        self.operators = _span_operators(fiber, step_cfg, t_len, field.sample_rate_hz)
        self.rows = max(1, min(field.samples.size // (2 * t_len),
                               _CHUNK_SAMPLES // (2 * t_len)))
        self.work = _SplitStepWork(self.rows, t_len)

    def __call__(self, field: FieldWaveform) -> FieldWaveform:
        a = field.samples
        # spec is this call's own array, one row per block, so the FFTs may overwrite it
        spec = np.fft.fft(a.reshape(-1, 2, field.n_samples), axis=-1)
        for lo in range(0, spec.shape[0], self.rows):
            _split_steps(spec[lo:lo + self.rows], self.operators, self.step_cfg,
                         self.work, lo)
        return FieldWaveform(np.fft.ifft(spec, axis=-1, out=spec).reshape(a.shape),
                             field.sample_rate_hz, symbol_scale=field.symbol_scale)


def ssfm_span(field: FieldWaveform, fiber: FiberParams,
              step_cfg: SsfmStepConfig | None = None) -> FieldWaveform:
    """Propagate one fiber span by the symmetric split-step Manakov method."""
    return _Span(field, fiber, step_cfg or SsfmStepConfig())(field)


def standard_complex_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Circular complex Gaussian with unit variance per complex sample."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def edfa(field: FieldWaveform, amp: AmplifierParams, gain_db: float,
         unit_noise: np.ndarray | None = None) -> FieldWaveform:
    """Amplify by sqrt(gain) and add white ASE on both polarizations.

    With ASE on, the caller supplies ``unit_noise``: unit complex variance,
    shaped like the samples. Drawing it outside keeps batched runs
    independent of batch composition.
    """
    out = field.samples * 10.0 ** (gain_db / 20.0)
    if amp.noise_on:
        var = amp.ase_variance_per_sample(gain_db, field.sample_rate_hz)
        if unit_noise is None:
            raise ChannelError("ASE enabled but no noise source given")
        if unit_noise.shape != out.shape:
            raise ChannelError("unit_noise shape mismatch")
        out = out + math.sqrt(var) * unit_noise
    return FieldWaveform(out, field.sample_rate_hz, symbol_scale=field.symbol_scale)


def propagate_link(field: FieldWaveform, fiber: FiberParams, amp: AmplifierParams,
                   step_cfg: SsfmStepConfig | None = None,
                   unit_noise_for_span=None) -> FieldWaveform:
    """Run n_spans of fiber, each followed by a loss-compensating EDFA.

    unit_noise_for_span: callable span_index -> unit-variance complex array
    shaped like the samples (or None for that span). Required when ASE is on.
    A link with zero spans returns the input unchanged.
    """
    out = field
    span_fn = _Span(field, fiber, step_cfg or SsfmStepConfig())
    for span in range(fiber.n_spans):
        try:
            out = span_fn(out)
        except StepSizeError as exc:
            exc.span = span
            raise
        noise = None
        if amp.noise_on:
            if unit_noise_for_span is None:
                raise ChannelError("ASE enabled but no per-span noise source given")
            noise = unit_noise_for_span(span)
        out = edfa(out, amp, gain_db=fiber.span_loss_db, unit_noise=noise)
    return out

