"""WDM fiber channel: pulse shaping, multiplexing, split-step propagation, EDFAs.

The simulation currency is :class:`FieldWaveform`: complex baseband samples of
shape (..., 2, T), row -2 indexing polarization (x then y), and their sample
rate, nothing more. Leading axes batch independent blocks through the same
vectorized operations. All blocks are processed with periodic boundary
conditions (circular filtering and FFT propagation), so each is self-contained.

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
trigonometric calls: sin comes from a four-term Horner series in phi^2,
whose truncation stays below 2^-53 for every phase up to the step bound
MAX_STEP_PHASE_RAD, and cos = sqrt(1 - sin^2). The series is fixed, so a
block's result does not depend on which blocks share its batch. Against
np.exp(1j*phi) the rotation agrees within 4 ulp up to the 0.05 rad bound.

One object, built once per link, is the whole kernel: the opening
half-step and, per step, its length, nonlinear coefficient, series
coefficients and merged linear multiplier. A span runs block by block in
cache-sized chunks, on preallocated buffers, with np.fft writing in place
through out= (numpy 2.0 or later); the caller's field is never written.
Each step's guard takes one maximum over the chunk.

Rows share nothing, so propagate_link may split a batch by rows over
several processes, with the bits of the serial loop at every count; when a
block fails, the lowest block that fails alone raises its own error. The
kernel's docstring, _Span's, states how.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "MAX_STEP_PHASE_RAD",
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
    "propagate_link",
    "standard_complex_noise",
]

PLANCK_J_S = 6.62607015e-34

MANAKOV_FACTOR = 8.0 / 9.0

# largest nonlinear phase one split step may rotate a block by (Sinkin et al., JLT 2003)
MAX_STEP_PHASE_RAD = 0.05


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


# share of MAX_STEP_PHASE_RAD a phase-limited step carries at the peak allowance
_PHASE_FILL = 0.95


@dataclass(frozen=True)
class SsfmStepConfig:
    """Split-step schedule of one span, fixed by the config alone.

    Every step is at most span_length / steps_per_span long (0, the default:
    10 steps per km). Where the power is high, a step is shortened further so
    that a span-input peak of peak_allowance_w rotates by no more than 0.95
    of MAX_STEP_PHASE_RAD over it: (8/9) gamma P integral(exp(-alpha z) dz)
    over the step. Phase-limited steps run from the span input until they
    reach the length cap; the rest of the span is split into equal steps no
    longer than the cap. With no allowance (the default) the schedule is
    steps_per_span equal steps. The schedule never depends on the field, so
    a block's steps and result do not depend on its batch. Every step still
    checks each block's peak against MAX_STEP_PHASE_RAD and raises
    :class:`StepSizeError` past it.
    """

    steps_per_span: int = 0
    peak_allowance_w: float = 0.0

    def __post_init__(self):
        if self.steps_per_span < 0:
            raise ChannelError("steps_per_span must be >= 0")
        if not 0.0 <= self.peak_allowance_w < math.inf:  # inf would step forever
            raise ChannelError("peak allowance must be finite and >= 0")

    def step_lengths(self, fiber: FiberParams, peak_power_w: float = 0.0) -> list[float]:
        """Step lengths in m, in order, for an allowance of at least peak_power_w."""
        length = fiber.span_length_m
        count = self.steps_per_span or max(1, math.ceil(10.0 * fiber.span_length_km))
        cap = length / count
        alpha = fiber.alpha_per_m
        # phase per metre at the span input under the allowance
        rate = MANAKOV_FACTOR * abs(fiber.gamma_per_w_m) \
            * max(self.peak_allowance_w, peak_power_w)
        budget = _PHASE_FILL * MAX_STEP_PHASE_RAD
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
    """Sampled dual-polarization optical field: complex samples, shape (..., 2, T)."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim < 2 or self.samples.shape[-2] != 2:
            raise ChannelError("field samples must have shape (..., 2, T)")
        if self.sample_rate_hz <= 0:
            raise ChannelError("sample rate must be positive")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[-1]


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
                 launch_power_dbm: float) -> tuple[FieldWaveform, np.ndarray]:
    """Pulse-shape symbol blocks and scale each block to the launch power.

    symbols: (..., 2, n) complex in constellation units. Returns the
    waveform, T = n * sps samples per block, and the (...) per-block
    amplitude factors that took each block to the launch power: dividing
    them out of the matched filter's samples gives constellation units.
    The symbols are upsampled into the output array, which is filtered and
    scaled in place.
    """
    sym = np.asarray(symbols, dtype=complex)
    if sym.ndim < 2 or sym.shape[-2] != 2:
        raise ChannelError("expected symbols of shape (..., 2, n)")
    n = sym.shape[-1]
    t_len = n * wdm.sps
    wave = np.zeros(sym.shape[:-1] + (t_len,), dtype=complex)
    wave[..., ::wdm.sps] = sym
    np.fft.fft(wave, axis=-1, out=wave)
    np.multiply(wave, pulse_spectrum(wdm, t_len), out=wave)
    np.fft.ifft(wave, axis=-1, out=wave)
    power = (np.abs(wave) ** 2).sum(axis=-2).mean(axis=-1)
    if np.any(power <= 0):
        raise ChannelError("cannot scale an all-zero block to the launch power")
    scale = np.sqrt(dbm_to_watts(launch_power_dbm) / power)
    wave *= scale[..., None, None]
    return FieldWaveform(wave, wdm.sample_rate_hz), scale


def _carrier_bin(wdm: WdmConfig, channel: int, n_samples: int) -> int:
    """Carrier offset snapped to the nearest cyclic FFT bin."""
    df = wdm.sample_rate_hz / n_samples
    return int(round(wdm.channel_offset_hz(channel) / df))


def wdm_mux(channels: Iterable[FieldWaveform], wdm: WdmConfig) -> FieldWaveform:
    """Sum per-channel waveforms onto the symmetric carrier grid.

    channels: wdm.n_channels waveforms of one shape and sample rate, in
    channel order, from any iterable. Each is added into the composite as
    it arrives and is not written, so a generator that builds one waveform
    at a time keeps one channel alive, not n_channels. Carriers are snapped
    to FFT bins of the block (sub-bin error is below half the block line
    spacing) so the composite stays exactly cyclic.
    """
    total = rate = None
    for k, ch in enumerate(channels):
        if k == wdm.n_channels:
            raise ChannelError("expected %d channel waveforms" % wdm.n_channels)
        if total is None:
            total, rate = np.zeros_like(ch.samples), ch.sample_rate_hz
        elif ch.samples.shape != total.shape:
            raise ChannelError("channel waveform shapes differ")
        elif ch.sample_rate_hz != rate:
            raise ChannelError("channel sample rates differ")
        spec = np.roll(np.fft.fft(ch.samples, axis=-1),
                       _carrier_bin(wdm, k, total.shape[-1]), axis=-1)
        del ch  # the generator's next waveform need not wait beside this one
        total += np.fft.ifft(spec, axis=-1, out=spec)
        del spec
    if total is None or k + 1 != wdm.n_channels:
        raise ChannelError("expected %d channel waveforms" % wdm.n_channels)
    return FieldWaveform(total, rate)


def wdm_demux(field: FieldWaveform, wdm: WdmConfig, channel: int) -> FieldWaveform:
    """Shift one channel to baseband and brick-wall filter to half the spacing.

    The output is one new array, filtered and transformed in place; the
    input field is not written.
    """
    t_len = field.n_samples
    spec = np.roll(np.fft.fft(field.samples, axis=-1),
                   -_carrier_bin(wdm, channel, t_len), axis=-1)
    f = np.fft.fftfreq(t_len, d=1.0 / field.sample_rate_hz)
    spec *= np.abs(f) <= wdm.spacing_hz / 2.0 + 1e-6
    return FieldWaveform(np.fft.ifft(spec, axis=-1, out=spec), field.sample_rate_hz)


# Series rotation. sin(phi)/phi = sum_k (-1)^k u^k/(2k+1)!, u = phi^2. Four terms
# suffice up to MAX_STEP_PHASE_RAD: the first dropped term, relative to sin(phi),
# is phi^8/9! <= 2^-53 for phi <= 0.0506 rad. cos(phi) = sqrt(1 - sin(phi)^2)
# holds to rounding because cos > 0 on the range.
_SIN_COEF = [(-1) ** k / math.factorial(2 * k + 1) for k in range(4)]


# Blocks run through a span in chunks of about this many complex samples, so
# that a chunk and its work buffers stay in a core's L2 cache for all steps.
_CHUNK_SAMPLES = 1 << 14

# The fewest sample-steps (rows x samples x steps over the link) a forked share
# carries. On a 2-core x86 host, entering and leaving a split span (fork, map,
# reap) took about 2 ms at ~100 MB RSS, and a serial share this size about 15 ms.
_FORK_SAMPLE_STEPS = 1 << 20


class _Span:
    """The split-step kernel of a span, for fields shaped like `field`.

    Construction builds what the fiber, the schedule and the field's shape
    fix, once per link: the opening half-step, and per step its length,
    |gnl|, the series' coefficients with gnl folded in, and the multiplier
    after it, which merges the step's half-step with the next one's (one
    exponential per distinct length, one product per distinct pair). It
    also allocates one chunk's work buffers.

    The batch is cut into contiguous shares of near-equal rows: as many as
    processes, rows and the link's sample-steps allow, at _FORK_SAMPLE_STEPS
    or more per share, and one share in a process with more than one thread.
    Entering the span as a context manager allocates the link's spectrum
    buffer once. Past one share, the buffer is an anonymous shared mapping,
    and one process is forked per share past the first, the parent keeping
    the lowest rows; otherwise it is a plain array. Each share is stepped
    from its own first row in chunks of at most _CHUNK_SAMPLES. Every span,
    the parent writes the spectrum into the buffer, wakes the children over
    their pipes, steps its own share, reads one byte from each child in
    share order and inverse-transforms the buffer in place. A child catches
    nothing: an error ends it without a byte. The children inherit the
    kernel through the fork and leave through os._exit; leaving the context
    reaps them, and kills them first when the link is raising.

    One rule raises every error. A share fails when the parent's own rows
    raise or a child ends without its reply. The parent takes the first
    failed share in row order, steps its blocks alone from the span's input,
    lowest first, and the first block that fails raises its own error: a
    chunk stops at its first failure, and its StepSizeError names its first
    row, so only a block alone tells which block failed; a block alone fails
    the same way in every batch. So the error is the same at every process
    count: type, args, message and frames. A StepSizeError names the lowest
    block over the bound at its first step over it. If every block of the
    parent's share passes alone, the parent raises its share's error again;
    if every block of a child's share does, the child was killed from
    outside, and the parent raises a RuntimeError naming the child's rows
    and exit code. The error path costs at most one span per block of the
    failed share.
    """

    def __init__(self, field: FieldWaveform, fiber: FiberParams, step_cfg: SsfmStepConfig,
                 processes: int = 1):
        t_len = field.n_samples
        lengths = step_cfg.step_lengths(fiber)
        alpha = fiber.alpha_per_m
        w2 = (2.0 * np.pi * np.fft.fftfreq(t_len, d=1.0 / field.sample_rate_hz)) ** 2
        halves = {h: np.exp((0.5j * fiber.beta2_s2_per_m * w2 - 0.5 * alpha) * (h / 2.0))
                  for h in dict.fromkeys(lengths)}
        pairs = list(zip(lengths, lengths[1:]))
        merged = {pair: halves[pair[0]] * halves[pair[1]] for pair in dict.fromkeys(pairs)}
        linear = [merged[pair] for pair in pairs] + [halves[lengths[-1]]]
        self.first = halves[lengths[0]]
        self.steps = []  # (length, |gnl|, sine coefficients, linear multiplier) per step
        for h, lin in zip(lengths, linear):
            gnl = MANAKOV_FACTOR * fiber.gamma_per_w_m \
                * (h if alpha == 0.0 else 2.0 * math.sinh(alpha * h / 2.0) / alpha)
            self.steps.append((h, abs(gnl), [c * gnl ** (2 * k + 1) for k, c in
                                             enumerate(_SIN_COEF)], lin))
        self.allowance = step_cfg.peak_allowance_w
        n = field.samples.size // (2 * t_len)
        self.shape = (n, 2, t_len)
        self.rows = rows = max(1, min(n, _CHUNK_SAMPLES // (2 * t_len)))
        # re^2 and im^2 interleaved, their sums over polarizations, the power,
        # and the series' u, sine and rotation
        self.work = (np.empty((rows, 2, 2 * t_len)), np.empty((rows, 2 * t_len)),
                     np.empty((rows, t_len)), np.empty(rows * t_len), np.empty(rows * t_len),
                     np.empty(rows * t_len, dtype=complex))
        sample_steps = n * 2 * t_len * len(lengths) * fiber.n_spans
        if threading.active_count() > 1:  # a lock one held at a fork stays held in the child
            processes = 1
        shares = max(1, min(processes, n, sample_steps // _FORK_SAMPLE_STEPS))
        self.bounds = [n * k // shares for k in range(shares + 1)]
        self.spec = None    # the spectrum buffer, inside the context
        self.children = []  # [pid, wake fd, reply fd] per share past the first

    def __enter__(self):
        if len(self.bounds) > 2:
            # no descriptor: the mapping is unmapped with the last array on it
            mem = mmap.mmap(-1, 16 * math.prod(self.shape))
            self.spec = np.frombuffer(mem, dtype=complex).reshape(self.shape)
            try:
                for lo, hi in zip(self.bounds[1:-1], self.bounds[2:]):
                    self.children.append(self._fork(lo, hi))
            except BaseException:
                self.__exit__(True)
                raise
        else:
            self.spec = np.empty(self.shape, dtype=complex)
        return self

    def __exit__(self, raising, *_):
        children, self.children, self.spec = self.children, [], None
        for pid, wake, reply in children:
            os.close(wake)  # a waiting child reads the end of its pipe and exits
            os.close(reply)
            if pid:  # not reaped yet
                if raising:  # the child may be mid-span
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _fork(self, lo: int, hi: int) -> list:
        """Start the process for rows lo..hi-1; returns [pid, wake fd, reply fd]."""
        wake_r, wake_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (wake_r, wake_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid:
            os.close(wake_r)
            os.close(reply_w)
            return [pid, wake_w, reply_r]
        status = 1
        try:  # the child: nothing may unwind into the parent's stack
            os.close(wake_w)
            os.close(reply_r)
            for _, wake, reply in self.children:  # the earlier children's ends
                os.close(wake)
                os.close(reply)
            while os.read(wake_r, 1):
                self._steps(self.spec, lo, hi)  # an error ends the child: no reply
                os.write(reply_w, b"\0")
            status = 0
        finally:
            os._exit(status)

    def _steps(self, spec: np.ndarray, lo: int, hi: int) -> None:
        """All steps of the span on rows lo..hi-1 of spec, chunk by chunk from lo."""
        for a in range(lo, hi, self.rows):
            self._chunk(spec[a:min(a + self.rows, hi)], a)

    def _chunk(self, buf: np.ndarray, first_row: int) -> None:
        """All steps of the span on a (rows, 2, t_len) spectrum, row first_row first, in place.

        The guard takes one maximum per step and raises for the chunk's first
        row, the block when the chunk is one block alone. Scaling by |gnl|
        keeps the order of peaks under rounding, so the guard trips on a
        chunk exactly when it trips on one of its blocks alone.
        """
        rows = buf.shape[0]
        squares, pol_sum, power = (a[:rows] for a in self.work[:3])
        u, s, rot = (a[:power.size] for a in self.work[3:])
        x_sq, y_sq, re_sq, im_sq = squares[:, 0], squares[:, 1], pol_sum[:, 0::2], pol_sum[:, 1::2]
        p, sin, cos, turn = power.reshape(-1), rot.imag, rot.real, rot.reshape(rows, 1, -1)
        flat = buf.view(float)
        buf *= self.first
        for step, (h, gnl, coefs, linear) in enumerate(self.steps):
            np.fft.ifft(buf, axis=-1, out=buf)
            np.square(flat, out=squares)  # |Ax|^2 + |Ay|^2 as re^2 + im^2
            np.add(x_sq, y_sq, out=pol_sum)
            np.add(re_sq, im_sq, out=power)
            phase = gnl * power.max()
            if phase > MAX_STEP_PHASE_RAD:
                raise StepSizeError(first_row, step, h, float(phase), float(phase / gnl),
                                    MAX_STEP_PHASE_RAD, self.allowance)
            self._rotation(p, coefs, u, s, sin, cos)  # the guard capped every phase
            buf *= turn
            np.fft.fft(buf, axis=-1, out=buf)
            buf *= linear

    @staticmethod
    def _rotation(p, coefs, u, s, sin, cos) -> None:
        """cos + i*sin = exp(i*gnl*p) for |gnl*p| <= MAX_STEP_PHASE_RAD, by Horner in
        u = p^2 on coefs, the series' with gnl folded in; u and s are work buffers."""
        c0, c1, c2, c3 = coefs
        np.multiply(p, p, out=u)
        np.multiply(u, c3, out=s)
        s += c2
        s *= u
        s += c1
        s *= u
        s += c0
        np.multiply(s, p, out=sin)
        np.multiply(sin, sin, out=s)
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=cos)

    def __call__(self, samples: np.ndarray) -> np.ndarray:
        """The span's output for samples shaped like the field the span was built for.

        The output is a view of the buffer, which the next span overwrites.
        """
        blocks = samples.reshape(self.shape)
        np.fft.fft(blocks, axis=-1, out=self.spec)
        for child in self.children:
            try:
                os.write(child[1], b"\1")
            except BrokenPipeError:  # the child is gone; the read below finds no reply
                pass
        error = None
        try:
            self._steps(self.spec, 0, self.bounds[1])
        except Exception as exc:  # the parent's share failed
            error, lo, hi = exc, 0, self.bounds[1]
        else:  # in row order, each child's share
            for child, lo, hi in zip(self.children, self.bounds[1:], self.bounds[2:]):
                if not os.read(child[2], 1):  # the child ended without its reply
                    break
            else:
                return np.fft.ifft(self.spec, axis=-1, out=self.spec).reshape(samples.shape)
        # the failed share's blocks alone from the span's input, lowest first: the
        # first that fails raises its own error, from these frames at every count
        for block in range(lo, hi):
            np.fft.fft(blocks[block:block + 1], axis=-1, out=self.spec[block:block + 1])
            self._steps(self.spec, block, block + 1)
        if error is not None:  # every block passes alone
            raise error
        _, status = os.waitpid(child[0], 0)  # they passed: the child was killed
        child[0] = 0
        raise RuntimeError("the link process for rows %d..%d ended mid-span with exit code %d"
                           % (lo, hi - 1, os.waitstatus_to_exitcode(status)))


def standard_complex_noise(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Circular complex Gaussian with unit variance per complex sample."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def propagate_link(field: FieldWaveform, fiber: FiberParams, amp: AmplifierParams,
                   step_cfg: SsfmStepConfig, unit_noise_for_span=None,
                   processes: int = 1) -> FieldWaveform:
    """Run n_spans of fiber, each followed by an EDFA.

    The EDFA multiplies the amplitude by sqrt(gain), the gain being the span
    loss, and with ASE on adds white ASE of ase_variance_per_sample on both
    polarizations. unit_noise_for_span: callable span_index -> unit-variance
    complex array shaped like the samples; required when ASE is on. Drawing
    it outside keeps batched runs independent of batch composition. A link
    with zero spans returns the input unchanged.

    Memory: one output array, allocated once and written in place every
    span, beside the span's spectrum buffer, which holds sigma * noise
    between spans. Neither the caller's field nor a noise
    array is written, and a span's noise is read before the next span's is
    asked for, so a source may return the same array, refilled, every span.

    processes: how many processes the split steps may use (past 1, the
    platform needs os.fork); the rows are split over up to that many while
    each share carries at least _FORK_SAMPLE_STEPS sample-steps. The result
    is bit-identical for every count. When a block fails, the lowest block
    that fails alone raises its own error in the first span where any
    fails, the same at every count; a StepSizeError names that block and
    span. _Span states the rule.
    """
    if amp.noise_on and fiber.n_spans and unit_noise_for_span is None:
        raise ChannelError("ASE enabled but no per-span noise source given")
    gain = 10.0 ** (fiber.span_loss_db / 20.0)
    sigma = math.sqrt(amp.ase_variance_per_sample(fiber.span_loss_db, field.sample_rate_hz))
    samples = field.samples
    out = np.empty_like(samples)
    with _Span(field, fiber, step_cfg, processes) as span_fn:
        for span in range(fiber.n_spans):
            if amp.noise_on:  # drawn before the steps, so a bad source fails before them
                noise = unit_noise_for_span(span)
                if noise.shape != samples.shape:
                    raise ChannelError("unit_noise shape mismatch")
            try:  # a view of the span's spectrum buffer, idle until the next span
                spectrum = span_fn(samples)
            except StepSizeError as exc:
                exc.span = span
                raise
            samples = np.multiply(spectrum, gain, out=out)
            if amp.noise_on:  # the operand orders of samples + sigma * noise
                np.add(samples, np.multiply(sigma, noise, out=spectrum), out=samples)
    return FieldWaveform(samples, field.sample_rate_hz)
