"""Coherent receiver chain and achievable-rate estimation.

The chain undoes the link deterministically: frequency-domain chromatic
dispersion compensation, the matched root-raised-cosine filter with symbol
sampling, and data-aided mean phase compensation per polarization.
link_receive divides the modulation scale out of the sampled center channel,
so a noiseless linear link returns the transmitted symbols (in constellation
units).

Rates are estimated with a bit-metric decoder over a circular-Gaussian
auxiliary channel whose variance is fitted to the data: per-bit LLRs with
shaped priors give the achievable information rate (AIR) in bits per 4D
symbol, and spectral efficiency follows after subtracting shaping/selection
rate losses and applying any pilot time fraction. The auxiliary channel is
circular and each prior is a product of rails with uniform signs, so a bit's
LLR depends on its own rail alone: a 4D symbol is rated as its four
Gray-labeled 8-level rails, whose equivocations add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (AmplifierParams, FieldWaveform, FiberParams, SsfmStepConfig, WdmConfig,
                      propagate_link, pulse_spectrum, rrc_modulate, wdm_demux, wdm_mux)
from .shaping import BITS_PER_AMPLITUDE, LEVELS

__all__ = [
    "AirResult",
    "ReceiverError",
    "MIN_SYMBOLS_4D",
    "link_receive",
    "cdc",
    "matched_filter_sample",
    "mean_phase_comp",
    "air_bitwise",
    "se_from_air",
]

_LN2 = math.log(2.0)
MIN_SYMBOLS_4D = 1000  # fewest 4D symbols air_bitwise rates


class ReceiverError(ValueError):
    pass


def cdc(field: FieldWaveform, fiber: FiberParams) -> FieldWaveform:
    """All-pass compensation of the link's chromatic dispersion in the FFT domain.

    Applies -beta2 * L over the whole link, L = n_spans * span length.
    """
    dispersion_s2 = -fiber.beta2_s2_per_m * fiber.total_length_m
    w = 2.0 * np.pi * np.fft.fftfreq(field.n_samples, d=1.0 / field.sample_rate_hz)
    spec = np.fft.fft(field.samples, axis=-1)
    spec *= np.exp(0.5j * dispersion_s2 * w * w)
    return FieldWaveform(np.fft.ifft(spec, axis=-1), field.sample_rate_hz)


def matched_filter_sample(field: FieldWaveform, wdm: WdmConfig) -> np.ndarray:
    """Matched filter and symbol-rate sampling: the (..., 2, n) samples at the symbol instants.

    Back to back, they are the sent symbols times rrc_modulate's scale.
    """
    sps = wdm.sps
    if field.n_samples % sps:
        raise ReceiverError("waveform length is not a whole number of symbols")
    h = pulse_spectrum(wdm, field.n_samples)
    filtered = np.fft.ifft(np.fft.fft(field.samples, axis=-1) * h, axis=-1)
    return filtered[..., ::sps]


def link_receive(tx: np.ndarray, wdm: WdmConfig, fiber: FiberParams, amp: AmplifierParams,
                 step_cfg: SsfmStepConfig, launch_power_dbm: float,
                 unit_noise_for_span=None, processes: int = 1) -> np.ndarray:
    """Center channel's (..., 2, n) received symbols for (n_channels, ..., 2, n) sent.

    Modulates each channel at launch_power_dbm, multiplexes, propagates
    (unit_noise_for_span and processes as in propagate_link), then
    demultiplexes, compensates dispersion and matched-filters the center
    channel, and divides out its modulation scale. Sweep points, the bound
    and the NLI metric all run this one chain.
    """
    # channel by channel: one call on all of them would hold n_channels times the temporaries
    field = [rrc_modulate(ch, wdm, launch_power_dbm) for ch in tx]
    scale = field[wdm.center_channel][1]
    field = wdm_mux([f for f, _ in field], wdm)  # the per-channel waveforms go before the link
    field = propagate_link(field, fiber, amp, step_cfg,
                           unit_noise_for_span=unit_noise_for_span, processes=processes)
    field = cdc(wdm_demux(field, wdm, wdm.center_channel), fiber)
    return matched_filter_sample(field, wdm) / scale[..., None, None]


def mean_phase_comp(rx_syms: np.ndarray, tx_syms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Data-aided mean phase rotation removal, one angle per polarization.

    Estimates theta = arg sum(rx * conj(tx)) over the last axis and returns
    (rx * exp(-i theta), theta). Batched inputs rotate per batch element.
    """
    rx = np.asarray(rx_syms, dtype=complex)
    tx = np.asarray(tx_syms, dtype=complex)
    if rx.shape != tx.shape:
        raise ReceiverError("received/reference shapes differ")
    # np.multiply, not *: numpy may compute rx * <temporary> in place with the
    # operands swapped once the arrays reach 256 KiB, which changes the bits
    inner = np.multiply(rx, np.conj(tx)).sum(axis=-1)
    theta = np.angle(inner)
    return rx * np.exp(-1j * theta)[..., None], theta


# Rail code c (0..7) is its label, MSB first: the sign bit, then the
# binary-reflected Gray label g of the amplitude, which for two bits names
# level g ^ (g >> 1) of LEVELS. A 4D symbol is four rails (x re, x im, y re,
# y im), each labeled by its own code.
_RAIL_CODES = np.arange(2 * len(LEVELS))
_RAIL_GRAY = _RAIL_CODES & (len(LEVELS) - 1)
_RAIL_LEVEL = _RAIL_GRAY ^ (_RAIL_GRAY >> 1)
_RAIL_VALUES = (1.0 - 2.0 * (_RAIL_CODES >> BITS_PER_AMPLITUDE)) * np.asarray(LEVELS)[_RAIL_LEVEL]
_RAIL_LABELS = (_RAIL_CODES[:, None] >> np.arange(BITS_PER_AMPLITUDE, -1, -1)) & 1
_RAIL_VALUES.setflags(write=False)
_RAIL_LABELS.setflags(write=False)
_LEVEL_MIDS = (np.asarray(LEVELS[1:]) + LEVELS[:-1]) / 2.0
# a sent 2D sample further than this from its nearest grid point is off the grid
_GRID_TOL = 1e-6 * math.hypot(LEVELS[-1], LEVELS[-1])


@dataclass(frozen=True)
class AirResult:
    """Bit-metric achievable rate with its Monte Carlo confidence interval."""

    air_bits_per_4d: float
    prior_entropy_bits_per_4d: float
    noise_variance: float
    ci95_bits_per_4d: float
    n_symbols_4d: int
    equivocation_per_4d: np.ndarray


def _flagged(flags: np.ndarray, n: int) -> tuple[int, int, str]:
    """Count of flagged flat (block, symbol, polarization) samples, and the first one's
    flat index and position, for blocks of n symbols."""
    bad = np.flatnonzero(flags)
    block, symbol = divmod(int(bad[0]) // 2, n)
    return bad.size, bad[0], "(block %d, symbol %d, polarization %d)" % (block, symbol, bad[0] % 2)


# Rails rated per chunk. At 1024 a chunk's weights (64 KiB) stay in a core's
# cache, and memory no longer grows with the block count. Every result is per
# rail, so the bits do not depend on it.
_EQUIVOCATION_CHUNK = 1 << 10


def _bit_equivocations(codes: np.ndarray, rx: np.ndarray, log_priors: np.ndarray,
                       sigma2: float) -> np.ndarray:
    """Sum over bit positions of log2(1 + exp(-+LLR)), per rail of sent code codes."""
    out = np.zeros(rx.size)
    with np.errstate(under="ignore", over="ignore"):
        for lo in range(0, rx.size, _EQUIVOCATION_CHUNK):
            hi = min(lo + _EQUIVOCATION_CHUNK, rx.size)
            w = log_priors[None, :] - (rx[lo:hi, None] - _RAIL_VALUES[None, :]) ** 2 / sigma2
            acc = np.zeros(hi - lo)
            for j in range(_RAIL_LABELS.shape[1]):
                ones = _RAIL_LABELS[:, j].astype(bool)
                llr = (np.logaddexp.reduce(w[:, ~ones], axis=1)
                       - np.logaddexp.reduce(w[:, ones], axis=1))  # natural-log units
                z = (1.0 - 2.0 * _RAIL_LABELS[codes[lo:hi], j]) * llr
                acc += np.logaddexp(0.0, -z) / _LN2
            out[lo:hi] = acc
    return out


def air_bitwise(tx_syms: np.ndarray, rx_syms: np.ndarray,
                amp_probs: np.ndarray | None) -> AirResult:
    """Bit-metric AIR over paired dual-pol symbol blocks.

    tx_syms/rx_syms: (..., 2, n) in constellation units; amp_probs: the
    probabilities of LEVELS, each sign equally likely, or None for the
    frequencies of the sent rails' levels. Each rail's three bits are rated
    on that rail alone, and a 4D symbol's equivocation is its four rails'
    sum. The AIR is the prior entropy minus the mean per-4D bit equivocation
    under the fitted circular-Gaussian auxiliary channel, clipped below at
    zero. Fewer than MIN_SYMBOLS_4D symbols, non-finite samples and sent
    samples off the grid raise ReceiverError.
    """
    tx = np.asarray(tx_syms, dtype=complex)
    rx = np.asarray(rx_syms, dtype=complex)
    if tx.shape != rx.shape or tx.ndim < 2 or tx.shape[-2] != 2:
        raise ReceiverError("expected matching (..., 2, n) symbol arrays")
    tx2 = tx.reshape(-1, 2, tx.shape[-1])
    rx2 = rx.reshape(-1, 2, rx.shape[-1])
    n, n4 = tx2.shape[2], tx2.shape[0] * tx2.shape[2]
    if n4 < MIN_SYMBOLS_4D:
        raise ReceiverError("need at least %d 4D symbols, got %d" % (MIN_SYMBOLS_4D, n4))
    # (block, symbol, polarization) order, so a 4D symbol's four rails are adjacent
    tx_c = np.ascontiguousarray(tx2.transpose(0, 2, 1)).reshape(-1)
    rx_c = np.ascontiguousarray(rx2.transpose(0, 2, 1)).reshape(-1)
    for side, c in (("sent", tx_c), ("received", rx_c)):
        finite = np.isfinite(c)
        if not finite.all():
            count, _, where = _flagged(~finite, n)
            raise ReceiverError("%s samples are not finite: %d non-finite, the first at %s"
                                % (side, count, where))
    tx_r, rx_r = tx_c.view(float), rx_c.view(float)
    level = np.searchsorted(_LEVEL_MIDS, np.abs(tx_r))  # each rail's nearest amplitude
    codes = (level ^ (level >> 1)) + len(LEVELS) * (tx_r < 0)
    off = np.abs(tx_c - _RAIL_VALUES[codes].view(complex)) > _GRID_TOL
    if off.any():
        count, first, where = _flagged(off, n)
        raise ReceiverError("transmitted symbols are not on the constellation grid: %d off "
                            "it, the first %r at %s" % (count, complex(tx_c[first]), where))
    if amp_probs is None:
        counts = np.bincount(level, minlength=len(LEVELS)).astype(float)
        amp_probs = counts / counts.sum()
    amp_probs = np.asarray(amp_probs, dtype=float)
    if (amp_probs.shape != (len(LEVELS),) or not np.all(amp_probs >= 0)
            or abs(amp_probs.sum() - 1.0) > 1e-9):
        raise ReceiverError("amplitude priors must be a distribution over LEVELS")
    rail_priors = amp_probs[_RAIL_LEVEL] / 2.0
    with np.errstate(divide="ignore"):
        logp = np.log(rail_priors)
    h_rail = float(-(rail_priors[rail_priors > 0] * np.log2(rail_priors[rail_priors > 0])).sum())
    # mean |y - x|^2 per 2D; a noiseless block's 0 takes the floor
    sigma2 = max(float(np.mean(np.abs(rx2.ravel() - tx2.ravel()) ** 2)), 1e-300)
    e4 = _bit_equivocations(codes, rx_r, logp, sigma2).reshape(-1, 4).sum(axis=1)
    air = max(0.0, 4.0 * h_rail - float(e4.mean()))
    ci = 1.96 * float(e4.std(ddof=1)) / math.sqrt(e4.size) if e4.size > 1 else 0.0
    return AirResult(air_bits_per_4d=air, prior_entropy_bits_per_4d=4.0 * h_rail,
                     noise_variance=sigma2, ci95_bits_per_4d=ci,
                     n_symbols_4d=n4, equivocation_per_4d=e4)


def se_from_air(air_bits_per_4d: float, wdm: WdmConfig, rate_loss_bits_4d: float = 0.0,
                time_fraction: float = 1.0) -> float:
    """Net spectral efficiency in bits/s/Hz over the WDM grid.

    rate_loss_bits_4d is subtracted from the AIR (shaping rate loss plus any
    pilot bits not absorbed upstream); time_fraction multiplies the result
    (pilot symbols occupying time slots).
    """
    if not 0.0 < time_fraction <= 1.0:
        raise ReceiverError("time fraction must be in (0, 1]")
    net = max(0.0, air_bits_per_4d - rate_loss_bits_4d) * time_fraction
    return net * wdm.symbol_rate_hz / wdm.spacing_hz
