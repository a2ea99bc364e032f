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
rate losses and applying any pilot time fraction. The log-sum-exp behind
the LLRs is a numpy copy of scipy.special.logsumexp's method for real
input, with the same bits, so that the receiver needs numpy alone.
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
    "QAM_POINTS",
    "QAM_LABELS",
    "constellation_priors",
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
# level g ^ (g >> 1) of LEVELS.
_RAIL_CODES = np.arange(2 * len(LEVELS))
_RAIL_GRAY = _RAIL_CODES & (len(LEVELS) - 1)
_RAIL_LEVEL = _RAIL_GRAY ^ (_RAIL_GRAY >> 1)
_RAIL_VALUES = (1.0 - 2.0 * (_RAIL_CODES >> BITS_PER_AMPLITUDE)) * np.asarray(LEVELS)[_RAIL_LEVEL]
_RAIL_LABELS = (_RAIL_CODES[:, None] >> np.arange(BITS_PER_AMPLITUDE, -1, -1)) & 1

# Square QAM of two signed LEVELS rails, Gray labeled per rail: point 8 * i + q
# carries rail code i on I and rail code q on Q. A QAM_LABELS row is MSB first
# [I sign, I amplitude Gray bits, Q sign, Q amplitude Gray bits].
QAM_POINTS = (_RAIL_VALUES[:, None] + 1j * _RAIL_VALUES[None, :]).ravel()
QAM_LABELS = np.hstack([np.repeat(_RAIL_LABELS, _RAIL_CODES.size, axis=0),
                        np.tile(_RAIL_LABELS, (_RAIL_CODES.size, 1))]).astype(np.uint8)
QAM_POINTS.setflags(write=False)
QAM_LABELS.setflags(write=False)


def constellation_priors(amp_probs: np.ndarray) -> np.ndarray:
    """Per-point priors of QAM_POINTS from LEVELS probabilities and uniform signs."""
    amp_probs = np.asarray(amp_probs, dtype=float)
    if amp_probs.shape != (len(LEVELS),) or abs(amp_probs.sum() - 1.0) > 1e-9:
        raise ReceiverError("amplitude priors must sum to 1 over the alphabet")
    if np.any(amp_probs < 0):
        raise ReceiverError("negative prior")
    rail = amp_probs[_RAIL_LEVEL] / 2.0  # per signed rail value
    return np.outer(rail, rail).ravel()


@dataclass(frozen=True)
class AirResult:
    """Bit-metric achievable rate with its Monte Carlo confidence interval."""

    air_bits_per_4d: float
    prior_entropy_bits_per_4d: float
    noise_variance: float
    ci95_bits_per_4d: float
    n_symbols_4d: int
    equivocation_per_4d: np.ndarray


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along axis for real a, by scipy.special.logsumexp's method.

    The row maxima are taken out of the sum: with m tied maxima and the rest
    summing to s, the result is log1p(s/m) + log(m) + max. Rows where that is
    not finite, such as all -inf rows, take log(sum(exp(a))) instead.
    """
    a_max = a.max(axis=axis, keepdims=True)
    mask = a == a_max
    m = mask.sum(axis=axis, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(mask, -np.inf, a) - a_max).sum(axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axis, keepdims=True)))
    return out.squeeze(axis)


def _match_to_grid(tx: np.ndarray) -> np.ndarray:
    """Index in QAM_POINTS of each symbol's nearest point: the nearest rail value on each axis."""
    i = np.abs(tx.real[:, None] - _RAIL_VALUES[None, :]).argmin(axis=1)
    q = np.abs(tx.imag[:, None] - _RAIL_VALUES[None, :]).argmin(axis=1)
    idx = _RAIL_CODES.size * i + q
    err = np.abs(tx - QAM_POINTS[idx]).max() if tx.size else 0.0
    if err > 1e-6 * max(1.0, np.abs(QAM_POINTS).max()):
        raise ReceiverError("transmitted symbols are not on the constellation grid")
    return idx


# Samples rated per chunk. At 1024 a chunk's complex distances (1 MiB) and its
# weights w (512 KiB) stay in a core's L2 cache, and memory no longer grows with
# the block count. Every result is per sample, so the bits do not depend on it.
_EQUIVOCATION_CHUNK = 1 << 10


def _bit_equivocations(tx_idx: np.ndarray, rx: np.ndarray, log_priors: np.ndarray,
                       sigma2: float) -> np.ndarray:
    """Sum over bit positions of log2(1 + exp(-+LLR)), per 2D sample."""
    out = np.zeros(rx.size)
    with np.errstate(under="ignore", over="ignore"):
        for lo in range(0, rx.size, _EQUIVOCATION_CHUNK):
            hi = min(lo + _EQUIVOCATION_CHUNK, rx.size)
            w = log_priors[None, :] - np.abs(rx[lo:hi, None]
                                             - QAM_POINTS[None, :]) ** 2 / sigma2
            acc = np.zeros(hi - lo)
            for j in range(QAM_LABELS.shape[1]):
                ones = QAM_LABELS[:, j].astype(bool)
                lse1 = _logsumexp(w[:, ones], axis=1)
                lse0 = _logsumexp(w[:, ~ones], axis=1)
                llr = lse0 - lse1  # natural-log units
                sent = QAM_LABELS[tx_idx[lo:hi], j].astype(float)
                z = (1.0 - 2.0 * sent) * llr
                acc += np.logaddexp(0.0, -z) / _LN2
            out[lo:hi] = acc
    return out


def air_bitwise(tx_syms: np.ndarray, rx_syms: np.ndarray, priors: np.ndarray,
                sigma2: float | None = None) -> AirResult:
    """Bit-metric AIR over paired dual-pol symbol blocks.

    tx_syms/rx_syms: (..., 2, n) in constellation units; priors: per-point
    probabilities over QAM_POINTS. The AIR is the
    prior entropy minus the mean per-4D bit equivocation under the fitted
    (or supplied) circular-Gaussian auxiliary channel, clipped below at zero.
    Fewer than MIN_SYMBOLS_4D symbols raise ReceiverError.
    """
    tx = np.asarray(tx_syms, dtype=complex)
    rx = np.asarray(rx_syms, dtype=complex)
    if tx.shape != rx.shape or tx.ndim < 2 or tx.shape[-2] != 2:
        raise ReceiverError("expected matching (..., 2, n) symbol arrays")
    tx2 = tx.reshape(-1, 2, tx.shape[-1])
    rx2 = rx.reshape(-1, 2, rx.shape[-1])
    n4 = tx2.shape[0] * tx2.shape[2]
    if n4 < MIN_SYMBOLS_4D:
        raise ReceiverError("need at least %d 4D symbols, got %d" % (MIN_SYMBOLS_4D, n4))
    priors = np.asarray(priors, dtype=float)
    if priors.shape != QAM_POINTS.shape or abs(priors.sum() - 1.0) > 1e-6:
        raise ReceiverError("priors must be a distribution over constellation points")
    if sigma2 is None:  # mean |y - x|^2 per 2D
        sigma2 = float(np.mean(np.abs(rx2.ravel() - tx2.ravel()) ** 2))
    sigma2 = max(float(sigma2), 1e-300)
    with np.errstate(divide="ignore"):
        logp = np.log(priors)
    h2 = float(-(priors[priors > 0] * np.log2(priors[priors > 0])).sum())
    flat_tx = tx2.transpose(0, 2, 1).reshape(-1)  # ... pairs (x, y) stay adjacent
    flat_rx = rx2.transpose(0, 2, 1).reshape(-1)
    idx = _match_to_grid(flat_tx)
    e2 = _bit_equivocations(idx, flat_rx, logp, sigma2)
    e4 = e2.reshape(-1, 2).sum(axis=1)
    air = max(0.0, 2.0 * h2 - float(e4.mean()))
    ci = 1.96 * float(e4.std(ddof=1)) / math.sqrt(e4.size) if e4.size > 1 else 0.0
    return AirResult(air_bits_per_4d=air, prior_entropy_bits_per_4d=2.0 * h2,
                     noise_variance=float(sigma2), ci95_bits_per_4d=ci,
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
