"""Amplitude shaping for probabilistic amplitude shaping (PAS) transmitters.

Three pieces live here:

* enumerative sphere shaping (ESS): a fixed-length distribution matcher that
  maps k-bit indices to minimum-lexicographic amplitude sequences inside an
  energy sphere, via an arbitrary-precision counting table;
* Maxwell-Boltzmann (MB) amplitude distributions: entropy-targeted fit and
  i.i.d. sampling, the classic linear-regime baseline;
* the PAS rail mapping between (amplitude, sign-bit) pairs and dual-pol
  QAM symbols.

Symbol blocks are complex ndarrays of shape (2, n): row 0 is the x
polarization, row 1 the y polarization. Amplitude vectors run over rails in
fixed order (xI, xQ, yI, yQ) per 4D symbol, so a block of n symbols consumes
4n amplitudes and 4n sign bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LEVELS",
    "BITS_PER_AMPLITUDE",
    "ShapingError",
    "EssTrellis",
    "MbDistribution",
    "trellis_for",
    "ess_encode",
    "ess_decode",
    "mb_fit",
    "mb_sample",
    "pas_map",
    "pas_demap_hard",
    "bits_to_index",
    "index_to_bits",
    "PasShaper",
]


class ShapingError(ValueError):
    """Raised for infeasible shaping configurations or inadmissible inputs."""


# Amplitude levels on every QAM rail: 64QAM per polarization, two bits per
# amplitude under a dyadic labeling.
LEVELS = (1.0, 3.0, 5.0, 7.0)
BITS_PER_AMPLITUDE = 2

# The integer energy lattice of LEVELS: level j has squared value
# _S0 + _G * _INCR[j], i.e. 1 + 8 * (0, 1, 3, 6).
_SQUARES = tuple(round(a * a) for a in LEVELS)
_S0 = _SQUARES[0]
_G = math.gcd(*(sq - _S0 for sq in _SQUARES))
_INCR = tuple((sq - _S0) // _G for sq in _SQUARES)
_LEVEL_INDEX = {a: j for j, a in enumerate(LEVELS)}


def _suffix_step(row: np.ndarray) -> np.ndarray:
    """Suffix counts one amplitude longer than ``row``, at every slack.

    Entry t of ``row`` counts suffixes whose energy is within t lattice
    steps of the cheapest one; a new leading amplitude with increment d
    uses d of those steps. Counts are Python ints (object array).
    """
    nxt = np.zeros(len(row), dtype=object)
    for d in _INCR:
        if d == 0:
            nxt += row
        elif d < len(row):
            nxt[d:] += row[:-d]
    return nxt


@dataclass(frozen=True)
class EssTrellis:
    """Counting table for enumerative sphere shaping.

    ``counts[p][t]`` is the number of admissible suffixes of length N - p
    given an energy budget of (N - p) * s0 + g * t, i.e. t lattice steps of
    slack beyond the cheapest possible suffix, with s0 = 1 and g = 8 the
    energy lattice of LEVELS. Counts are Python ints, so blocklength-256
    tables (hundreds of bits per entry) are exact.
    """

    blocklength: int
    bits_per_block: int
    emax: int
    counts: tuple  # tuple of object ndarrays, length N+1

    @property
    def slack_width(self) -> int:
        return len(self.counts[0])


@lru_cache(maxsize=32)
def trellis_for(n: int, k: int) -> EssTrellis:
    """The suffix-counting table of n amplitudes for k-bit blocks, cached by (n, k).

    The sphere is the tightest feasible one: the smallest energy bound
    admitting at least 2**k sequences. Raises if even the full cube of LEVELS
    falls short. The table satisfies counts[n][t] = 1 (one empty suffix) and
    counts[0][-1] >= 2**k.
    """
    if n < 1:
        raise ShapingError("blocklength must be >= 1")
    if k < 1:
        raise ShapingError("bits per block must be >= 1")
    # at the full slack width every sequence fits, so row 0 of the recursion
    # is the cumulative sphere count by energy; this pass keeps one row at a time
    row = np.ones(n * _INCR[-1] + 1, dtype=object)
    for _ in range(n):
        row = _suffix_step(row)
    t = next((t for t, count in enumerate(row) if count >= 1 << k), None)
    if t is None:
        raise ShapingError("%d bits per block infeasible at blocklength %d" % (k, n))
    # no entry at slack <= t depends on the width, so counts[0][t] >= 2**k here too
    rows = [np.ones(t + 1, dtype=object)]  # rows N, N-1, ..., 0
    for _ in range(n):
        rows.append(_suffix_step(rows[-1]))
    return EssTrellis(blocklength=n, bits_per_block=k, emax=n * _S0 + _G * t,
                      counts=tuple(reversed(rows)))


def bits_to_index(bits: np.ndarray) -> int:
    """MSB-first bit vector -> integer."""
    value = 0
    for b in np.asarray(bits).ravel():
        value = (value << 1) | int(b)
    return value


def index_to_bits(value: int, width: int) -> np.ndarray:
    """Integer -> MSB-first bit vector of fixed width."""
    if value < 0 or value >> width:
        raise ShapingError("value does not fit in %d bits" % width)
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def ess_encode(bits: np.ndarray, trellis: EssTrellis) -> np.ndarray:
    """Encode one k-bit block (MSB first) to the index-th admissible sequence.

    The index is ``bits_to_index(bits)``. Sequences are ordered
    lexicographically with ascending amplitude levels, so the all-zero block
    is the all-minimum-level sequence.
    """
    bits = np.asarray(bits)
    k = trellis.bits_per_block
    if bits.size != k:
        raise ShapingError("expected %d bits, got %d" % (k, bits.size))
    rem = bits_to_index(bits)
    if rem >> k:  # an entry other than 0 or 1 can push the index past 2**k
        raise ShapingError("bits do not spell a %d-bit index" % k)
    # rem stays below counts[p][slack], so the walk never leaves the sphere
    counts = trellis.counts
    slack = trellis.slack_width - 1
    out = np.empty(trellis.blocklength, dtype=float)
    for p in range(trellis.blocklength):
        nxt = counts[p + 1]
        for j, d in enumerate(_INCR):
            c = int(nxt[slack - d])
            if rem < c:
                out[p] = LEVELS[j]
                slack -= d
                break
            rem -= c
    return out


def ess_decode(amplitudes: np.ndarray, trellis: EssTrellis) -> np.ndarray:
    """Invert :func:`ess_encode`: the k-bit block of an amplitude sequence.

    Raises :class:`ShapingError` on amplitudes outside LEVELS, on
    blocks exceeding the energy sphere, and on indices at or above 2**k
    (sequences that are admissible but unused by the k-bit code).
    """
    n = trellis.blocklength
    amps = np.asarray(amplitudes, dtype=float)
    if amps.shape != (n,):
        raise ShapingError("expected %d amplitudes" % n)
    counts = trellis.counts
    slack = trellis.slack_width - 1
    index = 0
    for p in range(n):
        j = _LEVEL_INDEX.get(float(amps[p]))
        if j is None:
            raise ShapingError("amplitude %g not in the alphabet" % amps[p])
        if slack - _INCR[j] < 0:
            raise ShapingError("sequence energy exceeds the sphere bound")
        nxt = counts[p + 1]
        index += sum(int(nxt[slack - d]) for d in _INCR[:j])
        slack -= _INCR[j]
    if index >= 1 << trellis.bits_per_block:
        raise ShapingError("sequence is admissible but outside the k-bit codebook")
    return index_to_bits(index, trellis.bits_per_block)


@dataclass(frozen=True)
class MbDistribution:
    """Maxwell-Boltzmann distribution over LEVELS, p(a) ~ exp(-lambda a^2)."""

    lam: float
    probs: tuple[float, ...]


_MB_TOL_BITS = 1e-9  # mb_fit's entropy tolerance


def _mb_probs(lam: float) -> np.ndarray:
    w = np.exp(-lam * np.asarray(LEVELS) ** 2)
    return w / w.sum()


def _mb_entropy(lam: float) -> float:
    p = _mb_probs(lam)
    return float(-(p * np.log2(p)).sum())


def mb_fit(target_entropy_bits: float) -> MbDistribution:
    """Fit lambda so the MB entropy hits the target, by bisection.

    Entropy is strictly decreasing in lambda, from 2 bits at lambda=0
    towards 0, so plain bisection converges to within _MB_TOL_BITS.
    """
    hmax = BITS_PER_AMPLITUDE
    if not 0 < target_entropy_bits <= hmax:
        raise ShapingError("target entropy must be in (0, %g] bits" % hmax)
    if abs(target_entropy_bits - hmax) <= _MB_TOL_BITS:
        return MbDistribution(lam=0.0, probs=(1.0 / len(LEVELS),) * len(LEVELS))
    lo, hi = 0.0, 1.0
    while _mb_entropy(hi) > target_entropy_bits:
        lo, hi = hi, hi * 2
        if hi > 1e6:
            raise ShapingError("entropy target unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _mb_entropy(mid) > target_entropy_bits:
            lo = mid
        else:
            hi = mid
        if abs(_mb_entropy(0.5 * (lo + hi)) - target_entropy_bits) <= _MB_TOL_BITS:
            break
    lam = 0.5 * (lo + hi)
    return MbDistribution(lam=lam, probs=tuple(_mb_probs(lam).tolist()))


def mb_sample(dist: MbDistribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw i.i.d. amplitudes from an MB distribution."""
    if count < 0:
        raise ShapingError("count must be >= 0")
    return rng.choice(np.asarray(LEVELS), size=count, p=np.asarray(dist.probs))


def pas_map(amplitudes: np.ndarray, sign_bits: np.ndarray) -> np.ndarray:
    """Combine amplitudes and sign bits into dual-pol QAM symbols.

    Rails are consumed in (xI, xQ, yI, yQ) order per 4D symbol; a sign bit of
    0 keeps the rail positive, 1 flips it. Returns shape (2, n) complex.
    """
    amps = np.asarray(amplitudes, dtype=float)
    signs = np.asarray(sign_bits)
    if amps.shape != signs.shape or amps.ndim != 1:
        raise ShapingError("amplitudes and sign bits must be 1-D of equal length")
    if amps.size % 4:
        raise ShapingError("rail count must be a multiple of 4")
    rails = ((1.0 - 2.0 * signs) * amps).reshape(-1, 4)
    out = np.empty((2, rails.shape[0]), dtype=complex)
    out[0] = rails[:, 0] + 1j * rails[:, 1]
    out[1] = rails[:, 2] + 1j * rails[:, 3]
    return out


def pas_demap_hard(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-rail minimum-distance decisions back to (amplitudes, sign bits).

    Decision thresholds sit halfway between adjacent levels, so 1.9 -> 1
    and -2.1 -> (3, sign 1). Exact zeros take the smallest level with sign 0.
    """
    sym = np.asarray(symbols, dtype=complex)
    if sym.ndim != 2 or sym.shape[0] != 2:
        raise ShapingError("expected symbols of shape (2, n)")
    rails = np.empty((sym.shape[1], 4), dtype=float)
    rails[:, 0] = sym[0].real
    rails[:, 1] = sym[0].imag
    rails[:, 2] = sym[1].real
    rails[:, 3] = sym[1].imag
    flat = rails.reshape(-1)
    levels = np.asarray(LEVELS)
    mids = 0.5 * (levels[1:] + levels[:-1])
    idx = np.searchsorted(mids, np.abs(flat))
    amps = levels[idx]
    signs = (flat < 0).astype(np.uint8)
    return amps, signs


@dataclass(frozen=True)
class PasShaper:
    """Bit block -> dual-pol symbol block chain used by the transmitters.

    A selection block of n 4D symbols consumes 4n amplitudes, split into
    consecutive sphere-shaping blocks, plus 4n sign bits. The bit layout is
    [DM block 0 bits | DM block 1 bits | ... | sign bits], MSB first inside
    each DM block.
    """

    trellis: EssTrellis
    block_len_4d: int

    def __post_init__(self):
        n_amp = 4 * self.block_len_4d
        if n_amp % self.trellis.blocklength:
            raise ShapingError(
                "4*%d rails not divisible into DM blocks of %d"
                % (self.block_len_4d, self.trellis.blocklength)
            )

    @property
    def n_dm_blocks(self) -> int:
        return 4 * self.block_len_4d // self.trellis.blocklength

    @property
    def bits_per_selection_block(self) -> int:
        return self.n_dm_blocks * self.trellis.bits_per_block + 4 * self.block_len_4d

    def encode(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits).ravel()
        if bits.size != self.bits_per_selection_block:
            raise ShapingError(
                "expected %d bits, got %d" % (self.bits_per_selection_block, bits.size)
            )
        k = self.trellis.bits_per_block
        n_amp = 4 * self.block_len_4d
        amps = np.empty(n_amp, dtype=float)
        pos = 0
        for j in range(self.n_dm_blocks):
            amps[j * self.trellis.blocklength:(j + 1) * self.trellis.blocklength] = \
                ess_encode(bits[pos:pos + k], self.trellis)
            pos += k
        signs = bits[pos:]
        return pas_map(amps, signs)

    def decode(self, symbols: np.ndarray) -> np.ndarray:
        amps, signs = pas_demap_hard(symbols)
        if amps.size != 4 * self.block_len_4d:
            raise ShapingError("symbol block length mismatch")
        parts = []
        nb = self.trellis.blocklength
        for j in range(self.n_dm_blocks):
            parts.append(ess_decode(amps[j * nb:(j + 1) * nb], self.trellis))
        parts.append(signs.astype(np.uint8))
        return np.concatenate(parts)
