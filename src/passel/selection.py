"""Sequence selection for shaped transmission blocks.

Two schemes share one pattern: derive a small family of candidate blocks
from the same payload, score each candidate with a cost function, transmit
the cheapest, and mark the choice with pilots so the receiver can invert it.

Bit-level selection XORs the payload bits with fixed scrambling masks before
shaping and prepends the candidate index as pilot bits that are shaped along
with the data. Symbol-level selection permutes the shaped 4D symbols and
prepends pilot symbols drawn from the highest-energy constellation corners,
four index bits per pilot symbol.

Costs: a windowed kurtosis of the per-4D-symbol energies (cheap, local), or
the residual distortion after a noiseless single-channel emulation of the
fiber link (expensive, direct). Lower is better; ties go to the lowest
candidate index. Candidate books are read-only arrays, one row per
candidate, and the encoders and decoders take the family size from the
book's row count. Books nest by construction: the book for a smaller family
is a prefix of that for a larger one, so a caller holding a larger book
passes book[:n_t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import AmplifierParams, FiberParams, SsfmStepConfig, WdmConfig
from .receiver import link_receive, mean_phase_comp
from .seeding import TAG_PERMUTATION, TAG_SCRAMBLER, substream
from .shaping import LEVELS, bits_to_index, index_to_bits

__all__ = [
    "SelectionError",
    "SelectionResult",
    "PILOT_POINTS",
    "scrambler_masks",
    "permutations",
    "pilot_symbols",
    "detect_pilot_index",
    "bsss_pilot_bits",
    "siss_pilot_symbols",
    "bsss_encode",
    "bsss_decode",
    "siss_encode",
    "siss_decode",
    "wk_metric",
    "NliMetric",
]

_MAX_REDRAWS = 100000


class SelectionError(ValueError):
    pass


def bsss_pilot_bits(n_t: int) -> int:
    """Index bits carried in-band for an n_t-way bit-level selection."""
    if n_t < 1:
        raise SelectionError("need at least one candidate")
    return 0 if n_t == 1 else math.ceil(math.log2(n_t))


def siss_pilot_symbols(n_t: int) -> int:
    """Pilot 4D symbols for an n_t-way symbol-level selection (4 bits each)."""
    if n_t < 1:
        raise SelectionError("need at least one candidate")
    return 0 if n_t == 1 else math.ceil(math.log2(n_t) / 4.0)


@dataclass(frozen=True)
class SelectionResult:
    """Chosen candidate plus the evidence behind the choice."""

    symbols: np.ndarray
    index: int
    cost: float


def _distinct_rows(first: np.ndarray, n_t: int, seed: int, tag: int,
                   draw: Callable[[np.random.Generator], np.ndarray]) -> np.ndarray:
    """A read-only book of n_t distinct rows, row 0 = first.

    Row i >= 1 is the first draw from substream(seed, tag, i) that differs
    from every earlier row, so a book is a prefix of a larger one.
    """
    rows = np.empty((n_t,) + first.shape, dtype=first.dtype)
    rows[0] = first
    seen = {first.tobytes()}
    for i in range(1, n_t):
        rng = substream(seed, tag, i)
        for _ in range(_MAX_REDRAWS):
            cand = draw(rng)
            key = cand.tobytes()
            if key not in seen:
                break
        else:
            raise SelectionError("could not draw a fresh row %d" % i)
        seen.add(key)
        rows[i] = cand
    rows.setflags(write=False)
    return rows


def scrambler_masks(seed: int, n_t: int, n_bits: int) -> np.ndarray:
    """(n_t, n_bits) uint8 XOR masks, row 0 the all-zeros identity.

    Masks are drawn one independent substream per index, so the first rows
    of a larger book equal a smaller book from the same seed.
    """
    if n_t < 1 or n_bits < 1:
        raise SelectionError("book needs n_t >= 1 and a positive mask length")
    if n_t > 2 ** n_bits:
        raise SelectionError("not enough distinct masks of %d bits" % n_bits)
    return _distinct_rows(np.zeros(n_bits, dtype=np.uint8), n_t, seed, TAG_SCRAMBLER,
                          lambda rng: rng.integers(0, 2, size=n_bits, dtype=np.uint8))


def permutations(seed: int, n_t: int, n: int) -> np.ndarray:
    """(n_t, n) int64 position permutations, row 0 the identity, nested as the masks."""
    if n_t < 1 or n < 1:
        raise SelectionError("book needs n_t >= 1 and a positive length")
    if n_t > math.factorial(n):
        raise SelectionError("cannot draw %d distinct permutations of %d positions, "
                             "there are %d" % (n_t, n, math.factorial(n)))
    return _distinct_rows(np.arange(n, dtype=np.int64), n_t, seed, TAG_PERMUTATION,
                          lambda rng: rng.permutation(n).astype(np.int64))


# 16 dual-polarization pilot symbols on the outermost QAM corners. Each
# polarization carries one of the four maximum-magnitude points (+-A +- iA);
# two corner index bits per polarization give a 4-bit label per pilot
# symbol, x polarization in the high bits.
_CORNERS = LEVELS[-1] * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
PILOT_POINTS = np.stack([_CORNERS[np.arange(16) >> 2], _CORNERS[np.arange(16) & 3]], axis=1)
PILOT_POINTS.setflags(write=False)


def pilot_symbols(index: int, n_pilots: int) -> np.ndarray:
    """(2, n_pilots) pilot prefix spelling the index base-16, MSB first."""
    if index < 0 or index >= max(16 ** n_pilots, 1):
        raise SelectionError("index %d does not fit %d pilot symbols" % (index, n_pilots))
    if n_pilots == 0:
        return np.empty((2, 0), dtype=complex)
    digits = [(index >> (4 * (n_pilots - 1 - d))) & 15 for d in range(n_pilots)]
    return PILOT_POINTS[digits].T.copy()


def detect_pilot_index(received: np.ndarray) -> int | np.ndarray:
    """Minimum-distance detection of (..., 2, n_pilots) pilot prefixes.

    Each pilot symbol is decided alone, by its x- plus y-polarization
    squared distance to the PILOT_POINTS rows, and the digits read base-16,
    MSB first. One index per block; an int for a single (2, n_pilots) block.
    """
    rx = np.asarray(received, dtype=complex)
    if rx.ndim < 2 or rx.shape[-2] != 2:
        raise SelectionError("expected (..., 2, n_pilots) pilot blocks")
    d2 = np.abs(rx[..., 0, :, None] - PILOT_POINTS[:, 0]) ** 2 \
        + np.abs(rx[..., 1, :, None] - PILOT_POINTS[:, 1]) ** 2
    out = d2.argmin(axis=-1) @ 16 ** np.arange(rx.shape[-1] - 1, -1, -1)
    return int(out) if out.ndim == 0 else out


def _pick(metric_fn: Callable, stack: np.ndarray) -> SelectionResult:
    """Score (n_t, 2, T) candidates in one metric call and keep the cheapest.

    Ties break to the lowest index.
    """
    costs = np.asarray(metric_fn(stack), dtype=float)
    if costs.shape != stack.shape[:1]:
        raise SelectionError("metric returned costs of shape %s for %d candidates"
                             % (costs.shape, stack.shape[0]))
    best = int(np.argmin(costs))
    return SelectionResult(symbols=stack[best], index=best, cost=float(costs[best]))


def bsss_encode(info_bits: np.ndarray, masks: np.ndarray,
                dm_chain: Callable[[np.ndarray], np.ndarray],
                metric_fn: Callable) -> SelectionResult:
    """Score one payload under every mask of the book and keep the cheapest.

    The book's rows are the candidate family. Candidate i shapes
    pilot_bits(i) followed by masks[i] XOR payload through dm_chain
    (distribution matcher plus mapper for a whole block).
    """
    n_t = masks.shape[0]
    npil = bsss_pilot_bits(n_t)
    bits = np.asarray(info_bits, dtype=np.uint8).ravel()
    if masks.shape[1] != bits.size:
        raise SelectionError("mask length %d != payload length %d"
                             % (masks.shape[1], bits.size))
    cands = []
    for i in range(n_t):
        block = np.concatenate([index_to_bits(i, npil), masks[i] ^ bits])
        cands.append(dm_chain(block))
    return _pick(metric_fn, np.stack(cands))


def bsss_decode(received_bits: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Strip the pilot index bits and undo that candidate's mask."""
    n_t = masks.shape[0]
    npil = bsss_pilot_bits(n_t)
    bits = np.asarray(received_bits, dtype=np.uint8).ravel()
    if bits.size < npil + masks.shape[1]:
        raise SelectionError("received block shorter than pilots plus payload")
    idx = bits_to_index(bits[:npil])
    if idx >= n_t:
        raise SelectionError("pilot index %d out of range" % idx)
    return bits[npil:] ^ masks[idx]


def siss_encode(symbols: np.ndarray, perms: np.ndarray,
                metric_fn: Callable) -> SelectionResult:
    """Score one shaped block under every permutation of the book.

    The book's rows are the candidate family. Candidate i is the pilot
    prefix for i followed by the payload reordered by perms[i]; permutation
    0 is the identity. The pilot prefix rides along in each candidate so
    channel-emulation costs see it, but cost functions are expected to
    restrict themselves to the payload span.
    """
    n_t = perms.shape[0]
    npil = siss_pilot_symbols(n_t)
    s = np.asarray(symbols, dtype=complex)
    if s.ndim != 2 or s.shape[0] != 2:
        raise SelectionError("expected a (2, n) payload block")
    if perms.shape[1] != s.shape[1]:
        raise SelectionError("permutation length %d != block length %d"
                             % (perms.shape[1], s.shape[1]))
    cands = np.empty((n_t, 2, npil + s.shape[1]), dtype=complex)
    for i in range(n_t):
        cands[i, :, :npil] = pilot_symbols(i, npil)
        cands[i, :, npil:] = s[:, perms[i]]
    return _pick(metric_fn, cands)


def siss_decode(received: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, int]:
    """Detect the pilot prefix and un-permute the payload.

    Returns (payload symbols, detected index). A detected index outside the
    candidate family raises; callers drop such blocks from statistics.
    """
    n_t = perms.shape[0]
    npil = siss_pilot_symbols(n_t)
    rx = np.asarray(received, dtype=complex)
    if rx.ndim != 2 or rx.shape[0] != 2 or rx.shape[1] <= npil:
        raise SelectionError("received block too short for pilots plus payload")
    idx = detect_pilot_index(rx[:, :npil]) if npil else 0
    if idx >= n_t:
        raise SelectionError("detected pilot index %d out of range" % idx)
    payload = rx[:, npil:]
    return payload[:, np.argsort(perms[idx])], idx


def wk_metric(symbols: np.ndarray, window: int | None = None,
              stride: int | None = None,
              payload: slice | None = None) -> float | np.ndarray:
    """Windowed kurtosis of per-4D-symbol energies; lower is smoother.

    For each length-`window` span of consecutive 4D symbols (default
    min(128, n), stride half a window), the span's kurtosis is
    mean(e^2)/mean(e)^2 with e the dual-pol symbol energy; the result is
    the mean over the spans. Batched (..., 2, n) input returns one value
    per leading element.
    """
    s = np.asarray(symbols, dtype=complex)
    if s.ndim < 2 or s.shape[-2] != 2:
        raise SelectionError("expected (..., 2, n) symbols")
    if payload is not None:
        s = s[..., payload]
    n = s.shape[-1]
    if n < 1:
        raise SelectionError("empty block")
    w = min(128, n) if window is None else int(window)
    if not 1 <= w <= n:
        raise SelectionError("window must be in [1, %d]" % n)
    st = max(1, w // 2) if stride is None else int(stride)
    if not 1 <= st <= w:
        raise SelectionError("stride must be in [1, window]")
    e = (np.abs(s) ** 2).sum(axis=-2)
    offsets = range(0, n - w + 1, st)
    kappas = np.empty(s.shape[:-2] + (len(offsets),))
    for j, off in enumerate(offsets):
        win = e[..., off:off + w]
        m1 = win.mean(axis=-1)
        if np.any(m1 == 0.0):
            raise SelectionError("all-zero energy window")
        kappas[..., j] = (win ** 2).mean(axis=-1) / (m1 * m1)
    out = kappas.mean(axis=-1)
    return float(out) if out.ndim == 0 else out


class NliMetric:
    """Residual distortion after a noiseless single-channel link emulation.

    Runs the candidate block alone through link_receive, the chain of a
    sweep point, on a one-channel grid (amplifiers transparent, no noise),
    and returns the Euclidean norm of the symbol error over the payload span
    after mean phase compensation. Captures the nonlinear interference the
    block generates for itself. processes is handed to propagate_link: a
    batch of candidates is split over up to that many processes by rows
    when each share carries enough sample-steps to pay for its fork, as one
    desk block's 16 candidates do, with the same costs bit for bit.
    """

    def __init__(self, fiber: FiberParams, wdm: WdmConfig, step_cfg: SsfmStepConfig,
                 launch_power_dbm: float, payload: slice | None = None,
                 processes: int = 1):
        if wdm.n_channels != 1:
            raise SelectionError("metric emulation is single-channel")
        self.fiber = fiber
        self.wdm = wdm
        self.step_cfg = step_cfg
        self.launch_power_dbm = launch_power_dbm
        self.payload = payload if payload is not None else slice(None)
        self.amp = AmplifierParams(noise_on=False)
        self.processes = processes

    def __call__(self, symbols: np.ndarray) -> float | np.ndarray:
        x = np.asarray(symbols, dtype=complex)
        if x.ndim < 2 or x.shape[-2] != 2:
            raise SelectionError("expected (..., 2, n) symbols")
        y = link_receive(x[None], self.wdm, self.fiber, self.amp, self.step_cfg,
                         self.launch_power_dbm, processes=self.processes)
        xp = x[..., self.payload]
        yp, _ = mean_phase_comp(y[..., self.payload], xp)
        cost = np.sqrt((np.abs(yp - xp) ** 2).sum(axis=(-2, -1)))
        return float(cost) if cost.ndim == 0 else cost
