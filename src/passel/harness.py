"""Batch experiment orchestration.

Turns a flat key=value configuration into sweeps over launch power,
candidate-family size, and shaping scheme; runs each point through the full
transmit/propagate/receive pipeline; and emits one CSV row per point plus a
best-power summary row per scheme. Every random draw comes from a tagged
substream of the master seed, keyed by what the draw is for (channel and
block for data, block and span for amplifier noise, candidate index for
books), so any subset of the work reproduces identically regardless of
batching or worker count.

Schemes:
  mb        amplitudes drawn i.i.d. from the fitted exponential-in-energy
            distribution (idealized matcher, zero rate loss)
  ess       sphere-shaped blocks, no selection
  ess+bsss  sphere shaping with bit-level selection; pilot bits are absorbed
            by raising the matcher rate, so net overhead is zero
  ess+siss  sphere shaping with symbol-level selection; pilot symbols cost
            time slots (n/(n+pilots) factor)

The bound estimator scores a large population of shaped blocks with the
channel-emulation cost, keeps the cheapest fraction eta, and reports the
achievable rate over the kept set plus the log2(eta)/n selection penalty.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import traceback
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterable

import numpy as np

from . import __version__
from .channel import (
    AmplifierParams,
    ChannelError,
    FiberParams,
    SsfmStepConfig,
    WdmConfig,
    dbm_to_watts,
    standard_complex_noise,
)
from .receiver import (
    MIN_SYMBOLS_4D,
    air_bitwise,
    link_receive,
    mean_phase_comp,
    se_from_air,
)
from .seeding import TAG_ASE, TAG_DATA, substream
from .selection import (
    NliMetric,
    bsss_encode,
    bsss_pilot_bits,
    detect_pilot_index,
    permutations,
    scrambler_masks,
    siss_encode,
    siss_pilot_symbols,
    wk_metric,
)
from .shaping import (
    BITS_PER_AMPLITUDE,
    LEVELS,
    PasShaper,
    mb_fit,
    mb_sample,
    pas_map,
    trellis_for,
)

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "ResultRow",
    "PointDetail",
    "parse_config",
    "config_text",
    "config_hash",
    "desk_preset",
    "paper_preset",
    "run_point_detailed",
    "ss_bound_estimate",
    "failed_point",
    "sweep",
    "emit_csv",
    "parse_csv",
    "write_meta",
    "resolve_defaults",
    "CSV_HEADER",
    "KNOWN_SCHEMES",
    "SELECTION_SCHEMES",
]

KNOWN_SCHEMES = ("mb", "ess", "ess+bsss", "ess+siss")
SELECTION_SCHEMES = ("ess+bsss", "ess+siss")


class HarnessError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; units live in the field names."""

    schemes: tuple[str, ...] = ("ess",)
    powers_dbm: tuple[float, ...] = (1.0,)
    n_t_values: tuple[int, ...] = (1,)
    selection_metric: str = "nli"
    n_blocks: int = 200
    seed: int = 1234
    max_workers: int = 1
    block_len_4d: int = 256
    dm_blocklength: int = 256
    dm_rate_bits_per_amp: float = 1.3
    beta2_ps2_per_km: float = -21.7
    gamma_per_w_km: float = 1.27
    alpha_db_per_km: float = 0.2
    span_length_km: float = 100.0
    n_spans: int = 30
    n_channels: int = 5
    symbol_rate_gbd: float = 46.5
    spacing_ghz: float = 50.0
    rolloff: float = 0.05
    sps: int = 16
    steps_per_span: int = 0
    noise_figure_db: float = 5.0
    noise_on: bool = True
    center_frequency_thz: float = 193.41
    metric_sps: int = 4
    metric_steps_per_span: int = 100
    bound_eta: float = 1.0
    bound_m_total: int = 200

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float":  # equal configs must hash alike: 80 -> 80.0
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "powers_dbm", tuple(float(p) for p in self.powers_dbm))
        object.__setattr__(self, "n_t_values", tuple(int(v) for v in self.n_t_values))
        for f in fields(self):  # nan passes the range checks below; inf hangs the link
            value = getattr(self, f.name)
            if f.type in ("float", "tuple[float, ...]") and not np.isfinite(value).all():
                raise HarnessError("%s must be finite, got %s" % (f.name, _fmt_value(value)))
        for s in self.schemes:
            if s not in KNOWN_SCHEMES:
                raise HarnessError("unknown scheme %r" % (s,))
        if not self.schemes or not self.powers_dbm or not self.n_t_values:
            raise HarnessError("schemes, powers_dbm and n_t_values must be nonempty")
        for name in ("schemes", "powers_dbm", "n_t_values"):  # else points run twice
            values = getattr(self, name)
            if len(set(values)) < len(values):
                v = next(v for j, v in enumerate(values) if v in values[:j])
                raise HarnessError("%s lists %r more than once" % (name, v))
        if any(v < 1 for v in self.n_t_values):
            raise HarnessError("n_t values must be >= 1")
        if self.selection_metric not in ("nli", "wk"):
            raise HarnessError("selection_metric must be nli or wk")
        if self.n_blocks < 1:
            raise HarnessError("n_blocks must be >= 1")
        if self.seed < 0:
            raise HarnessError("seed must be >= 0")
        for name in ("steps_per_span", "metric_steps_per_span"):
            if getattr(self, name) < 0:
                raise HarnessError("%s must be >= 0" % name)
        if not 0.0 < self.bound_eta <= 1.0:
            raise HarnessError("bound_eta must be in (0, 1]")
        if self.bound_m_total * self.bound_eta < 30.0 - 1e-12:
            raise HarnessError("need bound_m_total*bound_eta >= 30 kept blocks, got %g"
                               % (self.bound_m_total * self.bound_eta))
        if not 0.0 < self.dm_rate_bits_per_amp <= BITS_PER_AMPLITUDE:
            raise HarnessError("dm_rate_bits_per_amp must be in (0, %d]" % BITS_PER_AMPLITUDE)
        if self.block_len_4d < 1:
            raise HarnessError("block_len_4d must be >= 1")
        if self.dm_blocklength < 1 or (4 * self.block_len_4d) % self.dm_blocklength:
            raise HarnessError("dm_blocklength must be >= 1 and divide 4*block_len_4d = %d"
                               % (4 * self.block_len_4d))
        k = dm_bits_per_block(self)
        if k < 1:
            raise HarnessError("dm_rate_bits_per_amp = %r gives %d bits per DM block of %d; "
                               "need >= 1" % (self.dm_rate_bits_per_amp, k,
                                              self.dm_blocklength))
        n_t = max(self.n_t_values)  # each selection scheme's largest family
        if "ess+bsss" in self.schemes:
            # n amplitudes index at most BITS_PER_AMPLITUDE * n bits
            needed = bsss_bits_per_block(self, n_t)
            if needed > BITS_PER_AMPLITUDE * self.dm_blocklength:
                raise HarnessError("ess+bsss at n_t = %d needs %d bits per DM block of %d, "
                                   "above the %d it can carry"
                                   % (n_t, needed, self.dm_blocklength,
                                      BITS_PER_AMPLITUDE * self.dm_blocklength))
        if "ess+siss" in self.schemes and n_t > math.factorial(self.block_len_4d):
            raise HarnessError("ess+siss at n_t = %d needs %d permutations of %d symbols, "
                               "above the %d there are"
                               % (n_t, n_t, self.block_len_4d, math.factorial(self.block_len_4d)))
        try:
            for build in (fiber_for, link_wdm, metric_wdm, amp_for):
                build(self)
        except ChannelError as exc:
            raise HarnessError(str(exc)) from None
        # a point's blocks, and the bound's kept blocks, must hold enough symbols to rate
        for what, n_blocks in (("n_blocks", self.n_blocks),
                               ("ceil(bound_eta*bound_m_total)", bound_kept(self))):
            if n_blocks * self.block_len_4d < MIN_SYMBOLS_4D:
                raise HarnessError("%s*block_len_4d = %d*%d 4D symbols is below the %d "
                                   "the rate estimate needs"
                                   % (what, n_blocks, self.block_len_4d, MIN_SYMBOLS_4D))
        if self.max_workers < 1:
            raise HarnessError("max_workers must be >= 1")


def _parse_value(name: str, typ: str, raw: str):
    """One value of the ExperimentConfig field annotated typ; tuples are comma-separated."""
    if typ.startswith("tuple["):
        elem = typ[len("tuple["):].split(",", 1)[0]
        parts = raw.split(",") if raw.strip() else []
        if not all(p.strip() for p in parts):
            raise ValueError("empty list element")
        return tuple(_parse_value(name, elem, p) for p in parts)
    raw = raw.strip()
    if typ == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise HarnessError("bad boolean for %s: %r" % (name, raw))
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    return raw


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """key = value lines over a base config; '#' starts a comment."""
    cfg = base or ExperimentConfig()
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    updates, lines = {}, {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError("line %d is not key = value" % ln)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise HarnessError("unknown config key %r (line %d)" % (key, ln))
        if key in lines:
            raise HarnessError("config key %r set twice (lines %d and %d)"
                               % (key, lines[key], ln))
        lines[key] = ln
        try:
            updates[key] = _parse_value(key, types[key], raw)
        except ValueError as exc:
            raise HarnessError("bad value for %s (line %d): %s" % (key, ln, exc)) from None
    return replace(cfg, **updates)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical dump, floats in shortest round-trip form; feeds config_hash."""
    lines = ["%s = %s" % (f.name, _fmt_value(getattr(cfg, f.name)))
             for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    """The experiment's hash: its config_text at one worker, since the worker count
    changes no output byte."""
    return hashlib.sha256(config_text(replace(cfg, max_workers=1)).encode()).hexdigest()[:16]


def desk_preset() -> ExperimentConfig:
    """Scaled-down link that shows the selection gain in minutes, not days."""
    return ExperimentConfig(
        schemes=("mb", "ess", "ess+bsss", "ess+siss"),
        powers_dbm=(1.0, 2.0, 3.0, 4.0),
        n_t_values=(16,),
        selection_metric="nli",
        n_blocks=100,
        block_len_4d=64,
        dm_blocklength=64,
        n_spans=10,
        n_channels=3,
        sps=8,
        steps_per_span=100,
        metric_sps=4,
        metric_steps_per_span=100,
        bound_m_total=100,
    )


def paper_preset() -> ExperimentConfig:
    """Full-scale configuration; multi-day runtime, not exercised in CI."""
    return ExperimentConfig(
        schemes=("mb", "ess", "ess+bsss", "ess+siss"),
        powers_dbm=(-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0),
        n_t_values=(1, 2, 4, 16, 64, 256),
        selection_metric="nli",
        n_blocks=200,
        block_len_4d=256,
        n_spans=30,
        n_channels=5,
        sps=16,
        steps_per_span=0,
        metric_sps=4,
        metric_steps_per_span=100,
        bound_eta=1e-3,
        bound_m_total=30000,
    )


def link_wdm(cfg: ExperimentConfig) -> WdmConfig:
    return WdmConfig(n_channels=cfg.n_channels, symbol_rate_gbd=cfg.symbol_rate_gbd,
                     spacing_ghz=cfg.spacing_ghz, rolloff=cfg.rolloff, sps=cfg.sps)


def metric_wdm(cfg: ExperimentConfig) -> WdmConfig:
    return replace(link_wdm(cfg), n_channels=1, sps=cfg.metric_sps)


def fiber_for(cfg: ExperimentConfig) -> FiberParams:
    return FiberParams(beta2_ps2_per_km=cfg.beta2_ps2_per_km,
                       gamma_per_w_km=cfg.gamma_per_w_km,
                       alpha_db_per_km=cfg.alpha_db_per_km,
                       span_length_km=cfg.span_length_km, n_spans=cfg.n_spans)


def amp_for(cfg: ExperimentConfig) -> AmplifierParams:
    return AmplifierParams(noise_figure_db=cfg.noise_figure_db, noise_on=cfg.noise_on,
                           center_frequency_thz=cfg.center_frequency_thz)


def step_schedule(cfg: ExperimentConfig, power_dbm: float, wdm: WdmConfig,
                  steps_per_span: int) -> SsfmStepConfig:
    """Split-step schedule of a point at power_dbm on grid wdm, steps_per_span its cap.

    The link and the NLI metric both step by it. The peak allowance is
    built for wdm's channels, each at the highest of power_dbm and the
    sweep's launch powers and each at a constellation corner, adding in
    phase to n_channels^2 times one channel's corner power. A channel's
    corner power is its mean power times the corner-to-mean energy ratio
    max_level^2 / E[a^2]. The ratio is taken at the Maxwell-Boltzmann
    distribution of the matcher rate, which has the least mean energy of
    any amplitude distribution at that rate, so it is the largest ratio of
    every scheme: mb draws from it, sphere shaping and the raised bsss
    matcher rate cost more energy, and siss pilots sit on the corner itself.
    The allowance is not a bound on the field: pulse overshoot and ASE are
    left to the per-step guard. A power inside the sweep gets the schedule
    of the whole sweep, so the bound at eta = 1 reproduces the plain ess
    point.
    """
    mean_energy = float(mb_fit(cfg.dm_rate_bits_per_amp).probs @ np.asarray(LEVELS) ** 2)
    corner_to_mean = LEVELS[-1] ** 2 / mean_energy
    power_w = dbm_to_watts(max(power_dbm, *cfg.powers_dbm))
    return SsfmStepConfig(steps_per_span=steps_per_span,
                          peak_allowance_w=wdm.n_channels ** 2 * power_w * corner_to_mean)


def _core_share(pool_width: int) -> int:
    """Processes a point's link and metric may use: its share of the usable cores.

    pool_width is how many points run at once: the sweep's pool, or 1 for a
    serial sweep and every in-process call. Without os.fork or
    os.sched_getaffinity a point runs on one process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // pool_width)


def _nli_metric(cfg: ExperimentConfig, power_dbm: float, processes: int,
                payload: slice = slice(None)) -> NliMetric:
    """NLI cost of selection points and the bound: the link's fiber and step rule, one channel."""
    wdm = metric_wdm(cfg)
    return NliMetric(fiber_for(cfg), wdm,
                     step_schedule(cfg, power_dbm, wdm, cfg.metric_steps_per_span),
                     power_dbm, payload=payload, processes=processes)


def dm_bits_per_block(cfg: ExperimentConfig) -> int:
    return math.ceil(cfg.dm_blocklength * cfg.dm_rate_bits_per_amp - 1e-9)


def bound_kept(cfg: ExperimentConfig) -> int:
    """Blocks the bound keeps: ceil(bound_eta*bound_m_total), less the product's rounding.

    In binary 0.55 * 200 is 110.00000000000001, which a bare ceil takes to 111.
    """
    return math.ceil(cfg.bound_eta * cfg.bound_m_total - 1e-9)


def bsss_bits_per_block(cfg: ExperimentConfig, n_t: int) -> int:
    """ess+bsss matcher bits per DM block: the pilot bits spread over the DM blocks."""
    n_dm = 4 * cfg.block_len_4d // cfg.dm_blocklength
    return dm_bits_per_block(cfg) + math.ceil(bsss_pilot_bits(n_t) / n_dm)


class _PointState:
    """Everything one (scheme, power, n_t) point needs to encode blocks.

    mb samples amplitudes directly; every other scheme shapes payload_bits
    per block through one sphere shaper. ess+bsss carries its index as pilot
    bits absorbed by a higher matcher rate; ess+siss carries it as pilot
    symbols in extra time slots. The point runs its link and NLI metric on
    its share of the cores, pool_width points being in flight. resolved is
    the point's sidecar record.
    """

    def __init__(self, cfg: ExperimentConfig, scheme: str, power_dbm: float, n_t: int,
                 pool_width: int = 1):
        if scheme not in KNOWN_SCHEMES:
            raise HarnessError("unknown scheme %r" % (scheme,))
        if scheme not in SELECTION_SCHEMES and n_t != 1:
            raise HarnessError("%s has no candidate family; use n_t=1" % scheme)
        self.cfg = cfg
        self.scheme = scheme
        self.power_dbm = float(power_dbm)
        self.processes = _core_share(pool_width)
        self.n = cfg.block_len_4d
        dm_bits = matcher_bits = dm_bits_per_block(cfg)
        pilot_bits = 0
        self.pilot_syms = 0
        self.dist = None
        self.shaper = None

        if scheme == "mb":
            self.dist = mb_fit(cfg.dm_rate_bits_per_amp)
            self.realized_bits_4d = None  # ideal matcher: no rate loss
        else:
            if scheme == "ess+bsss":
                pilot_bits = bsss_pilot_bits(n_t)
                matcher_bits = bsss_bits_per_block(cfg, n_t)
            elif scheme == "ess+siss":
                self.pilot_syms = siss_pilot_symbols(n_t)
            self.shaper = PasShaper(
                trellis_for(cfg.dm_blocklength, matcher_bits), self.n)
            self.payload_bits = self.shaper.bits_per_selection_block - pilot_bits
            self.realized_bits_4d = self.payload_bits / self.n

        if scheme in SELECTION_SCHEMES:
            if scheme == "ess+bsss":
                self.book = scrambler_masks(cfg.seed, n_t, self.payload_bits)
            else:
                self.book = permutations(cfg.seed, n_t, self.n)
            payload = slice(self.pilot_syms, None)
            if cfg.selection_metric == "wk":
                self.metric_fn = partial(wk_metric, payload=payload)
            else:
                self.metric_fn = _nli_metric(cfg, self.power_dbm, self.processes, payload)

        self.block_len_tx = self.n + self.pilot_syms
        self.time_fraction = self.n / self.block_len_tx
        self.resolved = {
            "scheme": scheme,
            "power_dbm": self.power_dbm,
            "n_t": int(n_t),
            "dm_bits_per_block": dm_bits,
            "dm_bits_per_block_adjusted": matcher_bits,
            "pilot_bits": pilot_bits,
            "pilot_symbols": self.pilot_syms,
            "realized_bits_per_4d": self.realized_bits_4d,
            "time_fraction": self.time_fraction,
        }
        if self.shaper is not None:
            self.resolved["ess_max_energy"] = self.shaper.trellis.emax
        if self.dist is not None:
            self.resolved["mb_lambda"] = self.dist.lam
            self.resolved["mb_probs"] = list(self.dist.probs)

    def encode_block(self, rng: np.random.Generator):
        """One transmit block: (symbols (2, block_len_tx), cost, index)."""
        if self.dist is not None:
            amps = mb_sample(self.dist, rng, 4 * self.n)
            signs = rng.integers(0, 2, size=4 * self.n, dtype=np.uint8)
            return pas_map(amps, signs), math.nan, 0
        bits = rng.integers(0, 2, size=self.payload_bits, dtype=np.uint8)
        if self.scheme == "ess+bsss":
            res = bsss_encode(bits, self.book, self.shaper.encode, self.metric_fn)
        elif self.scheme == "ess+siss":
            res = siss_encode(self.shaper.encode(bits), self.book, self.metric_fn)
        else:
            return self.shaper.encode(bits), math.nan, 0
        return res.symbols, res.cost, res.index

    def draw(self, blocks: np.ndarray):
        """The numbered blocks of every channel, one data substream per (channel, block).

        Returns (symbols (channels, blocks, 2, block_len_tx), costs, indices).
        """
        n_ch = self.cfg.n_channels
        tx = np.empty((n_ch, len(blocks), 2, self.block_len_tx), dtype=complex)
        costs = np.full((n_ch, len(blocks)), math.nan)
        indices = np.zeros((n_ch, len(blocks)), dtype=int)
        for c in range(n_ch):
            for j, b in enumerate(blocks):
                rng = substream(self.cfg.seed, TAG_DATA, c, int(b))
                tx[c, j], costs[c, j], indices[c, j] = self.encode_block(rng)
        return tx, costs, indices


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    metric: str
    power_dbm: float
    n_t: int
    air_bits_4d: float
    se_bits_s_hz: float
    ci95: float
    sel_metric_mean: float


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


@dataclass
class PointDetail:
    """Per-point diagnostics behind a ResultRow."""

    row: ResultRow
    prior_entropy_bits_4d: float
    realized_bits_4d: float | None
    rate_loss_bits_4d: float
    time_fraction: float
    noise_variance: float
    equivocation_per_block: np.ndarray  # (kept_blocks, n) bits
    sel_costs: np.ndarray               # (channels, blocks) nan where no selection
    kept_blocks: np.ndarray             # indices into the block axis
    n_discarded: int
    resolved: dict


def _ase_noise_source(seed: int, block_indices: np.ndarray, per_block_shape: tuple):
    """Unit ASE of each block at a span, one substream per (block, span).

    The first call allocates one array, and every call refills and returns
    it: propagate_link reads a span's noise before it asks for the next, and
    never writes it.
    """
    idx = [int(b) for b in block_indices]
    noise = None

    def unit_noise(span: int) -> np.ndarray:
        nonlocal noise
        if noise is None:  # at the first span, so it never sits beside the mux's arrays
            noise = np.empty((len(idx), *per_block_shape), dtype=complex)
        for row, b in zip(noise, idx):
            row[...] = standard_complex_noise(substream(seed, TAG_ASE, b, span), per_block_shape)
        return noise
    return unit_noise


def _metric_label(cfg: ExperimentConfig, scheme: str) -> str:
    return cfg.selection_metric if scheme in SELECTION_SCHEMES else "none"


def _point_detail(st: _PointState, tx: np.ndarray, indices: np.ndarray,
                  block_ids: np.ndarray, rate_penalty: float, row: dict,
                  sel_costs: np.ndarray) -> PointDetail:
    """Propagate drawn blocks over the WDM link and rate the center channel.

    tx/indices: (channels, blocks, ...) from _PointState.draw for the block
    numbers in block_ids, which also key the amplifier noise. Blocks whose
    pilot symbols are misdetected are dropped; the rest go through priors,
    bit-metric AIR, the selection rate penalty in bits/4D (0, or log2(eta)/n
    for the bound), shaping rate loss and spectral efficiency. row carries
    the ResultRow fields fixed by the caller.
    """
    cfg, wdm = st.cfg, link_wdm(st.cfg)
    # the source's noise array lives only as long as link_receive
    y = link_receive(tx, wdm, fiber_for(cfg), amp_for(cfg),
                     step_schedule(cfg, st.power_dbm, wdm, cfg.steps_per_span),
                     st.power_dbm,
                     _ase_noise_source(cfg.seed, block_ids, (2, tx.shape[-1] * wdm.sps))
                     if cfg.noise_on else None,
                     st.processes)
    center = wdm.center_channel
    pay = slice(st.pilot_syms, None)
    y_pay, theta = mean_phase_comp(y[..., pay], tx[center][..., pay])

    keep = np.ones(block_ids.size, dtype=bool)
    if st.pilot_syms:
        y_pil = y[..., :st.pilot_syms] * np.exp(-1j * theta)[..., None]
        keep = detect_pilot_index(y_pil) == indices[center]
    if not keep.any():
        raise HarnessError("all blocks discarded by pilot detection")

    tx_kept = tx[center][keep][..., pay]
    # mb rates with its target priors, the other schemes with the sent levels' frequencies
    air = air_bitwise(tx_kept, y_pay[keep], st.dist.probs if st.dist is not None else None)
    air_net = max(0.0, air.air_bits_per_4d + rate_penalty)
    prior4 = air.prior_entropy_bits_per_4d
    # the ideal mb matcher (realized_bits_4d None) has no rate loss
    rate_loss = 0.0 if st.realized_bits_4d is None else max(0.0, prior4 - st.realized_bits_4d)
    se = se_from_air(air_net, wdm, rate_loss_bits_4d=rate_loss,
                     time_fraction=st.time_fraction)
    return PointDetail(row=ResultRow(power_dbm=st.power_dbm, air_bits_4d=air_net,
                                     se_bits_s_hz=se, ci95=air.ci95_bits_per_4d,
                                     **row),
                       prior_entropy_bits_4d=prior4,
                       realized_bits_4d=st.realized_bits_4d,
                       rate_loss_bits_4d=rate_loss,
                       time_fraction=st.time_fraction,
                       noise_variance=air.noise_variance,
                       equivocation_per_block=air.equivocation_per_4d.reshape(
                           -1, st.n),
                       sel_costs=sel_costs, kept_blocks=block_ids[keep],
                       n_discarded=int(block_ids.size - keep.sum()),
                       resolved=st.resolved)


def run_point_detailed(cfg: ExperimentConfig, scheme: str, power_dbm: float,
                       n_t: int = 1, pool_width: int = 1) -> PointDetail:
    """One sweep point; pool_width is how many points run at once (see _core_share)."""
    st = _PointState(cfg, scheme, power_dbm, n_t, pool_width)
    try:
        tx, costs, indices = st.draw(np.arange(cfg.n_blocks))
        sel_mean = float(np.nanmean(costs)) if scheme in SELECTION_SCHEMES else math.nan
        row = dict(scheme=scheme, metric=_metric_label(cfg, scheme), n_t=int(n_t),
                   sel_metric_mean=sel_mean)
        return _point_detail(st, tx, indices, np.arange(cfg.n_blocks), 0.0, row, costs)
    except Exception as exc:
        exc.point_resolved = st.resolved  # for the sweep's failure record
        raise


def ss_bound_estimate(cfg: ExperimentConfig, power_dbm: float | None = None,
                      eta: float | None = None, m_total: int | None = None
                      ) -> PointDetail:
    """Post-selection rate bound from the best eta fraction of m_total blocks.

    Center-channel blocks are scored with the channel-emulation cost at the
    launch power under test; the cheapest bound_kept(cfg) blocks are
    propagated through the full WDM link and the achievable rate over that
    subset is adjusted by log2(eta)/n before the spectral-efficiency
    conversion. eta=1 reproduces the plain sphere-shaping point exactly.

    The population is drawn, encoded and scored in batches of 64 blocks, and
    after each batch only the cheapest bound_kept(cfg) blocks so far are
    kept, on every channel. So memory holds one batch and the kept set, not
    m_total blocks; only the m_total costs grow with it.
    """
    power = cfg.powers_dbm[0] if power_dbm is None else float(power_dbm)
    # an explicit eta or m_total is checked like the config value it replaces
    cfg = replace(cfg, bound_eta=cfg.bound_eta if eta is None else float(eta),
                  bound_m_total=cfg.bound_m_total if m_total is None else int(m_total))
    eta, m_total = cfg.bound_eta, cfg.bound_m_total
    n_t = int(round(1.0 / eta))
    st = _PointState(cfg, "ess", power, 1)
    wdm = link_wdm(cfg)
    penalty = math.log2(eta) / st.n
    scorer = _nli_metric(cfg, power, st.processes)
    st.resolved.update({"scheme": "bound", "n_t": n_t, "eta": eta, "m_total": m_total,
                        "rate_penalty_bits_per_4d": penalty,
                        "rate_penalty_formula": "log2(eta)/block_len_4d",
                        # above the sweep's powers the schedules differ from resolve_defaults
                        "link_steps_per_span": step_schedule(
                            cfg, power, wdm, cfg.steps_per_span).resolve(fiber_for(cfg)),
                        "metric_steps_per_span": scorer.step_cfg.resolve(scorer.fiber)})
    try:
        n_keep, center = bound_kept(cfg), wdm.center_channel
        costs = np.empty(m_total)
        kept = np.empty(0, dtype=int)  # the cheapest blocks so far, by cost, ties by number
        tx, _, indices = st.draw(kept)  # their symbols and pilot indices: none yet
        for lo in range(0, m_total, 64):
            blocks = np.arange(lo, min(lo + 64, m_total))
            batch_tx, _, batch_indices = st.draw(blocks)
            costs[blocks] = scorer(batch_tx[center])
            # survivors precede the batch's higher numbers, so a stable sort breaks
            # ties by block number, as one stable argsort over the population does
            kept = np.concatenate([kept, blocks])
            best = np.argsort(costs[kept], kind="stable")[:n_keep]
            kept = kept[best]
            tx = np.concatenate([tx, batch_tx], axis=1)[:, best]
            indices = np.concatenate([indices, batch_indices], axis=1)[:, best]
        order = np.argsort(kept)
        kept = kept[order]
        row = dict(scheme="bound", metric="nli", n_t=n_t,
                   sel_metric_mean=float(costs[kept].mean()))
        return _point_detail(st, tx[:, order], indices[:, order], kept, penalty, row,
                             costs[None, :])
    except Exception as exc:
        exc.point_resolved = st.resolved  # for the bound's failure record
        raise


_TRACE_FRAMES = 6


def failed_point(exc: Exception, scheme: str, metric: str, power: float,
                 n_t: int) -> tuple[ResultRow, str, dict]:
    """A failed point's NaN row, its "Type: message" and its sidecar record:
    its parameters, the error and its innermost frames."""
    row = dict.fromkeys([f.name for f in fields(ResultRow)], math.nan)
    row.update(scheme=scheme, metric=metric, power_dbm=float(power), n_t=int(n_t))
    record = {"scheme": scheme, "power_dbm": power, "n_t": n_t}
    record.update(getattr(exc, "point_resolved", {}))
    record["error"] = error = "%s: %s" % (type(exc).__name__, exc)
    record["traceback"] = ["%s:%d:%s" % (f.filename, f.lineno, f.name) for f in
                           traceback.extract_tb(exc.__traceback__)[-_TRACE_FRAMES:]]
    return ResultRow(**row), error, record


def _point_worker(args):
    cfg, scheme, power, n_t, pool_width = args
    try:
        detail = run_point_detailed(cfg, scheme, power, n_t, pool_width)
        return detail.row, None, detail.resolved
    except Exception as exc:  # a failed point becomes a NaN row and a sidecar record
        return failed_point(exc, scheme, _metric_label(cfg, scheme), power, n_t)


def sweep(cfg: ExperimentConfig):
    """All (scheme, power, n_t) points plus best-power summary rows.

    Returns (rows, errors, resolved) where errors maps a point label to the
    "Type: message" of a failed point and resolved holds one parameter dict
    per point, in sweep order; a failed point's dict adds its error and
    innermost traceback frames (file:line:function). Schemes without a
    candidate family run once per power with n_t pinned to 1.
    """
    points = []
    for scheme in cfg.schemes:
        nts = cfg.n_t_values if scheme in SELECTION_SCHEMES else (1,)
        for power in cfg.powers_dbm:
            for n_t in nts:
                points.append((cfg, scheme, float(power), int(n_t)))

    width = min(cfg.max_workers, len(points))
    if width > 1:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=width) as pool:
            outcomes = list(pool.map(_point_worker, [p + (width,) for p in points]))
    else:
        outcomes = [_point_worker(p + (1,)) for p in points]

    rows, errors, resolved = [], {}, []
    for (_, scheme, power, n_t), (row, err, res) in zip(points, outcomes):
        rows.append(row)
        if err is not None:
            errors["%s p=%g n_t=%d" % (scheme, power, n_t)] = err
        resolved.append(res)
    rows.sort(key=lambda r: (r.scheme, r.power_dbm, r.n_t))

    best = {}  # (scheme, n_t) -> its first row, by power, at the highest SE
    for r in rows:
        top = best.get((r.scheme, r.n_t))
        if not math.isnan(r.se_bits_s_hz) and (top is None or r.se_bits_s_hz > top.se_bits_s_hz):
            best[r.scheme, r.n_t] = r
    summaries = sorted((replace(r, scheme="best:" + r.scheme) for r in best.values()),
                       key=lambda r: (r.scheme, r.power_dbm, r.n_t))
    return rows + summaries, errors, resolved


def _row_line(r: ResultRow) -> str:
    return ",".join(("%.12g" if f.type == "float" else "%s") % getattr(r, f.name)
                    for f in fields(ResultRow))


def emit_csv(rows: Iterable[ResultRow], path: str) -> None:
    rows = list(rows)
    if not rows:
        raise HarnessError("no rows to write")
    text = "\n".join([CSV_HEADER] + [_row_line(r) for r in rows]) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def parse_csv(path: str) -> list[ResultRow]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise HarnessError("missing or wrong CSV header")
    columns, out = fields(ResultRow), []
    for ln, line in enumerate(lines[1:], 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise HarnessError("bad CSV row (line %d): %r" % (ln, line))
        values = {}
        for f, raw in zip(columns, parts):
            try:
                values[f.name] = _parse_value(f.name, f.type, raw)
            except ValueError as exc:
                raise HarnessError("bad CSV row (line %d, column %s): %r: %s"
                                   % (ln, f.name, line, exc)) from None
        out.append(ResultRow(**values))
    return out


def resolve_defaults(cfg: ExperimentConfig) -> dict:
    """Values filled in for everything the config leaves implicit."""
    fiber, top = fiber_for(cfg), max(cfg.powers_dbm)
    steps = step_schedule(cfg, top, link_wdm(cfg), cfg.steps_per_span).resolve(fiber)
    msteps = step_schedule(cfg, top, metric_wdm(cfg), cfg.metric_steps_per_span).resolve(fiber)
    k = dm_bits_per_block(cfg)
    n = cfg.block_len_4d
    wk_w = min(128, n)  # wk_metric's default window and stride
    return {
        "dm_bits_per_block": k,
        "dm_realized_bits_per_4d": (4 * n // cfg.dm_blocklength * k + 4 * n) / n,
        "link_steps_per_span": steps,
        "metric_steps_per_span": msteps,
        "wk_window": wk_w,
        "wk_stride": max(1, wk_w // 2),
        "bound_rate_penalty_formula": "log2(eta)/block_len_4d",
        "ase_seed_scheme": "substream(seed, tag, indices) per data/noise/book draw",
    }


def write_meta(csv_path: str, cfg: ExperimentConfig, errors: dict,
               resolved_points: list) -> str:
    meta = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "version": __version__,
        "config": config_text(cfg).strip().splitlines(),
        "resolved_defaults": resolve_defaults(cfg),
        "points": resolved_points,
        "errors": errors,
    }
    path = csv_path + ".meta.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
