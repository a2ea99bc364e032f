"""The benchmark's workloads and the work each call should do.

Every workload starts from passel's desk preset. ``--seed`` picks the
preset's master seed from ``PASSEL_SEEDS``, so a run's inputs are fixed by
its seed and the fidelity reference covers every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from probes import bound_label, point_label

# the preset default and seven more master seeds
PASSEL_SEEDS = (1234, 1, 2, 3, 4, 5, 6, 7)


def passel_seed(seed: int) -> int:
    return PASSEL_SEEDS[seed % len(PASSEL_SEEDS)]


@dataclass(frozen=True)
class Call:
    """One in-process call: a sweep point, or the post-selection bound."""

    scheme: str          # "bound" for ss_bound_estimate
    power_dbm: float
    n_t: int = 1
    eta: float = 1.0
    m_total: int = 0

    @property
    def label(self) -> str:
        if self.scheme == "bound":
            return bound_label(self.power_dbm, self.eta, self.m_total)
        return point_label(self.scheme, self.power_dbm, self.n_t)

    def run(self, cfg):
        from passel.harness import run_point_detailed, ss_bound_estimate
        if self.scheme == "bound":
            return ss_bound_estimate(cfg, power_dbm=self.power_dbm, eta=self.eta,
                                     m_total=self.m_total)
        return run_point_detailed(cfg, self.scheme, self.power_dbm, self.n_t)

    def link_blocks(self, cfg) -> int:
        """Blocks per channel the call propagates over the WDM link."""
        if self.scheme == "bound":
            return math.ceil(self.eta * self.m_total)
        return cfg.n_blocks

    def blocks(self, cfg) -> int:
        return cfg.n_channels * self.link_blocks(cfg)


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str          # applied over the desk preset
    calls: tuple = ()         # in-process calls; empty for the CLI sweep
    workers: int = 1          # CLI --workers; 1 for in-process workloads

    @property
    def cli(self) -> bool:
        return not self.calls

    def config(self, seed: int):
        from passel.harness import desk_preset, parse_config
        return replace(parse_config(self.config_text, base=desk_preset()),
                       seed=passel_seed(seed), max_workers=self.workers)

    def sweep_calls(self, cfg) -> tuple:
        """The points ``passel run`` makes for this config, in sweep order."""
        from passel.harness import SELECTION_SCHEMES
        return tuple(Call(s, p, n_t)
                     for s in cfg.schemes
                     for p in cfg.powers_dbm
                     for n_t in (cfg.n_t_values if s in SELECTION_SCHEMES else (1,)))

    def points(self, cfg) -> tuple:
        return self.sweep_calls(cfg) if self.cli else self.calls


WORKLOADS = {
    w.name: w for w in (
        # link-bound: no selection, the WDM split-step link is the cost
        Workload("desk-link", "n_blocks = 100\n",
                 calls=(Call("ess", 4.0), Call("mb", 2.0))),
        # selection-bound: NLI-metric scoring; the ess+siss point scores
        # everything and then fails in the link with StepSizeError
        Workload("desk-select", "n_blocks = 16\n",
                 calls=(Call("ess+bsss", 2.0, 16), Call("ess+siss", 3.0, 16),
                        Call("bound", 2.0, eta=0.5, m_total=100))),
        # the CLI, the process pool and the CSV/sidecar writer
        Workload("desk-sweep-2w", "powers_dbm = 3\nn_blocks = 16\n", workers=2),
    )
}


def expected_counts(cfg, call: Call, ok: bool) -> dict[str, int]:
    """Exact work a call implies, derived from the config and resolve_defaults.

    Draws follow passel's seeding contract: one data substream per (channel,
    block), one noise substream per (block, span), one book substream per
    candidate index above 0. A failed call completes no link propagation,
    so only its scoring is implied (the last two keys).
    """
    from passel.harness import SELECTION_SCHEMES, resolve_defaults
    from passel.selection import siss_pilot_symbols
    rd = resolve_defaults(cfg)
    n = cfg.block_len_4d
    pilots = siss_pilot_symbols(call.n_t) if call.scheme == "ess+siss" else 0
    per_block_link = 2 * (n + pilots) * cfg.sps * cfg.n_spans * rd["link_steps_per_span"]
    per_cand_metric = 2 * (n + pilots) * cfg.metric_sps * cfg.n_spans \
        * rd["metric_steps_per_span"]
    data_blocks = call.m_total if call.scheme == "bound" else cfg.n_blocks
    if call.scheme == "bound":
        candidates = call.m_total
    elif call.scheme in SELECTION_SCHEMES and cfg.selection_metric == "nli":
        candidates = cfg.n_channels * cfg.n_blocks * call.n_t
    else:
        candidates = 0
    scoring = {"selection.nli.candidates": candidates,
               "selection.nli.sample_steps": candidates * per_cand_metric}
    if not ok:
        return {"channel.link.sample_steps": 0, **scoring}
    n_dm = 4 * n // cfg.dm_blocklength
    encodes_per_block = {"mb": 0, "ess+bsss": call.n_t}.get(call.scheme, 1) * n_dm
    ase = call.link_blocks(cfg) * cfg.n_spans if cfg.noise_on else 0
    books = call.n_t - 1 if call.scheme in SELECTION_SCHEMES else 0
    return {
        "channel.link.sample_steps": call.link_blocks(cfg) * per_block_link,
        **scoring,
        "shaping.ess_encode.calls": cfg.n_channels * data_blocks * encodes_per_block,
        "channel.ase.draws": ase,
        "seeding.substream.calls": cfg.n_channels * data_blocks + ase + books,
    }
