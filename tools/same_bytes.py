"""Write the outputs whose bytes a same-behaviour change must keep.

    PYTHONPATH=src python tools/same_bytes.py OUT_DIR

Runs whichever passel is importable, through its public API only. Run each
checkout's own copy on that checkout's src, so that a change to the API
still compares outputs; then `diff -rq base_out change_out` names every file
that differs (it prints nothing when all are equal). It writes:

- tiny.csv and its sidecar tiny.csv.meta.json: acceptance criterion 8's
  sweep (mb and ess+bsss at n_t 1 and 2, 1 dBm, wk metric, seed 77);
- bound.{csv,pkl} and bound.csv.meta.json: the desk bound at 2 dBm,
  eta 0.5, m_total 100, its sidecar as `passel bound` writes it;
- mb_2dBm, ess_4dBm, ess_bsss_16_2dBm and ess_siss_16_2dBm .{csv,pkl}: desk
  points at 100 blocks with the nli metric;
- hashes.txt: the config_hash of the desk and paper presets;
- link_errors.txt: the "Type: message" that propagate_link raises on two
  fixed failing desk links at 1, 2 and 3 processes: "overflow", where
  block 49 is over the step bound and block 50 overflows numpy's square
  under np.errstate(over="raise"), and "two_shares", where blocks 40 and
  70 are over the bound, in different shares at 2 and 3 processes.

Each .pkl is the pickled PointDetail, and each .meta.json the sidecar
write_meta writes beside a CSV. The desk points take a few minutes
on one core, mostly in the two selection points. Its last printed line
is the process's peak RSS in MiB (ru_maxrss, which Linux reports in KiB).
"""

import os
import pickle
import resource
import sys
from dataclasses import replace

import numpy as np

from passel.channel import (
    FiberParams,
    SsfmStepConfig,
    WdmConfig,
    propagate_link,
    rrc_modulate,
    wdm_mux,
)
from passel.harness import (
    ExperimentConfig,
    config_hash,
    desk_preset,
    emit_csv,
    paper_preset,
    run_point_detailed,
    ss_bound_estimate,
    sweep,
    write_meta,
)

DESK_POINTS = (("mb_2dBm", "mb", 2.0, 1), ("ess_4dBm", "ess", 4.0, 1),
               ("ess_bsss_16_2dBm", "ess+bsss", 2.0, 16),
               ("ess_siss_16_2dBm", "ess+siss", 2.0, 16))


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        schemes=("mb", "ess+bsss"), powers_dbm=(1.0,), n_t_values=(1, 2),
        selection_metric="wk", n_blocks=64, block_len_4d=16, dm_blocklength=32,
        n_spans=2, n_channels=1, sps=4, steps_per_span=20, metric_sps=4,
        metric_steps_per_span=25, seed=77)


def failing_links():
    """(name, field) of each fixed failing link: 100 desk composite blocks at -10 dBm."""
    desk = desk_preset()
    wdm = WdmConfig(n_channels=desk.n_channels, symbol_rate_gbd=desk.symbol_rate_gbd,
                    spacing_ghz=desk.spacing_ghz, rolloff=desk.rolloff, sps=desk.sps)
    rails = np.arange(-7.0, 8.0, 2.0)
    links = []
    for name in ("overflow", "two_shares"):
        rng = np.random.default_rng(35)
        field = wdm_mux([rrc_modulate(rng.choice(rails, size=(100, 2, 64))
                                      + 1j * rng.choice(rails, size=(100, 2, 64)),
                                      wdm, -10.0)[0] for _ in range(wdm.n_channels)], wdm)
        if name == "overflow":
            field.samples[49] *= 1e3
            field.samples[50, 0, 7] = 1e200
        else:
            field.samples[[40, 70]] *= 10.0
        links.append((name, field))
    return links


def link_error(field, processes: int) -> str:
    """The "Type: message" propagate_link raises on field over two lossless spans."""
    try:
        with np.errstate(over="raise"):
            propagate_link(field, FiberParams(n_spans=2, alpha_db_per_km=0.0),
                           SsfmStepConfig(steps_per_span=20), processes=processes)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return "no error"


def write_detail(out_dir: str, name: str, detail) -> None:
    emit_csv([detail.row], os.path.join(out_dir, name + ".csv"))
    with open(os.path.join(out_dir, name + ".pkl"), "wb") as fh:
        pickle.dump(detail, fh, protocol=4)


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "hashes.txt"), "w", encoding="ascii") as fh:
        fh.write("desk %s\npaper %s\n" % (config_hash(desk_preset()),
                                          config_hash(paper_preset())))
    with open(os.path.join(out_dir, "link_errors.txt"), "w", encoding="ascii") as fh:
        for name, field in failing_links():
            for processes in (1, 2, 3):
                fh.write("%s processes=%d %s\n" % (name, processes, link_error(field, processes)))
    tiny = tiny_config()
    rows, errors, resolved = sweep(tiny)
    if errors:
        raise SystemExit("tiny sweep failed: %s" % errors)
    emit_csv(rows, os.path.join(out_dir, "tiny.csv"))
    write_meta(os.path.join(out_dir, "tiny.csv"), tiny, errors, resolved)
    desk = desk_preset()
    bound_cfg = replace(desk, bound_eta=0.5, bound_m_total=100)  # as `passel bound` reads them
    bound = ss_bound_estimate(bound_cfg, power_dbm=2.0)
    write_detail(out_dir, "bound", bound)
    write_meta(os.path.join(out_dir, "bound.csv"), bound_cfg, {}, [bound.resolved])
    for name, scheme, power_dbm, n_t in DESK_POINTS:
        write_detail(out_dir, name, run_point_detailed(desk, scheme, power_dbm, n_t))
        print("wrote", name)
    print("peak RSS %.1f MiB" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/same_bytes.py OUT_DIR")
    main(sys.argv[1])
