"""Write the outputs whose bytes a same-behaviour change must keep.

    PYTHONPATH=src python tools/same_bytes.py OUT_DIR

Runs whichever passel is importable, through its public API only, so the
same script runs against the src of two checkouts; then
`diff -rq base_out change_out` names every file that differs (it prints
nothing when all are equal). It writes:

- tiny.csv: acceptance criterion 8's sweep (mb and ess+bsss at n_t 1
  and 2, 1 dBm, wk metric, seed 77);
- bound.{csv,pkl}: the desk bound at 2 dBm, eta 0.5, m_total 100;
- mb_2dBm, ess_4dBm, ess_bsss_16_2dBm and ess_siss_16_2dBm .{csv,pkl}: desk
  points at 100 blocks with the nli metric;
- hashes.txt: the config_hash of the desk and paper presets.

Each .pkl is the pickled PointDetail. The desk points take a few minutes
on one core, mostly in the two selection points. Its last printed line
is the process's peak RSS in MiB (ru_maxrss, which Linux reports in KiB).
"""

import os
import pickle
import resource
import sys

from passel.harness import (
    ExperimentConfig,
    config_hash,
    desk_preset,
    emit_csv,
    paper_preset,
    run_point_detailed,
    ss_bound_estimate,
    sweep,
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


def write_detail(out_dir: str, name: str, detail) -> None:
    emit_csv([detail.row], os.path.join(out_dir, name + ".csv"))
    with open(os.path.join(out_dir, name + ".pkl"), "wb") as fh:
        pickle.dump(detail, fh, protocol=4)


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "hashes.txt"), "w", encoding="ascii") as fh:
        fh.write("desk %s\npaper %s\n" % (config_hash(desk_preset()),
                                          config_hash(paper_preset())))
    rows, errors, _ = sweep(tiny_config())
    if errors:
        raise SystemExit("tiny sweep failed: %s" % errors)
    emit_csv(rows, os.path.join(out_dir, "tiny.csv"))
    desk = desk_preset()
    write_detail(out_dir, "bound", ss_bound_estimate(desk, power_dbm=2.0, eta=0.5,
                                                     m_total=100))
    for name, scheme, power_dbm, n_t in DESK_POINTS:
        write_detail(out_dir, name, run_point_detailed(desk, scheme, power_dbm, n_t))
        print("wrote", name)
    print("peak RSS %.1f MiB" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/same_bytes.py OUT_DIR")
    main(sys.argv[1])
