"""passel runs on numpy alone: no scipy module is imported by the CLI or a run.

Every sweep point and pool worker is a fresh interpreter, so each scipy
import costs every process its start-up time and memory. The test suite
itself imports scipy, so the check runs in a child interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1] + "/src")
from passel.cli import main
from passel.harness import ExperimentConfig, config_text, ss_bound_estimate

cfg = ExperimentConfig(
    schemes=("mb", "ess", "ess+bsss", "ess+siss"), powers_dbm=(-4.0,),
    n_t_values=(4,), selection_metric="nli", n_blocks=64, block_len_4d=16,
    dm_blocklength=32, n_spans=2, n_channels=1, sps=4, steps_per_span=20,
    metric_sps=4, metric_steps_per_span=25, seed=77)
path = os.path.join(sys.argv[2], "cfg.txt")
with open(path, "w") as fh:
    fh.write(config_text(cfg))
rc_run = main(["run", "--config", path, "--out", os.path.join(sys.argv[2], "out.csv")])
bound = ss_bound_estimate(cfg, power_dbm=-4.0, eta=0.5, m_total=128)
rc_selftest = main(["selftest"])
print(json.dumps(dict(
    rc_run=rc_run, rc_selftest=rc_selftest, bound_se=bound.row.se_bits_s_hz,
    scipy=sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))))
"""


def test_cli_and_runs_import_no_scipy(tmp_path):
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(tmp_path)],
                         cwd=str(tmp_path), capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["rc_run"] == 0 and result["rc_selftest"] == 0
    assert result["bound_se"] > 0
    assert result["scipy"] == []
    # the sweep ran every scheme's point
    schemes = [line.split(",")[0] for line in (tmp_path / "out.csv").read_text().splitlines()]
    assert {"mb", "ess", "ess+bsss", "ess+siss"} <= set(schemes)
