"""The benchmark's view of passel: probed functions and the work they count.

``perfbench`` times passel from outside by wrapping its public functions
(``perfbench/probes.py``) and checks each call's counts against what the
config implies (``perfbench/workloads.expected_counts``). A refactor that
routes around a probed function, or changes a probed signature, breaks
those checks; this test catches it on tiny configs. The probes patch
module attributes, so they run in a child interpreter, not in pytest's.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, sys
sys.path[:0] = [sys.argv[1] + "/perfbench", sys.argv[1] + "/src"]
import probes, run
from workloads import Call, Workload, expected_counts
from passel.harness import ExperimentConfig

cfg = ExperimentConfig(
    selection_metric="nli", n_blocks=64, block_len_4d=16, dm_blocklength=32,
    n_spans=2, n_channels=3, sps=4, steps_per_span=40, metric_sps=4,
    metric_steps_per_span=25, seed=77)
calls = (Call("ess+bsss", -4.0, 4), Call("ess+siss", -4.0, 4),
         Call("bound", -4.0, eta=0.5, m_total=128))
rec = probes.Recorder(timing=False)
probes.install(rec)
result = run.pass_in_process(Workload("contract", "", calls=calls), cfg, rec)
for call, c in zip(calls, result["calls"]):
    print(json.dumps(dict(label=c["label"], ok=c["ok"], message=c.get("message"),
                          selections=len(c["record"]["selections"]),
                          counts=run.record_counts(c["record"]),
                          want=expected_counts(cfg, call, c["ok"]))))
"""


def test_probed_counts_match_the_config():
    out = subprocess.run([sys.executable, "-c", CHILD, str(ROOT)], cwd=str(ROOT),
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert [r["label"].split()[0] for r in records] == ["ess+bsss", "ess+siss", "bound"]
    for r in records:
        assert r["ok"], "%s failed: %s" % (r["label"], r["message"])
        assert r["counts"] == r["want"], r["label"]
        assert r["counts"]["selection.nli.candidates"] > 0, r["label"]
    # every (channel, block) selection decision reaches the probe
    assert [r["selections"] for r in records] == [3 * 64, 3 * 64, 0]
