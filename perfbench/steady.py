"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload desk-select --runs 10 --seconds 35

Each run is ``run.py`` in a fresh interpreter with its own ``--seed``. For
every metric it prints the median of the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import arith

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds",
                              str(args.seconds), "--trace", str(args.trace)],
                             cwd=str(ROOT), capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        summary = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print("seed %d correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            json.dumps(summary)), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        print("%-32s median %14.6g  spread %.4f  bound %s" % (
            name, statistics.median(vals), arith.spread(vals), bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
