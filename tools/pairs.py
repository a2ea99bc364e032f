"""Alternating pairs of benchmark runs, base against head, with a verdict per metric.

    python tools/pairs.py BASE HEAD --workload W --pairs N --seconds S

BASE and HEAD are directories that each hold src/, perfbench/ and
BENCHMARK.json, such as a `git archive` of the base commit and the working
tree. Pair i runs `perfbench/run.py --workload W --seed i --seconds S
--trace 0` once on each side, on the same seed; base runs first in even
pairs and head first in odd ones. A run whose last line is not a result, or
whose result is not `"correct": true`, stops the tool, which prints that
line.

For each end-to-end metric in HEAD's BENCHMARK.json it prints each side's
median and spread, the change of the medians, head's wins, ties and losses
by the metric's better direction, and a verdict. The spread is HEAD's
`perfbench/arith.spread`, the interquartile range as a share of the median,
so the verdicts take their quartiles exactly as the benchmark does:

- "gain": head wins at least 9 of every 10 pairs, and its median is better
  than base's by more than base's interquartile range;
- "worse than bound": head's median is worse than base's by more than the
  metric's bound, a share of base's median;
- "unresolved": neither, and base's spread is wider than the bound, unless
  every head run beats every base run;
- "within bound": otherwise.

Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_arith(root: Path):
    """root's perfbench/arith.py, the module the benchmark takes its spread from."""
    spec = importlib.util.spec_from_file_location("perfbench_arith",
                                                  root / "perfbench" / "arith.py")
    arith = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = arith  # its dataclass looks itself up there
    spec.loader.exec_module(arith)
    return arith


def compare(base: list[float], head: list[float], better: str, bound: float,
            spread) -> dict:
    """Paired values of one metric, pair i being (base[i], head[i]), and their verdict.

    spread(values) is the interquartile range as a share of the median.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    bmed, hmed = statistics.median(base), statistics.median(head)
    bspread = spread(base)
    gain = sign * (hmed - bmed)  # > 0 when head's median is better
    if 10 * wins >= 9 * len(base) and gain > bspread * abs(bmed):
        verdict = "gain"
    elif -gain > bound * abs(bmed):
        verdict = "worse than bound"
    elif bspread > bound and not min(sign * h for h in head) > max(sign * b for b in base):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": (bmed, bspread), "head": (hmed, spread(head)),
            "change": (hmed - bmed) / bmed if bmed else float("nan"),
            "wins": wins, "ties": len(base) - wins - losses, "losses": losses,
            "verdict": verdict}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of root's benchmark; its metrics as {name: value}."""
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else proc.stderr.strip()[-2000:]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise SystemExit("%s seed %d: %s" % (root, seed, last))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35.0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2: a spread needs two runs")
    bench = json.loads((args.head / "BENCHMARK.json").read_text(encoding="ascii"))
    spread = load_arith(args.head.resolve()).spread
    runs = {"base": [], "head": []}
    for seed in range(args.pairs):
        for side in (("base", "head") if seed % 2 == 0 else ("head", "base")):
            runs[side].append(run_side(getattr(args, side).resolve(), args.workload, seed,
                                       args.seconds))
        print("pair %d: %s" % (seed, ", ".join(
            "%s %.6g/%.6g" % (m["name"], runs["base"][-1][m["name"]], runs["head"][-1][m["name"]])
            for m in bench["end_to_end"])), flush=True)
    print("%s, %d pairs of %g s (base/head)" % (args.workload, args.pairs, args.seconds))
    print("%-16s %-22s %-22s %8s %9s  %s" % ("metric", "base median (spread)",
                                           "head median (spread)", "change", "w/t/l",
                                           "verdict"))
    for m in bench["end_to_end"]:
        name = m["name"]
        c = compare([r[name] for r in runs["base"]], [r[name] for r in runs["head"]],
                    m["better"], m["bound"], spread)
        cells = ["%.6g (%.3g)" % side for side in (c["base"], c["head"])]
        print("%-16s %-22s %-22s %+7.2f%% %3d/%d/%d  %s"
              % (name, cells[0], cells[1], 100.0 * c["change"], c["wins"], c["ties"],
                 c["losses"], c["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
