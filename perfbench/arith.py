"""Arithmetic that turns call outcomes and probe records into metrics.

Kept free of passel and numpy imports so it can be tested on synthetic
timings.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """One timed call of a workload: a point, a bound, or a CLI sweep point."""

    label: str
    ok: bool
    blocks: int      # channels x blocks the call puts on the link
    wall_s: float


def ratio(num: float, den: float) -> float:
    """num/den, or 0 where the layer did no work."""
    return num / den if den else 0.0


def blocks_per_s(outcomes: list[Outcome], wall_s: float | None = None) -> float:
    """Blocks of completed calls per wall second.

    Failed calls add no blocks but keep their wall time in the denominator.
    ``wall_s`` overrides the summed call time when the calls overlap (a
    parallel sweep is timed as a whole).
    """
    done = sum(o.blocks for o in outcomes if o.ok)
    total = sum(o.wall_s for o in outcomes) if wall_s is None else wall_s
    return ratio(done, total)


def done_frac(outcomes: list[Outcome]) -> float:
    return ratio(sum(1 for o in outcomes if o.ok), len(outcomes))


def useful_frac(points: list[tuple[bool, int]]) -> float:
    """Candidates scored in completed calls over all candidates scored."""
    return ratio(sum(n for ok, n in points if ok), sum(n for _, n in points))


def busy_frac(point_s: list[float], workers: int, sweep_s: float) -> float:
    """Summed serial point time over the time the workers had."""
    return ratio(sum(point_s), workers * sweep_s)


def merge_stats(records: list[dict]) -> dict[str, list]:
    """Sum [calls, total_s, self_s] per span name over records."""
    out: dict[str, list] = {}
    for rec in records:
        for name, (calls, total, self_s) in rec.get("stats", {}).items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return out


def merge_counts(records: list[dict]) -> dict[str, int]:
    out: dict[str, int] = {}
    for rec in records:
        for name, n in rec.get("counts", {}).items():
            out[name] = out.get(name, 0) + n
    return out


def agreement(reference: list[int], got: list[int]) -> tuple[int, int]:
    """(equal decisions, decisions compared); a missing decision disagrees."""
    same = sum(1 for a, b in zip(reference, got) if a == b)
    return same, max(len(reference), len(got))


def spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return ratio(q3 - q1, med)
