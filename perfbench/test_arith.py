"""The benchmark's own arithmetic, on synthetic timings."""

import math

import pytest

import arith
import probes


def test_blocks_per_s_keeps_failed_call_time():
    calls = [arith.Outcome("bsss", True, 48, 10.0),
             arith.Outcome("siss", False, 48, 15.0),
             arith.Outcome("bound", True, 150, 5.0)]
    assert arith.blocks_per_s(calls) == pytest.approx((48 + 150) / 30.0)
    assert arith.done_frac(calls) == pytest.approx(2 / 3)


def test_blocks_per_s_of_a_parallel_sweep_uses_its_wall_time():
    calls = [arith.Outcome("a", True, 48, 15.0), arith.Outcome("b", True, 48, 15.0),
             arith.Outcome("c", False, 48, 1.0)]
    assert arith.blocks_per_s(calls, wall_s=16.0) == pytest.approx(96 / 16.0)


def test_useful_frac_counts_candidates_of_completed_calls():
    assert arith.useful_frac([(True, 768), (False, 768), (True, 100)]) \
        == pytest.approx(868 / 1636)
    assert arith.useful_frac([(True, 0)]) == 0.0  # no scoring at all


def test_busy_frac_is_serial_time_over_worker_time():
    assert arith.busy_frac([15.0, 15.0, 1.0, 1.0], 2, 20.0) == pytest.approx(0.8)
    assert arith.busy_frac([3.0, 4.0], 1, 7.0) == pytest.approx(1.0)


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    rec = probes.Recorder(timing=True, clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))
    rec.open("a")
    rec.open("b")
    assert rec.close() == pytest.approx(3.0)
    rec.open("c")
    rec.close()
    assert rec.close() == pytest.approx(10.0)
    assert rec.stats["a"] == [1, pytest.approx(10.0), pytest.approx(6.0)]
    assert rec.stats["b"] == [1, pytest.approx(3.0), pytest.approx(3.0)]
    assert rec.stats["c"] == [1, pytest.approx(1.0), pytest.approx(1.0)]


def test_counting_mode_reads_no_clock():
    def no_clock():
        raise AssertionError("clock read with timing off")

    rec = probes.Recorder(timing=False, clock=no_clock)
    rec.open("a")
    rec.open("b")
    assert rec.close() == 0.0
    rec.close()
    assert rec.stats == {"a": [1, 0.0, 0.0], "b": [1, 0.0, 0.0]}


def test_emit_hands_over_the_delta_and_starts_afresh():
    rec = probes.Recorder(timing=False)
    rec.open("x")
    rec.close()
    rec.add("n", 5)
    rec.selections.append(3)
    rec.emit({"label": "p"})
    rec.add("n", 2)
    rec.emit({"label": "q"})
    first, second = rec.records
    assert (first["counts"], first["selections"], first["stats"]) == ({"n": 5}, [3],
                                                                      {"x": [1, 0.0, 0.0]})
    assert (second["counts"], second["selections"], second["stats"]) == ({"n": 2}, [], {})


def test_merge_sums_records():
    records = [{"stats": {"a": [1, 2.0, 1.0]}, "counts": {"n": 3}},
               {"stats": {"a": [2, 1.0, 0.5], "b": [1, 1.0, 1.0]}, "counts": {"n": 4}}]
    assert arith.merge_stats(records) == {"a": [3, 3.0, 1.5], "b": [1, 1.0, 1.0]}
    assert arith.merge_counts(records) == {"n": 7}


def test_agreement_counts_missing_decisions_as_different():
    assert arith.agreement([1, 2, 3], [1, 0, 3]) == (2, 3)
    assert arith.agreement([1, 2, 3], [1, 2]) == (2, 3)


def test_spread_is_interquartile_range_over_median():
    values = [float(v) for v in range(1, 11)]
    assert arith.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert arith.spread([2.0] * 10) == 0.0
    assert math.isclose(arith.ratio(1.0, 0.0), 0.0)
