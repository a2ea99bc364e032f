"""tools/pairs.py's verdict on synthetic paired results, and its stop on a bad run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)
SPREAD = pairs.load_arith(_PATH.parent.parent).spread

BASE = [53.4, 53.5, 53.3, 53.4, 53.6, 53.4, 53.5, 53.3, 53.4, 53.5]


def test_ten_wins_past_the_parents_spread_is_a_gain():
    head = [b - 3.7 for b in BASE]
    c = pairs.compare(BASE, head, "lower", 0.15, SPREAD)
    assert (c["wins"], c["ties"], c["losses"]) == (10, 0, 0)
    assert c["verdict"] == "gain"
    assert c["base"][0] == pytest.approx(53.4) and c["change"] < 0


def test_eight_wins_of_ten_is_no_gain():
    head = [b - 3.7 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]]
    c = pairs.compare(BASE, head, "lower", 0.15, SPREAD)
    assert (c["wins"], c["losses"]) == (8, 2)
    assert c["verdict"] == "within bound"


def test_ties_count_for_neither_side():
    head = [b - 3.7 for b in BASE[:9]] + [BASE[9]]
    c = pairs.compare(BASE, head, "lower", 0.15, SPREAD)
    assert (c["wins"], c["ties"], c["losses"]) == (9, 1, 0)
    assert c["verdict"] == "gain"


def test_every_win_inside_the_parents_spread_is_no_gain():
    base = [100.0, 104.0] * 5
    head = [b + 0.5 for b in base]  # higher is better: ten wins, median +0.5 < IQR 4
    c = pairs.compare(base, head, "higher", 0.25, SPREAD)
    assert c["wins"] == 10 and c["verdict"] == "within bound"


def test_worse_past_the_bound_and_unresolved_spread():
    c = pairs.compare([1.0] * 10, [0.7] * 10, "higher", 0.25, SPREAD)
    assert c["verdict"] == "worse than bound"
    spread = [0.5, 1.5] * 5
    c = pairs.compare(spread, [s - 0.1 for s in spread], "higher", 0.25, SPREAD)
    assert c["verdict"] == "unresolved"


@pytest.mark.parametrize("last", ['{"correct": false, "metrics": {}}', "Traceback: boom"])
def test_a_run_that_is_not_a_correct_result_stops_the_tool(tmp_path, last):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print(%s)\n" % json.dumps(last))
    with pytest.raises(SystemExit, match="seed 3: " + last[:10]):
        pairs.run_side(tmp_path, "desk-link", 3, 1.0)
