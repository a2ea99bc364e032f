"""Report how far the pickled PointDetails of two tools/same_bytes.py runs moved.

    PYTHONPATH=src python tools/detail_diff.py BASE_OUT HEAD_OUT

For each .pkl in BASE_OUT it loads the PointDetail there and the one of the
same name in HEAD_OUT and prints, as a markdown table, every field that
differs (row fields as row.<name>, keys of the resolved record as
resolved.<key>) with its largest absolute difference over the field's
elements; a field that is not numeric, or whose shape changed, reads
"differs", and one that only one side has reads "missing". NaNs in the
same places count as equal. It reports only: the exit status is 0
whatever differs.
"""

import dataclasses
import os
import pickle
import sys

import numpy as np


def fields_of(detail, prefix=""):
    """(name, value) of each field, with dataclass fields such as row and dict
    fields such as resolved flattened."""
    if isinstance(detail, dict):
        items = detail.items()
    else:
        items = ((f.name, getattr(detail, f.name)) for f in dataclasses.fields(detail))
    for name, value in items:
        if dataclasses.is_dataclass(value) or isinstance(value, dict):
            yield from fields_of(value, prefix + name + ".")
        else:
            yield prefix + name, value


def max_abs_diff(a, b) -> str | None:
    """None if a and b are equal, else their largest absolute difference or "differs"."""
    try:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    except (TypeError, ValueError):
        return None if a == b else "differs"
    if a.shape != b.shape:
        return "differs"
    if np.array_equal(a, b, equal_nan=True):
        return None
    diff = np.where(np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    return "%.3g" % diff.max()


def main(base_dir: str, head_dir: str) -> None:
    lines = []
    for name in sorted(n for n in os.listdir(base_dir) if n.endswith(".pkl")):
        head_path = os.path.join(head_dir, name)
        if not os.path.exists(head_path):
            lines.append("| %s | (missing in %s) | |" % (name, head_dir))
            continue
        with open(os.path.join(base_dir, name), "rb") as fh:
            base = dict(fields_of(pickle.load(fh)))
        with open(head_path, "rb") as fh:
            head = dict(fields_of(pickle.load(fh)))
        for field in base | head:  # base's order, then the fields only head has
            if field in base and field in head:
                moved = max_abs_diff(base[field], head[field])
            else:
                moved = "missing"
            if moved is not None:
                lines.append("| %s | %s | %s |" % (name, field, moved))
    if not lines:
        print("No PointDetail field differs.")
        return
    print("| file | field | max abs diff |\n|---|---|---|")
    print("\n".join(lines))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: python tools/detail_diff.py BASE_OUT HEAD_OUT")
    main(sys.argv[1], sys.argv[2])
