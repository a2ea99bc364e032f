"""Counters and span timers around calls into passel's public functions.

The benchmark measures passel from outside. ``install`` swaps selected public
functions, in every passel module that holds them, for wrappers that count
the work each call does and, when timing is on, record a span for it. A
span's self time is its duration minus the time its child spans cover.

Propagation is attributed by context: a ``propagate_link`` call inside an
``NliMetric`` call is metric work (``selection.nli.link``), any other call is
the link (``channel.link``). Sample-steps are computed, not counted: samples
in the propagated array x spans x steps per span resolved from the step
config, for calls that returned.

Each ``run_point_detailed`` / ``ss_bound_estimate`` / ``sweep`` call closes
with one record: the spans, counts and selection indices accumulated since
the previous record, plus the outcome. Records go to ``Recorder.records``
and, in a subprocess started by the benchmark, to one JSON-lines file per
process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import resource
import sys
import time

ENV_MODE = "PERFBENCH_HOOK_MODE"  # count | time | setup
ENV_DIR = "PERFBENCH_HOOK_DIR"
SETUP_MARK = "PERFBENCH_SETUP_DONE"

# (module, attribute, span name) for plain timed-and-counted wrappers
_SPANS = (
    ("passel.channel", "standard_complex_noise", "channel.ase"),
    ("passel.channel", "rrc_modulate", "channel.mod_mux"),
    ("passel.channel", "wdm_mux", "channel.mod_mux"),
    ("passel.channel", "wdm_demux", "channel.demux"),
    ("passel.receiver", "cdc", "receiver.rx"),
    ("passel.receiver", "matched_filter_sample", "receiver.rx"),
    ("passel.receiver", "mean_phase_comp", "receiver.rx"),
    ("passel.shaping", "ess_encode", "shaping.ess_encode"),
    ("passel.shaping", "trellis_for", "shaping.trellis_for"),
)


class Recorder:
    """Span stack, per-name [calls, total_s, self_s] and counters."""

    def __init__(self, timing: bool, clock=time.perf_counter, sink_dir: str | None = None,
                 setup_trigger: bool = False):
        self.timing = timing
        self.clock = clock
        self.sink_dir = sink_dir
        self.setup_trigger = setup_trigger
        self.records: list[dict] = []
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start, child_s]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.selections: list[int] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def inside(self, name: str) -> bool:
        return any(s[0] == name for s in self.stack)

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock() if self.timing else 0.0, 0.0])

    def close(self) -> float:
        """Pop the innermost span; returns its duration (0 without timing)."""
        name, start, child = self.stack.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if not self.timing:
            return 0.0
        dur = self.clock() - start
        st[1] += dur
        st[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def emit(self, record: dict) -> None:
        """Close out everything accumulated since the last record."""
        record.update(stats=self.stats, counts=self.counts, selections=self.selections,
                      pid=os.getpid(),
                      rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.stats, self.counts, self.selections = {}, {}, []
        self.records.append(record)
        if self.sink_dir:
            path = os.path.join(self.sink_dir, "%d.jsonl" % os.getpid())
            with open(path, "a", encoding="ascii") as fh:
                fh.write(json.dumps(record) + "\n")


def _context_name(rec: Recorder, name: str) -> str:
    """Channel and receiver work done inside the NLI metric is metric work."""
    if name.startswith(("channel.", "receiver.")) and rec.inside("selection.nli"):
        return "selection.nli." + name.split(".", 1)[1]
    return name


def _span(rec: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(_context_name(rec, name))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()
    return wrapper


def _propagate(rec: Recorder, fn):
    sig = inspect.signature(fn)
    from passel.channel import SsfmStepConfig

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = _context_name(rec, "channel.link")
        rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close()
        a = sig.bind(*args, **kwargs).arguments
        fiber = a["fiber"]
        steps = (a.get("step_cfg") or SsfmStepConfig()).resolve(fiber, 0.0)
        counter = "selection.nli" if name.startswith("selection.") else "channel.link"
        rec.add(counter + ".sample_steps", a["field"].samples.size * fiber.n_spans * steps)
        return out
    return wrapper


def _substream(rec: Recorder, fn):
    from passel.seeding import TAG_DATA

    @functools.wraps(fn)
    def wrapper(seed, *key):
        if rec.setup_trigger and key and key[0] == TAG_DATA:
            # the first data draw: the first point has finished its set-up
            sys.stdout.write("%s %.9f\n" % (SETUP_MARK, time.monotonic()))
            sys.stdout.flush()
            os._exit(0)
        rec.open("seeding.substream")
        try:
            return fn(seed, *key)
        finally:
            rec.close()
    return wrapper


def _air(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open("receiver.air_bitwise")
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close()
        rec.add("receiver.air_bitwise.symbols_4d", res.n_symbols_4d)
        return res
    return wrapper


def _encode(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open("selection.encode")
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close()
        rec.selections.append(int(res.index))
        return res
    return wrapper


def _nli_call(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, symbols):
        rec.open("selection.nli")
        try:
            return fn(self, symbols)
        finally:
            rec.close()
            shape = getattr(symbols, "shape", (2, 0))
            rec.add("selection.nli.candidates", math.prod(shape[:-2]))
    return wrapper


def point_label(scheme: str, power_dbm: float, n_t: int) -> str:
    """Same text the sweep uses to key a failed point."""
    return "%s p=%g n_t=%d" % (scheme, float(power_dbm), int(n_t))


def bound_label(power_dbm: float, eta: float, m_total: int) -> str:
    return "bound p=%g eta=%g m_total=%d" % (float(power_dbm), float(eta), int(m_total))


def _point(rec: Recorder, fn, label_of):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        record = {"kind": "point", "label": label_of(bound.arguments)}
        rec.open("harness.point")
        try:
            detail = fn(*args, **kwargs)
        except Exception as exc:
            record.update(ok=False, error=type(exc).__name__)
            raise
        else:
            record.update(ok=True, error=None, n_discarded=int(detail.n_discarded))
            return detail
        finally:
            record["wall_s"] = rec.close()
            rec.emit(record)
    return wrapper


def _sweep(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open("harness.sweep")
        record = {"kind": "sweep", "label": "sweep"}
        try:
            return fn(*args, **kwargs)
        finally:
            record["wall_s"] = rec.close()
            rec.emit(record)
    return wrapper


def _passel_modules() -> list:
    import passel
    names = sorted(m.name for m in pkgutil.iter_modules(passel.__path__)
                   if not m.name.startswith("_"))
    return [passel] + [importlib.import_module("passel." + n) for n in names]


def _replace_everywhere(modules: list, orig, wrapper) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(rec: Recorder) -> None:
    """Wrap passel's public functions so calls report into ``rec``."""
    modules = _passel_modules()

    def get(modname: str, attr: str):
        return getattr(importlib.import_module(modname), attr)

    for modname, attr, name in _SPANS:
        orig = get(modname, attr)
        _replace_everywhere(modules, orig, _span(rec, orig, name))
    special = (
        ("passel.channel", "propagate_link", _propagate),
        ("passel.seeding", "substream", _substream),
        ("passel.receiver", "air_bitwise", _air),
        ("passel.selection", "bsss_encode", _encode),
        ("passel.selection", "siss_encode", _encode),
        ("passel.harness", "sweep", _sweep),
    )
    for modname, attr, make in special:
        orig = get(modname, attr)
        _replace_everywhere(modules, orig, make(rec, orig))
    points = (
        ("run_point_detailed",
         lambda a: point_label(a["scheme"], a["power_dbm"], a["n_t"])),
        ("ss_bound_estimate",
         lambda a: bound_label(a["power_dbm"], a["eta"], a["m_total"])),
    )
    for attr, label_of in points:
        orig = get("passel.harness", attr)
        _replace_everywhere(modules, orig, _point(rec, orig, label_of))
    nli = get("passel.selection", "NliMetric")
    nli.__call__ = _nli_call(rec, nli.__call__)


def install_from_env() -> None:
    """Hook a passel process the benchmark started, as its environment says."""
    mode = os.environ.get(ENV_MODE)
    if not mode:
        return
    rec = Recorder(timing=(mode == "time"), sink_dir=os.environ.get(ENV_DIR),
                   setup_trigger=(mode == "setup"))
    install(rec)
    # a forked pool worker starts its own records; the parent's open spans stay there
    os.register_at_fork(after_in_child=rec.reset)
