"""passel benchmark: block throughput, failures and fidelity per workload.

Run from the repository root:

    python3 perfbench/run.py --workload desk-link --seed 0 --seconds 35 --trace 0

It repeats whole passes of the workload (at least one) while another pass
still fits in ``--seconds``, checks every result against the fidelity
reference and the work the config implies, and prints each metric with its
unit, a ``report`` line with host and calibration details, and, last, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, measured by timing calls into passel's modules
(``probes.py``). Workloads are defined in ``workloads.py``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread everywhere; set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(SRC))

import arith  # noqa: E402
import probes  # noqa: E402
from workloads import WORKLOADS, Workload, expected_counts  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
CALIB_SHAPE = (100, 2, 512)  # one desk link batch: blocks x pol x samples
CALIB_STEPS = 100

class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------- children

def run_child(cmd: list[str], env: dict | None = None) -> str:
    """Run a child to completion in its own session; kill its group on timeout."""
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("child timed out: %s" % " ".join(cmd))
    if proc.returncode not in (0, 1):  # passel run exits 1 when a point failed
        raise BenchError("child exited %d: %s\n%s" % (proc.returncode, " ".join(cmd),
                                                    err[-2000:]))
    return out


def child_env(mode: str, hook_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (HERE / "boot", HERE, SRC))
    env[probes.ENV_MODE] = mode
    env[probes.ENV_DIR] = str(hook_dir)
    return env


def cli_command(wl: Workload, cfg, work: Path, workers: int) -> list[str]:
    cfg_path = work / "workload.cfg"
    cfg_path.write_text(wl.config_text, encoding="ascii")
    return [sys.executable, "-m", "passel.cli", "run", "--scale", "desk",
            "--config", str(cfg_path), "--seed", str(cfg.seed),
            "--workers", str(workers), "--out", str(work / "out.csv")]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@contextlib.contextmanager
def work_dir():
    """This run's scratch directory inside the checkout, removed afterwards."""
    work = fresh_dir(SCRATCH / str(os.getpid()))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            SCRATCH.rmdir()


# ------------------------------------------------------------------- setup

def probe_setup(wl: Workload, seed: int) -> int:
    """Child side of a set-up probe: exits at the first point's first data draw."""
    rec = probes.Recorder(timing=False, setup_trigger=True)
    probes.install(rec)
    wl.calls[0].run(wl.config(seed))
    print("set-up probe finished without a data draw", file=sys.stderr)
    return 3


def setup_once(wl: Workload, seed: int, work: Path) -> float:
    """Seconds from interpreter start until the first point begins its draws."""
    cfg = wl.config(seed)
    if wl.cli:
        cmd = cli_command(wl, cfg, fresh_dir(work / "setup"), workers=1)
        env = child_env("setup", work / "setup")
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl.name,
               "--seed", str(seed), "--probe-setup"]
        env = None
    t0 = time.monotonic()
    out = run_child(cmd, env)
    for line in out.splitlines():
        if line.startswith(probes.SETUP_MARK):
            return float(line.split()[1]) - t0
    raise BenchError("set-up probe printed no mark")


# ------------------------------------------------------------------ passes

def pass_in_process(wl: Workload, cfg, rec: probes.Recorder) -> dict:
    calls = []
    for call in wl.calls:
        t0 = time.perf_counter()
        try:
            detail = call.run(cfg)
        except Exception as exc:  # a failed point is data, not a benchmark crash
            values = dict(ok=False, error=type(exc).__name__,
                          message="%s: %s" % (type(exc).__name__, exc))
        else:
            row = detail.row
            values = dict(ok=True, error=None, se=row.se_bits_s_hz,
                          air=row.air_bits_4d, ci95=row.ci95)
        wall = time.perf_counter() - t0
        records, rec.records = rec.records, []
        if len(records) != 1 or records[0]["label"] != call.label:
            raise BenchError("expected one probe record for %s" % call.label)
        calls.append(dict(label=call.label, blocks=call.blocks(cfg), wall_s=wall,
                          record=records[0], **values))
    wall = sum(c["wall_s"] for c in calls)
    return dict(calls=calls, wall_s=wall, sweep_s=wall, workers=1,
                rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def pass_cli(wl: Workload, cfg, mode: str, work: Path) -> dict:
    from passel.harness import parse_csv
    work = fresh_dir(work)
    hook_dir = fresh_dir(work / "hooks")
    cmd = cli_command(wl, cfg, work, workers=wl.workers)
    t0 = time.perf_counter()
    run_child(cmd, child_env(mode, hook_dir))
    wall = time.perf_counter() - t0
    rows = [r for r in parse_csv(str(work / "out.csv")) if not r.scheme.startswith("best:")]
    meta = json.loads((work / "out.csv.meta.json").read_text(encoding="ascii"))
    records = [json.loads(line) for path in sorted(hook_dir.glob("*.jsonl"))
               for line in path.read_text(encoding="ascii").splitlines()]
    points = {r["label"]: r for r in records if r["kind"] == "point"}
    sweeps = [r for r in records if r["kind"] == "sweep"]
    if len(sweeps) != 1:
        raise BenchError("expected one sweep record, got %d" % len(sweeps))
    calls = []
    for call in wl.sweep_calls(cfg):
        row = [r for r in rows if (r.scheme, r.power_dbm, r.n_t)
               == (call.scheme, call.power_dbm, call.n_t)]
        if len(row) != 1 or call.label not in points:
            raise BenchError("sweep output lacks point %s" % call.label)
        err = meta["errors"].get(call.label)
        values = dict(ok=err is None, error=err.split(":")[0] if err else None)
        if err is None:
            values.update(se=row[0].se_bits_s_hz, air=row[0].air_bits_4d, ci95=row[0].ci95)
        else:
            values["message"] = err
        calls.append(dict(label=call.label, blocks=call.blocks(cfg),
                          wall_s=points[call.label]["wall_s"],
                          record=points[call.label], **values))
    # sum of per-process peaks: the parent and each pool worker
    peaks: dict[int, float] = {}
    for r in records:
        peaks[r["pid"]] = max(peaks.get(r["pid"], 0.0), r["rss_mb"])
    return dict(calls=calls, wall_s=wall, sweep_s=sweeps[0]["wall_s"],
                sweep_record=sweeps[0], workers=wl.workers, rss_mb=sum(peaks.values()))


# ------------------------------------------------------------------ checks

def record_counts(record: dict) -> dict[str, int]:
    stats, counts = record["stats"], record["counts"]
    return {
        "channel.link.sample_steps": counts.get("channel.link.sample_steps", 0),
        "selection.nli.sample_steps": counts.get("selection.nli.sample_steps", 0),
        "selection.nli.candidates": counts.get("selection.nli.candidates", 0),
        "shaping.ess_encode.calls": stats.get("shaping.ess_encode", [0])[0],
        "channel.ase.draws": stats.get("channel.ase", [0])[0],
        "seeding.substream.calls": stats.get("seeding.substream", [0])[0],
    }


def check_pass(wl: Workload, cfg, result: dict, ref: dict) -> dict:
    """Compare one pass with the reference and the config; collect problems."""
    problems, regressions, se_dev = [], 0, 0.0
    same = compared = 0
    calls_by_label = {c.label: c for c in wl.points(cfg)}
    for c in result["calls"]:
        r = ref.get(c["label"])
        counts = record_counts(c["record"])
        if r is None:
            problems.append("%s: no reference entry" % c["label"])
            continue
        if c["ok"]:
            if not all(math.isfinite(c[k]) for k in ("se", "air", "ci95")):
                regressions += 1
                problems.append("%s: non-finite SE/AIR" % c["label"])
            want = expected_counts(cfg, calls_by_label[c["label"]], ok=True)
            if counts != want:
                problems.append("%s: counts %s, config implies %s"
                                % (c["label"], counts, want))
            if r["ok"]:
                se_dev = max(se_dev, abs(c["se"] - r["se"]))
                if abs(c["air"] - r["air"]) > r["ci95"]:
                    problems.append("%s: AIR %.6f is outside reference %.6f +- %.6f"
                                    % (c["label"], c["air"], r["air"], r["ci95"]))
        elif r["ok"] or c["error"] != r["error"]:
            regressions += 1
            problems.append("%s: %s (reference: %s)" % (
                c["label"], c.get("message", c["error"]), r["error"] or "completed"))
        else:
            want = dict(r["counts"])
            want.update(expected_counts(cfg, calls_by_label[c["label"]], ok=False))
            if counts != want:
                problems.append("%s: counts %s, reference failure had %s"
                                % (c["label"], counts, want))
        s, n = arith.agreement(r["selections"], c["record"]["selections"])
        same += s
        compared += n
    return dict(problems=problems, regressions=regressions, se_max_abs_dev=se_dev,
                sel_same=same, sel_compared=compared)


# ----------------------------------------------------------------- metrics

def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    outcomes = [arith.Outcome(c["label"], c["ok"], c["blocks"], c["wall_s"])
                for p in passes for c in p["calls"]]
    same = sum(p["check"]["sel_same"] for p in passes)
    compared = sum(p["check"]["sel_compared"] for p in passes)
    return {
        "blocks_per_s": arith.blocks_per_s(outcomes, sum(p["wall_s"] for p in passes)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "point_done_frac": arith.done_frac(outcomes),
        # a workload without selection decisions has nothing to disagree with
        "sel_agree_frac": arith.ratio(same, compared) if compared else 1.0,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    n = len(passes)
    records = [c["record"] for p in passes for c in p["calls"]]
    records += [p["sweep_record"] for p in passes if "sweep_record" in p]
    st = arith.merge_stats(records)
    cnt = arith.merge_counts(records)
    calls = [c for p in passes for c in p["calls"]]

    def total(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    def ncalls(name):
        return st.get(name, [0])[0]

    link_steps = cnt.get("channel.link.sample_steps", 0)
    nli_steps = cnt.get("selection.nli.sample_steps", 0)
    cands = cnt.get("selection.nli.candidates", 0)
    outcomes = [arith.Outcome(c["label"], c["ok"], c["blocks"], c["wall_s"]) for c in calls]
    return {
        "channel.link.s": total("channel.link") / n,
        "channel.link.sample_steps": link_steps // n,
        "channel.link.msteps_per_s": arith.ratio(link_steps, total("channel.link")) / 1e6,
        "channel.ase.draws": ncalls("channel.ase") // n,
        "channel.ase.s": total("channel.ase") / n,
        "channel.mod_mux.s": total("channel.mod_mux") / n,
        "channel.demux.s": total("channel.demux") / n,
        "selection.nli.candidates": cands // n,
        "selection.nli.sample_steps": nli_steps // n,
        "selection.nli.s_per_candidate": arith.ratio(total("selection.nli"), cands),
        "selection.nli.msteps_per_s":
            arith.ratio(nli_steps, total("selection.nli.link")) / 1e6,
        "selection.nli.useful_frac": arith.useful_frac(
            [(c["ok"], c["record"]["counts"].get("selection.nli.candidates", 0))
             for c in calls]),
        "selection.encode.self_s": st.get("selection.encode", [0, 0.0, 0.0])[2] / n,
        "shaping.ess_encode.calls": ncalls("shaping.ess_encode") // n,
        "shaping.ess_encode.s_per_call":
            arith.ratio(total("shaping.ess_encode"), ncalls("shaping.ess_encode")),
        "shaping.trellis_for.s": total("shaping.trellis_for") / n,
        "receiver.air_bitwise.s_per_4d": arith.ratio(
            total("receiver.air_bitwise"), cnt.get("receiver.air_bitwise.symbols_4d", 0)),
        "receiver.rx.s": total("receiver.rx") / n,
        "seeding.substream.calls": ncalls("seeding.substream") // n,
        "seeding.substream.s": total("seeding.substream") / n,
        "harness.point.s": arith.ratio(total("harness.point"), ncalls("harness.point")),
        "harness.point.blocks_discarded":
            sum(c["record"].get("n_discarded", 0) for c in calls) // n,
        "harness.sweep.s": sum(p["sweep_s"] for p in passes) / n,
        "harness.sweep.busy_frac": arith.ratio(
            sum(arith.busy_frac([c["wall_s"] for c in p["calls"]], p["workers"],
                                p["sweep_s"]) for p in passes), n),
        "trace.blocks_per_s": arith.blocks_per_s(outcomes,
                                                 sum(p["wall_s"] for p in passes)),
    }


# -------------------------------------------------------------------- host

def calibrate() -> float:
    """Milliseconds per step of a fixed split-step loop shaped like a desk link batch."""
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal(CALIB_SHAPE) + 1j * rng.standard_normal(CALIB_SHAPE)
    disp = np.exp(1j * np.linspace(0.0, 3.0, CALIB_SHAPE[-1]))
    spec = np.fft.fft(a, axis=-1)
    t0 = time.perf_counter()
    for _ in range(CALIB_STEPS):
        cur = np.fft.ifft(spec, axis=-1)
        power = (np.abs(cur) ** 2).sum(axis=-2)
        cur *= np.exp(1e-3j * power)[..., None, :]
        spec = np.fft.fft(cur, axis=-1) * disp
    return (time.perf_counter() - t0) / CALIB_STEPS * 1e3


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# -------------------------------------------------------------------- main

def load_reference(wl: Workload, seed: int) -> dict:
    data = json.loads(REFERENCE.read_text(encoding="ascii"))
    return data["workloads"][wl.name][str(wl.config(seed).seed)]


def run_passes(wl: Workload, seed: int, seconds: float, timing: bool,
               work: Path) -> list[dict]:
    """Whole passes while another one still fits in ``seconds``; at least one."""
    cfg = wl.config(seed)
    rec = probes.Recorder(timing=timing)
    if not wl.cli:
        probes.install(rec)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        if wl.cli:
            passes.append(pass_cli(wl, cfg, "time" if timing else "count",
                                   work / ("pass%d" % len(passes))))
        else:
            passes.append(pass_in_process(wl, cfg, rec))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def reference_entries(wl: Workload, seed: int) -> dict:
    """One counted pass, as the fidelity reference stores it per point."""
    with work_dir() as work:
        passes = run_passes(wl, seed, 0.0, False, work)
    keys = ("ok", "error", "message", "se", "air", "ci95")
    return {c["label"]: dict({k: c[k] for k in keys if k in c},
                             selections=c["record"]["selections"],
                             counts=record_counts(c["record"]))
            for c in passes[0]["calls"]}


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    with work_dir() as work:
        host = host_info()
        host["loadavg_start"] = os.getloadavg()
        calib = [calibrate()]
        setup = [] if trace else [setup_once(wl, seed, work) for _ in range(SETUP_REPEATS)]
        passes = run_passes(wl, seed, seconds, trace, work)
        calib.append(calibrate())
        host["loadavg_end"] = os.getloadavg()
    cfg = wl.config(seed)
    ref = load_reference(wl, seed)
    for p in passes:
        p["check"] = check_pass(wl, cfg, p, ref)
    problems = [m for p in passes for m in p["check"]["problems"]]
    calls = [c for p in passes for c in p["calls"]]
    regressions = sum(p["check"]["regressions"] for p in passes)
    metrics = per_layer(passes) if trace else end_to_end(passes, setup)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    report = {
        "workload": wl.name, "seed": seed, "passel_seed": cfg.seed, "trace": int(trace),
        "passes": len(passes), "host": host,
        "calibration_ms_per_step": {"start": calib[0], "end": calib[1]},
        "setup_s_samples": setup,
        "point_fail_frac": sum(1 for c in calls if not c["ok"]) / len(calls),
        "se_max_abs_dev": max(p["check"]["se_max_abs_dev"] for p in passes),
        "failures": sorted({"%s: %s" % (c["label"], c.get("message", c["error"]))
                            for c in calls if not c["ok"]}),
        "problems": problems,
    }
    return dict(report=report, result={
        "correct": not problems,
        "attempted": len(calls),
        "failed": regressions,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true",
                   help="print one pass's fidelity-reference entries and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "passel" / "__init__.py").is_file():
        print("perfbench: no passel sources under %s" % SRC, file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        return probe_setup(wl, args.seed)
    if args.record:
        print(json.dumps(reference_entries(wl, args.seed), sort_keys=True))
        return 0
    out = measure(wl, args.seed, args.seconds, bool(args.trace))
    rep = out["report"]
    print("perfbench %s seed=%d (passel seed %d) trace=%d passes=%d"
          % (wl.name, args.seed, rep["passel_seed"], args.trace, rep["passes"]))
    for name, m in out["result"]["metrics"].items():
        print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("  %-32s %16.6g %s" % ("point_fail_frac", rep["point_fail_frac"], "fraction"))
        print("  %-32s %16.6g %s" % ("se_max_abs_dev", rep["se_max_abs_dev"], "bits/s/Hz"))
    for msg in rep["failures"]:
        print("  failed point: %s" % msg)
    for msg in rep["problems"]:
        print("  PROBLEM %s" % msg)
    print("report " + json.dumps(rep, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
