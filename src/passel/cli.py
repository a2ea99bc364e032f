"""Command line front end.

passel run      sweep schemes x powers x family sizes, write CSV + metadata
passel bound    post-selection rate bound at one power
passel selftest fast built-in invariant checks, no test framework needed

Settings resolve in order: preset from --scale, then the --config file,
then explicit flags. The emitted CSV is byte-stable for a fixed config and
seed, whatever --workers says.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .harness import (
    ExperimentConfig,
    HarnessError,
    config_hash,
    desk_preset,
    emit_csv,
    failed_point,
    paper_preset,
    parse_config,
    ss_bound_estimate,
    sweep,
    write_meta,
)


def _build_config(args) -> "ExperimentConfig":
    if args.scale == "desk":
        cfg = desk_preset()
    elif args.scale == "paper":
        cfg = paper_preset()
    else:
        cfg = ExperimentConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise HarnessError("cannot read config %s: %s"
                               % (args.config, exc.strerror or exc)) from None
        cfg = parse_config(text, base=cfg)
    flags = {"seed": args.seed, "max_workers": args.workers,
             "bound_eta": getattr(args, "eta", None),
             "bound_m_total": getattr(args, "m_total", None)}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)  # validated like the config file's values
    return cfg


def _check_out(path: str) -> None:
    """The CSV and its sidecar are written after the last point, so check both paths first."""
    folder = os.path.dirname(path) or "."
    for target in (path, path + ".meta.json"):
        if not os.path.basename(path):
            why = "no file name"
        elif os.path.isdir(target):
            why = "it is a directory"
        elif os.path.exists(target) and not os.access(target, os.W_OK):
            why = "it is not writable"
        elif not os.path.isdir(folder):
            why = "no directory %s" % folder
        elif not os.access(folder, os.W_OK):
            why = "directory %s is not writable" % folder
        else:
            continue
        raise HarnessError("cannot write %s: %s" % (target, why))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--workers", type=int, help="worker process count")
    p.add_argument("--scale", choices=("desk", "paper"),
                   help="start from a built-in preset")


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    out = args.out
    print("config %s -> %s" % (config_hash(cfg), out))
    rows, errors, resolved = sweep(cfg)
    emit_csv(rows, out)
    meta = write_meta(out, cfg, errors, resolved)
    n_best = sum(1 for r in rows if r.scheme.startswith("best:"))
    print("wrote %d point rows + %d summary rows, metadata in %s"
          % (len(rows) - n_best, n_best, meta))
    for r in rows:
        if r.scheme.startswith("best:"):
            print("  %-14s n_t=%-4d P=%+.1f dBm  SE=%.4f bits/s/Hz"
                  % (r.scheme, r.n_t, r.power_dbm, r.se_bits_s_hz))
    if errors:
        for label, msg in errors.items():
            print("FAILED point %s: %s" % (label, msg), file=sys.stderr)
        return 1
    return 0


def _cmd_bound(args, cfg: ExperimentConfig) -> int:
    out = args.out
    power = cfg.powers_dbm[0] if args.power is None else args.power
    try:
        detail = ss_bound_estimate(cfg, power_dbm=power)
    except Exception as exc:  # as a failed sweep point: a NaN row and a sidecar record
        row, error, record = failed_point(exc, "bound", "nli", power,
                                          round(1.0 / cfg.bound_eta))
        emit_csv([row], out)
        label = "bound p=%g eta=%g" % (power, cfg.bound_eta)
        write_meta(out, cfg, {label: error}, [record])
        print("FAILED %s: %s" % (label, error), file=sys.stderr)
        return 1
    emit_csv([detail.row], out)
    meta = write_meta(out, cfg, {}, [detail.resolved])
    r = detail.row
    print("bound eta=%g  P=%+.1f dBm  AIR=%.4f bits/4D  SE=%.4f bits/s/Hz"
          % (detail.resolved["eta"], r.power_dbm, r.air_bits_4d, r.se_bits_s_hz))
    print("wrote %s, metadata in %s" % (out, meta))
    return 0


def _check(ok, what: str) -> None:
    """A selftest condition that holds under python -O too, unlike assert."""
    if not ok:
        raise AssertionError(what)


def _selftest_checks():
    from .channel import (AmplifierParams, FieldWaveform, FiberParams, SsfmStepConfig,
                          WdmConfig, propagate_link, rrc_modulate)
    from .receiver import air_bitwise, link_receive, matched_filter_sample
    from .seeding import substream
    from .selection import (bsss_decode, bsss_encode, bsss_pilot_bits, permutations,
                            scrambler_masks, siss_decode, siss_encode, siss_pilot_symbols,
                            wk_metric)
    from .shaping import PasShaper, ess_decode, ess_encode, index_to_bits, trellis_for

    def ess_roundtrip():
        tr = trellis_for(4, 5)
        for idx in range(1 << 5):
            bits = index_to_bits(idx, 5)
            amps = ess_encode(bits, tr)
            _check((amps ** 2).sum() <= tr.emax, "block %d above the energy bound" % idx)
            _check(np.array_equal(ess_decode(amps, tr), bits), "block %d decodes wrong" % idx)

    def filter_backtoback():
        wdm = WdmConfig(n_channels=1, symbol_rate_gbd=46.5, spacing_ghz=50.0,
                        rolloff=0.05, sps=4)
        rng = substream(7, 0)
        syms = (rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64)))
        field, scale = rrc_modulate(syms, wdm, 0.0)
        back = matched_filter_sample(field, wdm) / scale
        _check(np.abs(back - syms).max() < 1e-9, "matched filter does not invert the pulse")

    def air_noiseless():
        rng = substream(11, 0)
        levels = np.array([-7, -5, -3, -1, 1, 3, 5, 7], float)
        syms = (rng.choice(levels, size=(2, 1200))
                + 1j * rng.choice(levels, size=(2, 1200)))
        res = air_bitwise(syms, syms.copy(), np.full(4, 0.25))
        _check(abs(res.air_bits_per_4d - 12.0) < 1e-6,
               "noiseless rate %.9f, want 12" % res.air_bits_per_4d)

    def book_nesting():
        small, large = scrambler_masks(3, 4, 40), scrambler_masks(3, 16, 40)
        _check(np.array_equal(small, large[:4]), "scrambler books do not nest")
        ps, pl = permutations(3, 4, 32), permutations(3, 16, 32)
        _check(np.array_equal(ps, pl[:4]), "permutation books do not nest")

    def bsss_roundtrip():
        shaper = PasShaper(trellis_for(4, 5), 8)
        payload = shaper.bits_per_selection_block - bsss_pilot_bits(4)
        masks = scrambler_masks(5, 4, payload)
        rng = substream(5, 1)
        bits = rng.integers(0, 2, payload, dtype=np.uint8)
        res = bsss_encode(bits, masks, shaper.encode, wk_metric)
        back = bsss_decode(shaper.decode(res.symbols), masks)
        _check(np.array_equal(back, bits), "bit selection does not round-trip")

    def siss_roundtrip():
        shaper = PasShaper(trellis_for(4, 5), 8)
        perms = permutations(9, 16, 8)
        rng = substream(9, 1)
        bits = rng.integers(0, 2, shaper.bits_per_selection_block, dtype=np.uint8)
        payload = shaper.encode(bits)
        res = siss_encode(payload, perms,
                          lambda s: wk_metric(s, payload=slice(siss_pilot_symbols(16), None)))
        got, idx = siss_decode(res.symbols, perms)
        _check(idx == res.index and np.allclose(got, payload),
               "symbol selection does not round-trip")

    def dispersion_inverts():
        # the production chain, on a linear noiseless link
        fiber = FiberParams(beta2_ps2_per_km=-21.7, gamma_per_w_km=0.0,
                            alpha_db_per_km=0.2, span_length_km=80.0, n_spans=2)
        wdm = WdmConfig(n_channels=1, symbol_rate_gbd=46.5, spacing_ghz=50.0,
                        rolloff=0.05, sps=4)
        rng = substream(13, 0)
        syms = (rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64)))
        back = link_receive(syms[None], wdm, fiber, AmplifierParams(noise_on=False),
                            SsfmStepConfig(), 0.0)
        _check(np.abs(back - syms).max() < 1e-6, "dispersion not compensated")

    def spm_phase():
        # beta2 = 0: constant-envelope rotation is (8/9) gamma P Leff at any step count,
        # and the EDFA's real gain leaves the phase alone
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=1)
        p_w = 0.002
        field = FieldWaveform(np.full((2, 64), np.sqrt(p_w / 2), dtype=complex), 10e9)
        alpha = fiber.alpha_per_m
        leff = (1 - np.exp(-alpha * fiber.span_length_m)) / alpha
        want = 8.0 / 9.0 * fiber.gamma_per_w_m * p_w * leff
        for steps in (1, 7):
            out = propagate_link(field, fiber, AmplifierParams(noise_on=False),
                                 SsfmStepConfig(steps_per_span=steps))
            got = np.angle(out.samples / field.samples)
            _check(np.abs(got - want).max() < 1e-9,
                   "%d-step phase %.12f rad, want %.12f" % (steps, got.max(), want))

    return [("sphere shaping index roundtrip", ess_roundtrip),
            ("pulse filter back to back", filter_backtoback),
            ("noiseless rate ceiling", air_noiseless),
            ("candidate book nesting", book_nesting),
            ("bit selection roundtrip", bsss_roundtrip),
            ("symbol selection roundtrip", siss_roundtrip),
            ("dispersion compensation", dispersion_inverts),
            ("self-phase rotation", spm_phase)]


def _cmd_selftest() -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:
            failures += 1
            print("FAIL %-34s %s: %s" % (name, type(exc).__name__, exc))
        else:
            print("PASS %s" % name)
    print("%d checks, %d failed" % (len(_selftest_checks()), failures))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="passel",
        description="Shaped-and-selected transmission experiments on a "
                    "nonlinear WDM fiber link")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sweep and write one CSV row per point")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run, out="results.csv")

    p_bound = sub.add_parser("bound", help="post-selection rate bound")
    _add_common(p_bound)
    p_bound.add_argument("--power", type=float, help="launch power, dBm")
    p_bound.add_argument("--eta", type=float, help="kept fraction in (0, 1]")
    p_bound.add_argument("--m-total", type=int, dest="m_total",
                         help="population size to score")
    p_bound.set_defaults(fn=_cmd_bound, out="bound.csv")

    sub.add_parser("selftest", help="fast built-in checks")

    args = parser.parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest()
    try:
        cfg = _build_config(args)
        _check_out(args.out)
        power = getattr(args, "power", None)
        if power is not None and not math.isfinite(power):
            raise HarnessError("--power must be finite, got %s" % power)
    except HarnessError as exc:
        # a bad setting is a usage error: one line and status 2, as argparse does
        print("passel: error: %s" % exc, file=sys.stderr)
        return 2
    return args.fn(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
