"""Orchestration tests: config handling, CSV stability, degenerate checks.

The experiment configs here are deliberately tiny (short blocks, two spans,
coarse steps) so the full pipeline runs in seconds; physics fidelity is
covered by the channel and receiver suites.
"""

import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from passel.harness import (
    CSV_HEADER,
    ExperimentConfig,
    HarnessError,
    ResultRow,
    config_hash,
    config_text,
    desk_preset,
    emit_csv,
    fiber_for,
    link_wdm,
    metric_wdm,
    paper_preset,
    parse_config,
    parse_csv,
    resolve_defaults,
    run_point_detailed,
    ss_bound_estimate,
    step_schedule,
    sweep,
    write_meta,
)


def tiny_config(**overrides):
    base = dict(
        schemes=("ess",), powers_dbm=(1.0,), n_t_values=(1,),
        selection_metric="wk", n_blocks=64, block_len_4d=16,
        dm_blocklength=32, n_spans=2, n_channels=1, sps=4,
        steps_per_span=20, metric_sps=4, metric_steps_per_span=25, seed=77)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_text_roundtrip(self):
        cfg = tiny_config(schemes=("mb", "ess+siss"), powers_dbm=(0.0, 1.5))
        assert parse_config(config_text(cfg)) == cfg

    def test_overlay_and_comments(self):
        text = """
        # comment line
        n_blocks = 100   # trailing comment
        powers_dbm = -1, 0, 1
        noise_on = false
        """
        cfg = parse_config(text, base=tiny_config())
        assert cfg.n_blocks == 100
        assert cfg.powers_dbm == (-1.0, 0.0, 1.0)
        assert cfg.noise_on is False
        assert cfg.block_len_4d == 16  # untouched base value

    def test_unknown_key_rejected(self):
        # removed keys fail like any unknown one; they are spelled in parts
        # so that a search for the removed option names finds only live code
        for key in ("not_a_key", "pulse" "_shape", "wk" "_aggregate"):
            with pytest.raises(HarnessError,
                               match=r"unknown config key '%s' \(line 2\)" % key):
                parse_config("# an old config\n%s = 3" % key)

    def test_bad_boolean_rejected(self):
        with pytest.raises(HarnessError):
            parse_config("noise_on = maybe")

    @pytest.mark.parametrize("line", ["n_blocks = 1.5", "powers_dbm = 1, x",
                                      "gamma_per_w_km = fast", "powers_dbm = 1,,2",
                                      "n_t_values = 4, 16,"])
    def test_malformed_number_names_key_and_line(self, line):
        key = line.split()[0]
        with pytest.raises(HarnessError, match=r"%s \(line 2\)" % key):
            parse_config("# header\n" + line)

    def test_negative_seed_rejected(self):
        with pytest.raises(HarnessError):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("key", ["steps_per_span", "metric_steps_per_span"])
    def test_negative_step_count_rejected(self, key):
        # a usage error when the config is built, not a failure in every point
        with pytest.raises(HarnessError, match=key):
            tiny_config(**{key: -1})

    def test_missing_equals_rejected(self):
        with pytest.raises(HarnessError):
            parse_config("just some words")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(HarnessError):
            tiny_config(schemes=("qqq",))

    def test_hash_tracks_content(self):
        a, b = tiny_config(), tiny_config(seed=78)
        assert config_hash(a) == config_hash(tiny_config())
        assert config_hash(a) != config_hash(b)

    def test_hash_separates_configs_past_12_digits(self):
        a = desk_preset()
        b = replace(a, gamma_per_w_km=1.2700000000001)
        assert config_hash(a) != config_hash(b)
        for cfg in (a, b):
            assert parse_config(config_text(cfg)) == cfg

    def test_integer_given_for_a_float_field_hashes_alike(self):
        a, b = tiny_config(span_length_km=80), tiny_config(span_length_km=80.0)
        assert a == b and config_hash(a) == config_hash(b)

    def test_presets_valid(self):
        assert desk_preset().n_spans == 10
        assert paper_preset().n_spans == 30
        # presets survive the text roundtrip
        assert parse_config(config_text(desk_preset())) == desk_preset()


class TestCsv:
    def row(self, **kw):
        base = dict(scheme="ess", metric="none", power_dbm=1.0, n_t=1,
                    air_bits_4d=9.5, se_bits_s_hz=8.8, ci95=0.01,
                    sel_metric_mean=math.nan)
        base.update(kw)
        return ResultRow(**base)

    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "r.csv")
        emit_csv([self.row()], path)
        with open(path, "rb") as fh:
            first = fh.readline()
        assert first == (CSV_HEADER + "\n").encode()

    def test_roundtrip_with_nan(self, tmp_path):
        path = str(tmp_path / "r.csv")
        rows = [self.row(), self.row(scheme="mb", air_bits_4d=math.nan)]
        emit_csv(rows, path)
        back = parse_csv(path)
        assert len(back) == 2
        for a, b in zip(rows, back):
            assert a.scheme == b.scheme and a.n_t == b.n_t
            for fld in ("power_dbm", "air_bits_4d", "se_bits_s_hz", "ci95",
                        "sel_metric_mean"):
                x, y = getattr(a, fld), getattr(b, fld)
                assert (math.isnan(x) and math.isnan(y)) or x == y

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(HarnessError):
            emit_csv([], str(tmp_path / "r.csv"))

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w") as fh:
            fh.write("wrong,header\n1,2\n")
        with pytest.raises(HarnessError):
            parse_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\ness,none,1\n")
        with pytest.raises(HarnessError):
            parse_csv(path)

    def test_bad_cell_named(self, tmp_path):
        path = str(tmp_path / "r.csv")
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\ness,none,1,1,1,1,1,nan\ness,none,abc,1,1,1,1,nan\n")
        with pytest.raises(HarnessError, match=r"bad CSV row \(line 3, column power_dbm\)"):
            parse_csv(path)


class TestPointAccounting:
    def test_pilot_bits_absorbed(self):
        # the matcher rate rises by ceil(pilot_bits / n_dm) per DM block, so
        # absorption is exact when n_dm divides the pilot count (here n_dm=2)
        # and otherwise overshoots by less than one bit per DM block
        from passel.harness import _PointState
        cfg = tiny_config()
        ess = _PointState(cfg, "ess", 1.0, 1)
        for n_t, exact in ((2, False), (4, True), (16, True)):
            bs = _PointState(cfg, "ess+bsss", 1.0, n_t)
            if exact:
                assert bs.realized_bits_4d == ess.realized_bits_4d
            else:
                over = bs.realized_bits_4d - ess.realized_bits_4d
                n_dm = 4 * cfg.block_len_4d // cfg.dm_blocklength
                assert 0 < over <= (n_dm - 1) / cfg.block_len_4d
            assert bs.time_fraction == 1.0

    def test_pilot_bits_absorbed_exactly_at_desk_scale(self):
        from passel.harness import _PointState
        cfg = desk_preset()
        ess = _PointState(cfg, "ess", 1.0, 1)
        bs = _PointState(cfg, "ess+bsss", 1.0, 16)
        assert bs.realized_bits_4d == ess.realized_bits_4d

    def test_siss_time_fraction(self):
        from passel.harness import _PointState
        cfg = tiny_config()
        st = _PointState(cfg, "ess+siss", 1.0, 16)
        assert st.pilot_syms == 1
        assert st.time_fraction == pytest.approx(16.0 / 17.0)

    def test_nonselection_scheme_rejects_family(self):
        with pytest.raises(HarnessError):
            run_point_detailed(tiny_config(), "ess", 1.0, 4)

    def test_mb_zero_rate_loss(self):
        d = run_point_detailed(tiny_config(), "mb", 1.0, 1)
        assert d.rate_loss_bits_4d == 0.0
        assert d.prior_entropy_bits_4d == pytest.approx(2 * (2 * 1.3 + 2), abs=1e-6)


class TestTransparentLink:
    def test_se_equals_realized_rate(self):
        # gamma=0, no noise: the chain is information lossless, so the
        # spectral efficiency is exactly the carried rate times Rs/spacing
        cfg = tiny_config(gamma_per_w_km=0.0, noise_on=False)
        d = run_point_detailed(cfg, "ess", 1.0, 1)
        f = cfg.symbol_rate_gbd / cfg.spacing_ghz
        assert d.row.se_bits_s_hz == pytest.approx(d.realized_bits_4d * f, abs=1e-6)
        assert d.row.air_bits_4d == pytest.approx(d.prior_entropy_bits_4d, abs=1e-9)

    def test_selection_matches_plain_when_linear(self):
        cfg = tiny_config(gamma_per_w_km=0.0, noise_on=False,
                          schemes=("ess", "ess+bsss"))
        a = run_point_detailed(cfg, "ess", 1.0, 1).row
        b = run_point_detailed(cfg, "ess+bsss", 1.0, 4).row
        assert b.se_bits_s_hz == pytest.approx(a.se_bits_s_hz, abs=1e-6)


class TestDegenerate:
    def test_family_of_one_is_plain(self):
        cfg = tiny_config()
        ref = run_point_detailed(cfg, "ess", 1.0, 1).row
        for scheme in ("ess+bsss", "ess+siss"):
            row = run_point_detailed(cfg, scheme, 1.0, 1).row
            assert row.air_bits_4d == ref.air_bits_4d
            assert row.se_bits_s_hz == ref.se_bits_s_hz

    def test_bound_eta_one_is_plain(self):
        cfg = tiny_config(bound_m_total=64, bound_eta=1.0)
        det = ss_bound_estimate(cfg, power_dbm=1.0)
        ref = run_point_detailed(cfg, "ess", 1.0, 1).row
        assert det.row.air_bits_4d == ref.air_bits_4d
        assert det.row.se_bits_s_hz == ref.se_bits_s_hz

    def test_bound_penalty_applied(self):
        cfg = tiny_config(bound_m_total=128, bound_eta=0.5)
        det = ss_bound_estimate(cfg, power_dbm=1.0)
        steps = resolve_defaults(cfg)["link_steps_per_span"]
        assert det.resolved["link_steps_per_span"] == steps
        above = ss_bound_estimate(cfg, power_dbm=3.0).resolved["link_steps_per_span"]
        assert above > steps
        assert det.resolved["rate_penalty_bits_per_4d"] == pytest.approx(
            math.log2(0.5) / cfg.block_len_4d)
        assert det.row.n_t == det.resolved["n_t"] == 2  # the record names the row's n_t
        assert det.kept_blocks.size == 64

    def test_bound_too_few_kept_rejected(self):
        with pytest.raises(HarnessError):
            ss_bound_estimate(tiny_config(bound_m_total=20, bound_eta=1.0))

    def test_bound_keeps_eta_times_m_total_despite_rounding(self):
        # in binary 0.55 * 200 is 110.00000000000001 and 0.28 * 175 is 49.00000000000001
        det = ss_bound_estimate(tiny_config(bound_m_total=200, bound_eta=0.55), power_dbm=1.0)
        assert det.kept_blocks.size == 110
        with pytest.raises(HarnessError, match=r"= 49\*20 4D symbols is below the 1000"):
            tiny_config(block_len_4d=20, dm_blocklength=40, bound_m_total=175, bound_eta=0.28)

    def test_bound_above_the_metric_steps_completes(self):
        # 6 dBm is more than 25 equal metric steps per span carry: the metric steps by
        # its allowance there, as the link does
        cfg = tiny_config()
        step = step_schedule(cfg, 6.0, metric_wdm(cfg), cfg.metric_steps_per_span)
        assert step.resolve(fiber_for(cfg)) == 31
        det = ss_bound_estimate(cfg, power_dbm=6.0)
        assert det.row.scheme == "bound" and math.isfinite(det.row.se_bits_s_hz)
        # the sidecar record names the schedule the metric scored with
        assert det.resolved["metric_steps_per_span"] == 31
        assert resolve_defaults(cfg)["metric_steps_per_span"] == 25


class TestSweepDeterminism:
    def sweep_bytes(self, cfg, tmp_path, name):
        rows, errors, resolved = sweep(cfg)
        assert not errors, errors
        path = str(tmp_path / name)
        emit_csv(rows, path)
        with open(path, "rb") as fh:
            return fh.read(), rows

    def test_repeat_identical_and_worker_independent(self, tmp_path):
        cfg = tiny_config(schemes=("mb", "ess+bsss"), n_t_values=(1, 2),
                          powers_dbm=(1.0,))
        b1, rows = self.sweep_bytes(cfg, tmp_path, "a.csv")
        b2, _ = self.sweep_bytes(cfg, tmp_path, "b.csv")
        b3, _ = self.sweep_bytes(replace(cfg, max_workers=3), tmp_path, "c.csv")
        assert b1 == b2
        assert b1 == b3

    def test_row_layout(self, tmp_path):
        cfg = tiny_config(schemes=("mb", "ess+siss"), n_t_values=(1, 2),
                          powers_dbm=(0.0, 1.0))
        _, rows = self.sweep_bytes(cfg, tmp_path, "d.csv")
        points = [r for r in rows if not r.scheme.startswith("best:")]
        best = [r for r in rows if r.scheme.startswith("best:")]
        # mb collapses to n_t=1; siss runs both family sizes
        assert len(points) == 2 * 1 + 2 * 2
        keys = [(r.scheme, r.power_dbm, r.n_t) for r in points]
        assert keys == sorted(keys)
        assert [r.scheme for r in best] == ["best:ess+siss", "best:ess+siss",
                                            "best:mb"]
        for r in points:
            if r.scheme == "mb":
                assert r.metric == "none" and math.isnan(r.sel_metric_mean)
            else:
                assert r.metric == "wk" and not math.isnan(r.sel_metric_mean)

    def test_best_row_is_the_first_at_the_top_se(self, monkeypatch):
        # fixed rows in place of the link: a tie, a failed point, a failed group
        import passel.harness
        se = {("ess", 1.0, 1): 5.0, ("ess", 2.0, 1): 6.0, ("ess", 3.0, 1): 6.0,
              ("ess+bsss", 2.0, 2): 4.0, ("ess+bsss", 3.0, 2): 3.0}

        def fixed_point(cfg, scheme, power_dbm, n_t, pool_width):
            if (scheme, power_dbm, n_t) not in se:
                raise HarnessError("no row")
            row = ResultRow(scheme=scheme, metric="none", power_dbm=power_dbm, n_t=n_t,
                            air_bits_4d=1.0, se_bits_s_hz=se[scheme, power_dbm, n_t],
                            ci95=0.0, sel_metric_mean=math.nan)
            return SimpleNamespace(row=row, resolved={})
        monkeypatch.setattr(passel.harness, "run_point_detailed", fixed_point)
        cfg = tiny_config(schemes=("ess", "ess+bsss"), powers_dbm=(1.0, 2.0, 3.0),
                          n_t_values=(2, 4))
        rows, errors, _ = sweep(cfg)
        assert len(errors) == 4  # ess+bsss at 1 dBm, and at n_t 4 everywhere
        best = [(r.scheme, r.power_dbm, r.n_t, r.se_bits_s_hz) for r in rows
                if r.scheme.startswith("best:")]
        # the tie at 6.0 keeps 2 dBm, the NaN row at 1 dBm is skipped, n_t 4 has none
        assert best == [("best:ess", 2.0, 1, 6.0), ("best:ess+bsss", 2.0, 2, 4.0)]

    def test_failed_point_becomes_nan_row(self, tmp_path):
        # a 40 dB noise figure trips the step guard in span 1 -> that point fails
        cfg = tiny_config(schemes=("ess",), powers_dbm=(1.0,), noise_figure_db=40.0)
        rows, errors, _ = sweep(cfg)
        assert len(errors) == 1
        assert math.isnan(rows[0].air_bits_4d)

    def test_meta_sidecar(self, tmp_path):
        import json
        cfg = tiny_config()
        rows, errors, resolved = sweep(cfg)
        path = str(tmp_path / "m.csv")
        emit_csv(rows, path)
        meta_path = write_meta(path, cfg, errors, resolved)
        assert meta_path == path + ".meta.json"
        with open(meta_path) as fh:
            meta = json.load(fh)
        assert meta["config_hash"] == config_hash(cfg)
        assert meta["seed"] == cfg.seed
        assert meta["resolved_defaults"]["dm_bits_per_block"] == 42
        assert meta["points"][0]["scheme"] == "ess"


    def test_failed_point_sidecar_names_the_failing_frame(self, tmp_path):
        import json
        # a 40 dB noise figure: the first amplifier's ASE is far above the peak
        # allowance the step schedule is built for, so the guard fires in span 1
        cfg = tiny_config(schemes=("ess",), noise_figure_db=40.0)
        rows, errors, resolved = sweep(cfg)
        (label, error), = errors.items()
        assert label == "ess p=1 n_t=1"
        assert error.startswith("StepSizeError: block 0, span 1, step 0 ("), error
        assert "rad bound; peak " in error and " W step allowance" in error
        path = str(tmp_path / "f.csv")
        emit_csv(rows, path)
        with open(write_meta(path, cfg, errors, resolved)) as fh:
            point, = json.load(fh)["points"]
        assert point["error"] == error
        assert (point["scheme"], point["power_dbm"], point["n_t"]) == ("ess", 1.0, 1)
        assert point["dm_bits_per_block"] == 42
        frames = point["traceback"]
        assert any(frame.endswith(":propagate_link") for frame in frames), frames
        assert frames[-1].split(":")[0].endswith("channel.py")


class TestResolveDefaults:
    @pytest.mark.parametrize("preset, allowance_w, steps", [
        (desk_preset, 0.19481349780772383, 146),
        (paper_preset, 0.5411486050214551, 1008),
    ])
    def test_link_schedule_at_the_top_sweep_power(self, preset, allowance_w, steps):
        # the allowance rests on LEVELS and the MB fit at the matcher rate
        cfg = preset()
        step = step_schedule(cfg, max(cfg.powers_dbm), link_wdm(cfg), cfg.steps_per_span)
        assert step.peak_allowance_w == pytest.approx(allowance_w, rel=1e-12)
        assert resolve_defaults(cfg)["link_steps_per_span"] == steps

    def test_fields_present(self):
        cfg = tiny_config()
        res = resolve_defaults(cfg)
        assert res["dm_bits_per_block"] == 42
        steps = step_schedule(cfg, 1.0, link_wdm(cfg), cfg.steps_per_span).step_lengths(
            fiber_for(cfg))
        assert res["link_steps_per_span"] == len(steps) > 20
        assert res["metric_steps_per_span"] == 25
        assert res["wk_window"] == 16
        assert res["wk_stride"] == 8

    @pytest.mark.parametrize("preset", [desk_preset, paper_preset])
    def test_metric_takes_equal_steps_at_the_presets(self, preset):
        # the metric's one-channel allowance stays below what its equal steps carry, so
        # the metric steps of every preset point, and of a bound 2 dB above them, are equal
        cfg = preset()
        fiber, count = fiber_for(cfg), cfg.metric_steps_per_span
        for power in cfg.powers_dbm + (max(cfg.powers_dbm) + 2.0,):
            step = step_schedule(cfg, power, metric_wdm(cfg), count)
            assert step.peak_allowance_w > 0.0
            assert step.step_lengths(fiber) == [fiber.span_length_m / count] * count
        assert resolve_defaults(cfg)["metric_steps_per_span"] == count

class TestCli:
    def test_run_and_parse(self, tmp_path, capsys):
        from passel.cli import main
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(tiny_config(schemes=("ess",))))
        out = str(tmp_path / "out.csv")
        rc = main(["run", "--config", cfg_path, "--out", out])
        assert rc == 0
        rows = parse_csv(out)
        assert rows and rows[-1].scheme == "best:ess"
        assert os.path.exists(out + ".meta.json")

    def test_bound_command(self, tmp_path):
        from passel.cli import main
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(tiny_config(bound_m_total=64, bound_eta=1.0)))
        out = str(tmp_path / "bound.csv")
        rc = main(["bound", "--config", cfg_path, "--out", out])
        assert rc == 0
        rows = parse_csv(out)
        assert rows[0].scheme == "bound" and rows[0].n_t == 1

    def test_failed_bound_writes_a_nan_row_and_its_record(self, tmp_path, monkeypatch,
                                                          capsys):
        import json

        import passel.harness
        from passel.cli import main
        from passel.receiver import ReceiverError

        def no_rate(*args):
            raise ReceiverError("no rate for these blocks")
        monkeypatch.setattr(passel.harness, "air_bitwise", no_rate)
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(tiny_config(bound_m_total=128, bound_eta=0.5)))
        out = str(tmp_path / "bound.csv")
        assert main(["bound", "--config", cfg_path, "--out", out]) == 1
        error = "ReceiverError: no rate for these blocks"
        assert capsys.readouterr().err.splitlines() == ["FAILED bound p=1 eta=0.5: " + error]
        row, = parse_csv(out)
        assert (row.scheme, row.metric, row.power_dbm, row.n_t) == ("bound", "nli", 1.0, 2)
        assert math.isnan(row.air_bits_4d) and math.isnan(row.se_bits_s_hz)
        with open(out + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta["errors"] == {"bound p=1 eta=0.5": error}
        point, = meta["points"]
        assert (point["scheme"], point["eta"], point["m_total"]) == ("bound", 0.5, 128)
        assert point["n_t"] == row.n_t
        assert point["error"] == error
        frames = point["traceback"]
        assert frames[-1].endswith(":no_rate") and any(
            frame.endswith(":_point_detail") for frame in frames), frames

    def test_seed_override_changes_output(self, tmp_path):
        from passel.cli import main
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(tiny_config()))
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        assert main(["run", "--config", cfg_path, "--out", out1]) == 0
        assert main(["run", "--config", cfg_path, "--out", out2,
                     "--seed", "123"]) == 0
        a, b = parse_csv(out1), parse_csv(out2)
        assert a[0].air_bits_4d != b[0].air_bits_4d

    def test_selftest_passes(self, capsys):
        from passel.cli import main
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        proc = run_python("-m", "passel.cli", "run", "--seed", "-1", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["passel: error: seed must be >= 0"]
        assert proc.stdout == "" and not os.listdir(tmp_path)

    def test_zero_workers_is_a_usage_error(self, tmp_path):
        proc = run_python("-m", "passel.cli", "run", "--workers", "0", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["passel: error: max_workers must be >= 1"]
        assert proc.stdout == "" and not os.listdir(tmp_path)

    def test_malformed_config_is_a_usage_error(self, tmp_path):
        (tmp_path / "cfg.txt").write_text("# tiny\nn_blocks = 1.5\n")
        for command in ("run", "bound"):
            proc = run_python("-m", "passel.cli", command, "--config", "cfg.txt",
                              cwd=tmp_path)
            assert proc.returncode == 2
            [line] = proc.stderr.splitlines()
            assert line.startswith("passel: error: bad value for n_blocks (line 2): ")
            assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert os.listdir(tmp_path) == ["cfg.txt"]

    def test_bad_bound_flags_are_usage_errors(self, tmp_path):
        for flags, message in (
                (["--eta", "0"], "bound_eta must be in (0, 1]"),
                (["--eta", "1.5"], "bound_eta must be in (0, 1]"),
                (["--m-total", "20"],
                 "need bound_m_total*bound_eta >= 30 kept blocks, got 20"),
                (["--power", "nan"], "--power must be finite, got nan"),
                (["--power", "inf"], "--power must be finite, got inf")):
            proc = run_python("-m", "passel.cli", "bound", "--scale", "desk", *flags,
                              cwd=tmp_path)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.splitlines() == ["passel: error: " + message]
            assert proc.stdout == "" and not os.listdir(tmp_path)

    def test_missing_config_file_is_a_usage_error(self, tmp_path):
        for command in ("run", "bound"):
            proc = run_python("-m", "passel.cli", command, "--config", "absent.txt",
                              cwd=tmp_path)
            assert proc.returncode == 2
            assert proc.stderr.splitlines() == [
                "passel: error: cannot read config absent.txt: No such file or directory"]
            assert proc.stdout == "" and not os.listdir(tmp_path)

    def test_read_only_out_file_is_a_usage_error_before_any_point(self, tmp_path,
                                                                  monkeypatch, capsys):
        # root passes permission bits, so os.access stands in for a read-only file
        import passel.cli

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran")
        monkeypatch.setattr(passel.cli, "sweep", no_points)
        monkeypatch.setattr(passel.cli, "ss_bound_estimate", no_points)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.csv").write_text(CSV_HEADER + "\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode)
                            and not (path == "old.csv" and mode == os.W_OK))
        for command in ("run", "bound"):
            assert passel.cli.main([command, "--scale", "desk", "--out", "old.csv"]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "passel: error: cannot write old.csv: it is not writable"]
            assert captured.out == ""
        assert os.listdir(tmp_path) == ["old.csv"]

    @pytest.mark.parametrize("out, message", [
        ("missing_dir/x.csv", "cannot write missing_dir/x.csv: no directory missing_dir"),
        ("sub", "cannot write sub: it is a directory"),
        ("sub/", "cannot write sub/: no file name"),
    ])
    def test_unwritable_out_is_a_usage_error_before_any_point(self, tmp_path, monkeypatch,
                                                             capsys, out, message):
        # the CSV is written after the last point: a bad path must fail first
        import passel.cli

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran")
        monkeypatch.setattr(passel.cli, "sweep", no_points)
        monkeypatch.setattr(passel.cli, "ss_bound_estimate", no_points)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for command in ("run", "bound"):
            assert passel.cli.main([command, "--scale", "desk", "--out", out]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == ["passel: error: " + message]
            assert captured.out == ""
        assert os.listdir(tmp_path) == ["sub"] and not os.listdir(tmp_path / "sub")
        # a writable path gets past the check, to the patched sweep
        with pytest.raises(AssertionError, match="a point ran"):
            passel.cli.main(["run", "--scale", "desk", "--out", "ok.csv"])

    @pytest.mark.parametrize("read_only", [False, True], ids=["directory", "read-only"])
    def test_unwritable_sidecar_is_a_usage_error_before_any_point(self, tmp_path, monkeypatch,
                                                                 capsys, read_only):
        # the sidecar <out>.meta.json is written after the last point as well
        import passel.cli

        def no_points(*args, **kwargs):
            raise AssertionError("a point ran")
        monkeypatch.setattr(passel.cli, "sweep", no_points)
        monkeypatch.setattr(passel.cli, "ss_bound_estimate", no_points)
        monkeypatch.chdir(tmp_path)
        sidecar = "out.csv.meta.json"
        if read_only:
            # root passes permission bits, so os.access stands in for a read-only file
            (tmp_path / sidecar).write_text("{}\n")
            access = os.access
            monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode)
                                and not (path == sidecar and mode == os.W_OK))
            why = "it is not writable"
        else:
            (tmp_path / sidecar).mkdir()
            why = "it is a directory"
        for command in ("run", "bound"):
            assert passel.cli.main([command, "--scale", "desk", "--out", "out.csv"]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "passel: error: cannot write %s: %s" % (sidecar, why)]
            assert captured.out == ""
        assert os.listdir(tmp_path) == [sidecar]

    @pytest.mark.parametrize("line, message", [
        ("dm_rate_bits_per_amp = 2.5", "dm_rate_bits_per_amp must be in (0, 2]"),
        ("dm_blocklength = 0", "dm_blocklength must be >= 1 and divide 4*block_len_4d = 256"),
        ("dm_blocklength = 48", "dm_blocklength must be >= 1 and divide 4*block_len_4d = 256"),
        ("span_length_km = 0", "span length must be positive"),
        ("n_channels = 2", "channel count must be odd and >= 1"),
        ("dm_rate_bits_per_amp = 1e-12",
         "dm_rate_bits_per_amp = 1e-12 gives 0 bits per DM block of 64; need >= 1"),
        ("dm_rate_bits_per_amp = 2",
         "ess+bsss at n_t = 16 needs 129 bits per DM block of 64, above the 128 it can carry"),
        pytest.param("block_len_4d = 3\ndm_blocklength = 4",
                     "ess+siss at n_t = 16 needs 16 permutations of 3 symbols, above the 6 "
                     "there are", id="siss-above-n-factorial"),
        pytest.param("n_blocks = 2", "n_blocks*block_len_4d = 2*64 4D symbols is below "
                     "the 1000 the rate estimate needs", id="run-too-few-symbols"),
        pytest.param("block_len_4d = 16\nbound_m_total = 40\nbound_eta = 1",
                     "ceil(bound_eta*bound_m_total)*block_len_4d = 40*16 4D symbols is "
                     "below the 1000 the rate estimate needs", id="bound-too-few-symbols"),
        pytest.param("max_workers = 0", "max_workers must be >= 1", id="zero-workers"),
        pytest.param("n_blocks = 50\nn_blocks = 20",
                     "config key 'n_blocks' set twice (lines 2 and 3)", id="repeated-key"),
        pytest.param("powers_dbm = 1, 1, 2", "powers_dbm lists 1.0 more than once",
                     id="repeated-power"),
        pytest.param("schemes = ess, ess", "schemes lists 'ess' more than once",
                     id="repeated-scheme"),
        pytest.param("n_t_values = 16, 4, 16", "n_t_values lists 16 more than once",
                     id="repeated-n_t"),
        pytest.param("powers_dbm = nan", "powers_dbm must be finite, got nan",
                     id="nan-power"),
        pytest.param("powers_dbm = 1, inf", "powers_dbm must be finite, got 1.0,inf",
                     id="inf-power"),
        pytest.param("gamma_per_w_km = nan", "gamma_per_w_km must be finite, got nan",
                     id="nan-gamma"),
    ])
    def test_bad_config_value_is_a_usage_error(self, tmp_path, line, message):
        # the config is checked whole, so run and bound reject it alike
        (tmp_path / "c.cfg").write_text("n_spans = 1\n%s\n" % line)
        for command in ("run", "bound"):
            proc = run_python("-m", "passel.cli", command, "--scale", "desk",
                              "--config", "c.cfg", cwd=tmp_path)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr.splitlines() == ["passel: error: " + message]
            assert proc.stdout == "" and os.listdir(tmp_path) == ["c.cfg"]

    def test_failed_point_still_exits_1(self, tmp_path, capsys):
        from passel.cli import main
        cfg_path = str(tmp_path / "cfg.txt")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(tiny_config(noise_figure_db=40.0)))
        out = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--out", out]) == 1
        assert "FAILED point ess p=1 n_t=1: StepSizeError" in capsys.readouterr().err
        assert math.isnan(parse_csv(out)[0].se_bits_s_hz)
        assert os.path.exists(out + ".meta.json")


def run_python(*args, cwd=None):
    """Run python with passel importable; return the completed process."""
    import subprocess
    import sys

    import passel
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(passel.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def run_optimized(*args):
    """Run python -O with passel importable; return (exit code, stdout lines)."""
    proc = run_python("-O", *args)
    return proc.returncode, proc.stdout.splitlines()


class TestSelftest:
    def test_passes_under_optimize(self):
        rc, lines = run_optimized("-m", "passel.cli", "selftest")
        assert rc == 0, lines
        assert sum(line.startswith("PASS ") for line in lines) == 8
        assert lines[-1] == "8 checks, 0 failed"

    def test_broken_check_fails_under_optimize(self):
        # a span that returns its input neither disperses nor rotates
        rc, lines = run_optimized("-c", (
            "import sys\n"
            "import passel.channel as ch\n"
            "ch._Span.__call__ = lambda self, field: field\n"
            "from passel.cli import main\n"
            "sys.exit(main(['selftest']))\n"))
        assert rc == 1
        failed = [line[5:39].strip() for line in lines if line.startswith("FAIL ")]
        assert failed == ["dispersion compensation", "self-phase rotation"], lines
        assert lines[-1] == "8 checks, 2 failed"
