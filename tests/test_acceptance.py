"""Acceptance gate: one test per release criterion, one verdict line each.

Each test prints "[criterion N] PASS ..." on success; a failure reads as
FAIL in the pytest report. Tolerances and sample sizes are part of the
contract and must not be loosened.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from passel.channel import (
    AmplifierParams,
    FiberParams,
    FieldWaveform,
    SsfmStepConfig,
    WdmConfig,
    dbm_to_watts,
    propagate_link,
)
from passel.harness import desk_preset, emit_csv, run_point_detailed, ss_bound_estimate, sweep
from passel.receiver import (
    air_bitwise,
    link_receive,
)
from passel.seeding import substream
from passel.selection import (
    PILOT_POINTS,
    NliMetric,
    bsss_decode,
    bsss_encode,
    bsss_pilot_bits,
    permutations,
    scrambler_masks,
    siss_decode,
    siss_encode,
    siss_pilot_symbols,
    wk_metric,
)
from passel.shaping import (
    LEVELS,
    PasShaper,
    ess_decode,
    ess_encode,
    index_to_bits,
    trellis_for,
)
from passel.harness import ExperimentConfig


def report(n: int, detail: str) -> None:
    print("[criterion %d] PASS %s" % (n, detail))


def test_criterion_1_ess_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 4, 6):
        for rate in (0.5, 1.0, 1.3):
            k = math.ceil(n * rate)
            tr = trellis_for(n, k)
            assert int(tr.counts[0][-1]) >= 1 << k
            for idx in range(1 << k):
                bits = index_to_bits(idx, k)
                amps = ess_encode(bits, tr)
                assert float(amps @ amps) <= tr.emax + 1e-9
                assert np.array_equal(ess_decode(amps, tr), bits)
                checked += 1
            # minimality: the first row one lattice step down, the sphere of
            # energy emax - 8, holds fewer than 2^k sequences
            assert tr.slack_width == 1 or tr.counts[0][-2] < 1 << k
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "exhaustive roundtrip of %d indices over 9 shaper configs, "
              "energy bound and sphere minimality hold (%.2f s)"
           % (checked, elapsed))


def test_criterion_2_ssfm_oracles():
    t0 = time.perf_counter()
    # constant-envelope nonlinear phase rotation, dispersion off
    fiber = FiberParams(beta2_ps2_per_km=0.0, gamma_per_w_km=1.3,
                        alpha_db_per_km=0.2, span_length_km=80.0, n_spans=1)
    p0 = 2e-3
    field = FieldWaveform(samples=np.full((2, 256), math.sqrt(p0 / 2),
                                          dtype=complex),
                          sample_rate_hz=186e9)
    quiet = AmplifierParams(noise_on=False)
    # one span through the link: its EDFA's real gain leaves the phase as it is
    out = propagate_link(field, fiber, quiet, SsfmStepConfig(steps_per_span=64))
    alpha = fiber.alpha_per_m
    leff = (1.0 - math.exp(-alpha * fiber.span_length_m)) / alpha
    expected = (8.0 / 9.0) * fiber.gamma_per_w_m * p0 * leff
    got = np.angle(out.samples / field.samples)
    assert np.max(np.abs(got - expected)) / expected < 1e-6

    # Gaussian pulse RMS broadening under pure dispersion
    fiber2 = FiberParams(beta2_ps2_per_km=-21.7, gamma_per_w_km=0.0,
                         alpha_db_per_km=0.0, span_length_km=100.0, n_spans=1)
    fs = 372e9
    t = (np.arange(8192) - 4096) / fs
    t0p = 20e-12
    pulse = np.exp(-t ** 2 / (2 * t0p ** 2)).astype(complex)
    field2 = FieldWaveform(samples=np.stack([pulse, np.zeros_like(pulse)]),
                           sample_rate_hz=fs)
    out2 = propagate_link(field2, fiber2, quiet, SsfmStepConfig(steps_per_span=4))
    power = np.abs(out2.samples[0]) ** 2
    mu = (t * power).sum() / power.sum()
    rms = math.sqrt(((t - mu) ** 2 * power).sum() / power.sum())
    z = fiber2.beta2_s2_per_m * fiber2.span_length_m / t0p ** 2
    expected_rms = (t0p / math.sqrt(2)) * math.sqrt(1.0 + z ** 2)
    assert abs(rms - expected_rms) / expected_rms < 1e-3

    # linear multi-span transparency after dispersion compensation
    wdm = WdmConfig(n_channels=1, symbol_rate_gbd=46.5, spacing_ghz=50.0,
                    rolloff=0.05, sps=4)
    fiber3 = FiberParams(beta2_ps2_per_km=-21.7, gamma_per_w_km=0.0,
                         alpha_db_per_km=0.2, span_length_km=100.0, n_spans=4)
    rng = substream(2026, 0)
    syms = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
    back = link_receive(syms[None], wdm, fiber3,
                        AmplifierParams(noise_figure_db=5.0, noise_on=False),
                        SsfmStepConfig(), 0.0)
    rel = np.linalg.norm(back - syms) / np.linalg.norm(syms)
    assert rel < 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, "nonlinear phase exact to 1e-6, dispersion broadening to 0.1%%, "
              "linear link transparent to 1e-6 (%.2f s)" % elapsed)


def test_criterion_3_air_awgn_oracle():
    # frozen numeric-integration truths for uniform 64QAM under matched
    # Gaussian noise (Gauss-Hermite quadrature, 48 nodes, converged to <1e-4)
    oracle_bits_2d = {6.0: 2.045810, 10.0: 3.168518, 14.0: 4.384907}
    t0 = time.perf_counter()
    uniform = np.full(4, 0.25)
    rails = np.concatenate([np.asarray(LEVELS), -np.asarray(LEVELS)])
    points = (rails[:, None] + 1j * rails[None, :]).ravel()  # the 64 points
    es = float(np.mean(np.abs(points) ** 2))
    rng = substream(31, 0)
    n4 = 50000  # 1e5 2D symbols per point
    for snr_db, truth in oracle_bits_2d.items():
        sigma2 = es / 10 ** (snr_db / 10.0)
        pick = rng.integers(0, points.size, size=(2, n4))
        tx = points[pick]
        noise = (rng.normal(size=tx.shape) + 1j * rng.normal(size=tx.shape))
        res = air_bitwise(tx, tx + noise * math.sqrt(sigma2 / 2.0), uniform)
        assert abs(res.air_bits_per_4d / 2.0 - truth) < 0.05, snr_db

    # noiseless ceiling: every bit resolved, rate = label length
    pick = rng.integers(0, points.size, size=(2, 2000))
    tx = points[pick]
    res0 = air_bitwise(tx, tx.copy(), uniform)
    assert abs(res0.air_bits_per_4d - 12.0) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, "uniform-64QAM rate matches quadrature oracle within 0.05 "
              "bits/2D at 6/10/14 dB; noiseless rate = 12 bits/4D (%.2f s)"
           % elapsed)


def _roundtrip_shaper():
    return PasShaper(trellis_for(4, 5), 8)


def test_criterion_4_end_to_end_decodability():
    shaper = _roundtrip_shaper()
    rng = substream(41, 0)
    for n_t in (1, 2, 4, 16, 256):
        payload = shaper.bits_per_selection_block - bsss_pilot_bits(n_t)
        masks = scrambler_masks(11, n_t, payload)
        bits = rng.integers(0, 2, payload, dtype=np.uint8)
        res = bsss_encode(bits, masks, shaper.encode,
                          lambda s: wk_metric(s, window=8))
        back = bsss_decode(shaper.decode(res.symbols), masks)
        assert np.array_equal(back, bits), "bit selection n_t=%d" % n_t

        perms = permutations(12, n_t, 8)
        payload_syms = shaper.encode(
            rng.integers(0, 2, shaper.bits_per_selection_block, dtype=np.uint8))
        res_s = siss_encode(payload_syms, perms,
                            lambda s: wk_metric(
                                s, window=8,
                                payload=slice(siss_pilot_symbols(n_t), None)))
        got, idx = siss_decode(res_s.symbols, perms)
        assert idx == res_s.index
        assert np.array_equal(got, payload_syms), "symbol selection n_t=%d" % n_t

    # pilot index detection under additive noise, >= 1e6 pilot symbols
    e4 = 196.0  # corner points carry |7+7j|^2 per polarization
    snr_4d = 10 ** (12.0 / 10.0)
    sigma2_2d = e4 / (2.0 * snr_4d)  # per-2D noise variance at 12 dB 4D-SNR
    rng = substream(41, 1)
    n_trials, chunk, errors = 1_000_000, 100_000, 0
    for _ in range(n_trials // chunk):
        true_idx = rng.integers(0, 16, size=chunk)
        sent = PILOT_POINTS[true_idx]  # (chunk, 2)
        noisy = sent + (rng.normal(size=sent.shape)
                        + 1j * rng.normal(size=sent.shape)) * math.sqrt(sigma2_2d / 2)
        d2 = np.abs(noisy[:, None, :] - PILOT_POINTS[None, :, :]) ** 2
        det = d2.sum(axis=2).argmin(axis=1)
        errors += int((det != true_idx).sum())
    rate = errors / n_trials
    assert rate < 1e-3, rate
    report(4, "noiseless roundtrips exact for family sizes 1..256; pilot "
              "index error rate %.2e over 1e6 pilots at 12 dB" % rate)


def test_criterion_5_selection_monotonicity():
    t0 = time.perf_counter()
    cfg = desk_preset()
    n = cfg.block_len_4d
    n_blocks = 200
    family = (1, 2, 4, 8, 16)
    fiber = FiberParams(beta2_ps2_per_km=cfg.beta2_ps2_per_km,
                        gamma_per_w_km=cfg.gamma_per_w_km,
                        alpha_db_per_km=cfg.alpha_db_per_km,
                        span_length_km=cfg.span_length_km, n_spans=4)
    wdm = WdmConfig(n_channels=1, symbol_rate_gbd=cfg.symbol_rate_gbd,
                    spacing_ghz=cfg.spacing_ghz, rolloff=cfg.rolloff,
                    sps=cfg.metric_sps)
    metric = NliMetric(fiber, wdm, SsfmStepConfig(steps_per_span=100),
                       launch_power_dbm=2.0)
    k = math.ceil(cfg.dm_blocklength * cfg.dm_rate_bits_per_amp - 1e-9)
    n_dm = 4 * n // cfg.dm_blocklength

    costs = np.empty((len(family), n_blocks))
    for j, n_t in enumerate(family):
        pil = bsss_pilot_bits(n_t)
        shaper = PasShaper(trellis_for(cfg.dm_blocklength,
                                       k + math.ceil(pil / n_dm)), n)
        payload = shaper.bits_per_selection_block - pil
        masks = scrambler_masks(cfg.seed, n_t, payload)
        for b in range(n_blocks):
            rng = substream(cfg.seed, 5, b)  # same payload stream per block
            bits = rng.integers(0, 2, payload, dtype=np.uint8)
            costs[j, b] = bsss_encode(bits, masks, shaper.encode,
                                      metric).cost

    means = costs.mean(axis=1)
    details = []
    for j in range(1, len(family)):
        diff = costs[j] - costs[j - 1]
        m = diff.mean()
        if m > 0:
            # not strictly lower: must be within paired-test noise at 5%
            tstat = m / (diff.std(ddof=1) / math.sqrt(diff.size))
            p = stats.t.sf(tstat, df=diff.size - 1)
            assert p > 0.05, ("mean cost rose from n_t=%d to %d (t=%.2f)"
                              % (family[j - 1], family[j], tstat))
        details.append("%d:%.4f" % (family[j], m))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(5, "mean selected channel-emulation cost nonincreasing over "
              "family sizes %s on %d paired blocks (means %s) (%.0f s)"
           % (family, n_blocks, " ".join("%.4f" % m for m in means), elapsed))


def test_criterion_6_desk_scale_gain():
    t0 = time.perf_counter()
    cfg = desk_preset()
    assert cfg.n_spans == 10 and cfg.n_channels == 3
    assert cfg.block_len_4d == 64 and 16 in cfg.n_t_values
    assert cfg.n_blocks >= 100

    # locate the SE-optimal power with the cheap non-selection scheme
    scan = {p: run_point_detailed(cfg, "ess", p, 1)
            for p in (1.0, 2.0, 3.0)}
    p_star = max(scan, key=lambda p: scan[p].row.se_bits_s_hz)
    d_ess = scan[p_star]
    d_mb = run_point_detailed(cfg, "mb", p_star, 1)
    d_bs = run_point_detailed(cfg, "ess+bsss", p_star, 16)

    f = cfg.symbol_rate_gbd / cfg.spacing_ghz

    def paired_gain(low, high, rate_extra):
        # same per-block noise substreams -> per-block differences pair up
        e_low = low.equivocation_per_block.mean(axis=1)
        e_high = high.equivocation_per_block.mean(axis=1)
        diff = e_low - e_high + rate_extra
        gain = diff.mean() * f
        tstat = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
        p = stats.t.sf(tstat, df=diff.size - 1)  # one-sided: gain > 0
        return gain, tstat, p

    g_sel, t_sel, p_sel = paired_gain(
        d_ess, d_bs, d_bs.realized_bits_4d - d_ess.realized_bits_4d)
    g_shp, t_shp, p_shp = paired_gain(
        d_mb, d_ess, d_ess.realized_bits_4d - d_mb.prior_entropy_bits_4d)

    assert d_bs.row.se_bits_s_hz > d_ess.row.se_bits_s_hz, \
        "selection gain not positive"
    assert p_sel < 0.05, "selection gain not significant (t=%.2f)" % t_sel
    assert d_ess.row.se_bits_s_hz > d_mb.row.se_bits_s_hz, \
        "shaping gain not positive"
    assert p_shp < 0.05, "shaping gain not significant (t=%.2f)" % t_shp
    elapsed = time.perf_counter() - t0
    report(6, "at P=%.0f dBm: selection gain %.4f bits/s/Hz (t=%.1f), "
              "shaping gain %.4f bits/s/Hz (t=%.1f), both past 95%% "
              "one-sided (%.0f s)"
           % (p_star, g_sel, t_sel, g_shp, t_shp, elapsed))


def _tiny_config(**overrides):
    base = dict(
        schemes=("ess",), powers_dbm=(1.0,), n_t_values=(1,),
        selection_metric="wk", n_blocks=64, block_len_4d=16,
        dm_blocklength=32, n_spans=2, n_channels=1, sps=4,
        steps_per_span=20, metric_sps=4, metric_steps_per_span=25, seed=77)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_7_degenerate_equivalences():
    cfg = _tiny_config()
    ref = run_point_detailed(cfg, "ess", 1.0, 1).row
    for scheme in ("ess+bsss", "ess+siss"):
        row = run_point_detailed(cfg, scheme, 1.0, 1).row
        assert row.air_bits_4d == ref.air_bits_4d, scheme
        assert row.se_bits_s_hz == ref.se_bits_s_hz, scheme

    det = ss_bound_estimate(_tiny_config(bound_m_total=64, bound_eta=1.0),
                            power_dbm=1.0)
    assert det.row.air_bits_4d == ref.air_bits_4d
    assert det.row.se_bits_s_hz == ref.se_bits_s_hz

    # linear fiber at low power, noise on: selecting candidates cannot help
    lin = _tiny_config(gamma_per_w_km=0.0, n_blocks=128, n_spans=12)
    a = run_point_detailed(lin, "ess", -6.0, 1).row
    b = run_point_detailed(lin, "ess+bsss", -6.0, 4).row
    f = lin.symbol_rate_gbd / lin.spacing_ghz
    spread = math.hypot(a.ci95, b.ci95) * f  # 95% band for the SE difference
    assert a.ci95 > 1e-3, "noise too weak for the check to mean anything"
    assert abs(b.se_bits_s_hz - a.se_bits_s_hz) <= spread
    report(7, "family-of-one and eta=1 collapse to plain shaping exactly; "
              "linear-fiber selection gain %.2e within the %.2e band"
           % (abs(b.se_bits_s_hz - a.se_bits_s_hz), spread))


def test_criterion_8_deterministic_output(tmp_path):
    cfg = _tiny_config(schemes=("mb", "ess+bsss"), n_t_values=(1, 2),
                       powers_dbm=(1.0,))
    blobs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        rows, errors, _ = sweep(replace(cfg, max_workers=workers))
        assert not errors
        path = str(tmp_path / (name + ".csv"))
        emit_csv(rows, path)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1], "repeat run differs"
    assert blobs[0] == blobs[2], "worker count changed the output"
    report(8, "CSV byte-identical across repeats and worker counts "
              "(%d bytes)" % len(blobs[0]))
