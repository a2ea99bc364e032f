"""Receiver chain and rate-estimator tests.

Oracles: closed-form matched-filter processing gain, the single-parameter
phase CRLB, exact noiseless rates, and direct arithmetic for the spectral
efficiency conversion.
"""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from passel.channel import (
    AmplifierParams,
    FiberParams,
    FieldWaveform,
    SsfmStepConfig,
    WdmConfig,
    propagate_link,
    rrc_modulate,
)
from passel.receiver import (
    MIN_SYMBOLS_4D,
    AirResult,
    ReceiverError,
    air_bitwise,
    cdc,
    link_receive,
    matched_filter_sample,
    mean_phase_comp,
    se_from_air,
)
from passel import receiver
from passel.harness import desk_preset, fiber_for, link_wdm
from passel.receiver import _RAIL_LABELS, _RAIL_VALUES, _bit_equivocations
from passel.seeding import substream
from passel.shaping import LEVELS, mb_fit

RAILS = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)
UNIFORM = np.full(4, 0.25)


def loop_rails():
    """Rail code c in 0..7 from LEVELS by loops: (value, [sign, Gray bits])."""
    rails = []
    for code in range(8):
        sign, gray = code >> 2, code & 3
        level = next(j for j in range(4) if j ^ (j >> 1) == gray)
        rails.append(((1 - 2 * sign) * LEVELS[level], [sign, gray >> 1, gray & 1]))
    return rails


# An independent 64-point reference: square QAM of two rails, Gray labeled per
# rail. Point 8 * i + q carries rail i on I and rail q on Q; a label row is MSB
# first [I sign, I amplitude Gray bits, Q sign, Q amplitude Gray bits].
LOOP_RAILS = loop_rails()
QAM_POINTS = np.array([complex(vi, vq) for vi, _ in LOOP_RAILS for vq, _ in LOOP_RAILS])
QAM_LABELS = np.array([li + lq for _, li in LOOP_RAILS for _, lq in LOOP_RAILS])


def qam_priors(amp_probs):
    """Per-point priors of QAM_POINTS from LEVELS probabilities and uniform signs."""
    rail = np.array([amp_probs[LEVELS.index(abs(v))] / 2.0 for v, _ in LOOP_RAILS])
    return np.outer(rail, rail).ravel()


def qam_weights(tx_syms, rx_syms, priors):
    """Each 2D sample's sent point and N x 64 metric log p - |y - x|^2 / sigma2 under
    the fitted Gaussian auxiliary channel, in (block, symbol, polarization) order."""
    def flat(a):
        a = np.asarray(a, dtype=complex)
        return a.reshape(-1, 2, a.shape[-1]).transpose(0, 2, 1).ravel()
    tx, rx = flat(tx_syms), flat(rx_syms)
    sigma2 = max(np.mean(np.abs(rx - tx) ** 2), 1e-300)
    with np.errstate(divide="ignore"):
        logp = np.log(priors)
    idx = np.abs(tx[:, None] - QAM_POINTS[None, :]).argmin(axis=1)
    return idx, logp, logp[None, :] - np.abs(rx[:, None] - QAM_POINTS[None, :]) ** 2 / sigma2


def reference_equivocations(tx_syms, rx_syms, amp_probs):
    """Brute-force 64-point bit-metric equivocation per 4D symbol, in bits."""
    from scipy.special import logsumexp
    idx, _, w = qam_weights(tx_syms, rx_syms, qam_priors(amp_probs))
    e2 = np.zeros(idx.size)
    for j in range(QAM_LABELS.shape[1]):
        ones = QAM_LABELS[:, j].astype(bool)
        llr = logsumexp(w[:, ~ones], axis=1) - logsumexp(w[:, ones], axis=1)
        e2 += np.logaddexp(0.0, -(1.0 - 2.0 * QAM_LABELS[idx, j]) * llr) / math.log(2.0)
    return e2.reshape(-1, 2).sum(axis=1)


def symbolwise_mi(tx_syms, rx_syms, priors):
    """Symbol-metric mutual information (bits/2D) under the same fitted Gaussian
    auxiliary channel as air_bitwise: a reference the bit-metric rate never exceeds."""
    from scipy.special import logsumexp
    idx, logp, w = qam_weights(tx_syms, rx_syms, priors)
    num = w[np.arange(idx.size), idx]
    return float((num - logsumexp(w, axis=1) - logp[idx]).mean()) / math.log(2.0)


def random_symbols(rng, n, blocks=None):
    shape = (2, n) if blocks is None else (blocks, 2, n)
    re = rng.choice(RAILS, size=shape)
    im = rng.choice(RAILS, size=shape)
    return re + 1j * im


class TestConstellation:
    """The receiver's rail code table: Gray per rail, sign bit first."""

    def test_point_set(self):
        assert _RAIL_VALUES.shape == (8,) and _RAIL_LABELS.shape == (8, 3)
        assert sorted(_RAIL_VALUES) == list(RAILS)
        got = sorted((p.real, p.imag) for p in QAM_POINTS)
        assert got == sorted((a, b) for a in RAILS for b in RAILS)

    def test_labels_unique(self):
        assert len({tuple(row) for row in _RAIL_LABELS}) == 8
        assert len({tuple(row) for row in QAM_LABELS}) == 64

    def test_rail_gray_property(self):
        # walking the rail in value order flips exactly one label bit
        order = np.argsort(_RAIL_VALUES)
        for a, b in zip(order, order[1:]):
            assert np.sum(_RAIL_LABELS[a] != _RAIL_LABELS[b]) == 1

    def test_sign_bit_is_msb(self):
        assert np.array_equal(_RAIL_LABELS[:, 0], (_RAIL_VALUES < 0).astype(int))

    def test_matches_loop_reference(self):
        # rail code = sign bit, then the Gray label of the level index
        assert not _RAIL_VALUES.flags.writeable and not _RAIL_LABELS.flags.writeable
        for code, (value, label) in enumerate(LOOP_RAILS):
            assert _RAIL_VALUES[code] == value
            assert list(_RAIL_LABELS[code]) == label

    def test_uniform_priors(self):
        # 3 bits on each of four rails
        x = random_symbols(substream(7, 28), 600, blocks=2)
        y = x + 0.9 * (1.0 + 1.0j)
        assert air_bitwise(x, y, UNIFORM).prior_entropy_bits_per_4d == 12.0

    def test_shaped_priors_product_form(self):
        # four rails carry the entropy of two 64-point products
        amp = np.array([0.4, 0.3, 0.2, 0.1])
        pri = qam_priors(amp)
        assert abs(pri.sum() - 1.0) < 1e-12
        x = random_symbols(substream(7, 29), 600, blocks=2)
        res = air_bitwise(x, x, amp)
        assert abs(res.prior_entropy_bits_per_4d - 2.0 * -(pri * np.log2(pri)).sum()) < 1e-12

    def test_prior_validation(self):
        x = random_symbols(substream(7, 30), MIN_SYMBOLS_4D)
        for bad in ([0.5, 0.5, 0.2, -0.2], np.full(4, 0.3), [0.5, 0.5, math.nan, 0.0],
                    np.full(8, 0.125)):
            with pytest.raises(ReceiverError, match="^amplitude priors must be a distribution"):
                air_bitwise(x, x, bad)


class TestChainBackToBack:
    def test_matched_filter_recovers_symbols(self):
        rng = substream(7, 9)
        wdm = WdmConfig(n_channels=1, sps=8)
        x = random_symbols(rng, 512)
        field, scale = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        y = matched_filter_sample(field, wdm) / scale
        assert y.shape == x.shape
        assert np.abs(y - x).max() < 1e-9

    def test_cdc_inverts_dispersive_link(self):
        rng = substream(7, 10)
        wdm = WdmConfig(n_channels=1, sps=8)
        fiber = FiberParams(gamma_per_w_km=0.0, n_spans=4)
        x = random_symbols(rng, 1024)
        field, scale = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        out = propagate_link(field, fiber, SsfmStepConfig(steps_per_span=4))
        y = matched_filter_sample(cdc(out, fiber), wdm) / scale
        assert np.abs(y - x).max() < 1e-6

    def test_link_receive_returns_the_center_channel_on_three_channels(self):
        # a linear noiseless desk link: every block and channel has its own scale,
        # and only the center channel's returns the center channel's symbols
        cfg = desk_preset()
        wdm = link_wdm(cfg)
        fiber = replace(fiber_for(cfg), gamma_per_w_km=0.0, n_spans=2)
        rng = substream(7, 15)
        tx = np.stack([random_symbols(rng, cfg.block_len_4d, blocks=8) for _ in range(3)])
        y = link_receive(tx, wdm, fiber, SsfmStepConfig(steps_per_span=4), launch_power_dbm=2.0)
        want = tx[wdm.center_channel]
        assert y.shape == want.shape == (8, 2, cfg.block_len_4d)
        assert np.abs(y - want).max() < 1e-9 * np.abs(want).max()

    def test_batched_matches_single(self):
        rng = substream(7, 11)
        wdm = WdmConfig(n_channels=1, sps=4)
        xs = random_symbols(rng, 256, blocks=3)
        field, scale = rrc_modulate(xs, wdm, launch_power_dbm=-1.0)
        y = matched_filter_sample(field, wdm) / scale[:, None, None]
        for b in range(3):
            single, scale_b = rrc_modulate(xs[b], wdm, launch_power_dbm=-1.0)
            yb = matched_filter_sample(single, wdm) / scale_b
            assert np.abs(y[b] - yb).max() < 1e-12

    def test_processing_gain_identity(self):
        # symbol SNR equals waveform SNR times the oversampling factor
        rng = substream(7, 12)
        wdm = WdmConfig(n_channels=1, sps=8)
        x = random_symbols(rng, 4096)
        field, scale = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        sig_p = float((np.abs(field.samples) ** 2).sum(axis=0).mean())
        noise = (rng.standard_normal(field.samples.shape)
                 + 1j * rng.standard_normal(field.samples.shape))
        sigma_w2 = sig_p / 100.0  # 20 dB waveform SNR
        noisy = FieldWaveform(field.samples + noise * math.sqrt(sigma_w2 / 2.0),
                              field.sample_rate_hz)
        y = matched_filter_sample(noisy, wdm) / scale
        snr_sym = np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2)
        snr_wave = (sig_p / 2.0) / sigma_w2  # per polarization
        gain_db = 10 * math.log10(snr_sym / snr_wave)
        assert abs(gain_db - 10 * math.log10(wdm.sps)) < 0.05

    def test_stages_leave_their_input_unchanged(self):
        rng = substream(7, 16)
        wdm = WdmConfig(n_channels=1, sps=8)
        field, _ = rrc_modulate(random_symbols(rng, 256, blocks=2), wdm, launch_power_dbm=0.0)
        before = field.samples.copy()
        cdc(field, FiberParams(n_spans=4))
        matched_filter_sample(field, wdm)
        assert np.array_equal(field.samples, before)

    def test_length_must_divide(self):
        wdm = WdmConfig(n_channels=1, sps=8)
        bad = FieldWaveform(np.zeros((2, 100), dtype=complex), wdm.sample_rate_hz)
        with pytest.raises(ReceiverError):
            matched_filter_sample(bad, wdm)


class TestPhaseComp:
    def test_exact_rotation_removed(self):
        rng = substream(7, 13)
        x = random_symbols(rng, 256)
        theta = np.array([0.3, -1.1])
        y = x * np.exp(1j * theta)[:, None]
        z, est = mean_phase_comp(y, x)
        assert np.allclose(est, theta, atol=1e-12)
        assert np.abs(z - x).max() < 1e-12

    def test_batched(self):
        rng = substream(7, 14)
        x = random_symbols(rng, 64, blocks=5)
        theta = rng.uniform(-np.pi / 2, np.pi / 2, size=(5, 2))
        y = x * np.exp(1j * theta)[..., None]
        z, est = mean_phase_comp(y, x)
        assert est.shape == (5, 2)
        assert np.allclose(est, theta, atol=1e-12)
        assert np.abs(z - x).max() < 1e-10

    @pytest.mark.parametrize("blocks", [63, 64, 128])
    def test_stack_equals_its_rows_bit_for_bit(self, blocks):
        # 64 blocks of 2 x 128 complex are 256 KiB, where numpy starts to reuse
        # temporaries in place; the estimate must not depend on the stack
        rng = substream(7, 23)
        x = random_symbols(rng, 128, blocks=blocks)
        y = x * np.exp(1j * rng.uniform(-1.0, 1.0, size=(blocks, 2, 1))) \
            + 0.3 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        z, est = mean_phase_comp(y, x)
        for b in range(blocks):
            zb, eb = mean_phase_comp(y[b], x[b])
            assert np.array_equal(eb, est[b]) and np.array_equal(zb, z[b])

    def test_estimator_variance_near_crlb(self):
        # var(theta_hat) ~ sigma^2 / (2 sum |x|^2) for small errors
        rng = substream(7, 15)
        n, trials, snr_db = 256, 400, 20.0
        x = random_symbols(rng, n, blocks=trials)
        es = np.mean(np.abs(x) ** 2)
        sigma2 = es / 10 ** (snr_db / 10)
        noise = (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        y = (x + noise * math.sqrt(sigma2 / 2.0)) * np.exp(1j * 0.2)
        _, est = mean_phase_comp(y, x)
        err = est - 0.2
        crlb = sigma2 / (2.0 * np.sum(np.abs(x[0, 0]) ** 2))  # representative block
        ratio = err.var() / crlb
        assert 0.7 < ratio < 1.3

    def test_shape_mismatch(self):
        with pytest.raises(ReceiverError):
            mean_phase_comp(np.zeros((2, 4)), np.zeros((2, 5)))


class TestAir:
    def test_noiseless_uniform_is_12_bits(self):
        rng = substream(7, 16)
        x = random_symbols(rng, 600, blocks=2)
        res = air_bitwise(x, x, UNIFORM)
        assert abs(res.air_bits_per_4d - 12.0) < 1e-6
        assert abs(res.prior_entropy_bits_per_4d - 12.0) < 1e-12
        assert res.ci95_bits_per_4d < 1e-9
        assert res.n_symbols_4d == 1200

    def test_noiseless_shaped_rate_is_prior_entropy(self):
        rng = substream(7, 17)
        dist = mb_fit(1.32)
        amps = rng.choice(np.asarray(LEVELS), size=(4, 2, 300), p=dist.probs)
        signs = rng.choice([-1.0, 1.0], size=(2, 4, 2, 300))
        x = amps * signs[0] + 1j * amps * signs[1]
        res = air_bitwise(x, x, dist.probs)
        p = np.asarray(dist.probs)
        want = 4.0 * (-(p * np.log2(p)).sum() + 1.0)
        assert abs(res.prior_entropy_bits_per_4d - want) < 1e-9
        assert abs(res.air_bits_per_4d - want) < 1e-6

    def test_air_bounded_by_prior_entropy(self):
        rng = substream(7, 18)
        x = random_symbols(rng, 500, blocks=4)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + noise * 2.0
        res = air_bitwise(x, y, UNIFORM)
        assert 0.0 < res.air_bits_per_4d < res.prior_entropy_bits_per_4d

    def test_air_monotone_in_snr(self):
        rng = substream(7, 19)
        x = random_symbols(rng, 500, blocks=4)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        prev = 0.0
        for scale in (2.0, 1.0, 0.5, 0.25):
            res = air_bitwise(x, x + noise * scale, UNIFORM)
            assert res.air_bits_per_4d > prev
            prev = res.air_bits_per_4d

    def test_bit_metric_at_most_symbol_metric(self):
        rng = substream(7, 20)
        x = random_symbols(rng, 1000, blocks=2)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + noise * 1.2
        res = air_bitwise(x, y, UNIFORM)
        smd = symbolwise_mi(x, y, qam_priors(UNIFORM))
        assert res.air_bits_per_4d / 2.0 <= smd + 1e-9

    def test_matches_analytic_awgn_oracle(self):
        # frozen quadrature value: uniform 64QAM bit-metric rate under the
        # matched Gaussian channel, computed independently in
        # test_acceptance.py on a dense grid; here a quick MC sanity check
        rng = substream(7, 21)
        x = random_symbols(rng, 2500, blocks=8)
        es = 42.0
        snr_db = 14.0
        sigma2 = es / 10 ** (snr_db / 10)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + noise * math.sqrt(sigma2 / 2.0)
        res = air_bitwise(x, y, UNIFORM)
        assert abs(res.air_bits_per_4d / 2.0 - 4.3849) < 0.05

    def test_fitted_variance(self):
        rng = substream(7, 22)
        x = random_symbols(rng, 800, blocks=2)
        y = x + (1.0 + 1.0j)
        assert abs(air_bitwise(x, y, UNIFORM).noise_variance - 2.0) < 1e-12

    def test_sample_size_guard(self):
        x = np.full((2, MIN_SYMBOLS_4D), 1.0 + 1.0j)
        with pytest.raises(ReceiverError):
            air_bitwise(x[:, 1:], x[:, 1:], UNIFORM)
        assert isinstance(air_bitwise(x, x, UNIFORM), AirResult)

    def test_off_grid_tx_rejected(self):
        on_grid = random_symbols(substream(7, 27), MIN_SYMBOLS_4D)
        for off in (1.5 + 0.5j, 2.0 + 1.0j, 1.0 + 1e-4j):  # a rail tie, a gap, a near miss
            x = np.full((2, MIN_SYMBOLS_4D), off)
            y = on_grid.copy()
            y[1, 300] = off
            for tx, count, where in ((x, 2 * MIN_SYMBOLS_4D, "block 0, symbol 0, polarization 0"),
                                     (y, 1, "block 0, symbol 300, polarization 1")):
                want = ("transmitted symbols are not on the constellation grid: %d off it, "
                        "the first %r at (%s)" % (count, off, where))
                with pytest.raises(ReceiverError, match="^%s$" % re.escape(want)):
                    air_bitwise(tx, tx, UNIFORM)

    @pytest.mark.parametrize("side", ["sent", "received"])
    def test_non_finite_sample_rejected(self, side):
        # a NaN once rated as AIR 0 through max(0.0, nan)
        x = random_symbols(substream(7, 31), 250, blocks=4)
        y = x + 0.5
        for bad in (math.nan, complex(1.0, math.inf)):
            tx, rx = x.copy(), y.copy()
            (tx if side == "sent" else rx)[2, 1, 17] = bad
            (tx if side == "sent" else rx)[3, 0, 5] = bad
            want = "%s samples are not finite: 2 non-finite, the first at (block 2, " \
                   "symbol 17, polarization 1)" % side
            with pytest.raises(ReceiverError, match="^%s$" % re.escape(want)):
                air_bitwise(tx, rx, UNIFORM)

    def test_batched_equals_flat(self):
        rng = substream(7, 23)
        x = random_symbols(rng, 250, blocks=8)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + 0.8 * noise
        a = air_bitwise(x, y, UNIFORM)
        b = air_bitwise(x.reshape(1, 8, 2, 250), y.reshape(1, 8, 2, 250), UNIFORM)
        assert a.air_bits_per_4d == b.air_bits_per_4d


class TestAmpProbs:
    """amp_probs=None rates with the sent rails' level frequencies."""

    def test_known_composition(self):
        # rails drawn as 3 ones, 1 three over 4 rails
        x = np.tile(np.array([[1 + 1j], [1 + 3j]]), MIN_SYMBOLS_4D)
        y = x + 0.3 * (1.0 - 2.0j)
        got = air_bitwise(x, y, None)
        want = air_bitwise(x, y, [0.75, 0.25, 0.0, 0.0])
        assert got.air_bits_per_4d == want.air_bits_per_4d
        assert np.array_equal(got.equivocation_per_4d, want.equivocation_per_4d)

    def test_sums_to_one(self):
        # 4,004 rails: the frequencies are not exact binary fractions
        rng = np.random.default_rng(0)
        syms = rng.choice(RAILS, (2, 1001)) + 1j * rng.choice(RAILS, (2, 1001))
        counts = np.bincount(np.abs(np.concatenate([syms.real, syms.imag])).ravel()
                             .astype(int) // 2, minlength=4)
        got = air_bitwise(syms, syms, None)
        assert got.prior_entropy_bits_per_4d == air_bitwise(syms, syms, counts / 4004.0) \
            .prior_entropy_bits_per_4d


class TestBoundedMemory:
    """air_bitwise's per-rail grid match and chunked rating keep its bits."""

    def test_rail_match_equals_brute_force(self):
        # a wrong rail code would fail the grid check or move the bit labels
        rng = substream(7, 24)
        draws = rng.choice(QAM_POINTS, size=10_000)
        draws += 1e-8 * (rng.standard_normal(draws.size) + 1j * rng.standard_normal(draws.size))
        tx = np.concatenate([QAM_POINTS, draws, QAM_POINTS]).reshape(2, 5064)
        rx = tx + 0.9 * (rng.standard_normal(tx.shape) + 1j * rng.standard_normal(tx.shape))
        got = air_bitwise(tx, rx, UNIFORM).equivocation_per_4d
        assert np.abs(got - reference_equivocations(tx, rx, UNIFORM)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1000, 2048, 2049])
    def test_equivocations_do_not_depend_on_chunk(self, n, monkeypatch):
        rng = substream(7, 25)
        with np.errstate(divide="ignore"):
            logp = np.log(np.asarray([0.4, 0.35, 0.25, 0.0])[np.abs(_RAIL_VALUES)
                                                              .astype(int) // 2] / 2.0)
        codes = rng.choice(np.flatnonzero(np.isfinite(logp)), size=n)
        rx = _RAIL_VALUES[codes] + 0.7 * rng.standard_normal(n)
        rx[:50] = rng.choice([-4.0, -2.0, 0.0, 2.0, 4.0], size=50)  # between rail values: ties
        small = _bit_equivocations(codes, rx, logp, 1.3)
        monkeypatch.setattr(receiver, "_EQUIVOCATION_CHUNK", 1 << 16)
        whole = _bit_equivocations(codes, rx, logp, 1.3)
        assert np.array_equal(small.view(np.int64), whole.view(np.int64))

    def test_paper_point_memory_is_bounded(self):
        # a paper point, 200 blocks of 256 4D symbols: one N x 64 match and
        # 65,536-sample chunks peaked at 153 MiB
        rng = substream(7, 26)
        x = random_symbols(rng, 256, blocks=200)
        y = x + 0.8 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        tracemalloc.start()
        try:
            air_bitwise(x, y, UNIFORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


    def test_link_receive_memory_is_bounded_at_paper_geometry(self):
        # paper blocks and samples: 5 channels of 256 symbols at 16 samples per symbol.
        # Modulating every channel before the mux, and a new array per stage and span,
        # peaked at 9 composite fields; streamed and in place, with the link drawing
        # its noise into the span's idle spectrum buffer, the mux holds the peak, about
        # 4 (4.1 at these 16 blocks, where a caller's noise array made it 4.7)
        wdm = WdmConfig()
        rng = substream(7, 27)
        blocks, n = 16, 256
        tx = np.stack([random_symbols(rng, n, blocks=blocks) for _ in range(wdm.n_channels)])
        ase = (AmplifierParams(), lambda row, span: substream(7, 2, row, span))
        composite_bytes = tx[0].nbytes * wdm.sps
        tracemalloc.start()
        try:
            at_entry = tracemalloc.get_traced_memory()[0]
            y = link_receive(tx, wdm, FiberParams(n_spans=1), SsfmStepConfig(steps_per_span=10),
                             -10.0, ase)
            peak = tracemalloc.get_traced_memory()[1] - at_entry
        finally:
            tracemalloc.stop()
        assert y.shape == tx[0].shape and np.isfinite(y).all()
        assert peak <= 4.5 * composite_bytes, peak / composite_bytes


class TestLogsumexp:
    """Rated rail by rail with numpy's logaddexp, air_bitwise gives the brute-force
    64-point bit metric, reduced by scipy.special.logsumexp, to 1e-12 per 4D symbol."""

    @pytest.mark.parametrize("sigma2", [0.05, 1.0, 20.0])
    def test_matches_scipy_on_receiver_slices(self, sigma2):
        # 1,500 4D symbols are 6,000 rails: the rating crosses chunk boundaries
        rng = substream(23, 0)
        for amp in (UNIFORM, mb_fit(1.32).probs, [0.4, 0.35, 0.25, 0.0]):
            amps = rng.choice(np.asarray(LEVELS), size=(3, 2, 500, 2), p=amp)
            rails = amps * rng.choice([-1.0, 1.0], size=amps.shape)
            tx = rails[..., 0] + 1j * rails[..., 1]
            rx = tx + math.sqrt(sigma2 / 2) * (rng.standard_normal(tx.shape)
                                               + 1j * rng.standard_normal(tx.shape))
            # received on a decision boundary: rails tie exactly
            rx[0, 0, :100] = rng.choice([-4.0, -2.0, 0.0, 2.0, 4.0], size=100) \
                * rng.choice([1.0, 1j], size=100)
            got = air_bitwise(tx, rx, amp).equivocation_per_4d
            assert got.shape == (1500,)
            assert np.abs(got - reference_equivocations(tx, rx, amp)).max() <= 1e-12


class TestSpectralEfficiency:
    def test_plain_conversion(self):
        wdm = WdmConfig()
        assert abs(se_from_air(9.2, wdm) - 9.2 * 0.93) < 1e-12

    def test_rate_loss_subtracted(self):
        wdm = WdmConfig()
        assert abs(se_from_air(9.2, wdm, rate_loss_bits_4d=0.644) - (9.2 - 0.644) * 0.93) < 1e-12

    def test_time_fraction_applied(self):
        wdm = WdmConfig()
        assert abs(se_from_air(9.2, wdm, rate_loss_bits_4d=0.0,
                               time_fraction=256.0 / 258.0) - 9.2 * (256 / 258) * 0.93) < 1e-12

    def test_floor_at_zero(self):
        wdm = WdmConfig()
        assert se_from_air(9.2, wdm, rate_loss_bits_4d=10.0) == 0.0

    def test_bad_time_fraction(self):
        wdm = WdmConfig()
        with pytest.raises(ReceiverError):
            se_from_air(9.2, wdm, time_fraction=0.0)
        with pytest.raises(ReceiverError):
            se_from_air(9.2, wdm, time_fraction=1.5)
