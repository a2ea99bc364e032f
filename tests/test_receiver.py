"""Receiver chain and rate-estimator tests.

Oracles: closed-form matched-filter processing gain, the single-parameter
phase CRLB, exact noiseless rates, and direct arithmetic for the spectral
efficiency conversion.
"""

import math

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
    QAM_LABELS,
    QAM_POINTS,
    AirResult,
    ReceiverError,
    air_bitwise,
    cdc,
    constellation_priors,
    matched_filter_sample,
    mean_phase_comp,
    se_from_air,
)
from passel.receiver import _logsumexp
from passel.seeding import substream
from passel.shaping import LEVELS, mb_fit

RAILS = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)


def symbolwise_mi(tx_syms, rx_syms, priors):
    """Symbol-metric mutual information (bits/2D) under the same fitted Gaussian
    auxiliary channel as air_bitwise: a reference the bit-metric rate never exceeds."""
    from scipy.special import logsumexp
    points = QAM_POINTS
    tx = np.asarray(tx_syms, dtype=complex).ravel()
    rx = np.asarray(rx_syms, dtype=complex).ravel()
    sigma2 = np.mean(np.abs(rx - tx) ** 2)
    logp = np.log(priors)
    idx = np.abs(tx[:, None] - points[None, :]).argmin(axis=1)
    w = logp[None, :] - np.abs(rx[:, None] - points[None, :]) ** 2 / sigma2
    num = w[np.arange(rx.size), idx]
    return float((num - logsumexp(w, axis=1) - logp[idx]).mean()) / math.log(2.0)


def random_symbols(rng, n, blocks=None):
    shape = (2, n) if blocks is None else (blocks, 2, n)
    re = rng.choice(RAILS, size=shape)
    im = rng.choice(RAILS, size=shape)
    return re + 1j * im


class TestConstellation:
    def test_point_set(self):
        assert QAM_POINTS.shape == (64,)
        assert QAM_LABELS.shape == (64, 6)
        got = sorted((p.real, p.imag) for p in QAM_POINTS)
        want = sorted((a, b) for a in RAILS for b in RAILS)
        assert np.allclose(got, want)

    def test_labels_unique(self):
        codes = {tuple(row) for row in QAM_LABELS}
        assert len(codes) == 64

    def test_rail_gray_property(self):
        # walking the rail in value order flips exactly one label bit
        on_axis = [(QAM_POINTS[k].real, tuple(QAM_LABELS[k][:3]))
                   for k in range(64) if QAM_POINTS[k].imag == 1.0]
        on_axis.sort()
        for (_, a), (_, b) in zip(on_axis, on_axis[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_sign_bit_is_msb(self):
        for k in range(64):
            assert QAM_LABELS[k, 0] == (1 if QAM_POINTS[k].real < 0 else 0)
            assert QAM_LABELS[k, 3] == (1 if QAM_POINTS[k].imag < 0 else 0)

    def test_matches_loop_reference(self):
        # rail code = sign bit, then the Gray label of the level index
        rails = []
        for code in range(8):
            sign, gray = code >> 2, code & 3
            level = next(j for j in range(4) if j ^ (j >> 1) == gray)
            rails.append(((1 - 2 * sign) * LEVELS[level], [sign, gray >> 1, gray & 1]))
        assert not QAM_POINTS.flags.writeable and not QAM_LABELS.flags.writeable
        amp = np.array([0.4, 0.3, 0.2, 0.1])
        pri = constellation_priors(amp)
        for i, (vi, li) in enumerate(rails):
            for q, (vq, lq) in enumerate(rails):
                assert QAM_POINTS[8 * i + q] == complex(vi, vq)
                assert list(QAM_LABELS[8 * i + q]) == li + lq
                assert pri[8 * i + q] == (amp[LEVELS.index(abs(vi))] / 2.0) \
                    * (amp[LEVELS.index(abs(vq))] / 2.0)

    def test_uniform_priors(self):
        pri = constellation_priors(np.full(4, 0.25))
        assert np.allclose(pri, 1.0 / 64)

    def test_shaped_priors_product_form(self):
        amp = np.array([0.4, 0.3, 0.2, 0.1])
        pri = constellation_priors(amp)
        assert abs(pri.sum() - 1.0) < 1e-12
        k = np.argmin(np.abs(QAM_POINTS - (1 + 1j)))
        assert abs(pri[k] - (0.4 / 2) * (0.4 / 2)) < 1e-12
        k = np.argmin(np.abs(QAM_POINTS - (-7 + 3j)))
        assert abs(pri[k] - (0.1 / 2) * (0.3 / 2)) < 1e-12

    def test_prior_validation(self):
        with pytest.raises(ReceiverError):
            constellation_priors(np.array([0.5, 0.5, 0.2, -0.2]))
        with pytest.raises(ReceiverError):
            constellation_priors(np.full(4, 0.3))


class TestChainBackToBack:
    def test_matched_filter_recovers_symbols(self):
        rng = substream(7, 9)
        wdm = WdmConfig(n_channels=1, sps=8)
        x = random_symbols(rng, 512)
        field = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        y = matched_filter_sample(field, wdm)
        assert y.shape == x.shape
        assert np.abs(y - x).max() < 1e-9

    def test_cdc_inverts_dispersive_link(self):
        rng = substream(7, 10)
        wdm = WdmConfig(n_channels=1, sps=8)
        fiber = FiberParams(gamma_per_w_km=0.0, n_spans=4)
        amp = AmplifierParams(noise_on=False)
        x = random_symbols(rng, 1024)
        field = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        out = propagate_link(field, fiber, amp, SsfmStepConfig(steps_per_span=4))
        y = matched_filter_sample(cdc(out, fiber), wdm)
        assert np.abs(y - x).max() < 1e-6

    def test_batched_matches_single(self):
        rng = substream(7, 11)
        wdm = WdmConfig(n_channels=1, sps=4)
        xs = random_symbols(rng, 256, blocks=3)
        field = rrc_modulate(xs, wdm, launch_power_dbm=-1.0)
        y = matched_filter_sample(field, wdm)
        for b in range(3):
            single = rrc_modulate(xs[b], wdm, launch_power_dbm=-1.0)
            yb = matched_filter_sample(single, wdm)
            assert np.abs(y[b] - yb).max() < 1e-12

    def test_processing_gain_identity(self):
        # symbol SNR equals waveform SNR times the oversampling factor
        rng = substream(7, 12)
        wdm = WdmConfig(n_channels=1, sps=8)
        x = random_symbols(rng, 4096)
        field = rrc_modulate(x, wdm, launch_power_dbm=0.0)
        sig_p = float((np.abs(field.samples) ** 2).sum(axis=0).mean())
        noise = (rng.standard_normal(field.samples.shape)
                 + 1j * rng.standard_normal(field.samples.shape))
        sigma_w2 = sig_p / 100.0  # 20 dB waveform SNR
        noisy = FieldWaveform(field.samples + noise * math.sqrt(sigma_w2 / 2.0),
                              field.sample_rate_hz, symbol_scale=field.symbol_scale)
        y = matched_filter_sample(noisy, wdm)
        snr_sym = np.mean(np.abs(x) ** 2) / np.mean(np.abs(y - x) ** 2)
        snr_wave = (sig_p / 2.0) / sigma_w2  # per polarization
        gain_db = 10 * math.log10(snr_sym / snr_wave)
        assert abs(gain_db - 10 * math.log10(wdm.sps)) < 0.05

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
        pri = constellation_priors(np.full(4, 0.25))
        res = air_bitwise(x, x, pri)
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
        pri = constellation_priors(dist.probs)
        res = air_bitwise(x, x, pri)
        p = np.asarray(dist.probs)
        want = 4.0 * (-(p * np.log2(p)).sum() + 1.0)
        assert abs(res.prior_entropy_bits_per_4d - want) < 1e-9
        assert abs(res.air_bits_per_4d - want) < 1e-6

    def test_air_bounded_by_prior_entropy(self):
        rng = substream(7, 18)
        x = random_symbols(rng, 500, blocks=4)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + noise * 2.0
        pri = constellation_priors(np.full(4, 0.25))
        res = air_bitwise(x, y, pri)
        assert 0.0 < res.air_bits_per_4d < res.prior_entropy_bits_per_4d

    def test_air_monotone_in_snr(self):
        rng = substream(7, 19)
        x = random_symbols(rng, 500, blocks=4)
        pri = constellation_priors(np.full(4, 0.25))
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        prev = 0.0
        for scale in (2.0, 1.0, 0.5, 0.25):
            res = air_bitwise(x, x + noise * scale, pri)
            assert res.air_bits_per_4d > prev
            prev = res.air_bits_per_4d

    def test_bit_metric_at_most_symbol_metric(self):
        rng = substream(7, 20)
        x = random_symbols(rng, 1000, blocks=2)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + noise * 1.2
        pri = constellation_priors(np.full(4, 0.25))
        res = air_bitwise(x, y, pri)
        smd = symbolwise_mi(x, y, pri)
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
        pri = constellation_priors(np.full(4, 0.25))
        res = air_bitwise(x, y, pri, sigma2=sigma2)
        assert abs(res.air_bits_per_4d / 2.0 - 4.3849) < 0.05

    def test_fitted_variance(self):
        rng = substream(7, 22)
        x = random_symbols(rng, 800, blocks=2)
        y = x + (1.0 + 1.0j)
        pri = constellation_priors(np.full(4, 0.25))
        assert abs(air_bitwise(x, y, pri).noise_variance - 2.0) < 1e-12

    def test_sample_size_guard(self):
        x = np.full((2, MIN_SYMBOLS_4D), 1.0 + 1.0j)
        pri = constellation_priors(np.full(4, 0.25))
        with pytest.raises(ReceiverError):
            air_bitwise(x[:, 1:], x[:, 1:], pri)
        assert isinstance(air_bitwise(x, x, pri), AirResult)

    def test_off_grid_tx_rejected(self):
        x = np.full((2, 600), 1.5 + 0.5j)
        pri = constellation_priors(np.full(4, 0.25))
        with pytest.raises(ReceiverError):
            air_bitwise(x, x, pri)

    def test_batched_equals_flat(self):
        rng = substream(7, 23)
        x = random_symbols(rng, 250, blocks=8)
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        y = x + 0.8 * noise
        pri = constellation_priors(np.full(4, 0.25))
        a = air_bitwise(x, y, pri)
        b = air_bitwise(x.reshape(1, 8, 2, 250), y.reshape(1, 8, 2, 250), pri)
        assert a.air_bits_per_4d == b.air_bits_per_4d


class TestLogsumexp:
    """The receiver's numpy logsumexp gives scipy.special.logsumexp's bits."""

    @staticmethod
    def receiver_weights(rng, sigma2):
        # w as _bit_equivocations builds it, with the 7-level amplitude unused
        with np.errstate(divide="ignore"):
            logp = np.log(constellation_priors([0.4, 0.35, 0.25, 0.0]))
        tx = rng.choice(QAM_POINTS[np.isfinite(logp)], size=3000)
        rx = tx + math.sqrt(sigma2 / 2) * (rng.standard_normal(3000)
                                           + 1j * rng.standard_normal(3000))
        # rows on an axis: the points at +-1 on the other rail tie exactly
        rx[:200] = rng.choice([-5.0, -3.0, -1.0, 0.0, 1.0, 3.0, 5.0], size=200) \
            * rng.choice([1.0, 1j], size=200)
        w = logp[None, :] - np.abs(rx[:, None] - QAM_POINTS[None, :]) ** 2 / sigma2
        w[200:220] = -np.inf
        w[220:240, ::3] = -np.inf
        w[240:260] = 0.0
        return w

    @pytest.mark.parametrize("sigma2", [0.05, 1.0, 20.0])
    def test_matches_scipy_on_receiver_slices(self, sigma2):
        from scipy.special import logsumexp
        w = self.receiver_weights(substream(23, 0), sigma2)
        for j in range(QAM_LABELS.shape[1]):
            ones = QAM_LABELS[:, j].astype(bool)
            for part in (w[:, ones], w[:, ~ones]):
                got, want = _logsumexp(part, axis=1), logsumexp(part, axis=1)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        full = _logsumexp(w, axis=1)
        assert np.array_equal(full.view(np.int64), logsumexp(w, axis=1).view(np.int64))
        assert np.all(full[200:220] == -np.inf) and np.all(np.isfinite(full[220:]))


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
