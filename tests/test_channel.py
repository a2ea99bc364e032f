"""Channel tests against closed-form fiber/amplifier oracles."""

import math
import os
import threading
import traceback
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from passel.channel import (
    MAX_STEP_PHASE_RAD,
    AmplifierParams,
    ChannelError,
    FiberParams,
    FieldWaveform,
    SsfmStepConfig,
    StepSizeError,
    WdmConfig,
    dbm_to_watts,
    propagate_link,
    pulse_spectrum,
    rrc_modulate,
    standard_complex_noise,
    wdm_demux,
    wdm_mux,
)
from passel.channel import _CHUNK_SAMPLES, _FORK_SAMPLE_STEPS, _SIN_COEF, _Span
from passel.harness import (
    ExperimentConfig,
    desk_preset,
    fiber_for,
    link_wdm,
    metric_wdm,
    resolve_defaults,
    step_schedule,
    sweep,
)
from passel.seeding import substream

QAM_RAILS = np.array([-7, -5, -3, -1, 1, 3, 5, 7], dtype=float)


def random_symbols(rng, n, batch=()):
    re = rng.choice(QAM_RAILS, size=batch + (2, n))
    im = rng.choice(QAM_RAILS, size=batch + (2, n))
    return re + 1j * im


def power_w(samples):
    """Time-averaged total (x+y) power, per leading batch element."""
    return (np.abs(samples) ** 2).sum(axis=-2).mean(axis=-1)


def modulate(symbols, wdm, power_dbm):
    """rrc_modulate's waveform alone."""
    return rrc_modulate(symbols, wdm, power_dbm)[0]


def span_gain(fiber):
    """The EDFA's exact amplitude gain after each span."""
    return 10.0 ** (fiber.span_loss_db / 20.0)


def one_span(field, fiber, step_cfg):
    """One noiseless span of fiber through propagate_link, its EDFA gain divided out."""
    fiber = replace(fiber, n_spans=1)
    out = propagate_link(field, fiber, AmplifierParams(noise_on=False), step_cfg)
    return out.samples / span_gain(fiber)


def _rc_closed_form(f_over_rs, rolloff):
    af = np.abs(f_over_rs)
    out = np.zeros_like(af)
    out[af <= (1 - rolloff) / 2] = 1.0
    edge = (af > (1 - rolloff) / 2) & (af <= (1 + rolloff) / 2)
    out[edge] = 0.5 * (1 + np.cos(np.pi / rolloff * (af[edge] - (1 - rolloff) / 2)))
    return out


class TestPulse:
    def test_exact_mode_spectrum_matches_closed_form(self):
        wdm = WdmConfig(n_channels=1, sps=8)
        n = 512
        sym = np.zeros((2, n), dtype=complex)
        sym[0, n // 2] = 1.0
        up = np.zeros((2, n * wdm.sps), dtype=complex)
        up[..., ::wdm.sps] = sym
        spec = np.fft.fft(up[0] * 0 + np.fft.ifft(np.fft.fft(up, axis=-1)
                          * pulse_spectrum(wdm, n * wdm.sps), axis=-1)[0])
        f = np.fft.fftfreq(n * wdm.sps, d=1.0 / wdm.sps)
        want = np.sqrt(_rc_closed_form(f, wdm.rolloff))
        want *= np.abs(spec).max() / want.max()
        assert np.abs(np.abs(spec) - want).max() < 1e-3 * want.max()

    def test_launch_power_scaling(self):
        wdm = WdmConfig(n_channels=1, sps=4)
        rng = np.random.default_rng(0)
        wave = modulate(random_symbols(rng, 4096), wdm, 1.7)
        assert abs(power_w(wave.samples) - dbm_to_watts(1.7)) < 1e-15
        # batched blocks each hit the target individually, each with its own scale
        wave, scale = rrc_modulate(random_symbols(rng, 256, batch=(5,)), wdm, -2.0)
        assert np.allclose(power_w(wave.samples), dbm_to_watts(-2.0), rtol=1e-12)
        assert scale.shape == (5,)

    def test_back_to_back_symbols_survive_exact_cascade(self):
        wdm = WdmConfig(n_channels=1, sps=4)
        rng = np.random.default_rng(1)
        sym = random_symbols(rng, 256)
        wave, scale = rrc_modulate(sym, wdm, 0.0)
        h = pulse_spectrum(wdm, wave.n_samples)
        filtered = np.fft.ifft(np.fft.fft(wave.samples, axis=-1) * h, axis=-1)
        got = filtered[..., ::wdm.sps] / scale
        assert np.abs(got - sym).max() / np.abs(sym).max() < 1e-9

    def test_modulate_is_deterministic(self):
        wdm = WdmConfig(n_channels=1, sps=4)
        sym = random_symbols(np.random.default_rng(2), 128)
        (a, scale_a), (b, scale_b) = rrc_modulate(sym, wdm, 0.0), rrc_modulate(sym, wdm, 0.0)
        assert np.array_equal(a.samples, b.samples) and scale_a == scale_b


class TestWdmMuxDemux:
    def setup_method(self):
        self.wdm = WdmConfig(n_channels=3, sps=8)
        rng = np.random.default_rng(3)
        self.blocks = [random_symbols(rng, 128) for _ in range(3)]
        self.waves = [modulate(s, self.wdm, 0.0) for s in self.blocks]

    def test_center_channel_recovered(self):
        composite = wdm_mux(self.waves, self.wdm)
        center = wdm_demux(composite, self.wdm, self.wdm.center_channel)
        ref = self.waves[self.wdm.center_channel]
        err = np.linalg.norm(center.samples - ref.samples) / np.linalg.norm(ref.samples)
        assert err < 1e-4

    def test_all_channels_recovered(self):
        composite = wdm_mux(self.waves, self.wdm)
        for k in range(3):
            got = wdm_demux(composite, self.wdm, k)
            err = np.linalg.norm(got.samples - self.waves[k].samples) \
                / np.linalg.norm(self.waves[k].samples)
            assert err < 1e-4

    def test_composite_power_is_sum_of_channel_powers(self):
        composite = wdm_mux(self.waves, self.wdm)
        total = sum(power_w(w.samples) for w in self.waves)
        assert abs(power_w(composite.samples) - total) < 1e-3 * total

    def test_grid_validation(self):
        with pytest.raises(ChannelError):
            WdmConfig(n_channels=4)
        with pytest.raises(ChannelError):
            WdmConfig(n_channels=5, sps=2)  # 93 GHz < 5 x 50 GHz
        with pytest.raises(ChannelError):
            WdmConfig(spacing_ghz=40.0)  # below the symbol rate


class TestSsfmOracles:
    def test_constant_envelope_phase_matches_closed_form(self):
        # beta2 = 0: pure self-phase rotation with loss, phi = (8/9) gamma P Leff
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=1)
        p_w = 0.01
        samples = np.full((2, 256), math.sqrt(p_w / 2), dtype=complex)
        field = FieldWaveform(samples, sample_rate_hz=100e9)
        out = one_span(field, fiber, SsfmStepConfig(steps_per_span=1000))
        alpha = fiber.alpha_per_m
        leff = (1 - math.exp(-alpha * fiber.span_length_m)) / alpha
        want = (8 / 9) * fiber.gamma_per_w_m * p_w * leff
        got = np.angle(out / field.samples)
        assert np.abs(got - want).max() < 1e-6 * want
        # amplitude decays by exactly half the span loss
        ratio = np.abs(out / field.samples)
        assert np.allclose(ratio, math.exp(-alpha * fiber.span_length_m / 2), rtol=1e-12)

    def test_spm_phase_exact_even_with_few_steps(self):
        # loss-integrated nonlinear step keeps CW rotation exact at any step count
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=1)
        samples = np.full((2, 64), math.sqrt(0.001), dtype=complex)
        field = FieldWaveform(samples, sample_rate_hz=10e9)
        alpha = fiber.alpha_per_m
        leff = (1 - math.exp(-alpha * fiber.span_length_m)) / alpha
        want = (8 / 9) * fiber.gamma_per_w_m * 0.002 * leff
        for steps in (1, 7, 100):
            out = one_span(field, fiber, SsfmStepConfig(steps_per_span=steps))
            got = float(np.angle(out[0, 0] / field.samples[0, 0]))
            assert abs(got - want) < 1e-9

    def test_gaussian_dispersion_broadening(self):
        # gamma = 0, alpha = 0: RMS width grows by sqrt(1 + (beta2 L / T0^2)^2)
        fiber = FiberParams(gamma_per_w_km=0.0, alpha_db_per_km=0.0, n_spans=1)
        t0 = 20e-12
        fs = 2e12
        n = 4096
        t = (np.arange(n) - n / 2) / fs
        pulse = np.exp(-t ** 2 / (2 * t0 ** 2))
        samples = np.stack([pulse, np.zeros_like(pulse)]).astype(complex)
        out = one_span(FieldWaveform(samples, fs), fiber, SsfmStepConfig(steps_per_span=4))

        def rms_width(x):
            p = np.abs(x) ** 2
            mean = np.sum(t * p) / np.sum(p)
            return math.sqrt(np.sum((t - mean) ** 2 * p) / np.sum(p))

        factor = rms_width(out[0]) / rms_width(samples[0])
        want = math.sqrt(1 + (fiber.beta2_s2_per_m * fiber.span_length_m / t0 ** 2) ** 2)
        assert abs(factor - want) < 1e-3 * want

    def test_power_conserved_up_to_span_loss(self):
        fiber = FiberParams(n_spans=1)
        rng = np.random.default_rng(4)
        wdm = WdmConfig(n_channels=1, sps=4)
        wave = modulate(random_symbols(rng, 256), wdm, 3.0)
        out = one_span(wave, fiber, SsfmStepConfig(steps_per_span=50))
        want = power_w(wave.samples) * 10 ** (-fiber.span_loss_db / 10)
        assert abs(power_w(out) - want) < 1e-12 * want

    def test_step_sanity_check_raises(self):
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=1)
        field = FieldWaveform(np.full((2, 32), 1.0, dtype=complex), 10e9)  # 2 W total
        with pytest.raises(StepSizeError):
            one_span(field, fiber, SsfmStepConfig(steps_per_span=1))

    def test_default_step_count_scales_with_span(self):
        cfg = SsfmStepConfig()
        assert cfg.resolve(FiberParams(span_length_km=100.0), 1e-3) == 1000
        assert cfg.resolve(FiberParams(span_length_km=80.0), 1e-3) == 800

    def test_batched_propagation_matches_per_block(self):
        fiber = FiberParams(n_spans=1)
        wdm = WdmConfig(n_channels=1, sps=4)
        rng = np.random.default_rng(5)
        sym = random_symbols(rng, 64, batch=(3,))
        wave = modulate(sym, wdm, 1.0)
        step = SsfmStepConfig(steps_per_span=40)
        batch_out = one_span(wave, fiber, step)
        for b in range(3):
            single = FieldWaveform(wave.samples[b], wave.sample_rate_hz)
            one = one_span(single, fiber, step)
            assert np.allclose(batch_out[b], one, rtol=0, atol=1e-15)


class TestStepSchedule:
    def test_no_allowance_gives_equal_steps_exactly(self):
        fiber = FiberParams(span_length_km=80.0)
        for steps in (1, 7, 100, 200, 1000):
            lengths = SsfmStepConfig(steps_per_span=steps).step_lengths(fiber)
            assert lengths == [fiber.span_length_m / steps] * steps
        assert SsfmStepConfig().step_lengths(fiber) == [100.0] * 800

    @pytest.mark.parametrize("alpha_db_per_km", [0.2, 0.0])
    def test_steps_hold_the_phase_at_the_allowance(self, alpha_db_per_km):
        fiber = FiberParams(alpha_db_per_km=alpha_db_per_km)
        step = SsfmStepConfig(steps_per_span=50, peak_allowance_w=0.3)
        lengths = np.array(step.step_lengths(fiber))
        cap = fiber.span_length_m / 50
        assert lengths.max() <= cap * (1 + 1e-12) and lengths[0] < cap / 4
        assert abs(lengths.sum() - fiber.span_length_m) <= 1e-9 * fiber.span_length_m
        # short where the power is high; the last step may take what is left
        assert np.all(np.diff(lengths[:-1]) >= -1e-9 * cap)
        # phase of each step at the span-input allowance, decaying with the loss
        alpha = fiber.alpha_per_m
        z = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
        if alpha:
            integral = (np.exp(-alpha * z) - np.exp(-alpha * (z + lengths))) / alpha
        else:
            integral = lengths
        phase = (8.0 / 9.0) * fiber.gamma_per_w_m * 0.3 * integral
        assert phase.max() <= 0.95 * MAX_STEP_PHASE_RAD * (1 + 1e-9)
        assert len(lengths) > 50

    def test_phase_limited_up_to_the_span_end(self):
        # lossless, one step per span: every step is phase-limited
        fiber = FiberParams(alpha_db_per_km=0.0, span_length_km=10.0)
        lengths = SsfmStepConfig(steps_per_span=1, peak_allowance_w=1.0).step_lengths(fiber)
        assert len(lengths) == math.ceil(
            (8.0 / 9.0) * fiber.gamma_per_w_m * fiber.span_length_m / 0.0475)
        assert abs(sum(lengths) - fiber.span_length_m) <= 1e-9 * fiber.span_length_m

    @pytest.mark.parametrize("allowance_w", [math.inf, math.nan])
    def test_non_finite_allowance_is_refused(self, allowance_w):
        # an infinite allowance would append zero-length steps forever
        with pytest.raises(ChannelError, match="peak allowance must be finite"):
            SsfmStepConfig(peak_allowance_w=allowance_w)

    def test_resolve_is_the_schedule_length_and_the_resolved_default(self):
        cfg = desk_preset()
        fiber = fiber_for(cfg)
        step = step_schedule(cfg, max(cfg.powers_dbm), link_wdm(cfg), cfg.steps_per_span)
        n = len(step.step_lengths(fiber))
        assert step.resolve(fiber, 0.0) == n == resolve_defaults(cfg)["link_steps_per_span"]
        assert cfg.steps_per_span < n < 2 * cfg.steps_per_span
        # a higher peak than the allowance asks for more steps
        assert step.resolve(fiber, 2 * step.peak_allowance_w) > n


def reference_span(field, fiber, step_cfg=None, lengths=None):
    """Reference span: the plain split-step loop with np.fft, np.exp and new arrays.

    It runs over the step lengths of step_cfg's schedule, or over explicit
    lengths, and applies both half-steps of every step on their own.
    """
    step_cfg = step_cfg or SsfmStepConfig()
    lengths = step_cfg.step_lengths(fiber) if lengths is None else lengths
    bound = MAX_STEP_PHASE_RAD
    alpha = fiber.alpha_per_m
    w2 = (2.0 * np.pi * np.fft.fftfreq(field.n_samples, d=1.0 / field.sample_rate_hz)) ** 2
    spec = np.fft.fft(field.samples, axis=-1)
    for step, dz in enumerate(lengths):
        half = np.exp((0.5j * fiber.beta2_s2_per_m * w2 - 0.5 * alpha) * (dz / 2.0))
        h_eff = dz if alpha == 0.0 else 2.0 * math.sinh(alpha * dz / 2.0) / alpha
        gnl = (8.0 / 9.0) * fiber.gamma_per_w_m * h_eff
        cur = np.fft.ifft(spec * half, axis=-1)
        power = (np.abs(cur) ** 2).sum(axis=-2)
        peaks = power.reshape(-1, field.n_samples).max(axis=1)
        if gnl * peaks.max() > bound:
            block = int(np.argmax(gnl * peaks > bound))
            raise StepSizeError(block, step, dz, gnl * peaks[block], peaks[block], bound,
                                step_cfg.peak_allowance_w)
        cur *= np.exp(1j * gnl * power)[..., None, :]
        spec = np.fft.fft(cur, axis=-1) * half
    return np.fft.ifft(spec, axis=-1)


def uniform_span_before_schedules(field, fiber, steps):
    """The uniform kernel as it was before step schedules, in plain numpy: one
    half-step table, full = half * half between steps, and a per-row guard.

    It repeats the kernel's operations in the kernel's order, so the two
    agree bit for bit: re^2 and im^2 summed over polarizations, then over re
    and im; the four-term Horner series of sin(phi)/phi in phi^2; and the
    lowest row over the bound named with its phase and its phase / |gnl|.
    """
    dz = fiber.span_length_m / steps
    alpha = fiber.alpha_per_m
    h_eff = dz if alpha == 0.0 else 2.0 * math.sinh(alpha * dz / 2.0) / alpha
    w2 = (2.0 * np.pi * np.fft.fftfreq(field.n_samples, d=1.0 / field.sample_rate_hz)) ** 2
    half = np.exp((0.5j * fiber.beta2_s2_per_m * w2 - 0.5 * alpha) * (dz / 2.0))
    full = half * half
    gnl = (8.0 / 9.0) * fiber.gamma_per_w_m * h_eff
    coef = [(-1) ** k / math.factorial(2 * k + 1) * gnl ** (2 * k + 1) for k in range(4)]
    t_len = field.n_samples
    spec = np.fft.fft(field.samples.reshape(-1, 2, t_len), axis=-1)
    rows = max(1, min(spec.shape[0], _CHUNK_SAMPLES // (2 * t_len)))
    for lo in range(0, spec.shape[0], rows):
        buf = spec[lo:lo + rows]
        buf *= half
        for step in range(steps):
            np.fft.ifft(buf, axis=-1, out=buf)
            re2, im2 = np.square(buf.real), np.square(buf.imag)
            power = (re2[:, 0] + re2[:, 1]) + (im2[:, 0] + im2[:, 1])
            phase = abs(gnl) * power.max(axis=1)
            if np.any(phase > MAX_STEP_PHASE_RAD):
                row = int(np.argmax(phase > MAX_STEP_PHASE_RAD))
                raise StepSizeError(lo + row, step, dz, float(phase[row]),
                                    float(phase[row] / abs(gnl)), MAX_STEP_PHASE_RAD, 0.0)
            u = power * power
            sin = (((u * coef[3] + coef[2]) * u + coef[1]) * u + coef[0]) * power
            rot = np.empty(power.shape, dtype=complex)
            rot.real, rot.imag = np.sqrt(1.0 - sin * sin), sin
            buf *= rot[:, None, :]
            np.fft.fft(buf, axis=-1, out=buf)
            buf *= full if step < steps - 1 else half
    return np.fft.ifft(spec, axis=-1).reshape(field.samples.shape)


def desk_composite(rng, power_dbm, n_blocks=4):
    wdm = link_wdm(desk_preset())
    return wdm_mux([modulate(random_symbols(rng, 64, batch=(n_blocks,)), wdm, power_dbm)
                    for _ in range(wdm.n_channels)], wdm)


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestSsfmKernel:
    """The chunked, series-rotation kernel against the plain reference loop."""

    def test_uniform_schedule_bit_identical_to_kernel_before_schedules(self):
        # no allowance: the link of 200 steps/span and the metric are unchanged, bit for bit
        # one noiseless span of propagate_link: the kernel's output times the EDFA gain
        cfg = desk_preset()
        fiber = replace(fiber_for(cfg), n_spans=1)
        quiet = AmplifierParams(noise_on=False)
        field = desk_composite(np.random.default_rng(21), 4.0, n_blocks=18)
        got = propagate_link(field, fiber, quiet, SsfmStepConfig(steps_per_span=200))
        want = uniform_span_before_schedules(field, fiber, 200) * span_gain(fiber)
        assert np.array_equal(got.samples, want)
        batch = modulate(random_symbols(np.random.default_rng(22), 64, batch=(16,)),
                         metric_wdm(cfg), 2.0)
        step = step_schedule(cfg, 2.0, metric_wdm(cfg), cfg.metric_steps_per_span)
        got = propagate_link(batch, fiber, quiet, step)
        want = uniform_span_before_schedules(batch, fiber, cfg.metric_steps_per_span)
        assert np.array_equal(got.samples, want * span_gain(fiber))

    def test_matches_reference_on_desk_link_composite(self):
        # 18 blocks of 2 x 512 samples: one full chunk of blocks and a partial one
        cfg = desk_preset()
        field = desk_composite(np.random.default_rng(21), 4.0, n_blocks=18)
        step = SsfmStepConfig(steps_per_span=200)
        got = one_span(field, fiber_for(cfg), step)
        want = reference_span(field, fiber_for(cfg), step)
        assert relative_error(got, want) <= 1e-12

    def test_nonuniform_schedule_matches_reference_over_its_step_lengths(self):
        cfg = desk_preset()
        fiber = fiber_for(cfg)
        step = step_schedule(cfg, 4.0, link_wdm(cfg), cfg.steps_per_span)
        lengths = step.step_lengths(fiber)
        assert len(set(lengths)) > 10  # phase-limited steps, then the capped tail
        field = desk_composite(np.random.default_rng(21), 4.0, n_blocks=18)
        got = one_span(field, fiber, step)
        want = reference_span(field, fiber, lengths=lengths)
        assert relative_error(got, want) <= 1e-12

    def test_matches_reference_on_desk_metric_batch(self):
        cfg = desk_preset()
        field = modulate(random_symbols(np.random.default_rng(22), 64, batch=(16,)),
                         metric_wdm(cfg), 2.0)
        step = step_schedule(cfg, 2.0, metric_wdm(cfg), cfg.metric_steps_per_span)
        got = one_span(field, fiber_for(cfg), step)
        want = reference_span(field, fiber_for(cfg), step)
        assert relative_error(got, want) <= 1e-12

    def test_block_result_independent_of_its_batch(self):
        # a louder block raises the batch's largest phase; 18 blocks span two chunks
        field = desk_composite(np.random.default_rng(28), 2.0, n_blocks=18)
        field.samples[17] *= 1.5
        cfg = desk_preset()
        step = step_schedule(cfg, 2.0, link_wdm(cfg), cfg.steps_per_span)
        batch = one_span(field, fiber_for(cfg), step)
        for b in (0, 16, 17):
            one = FieldWaveform(field.samples[b], field.sample_rate_hz)
            assert np.array_equal(one_span(one, fiber_for(cfg), step), batch[b])

    def test_quiet_block_same_alone_and_beside_a_loud_block(self):
        # the guard judges each block by its own peak: a loud block beside a
        # quiet one changes neither the quiet block's output nor its verdict
        fiber = FiberParams(n_spans=1)
        step = SsfmStepConfig(steps_per_span=100)
        samples = desk_composite(np.random.default_rng(29), 0.0, n_blocks=1).samples
        quiet = FieldWaveform(samples, 100e9)
        alone = one_span(quiet, fiber, step)[0]
        for gain, fails in ((2.0, False), (8.0, True)):
            pair = FieldWaveform(np.concatenate([samples, samples * gain]), 100e9)
            try:
                beside = one_span(pair, fiber, step)[0]
            except StepSizeError as exc:
                assert fails and exc.args[0] == 1  # the loud block, not the quiet one
            else:
                assert not fails and np.array_equal(beside, alone)

    @pytest.mark.parametrize("margin", [1.0 - 1e-6, 1.0 + 1e-6])
    def test_step_guard_agrees_with_reference(self, margin):
        # beta2 = 0: power only decays, so the first step has the largest phase,
        # gnl * max|A|^2 * exp(-alpha dz / 2)
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=1)
        step = SsfmStepConfig(steps_per_span=100)
        samples = desk_composite(np.random.default_rng(24), 0.0).samples
        dz = fiber.span_length_m / 100
        alpha = fiber.alpha_per_m
        gnl = (8.0 / 9.0) * fiber.gamma_per_w_m * 2.0 * math.sinh(alpha * dz / 2.0) / alpha
        phase = gnl * float((np.abs(samples) ** 2).sum(axis=-2).max()) * math.exp(-alpha * dz / 2)
        field = FieldWaveform(samples * math.sqrt(margin * MAX_STEP_PHASE_RAD / phase), 100e9)
        outcomes = []
        for span in (one_span, reference_span):
            try:
                span(field, fiber, step)
                outcomes.append(False)
            except StepSizeError:
                outcomes.append(True)
        assert outcomes == [margin > 1.0] * 2

    def test_rotation_within_4_ulp_up_to_the_step_bound(self):
        rng = np.random.default_rng(25)
        # the fixed four-term series, from tiny phases up to the bound
        for top in (1e-7, 3.3e-4, 9e-3, MAX_STEP_PHASE_RAD):
            phi = np.concatenate([rng.uniform(0.0, top, 50_000), [0.0, top]])
            got = np.empty(phi.size, dtype=complex)
            _Span._rotation(phi, _SIN_COEF, np.empty(phi.size), np.empty(phi.size),
                            got.imag, got.real)
            want = np.exp(1j * phi)
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                assert np.all(np.abs(g - w) <= 4 * np.spacing(np.abs(w))), top

    def test_input_field_left_unchanged(self):
        field = desk_composite(np.random.default_rng(27), 0.0, n_blocks=2)
        before = field.samples.copy()
        fiber = FiberParams(n_spans=2, span_length_km=50.0)
        step = SsfmStepConfig(steps_per_span=20)

        def noise(span):
            return standard_complex_noise(substream(5, 2, span), field.samples.shape)

        propagate_link(field, fiber, AmplifierParams(), step, unit_noise_for_span=noise)
        assert np.array_equal(field.samples, before)


    def test_step_error_names_block_span_and_step(self):
        # beta2 = 0 and no noise: every span sees the launch peaks again
        fiber = FiberParams(beta2_ps2_per_km=0.0, n_spans=2)
        samples = desk_composite(np.random.default_rng(30), 0.0, n_blocks=3).samples
        samples[2] *= 8.0
        step = SsfmStepConfig(steps_per_span=100, peak_allowance_w=0.01)
        with pytest.raises(StepSizeError) as info:
            propagate_link(FieldWaveform(samples, 100e9), fiber,
                           AmplifierParams(noise_on=False), step)
        exc = info.value
        block, index, step_m, phase, peak, bound, allowance = exc.args
        assert (block, exc.span, index, bound, allowance) == (2, 0, 0, 0.05, 0.01)
        assert step_m == step.step_lengths(fiber)[0] and phase > bound
        assert str(exc).startswith("block 2, span 0, step 0 (%.6g m): " % step_m)
        assert "peak %.4g W against a 0.01 W step allowance" % peak in str(exc)


class TestEdfa:
    """The EDFA after each span, through a one-span link that leaves the field
    as it is apart from the span loss: no dispersion, no nonlinearity."""

    fiber = FiberParams(beta2_ps2_per_km=0.0, gamma_per_w_km=0.0, n_spans=1)
    step = SsfmStepConfig(steps_per_span=1)

    def test_pure_gain_when_noise_off(self):
        field = FieldWaveform(np.ones((2, 16), dtype=complex), 1e9)
        out = propagate_link(field, self.fiber, AmplifierParams(noise_on=False), self.step)
        assert self.fiber.span_loss_db == 20.0
        want = uniform_span_before_schedules(field, self.fiber, 1) * 10.0
        assert np.array_equal(out.samples, want)
        assert np.allclose(out.samples, 1.0, rtol=0, atol=1e-12)

    def ase(self, amp, fs, seed):
        """The ASE of one span on a zero field, which the span leaves at zero."""
        field = FieldWaveform(np.zeros((2, 500_000), dtype=complex), fs)
        noise = standard_complex_noise(np.random.default_rng(seed), field.samples.shape)
        return propagate_link(field, self.fiber, amp, self.step, lambda span: noise).samples

    def test_ase_variance_matches_formula(self):
        fs = 100e9
        out = self.ase(AmplifierParams(noise_figure_db=5.0), fs, 6)
        want = (10 ** 2 - 1) * 6.62607015e-34 * 193.41e12 * (10 ** 0.5 / 2) * fs
        for pol in range(2):
            got = np.mean(np.abs(out[pol]) ** 2)
            assert abs(got - want) < 0.01 * want

    def test_ase_is_circular_gaussian(self):
        noise = self.ase(AmplifierParams(noise_figure_db=5.0), 50e9, 7)[0]
        assert stats.jarque_bera(noise.real).pvalue > 0.01
        assert stats.jarque_bera(noise.imag).pvalue > 0.01
        corr = np.corrcoef(noise.real, noise.imag)[0, 1]
        assert abs(corr) < 5e-3
        assert abs(np.var(noise.real) / np.var(noise.imag) - 1) < 0.02

    def test_noise_requires_source(self):
        field = FieldWaveform(np.zeros((2, 8), dtype=complex), 1e9)
        with pytest.raises(ChannelError, match="no per-span noise source"):
            propagate_link(field, self.fiber, AmplifierParams(), self.step)
        with pytest.raises(ChannelError, match="unit_noise shape mismatch"):
            propagate_link(field, self.fiber, AmplifierParams(), self.step,
                           lambda span: np.zeros((2, 4), dtype=complex))

    def test_missing_source_raises_before_any_split_step(self, monkeypatch):
        def no_steps(*args, **kwargs):
            raise AssertionError("a split step ran")
        monkeypatch.setattr(_Span, "_chunk", no_steps)
        field = FieldWaveform(np.ones((2, 8), dtype=complex), 1e9)
        with pytest.raises(ChannelError, match="no per-span noise source"):
            propagate_link(field, FiberParams(n_spans=3), AmplifierParams(), self.step)
        # a link with no spans needs no source and returns its input
        out = propagate_link(field, FiberParams(n_spans=0), AmplifierParams(), self.step)
        assert np.array_equal(out.samples, field.samples)
        with pytest.raises(AssertionError, match="a split step ran"):
            propagate_link(field, self.fiber, AmplifierParams(noise_on=False), self.step)

    def test_wrong_noise_shape_raises_before_any_split_step(self, monkeypatch):
        # each span's noise is drawn before its steps, so the loud field, which would
        # fail its first step, never reaches one
        calls = []
        chunk = _Span._chunk

        def counted(*args):
            calls.append(args)
            chunk(*args)
        monkeypatch.setattr(_Span, "_chunk", counted)
        field = FieldWaveform(np.ones((2, 8), dtype=complex), 1e9)
        with pytest.raises(ChannelError, match="unit_noise shape mismatch"):
            propagate_link(field, FiberParams(n_spans=2), AmplifierParams(),
                           SsfmStepConfig(steps_per_span=1),
                           lambda span: np.zeros((2, 4), dtype=complex))
        assert calls == []

    def test_quantum_limit_validated(self):
        with pytest.raises(ChannelError):
            AmplifierParams(noise_figure_db=2.0)
        AmplifierParams(noise_figure_db=2.0, noise_on=False)  # fine when off


class TestLink:
    def test_zero_spans_identity(self):
        field = FieldWaveform(np.ones((2, 32), dtype=complex), 1e9)
        out = propagate_link(field, FiberParams(n_spans=0), AmplifierParams(),
                             SsfmStepConfig())
        assert np.array_equal(out.samples, field.samples)

    def test_gain_exactly_compensates_loss(self):
        fiber = FiberParams(n_spans=3)
        wdm = WdmConfig(n_channels=1, sps=4)
        wave = modulate(random_symbols(np.random.default_rng(8), 128), wdm, 0.0)
        out = propagate_link(wave, fiber, AmplifierParams(noise_on=False),
                             SsfmStepConfig(steps_per_span=25))
        want = power_w(wave.samples)
        assert abs(power_w(out.samples) - want) < 1e-9 * want

    def test_noise_source_required(self):
        field = FieldWaveform(np.ones((2, 32), dtype=complex) * 1e-3, 10e9)
        with pytest.raises(ChannelError):
            propagate_link(field, FiberParams(n_spans=1), AmplifierParams(),
                           SsfmStepConfig(steps_per_span=10))

    def test_link_deterministic_given_substreams(self):
        fiber = FiberParams(n_spans=2)
        wdm = WdmConfig(n_channels=1, sps=4)
        wave = modulate(random_symbols(np.random.default_rng(9), 64), wdm, 0.0)

        def noise(span):
            rng = substream(123, 2, 0, span)
            return standard_complex_noise(rng, wave.samples.shape)

        a = propagate_link(wave, fiber, AmplifierParams(), SsfmStepConfig(steps_per_span=20),
                           unit_noise_for_span=noise)
        b = propagate_link(wave, fiber, AmplifierParams(),
                           SsfmStepConfig(steps_per_span=20), unit_noise_for_span=noise)
        assert np.array_equal(a.samples, b.samples)



def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_nothing_left(fds):
    """No child process is left to reap and no descriptor stays open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


def frames(exc):
    """The function names of exc's traceback, outermost first."""
    return [f.name for f in traceback.extract_tb(exc.__traceback__)]


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir("/proc/self/fd")),
                    reason="the forked link needs os.fork; the checks read /proc/self/fd")
class TestForkedLink:
    """propagate_link on forked shares of the rows against the serial chunk loop."""

    # desk-link blocks of 2 x 512 samples run in chunks of 16 rows; over 200 steps,
    # 100, 33 and 17 rows hold three shares' work, 12 rows two and 4 rows none
    @pytest.mark.parametrize("n_blocks", [100, 33, 17, 12, 4])
    def test_bit_identical_to_serial_chunk_loop(self, monkeypatch, n_blocks):
        fiber = FiberParams(n_spans=1)
        field = desk_composite(np.random.default_rng(30), 2.0, n_blocks=n_blocks)
        assert field.n_samples == 512
        want = uniform_span_before_schedules(field, fiber, 200) * span_gain(fiber)
        sample_steps = n_blocks * 1024 * 200
        fds = open_fds()
        forks = count_forks(monkeypatch)
        for processes in (2, 3):
            got = propagate_link(field, fiber, AmplifierParams(noise_on=False),
                                 SsfmStepConfig(steps_per_span=200), processes=processes)
            assert np.array_equal(got.samples, want)
            assert_nothing_left(fds)
        # a child per share past the first, at a share per _FORK_SAMPLE_STEPS
        assert len(forks) == sum(max(1, min(p, sample_steps // _FORK_SAMPLE_STEPS)) - 1
                                 for p in (2, 3))

    def test_noisy_scheduled_link_bit_identical_to_serial(self, monkeypatch):
        # the spans meet in the shared mapping; the ASE is drawn and added by the parent
        forks = count_forks(monkeypatch)
        cfg = desk_preset()
        fiber = replace(fiber_for(cfg), n_spans=2)
        field = desk_composite(np.random.default_rng(31), 4.0, n_blocks=33)

        def noise(span):
            return standard_complex_noise(substream(7, 2, 0, span), field.samples.shape)

        step = step_schedule(cfg, 4.0, link_wdm(cfg), cfg.steps_per_span)
        links = [propagate_link(field, fiber, AmplifierParams(), step,
                                noise, processes=p).samples for p in (1, 2)]
        assert np.array_equal(links[0], links[1])
        assert len(forks) == 1

    @pytest.mark.parametrize("loud", [(20,), (3, 20), (5, 9)])
    def test_step_error_is_the_serial_one(self, monkeypatch, loud):
        # 33 rows in two shares, the parent's rows 0..15 and the child's 16..32, or in
        # three, 0..10, 11..21 and 22..32; rows 5 and 9 share a chunk, and both are over
        # the bound at step 0
        fiber = FiberParams(n_spans=2)
        field = desk_composite(np.random.default_rng(32), 0.0, n_blocks=33)
        for b, gain in zip(loud, (8.0, 12.0)):  # the child's block trips first
            field.samples[b] *= gain
        fds = open_fds()
        forks = count_forks(monkeypatch)
        errors = []
        for processes in (1, 2, 3):
            with pytest.raises(StepSizeError) as info:
                propagate_link(field, fiber, AmplifierParams(noise_on=False),
                               SsfmStepConfig(steps_per_span=100), processes=processes)
            errors.append((info.value.args, info.value.span, str(info.value),
                           frames(info.value)))
            assert_nothing_left(fds)
        assert len(forks) == 3  # one child at two processes, two at three
        assert errors == [errors[0]] * 3
        assert errors[0][3][-4:] == ["propagate_link", "__call__", "_steps", "_chunk"]
        assert errors[0][0][0] == loud[0]  # the lowest loud block's
        with pytest.raises(StepSizeError) as info:  # span 0 under a per-row guard
            uniform_span_before_schedules(field, fiber, 100)
        assert errors[0][:2] == (info.value.args, 0)

    @pytest.mark.parametrize("overflow", [False, True], ids=["late_trip", "overflow_above"])
    def test_step_error_names_the_lowest_block_over_the_bound(self, monkeypatch, overflow):
        # rows 48..63 share a serial chunk. Row 50 trips it at step 0, and row 49 starts
        # at 0.98 of the bound and goes over it at step 3; or, under overflow="raise",
        # row 49 is over the bound at step 0 and row 50 overflows numpy's square before
        # the chunk's guard runs. Two shares cut the rows at 50, three at 33 and 66: the
        # lowest block over the bound wins at every count
        fiber = FiberParams(n_spans=2, alpha_db_per_km=0.0)
        field = desk_composite(np.random.default_rng(35), -10.0, n_blocks=100)
        if overflow:
            field.samples[49] *= 1e3
            field.samples[50, 0, 7] = 1e200
        else:
            gnl = 8.0 / 9.0 * fiber.gamma_per_w_m * 5e3  # a 5 km step
            peak = (np.abs(field.samples[8]) ** 2).sum(axis=0).max()
            field.samples[49] = field.samples[8] * math.sqrt(0.98 * MAX_STEP_PHASE_RAD
                                                             / (gnl * peak))
            field.samples[50] *= 10.0
        fds = open_fds()
        forks = count_forks(monkeypatch)
        errors = []
        for processes in (1, 2, 3):
            with np.errstate(over="raise" if overflow else "warn"), \
                    pytest.raises(StepSizeError) as info:
                propagate_link(field, fiber, AmplifierParams(noise_on=False),
                               SsfmStepConfig(steps_per_span=20), processes=processes)
            errors.append((info.value.args, info.value.span, str(info.value),
                           frames(info.value)))
            assert_nothing_left(fds)
        assert len(forks) == 3
        assert errors == [errors[0]] * 3
        assert errors[0][0][:2] == (49, 0 if overflow else 3) and errors[0][1] == 0
        assert errors[0][3][-4:] == ["propagate_link", "__call__", "_steps", "_chunk"]

    @pytest.mark.parametrize("overflow, loud", [(25, None), (12, 25)],
                             ids=["overflow", "overflow_below_loud"])
    def test_any_child_error_is_the_serial_one(self, monkeypatch, overflow, loud):
        # row 25 overflows: in the serial chunk 16..31, in the child's share 16..32
        # at two processes, and in the second child's 22..32 at three. Or row 12
        # overflows below a loud row 25 over the bound, in a higher chunk or share:
        # in the parent's share at two processes and the first child's at three
        field = desk_composite(np.random.default_rng(35), -10.0, n_blocks=33)
        field.samples[overflow, 0, 7] = 1e200
        if loud is not None:
            field.samples[loud] *= 100.0
        fds = open_fds()
        forks = count_forks(monkeypatch)
        errors = []
        for processes in (1, 2, 3):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
                propagate_link(field, FiberParams(n_spans=2), AmplifierParams(noise_on=False),
                               SsfmStepConfig(steps_per_span=100), processes=processes)
            errors.append((type(info.value), info.value.args, str(info.value),
                           frames(info.value)))
            assert_nothing_left(fds)
        assert len(forks) == 3
        assert errors == [errors[0]] * 3
        assert errors[0][2] == "overflow encountered in square"
        assert errors[0][3][-4:] == ["propagate_link", "__call__", "_steps", "_chunk"]

    def test_child_error_that_does_not_pickle_is_the_serial_one(self, monkeypatch):
        class Unpicklable(Exception):  # a class local to a function does not pickle
            pass
        chunk = _Span._chunk

        def raising(self, buf, first_row):
            if first_row >= 16:
                raise Unpicklable("rows from %d" % first_row)
            chunk(self, buf, first_row)
        monkeypatch.setattr(_Span, "_chunk", raising)
        field = desk_composite(np.random.default_rng(36), -10.0, n_blocks=33)
        link = [FiberParams(n_spans=1), AmplifierParams(noise_on=False),
                SsfmStepConfig(steps_per_span=100)]
        fds = open_fds()
        forks = count_forks(monkeypatch)
        for processes in (1, 2):  # the child's error never leaves it
            with pytest.raises(Unpicklable, match="rows from 16"):
                propagate_link(field, *link, processes=processes)
            assert_nothing_left(fds)
        assert len(forks) == 1

    def test_parent_error_every_block_passes_alone_is_raised_again(self, monkeypatch):
        # the parent's first chunk raises once; then each block of its share passes alone
        parent, chunk, raised, alone = os.getpid(), _Span._chunk, [], []

        def fails_once(self, buf, first_row):
            if os.getpid() == parent:
                if not raised:
                    raised.append(first_row)
                    raise MemoryError("rows from %d" % first_row)
                if len(buf) == 1:
                    alone.append(first_row)
            chunk(self, buf, first_row)
        monkeypatch.setattr(_Span, "_chunk", fails_once)
        field = desk_composite(np.random.default_rng(36), -10.0, n_blocks=33)
        link = [FiberParams(n_spans=1), AmplifierParams(noise_on=False),
                SsfmStepConfig(steps_per_span=100)]
        fds = open_fds()
        forks = count_forks(monkeypatch)
        errors = []
        for processes, share in ((1, 33), (2, 16), (3, 11)):
            raised.clear()
            alone.clear()
            with pytest.raises(MemoryError, match="rows from 0") as info:
                propagate_link(field, *link, processes=processes)
            errors.append((info.value.args, frames(info.value)))
            assert alone == list(range(share))
            assert_nothing_left(fds)
        assert len(forks) == 3
        assert errors == [errors[0]] * 3
        assert errors[0][1][-3:] == ["__call__", "_steps", "fails_once"]

    @pytest.mark.parametrize("between_spans", [False, True])
    def test_dead_child_makes_the_link_raise(self, monkeypatch, between_spans):
        # the child dies in its first span, or right after replying to it; then the
        # parent waits for the death, when it draws the second span's noise, before its
        # next wake-up finds the pipe broken
        parent, children, fork = os.getpid(), [], os.fork
        target, name = (os, "write") if between_spans else (_Span, "_steps")
        real = getattr(target, name)

        def fork_and_note():
            children.append(fork())
            return children[-1]

        def die_in_child(*args):
            if os.getpid() != parent and not between_spans:
                os._exit(3)
            out = real(*args)
            if os.getpid() != parent:
                os._exit(3)
            return out

        def no_noise(span):
            if between_spans and span == 1:
                os.waitid(os.P_PID, children[0], os.WEXITED | os.WNOWAIT)
            return np.zeros(field.samples.shape, dtype=complex)
        monkeypatch.setattr(os, "fork", fork_and_note)
        monkeypatch.setattr(target, name, die_in_child)
        field = desk_composite(np.random.default_rng(33), -10.0, n_blocks=33)
        fds = open_fds()
        with pytest.raises(RuntimeError, match=r"rows 16\.\.32 ended mid-span with exit code 3"):
            propagate_link(field, FiberParams(n_spans=2), AmplifierParams(),
                           SsfmStepConfig(steps_per_span=50), no_noise, processes=2)
        assert_nothing_left(fds)
        assert len(children) == 1

    def test_a_process_with_threads_runs_serially(self, monkeypatch):
        # two shares' work, which forks without the thread
        field = desk_composite(np.random.default_rng(34), -10.0, n_blocks=17)
        link = [FiberParams(n_spans=1), AmplifierParams(noise_on=False),
                SsfmStepConfig(steps_per_span=200)]
        want = propagate_link(field, *link).samples
        forks = count_forks(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = propagate_link(field, *link, processes=2).samples
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and not forks
        assert np.array_equal(got, want)

    def test_sweep_at_full_pool_width_never_forks(self, monkeypatch):
        # 64 blocks of 2 x 256 samples over 100 steps are two shares' work; two cores,
        # two points
        def refuse(self, lo, hi):
            raise AssertionError("forked")
        monkeypatch.setattr(_Span, "_fork", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = ExperimentConfig(schemes=("ess",), powers_dbm=(1.0, 2.0), n_blocks=64,
                               block_len_4d=64, dm_blocklength=64, n_spans=1, n_channels=1,
                               sps=4, steps_per_span=100, selection_metric="wk", seed=5)
        _, errors, _ = sweep(replace(cfg, max_workers=1))
        assert sorted(errors.values()) == ["AssertionError: forked"] * 2
        _, errors, _ = sweep(replace(cfg, max_workers=2))
        assert errors == {}
