"""Shaping tests: enumeration oracles for the sphere shaper, MB fit, rail mapping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passel.shaping import (
    LEVELS,
    MbDistribution,
    PasShaper,
    ShapingError,
    bits_to_index,
    ess_decode,
    ess_encode,
    index_to_bits,
    mb_fit,
    mb_sample,
    pas_demap_hard,
    pas_map,
    trellis_for,
)

LEVEL_ARRAY = np.asarray(LEVELS)


def enumerate_sphere(blocklength, emax, levels=LEVELS):
    """Oracle: all admissible sequences in lexicographic order, by brute force."""
    seqs = [s for s in itertools.product(levels, repeat=blocklength)
            if sum(a * a for a in s) <= emax]
    seqs.sort()
    return seqs


def suffixes_within(trellis, position, budget):
    """Admissible suffixes of length N - position within an energy budget, read
    off the table: (N - position) * 1 + 8 * slack, the slack capped at the width."""
    slack = (budget - (trellis.blocklength - position)) // 8
    if slack < 0:
        return 0
    return int(trellis.counts[position][min(slack, trellis.slack_width - 1)])


class TestChooseEmax:
    """The tightest sphere trellis_for picks."""

    def test_frozen_examples(self):
        # values frozen from the exhaustive enumeration oracle
        assert trellis_for(4, 6).emax == 60
        assert trellis_for(1, 2).emax == 49
        assert trellis_for(2, 1).emax == 10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 1.3, 1.9])
    def test_matches_enumeration(self, n, rate):
        k = math.ceil(n * rate)
        emax = trellis_for(n, k).emax
        need = 2 ** k
        assert len(enumerate_sphere(n, emax)) >= need
        # minimality: one lattice step tighter no longer fits 2^k sequences
        assert len(enumerate_sphere(n, emax - 8)) < need

    def test_infeasible_rate_raises(self):
        with pytest.raises(ShapingError, match="10 bits per block infeasible at blocklength 4"):
            trellis_for(4, 10)  # 2.5 bits per amplitude

    def test_count_at_emax_matches_oracle(self):
        trellis = trellis_for(4, 6)
        assert trellis.emax == 60
        assert int(trellis.counts[0][-1]) == 82


class TestTrellis:
    def test_boundary_rows(self):
        trellis = trellis_for(4, 6)
        n = trellis.blocklength
        # empty suffix: exactly one for every non-negative budget
        for e in (0, 1, 8, 60):
            assert suffixes_within(trellis, n, e) == 1
        assert suffixes_within(trellis, n, -1) == 0
        assert suffixes_within(trellis, 0, trellis.emax) == 82

    def test_suffix_counts_match_enumeration(self):
        trellis = trellis_for(3, 3)
        for p in range(4):
            for budget in range(0, trellis.emax + 1):
                oracle = sum(
                    1 for s in itertools.product(LEVELS, repeat=3 - p)
                    if sum(a * a for a in s) <= budget
                )
                assert suffixes_within(trellis, p, budget) == oracle

    def test_large_blocklength_counts_are_exact_bigints(self):
        trellis = trellis_for(256, math.ceil(256 * 1.3))
        assert int(trellis.counts[0][-1]) >= 1 << 332


class TestEncodeDecode:
    @pytest.mark.parametrize("n,rate", [(2, 0.5), (3, 1.0), (4, 1.3), (5, 1.6)])
    def test_bijection_against_enumeration(self, n, rate):
        k = math.ceil(n * rate)
        trellis = trellis_for(n, k)
        oracle = enumerate_sphere(n, trellis.emax)
        for idx in range(2 ** k):
            seq = ess_encode(index_to_bits(idx, k), trellis)
            assert tuple(seq) == oracle[idx]
            assert bits_to_index(ess_decode(seq, trellis)) == idx

    def test_index_zero_is_all_minimum(self):
        trellis = trellis_for(16, 20)
        assert np.all(ess_encode(np.zeros(20, dtype=np.uint8), trellis) == 1.0)

    def test_bits_roundtrip(self):
        trellis = trellis_for(4, 6)
        for idx in range(64):
            bits = index_to_bits(idx, 6)
            amps = ess_encode(bits, trellis)
            assert np.array_equal(ess_decode(amps, trellis), bits)

    def test_energy_never_exceeds_sphere(self):
        trellis = trellis_for(32, 40)
        rng = np.random.default_rng(7)
        for _ in range(50):
            idx = int(rng.integers(0, 1 << 40))
            amps = ess_encode(index_to_bits(idx, 40), trellis)
            assert np.sum(amps ** 2) <= trellis.emax

    def test_encode_rejects_what_is_not_a_k_bit_block(self):
        trellis = trellis_for(4, 6)
        with pytest.raises(ShapingError, match="expected 6 bits, got 5"):
            ess_encode(np.zeros(5, dtype=np.uint8), trellis)
        with pytest.raises(ShapingError, match="do not spell a 6-bit index"):
            ess_encode(np.full(6, 3), trellis)  # reads as index 127

    def test_decode_rejects_bad_input(self):
        trellis = trellis_for(4, 6)
        with pytest.raises(ShapingError):
            ess_decode(np.array([2.0, 1.0, 1.0, 1.0]), trellis)
        with pytest.raises(ShapingError):
            ess_decode(np.array([7.0, 7.0, 7.0, 7.0]), trellis)  # energy 196 > 60

    def test_decode_rejects_admissible_but_uncoded(self):
        # sphere holds 82 sequences but only 64 are used by the 6-bit code
        trellis = trellis_for(4, 6)
        oracle = enumerate_sphere(4, trellis.emax)
        with pytest.raises(ShapingError):
            ess_decode(np.array(oracle[70], dtype=float), trellis)

    @given(st.integers(min_value=0, max_value=(1 << 13) - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, idx):
        trellis = trellis_for(10, 13)
        assert bits_to_index(ess_decode(ess_encode(index_to_bits(idx, 13), trellis), trellis)) == idx


class TestMb:
    def test_fit_hits_target_entropy(self):
        for h in (0.5, 1.0, 1.3, 1.7, 1.99):
            p = np.asarray(mb_fit(h).probs)
            assert abs(-(p * np.log2(p)).sum() - h) < 1e-9

    def test_probs_follow_boltzmann_shape(self):
        dist = mb_fit(1.3)
        p = np.asarray(dist.probs)
        a2 = LEVEL_ARRAY ** 2
        # log p linear in squared level
        ratios = np.diff(np.log(p)) / np.diff(a2)
        assert np.allclose(ratios, -dist.lam, rtol=1e-6)
        assert abs(sum(dist.probs) - 1.0) < 1e-12

    def test_entropy_monotone_in_lambda(self):
        lams = np.linspace(0.0, 1.0, 30)
        ents = []
        for lam in lams:
            w = np.exp(-lam * LEVEL_ARRAY ** 2)
            p = w / w.sum()
            ents.append(float(-(p * np.log2(p)).sum()))
        assert all(b <= a + 1e-12 for a, b in zip(ents, ents[1:]))

    def test_full_entropy_is_uniform(self):
        dist = mb_fit(2.0)
        assert np.allclose(dist.probs, 0.25, atol=1e-9)

    def test_sample_statistics_and_determinism(self):
        dist = mb_fit(1.3)
        draws = mb_sample(dist, np.random.default_rng(11), 200_000)
        freq = [np.mean(draws == lv) for lv in LEVELS]
        assert np.allclose(freq, dist.probs, atol=4e-3)
        again = mb_sample(dist, np.random.default_rng(11), 200_000)
        assert np.array_equal(draws, again)

    def test_bad_targets_raise(self):
        with pytest.raises(ShapingError):
            mb_fit(0.0)
        with pytest.raises(ShapingError):
            mb_fit(2.2)


class TestPasMapping:
    def test_frozen_example(self):
        sym = pas_map(np.array([1.0, 3.0, 5.0, 7.0]), np.array([0, 1, 0, 1]))
        assert sym[0, 0] == 1 - 3j
        assert sym[1, 0] == 5 - 7j

    def test_demap_boundaries(self):
        sym = np.array([[1.9 + 0j], [-2.1 + 0j]])
        amps, signs = pas_demap_hard(sym)
        # rails (xI, xQ, yI, yQ) = (1.9, 0, -2.1, 0)
        assert amps[0] == 1.0 and signs[0] == 0
        assert amps[2] == 3.0 and signs[2] == 1

    def test_zero_rail_takes_smallest_level_positive(self):
        amps, signs = pas_demap_hard(np.zeros((2, 1), dtype=complex))
        assert np.all(amps == 1.0)
        assert np.all(signs == 0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_map_demap_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        amps = rng.choice(LEVEL_ARRAY, size=32)
        signs = rng.integers(0, 2, size=32).astype(np.uint8)
        got_a, got_s = pas_demap_hard(pas_map(amps, signs))
        assert np.array_equal(got_a, amps)
        assert np.array_equal(got_s, signs)

    def test_shape_validation(self):
        with pytest.raises(ShapingError):
            pas_map(np.ones(5), np.zeros(5))
        with pytest.raises(ShapingError):
            pas_demap_hard(np.zeros((3, 4), dtype=complex))


class TestPasShaper:
    def test_roundtrip_multi_dm_block(self):
        trellis = trellis_for(8, 10)
        shaper = PasShaper(trellis=trellis, block_len_4d=4)  # 16 rails = 2 DM blocks
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=shaper.bits_per_selection_block).astype(np.uint8)
        sym = shaper.encode(bits)
        assert sym.shape == (2, 4)
        assert np.array_equal(shaper.decode(sym), bits)

    def test_bit_budget(self):
        trellis = trellis_for(8, 10)
        shaper = PasShaper(trellis=trellis, block_len_4d=4)
        assert shaper.n_dm_blocks == 2
        assert shaper.bits_per_selection_block == 2 * 10 + 16

    def test_indivisible_geometry_raises(self):
        trellis = trellis_for(8, 10)
        with pytest.raises(ShapingError):
            PasShaper(trellis=trellis, block_len_4d=3)


class TestAlphabetValidation:
    def test_bits_helpers(self):
        assert bits_to_index(np.array([1, 0, 1])) == 5
        assert np.array_equal(index_to_bits(5, 4), np.array([0, 1, 0, 1]))
        with pytest.raises(ShapingError):
            index_to_bits(16, 4)
