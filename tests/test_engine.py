import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import embedding, engine, graphs
from gbsgraphs.errors import SampleFormatError, ValidationError
from oracles import (assert_histogram_of, assert_ingest_matches_oracle,
                     binomial_by_power, build_table_by_polynomial, code_of_matrix,
                     convolve_rows_untruncated, detected_probabilities_per_side,
                     one_code_per_block_shape,
                     orbit_patterns, pair_diagonals, pair_matrix_by_diagonals,
                     permanent_naive, sample_file_text, sample_shots_per_side,
                     slice_mass, table_lookup)

SECH2 = 1.0 / math.cosh(1.0) ** 2
TANH2 = math.tanh(1.0) ** 2


def compositions(total, parts):
    """All nonnegative integer vectors with the given length and sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# permanent kernels
# ---------------------------------------------------------------------------

def test_permanent_identity():
    assert engine.permanent(np.eye(3)) == pytest.approx(1.0)


def test_permanent_all_ones_is_factorial():
    assert engine.permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert engine.permanent(np.ones((5, 5))) == pytest.approx(120.0)


def test_permanent_empty_matrix_is_one():
    assert engine.permanent(np.zeros((0, 0))) == 1.0
    assert permanent_naive(np.zeros((0, 0))) == 1.0


def test_permanent_rejects_nonsquare_and_oversize():
    with pytest.raises(ValidationError):
        engine.permanent(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        engine.permanent(np.ones((17, 17)))


def test_ryser_matches_naive_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        ryser = engine.permanent(a)
        naive = permanent_naive(a)
        assert ryser == pytest.approx(naive, rel=1e-10, abs=1e-12)


def test_ryser_matches_naive_on_repeated_submatrices():
    # Repetition patterns drawn from the scaled matrices the engine feeds it.
    spec = embedding.make_embedding("1111111111")
    b = spec.scaled_matrix
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = rng.multinomial(rng.integers(1, 7), [0.25] * 4)
        s = rng.multinomial(int(d.sum()), [0.25] * 4)
        sub = np.repeat(np.repeat(b, d, axis=0), s, axis=1)
        if sub.shape[0] > 6:
            continue
        assert engine.permanent(sub) == pytest.approx(
            permanent_naive(sub), rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# pattern probabilities
# ---------------------------------------------------------------------------

def test_tmsv_single_pair_probability():
    spec = embedding.make_embedding("0000000100")
    p = engine.pattern_probability(spec, (0, 0, 1, 0, 0, 0, 1, 0))
    assert p == pytest.approx(SECH2 * TANH2, abs=1e-10)
    assert p == pytest.approx(0.2435963, abs=1e-6)


def test_tmsv_double_pair_probability():
    spec = embedding.make_embedding("0000000100")
    p = engine.pattern_probability(spec, (0, 0, 2, 0, 0, 0, 2, 0))
    assert p == pytest.approx(SECH2 * TANH2 ** 2, abs=1e-12)


def test_vacuum_probability_is_sech_power():
    for code, power in (("0000000100", 2), ("0110000000", 4), ("0100000101", 8)):
        spec = embedding.make_embedding(code)
        assert engine.pattern_probability(spec, (0,) * 8) == pytest.approx(
            (1.0 / math.cosh(1.0)) ** power, rel=1e-12)


def test_unpaired_pattern_has_zero_probability():
    spec = embedding.make_embedding("1111111111")
    assert engine.pattern_probability(spec, (1, 0, 0, 0, 0, 0, 0, 0)) == 0.0


@pytest.mark.parametrize("code", ["0000000100", "0100000101"])
def test_zero_law_exhaustive_up_to_total_12(code):
    spec = embedding.make_embedding(code)
    for total in range(1, 13):
        for s_tot in range(total + 1):
            d_tot = total - s_tot
            if s_tot == d_tot:
                continue
            # extreme concentrations plus a spread pattern per split
            for s in ((s_tot, 0, 0, 0), tuple(compositions(s_tot, 4))[-1]):
                for d in ((d_tot, 0, 0, 0), tuple(compositions(d_tot, 4))[-1]):
                    assert engine.pattern_probability(spec, s + d) == 0.0


def test_pattern_validation():
    spec = embedding.make_embedding("0000000100")
    with pytest.raises(ValidationError):
        engine.pattern_probability(spec, (1, 2))
    with pytest.raises(ValidationError):
        engine.pattern_probability(spec, (-1, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# total photon distribution
# ---------------------------------------------------------------------------

def test_total_distribution_rank1_values():
    assert engine.total_photon_distribution(1, 0) == pytest.approx(SECH2, rel=1e-12)
    assert engine.total_photon_distribution(1, 1) == pytest.approx(
        SECH2 * TANH2, rel=1e-12)


def test_total_distribution_matches_pattern_sum():
    # Brute-force enumeration over all patterns with one pair each side.
    spec = embedding.make_embedding("1111111111")
    total = 0.0
    for s in compositions(1, 4):
        for d in compositions(1, 4):
            total += engine.pattern_probability(spec, s + d)
    assert total == pytest.approx(engine.total_photon_distribution(1, 1), rel=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_total_distribution_normalises(rank):
    acc = math.fsum(engine.total_photon_distribution(rank, s) for s in range(400))
    assert acc == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rank", [1, 4])
def test_total_distribution_of_huge_pair_numbers_is_zero(rank):
    # The closed forms already underflow to 0.0 here, and their integer
    # binomials would overflow float for the larger counts.
    for pairs in (10 ** 6, 10 ** 6 + 1, 10 ** 120, 10 ** 400):
        assert engine.total_photon_distribution(rank, pairs) == 0.0
        assert engine.total_photon_tail(rank, pairs) == 0.0
        assert engine.detected_total_probabilities(
            rank, [2 * pairs], [1.0, 0.5]).tolist() == [[0.0], [0.0]]


def test_total_distribution_validates():
    with pytest.raises(ValidationError):
        engine.total_photon_distribution(0, 1)
    with pytest.raises(ValidationError):
        engine.total_photon_distribution(2, -1)
    with pytest.raises(ValidationError):
        engine.total_photon_tail(5, 8)


#: Cutoffs of ranks 1-4 pinned at deeper masses than the default 0.99.
DEEP_CUTOFFS = {1.0 - 1e-6: (25, 30, 34, 37), 1.0 - 1e-12: (50, 56, 61, 66)}


@pytest.mark.parametrize("mass", [float("nan"), -0.01, 1.01, 2.0, float("inf")])
def test_min_cutoff_for_mass_refuses_bad_mass_at_once(mass, monkeypatch):
    def tail(*args):
        raise AssertionError("a bad mass reached the tail")
    monkeypatch.setattr(engine, "total_photon_tail", tail)
    with pytest.raises(ValidationError, match="mass"):
        engine.min_cutoff_for_mass(4, mass)


@pytest.mark.parametrize("rank,cutoff", [(1, 8), (2, 11), (3, 14), (4, 17)])
def test_min_cutoff_for_mass(rank, cutoff):
    assert engine.min_cutoff_for_mass(rank) == cutoff
    for mass, cutoffs in DEEP_CUTOFFS.items():
        assert engine.min_cutoff_for_mass(rank, mass) == cutoffs[rank - 1], mass


# ---------------------------------------------------------------------------
# probability tables
# ---------------------------------------------------------------------------

def test_table_single_edge_lives_on_modes_2_and_6():
    spec = embedding.make_embedding("0000000100")
    table = engine.build_table(spec, 8)
    assert len(table) == 9
    others = [i for i in range(8) if i not in (2, 6)]
    assert not table.patterns[:, others].any()
    assert table.probs.sum() == pytest.approx(1.0 - math.tanh(1.0) ** 18, abs=1e-12)


@pytest.mark.parametrize("code,cutoff", [("0000000100", 8), ("0110000000", 9),
                                         ("1111111111", 6)])
def test_table_slices_match_closed_form(code, cutoff, specs_by_code):
    spec = specs_by_code[code]
    table = engine.build_table(spec, cutoff)
    for pairs in range(cutoff + 1):
        assert slice_mass(table, pairs) == pytest.approx(
            engine.total_photon_distribution(spec.rank, pairs), abs=1e-9)
    assert (table.probs >= 0).all()
    assert table.probs.sum() <= 1.0
    assert table.probs.sum() == pytest.approx(
        1.0 - engine.total_photon_tail(spec.rank, cutoff), abs=1e-9)


def test_table_agrees_with_ryser_probabilities(specs_by_code):
    spec = specs_by_code["1111111111"]
    table = engine.build_table(spec, 4)
    lookup = table_lookup(table)
    # exhaustive at small totals, spot checks above
    for s in compositions(2, 4):
        for d in compositions(2, 4):
            pattern = s + d
            assert lookup[pattern] == pytest.approx(
                engine.pattern_probability(spec, pattern), rel=1e-12)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(table), size=40, replace=False):
        pattern = tuple(int(x) for x in table.patterns[i])
        assert table.probs[i] == pytest.approx(
            engine.pattern_probability(spec, pattern), rel=1e-12)
    # One graph per block shape at its benchmark cutoff: 40 entries of at
    # most 6 pairs (all 7 of 1K2), so each check is a <= 6x6 permanent.
    for code in one_code_per_block_shape():
        spec = specs_by_code[code]
        table = engine.build_table(spec, engine.min_cutoff_for_mass(spec.rank))
        small = np.flatnonzero(table.patterns[:, :4].sum(axis=1) <= 6)
        for i in rng.choice(small, size=min(40, len(small)), replace=False):
            assert table.probs[i] == pytest.approx(
                engine.pattern_probability(spec, table.patterns[i]),
                rel=1e-12), (code, table.patterns[i])


def assert_same_table(got, want):
    assert got.spec is want.spec
    assert got.cutoff_pairs == want.cutoff_pairs
    # The oracle's patterns are int64; the table's are counts at the
    # cutoff's width, equal by value.
    assert got.patterns.dtype == np.min_scalar_type(got.cutoff_pairs)
    assert want.patterns.dtype == np.int64
    assert np.array_equal(got.patterns, want.patterns)
    assert got.probs.dtype == want.probs.dtype == np.float64
    assert np.array_equal(got.probs.view(np.uint64), want.probs.view(np.uint64))


def test_table_matches_polynomial_oracle_bit_for_bit(embeddable):
    for code, spec in embeddable:
        for cutoff in (1, 6):
            assert_same_table(engine.build_table(spec, cutoff),
                              build_table_by_polynomial(spec, cutoff))


@pytest.mark.parametrize("code,mass",
                         [(code, 0.99) for code in one_code_per_block_shape()]
                         + [("1100100000", 1.0 - 1e-12)])
def test_table_matches_polynomial_oracle_at_cutoff_for_mass(code, mass, specs_by_code):
    # The benchmark's cutoff for each block shape, and one deep table.
    spec = specs_by_code[code]
    cutoff = engine.min_cutoff_for_mass(spec.rank, mass)
    assert_same_table(engine.build_table(spec, cutoff),
                      build_table_by_polynomial(spec, cutoff))


def test_table_mode_permutation_covariance():
    perm = (2, 0, 3, 1)
    m = graphs.decode_code("0110000000")
    code2 = code_of_matrix(m[np.ix_(perm, perm)])
    t1 = engine.build_table(embedding.make_embedding("0110000000"), 8)
    t2 = engine.build_table(embedding.make_embedding(code2), 8)
    d2 = table_lookup(t2)
    for pattern, value in table_lookup(t1).items():
        s, d = pattern[:4], pattern[4:]
        moved = (tuple(s[perm[j]] for j in range(4))
                 + tuple(d[perm[j]] for j in range(4)))
        assert d2[moved] == value      # bit-identical by construction


def test_table_rejects_bad_cutoff():
    spec = embedding.make_embedding("0000000100")
    for cutoff in (0, -3, 2.5, "3", None):
        with pytest.raises(ValidationError):
            engine.build_table(spec, cutoff)


@pytest.mark.parametrize("cutoff,dtype", [(255, np.uint8), (256, np.uint16)])
def test_table_counts_widen_past_255_pairs(cutoff, dtype, specs_by_code):
    # 1K2's table has cutoff + 1 rows; past 170 pairs its factorials leave
    # the float range.
    spec = specs_by_code["0000000100"]
    table = engine.build_table(spec, cutoff)
    assert table.patterns.dtype == dtype
    assert len(table) == cutoff + 1
    assert table.patterns.max() == cutoff
    assert_same_table(table, build_table_by_polynomial(spec, cutoff))


def test_table_build_peaks_below_3_mb():
    # 53,559 patterns of 1K44 at 8 pairs: 428 KB of uint8 counts, 428 KB of
    # probabilities, and a few int64 index arrays as long.
    spec = embedding.make_embedding("1111111111")
    tracemalloc.start()
    try:
        table = engine.build_table(spec, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 53559
    assert peak < 3 * 2 ** 20


def test_every_embeddable_spec_normalises_against_closed_form(embeddable):
    cutoff = 10
    for code, spec in embeddable:
        table = engine.build_table(spec, cutoff)
        for pairs in range(cutoff + 1):
            assert slice_mass(table, pairs) == pytest.approx(
                engine.total_photon_distribution(spec.rank, pairs),
                abs=1e-8), (code, pairs)


# ---------------------------------------------------------------------------
# product law
# ---------------------------------------------------------------------------

def test_blocks_split_signal_and_idler_modes():
    assert embedding.make_embedding("1111111111").blocks == [
        ((0, 1, 2, 3), (4, 5, 6, 7))]
    assert embedding.make_embedding("0000000100").blocks == [((2,), (6,))]
    blocks = embedding.make_embedding("0110000000").blocks
    assert len(blocks) == 2
    assert sorted(len(sig) * len(idl) for sig, idl in blocks) == [2, 2]
    for code, spec in embedding.enumerate_embeddable():
        assert len(spec.blocks) == spec.rank, code


def test_detected_probabilities_match_every_table_entry(embeddable):
    worst = 0.0
    for code, spec in embeddable:
        table = engine.build_table(spec, 6)
        got = engine.detected_probabilities(spec, table.patterns)
        worst = max(worst, float((np.abs(got - table.probs) / table.probs).max()))
    assert worst < 1e-14


def test_detected_probabilities_match_ryser_on_sampled_patterns(specs_by_code):
    for code in ("1111111111", "0110000000", "0100000101", "1011000111"):
        spec = specs_by_code[code]
        shots = engine.sample(spec, 400, seed=17).shots
        distinct = np.unique(shots[shots.sum(axis=1) <= 12], axis=0)
        got = engine.detected_probabilities(spec, distinct)
        for pattern, value in zip(distinct, got):
            assert value == pytest.approx(
                engine.pattern_probability(spec, pattern), rel=1e-12), (code, pattern)


def _thinned_table_mass(table, detected, eta):
    # Sum over ideal patterns t of P(t) * prod_j Bin(detected_j; t_j, eta).
    pats = table.patterns
    top = int(max(pats.max(), detected.max()))
    pmf = np.zeros((top + 1, top + 1))
    for t in range(top + 1):
        for k in range(t + 1):
            pmf[t, k] = math.comb(t, k) * eta ** k * (1.0 - eta) ** (t - k)
    w = np.ones((len(pats), len(detected)))
    for j in range(8):
        w *= pmf[pats[:, j][:, None], detected[None, :, j]]
    return table.probs @ w


@pytest.mark.parametrize("code", ["0000000100", "0010000000", "1100100000"])
def test_lossy_detected_probabilities_match_thinned_deep_table(code, specs_by_code):
    spec = specs_by_code[code]
    cutoff = engine.min_cutoff_for_mass(spec.rank, 1.0 - 1e-12)
    table = engine.build_table(spec, cutoff)
    assert engine.total_photon_tail(spec.rank, cutoff) < 1e-12
    modes = [m for block in spec.blocks for side in block for m in side]
    detected = np.zeros((3 ** len(modes), 8), dtype=np.int64)
    detected[:, modes] = list(itertools.product(range(3), repeat=len(modes)))
    for eta in (0.3, 0.55, 0.9):
        want = _thinned_table_mass(table, detected, eta)
        got = engine.detected_probabilities(spec, detected, eta)
        assert np.abs(got - want).max() < 1e-12, eta
        assert (got[want == 0.0] == 0.0).all()


def test_detected_probabilities_edge_patterns(specs_by_code):
    spec = specs_by_code["0000000100"]
    stray = (1, 0, 1, 0, 0, 0, 1, 0)
    deep = (0, 0, 10 ** 6, 0, 0, 0, 10 ** 6, 0)
    got = engine.detected_probabilities(spec, [stray, deep], 0.5)
    assert got.tolist() == [0.0, 0.0]
    with pytest.raises(ValidationError):
        engine.detected_probabilities(spec, [(0, 0, -1, 0, 0, 0, 0, 0)])


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_detected_total_matches_pair_law_series(rank):
    eta = 0.55
    for k in (0, 1, 2, 5, 8):
        want = math.fsum(
            engine.total_photon_distribution(rank, pairs) * math.comb(2 * pairs, k)
            * eta ** k * (1 - eta) ** (2 * pairs - k)
            for pairs in range((k + 1) // 2, 400))
        assert engine.detected_total_probabilities(rank, [k], [eta])[0, 0] == (
            pytest.approx(want, rel=1e-12)), k
    assert engine.detected_total_probabilities(rank, [0], [0.0])[0, 0] == 1.0
    assert engine.detected_total_probabilities(rank, [10 ** 9], [0.5])[0, 0] == 0.0


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_binomial_matches_power_oracle_bit_for_bit(modes):
    # Every k <= n < UNDERFLOW_PAIRS, about 940,000 pairs per mode count.
    n, k = np.tril_indices(engine.UNDERFLOW_PAIRS)
    got = engine._binomial(n, k, modes)
    assert np.array_equal(_bits(got), _bits(binomial_by_power(n, k, modes)))
    assert got.max() <= 1.0 and (got > 0.0).any()


#: Patterns no orbit of small counts reaches: a stray photon, deep counts,
#: counts of UNDERFLOW_PAIRS and more, and side totals that wrap int64 (four
#: counts of 2^62 sum to 2^64, which wraps to 0).
_EDGE_PATTERNS = np.array([
    (1, 0, 1, 0, 0, 0, 1, 0), (0, 0, 1, 0, 1, 0, 0, 0), (0,) * 8,
    (60, 0, 0, 0, 60, 0, 0, 0), (30, 0, 30, 0, 0, 20, 20, 20),
    (engine.UNDERFLOW_PAIRS, 0, 0, 0, engine.UNDERFLOW_PAIRS, 0, 0, 0),
    (0, 0, 10 ** 6, 0, 0, 0, 10 ** 6, 0),
    (2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62, 0, 0, 0, 0),
    (2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62),
    (0, 2 ** 63 - 1, 0, 0, 0, 0, 2 ** 63 - 1, 0)], dtype=np.int64)


@pytest.fixture(scope="module")
def law_pattern_sets():
    """The members of eight orbits, 300 seeded random patterns with counts
    up to 5, and the edge patterns."""
    orbits = [(1, 1, 1), (1, 1, 1, 1), (2, 1, 1), (2,), (1, 1), (3, 2, 1),
              (2, 2, 1, 1), (1,) * 8]
    random = np.random.default_rng(19).integers(0, 6, size=(300, 8))
    return [orbit_patterns(o) for o in orbits] + [random, _EDGE_PATTERNS]


@pytest.mark.parametrize("eta", [0.0, 0.05, 0.55, 1.0])
def test_detected_probabilities_match_per_side_oracle_bit_for_bit(
        embeddable, law_pattern_sets, eta):
    # All 75 graphs, each pattern set in one call.
    for code, spec in embeddable:
        for pats in law_pattern_sets:
            got = engine.detected_probabilities(spec, pats, eta)
            want = detected_probabilities_per_side(spec, pats, eta)
            assert np.array_equal(_bits(got), _bits(want)), (code, pats[0])


_PAIR_ETAS = [0.0, 1.0, 1e-9, 0.55, *np.random.default_rng(17).random(200)]


def _pair_diagonals(etas, top: int) -> np.ndarray:
    # The whole walk kept: P[S, T - S] at buf[T, S + 1, i], as ``pair_matrix``
    # reads it.
    *_, buf = engine._pair_walk(etas, top, top + 1)
    return buf


@pytest.mark.parametrize("top", [0, 1, 2, 9, 60])
def test_pair_diagonals_match_generator_oracle_bit_for_bit(top):
    # The skewed array holds each anti-diagonal at [T, 1:T + 2], zero
    # elsewhere; each eta alone and all of them in one call.
    for etas in [[eta] for eta in _PAIR_ETAS] + [_PAIR_ETAS]:
        got = _pair_diagonals(etas, top)
        assert got.shape == (top + 1, top + 2, len(etas))
        for total, diag in enumerate(pair_diagonals(etas, top)):
            assert np.array_equal(_bits(got[total, 1:total + 2].T), _bits(diag))
            assert not got[total, 0].any() and not got[total, total + 2:].any()


def test_pair_diagonals_match_generator_oracle_on_a_grid():
    grid = np.linspace(0.0, 1.0, 101)
    got = _pair_diagonals(grid, 60)
    for total, diag in enumerate(pair_diagonals(grid, 60)):
        assert np.array_equal(_bits(got[total, 1:total + 2].T), _bits(diag))


@pytest.mark.parametrize("top", [0, 1, 2, 3, 9, 60])
def test_pair_walk_in_three_rows_matches_generator_oracle_bit_for_bit(top):
    # Each anti-diagonal overwrites the one three before it, which is
    # shorter, so every row read back is the oracle's with zero padding.
    walk = engine._pair_walk(_PAIR_ETAS, top, 3)
    for total, (buf, diag) in enumerate(
            zip(walk, pair_diagonals(_PAIR_ETAS, top), strict=True)):
        assert buf.shape == (3, top + 2, len(_PAIR_ETAS))
        row = buf[total % 3]
        assert np.array_equal(_bits(row[1:total + 2].T), _bits(diag))
        assert not row[0].any() and not row[total + 2:].any()


@pytest.mark.parametrize("size", [*range(13), 60])
def test_pair_matrix_matches_generator_oracle_bit_for_bit(size):
    for eta in _PAIR_ETAS[:4] + [0.3, 0.9]:
        got = engine.pair_matrix(eta, size)
        want = pair_matrix_by_diagonals(eta, size)
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_detected_totals_on_a_mixed_grid_equal_single_eta_calls(rank):
    etas, events = [0.3, 1.0, 0.55, 1.0], [8, 2, 2, 0, 7, 10 ** 9]
    got = engine.detected_total_probabilities(rank, events, etas)
    for row, eta in zip(got, etas):
        alone = engine.detected_total_probabilities(rank, events, [eta])[0]
        assert np.array_equal(_bits(row), _bits(alone)), eta
    exact = [engine.total_photon_distribution(rank, k // 2) if k % 2 == 0 else 0.0
             for k in events]
    assert np.array_equal(_bits(got[1]), _bits(exact))
    assert np.array_equal(_bits(got[3]), _bits(exact))


def test_capped_events_walked_in_eta_chunks_equal_single_eta_calls():
    # One call over 30 transmissions equals, bit for bit, one call per
    # transmission.
    spec = embedding.make_embedding("1111111111")
    grid, events = np.linspace(0.0, 1.0, 30), [600, 300, 7]
    got = engine.capped_event_probabilities(spec, events, 200, grid)
    for i in (0, 13, 22, 29):
        alone = engine.capped_event_probabilities(spec, events, 200, [grid[i]])
        assert np.array_equal(_bits(got[i]), _bits(alone[0])), i


def test_law_caches_are_bounded_and_read_only(specs_by_code):
    # The cap vectors and side layouts are shared by every later call, so no
    # caller may write them; a cleared cache gives the same values.
    spec = specs_by_code["1111111111"]
    want = engine.capped_event_probabilities(spec, [2, 4, 6, 8], 1, [0.55])
    pats = np.array([(1, 1, 0, 0, 1, 1, 0, 0), (2, 0, 0, 0, 0, 1, 1, 0)])
    lossy = engine.detected_probabilities(spec, pats, 0.55)
    assert engine._within_cap.cache_info().maxsize == 32
    assert engine._sides.cache_info().maxsize == 128
    cap = engine._within_cap(4, 1, 4)
    assert cap is engine._within_cap(4, 1, 4)
    sums, limit, groups = engine._sides(tuple(spec.blocks))
    for array in (cap, sums, limit, *(modes for modes, _ in groups)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5
    engine._within_cap.cache_clear()
    engine._sides.cache_clear()
    assert np.array_equal(
        _bits(engine.capped_event_probabilities(spec, [2, 4, 6, 8], 1, [0.55])),
        _bits(want))
    assert np.array_equal(_bits(engine.detected_probabilities(spec, pats, 0.55)),
                          _bits(lossy))


def test_capped_events_on_a_loss_grid_keep_few_anti_diagonals():
    # The whole walk to total 1000 would be 101 x 1001 x 1002 cells (810 MB);
    # three anti-diagonals at a time are 2.4 MB.
    spec = embedding.make_embedding("1111111111")
    tracemalloc.start()
    try:
        engine.capped_event_probabilities(spec, [1000, 600], 300,
                                          np.linspace(0.0, 1.0, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_capped_events_refuse_more_than_2_to_28_cells():
    spec = embedding.make_embedding("1111111111")
    top = 2 * (engine.UNDERFLOW_PAIRS - 1)
    etas = 2 ** 29 // (top + 1) ** 2 + 1
    with pytest.raises(ValidationError,
                       match=r"needs [\d,]+ cells, over 2\^28; use a coarser --step"):
        engine.capped_event_probabilities(spec, [top], 1000, np.ones(etas))
    # Each single transmission stays within the bound at any event total.
    assert engine.capped_event_probabilities(spec, [top, 10 ** 9], 1000,
                                             [0.5]).shape == (1, 2)


@pytest.mark.parametrize("n_max", [1, 2, 8])
def test_capped_events_match_untruncated_convolution_bit_for_bit(
        embeddable, monkeypatch, n_max):
    # Every rank, with totals past the largest one asked left out of each
    # convolution or not; and the columns kept on their own.
    rows = np.random.default_rng(20).random((3, 9))
    for width in (1, 2, 5, 9, 17, 30):
        got = engine._convolve_rows(rows, rows[:, :7], width)
        want = convolve_rows_untruncated(rows, rows[:, :7])[:, :width]
        assert np.array_equal(_bits(got), _bits(want)), width
    etas = [0.0, 0.3, 0.55, 1.0]
    specs = {spec.rank: spec for _, spec in embeddable}
    assert sorted(specs) == [1, 2, 3, 4]
    for events in ([2, 4, 6, 8], [8, 0, 3], [1], list(range(25)), [40, 7]):
        got = {rank: engine.capped_event_probabilities(spec, events, n_max, etas)
               for rank, spec in specs.items()}
        with monkeypatch.context() as m:
            m.setattr(engine, "_convolve_rows",
                      lambda x, y, width: convolve_rows_untruncated(x, y))
            for rank, spec in specs.items():
                want = engine.capped_event_probabilities(spec, events, n_max, etas)
                assert np.array_equal(_bits(got[rank]), _bits(want)), (rank, events)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def k44_spec():
    return embedding.make_embedding("1111111111")


def test_sample_validation(k44_spec):
    with pytest.raises(ValidationError):
        engine.sample(k44_spec, 0, seed=1)
    with pytest.raises(ValidationError):
        engine.sample(k44_spec, engine.MAX_SHOTS + 1, seed=1)


def test_sample_accepts_a_table_for_its_spec(k44_spec):
    table = engine.build_table(k44_spec, 4)
    a = engine.sample(table, 300, seed=12)
    b = engine.sample(k44_spec, 300, seed=12)
    assert (a.shots == b.shots).all()
    assert a.meta == b.meta


def test_sample_draws_table_patterns(k44_spec):
    out = engine.sample(k44_spec, 2000, seed=42)
    lookup = table_lookup(engine.build_table(k44_spec, 8))
    for row in out.shots:
        if row[:4].sum() <= 8:
            assert tuple(int(x) for x in row) in lookup
    assert (out.shots[:, :4].sum(axis=1) == out.shots[:, 4:].sum(axis=1)).all()
    assert out.meta.source == "simulated"
    assert out.meta.code == "1111111111"
    assert out.meta.seed == 42


def test_sample_records_the_seed_of_a_spawned_stream(k44_spec):
    stream, _ = np.random.SeedSequence(9).spawn(2)
    out = engine.sample(k44_spec, 50, stream)
    assert out.meta.seed == 9
    assert not (out.shots == engine.sample(k44_spec, 50, 9).shots).all()


def test_sample_is_deterministic(k44_spec):
    a = engine.sample(k44_spec, 2000, seed=9)
    b = engine.sample(k44_spec, 2000, seed=9)
    assert (a.shots == b.shots).all()
    c = engine.sample(k44_spec, 2000, seed=10)
    assert (a.shots != c.shots).any()


@pytest.mark.parametrize("code", one_code_per_block_shape())
def test_sample_equals_a_multinomial_split_on_every_side(code, specs_by_code):
    # A one-mode side takes its pairs with no draw, and the counts are uint8:
    # the shots and the stream left behind are the same.
    spec = specs_by_code[code]
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    out = engine.sample(spec, 3000, rng)
    assert (out.shots == sample_shots_per_side(spec, 3000, reference)).all()
    assert rng.random() == reference.random()


class _LongDraw(np.random.Generator):
    """PCG64 draws, but shot 0 of geometric draw ``call`` (0-based) is 301:
    300 pairs, more than a uint8 count holds."""

    def __init__(self, seed, call):
        super().__init__(np.random.PCG64(seed))
        self.call = call

    def geometric(self, p, size=None):
        draws = super().geometric(p, size)
        if self.call == 0:
            draws[0] = 301
        self.call -= 1
        return draws


@pytest.mark.parametrize("code,call", [("0000000100", 0), ("0100000101", 2)])
def test_sample_widens_to_int64_past_255_pairs(code, call, specs_by_code):
    spec = specs_by_code[code]
    rng, reference = _LongDraw(4, call), _LongDraw(4, call)
    out = engine.sample(spec, 500, rng)
    expected = sample_shots_per_side(spec, 500, reference)
    assert (out.shots == expected).all()
    assert rng.random() == reference.random()
    assert expected[0, spec.blocks[call][0]] == 300
    assert out.histogram[0].dtype == np.int64


def test_sample_frequency_matches_exact_law():
    spec = embedding.make_embedding("0000000100")
    shots = 100_000
    out = engine.sample(spec, shots, seed=123)
    totals = out.shots.sum(axis=1)
    p = SECH2 * TANH2
    se = math.sqrt(p * (1 - p) / shots)
    assert abs((totals == 2).mean() - p) < 4 * se


@pytest.mark.parametrize("code", ["1111111111", "0110000000", "0100000101"])
def test_sampled_pair_numbers_follow_negative_binomial(code, specs_by_code):
    # No renormalisation: the expected counts come from the untruncated law.
    scipy_stats = pytest.importorskip("scipy.stats")
    spec = specs_by_code[code]
    shots = 100_000
    pairs = engine.sample(spec, shots, seed=91).shots[:, :4].sum(axis=1)
    top = 12 + 3 * spec.rank
    probs = [engine.total_photon_distribution(spec.rank, n) for n in range(top)]
    observed = [np.count_nonzero(pairs == n) for n in range(top)]
    probs.append(1.0 - math.fsum(probs))
    observed.append(np.count_nonzero(pairs >= top))
    expected = shots * np.array(probs)
    stat = float(((np.array(observed) - expected) ** 2 / expected).sum())
    critical = scipy_stats.chi2.ppf(1.0 - 1e-3, df=top)
    assert stat < critical, f"chi2 {stat:.1f} >= {critical:.1f}"


def test_sample_chi_squared_against_table(k44_spec):
    scipy_stats = pytest.importorskip("scipy.stats")
    table = engine.build_table(k44_spec, 8)
    shots = 100_000
    out = engine.sample(k44_spec, shots, seed=77)
    order = np.argsort(table.probs)[::-1][:20]
    top = {tuple(int(x) for x in table.patterns[i]): table.probs[i] for i in order}
    counts = {key: 0 for key in top}
    rest = 0
    for row in out.shots:
        key = tuple(int(x) for x in row)
        if key in counts:
            counts[key] += 1
        else:
            rest += 1
    stat = 0.0
    for key, p in top.items():
        expected = shots * p
        stat += (counts[key] - expected) ** 2 / expected
    rest_p = 1.0 - sum(top.values())
    stat += (rest - shots * rest_p) ** 2 / (shots * rest_p)
    critical = scipy_stats.chi2.ppf(1.0 - 1e-3, df=20)
    assert stat < critical, f"chi2 {stat:.1f} >= {critical:.1f}"


# ---------------------------------------------------------------------------
# loss and threshold conversion
# ---------------------------------------------------------------------------

def test_loss_model_validates():
    with pytest.raises(ValidationError):
        engine.LossModel(1.5)
    assert engine.LossModel(0.25).loss_factor == pytest.approx(0.75)


def test_lossless_thinning_is_identity(k44_spec):
    out = engine.sample(k44_spec, 500, seed=4)
    same = engine.apply_loss(out, engine.LossModel(1.0), seed=5)
    assert (same.shots == out.shots).all()
    assert same.meta.loss == 1.0


def test_full_loss_empties_every_mode(k44_spec):
    out = engine.sample(k44_spec, 500, seed=4)
    dark = engine.apply_loss(out, engine.LossModel(0.0), seed=5)
    assert not dark.shots.any()


def test_loss_scales_mean_total(k44_spec):
    shots = 100_000
    out = engine.sample(k44_spec, shots, seed=21)
    eta = 0.5
    thinned = engine.apply_loss(out, engine.LossModel(eta), seed=22)
    ideal_mean = float(out.shots.sum(axis=1).mean())
    got = float(thinned.shots.sum(axis=1).mean())
    spread = float(thinned.shots.sum(axis=1).std(ddof=1))
    assert abs(got - eta * ideal_mean) < 4 * spread / math.sqrt(shots)


def test_total_after_loss_matches_binomially_thinned_law(k44_spec):
    # Event frequencies of the detected total against the thinned pair law.
    shots = 100_000
    eta = 0.6
    out = engine.apply_loss(engine.sample(k44_spec, shots, seed=31),
                            engine.LossModel(eta), seed=32)
    totals = out.shots.sum(axis=1)
    for k in (0, 1, 2, 3, 4, 5):
        p = engine.detected_total_probabilities(1, [k], [eta])[0, 0]
        se = math.sqrt(p * (1 - p) / shots)
        assert abs((totals == k).mean() - p) < 4 * se, k


def test_thinning_equals_dense_thinning_at_the_pipeline_seeds(embeddable):
    # apply_loss draws only for nonzero counts; this rests on numpy drawing
    # no variate for a count of 0.
    streams = np.random.SeedSequence(7).spawn(len(embeddable))
    for (code, spec), stream in zip(embeddable, streams):
        sample_stream, loss_stream = stream.spawn(2)
        out = engine.sample(spec, 2_000, sample_stream)
        got = engine.apply_loss(out, engine.LossModel(0.55), loss_stream).shots
        want = np.random.default_rng(loss_stream).binomial(out.shots, 0.55)
        assert got.dtype == np.int64 and np.array_equal(got, want), code


@pytest.mark.parametrize("case", ["int64-rows", "thinned-twice"])
def test_thinning_equals_dense_thinning_of_wide_and_rethinned_sets(k44_spec, case):
    # apply_loss thins the gathered histogram rows in their own dtype: int64
    # when a count reaches 256, and uint8 for a set thinned before.
    drawn = engine.sample(k44_spec, 2_000, seed=71)
    first, second = np.random.SeedSequence(72).spawn(2)
    if case == "int64-rows":
        shots = drawn.shots
        shots[::50, 2] = 300
        shots[7, 5] = 2 ** 40
        wide = engine.SampleSet.of(shots=shots, meta=drawn.meta)
        assert wide.histogram[0].dtype == np.int64
        got = engine.apply_loss(wide, engine.LossModel(0.55), first).shots
        want = np.random.default_rng(first).binomial(shots, 0.55)
    else:
        once = engine.apply_loss(drawn, engine.LossModel(0.8), first)
        got = engine.apply_loss(once, engine.LossModel(0.55), second).shots
        want = np.random.default_rng(second).binomial(
            np.random.default_rng(first).binomial(drawn.shots, 0.8), 0.55)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_loss_composes_multiplicatively(k44_spec):
    out = engine.sample(k44_spec, 100, seed=1)
    once = engine.apply_loss(out, engine.LossModel(0.8), seed=2)
    twice = engine.apply_loss(once, engine.LossModel(0.5), seed=3)
    assert twice.meta.loss == pytest.approx(0.4)


def test_loss_rejects_threshold_input(k44_spec):
    clicks = engine.to_threshold(engine.sample(k44_spec, 10, seed=1))
    with pytest.raises(ValidationError):
        engine.apply_loss(clicks, engine.LossModel(0.5), seed=2)


def test_threshold_clamps_and_is_idempotent(k44_spec):
    out = engine.sample(k44_spec, 300, seed=8)
    clicks = engine.to_threshold(out)
    assert clicks.meta.threshold
    assert set(np.unique(clicks.shots)) <= {0, 1}
    again = engine.to_threshold(clicks)
    assert (again.shots == clicks.shots).all()
    assert (clicks.shots == np.minimum(out.shots, 1)).all()


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=8))
def test_threshold_of_single_pattern(counts):
    samples = engine.SampleSet.of(
        shots=np.array([counts], dtype=np.int64),
        meta=engine.SampleMeta(source="simulated"))
    clicks = engine.to_threshold(samples)
    assert clicks.shots[0].tolist() == [min(c, 1) for c in counts]


def _threshold_input(spec, kind: str) -> engine.SampleSet:
    lossless = engine.sample(spec, 3_000, seed=61)
    if kind == "lossy":
        return engine.apply_loss(lossless, engine.LossModel(0.55), seed=62)
    if kind == "int64":
        shots = lossless.shots
        shots[::5, 3] = 300
        return engine.SampleSet.of(shots, lossless.meta)
    if kind == "clamped":
        return engine.to_threshold(lossless)
    return lossless


@pytest.mark.parametrize("kind", ["lossless", "lossy", "int64", "clamped"])
def test_threshold_clamps_the_histogram_without_reading_shots(
        k44_spec, monkeypatch, kind):
    # The set that clamping every shot gives, in every array and dtype.
    samples = _threshold_input(k44_spec, kind)
    assert (samples.histogram[0].dtype == np.int64) == (kind == "int64")
    want = engine.SampleSet.of(np.minimum(samples.shots, 1),
                               dataclasses.replace(samples.meta, threshold=True))

    def unread(self):
        raise AssertionError("to_threshold read .shots")

    monkeypatch.setattr(engine.SampleSet, "shots", property(unread))
    got = engine.to_threshold(samples)
    assert got.meta == want.meta
    for name, a, b in zip(("rows", "counts", "shot rows"),
                          (*got.histogram, got.rows), (*want.histogram, want.rows)):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# sample files
# ---------------------------------------------------------------------------

def test_write_then_ingest_roundtrip(tmp_path, k44_spec):
    out = engine.sample(k44_spec, 250, seed=3)
    lossy = engine.apply_loss(out, engine.LossModel(0.7), seed=4)
    path = tmp_path / "k44.samples"
    engine.write_samples(lossy, path)
    back = engine.ingest_samples(path)
    assert (back.shots == lossy.shots).all()
    assert back.meta.source == "ingested"
    assert back.meta.code == "1111111111"
    assert back.meta.loss == pytest.approx(0.7)
    assert back.meta.seed == 3
    stored = json.loads(engine.meta_path_for(path).read_text())
    assert "cutoff_pairs" not in stored and "covered_mass" not in stored


@pytest.mark.parametrize("shots", [
    np.zeros((4, 8), dtype=np.int64),
    np.random.default_rng(11).integers(0, 2, size=(50, 8)),
    np.random.default_rng(12).integers(0, 2 ** 62, size=(20, 8), endpoint=True),
    np.array([[3, 0, 1, 0, 2, 0, 0, 2]], dtype=np.int64),
    np.zeros((0, 8), dtype=np.int64),
], ids=["zeros", "threshold", "up-to-2^62", "single-row", "no-rows"])
def test_write_samples_bytes_equal_json_rows(tmp_path, shots):
    path = tmp_path / "x.samples"
    engine.write_samples(
        engine.SampleSet.of(shots=shots, meta=engine.SampleMeta("simulated")), path)
    want = "\n".join(json.dumps(row, separators=(",", ":"))
                     for row in shots.tolist()) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("counts", ["below-256", "256-and-up"])
def test_write_samples_bytes_equal_per_shot_writer(tmp_path, k44_spec, counts):
    if counts == "below-256":
        shots = engine.apply_loss(engine.sample(k44_spec, 3_000, seed=61),
                                  engine.LossModel(0.55), seed=62).shots
    else:
        rng = np.random.default_rng(63)
        rows = rng.choice([0, 1, 255, 256, 2 ** 40], size=(40, 8))
        shots = rows[rng.integers(0, len(rows), size=2_000)]
        assert shots.max() >= 256
    path = tmp_path / "x.samples"
    engine.write_samples(
        engine.SampleSet.of(shots=shots, meta=engine.SampleMeta("simulated")), path)
    assert path.read_bytes() == sample_file_text(shots).encode("utf-8")


def test_ingest_three_identical_lines(tmp_path):
    path = tmp_path / "x.samples"
    path.write_text("[0,0,1,0,0,0,1,0]\n" * 3)
    got = engine.ingest_samples(path)
    assert len(got) == 3
    assert (got.shots == [0, 0, 1, 0, 0, 0, 1, 0]).all()


def test_ingest_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "x.samples"
    path.write_text("# header\n[0,0,0,0,0,0,0,0]\n\n[1,0,0,0,1,0,0,0]\n")
    assert len(engine.ingest_samples(path)) == 2


@pytest.mark.parametrize("line,fragment", [
    ("[1,2]", "expected 8"),
    ("[1,2,3,4,5,6,7,oops]", "invalid JSON"),
    ("[0,0,0,0,0,0,0,-1]", "negative"),
    ("[0,0,0,0,0,0,0,0.5]", "not an integer"),
    ('{"a":1}', "expected 8"),
])
def test_ingest_reports_line_and_reason(tmp_path, line, fragment):
    path = tmp_path / "bad.samples"
    path.write_text("[0,0,0,0,0,0,0,0]\n" + line + "\n")
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert err.value.line == 2
    assert fragment in str(err.value)


def test_ingest_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.samples"
    path.write_text("")
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)
    path.write_text("# only a comment\n")
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)


def test_ingest_refuses_more_than_max_shots(tmp_path, monkeypatch):
    # Repeats count as shots, and comments and blank lines do not.
    monkeypatch.setattr(engine, "MAX_SHOTS", 5)
    path = tmp_path / "x.samples"
    path.write_text("# five\n" + "[0,0,1,0,0,0,1,0]\n\n" * 4 + "[1,0,0,0,1,0,0,0]\n")
    assert len(engine.ingest_samples(path)) == 5
    path.write_text("[0,0,1,0,0,0,1,0]\n" * 6)
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert err.value.reason == "file holds more than 5 shots"
    assert err.value.line == 0


def test_ingest_refuses_more_than_max_shots_before_reading_on(tmp_path, monkeypatch):
    # The first 64 KB chunk passes the limit; the bad line after it is not read.
    monkeypatch.setattr(engine, "MAX_SHOTS", 10)
    path = tmp_path / "x.samples"
    path.write_bytes(b"[0,0,1,0,0,0,1,0]\n" * 5_000 + b"[1,2]\n")
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert err.value.reason == "file holds more than 10 shots"
    assert err.value.line == 0


# Ingests argv[1] in a child and prints its shots and the child's peak RSS in
# MB.  A process's ru_maxrss starts from the peak of the one that forked it,
# so the child is forked by this small launcher, not by the test process.
_INGEST_PEAK = """\
import resource, subprocess, sys
done = subprocess.run([sys.executable, "-c", "import sys; from gbsgraphs import "
                       "engine; print(len(engine.ingest_samples(sys.argv[1])))",
                       sys.argv[1]], capture_output=True, text=True, check=True)
print(done.stdout, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
"""


@pytest.mark.parametrize("skipped", [b"\n", b"# c\n"], ids=["blank", "comment"])
def test_ingest_holds_no_entry_per_skipped_line(tmp_path, skipped):
    # No index per skipped line: one shot among 10^7 of them peaks under 150 MB.
    path = tmp_path / "x.samples"
    path.write_bytes(b"[0,0,1,0,0,0,1,0]\n" + skipped * 10 ** 7)
    src = str(Path(engine.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _INGEST_PEAK, str(path)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    path.unlink()
    shots, peak_mb = map(int, done.stdout.split())
    assert shots == 1
    assert peak_mb < 150, f"peak RSS {peak_mb} MB"


def test_ingested_set_keeps_its_histogram_not_its_shots(tmp_path, k44_spec):
    # 200,000 shots as int64 rows are 12.8 MB; as a histogram and one row
    # number per shot they are a few hundred KB.
    drawn = engine.apply_loss(engine.sample(k44_spec, 200_000, seed=66),
                              engine.LossModel(0.55), seed=67)
    path = tmp_path / "x.samples"
    engine.write_samples(drawn, path)
    tracemalloc.start()
    try:
        samples = engine.ingest_samples(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(samples) == 200_000
    assert held < 2 * 10 ** 6, f"{held} bytes held"


@pytest.mark.parametrize("depth", [1_200, 64 * 1024])
def test_ingest_refuses_nesting_past_the_recursion_limit(tmp_path, depth):
    path = tmp_path / "x.samples"
    path.write_bytes(b"[0,0,1,0,0,0,1,0]\n" + b"[" * depth + b"\n")
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert (err.value.line, err.value.reason) == (2, "JSON nested too deeply")
    path.write_bytes(b"[0,0,1,0,0,0,1,0]\n")
    engine.meta_path_for(path).write_bytes(b"[" * 5_000)
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert (err.value.line, err.value.reason) == (0, "JSON nested too deeply")
    assert err.value.path == str(engine.meta_path_for(path))


def test_ingest_checks_threshold_consistency(tmp_path):
    path = tmp_path / "t.samples"
    path.write_text("[0,0,2,0,0,0,2,0]\n")
    meta = engine.meta_path_for(path)
    meta.write_text(json.dumps({"threshold": True}))
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)


_A, _B = b"[0,0,1,0,0,0,1,0]", b"[1,0,0,0,1,0,0,0]"


@pytest.mark.parametrize("content", [
    (_A + b"\n" + _B + b"\n") * 5 + _A + b"\n",
    b"[1,2]\n" + _A + b"\n" + _A + b"\n",
    _A + b"\n" + _B + b"\n[1,2]\n" + _A + b"\n[1,2]\n",
    _A + b"\n[0,0,0,0,0,0,0,-1]\n" + _A + b"\n[0,0,0,0,0,0,0,-1]\n",
    b"# h\n\n" + _A + b"\n# h\n\n  \n" + _B + b"\n# h\n\n",
    _A + b"\r\n" + _B + b"\r\n" + _A + b"\r\n" + _A + b"\n",
    _A + b"\n" + _B + b"\n" + _B,
    _A + b"\n\xff\xfe\n" + _A + b"\n\xff\xfe\n",
    b"\xff" + _A + b"\n",
    b"# h\n\n# h\n",
    b"[1" + b"0" * 5000 + b",0,0,0,0,0,0,0]\n" + _A + b"\n",
    b"[" + b",".join([b"9" * 18] * 8) + b"]\n",
    b"[" + b"1" + b"0" * 18 + b",0,0,0,0,0,0,0]\n" + _A + b"\n",
    b"[9223372036854775807,0,0,0,0,0,0,0]\n",
    _A + b"\n[9223372036854775807,1,0,0,0,0,0,0]\n",
    _A + b"\n[01,0,0,0,0,0,0,0]\n",
    b"[-0,0,0,0,0,0,0,1]\n" + _A + b"\n",
    _A + b"\n[1 2,0,0,0,0,0,0,0]\n",
    _A + b"\n" + _A + b"]\n",
    b"\t[\t0\t,1 ,\t0, 0,0,0,0,0 ]\t\n \t\n\t# h\n",
    b"\t" + _A + b"\t\r\n" + _A + b"\n",
    b"\f" + _A + b"\n" + _A + b"\n",
    _A + b"\n" + _A + b"\x00\n",
    "# h\u00e9 \u2713\n".encode() + _A + b"\n",
    _A + b"\n# \xff\n",
    _A + b"\n" + _B + b"\n" + _A,
    b"# h\n" + _A + b"\n# h",
    (_A + b"\n") * 70_000 + b"[0,0,0]\n" + _B + b"\n",
    _B + b"\n" + (_A + b"\n") * 70_000 + _B + b"\n",
    (b"# h\n\n" + _A + b"\n") * 30_000,
], ids=["repeats", "bad-first", "bad-middle-repeated", "negative-repeated",
        "comments-and-blanks", "crlf", "no-final-newline", "invalid-utf8",
        "invalid-utf8-first", "no-samples", "too-many-digits", "18-digits",
        "19-digits", "2^63-1", "sum-past-2^63-1", "leading-zero", "minus-zero",
        "space-in-count", "double-bracket", "tabs", "tab-crlf", "form-feed",
        "nul", "utf8-comment", "invalid-utf8-comment",
        "repeat-without-final-newline", "comment-without-final-newline",
        "bad-past-1mib", "repeat-across-1mib", "skipped-repeats-across-chunks"])
def test_ingest_matches_per_line_oracle(tmp_path, content):
    path = tmp_path / "x.samples"
    path.write_bytes(content)
    assert_ingest_matches_oracle(path)


def test_ingest_reads_written_samples_without_the_json_parser(
        tmp_path, monkeypatch, k44_spec):
    shots = engine.apply_loss(engine.sample(k44_spec, 2_000, seed=64),
                              engine.LossModel(0.55), seed=65).shots
    rng = np.random.default_rng(66)
    shots[:40] = rng.choice([0, 1, 256, 10 ** 18 - 1], size=(40, 8))
    path = tmp_path / "x.samples"
    engine.write_samples(
        engine.SampleSet.of(shots=shots, meta=engine.SampleMeta("simulated")), path)
    loaded = []
    json_loads = json.loads

    def loads(text, *args, **kwargs):
        loaded.append(text)
        return json_loads(text, *args, **kwargs)

    def parse_line(*args):
        raise AssertionError("a line went to _parse_line")

    monkeypatch.setattr(json, "loads", loads)
    monkeypatch.setattr(engine, "_parse_line", parse_line)
    got = engine.ingest_samples(path)
    assert loaded == [engine.meta_path_for(path).read_text(encoding="utf-8")]
    assert np.array_equal(got.shots, shots)


def _in_writer_form_by_definition(line: bytes) -> bool:
    # ``[c0,...,c7]\n`` with each count equal to its own ``%d`` rendering,
    # below 10^18.
    if not (line.startswith(b"[") and line.endswith(b"]\n")):
        return False
    fields = line[1:-2].split(b",")
    return len(fields) == graphs.N_NODES and all(
        field.isdigit() and b"%d" % int(field) == field and int(field) < 10 ** 18
        for field in fields)


_WRITER_COUNT = st.one_of(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=300),
    st.sampled_from([10, 100, 10 ** 17, 10 ** 18 - 1, 10 ** 18, 10 ** 19 - 1]))


@st.composite
def _sample_line(draw):
    """A writer-form line, or one with one mutation: a leading zero, an
    empty count, a digit before ``[`` or after ``]``, a space, CRLF, a
    non-ASCII comment, bad UTF-8 or a doubled bracket."""
    fields = [b"%d" % c for c in draw(st.lists(_WRITER_COUNT, min_size=8, max_size=8))]
    i = draw(st.integers(min_value=0, max_value=7))
    kind = draw(st.sampled_from(["writer"] * 6 + [
        "leading-zero", "empty", "digit-before", "digit-after", "space", "crlf",
        "comment", "bad-utf8", "bracket", "blank"]))
    if kind == "leading-zero":
        fields[i] = b"0" + fields[i]
    elif kind == "empty":
        fields[i] = b""
    line = b"[" + b",".join(fields) + b"]"
    if kind == "digit-before":
        line = draw(st.sampled_from([b"0", b"5"])) + line
    elif kind == "digit-after":
        line += draw(st.sampled_from([b"0", b"7"]))
    elif kind == "space":
        at = draw(st.integers(min_value=0, max_value=len(line)))
        line = line[:at] + b" " + line[at:]
    elif kind == "comment":
        line = "# h\u00e9 \u2713".encode()
    elif kind == "bad-utf8":
        at = draw(st.integers(min_value=0, max_value=len(line)))
        line = line[:at] + b"\xff" + line[at:]
    elif kind == "bracket":
        line += b"]"
    elif kind == "blank":
        line = b""
    return line + (b"\r\n" if kind == "crlf" else b"\n")


@given(lines=st.lists(_sample_line(), min_size=1, max_size=6))
@settings(max_examples=300)
def test_writer_form_check_agrees_with_its_definition(lines):
    for line in lines:
        assert engine._in_writer_form([line]) == _in_writer_form_by_definition(line)
        # The writer's form is a subset of the JSON-spaced form.
        assert not engine._in_writer_form([line]) or engine._SHOT_LINE.fullmatch(line)
    assert engine._in_writer_form(lines) == all(map(_in_writer_form_by_definition,
                                                    lines))


def test_shot_line_checks_refuse_near_misses_in_linear_time():
    # Inputs that would make a backtracking pattern retry each prefix.
    near_misses = [
        (b"[12,0,345,6,0,0,78,9]\n" * 3_600 + b"[0,0,0,0,0,0,0,0]x\n") * 13,
        b"7" * (1 << 20),
        b"[" * (1 << 16),
        b"[" + b"1" * 30_000 + b",0,0,0,0,0,0,0]\n",
        b"[" + b"," * 60_000 + b"]\n",
    ]
    start = time.perf_counter()
    for text in near_misses:
        assert not engine._in_writer_form(text.splitlines(True))
        assert not engine._SHOT_LINE.fullmatch(text)
    assert time.perf_counter() - start < 2.0


@given(lines=st.lists(_sample_line(), min_size=1, max_size=6),
       picks=st.lists(st.integers(min_value=0, max_value=5), max_size=24),
       final_newline=st.booleans(),
       chunk=st.sampled_from([1, 25, 80, engine._CHUNK_BYTES]))
@settings(max_examples=150)
def test_ingest_matches_per_line_oracle_on_mutated_writer_lines(
        tmp_path_factory, lines, picks, final_newline, chunk):
    # Repeats of earlier lines, and chunks from one line to the whole file.
    text = b"".join(lines + [lines[i % len(lines)] for i in picks])
    if not final_newline:
        text = text[:-1]
    path = tmp_path_factory.mktemp("mutated") / "f.samples"
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_CHUNK_BYTES", chunk)
        assert_ingest_matches_oracle(path)


@pytest.mark.parametrize("chunk", [1, 300, 1 << 18])
def test_ingest_reads_writer_form_chunks_without_a_pattern_per_line(
        tmp_path, monkeypatch, k44_spec, chunk):
    shots = engine.apply_loss(engine.sample(k44_spec, 3_000, seed=70),
                              engine.LossModel(0.55), seed=71).shots
    shots[:30] = np.random.default_rng(72).choice([0, 9, 10, 256, 10 ** 18 - 1],
                                                  size=(30, 8))
    path = tmp_path / "x.samples"
    engine.write_samples(
        engine.SampleSet.of(shots=shots, meta=engine.SampleMeta("simulated")), path)

    class NoMatch:
        def fullmatch(self, raw):
            raise AssertionError("a line went to a pattern")

    monkeypatch.setattr(engine, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(engine, "_SHOT_LINE", NoMatch())
    got = engine.ingest_samples(path)
    assert np.array_equal(got.shots, shots)
    assert_histogram_of(got)


def test_build_table_and_ingest_leave_no_cyclic_garbage(tmp_path, k44_spec):
    path = tmp_path / "x.samples"
    path.write_bytes((_A + b"\n" + _B + b"\n# h\n") * 50)
    gc.collect()
    gc.disable()
    try:
        engine.build_table(k44_spec, 8)
        assert gc.collect() == 0
        engine.ingest_samples(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_meta_path_convention():
    assert engine.meta_path_for("runs/a.samples").name == "a.meta.json"
    assert engine.meta_path_for("runs/a").name == "a.meta.json"
    for path, meta in [("x.tar.gz", "x.tar.meta.json"), (".hidden", ".hidden.meta.json"),
                       ("d/.hidden.samples", "d/.hidden.meta.json"),
                       ("x..samples", "x..meta.json"), ("a.b.", "a.b..meta.json"),
                       ("..", "...meta.json"), ("x/", "x.meta.json")]:
        assert engine.meta_path_for(path) == Path(meta)
    for path in [".", ""]:
        with pytest.raises(ValueError):
            engine.meta_path_for(path)
