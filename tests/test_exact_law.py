"""The lossy law against 60-digit ``mpmath`` sums.

Every reference is summed from formulas the program does not use: the pair
matrix from its finite closed form over the union and intersection of the
two chosen photon sets (spot-checked against the direct series), the block
total from the two geometric factors of its generating function, the
rank-fold totals by convolution, and the within-cap chances by listing every
count vector.  All analytic values must match to 1e-13 relative wherever the
reference is a normal float.
"""

import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gbsgraphs import engine, features
from gbsgraphs.embedding import enumerate_embeddable
from gbsgraphs.engine import LossModel

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp
mp.dps = 60

ETAS = (0.01, 0.3, 0.55, 0.9, 0.999)
TANH = mpmath.tanh(1)
SECH2 = mpmath.sech(1) ** 2
REL = 1e-13


def assert_close(got, want, where):
    got = np.asarray(got, dtype=float)
    for index, value in np.ndenumerate(got):
        ref = want[index] if isinstance(want, np.ndarray) else want
        if abs(ref) >= sys.float_info.min:
            assert abs(value - ref) <= REL * ref, (where, index, value, ref)
        else:
            assert abs(value) < sys.float_info.min, (where, index, value, ref)


def pair_reference(eta, size):
    """P[S, D], S, D <= size: sech^2 sum_j C(S+D-j, S) C(S, j)
    t^(2(S+D-j)) eta^(S+D) q^(S+D-2j) / (1 - t^2 q^2)^(S+D-j+1)."""
    eta = mpmath.mpf(eta)
    q = 1 - eta
    norm = 1 - TANH ** 2 * q ** 2
    u = TANH ** 2 / norm
    ratio = [(1 / (u * q * q)) ** j for j in range(size + 1)]
    scale = [SECH2 / norm * (u * eta * q) ** total for total in range(2 * size + 1)]
    ref = np.empty((size + 1, size + 1), dtype=object)
    for s, d in itertools.product(range(size + 1), repeat=2):
        terms = [mpmath.mpf(math.comb(s + d - j, s) * math.comb(s, j))
                 for j in range(min(s, d) + 1)]
        ref[s, d] = scale[s + d] * mpmath.fdot(terms, ratio)
    return ref


def pair_series(eta, s, d, terms=2000):
    eta = mpmath.mpf(eta)
    q = 1 - eta
    return mpmath.fsum(SECH2 * TANH ** (2 * n) * math.comb(n, s) * math.comb(n, d)
                       * eta ** (s + d) * q ** (2 * n - s - d)
                       for n in range(max(s, d), max(s, d) + terms))


@functools.cache
def total_references(eta, top):
    """P(T detected), T <= top, for ranks 1..4: block totals ½ sech^2
    (t eta)^T [(1 - t q)^-(T+1) + (-1)^T (1 + t q)^-(T+1)], convolved."""
    eta = mpmath.mpf(eta)
    tq = TANH * (1 - eta)
    block = [SECH2 / 2 * (TANH * eta) ** n
             * ((1 - tq) ** -(n + 1) + (-1) ** n * (1 + tq) ** -(n + 1))
             for n in range(top + 1)]
    laws = [block]
    for _ in range(3):
        laws.append([mpmath.fdot(laws[-1][:n + 1], block[n::-1])
                     for n in range(top + 1)])
    return [np.array(law, dtype=object) for law in laws]


def split_weights(modes, n_max, size):
    """c[S]: chance that S photons spread uniformly over the modes put none
    above n_max, by listing every count vector."""
    c = [Fraction(0)] * (size + 1)
    for counts in itertools.product(range(n_max + 1), repeat=modes):
        total = sum(counts)
        if total <= size:
            ways = math.factorial(total)
            for x in counts:
                ways //= math.factorial(x)
            c[total] += Fraction(ways, modes ** total)
    return [mpmath.mpf(x.numerator) / x.denominator for x in c]


def one_spec_per_block_shape():
    shapes = {}
    for code, spec in enumerate_embeddable():
        shape = tuple(sorted((len(sig), len(idl)) for sig, idl in spec.blocks))
        shapes.setdefault(shape, spec)
    return list(shapes.values())


@pytest.mark.parametrize("eta", ETAS)
def test_pair_matrix_matches_mpmath(eta):
    ref = pair_reference(eta, 60)
    for s, d in ((0, 0), (3, 5), (60, 60), (60, 0)):
        assert abs(ref[s, d] / pair_series(eta, s, d) - 1) < 1e-40, (s, d)
    assert_close(engine.pair_matrix(eta, 60), ref, f"P at eta {eta}")


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_open_cap_totals_match_mpmath(rank):
    events = list(range(340))
    got = engine.detected_total_probabilities(rank, events, list(ETAS))
    for row, eta in zip(got, ETAS):
        assert_close(row, total_references(eta, 339)[rank - 1],
                     f"rank {rank} eta {eta}")


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_capped_events_match_mpmath(n_max):
    events = list(range(n_max + 1, 8 * n_max + 3))
    for spec in one_spec_per_block_shape():
        got = engine.capped_event_probabilities(spec, events, n_max, list(ETAS))
        for row, eta in zip(got, ETAS):
            pair = pair_reference(eta, 4 * n_max)
            law = [mpmath.mpf(1)]
            for sig, idl in spec.blocks:
                cs = split_weights(len(sig), n_max, 4 * n_max)
                cd = split_weights(len(idl), n_max, 4 * n_max)
                block = [mpmath.fsum(pair[s, t - s] * cs[s] * cd[t - s]
                                     for s in range(max(0, t - 4 * n_max),
                                                    min(t, 4 * n_max) + 1))
                         for t in range(8 * n_max + 1)]
                law = [mpmath.fsum(law[j] * block[n - j]
                                   for j in range(len(law)) if 0 <= n - j < len(block))
                       for n in range(len(law) + len(block) - 1)]
            want = np.array([law[k] if k < len(law) else mpmath.mpf(0)
                             for k in events], dtype=object)
            assert_close(row, want, f"{spec.code} n_max {n_max} eta {eta}")


def test_default_orbits_match_mpmath():
    for spec in one_spec_per_block_shape():
        for eta in ETAS:
            fv = features.fv_orbits_analytic(spec, features.DEFAULT_ORBITS,
                                             LossModel(eta))
            pair = pair_reference(eta, 4)
            want = []
            for orbit in features.DEFAULT_ORBITS:
                total = mpmath.mpf(0)
                for pattern in features.orbit_patterns(orbit).tolist():
                    if any(pattern[m] for m in range(8)
                           if all(m not in side for block in spec.blocks
                                  for side in block)):
                        continue
                    prob = mpmath.mpf(1)
                    for block in spec.blocks:
                        sides = [[pattern[m] for m in side] for side in block]
                        for counts, modes in zip(sides, block):
                            ways = math.factorial(sum(counts))
                            for x in counts:
                                ways //= math.factorial(x)
                            prob *= mpmath.mpf(ways) / len(modes) ** sum(counts)
                        prob *= pair[sum(sides[0]), sum(sides[1])]
                    total += prob
                want.append(total)
            assert_close(fv.values, np.array(want, dtype=object),
                         f"{spec.code} eta {eta}")


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_total_photon_tail_matches_mpmath(rank):
    for cutoff in (8, 30, 60, 90, 150):
        head = mpmath.fsum(math.comb(n + rank - 1, n) * SECH2 ** rank * TANH ** (2 * n)
                           for n in range(cutoff + 1))
        got = engine.total_photon_tail(rank, cutoff)
        assert got >= 0.0
        assert_close(got, 1 - head, f"rank {rank} cutoff {cutoff}")


def test_underflow_bound_holds():
    pairs = engine.UNDERFLOW_PAIRS
    assert TANH ** (2 * pairs) < mpmath.mpf(2) ** -1077
    assert TANH ** (2 * (pairs - 1)) >= mpmath.mpf(2) ** -1077
