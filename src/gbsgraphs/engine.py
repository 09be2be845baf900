"""Exact pattern probabilities, the product law, seeded sampling, and loss.

``pattern_probability`` (Ryser's formula) and ``build_table`` (each
permanent read off the multinomial theorem; see there for the rounding
order) compute pattern probabilities as the paper does, from permanents, and
serve as the reference.  Every
embeddable graph is ``rank`` identical K_{a,b} blocks, each one squeezer at
r = 1 whose n photon pairs split uniformly over the block's modes, so the
law factorises over ``EmbeddingSpec.blocks``: ``detected_probabilities`` and
``sample`` use that product law, with no table.  Its lossy values come from
positive-term recurrences of the block's generating function, so nothing is
truncated and nothing cancels.
Sampling uses seeded PCG64 streams, bit-reproducible for a fixed numpy
version.  ``gbsgraphs simulate`` draws sampling and loss from the independent
streams ``numpy.random.SeedSequence(seed).spawn(2)``; ``gbsgraphs pipeline``
gives graph i of the catalog ``SeedSequence(seed).spawn(75)[i].spawn(2)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import graphs
from .embedding import SQUEEZING, EmbeddingSpec
from .errors import SampleFormatError, ValidationError

#: Largest repeated-matrix size the permanent kernel accepts.
MAX_PERMANENT_SIZE = 16

#: Default table truncation, in photon pairs (16 photons).
DEFAULT_CUTOFF_PAIRS = 8

#: Most shots one ``sample`` call draws: 100x the paper's 100k per graph.  It
#: draws them as 640 MB of int64 counts; the ``SampleSet`` it returns keeps 1
#: or 2 bytes a shot.
MAX_SHOTS = 10 ** 7

_SECH = 1.0 / math.cosh(SQUEEZING)
_TANH = math.tanh(SQUEEZING)

#: Pair number past which a block no longer counts.  One block emits M or
#: more pairs with probability sum_{n >= M} sech^2(1) tanh^(2n)(1) =
#: tanh(1)^(2M), and M is the least integer with tanh(1)^(2M) < 2^-1077.  A
#: graph has at most 4 blocks, so an outcome in which any block emits M or more
#: pairs has probability below 4 * 2^-1077 = 2^-1075, half the smallest
#: positive double.  A probability made only of such outcomes rounds to 0.0:
#: a pattern with a side total of M or more, or a detected total above
#: 2 * rank * (M - 1).  Leaving such outcomes out of a sum moves it by less.
UNDERFLOW_PAIRS = math.floor(1077 / -math.log2(_TANH ** 2)) + 1


def _factorials(count: int) -> tuple[np.ndarray, np.ndarray]:
    # k! = m * 2^e with m in [0.5, 1), for k < count: m is within an ulp of
    # exact, however far k! lies past the float range.
    mant, exp, value = [], [], 1
    for k in range(count):
        value *= max(k, 1)
        exp.append(value.bit_length())
        shift = max(exp[-1] - 64, 0)
        mant.append(math.ldexp(float(value >> shift), shift - exp[-1]))
    return np.array(mant), np.array(exp)


_FACT_MANT, _FACT_EXP = _factorials(UNDERFLOW_PAIRS)


# ---------------------------------------------------------------------------
# Permanent kernels
# ---------------------------------------------------------------------------

def permanent(matrix) -> float:
    """Matrix permanent by Ryser's formula with Gray-code subset updates.

    O(2^n * n): the per-row sums over the current column subset are updated
    incrementally as the Gray code flips one column at a time.  The 0x0
    permanent is 1 by convention.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"permanent needs a square matrix, got {a.shape}")
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n > MAX_PERMANENT_SIZE:
        raise ValidationError(
            f"permanent kernel supports n <= {MAX_PERMANENT_SIZE}, got {n}")
    cols = a.T.tolist()
    sums = [0.0] * n
    total = 0.0
    gray = 0
    sign = 1.0           # flipped before use: subset sizes alternate odd/even
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        col = cols[j]
        if new_gray & (1 << j):
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        sign = -sign
        prod = 1.0
        for s in sums:
            prod *= s
        total += sign * prod
        gray = new_gray
    if n % 2:
        total = -total
    return total


# ---------------------------------------------------------------------------
# Pattern probabilities
# ---------------------------------------------------------------------------

def validate_pattern(pattern) -> np.ndarray:
    """Check an 8-mode photon count pattern; return it as an int array."""
    arr = np.asarray(pattern)
    if arr.shape != (graphs.N_NODES,):
        raise ValidationError(
            f"pattern must have {graphs.N_NODES} counts, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("pattern counts must be integers")
        arr = arr.astype(np.int64)
    if (arr < 0).any():
        raise ValidationError("pattern counts must be nonnegative")
    return arr.astype(np.int64)


def pattern_probability(spec: EmbeddingSpec, pattern) -> float:
    """Exact probability of one photon-count pattern for an embedded graph.

    Zero whenever the signal and idler totals differ (photons arrive in
    pairs).  Otherwise, with signal counts s, idler counts d, and B the
    scaled matrix, the probability is
    sech(1)^(2 rank) * permanent(B[d, s])^2 / (prod s_i! * prod d_j!)
    where B[d, s] repeats row i of B d_i times and column j s_j times.
    """
    arr = validate_pattern(pattern)
    s, d = arr[:4], arr[4:]
    if s.sum() != d.sum():
        return 0.0
    size = int(s.sum())
    if size > MAX_PERMANENT_SIZE:
        raise ValidationError(
            f"pattern needs a {size}x{size} permanent; kernel bound is "
            f"{MAX_PERMANENT_SIZE}")
    sub = np.repeat(np.repeat(spec.scaled_matrix, d, axis=0), s, axis=1)
    divisor = 1
    for count in arr:
        divisor *= math.factorial(int(count))
    return _SECH ** (2 * spec.rank) * permanent(sub) ** 2 / divisor


def total_photon_distribution(rank: int, pairs: int) -> float:
    """Probability of emitting exactly ``pairs`` photon pairs.

    Negative-binomial law: the rank-fold convolution of the geometric
    pair-number distribution of a single squeezer at r = 1.  The detected
    lossless total is 2 * pairs.
    """
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")
    if pairs < 0:
        raise ValidationError(f"pair count must be >= 0, got {pairs}")
    if pairs > 10 ** 6:   # tanh(1)^(2 pairs) is 0.0; a huge comb overflows float
        return 0.0
    return (math.comb(pairs + rank - 1, pairs)
            * _SECH ** (2 * rank) * _TANH ** (2 * pairs))


def total_photon_tail(rank: int, cutoff_pairs: int) -> float:
    """Mass of the pair-number law beyond ``cutoff_pairs`` = c: fewer than
    ``rank`` successes, each of chance sech^2(1), in c + rank trials, so
    sum_{k < rank} C(c + rank, k) sech^(2k)(1) tanh^(2(c + rank - k))(1)."""
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")
    if not 0 <= cutoff_pairs <= 10 ** 6:   # all mass, or 0.0 as in the law above
        return float(cutoff_pairs < 0)
    trials = cutoff_pairs + rank
    return math.fsum(math.comb(trials, k) * _SECH ** (2 * k)
                     * _TANH ** (2 * (trials - k)) for k in range(rank))


def min_cutoff_for_mass(rank: int, mass: float = 0.99,
                        floor: int = DEFAULT_CUTOFF_PAIRS) -> int:
    """Smallest cutoff (at least ``floor``) whose covered mass reaches ``mass``.

    The mean photon number grows with rank, so higher ranks need deeper
    tables than the rank-1 default to cover the same share of the law.
    """
    cutoff = floor
    while 1.0 - total_photon_tail(rank, cutoff) < mass:
        cutoff += 1
        if cutoff > 200:
            raise ValidationError(f"mass target {mass} is unreachable")
    return cutoff


def _thinning(etas: np.ndarray) -> tuple[np.ndarray, ...]:
    # sech^2(1), t^2 q eta and t^2 eta^2 over 1 - t^2 q^2, t = tanh(1) and
    # q = 1 - eta; the denominator, written sech^2(1) + t^2 eta (1 + q), is 1
    # at eta = 1 and sech^2(1) at eta = 0, exactly.
    t2, q = _TANH ** 2, 1.0 - etas
    norm = _SECH ** 2 + t2 * etas * (1.0 + q)
    return _SECH ** 2 / norm, t2 * q * etas / norm, t2 * etas * etas / norm


def detected_total_probabilities(rank: int, events, etas) -> np.ndarray:
    """P(k photons detected in total after uniform loss eta), one row per
    transmission in ``etas`` and one column per total k in ``events``.

    With t = tanh(1) and q = 1 - eta, the law's generating function
    sech^(2 rank)(1) (1 - t^2 (q + eta z)^2)^-rank gives the recurrence
    n (1 - t^2 q^2) P_n = 2 t^2 q eta (n - 1 + rank) P_{n-1}
    + t^2 eta^2 (n - 2 + 2 rank) P_{n-2}, from P_0 = (sech^2(1) /
    (1 - t^2 q^2))^rank: every term is positive, so nothing cancels.  At
    eta = 1 the values are ``total_photon_distribution``'s, bit for bit.
    """
    if not 1 <= rank <= 4:
        raise ValidationError(f"rank must be in 1..4, got {rank}")
    etas = np.asarray(etas, dtype=float)
    out = np.zeros((len(etas), len(events)))
    columns: dict[int, list[int]] = {}
    for i, k in enumerate(events):
        columns.setdefault(k, []).append(i)
    start, a, b = _thinning(etas)
    older, old = np.zeros(len(etas)), np.ones(len(etas))
    for _ in range(rank):
        old = old * start
    # Totals above 2 rank (UNDERFLOW_PAIRS - 1) are 0.0 and stay 0.0.
    bound = 2 * rank * (UNDERFLOW_PAIRS - 1)
    for n in range(max((k for k in events if k <= bound), default=0) + 1):
        if n:
            older, old = old, (2.0 * a * (n - 1 + rank) * old
                               + b * (n - 2 + 2 * rank) * older) / n
        if n in columns:
            out[:, columns[n]] = old[:, None]
    if 1.0 in etas:
        out[etas == 1.0] = [total_photon_distribution(rank, k // 2) if k % 2 == 0
                            else 0.0 for k in events]
    return out


# ---------------------------------------------------------------------------
# Product law of the K_{a,b} blocks
# ---------------------------------------------------------------------------

def _pair_walk(etas, top: int, depth: int):
    """Fill P[S, T - S] into buf[T % depth, S + 1, i] for etas[i], S = 0..T,
    and yield buf after each T = 0..top; depth >= 3, or top + 1 to keep all.

    P[S, D] is the chance that a block detects S signal and D idler photons
    after uniform loss eta.  With t = tanh(1) and q = 1 - eta, the block's
    generating function sech^2(1) / (1 - t^2 (q + eta u)(q + eta v)) gives
    (1 - t^2 q^2) P[S, D] = sech^2(1) [S = D = 0]
    + t^2 q eta (P[S-1, D] + P[S, D-1]) + t^2 eta^2 P[S-1, D-1]:
    positive terms, each from the two anti-diagonals before.  The skewed
    (depth, top + 2, len(etas)) array is zero outside S = 0..T, so each
    anti-diagonal is one product of the row before, shared by its two
    neighbours, and two in-place steps, in the order of the sum above, whose
    padding adds exact zeros.  Anti-diagonal T overwrites [1, T + 2)
    of the row that held T - depth, within [1, T - 1), so the zeros hold.
    """
    start, a, b = _thinning(np.asarray(etas, dtype=float))
    buf = np.zeros((depth, top + 2, len(start)))
    buf[0, 1] = start
    yield buf
    for total in range(1, top + 1):
        step = a * buf[(total - 1) % depth, :total + 2]
        new = np.add(step[1:], step[:-1], out=buf[total % depth, 1:total + 2])
        if total > 1:
            new += b * buf[(total - 2) % depth, :total + 1]
        yield buf


def pair_matrix(eta: float, size: int) -> np.ndarray:
    """P[S, D], S, D <= size, at transmission eta: one gather from the
    whole walk of ``_pair_walk``, which holds P[S, T - S] at buf[T, S + 1, 0]."""
    *_, buf = _pair_walk([eta], 2 * size, 2 * size + 1)
    s = np.arange(size + 1)
    return buf[s[:, None] + s, s[:, None] + 1, 0]


#: (3/4)^j for j < UNDERFLOW_PAIRS, the one power ``_binomial`` takes: its
#: bases m / 2^c, c = (m - 1).bit_length(), are 1 for m = 1, 2, 4 and 3/4 for 3.
_THREE_QUARTERS = 0.75 ** np.arange(UNDERFLOW_PAIRS)


def _binomial(n, k, modes: int) -> np.ndarray:
    # C(n, k) (modes - 1)^(n - k) / modes^n for arrays k <= n < UNDERFLOW_PAIRS
    # and 2 <= modes <= 4: the chance that k of n photons spread uniformly over
    # ``modes`` modes land on a given one.  m^j is (m / 2^c)^j 2^(c j) with
    # c = (m - 1).bit_length(), so no factor leaves the float range; a power
    # of m / 2^c = 1 is 1.0 and left out.
    c, d = (modes - 2).bit_length(), (modes - 1).bit_length()
    rest = n - k
    mant = _FACT_MANT[n] / (_FACT_MANT[k] * _FACT_MANT[rest])
    if modes == 4:
        mant = mant * _THREE_QUARTERS[rest]
    elif modes == 3:
        mant = mant / _THREE_QUARTERS[n]
    return np.ldexp(mant, _FACT_EXP[n] - _FACT_EXP[k] - _FACT_EXP[rest]
                    + c * rest - d * n)


def _split(counts: np.ndarray) -> np.ndarray:
    # The chance that each row's total, spread uniformly over the last axis's
    # modes, lands as that row: one binomial per mode but the last.
    modes = counts.shape[-1]
    rest, prob = counts.sum(axis=-1), np.ones(counts.shape[:-1])
    for i in range(modes - 1):
        prob *= _binomial(rest, counts[..., i], modes - i)
        rest = rest - counts[..., i]
    return prob


@functools.lru_cache(maxsize=128)
def _sides(blocks: tuple) -> tuple:
    # The sides of a spec's blocks, each block's signal side then its idler
    # side: a (8, sides) 0/1 matrix of their modes, a per-mode count limit
    # (UNDERFLOW_PAIRS on a block's modes, 1 elsewhere), and per mode count
    # of 2 or more, the sides' modes and numbers.  Read-only, and cached
    # for all 75 embeddable graphs, one layout each.
    sides = [modes for block in blocks for modes in block]
    sums = np.zeros((graphs.N_NODES, len(sides)), dtype=np.int64)
    limit = np.ones(graphs.N_NODES, dtype=np.int64)
    for j, modes in enumerate(sides):
        sums[list(modes), j] = 1
        limit[list(modes)] = UNDERFLOW_PAIRS
    groups = tuple(
        (np.array([m for m in sides if len(m) == size], dtype=np.intp),
         [j for j, m in enumerate(sides) if len(m) == size])
        for size in sorted({len(m) for m in sides if len(m) > 1}))
    for array in (sums, limit, *(modes for modes, _ in groups)):
        array.flags.writeable = False
    return sums, limit, groups


def detected_probabilities(spec: EmbeddingSpec, patterns,
                           eta: float = 1.0) -> np.ndarray:
    """Exact probability of each detected pattern after uniform loss eta.

    A block whose sides detect S and D photons contributes P[S, D] (see
    ``pair_matrix``) times the two uniform multinomial splits, which equals
    ``pattern_probability`` thinned per mode.  The sides of one mode count
    are split in one call, and the factors multiply side by side, then
    block by block.
    """
    pats = np.asarray(patterns, dtype=np.int64).reshape(-1, graphs.N_NODES)
    if (pats < 0).any():
        raise ValidationError("pattern counts must be nonnegative")
    sums, limit, groups = _sides(tuple(spec.blocks))
    totals = pats @ sums
    # A count or side total of UNDERFLOW_PAIRS or more has probability 0.0,
    # and a photon outside every block never occurs.  Testing the counts first
    # also keeps a side total that wrapped round int64 out.
    live = (pats < limit).all(axis=1) & (totals < UNDERFLOW_PAIRS).all(axis=1)
    pats, totals = np.where(live[:, None], pats, 0), np.where(live[:, None], totals, 0)
    pair = pair_matrix(eta, int(totals.max(initial=0)))
    # A side of one mode splits with chance 1.0, which leaves prob unchanged.
    splits = {}
    for modes, numbers in groups:
        splits.update(zip(numbers, _split(pats[:, modes]).T))
    prob = live.astype(float)
    for side in sorted(splits):
        prob *= splits[side]
    for factor in pair[totals[:, 0::2], totals[:, 1::2]].T:
        prob *= factor
    return prob


@functools.lru_cache(maxsize=32)
def _within_cap(modes: int, n_max: int, size: int) -> np.ndarray:
    # c[S], S <= size: chance that S photons spread uniformly over ``modes``
    # modes put none above n_max.  Mode by mode: the first takes j of the S
    # photons with chance Bin(j; S, 1/modes), the others split the rest.
    # Cached read-only: sides of 1 to 4 modes serve every graph.
    top = min(n_max, size)
    side = np.arange(size + 1)[:, None]
    taken = np.arange(top + 1)
    ok = taken <= side
    taken = np.where(ok, taken, 0)
    cap = (side[:, 0] <= top).astype(float)
    for m in range(2, modes + 1):
        cap = (np.where(ok, _binomial(side, taken, m), 0.0)
               * cap[side - taken]).sum(axis=1)
    cap.flags.writeable = False
    return cap


def _convolve_rows(x: np.ndarray, y: np.ndarray, width: int) -> np.ndarray:
    # The first ``width`` columns of each row's convolution, from the first
    # ``width`` columns of x.  Column c sums y[j] x[c - j] over j ascending
    # whatever the widths, so it keeps its bits.
    x = x[:, :width]
    out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1))
    for j in range(y.shape[1]):
        out[:, j:j + x.shape[1]] += y[:, j:j + 1] * x
    return out[:, :width]


def capped_event_probabilities(spec: EmbeddingSpec, events: list[int],
                               n_max: int, etas) -> np.ndarray:
    """P(k photons detected, none above n_max on any mode), one row per
    transmission in ``etas`` and one column per total k in ``events``.

    The sum over the event's member patterns, grouped by block: sides that
    detect S and D photons contribute P[S, D] times the chances that both
    splits stay within the cap.  No member is listed: the pair law fills
    len(etas) (top + 1)^2 / 2 cells, and a call needing more than 2^28 raises
    ValidationError.
    """
    etas = np.asarray(etas, dtype=float)
    size = min(max(events), 4 * n_max, UNDERFLOW_PAIRS - 1)     # per side
    top = min(max(events), 2 * size)                            # per block
    cells = len(etas) * (top + 1) ** 2 // 2
    if cells > 2 ** 28:     # 71 etas to total 2740 take 1.8 s on a 2-vCPU Xeon
        raise ValidationError(f"capped event law needs {cells:,} cells, over 2^28; "
                              "use a coarser --step or smaller --events")
    # The blocks are one K_{a,b} up to orientation, and P[S, D] = P[D, S],
    # so every block's law is the first one's.
    sig, idl = (_within_cap(len(modes), n_max, size) for modes in spec.blocks[0])
    # weights[T, S] = sig[S] idl[T - S], the cap weight of S signal and T - S
    # idler photons, for the S of anti-diagonal T within both sides' sizes.
    s = np.arange(size + 1)
    weights = sig * idl[np.clip(np.arange(top + 1)[:, None] - s, 0, size)]
    block = np.zeros((len(etas), top + 1))
    for total, pair in enumerate(_pair_walk(etas, top, 3)):
        low, high = max(0, total - size), min(total, size) + 1
        # One contiguous row per eta: einsum's summation order, and so the
        # bits, do not depend on the layout of the walk.
        diag = np.ascontiguousarray(pair[total % 3, low + 1:high + 1].T)
        block[:, total] = np.einsum("ij,j->i", diag, weights[total, low:high])
    law = block
    for _ in range(spec.rank - 1):
        law = _convolve_rows(law, block, max(events) + 1)
    out = np.zeros((len(etas), len(events)))
    for i, k in enumerate(events):
        if k < law.shape[1]:
            out[:, i] = law[:, k]
    return out


# ---------------------------------------------------------------------------
# Truncated probability tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Every pattern with signal total = idler total <= cutoff, with its
    exact probability, sorted lexicographically."""

    spec: EmbeddingSpec
    cutoff_pairs: int
    patterns: np.ndarray        # (N, 8) int64
    probs: np.ndarray           # (N,) float64

    def __len__(self) -> int:
        return len(self.probs)


def _count_vectors(modes: list[int], cutoff: int) -> np.ndarray:
    # Every 4-vector of counts on ``modes`` (ascending) with total <= cutoff,
    # in lexicographic order: each row grows one mode at a time into one row
    # per count its remaining budget allows, in ascending order.
    out, room = np.zeros((1, 4), dtype=np.int64), np.array([cutoff])
    for j in modes:
        reps = room + 1
        out = np.repeat(out, reps, axis=0)
        out[:, j] = np.arange(len(out)) - np.repeat(np.cumsum(reps) - reps, reps)
        room = np.repeat(room, reps) - out[:, j]
    return out


def build_table(spec: EmbeddingSpec,
                cutoff_pairs: int = DEFAULT_CUTOFF_PAIRS) -> ProbabilityTable:
    """Enumerate all patterns up to ``cutoff_pairs`` photon pairs exactly.

    In perm(M[d, s]) = (prod_j s_j!) [x^s] prod_i (row_i . x)^d_i the rows of
    a K_{a,b} block are one linear form, so by the multinomial theorem an
    entry is (scale * N(s)) / prod_i d_i!, product first, with scale =
    sech(1)^(2 rank) c^(2 pairs) and N(s) = prod_B (D_B!)^2 / prod_j s_j!
    when each block's signal total equals its idler total D_B.  N(s) and
    prod_i d_i! are exact integers, each rounded to float once, so values
    are bit-identical under simultaneous signal/idler mode permutations.
    """
    if cutoff_pairs < 1:
        raise ValidationError(f"cutoff_pairs must be >= 1, got {cutoff_pairs}")
    sigs = [list(sig) for sig, _ in spec.blocks]
    idls = [[i - 4 for i in idl] for _, idl in spec.blocks]
    s = _count_vectors(sorted(sum(sigs, [])), cutoff_pairs)
    d = _count_vectors(sorted(sum(idls, [])), cutoff_pairs)
    weight = (cutoff_pairs + 1) ** np.arange(len(sigs))
    s_totals = np.stack([s[:, modes].sum(axis=1) for modes in sigs], axis=1)
    d_key = np.stack([d[:, modes].sum(axis=1) for modes in idls], axis=1) @ weight
    # Join signal-major on equal block totals, each signal vector's idler
    # vectors in lexicographic order: the table comes out sorted.
    order = np.argsort(d_key, kind="stable")
    grouped, s_key = d_key[order], s_totals @ weight
    start = np.searchsorted(grouped, s_key, side="left")
    count = np.searchsorted(grouped, s_key, side="right") - start
    s_idx = np.repeat(np.arange(len(s)), count)
    d_idx = order[np.arange(len(s_idx))
                  + np.repeat(start - np.cumsum(count) + count, count)]
    fact = np.array([math.factorial(k) for k in range(cutoff_pairs + 1)],
                    dtype=object)
    numer = (fact[s_totals] ** 2).prod(axis=1) // fact[s].prod(axis=1)
    scale = np.array([_SECH ** (2 * spec.rank) * spec.scale_c ** (2 * pairs)
                      for pairs in range(cutoff_pairs + 1)])
    head = scale[s.sum(axis=1)] * numer.astype(float)
    probs = head[s_idx] / fact[d].prod(axis=1).astype(float)[d_idx]
    return ProbabilityTable(spec, cutoff_pairs,
                            np.concatenate([s[s_idx], d[d_idx]], axis=1), probs)


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LossModel:
    """Uniform pre-detection loss: each photon survives with probability eta."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValidationError(f"transmission eta must be in [0, 1], got {self.eta}")

    @property
    def loss_factor(self) -> float:
        return 1.0 - self.eta


@dataclass(frozen=True)
class SampleMeta:
    source: str                       # "simulated" | "ingested"
    code: str | None = None
    seed: int | None = None
    loss: float | None = None         # effective transmission eta, if thinned
    threshold: bool = False


def _unique_rows(rows: np.ndarray) -> tuple:
    """``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
    with a flat inverse, the distinct rows as uint8 when every count lies
    in [0, 256).

    Such rows are keyed as one uint64 each, column 0 most significant, so
    the keys sort as the rows do.
    """
    if rows.size and 0 <= rows.min() and rows.max() < 256:
        keys = rows[:, ::-1].astype(np.uint8, order="C").view("<u8").ravel()
        keys, inverse, counts = np.unique(keys, return_inverse=True,
                                          return_counts=True)
        distinct = keys.view(np.uint8).reshape(-1, rows.shape[1])[:, ::-1].copy()
    else:
        distinct, inverse, counts = np.unique(rows, axis=0, return_inverse=True,
                                              return_counts=True)
    return distinct, inverse.ravel(), counts


def _row_dtype(count: int) -> np.dtype:
    # The smallest unsigned dtype that numbers ``count`` rows.
    return np.min_scalar_type(max(count - 1, 0))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of detected patterns plus provenance, read-only.

    ``histogram`` is the distinct shots in ascending lexicographic order and
    how many shots equal each, as ``np.unique(shots, axis=0,
    return_counts=True)`` gives them, with uint8 rows when every count lies
    in [0, 256).  ``rows`` is each shot's row in it, in order, in the
    smallest unsigned dtype that numbers the rows (``_row_dtype``: 1 byte a
    shot up to 256 rows, 2 up to 65,536).  The arrays are made read-only.
    ``SampleSet.of`` is the one place a set is built: ``sample``,
    ``apply_loss``, ``to_threshold`` and ``ingest_samples`` all call it.
    """

    # Written out, not ``slots=True``: that copies the class, and on Python
    # 3.11 the copy raises TypeError, not AttributeError, on setting a name
    # that is not a field.
    __slots__ = ("histogram", "rows", "meta", "__weakref__")
    histogram: tuple[np.ndarray, np.ndarray]
    rows: np.ndarray
    meta: SampleMeta

    def __post_init__(self):
        for array in (*self.histogram, self.rows):
            array.flags.writeable = False

    @classmethod
    def of(cls, shots: np.ndarray, meta: SampleMeta,
           index: np.ndarray | None = None) -> SampleSet:
        """The set of (N, 8) counts ``shots``, which it does not keep; given
        ``index``, the set of ``shots[index]``, never gathered, where
        ``shots`` may repeat a pattern and ``index`` names its every row."""
        distinct, rows, counts = _unique_rows(shots)
        rows = rows.astype(_row_dtype(len(distinct)))
        if index is not None:
            rows = rows[index]
            counts = np.bincount(rows, minlength=len(distinct))
        return cls((distinct, counts), rows, meta)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def shots(self) -> np.ndarray:
        """The (N, 8) int64 shots in order, a fresh array on every read."""
        return self.histogram[0].astype(np.int64)[self.rows]


def sample(spec: EmbeddingSpec, shots: int,
           seed: int | np.random.SeedSequence) -> SampleSet:
    """Draw i.i.d. patterns from the exact product law.

    Each block draws ``rng.geometric(sech^2(1)) - 1`` pairs, then one uniform
    multinomial split per side.  ``seed`` is an int or a SeedSequence spawned
    from one, whose int the meta records; the same (spec, shots, seed) always
    reproduces the same shots bit for bit.
    """
    spec = getattr(spec, "spec", spec)  # a ProbabilityTable stands for its spec
    if not 1 <= shots <= MAX_SHOTS:
        raise ValidationError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    rng = np.random.default_rng(seed)
    out = np.zeros((shots, graphs.N_NODES), dtype=np.int64)
    for block in spec.blocks:
        pairs = rng.geometric(_SECH ** 2, size=shots) - 1
        for modes in block:
            out[:, modes] = rng.multinomial(pairs, [1.0 / len(modes)] * len(modes))
    if isinstance(seed, np.random.SeedSequence):
        seed = seed.entropy
    return SampleSet.of(out, SampleMeta("simulated", spec.code, seed))


def apply_loss(samples: SampleSet, loss: LossModel,
               seed: int | np.random.SeedSequence) -> SampleSet:
    """Binomial thinning: each photon survives independently with prob eta.

    Thinning twice composes multiplicatively, so the recorded transmission is
    the product of all applied etas.
    """
    if samples.meta.threshold:
        raise ValidationError("cannot apply loss to threshold-converted samples")
    rng = np.random.default_rng(seed)
    # numpy draws no variate for a count of 0, so thinning only the nonzero
    # counts, in row-major order, consumes the stream as thinning them all.
    # A thinned count never grows, so it fits the histogram's dtype.
    shots = samples.histogram[0][samples.rows]
    nonzero = shots != 0
    shots[nonzero] = rng.binomial(shots[nonzero], loss.eta)
    prior = samples.meta.loss if samples.meta.loss is not None else 1.0
    return SampleSet.of(shots, replace(samples.meta, loss=prior * loss.eta))


def to_threshold(samples: SampleSet) -> SampleSet:
    """Clamp every count to {0, 1} (click/no-click detection): the
    histogram's rows are clamped, and the shots never gathered."""
    return SampleSet.of(np.minimum(samples.histogram[0], 1),
                        replace(samples.meta, threshold=True), samples.rows)


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

def meta_path_for(path) -> Path:
    """Companion metadata path: strip the final suffix, append .meta.json."""
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_samples(samples: SampleSet, path) -> tuple[Path, Path]:
    """Write one JSON-array shot per line, plus the companion meta file.

    Each row of ``samples.histogram`` is formatted once, and the shots'
    lines are joined by ``samples.rows``; the shots are never gathered.
    """
    path = Path(path)
    distinct = samples.histogram[0]
    row = "[" + ",".join(["%d"] * graphs.N_NODES) + "]\n"
    lines = ((row * len(distinct)) % tuple(distinct.ravel().tolist())).splitlines(True)
    text = "".join(np.array(lines, dtype=object)[samples.rows].tolist())
    path.write_text(text or "\n", encoding="utf-8")
    meta_path = meta_path_for(path)
    meta_path.write_text(
        json.dumps({**asdict(samples.meta), "shots": len(samples)},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return path, meta_path


#: Reason given for an integer past Python's int-string limit, which makes
#: ``json.loads`` raise a plain ValueError.
_TOO_MANY_DIGITS = (f"an integer has more than {sys.get_int_max_str_digits()} "
                    "digits")

#: Reason given for JSON nested past the interpreter's recursion limit, which
#: makes ``json.loads`` raise RecursionError.
_TOO_DEEP = "JSON nested too deeply"

# Accepted meta values; type(), as JSON true/false load as bool, an int subclass.
_META_RULES = {
    "loss": (lambda v: v is None or (type(v) in (int, float) and 0 <= v <= 1),
             "null or a number in [0, 1]"),
    "seed": (lambda v: v is None or (type(v) is int and v >= 0),
             "null or an integer >= 0"),
    "threshold": (lambda v: type(v) is bool, "true or false"),
}


def _read_meta(meta_path: Path) -> dict:
    try:
        stored = json.loads(meta_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise SampleFormatError(meta_path, 0, "not valid UTF-8")
    except json.JSONDecodeError as exc:
        raise SampleFormatError(meta_path, exc.lineno, f"invalid JSON ({exc.msg})")
    except ValueError:    # Python's int-string limit, not a JSON error
        raise SampleFormatError(meta_path, 0, _TOO_MANY_DIGITS)
    except RecursionError:
        raise SampleFormatError(meta_path, 0, _TOO_DEEP)
    if not isinstance(stored, dict):
        raise SampleFormatError(
            meta_path, 0, f"expected a JSON object, got {type(stored).__name__}")
    if stored.get("code") is not None:
        try:
            graphs.validate_code(stored["code"])
        except ValidationError as exc:
            raise SampleFormatError(meta_path, 0, str(exc))
    for key, rule in _META_RULES.items():
        if key in stored and not rule[0](stored[key]):
            raise SampleFormatError(
                meta_path, 0, f"{key} must be {rule[1]}, got {stored[key]!r}")
    return stored


def _parse_line(path: Path, lineno: int, raw: bytes) -> list[int] | None:
    # One raw line checked as one shot; None for a blank or ``#`` line.
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError:
        raise SampleFormatError(path, lineno, "not valid UTF-8")
    if not line or line.startswith("#"):
        return None
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SampleFormatError(path, lineno, f"invalid JSON ({exc.msg})")
    except ValueError:    # Python's int-string limit, not a JSON error
        raise SampleFormatError(path, lineno, _TOO_MANY_DIGITS)
    except RecursionError:
        raise SampleFormatError(path, lineno, _TOO_DEEP)
    if not isinstance(value, list) or len(value) != graphs.N_NODES:
        raise SampleFormatError(
            path, lineno,
            f"expected {graphs.N_NODES} counts, got "
            f"{len(value) if isinstance(value, list) else type(value).__name__}")
    for c in value:
        if isinstance(c, bool) or not isinstance(c, int):
            raise SampleFormatError(path, lineno, f"count {c!r} is not an integer")
        if c < 0:
            raise SampleFormatError(path, lineno, f"count {c} is negative")
    if sum(value) > 2 ** 63 - 1:
        raise SampleFormatError(path, lineno, "counts sum to more than 2^63 - 1")
    return value


#: A count below 10^18 as ``json.loads`` reads it, so 8 of them sum to less
#: than 2^63 - 1.  The patterns built on it repeat possessively (``{0,17}+``,
#: ``*+``): a failed match gives nothing back to retry, so each check is
#: linear in its input.
_COUNT = rb"(?:0|[1-9][0-9]{0,17}+)"

#: A shot line ``ingest_samples`` reads without the JSON parser when its
#: chunk is not all in the writer's form; its only digits are its counts.
_SHOT_LINE = re.compile(
    rb"[ \t]*+\["
    + rb",".join([rb"[ \t]*+" + _COUNT + rb"[ \t]*+"] * graphs.N_NODES)
    + rb"\][ \t\r]*+\n")

#: Lines in the writer's form, as ``write_samples`` renders them.
_WRITER_BLOCK = re.compile(
    rb"(?:\[" + rb",".join([_COUNT] * graphs.N_NODES) + rb"\]\n)*+")

#: Maps every byte but an ASCII digit to a space.
_DIGITS_ONLY = bytes(b if b in b"0123456789" else 32 for b in range(256))

#: Size hint, in bytes, of the whole lines ``ingest_samples`` reads at a time.
_CHUNK_BYTES = 1 << 16


def _in_writer_form(lines: list[bytes]) -> bool:
    return _WRITER_BLOCK.fullmatch(b"".join(lines)) is not None


def ingest_samples(path) -> SampleSet:
    """Parse a sample file (and its meta companion, when present).

    Each line must be UTF-8 holding a JSON array of exactly 8 nonnegative
    integers summing to at most 2^63 - 1; lines starting with ``#`` and
    blank lines are skipped.  Each distinct line is parsed and checked once,
    at its first occurrence, so a violation raises with the number of the
    first line that holds the bad content.  The file is read in chunks of
    whole lines of about ``_CHUNK_BYTES``, each kept as one row index per
    shot, and is refused at the chunk whose shots pass ``MAX_SHOTS``.
    When a chunk's new distinct lines are all in the writer's form
    (``write_samples``' ``[c0,...,c7]``, counts below 10^18), one pass of
    the writer's grammar over them joined accepts them all.  Otherwise they
    are taken one by one in the order they first occur: a shot with counts
    of at most 18 digits and only spaces and tabs around them skips the
    JSON parser, and every other line, comments and blank lines too, goes
    to ``_parse_line``.
    Either way a line has the value ``json.loads`` gives it, as JSON
    forbids leading zeros and 8 counts below 10^18 sum to less than
    2^63 - 1, and a bad line raises before the next chunk is read.  The
    counts of all distinct shot lines are converted in one
    ``numpy.fromstring`` call, exact over int64.  ``SampleSet.of`` builds
    the set from the distinct lines' counts and each shot's line, without
    gathering the shots: one row number per shot (see ``SampleSet``), 1 or
    2 bytes a shot for the few thousand patterns of a lossy file.
    The meta file must be a UTF-8 JSON object whose ``code`` is null or a
    valid graph code and whose ``loss``, ``seed`` and ``threshold`` keep
    ``_META_RULES``; other keys are ignored.
    """
    path = Path(path)
    texts: list[bytes] = []           # distinct shots' counts, as digits and spaces
    index: dict[bytes, int] = {}      # raw line -> its row, -1 for a skipped line
    orders: list[np.ndarray] = []     # per chunk, its shots' rows
    lineno = rows = shots = 0
    with path.open("rb") as fh:
        while lines := fh.readlines(_CHUNK_BYTES):
            # setdefault gives a line of an earlier chunk its row (or -1) and a
            # new line its own number, lineno or more, so above every row: the
            # lines that keep their own numbers are the new distinct lines.
            first = np.fromiter(map(index.setdefault, lines, itertools.count(lineno)),
                                dtype=np.intp, count=len(lines))
            fresh = np.flatnonzero(first == np.arange(lineno, lineno + len(lines)))
            new = [lines[i] for i in fresh.tolist()]
            if _in_writer_form(new):
                found, kept = new, fresh
            else:
                found, kept = [], []
                for i, raw in zip(fresh.tolist(), new):
                    if _SHOT_LINE.fullmatch(raw):
                        counts = raw
                    else:
                        value = _parse_line(path, lineno + i + 1, raw)
                        if value is None:
                            continue
                        counts = b"%d " * graphs.N_NODES % tuple(value)
                    found.append(counts)
                    kept.append(i)
            texts.append(b"".join(found).translate(_DIGITS_ONLY))
            # The row of each new line, by its place in the chunk; -1 if skipped.
            row_of = np.full(len(lines), -1, dtype=np.intp)
            row_of[kept] = np.arange(rows, rows + len(found))
            index.update(zip(new, row_of[fresh].tolist()))
            own = first >= lineno
            first[own] = row_of[first[own] - lineno]
            orders.append(first[first >= 0])
            rows += len(found)
            shots += len(orders[-1])
            if shots > MAX_SHOTS:
                raise SampleFormatError(
                    path, 0, f"file holds more than {MAX_SHOTS} shots")
            lineno += len(lines)
    if not rows:
        raise SampleFormatError(path, 0, "file contains no samples")

    meta_kwargs = {"source": "ingested"}
    meta_path = meta_path_for(path)
    if meta_path.exists():
        stored = _read_meta(meta_path)
        read = ("code", "seed", "loss", "threshold")
        meta_kwargs.update({key: stored[key] for key in read if key in stored})
    # Given its count, fromstring allocates the array once; left to grow it
    # while parsing, it fragments the heap and peak RSS climbs file by file.
    flat = np.fromstring(b"".join(texts), dtype=np.int64,
                         count=rows * graphs.N_NODES, sep=" ")
    parsed = flat.reshape(rows, graphs.N_NODES)
    if meta_kwargs.get("threshold") and (parsed > 1).any():
        raise SampleFormatError(
            path, 0, "meta declares threshold samples but counts exceed 1")
    # Two spellings of one pattern are two lines but one histogram row.
    return SampleSet.of(parsed, SampleMeta(**meta_kwargs), np.concatenate(orders))
