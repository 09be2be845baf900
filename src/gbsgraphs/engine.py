"""Exact pattern probabilities, the product law, seeded sampling, and loss.

``pattern_probability`` and ``build_table`` compute pattern probabilities as
the paper does, from permanents, and serve as the reference.  Every
embeddable graph is ``rank`` identical K_{a,b} blocks, each one squeezer at
r = 1 whose n photon pairs split uniformly over the block's modes, so the
law factorises over ``EmbeddingSpec.blocks``: ``detected_probabilities`` and
``sample`` use that product law, with no table.  Its lossy values come from
positive-term recurrences of the block's generating function, so nothing is
truncated and nothing cancels.
Sampling uses seeded PCG64 streams, bit-reproducible for a fixed numpy
version; the CLI and ``scripts/run_pipeline.py`` draw sampling and loss from
the independent streams ``numpy.random.SeedSequence(seed).spawn(2)``.
"""

from __future__ import annotations

import json
import math
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
    """Mass of the pair-number law beyond ``cutoff_pairs``."""
    return 1.0 - math.fsum(
        total_photon_distribution(rank, s) for s in range(cutoff_pairs + 1))


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
        out[:, columns.get(n, [])] = old[:, None]
    out[etas == 1.0] = [total_photon_distribution(rank, k // 2) if k % 2 == 0
                        else 0.0 for k in events]
    return out


# ---------------------------------------------------------------------------
# Product law of the K_{a,b} blocks
# ---------------------------------------------------------------------------

def _pair_diagonals(etas, top: int):
    """Yield P[S, T - S] for S = 0..T, one row per eta, for T = 0..top.

    P[S, D] is the chance that a block detects S signal and D idler photons
    after uniform loss eta.  With t = tanh(1) and q = 1 - eta, the block's
    generating function sech^2(1) / (1 - t^2 (q + eta u)(q + eta v)) gives
    (1 - t^2 q^2) P[S, D] = sech^2(1) [S = D = 0]
    + t^2 q eta (P[S-1, D] + P[S, D-1]) + t^2 eta^2 P[S-1, D-1]:
    positive terms, each from the two anti-diagonals before.
    """
    old, a, b = _thinning(np.asarray(etas, dtype=float)[:, None])
    older = np.zeros((len(old), 0))
    yield old
    for total in range(1, top + 1):
        new, step = np.zeros((len(etas), total + 1)), a * old
        new[:, :total] = step
        new[:, 1:] += step
        new[:, 1:total] += b * older
        older, old = old, new
        yield new


def pair_matrix(eta: float, size: int) -> np.ndarray:
    """P[S, D], S, D <= size, at transmission eta (see ``_pair_diagonals``)."""
    pair = np.zeros((size + 1, size + 1))
    for total, diag in enumerate(_pair_diagonals([eta], 2 * size)):
        s = np.arange(max(0, total - size), min(total, size) + 1)
        pair[s, total - s] = diag[0, s]
    return pair


def _binomial(n, k, modes: int) -> np.ndarray:
    # C(n, k) (modes - 1)^(n - k) / modes^n for arrays k <= n: the chance that
    # k of n photons spread uniformly over ``modes`` modes land on a given
    # one.  m^j is (m / 2^c)^j 2^(c j) with c = (m - 1).bit_length(), so no
    # factor leaves the float range.
    c, d = (modes - 2).bit_length(), (modes - 1).bit_length()
    mant = (_FACT_MANT[n] / (_FACT_MANT[k] * _FACT_MANT[n - k])
            * ((modes - 1) / 2 ** c) ** (n - k) / (modes / 2 ** d) ** n)
    return np.ldexp(mant, _FACT_EXP[n] - _FACT_EXP[k] - _FACT_EXP[n - k]
                    + c * (n - k) - d * n)


def _split(counts: np.ndarray) -> np.ndarray:
    # The chance that each row's total, spread uniformly over its modes, lands
    # as that row: one binomial per mode but the last.
    modes = counts.shape[1]
    rest, prob = counts.sum(axis=1), np.ones(len(counts))
    for i in range(modes - 1):
        prob *= _binomial(rest, counts[:, i], modes - i)
        rest = rest - counts[:, i]
    return prob


def detected_probabilities(spec: EmbeddingSpec, patterns,
                           eta: float = 1.0) -> np.ndarray:
    """Exact probability of each detected pattern after uniform loss eta.

    A block whose sides detect S and D photons contributes P[S, D] (see
    ``pair_matrix``) times the two uniform multinomial splits, which equals
    ``pattern_probability`` thinned per mode.
    """
    pats = np.asarray(patterns, dtype=np.int64).reshape(-1, graphs.N_NODES)
    if (pats < 0).any():
        raise ValidationError("pattern counts must be nonnegative")
    sides = [list(modes) for block in spec.blocks for modes in block]
    totals = np.array([pats[:, modes].sum(axis=1) for modes in sides])
    # A count or side total of UNDERFLOW_PAIRS or more has probability 0.0,
    # and a photon outside every block never occurs.  Testing the counts first
    # also keeps a side total that wrapped round int64 out.
    live = ((pats < UNDERFLOW_PAIRS).all(axis=1)
            & (totals < UNDERFLOW_PAIRS).all(axis=0)
            & ~np.delete(pats, sum(sides, []), axis=1).any(axis=1))
    pats, totals = np.where(live[:, None], pats, 0), np.where(live, totals, 0)
    pair = pair_matrix(eta, int(totals.max(initial=0)))
    prob = live.astype(float)
    for modes in sides:
        prob *= _split(pats[:, modes])
    for signal, idler in zip(totals[::2], totals[1::2]):
        prob *= pair[signal, idler]
    return prob


def _within_cap(modes: int, n_max: int, size: int) -> np.ndarray:
    # c[S], S <= size: chance that S photons spread uniformly over ``modes``
    # modes put none above n_max.  Mode by mode: the first takes j of the S
    # photons with chance Bin(j; S, 1/modes), the others split the rest.
    top = min(n_max, size)
    side = np.arange(size + 1)[:, None]
    taken = np.arange(top + 1)
    ok = taken <= side
    taken = np.where(ok, taken, 0)
    cap = (side[:, 0] <= top).astype(float)
    for m in range(2, modes + 1):
        cap = (np.where(ok, _binomial(side, taken, m), 0.0)
               * cap[side - taken]).sum(axis=1)
    return cap


def _convolve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1))
    for j in range(y.shape[1]):
        out[:, j:j + x.shape[1]] += y[:, j:j + 1] * x
    return out


def capped_event_probabilities(spec: EmbeddingSpec, events: list[int],
                               n_max: int, etas) -> np.ndarray:
    """P(k photons detected, none above n_max on any mode), one row per
    transmission in ``etas`` and one column per total k in ``events``.

    The sum over the event's member patterns, grouped by block: sides that
    detect S and D photons contribute P[S, D] times the chances that both
    splits stay within the cap.  No member is listed, so cost stays bounded.
    """
    etas = np.asarray(etas, dtype=float)
    size = min(max(events), 4 * n_max, UNDERFLOW_PAIRS - 1)     # per side
    top = min(max(events), 2 * size)                            # per block
    rows = max(1, 2 ** 20 // (top + 1))     # etas per pass, to bound memory
    if len(etas) > rows:
        return np.concatenate([
            capped_event_probabilities(spec, events, n_max, etas[i:i + rows])
            for i in range(0, len(etas), rows)])
    # The blocks are one K_{a,b} up to orientation, and P[S, D] = P[D, S],
    # so every block's law is the first one's.
    sig, idl = (len(modes) for modes in spec.blocks[0])
    caps = {m: _within_cap(m, n_max, size) for m in {sig, idl}}
    weights = np.outer(caps[sig], caps[idl])
    block = np.zeros((len(etas), top + 1))
    for total, diag in enumerate(_pair_diagonals(etas, top)):
        s = np.arange(max(0, total - size), min(total, size) + 1)
        block[:, total] = np.einsum("ij,j->i", diag[:, s[0]:s[-1] + 1],
                                    weights[s, total - s])
    law = block
    for _ in range(spec.rank - 1):
        law = _convolve_rows(law, block)
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
    covered_mass: float

    def __len__(self) -> int:
        return len(self.probs)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {tuple(int(c) for c in p): float(v)
                for p, v in zip(self.patterns, self.probs)}

    def slice_mass(self, pairs: int) -> float:
        """Summed probability of all patterns with ``pairs`` pairs."""
        totals = self.patterns[:, :4].sum(axis=1)
        return float(self.probs[totals == pairs].sum())


_Poly = dict[tuple[int, int, int, int], int]


def _poly_mul_row(poly: _Poly, active: tuple[int, ...]) -> _Poly:
    # Multiply a sparse 4-variable integer polynomial by the linear form
    # sum over the active columns of x_j (entries are 0/1).
    out: _Poly = {}
    for mono, coef in poly.items():
        for j in active:
            key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
            out[key] = out.get(key, 0) + coef
    return out


def build_table(spec: EmbeddingSpec,
                cutoff_pairs: int = DEFAULT_CUTOFF_PAIRS) -> ProbabilityTable:
    """Enumerate all patterns up to ``cutoff_pairs`` photon pairs exactly.

    Rather than one Ryser call per pattern, the permanents of all repeated
    matrices sharing the same idler counts d are read off a single integer
    polynomial: perm(M[d, s]) = (prod_j s_j!) * [x^s] prod_i (row_i . x)^d_i.
    The expansion stays in exact integer arithmetic, so table values are
    bit-identical under simultaneous signal/idler mode permutations; the
    scale factor enters only at the end.
    """
    if cutoff_pairs < 1:
        raise ValidationError(f"cutoff_pairs must be >= 1, got {cutoff_pairs}")
    m = graphs.decode_code(spec.code)
    active_cols = tuple(tuple(j for j in range(4) if m[i, j]) for i in range(4))
    fact = [math.factorial(k) for k in range(cutoff_pairs + 1)]
    prefactor = _SECH ** (2 * spec.rank)
    c = spec.scale_c
    entries: dict[tuple[int, ...], float] = {}

    def emit(d: tuple[int, ...], poly: _Poly) -> None:
        pairs = sum(d)
        d_fact = 1
        for x in d:
            d_fact *= fact[x]
        scale = prefactor * c ** (2 * pairs)
        for s, coef in poly.items():
            s_fact = 1
            for x in s:
                s_fact *= fact[x]
            entries[s + d] = scale * (coef * coef * s_fact) / d_fact

    def walk(i: int, budget: int, d: tuple[int, ...], poly: _Poly) -> None:
        if i == 4:
            emit(d, poly)
            return
        walk(i + 1, budget, d + (0,), poly)
        if active_cols[i]:
            current = poly
            for count in range(1, budget + 1):
                current = _poly_mul_row(current, active_cols[i])
                walk(i + 1, budget - count, d + (count,), current)

    walk(0, cutoff_pairs, (), {(0, 0, 0, 0): 1})
    del walk    # walk's closure holds walk: keep it off the cyclic collector
    items = sorted(entries.items())
    patterns = np.array([p for p, _ in items], dtype=np.int64)
    probs = np.array([v for _, v in items], dtype=float)
    return ProbabilityTable(
        spec=spec,
        cutoff_pairs=cutoff_pairs,
        patterns=patterns,
        probs=probs,
        covered_mass=float(probs.sum()),
    )


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

    def to_json_dict(self, shots: int) -> dict:
        return {**asdict(self), "shots": shots}


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of detected patterns plus provenance."""

    shots: np.ndarray                 # (N, 8) int64
    meta: SampleMeta

    def __len__(self) -> int:
        return len(self.shots)


def sample(spec: EmbeddingSpec, shots: int,
           seed: int | np.random.SeedSequence) -> SampleSet:
    """Draw i.i.d. patterns from the exact product law.

    Each block draws ``rng.geometric(sech^2(1)) - 1`` pairs, then one uniform
    multinomial split per side.  ``seed`` is an int or a SeedSequence spawned
    from one, whose int the meta records; the same (spec, shots, seed) always
    reproduces the same shots bit for bit.
    """
    spec = getattr(spec, "spec", spec)  # a ProbabilityTable stands for its spec
    if shots <= 0:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    out = np.zeros((shots, graphs.N_NODES), dtype=np.int64)
    for block in spec.blocks:
        pairs = rng.geometric(_SECH ** 2, size=shots) - 1
        for modes in block:
            out[:, modes] = rng.multinomial(pairs, [1.0 / len(modes)] * len(modes))
    if isinstance(seed, np.random.SeedSequence):
        seed = seed.entropy
    return SampleSet(shots=out, meta=SampleMeta("simulated", spec.code, seed))


def apply_loss(samples: SampleSet, loss: LossModel,
               seed: int | np.random.SeedSequence) -> SampleSet:
    """Binomial thinning: each photon survives independently with prob eta.

    Thinning twice composes multiplicatively, so the recorded transmission is
    the product of all applied etas.
    """
    if samples.meta.threshold:
        raise ValidationError("cannot apply loss to threshold-converted samples")
    rng = np.random.default_rng(seed)
    thinned = rng.binomial(samples.shots, loss.eta).astype(np.int64)
    prior = samples.meta.loss if samples.meta.loss is not None else 1.0
    return SampleSet(shots=thinned,
                     meta=replace(samples.meta, loss=prior * loss.eta))


def to_threshold(samples: SampleSet) -> SampleSet:
    """Clamp every count to {0, 1} (click/no-click detection)."""
    return SampleSet(shots=np.minimum(samples.shots, 1),
                     meta=replace(samples.meta, threshold=True))


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------

def meta_path_for(path) -> Path:
    """Companion metadata path: strip the final suffix, append .meta.json."""
    p = Path(path)
    return p.with_suffix("").with_name(p.with_suffix("").name + ".meta.json")


def write_samples(samples: SampleSet, path) -> tuple[Path, Path]:
    """Write one JSON-array shot per line, plus the companion meta file."""
    path = Path(path)
    row = "[" + ",".join(["%d"] * graphs.N_NODES) + "]\n"
    text = (row * len(samples.shots)) % tuple(samples.shots.ravel().tolist())
    path.write_text(text or "\n", encoding="utf-8")
    meta_path = meta_path_for(path)
    meta_path.write_text(
        json.dumps(samples.meta.to_json_dict(len(samples)),
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return path, meta_path


#: Reason given for an integer past Python's int-string limit, which makes
#: ``json.loads`` raise a plain ValueError.
_TOO_MANY_DIGITS = (f"an integer has more than {sys.get_int_max_str_digits()} "
                    "digits")

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


def ingest_samples(path) -> SampleSet:
    """Parse a sample file (and its meta companion, when present).

    Each line must be UTF-8 holding a JSON array of exactly 8 nonnegative
    integers summing to at most 2^63 - 1; lines starting with ``#`` and
    blank lines are skipped.  Each distinct line is parsed and checked once,
    at its first occurrence, and repeats reuse that row, so a violation
    raises with the number of the first line that holds the bad content.
    The meta file must be a UTF-8 JSON object whose ``code`` is null or a
    valid graph code and whose ``loss``, ``seed`` and ``threshold`` keep
    ``_META_RULES``; other keys are ignored.
    """
    path = Path(path)
    rows: list[list[int]] = []
    index: dict[bytes, int] = {}      # raw line -> its row in rows, -1 to skip
    order: list[int] = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            row = index.get(raw)
            if row is None:
                value = _parse_line(path, lineno, raw)
                row = index[raw] = -1 if value is None else len(rows)
                if value is not None:
                    rows.append(value)
            if row >= 0:
                order.append(row)
    if not rows:
        raise SampleFormatError(path, 0, "file contains no samples")

    meta_kwargs = {"source": "ingested"}
    meta_path = meta_path_for(path)
    if meta_path.exists():
        stored = _read_meta(meta_path)
        read = ("code", "seed", "loss", "threshold")
        meta_kwargs.update({key: stored[key] for key in read if key in stored})
    arr = np.array(rows, dtype=np.int64)[order]
    if meta_kwargs.get("threshold") and (arr > 1).any():
        raise SampleFormatError(
            path, 0, "meta declares threshold samples but counts exceed 1")
    return SampleSet(shots=arr, meta=SampleMeta(**meta_kwargs))
