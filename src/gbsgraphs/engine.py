"""Exact pattern probabilities, truncated tables, seeded sampling, and loss.

Pattern probabilities for an embedded graph reduce to squared permanents of
the scaled submatrix with rows and columns repeated by the photon counts.
Tables enumerate every pattern up to a photon-pair cutoff; sampling is
inverse-CDF over the renormalised truncated table with a seeded PCG64 stream
(``numpy.random.default_rng``), which is bit-reproducible for a fixed numpy
version.  Independent streams for chained transforms should be derived with
``numpy.random.SeedSequence(seed).spawn``; the CLI simply uses seed + 1 for
the loss stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import graphs
from .embedding import SQUEEZING, EmbeddingSpec
from .errors import SampleFormatError, ValidationError

#: Largest repeated-matrix size the permanent kernel accepts.
MAX_PERMANENT_SIZE = 16

#: Default table truncation, in photon pairs (16 photons).
DEFAULT_CUTOFF_PAIRS = 8

#: Tables below this covered mass refuse to drive the sampler.
MIN_SAMPLING_MASS = 0.99

_SECH = 1.0 / math.cosh(SQUEEZING)
_TANH = math.tanh(SQUEEZING)


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
    return (math.comb(pairs + rank - 1, pairs)
            * _SECH ** (2 * rank) * _TANH ** (2 * pairs))


def total_photon_tail(rank: int, cutoff_pairs: int) -> float:
    """Mass of the pair-number law beyond ``cutoff_pairs``."""
    return 1.0 - math.fsum(
        total_photon_distribution(rank, s) for s in range(cutoff_pairs + 1))


def min_cutoff_for_mass(rank: int, mass: float = MIN_SAMPLING_MASS,
                        floor: int = DEFAULT_CUTOFF_PAIRS) -> int:
    """Smallest cutoff (at least ``floor``) whose covered mass reaches ``mass``.

    The mean photon number grows with rank, so higher ranks need deeper
    tables than the rank-1 default before they may drive the sampler.
    """
    cutoff = floor
    while 1.0 - total_photon_tail(rank, cutoff) < mass:
        cutoff += 1
        if cutoff > 200:
            raise ValidationError(f"mass target {mass} is unreachable")
    return cutoff


# ---------------------------------------------------------------------------
# Truncated probability tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Every pattern with signal total = idler total <= cutoff, with its
    exact probability.  Patterns are sorted lexicographically, so the table
    doubles as the deterministic entry order for inverse-CDF sampling."""

    spec: EmbeddingSpec
    cutoff_pairs: int
    patterns: np.ndarray        # (N, 8) int64
    probs: np.ndarray           # (N,) float64
    covered_mass: float
    low_coverage: bool          # warning flag: covered_mass < 0.99

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
    items = sorted(entries.items())
    patterns = np.array([p for p, _ in items], dtype=np.int64)
    probs = np.array([v for _, v in items], dtype=float)
    covered = float(probs.sum())
    return ProbabilityTable(
        spec=spec,
        cutoff_pairs=cutoff_pairs,
        patterns=patterns,
        probs=probs,
        covered_mass=covered,
        low_coverage=covered < MIN_SAMPLING_MASS,
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
    cutoff_pairs: int | None = None
    covered_mass: float | None = None

    def to_json_dict(self, shots: int) -> dict:
        return {
            "code": self.code,
            "source": self.source,
            "seed": self.seed,
            "loss": self.loss,
            "threshold": self.threshold,
            "shots": shots,
            "cutoff_pairs": self.cutoff_pairs,
            "covered_mass": self.covered_mass,
        }


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of detected patterns plus provenance."""

    shots: np.ndarray                 # (N, 8) int64
    meta: SampleMeta

    def __len__(self) -> int:
        return len(self.shots)


def sample(table: ProbabilityTable, shots: int, seed: int) -> SampleSet:
    """Draw i.i.d. patterns from the renormalised truncated table.

    Inverse-CDF over the lexicographically ordered entries with a PCG64
    uniform stream: the same (table, shots, seed) always reproduces the same
    shot list bit for bit.
    """
    if shots <= 0:
        raise ValidationError(f"shots must be >= 1, got {shots}")
    if table.covered_mass < MIN_SAMPLING_MASS:
        raise ValidationError(
            f"table covers only {table.covered_mass:.4f} of the distribution; "
            f"raise cutoff_pairs")
    cdf = np.cumsum(table.probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    return SampleSet(
        shots=table.patterns[idx].copy(),
        meta=SampleMeta(
            source="simulated",
            code=table.spec.code,
            seed=seed,
            loss=None,
            threshold=False,
            cutoff_pairs=table.cutoff_pairs,
            covered_mass=table.covered_mass,
        ),
    )


def apply_loss(samples: SampleSet, loss: LossModel, seed: int) -> SampleSet:
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
    lines = []
    for row in samples.shots:
        lines.append(json.dumps([int(c) for c in row], separators=(",", ":")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta_path = meta_path_for(path)
    meta_path.write_text(
        json.dumps(samples.meta.to_json_dict(len(samples)),
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return path, meta_path


def _read_meta(meta_path: Path) -> dict:
    try:
        stored = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SampleFormatError(meta_path, exc.lineno, f"invalid JSON ({exc.msg})")
    if not isinstance(stored, dict):
        raise SampleFormatError(
            meta_path, 0, f"expected a JSON object, got {type(stored).__name__}")
    if stored.get("code") is not None:
        try:
            graphs.validate_code(stored["code"])
        except ValidationError as exc:
            raise SampleFormatError(meta_path, 0, str(exc))
    return stored


def ingest_samples(path) -> SampleSet:
    """Parse a sample file (and its meta companion, when present).

    Each line must be a JSON array of exactly 8 nonnegative integers; lines
    starting with ``#`` and blank lines are skipped.  Violations raise with
    the offending line number.  The meta file must be a JSON object whose
    ``code``, if not null, is a valid graph code.
    """
    path = Path(path)
    shots = []
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SampleFormatError(path, lineno, f"invalid JSON ({exc.msg})")
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
            shots.append(value)
    if not shots:
        raise SampleFormatError(path, 0, "file contains no samples")

    meta_kwargs = {"source": "ingested"}
    meta_path = meta_path_for(path)
    if meta_path.exists():
        stored = _read_meta(meta_path)
        meta_kwargs.update(
            code=stored.get("code"),
            seed=stored.get("seed"),
            loss=stored.get("loss"),
            threshold=bool(stored.get("threshold", False)),
            cutoff_pairs=stored.get("cutoff_pairs"),
            covered_mass=stored.get("covered_mass"),
        )
    arr = np.array(shots, dtype=np.int64)
    if meta_kwargs.get("threshold") and (arr > 1).any():
        raise SampleFormatError(
            path, 0, "meta declares threshold samples but counts exceed 1")
    return SampleSet(shots=arr, meta=SampleMeta(**meta_kwargs))
