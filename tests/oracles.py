"""Brute-force reference implementations the tests compare the package against.

They are independent of the package's own algorithms and far slower, so they
live with the tests rather than in ``gbsgraphs``.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gbsgraphs import engine, features, graphs
from gbsgraphs.catalog import CatalogRecord
from gbsgraphs.embedding import MEAN_PHOTON_SINGLE, Embeddability, enumerate_embeddable
from gbsgraphs.errors import SampleFormatError, ValidationError

N_NODES = 8

_PERMUTATIONS: np.ndarray | None = None


def _node_permutations() -> np.ndarray:
    global _PERMUTATIONS
    if _PERMUTATIONS is None:
        _PERMUTATIONS = np.array(
            list(itertools.permutations(range(N_NODES))), dtype=np.intp)
    return _PERMUTATIONS


def canonical_form(a) -> np.ndarray:
    """Lexicographically minimal relabeling of ``a`` over all 8! node orders.

    Two 8-node graphs are isomorphic iff their canonical forms are equal.
    Brute force over 40320 permutations; cheap at this size and free of any
    refinement heuristics.
    """
    a = np.asarray(a, dtype=np.int64)
    assert a.shape == (N_NODES, N_NODES), a.shape
    perms = _node_permutations()
    relabeled = a[perms[:, :, None], perms[:, None, :]].astype(np.uint8)
    flat = relabeled.reshape(len(perms), N_NODES * N_NODES)
    # Pack each 64-bit adjacency row-major into one big-endian word so that
    # integer order equals lexicographic matrix order.
    keys = np.packbits(flat, axis=1).view(">u8").ravel()
    best = int(np.argmin(keys))
    return relabeled[best].astype(np.int64)


def is_isomorphic(a, b) -> bool:
    """True iff the two adjacency matrices have equal canonical forms."""
    return bool(np.array_equal(canonical_form(a), canonical_form(b)))


def orbit_patterns(orbit) -> np.ndarray:
    """Distinct patterns of an orbit: all 8! orders of the padded orbit,
    deduplicated through a set and sorted ascending."""
    padded = tuple(orbit) + (0,) * (N_NODES - len(orbit))
    return np.array(sorted(set(itertools.permutations(padded))), dtype=np.int64)


def sample_file_text(shots) -> str:
    """Sample-file text with one ``%`` line per shot: the writer
    ``engine.write_samples`` had before it formatted each distinct row once."""
    row = "[" + ",".join(["%d"] * N_NODES) + "]\n"
    return (row * len(shots)) % tuple(np.asarray(shots).ravel().tolist()) or "\n"


def permanent_naive(matrix) -> float:
    """Laplace-expansion permanent, the cross-check for the Ryser kernel.

    Exponential in a worse way than Ryser; intended for n <= 6.
    """
    a = np.asarray(matrix, dtype=float)
    assert a.ndim == 2 and a.shape[0] == a.shape[1], a.shape

    def expand(rows, cols):
        if not cols:
            return 1.0
        i = rows[0]
        rest = rows[1:]
        acc = 0.0
        for idx, j in enumerate(cols):
            if a[i, j] != 0.0:
                acc += a[i, j] * expand(rest, cols[:idx] + cols[idx + 1:])
        return acc

    n = a.shape[0]
    return expand(tuple(range(n)), tuple(range(n)))


def blocks(code: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(signal modes 0-3, idler modes 4-7) of each K_{a,b} block, read off a
    depth-first traversal of the 8-node adjacency, blocks by smallest node."""
    parts = graphs.connected_components(graphs.adjacency_for(code))
    return [(tuple(n for n in nodes if n < 4), tuple(n for n in nodes if n >= 4))
            for nodes, sig in parts if sig.node_count > 1]


def one_code_per_block_shape() -> list[str]:
    """The first embeddable code of each block shape, the (signal, idler) mode
    counts of its K_{a,b} blocks in block order: 12 shapes."""
    shapes: dict[tuple, str] = {}
    for code, spec in enumerate_embeddable():
        shapes.setdefault(tuple((len(sig), len(idl)) for sig, idl in spec.blocks),
                          code)
    return list(shapes.values())


def code_of_matrix(m) -> str:
    """The code whose decoded submatrix is ``m``."""
    match = (graphs.candidate_matrices() == np.asarray(m)).all(axis=(1, 2))
    return graphs.code_of(int(np.flatnonzero(match)[0]))


def table_lookup(table) -> dict[tuple[int, ...], float]:
    """A probability table as pattern tuple -> probability."""
    return dict(zip(map(tuple, table.patterns.tolist()), table.probs.tolist()))


def slice_mass(table, pairs: int) -> float:
    """Summed table probability of the patterns with ``pairs`` photon pairs."""
    return float(table.probs[table.patterns[:, :4].sum(axis=1) == pairs].sum())


def read_catalog(path) -> list[CatalogRecord]:
    """The records of a catalog file written by ``catalog.write_catalog``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [CatalogRecord(**rec) for rec in payload["graphs"]]


def embeddability_check_per_code(m) -> Embeddability:
    """The trace test on one matrix, with its own integer arithmetic and, for
    a rejected matrix, its own eigensolver call."""
    m = graphs.validate_submatrix(m)
    m2 = m @ m
    t2, t4 = int(np.trace(m2)), int(np.trace(m2 @ m2))
    if t2 > 0 and (t2 * (m2 @ m) == t4 * m).all():
        rank = t2 * t2 // t4
        sigma = math.sqrt(t4 / t2)
        return Embeddability(True, rank, (sigma,) * rank + (0.0,) * (4 - rank))
    sigma = tuple(sorted(np.abs(np.linalg.eigvalsh(m)).tolist(), reverse=True))
    if t2 == 0:
        return Embeddability(False, 0, sigma, "no edges")
    listed = ", ".join(f"{s:.6f}" for s in sigma if round(s, 6))
    return Embeddability(
        False, 0, sigma, f"unequal nonzero singular values ({listed})")


def build_catalog_per_code(include_all: bool = False) -> list[CatalogRecord]:
    """The catalog checked code by code, each kept graph classified by a
    depth-first search of its components."""
    records = []
    for code in map(graphs.code_of, range(1024)):
        m = graphs.decode_code(code)
        emb = embeddability_check_per_code(m)
        if not (emb.embeddable or include_all):
            continue
        records.append(CatalogRecord(
            code=code,
            embeddable=emb.embeddable,
            iso_class=graphs.classify(graphs.build_adjacency(m)),
            rank=emb.rank if emb.embeddable else None,
            m=emb.rank * MEAN_PHOTON_SINGLE if emb.embeddable else None,
            singular_value=emb.singular_values[0] if emb.embeddable else None,
            reason=emb.reason,
        ))
    return records


def ingest_samples_per_line(path) -> np.ndarray:
    """The shots of a sample file, decoded, parsed and checked line by line.

    The reader ``engine.ingest_samples`` had before it parsed each distinct
    line once; it raises the same ``SampleFormatError`` for the same line.
    The meta file is left to the package.
    """
    path = Path(path)
    shots = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise SampleFormatError(path, lineno, "not valid UTF-8")
            if not line or line.startswith("#"):
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SampleFormatError(path, lineno, f"invalid JSON ({exc.msg})")
            except ValueError:
                raise SampleFormatError(
                    path, lineno, "an integer has more than "
                    f"{sys.get_int_max_str_digits()} digits")
            except RecursionError:
                raise SampleFormatError(path, lineno, "JSON nested too deeply")
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
                raise SampleFormatError(
                    path, lineno, "counts sum to more than 2^63 - 1")
            shots.append(value)
    if not shots:
        raise SampleFormatError(path, 0, "file contains no samples")
    return np.array(shots, dtype=np.int64)


def assert_ingest_matches_oracle(path):
    """``ingest_samples`` returns the per-line oracle's shots, or raises its
    error text; the set's histogram is ``np.unique`` of those shots."""
    try:
        want = ingest_samples_per_line(path)
    except SampleFormatError as exc:
        with pytest.raises(SampleFormatError) as err:
            engine.ingest_samples(path)
        assert str(err.value) == str(exc)
        return
    samples = engine.ingest_samples(path)
    assert samples.shots.dtype == want.dtype == np.int64
    assert np.array_equal(samples.shots, want)
    assert_histogram_of(samples)


def assert_histogram_of(samples):
    """``samples.histogram`` is ``np.unique(shots, axis=0, return_counts=True)``,
    read-only, with uint8 rows when every count lies in [0, 256)."""
    rows, counts = samples.histogram
    want_rows, want_counts = np.unique(samples.shots, axis=0, return_counts=True)
    small = 0 <= samples.shots.min() and samples.shots.max() < 256
    assert rows.dtype == (np.uint8 if small else samples.shots.dtype)
    assert counts.dtype == want_counts.dtype
    assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)
    assert not rows.flags.writeable and not counts.flags.writeable


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


def build_table_by_polynomial(spec, cutoff_pairs: int = engine.DEFAULT_CUTOFF_PAIRS):
    """``engine.build_table`` as one integer polynomial expansion per idler
    vector: perm(M[d, s]) = (prod_j s_j!) * [x^s] prod_i (row_i . x)^d_i.

    The table builder ``engine`` had before it read each coefficient off the
    multinomial theorem; it pins the bits of every entry.
    """
    if cutoff_pairs < 1:
        raise ValidationError(f"cutoff_pairs must be >= 1, got {cutoff_pairs}")
    m = graphs.decode_code(spec.code)
    active_cols = tuple(tuple(j for j in range(4) if m[i, j]) for i in range(4))
    fact = [math.factorial(k) for k in range(cutoff_pairs + 1)]
    prefactor = engine._SECH ** (2 * spec.rank)
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
    return engine.ProbabilityTable(
        spec=spec,
        cutoff_pairs=cutoff_pairs,
        patterns=patterns,
        probs=probs,
    )


def pair_diagonals(etas, top: int):
    """Yield P[S, T - S] for S = 0..T, one row per eta, for T = 0..top.

    The pair-law walk ``engine._pair_walk`` made before it filled one
    skewed array: a fresh array per anti-diagonal.  It pins the bits of
    every P[S, D].
    """
    old, a, b = engine._thinning(np.asarray(etas, dtype=float)[:, None])
    older = np.zeros((len(old), 0))
    yield old
    for total in range(1, top + 1):
        new, step = np.zeros((len(etas), total + 1)), a * old
        new[:, :total] = step
        new[:, 1:] += step
        new[:, 1:total] += b * older
        older, old = old, new
        yield new


def pair_matrix_by_diagonals(eta: float, size: int) -> np.ndarray:
    """``engine.pair_matrix`` filled one anti-diagonal of ``pair_diagonals``
    at a time."""
    pair = np.zeros((size + 1, size + 1))
    for total, diag in enumerate(pair_diagonals([eta], 2 * size)):
        s = np.arange(max(0, total - size), min(total, size) + 1)
        pair[s, total - s] = diag[0, s]
    return pair


def binomial_by_power(n, k, modes: int) -> np.ndarray:
    """``engine._binomial`` with its powers of (modes - 1) / 2^c and
    modes / 2^d taken by ``**``: the form it had before it read (3/4)^j
    from a table."""
    c, d = (modes - 2).bit_length(), (modes - 1).bit_length()
    mant = (engine._FACT_MANT[n] / (engine._FACT_MANT[k] * engine._FACT_MANT[n - k])
            * ((modes - 1) / 2 ** c) ** (n - k) / (modes / 2 ** d) ** n)
    return np.ldexp(mant, engine._FACT_EXP[n] - engine._FACT_EXP[k]
                    - engine._FACT_EXP[n - k] + c * (n - k) - d * n)


def _split_by_power(counts: np.ndarray) -> np.ndarray:
    modes = counts.shape[1]
    rest, prob = counts.sum(axis=1), np.ones(len(counts))
    for i in range(modes - 1):
        prob *= binomial_by_power(rest, counts[:, i], modes - i)
        rest = rest - counts[:, i]
    return prob


def detected_probabilities_per_side(spec, patterns, eta: float = 1.0) -> np.ndarray:
    """``engine.detected_probabilities`` one block side at a time: the law
    as it was before it read a cached side layout and split all sides of
    one mode count in one call, with the ``**`` binomial and the pair matrix
    of ``pair_matrix_by_diagonals``."""
    pats = np.asarray(patterns, dtype=np.int64).reshape(-1, graphs.N_NODES)
    if (pats < 0).any():
        raise ValidationError("pattern counts must be nonnegative")
    sides = [list(modes) for block in spec.blocks for modes in block]
    totals = np.array([pats[:, modes].sum(axis=1) for modes in sides])
    live = ((pats < engine.UNDERFLOW_PAIRS).all(axis=1)
            & (totals < engine.UNDERFLOW_PAIRS).all(axis=0)
            & ~np.delete(pats, sum(sides, []), axis=1).any(axis=1))
    pats, totals = np.where(live[:, None], pats, 0), np.where(live, totals, 0)
    pair = pair_matrix_by_diagonals(eta, int(totals.max(initial=0)))
    prob = live.astype(float)
    for modes in sides:
        prob *= _split_by_power(pats[:, modes])
    for signal, idler in zip(totals[::2], totals[1::2]):
        prob *= pair[signal, idler]
    return prob


def match_on_grid_per_halving(sampled, spec, component_index, loss_factors,
                              theory):
    """``features.match_on_grid`` with one law call per halving: the
    bisection as it was before an open cap's midpoints came in batches."""
    label = sampled.labels[component_index]
    target = float(sampled.values[component_index])

    def residual(loss_factor: float) -> float:
        return target - float(features._event_law(spec, [label.k], label.n_max,
                                                  [1.0 - loss_factor])[0, 0])

    grid = np.asarray(loss_factors, dtype=float).tolist()
    res = (target - np.asarray(theory, dtype=float)).tolist()
    bracket = None
    for a, b, ra, rb in zip(grid, grid[1:], res, res[1:]):
        if ra == 0.0:
            return a
        if ra * rb < 0.0:
            bracket = (a, b, ra)
            break
    if bracket is None:
        return grid[-1] if res[-1] == 0.0 else None
    lo, hi, rlo = bracket
    while hi - lo > features.MATCH_TOL:
        mid = 0.5 * (lo + hi)
        rmid = residual(mid)
        if rmid == 0.0:
            return mid
        if rlo * rmid < 0.0:
            hi = mid
        else:
            lo, rlo = mid, rmid
    return 0.5 * (lo + hi)


def convolve_rows_untruncated(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``engine._convolve_rows`` with every column of each row's
    convolution: the form it had before it stopped at the largest asked
    total."""
    out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1))
    for j in range(y.shape[1]):
        out[:, j:j + x.shape[1]] += y[:, j:j + 1] * x
    return out


def fv_events_per_shot(samples, events, n_max: int) -> np.ndarray:
    """The values of ``features.fv_events_from_samples`` counted over every
    shot: the form it had before it read ``samples.histogram``."""
    shots = samples.shots
    totals = shots.sum(axis=1)
    capped = (shots <= n_max).all(axis=1)
    n = len(samples)
    return np.array([float(np.count_nonzero((totals == k) & capped)) / n
                     for k in events])


def fv_orbits_per_shot(samples, orbits) -> np.ndarray:
    """The values of ``features.fv_orbits_from_samples`` counted over every
    shot, each sorted by negation: the form it had before it read
    ``samples.histogram``."""
    sorted_desc = -np.sort(-samples.shots, axis=1)
    n = len(samples)
    values = []
    for orbit in orbits:
        padded = np.array(tuple(orbit) + (0,) * (N_NODES - len(orbit)))
        values.append(float(np.count_nonzero((sorted_desc == padded).all(axis=1))) / n)
    return np.array(values)


def ingest_report_per_shot(path) -> dict:
    """The report of ``gbsgraphs ingest`` computed over every shot of the
    per-line oracle, the way it was before it read the histogram; the meta
    fields come from the package."""
    shots = ingest_samples_per_line(path)
    meta = engine.ingest_samples(path).meta
    samples = engine.SampleSet.of(shots=shots, meta=meta)
    totals = shots.sum(axis=1)
    observed, counts = np.unique(totals, return_counts=True)
    if shots.max() <= (2 ** 63 - 1) // len(shots):
        mode_totals = shots.sum(axis=0).tolist()
    else:
        mode_totals = [int(x) for x in shots.sum(axis=0, dtype=object)]
    events = fv_events_per_shot(samples, observed.tolist(),
                                features.DEFAULT_MAX_PER_MODE)
    return {
        "path": str(path),
        "shots": len(shots),
        "code": meta.code,
        "threshold": meta.threshold,
        "loss": meta.loss,
        "mode_totals": mode_totals,
        "total_histogram": {str(k): int(c) for k, c in zip(observed, counts)},
        "odd_total_fraction": float((totals % 2 == 1).mean()),
        "event_frequencies": {str(k): float(v) for k, v in zip(observed, events)},
    }
