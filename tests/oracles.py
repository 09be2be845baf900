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

from gbsgraphs import engine, graphs
from gbsgraphs.catalog import CatalogRecord
from gbsgraphs.embedding import MEAN_PHOTON_SINGLE, Embeddability
from gbsgraphs.errors import SampleFormatError

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
    for code in graphs.all_codes():
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
    error text."""
    try:
        want = ingest_samples_per_line(path)
    except SampleFormatError as exc:
        with pytest.raises(SampleFormatError) as err:
            engine.ingest_samples(path)
        assert str(err.value) == str(exc)
        return
    got = engine.ingest_samples(path).shots
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
