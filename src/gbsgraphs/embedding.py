"""Device embeddability: exact trace test, scaling, squeezing, photon budget.

A coded graph fits the device iff the nonzero singular values of its 4x4
submatrix are all equal.  The matrix is then rescaled so those values become
tanh(1), which pins every active two-mode squeezer at parameter r = 1 and
fixes the per-mode mean photon number at rank * sinh^2(1)/4.

The test is exact integer arithmetic.  For a real symmetric M with
t2 = tr(M^2) and t4 = tr(M^4), all nonzero eigenvalues share one magnitude
sigma iff M^3 = sigma^2 M, and then sigma^2 = t4 / t2 and
rank = t2^2 / t4.  Every graph that passes is ``rank`` identical
complete-bipartite blocks K_{a,b}, with sigma^2 = a * b, whose modes
``make_embedding`` lists in ``EmbeddingSpec.blocks`` for the law in ``engine``.

``walk_codes`` runs the test once over the stacked 1024 candidate matrices
into catalog records, reading each graph's class off its K_{a,b} block shape;
``embeddability_check`` runs the same test on a stack of one.  The float
eigensolver only lists the singular values of rejected matrices in their
reasons, and the walk calls it only when those reasons are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import graphs
from .errors import NotEmbeddableError

#: Squeezing parameter forced by the device on every active pair.
SQUEEZING = 1.0

#: Per-mode mean photon number contributed by a single substructure.
MEAN_PHOTON_SINGLE = math.sinh(SQUEEZING) ** 2 / 4.0


@dataclass(frozen=True)
class Embeddability:
    """Outcome of the equal-singular-value test on a submatrix."""

    embeddable: bool
    rank: int
    singular_values: tuple[float, ...]   # all four, sorted descending
    reason: str | None = None


def _trace_test(stack: np.ndarray):
    """The exact test on an (n, 4, 4) int64 stack: pass mask, t2, t4.

    A matrix passes iff t2 = tr(M^2) > 0 and t2 * M^3 == t4 * M entry by
    entry, with t4 = tr(M^4).
    """
    m2 = stack @ stack
    t2 = np.trace(m2, axis1=1, axis2=2)
    t4 = (m2 * m2).sum(axis=(1, 2))        # tr(M^4), as M^2 is symmetric
    ok = (t2 > 0) & (t2[:, None, None] * (m2 @ stack)
                     == t4[:, None, None] * stack).all(axis=(1, 2))
    return ok, t2, t4


def _passed(t2: int, t4: int) -> Embeddability:
    rank = t2 * t2 // t4
    sigma = math.sqrt(t4 / t2)
    return Embeddability(True, rank, (sigma,) * rank + (0.0,) * (4 - rank))


def _rejected(stack: np.ndarray, t2: np.ndarray) -> list[Embeddability]:
    """Rejections of a stack of failed matrices, from one eigensolver call."""
    sigmas = np.sort(np.abs(np.linalg.eigvalsh(stack)), axis=1)[:, ::-1]
    # Nonzero singular values of a 0/1 matrix are far above display precision.
    shown = np.round(sigmas, 6) != 0
    out = []
    for t2_i, sigma, shown_i in zip(t2.tolist(), sigmas.tolist(), shown.tolist()):
        if t2_i == 0:
            reason = "no edges"
        else:
            listed = ", ".join([f"{s:.6f}" for s in compress(sigma, shown_i)])
            reason = f"unequal nonzero singular values ({listed})"
        out.append(Embeddability(False, 0, tuple(sigma), reason))
    return out


def embeddability_check(m) -> Embeddability:
    """Decide whether the submatrix can be prepared with equal squeezing.

    The trace test on a stack of one; the rank is the number of active
    squeezed pairs.  A rejected matrix takes a float eigensolver, to list its
    singular values in the reason.
    """
    stack = graphs.validate_submatrix(m)[None]
    ok, t2, t4 = _trace_test(stack)
    if ok[0]:
        return _passed(int(t2[0]), int(t4[0]))
    return _rejected(stack, t2)[0]


@dataclass(frozen=True)
class CatalogRecord:
    code: str
    embeddable: bool
    iso_class: str
    rank: int | None = None
    m: float | None = None                 # mean photon per mode
    singular_value: float | None = None    # common nonzero singular value
    reason: str | None = None              # why not embeddable


def walk_codes(include_all: bool = False) -> list[CatalogRecord]:
    """Catalog records of the candidate codes in ascending order, embeddable
    ones only unless ``include_all``: one trace test over all 1024 matrices.

    A graph that passes is ``rank`` copies of K_{a,b}, with a the row sum of
    a nonzero row and a * b = sigma^2 = t4 / t2; its class is read off that
    shape.  Every other code is ``OTHER``, and its reason, asked for only
    with ``include_all``, comes from one eigensolver call on all of them.
    """
    stack = graphs.candidate_matrices()
    ok, t2, t4 = _trace_test(stack)
    a = stack.sum(axis=2).max(axis=1)
    walked: list[CatalogRecord | None] = [None] * len(stack)
    kept = np.flatnonzero(ok)
    for i, t2_i, t4_i, a_i in zip(kept.tolist(), t2[kept].tolist(),
                                  t4[kept].tolist(), a[kept].tolist()):
        emb = _passed(t2_i, t4_i)
        walked[i] = CatalogRecord(
            graphs.code_of(i), True,
            graphs.block_label(emb.rank, a_i, t4_i // t2_i // a_i),
            emb.rank, emb.rank * MEAN_PHOTON_SINGLE, emb.singular_values[0])
    if include_all:
        failed = np.flatnonzero(~ok)
        for i, emb in zip(failed.tolist(), _rejected(stack[failed], t2[failed])):
            walked[i] = CatalogRecord(graphs.code_of(i), False, graphs.OTHER,
                                      reason=emb.reason)
    return [r for r in walked if r is not None]


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Scaled matrix and squeezing data for one embeddable graph."""

    code: str
    scaled_matrix: np.ndarray            # c * M, nonzero singular values tanh(1)
    scale_c: float
    singular_values: tuple[float, ...]   # of the unscaled matrix
    rank: int
    squeezing: tuple[float, ...]
    mean_photon_per_mode: float
    # (signal modes 0-3, idler modes 4-7) of each K_{a,b} block.
    blocks: list[tuple[tuple[int, ...], tuple[int, ...]]]


def make_embedding(code: str) -> EmbeddingSpec:
    """Embedding parameters for ``code``; raises if it is not embeddable."""
    m = graphs.decode_code(code)
    emb = embeddability_check(m)
    if not emb.embeddable:
        raise NotEmbeddableError(code, emb.reason)
    c = math.tanh(SQUEEZING) / emb.singular_values[0]
    # Signal rows sharing an idler support form a block, ordered by first row.
    rows_by_support: dict[tuple[int, ...], list[int]] = {}
    for i in range(4):
        rows_by_support.setdefault(tuple(4 + j for j in range(4) if m[i, j]), []).append(i)
    return EmbeddingSpec(
        code=code,
        scaled_matrix=c * m,
        scale_c=c,
        singular_values=emb.singular_values,
        rank=emb.rank,
        squeezing=(SQUEEZING,) * emb.rank,
        mean_photon_per_mode=emb.rank * MEAN_PHOTON_SINGLE,
        blocks=[(tuple(rows), support)
                for support, rows in rows_by_support.items() if support],
    )


def enumerate_embeddable() -> list[tuple[str, EmbeddingSpec]]:
    """All embeddable codes with their specs, in ascending code order."""
    return [(c.code, make_embedding(c.code)) for c in walk_codes()]
