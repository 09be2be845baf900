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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def embeddability_check(m) -> Embeddability:
    """Decide whether the submatrix can be prepared with equal squeezing.

    Embeddable iff t2 = tr(M^2) > 0 and t2 * M^3 == t4 * M entry by entry,
    with t4 = tr(M^4); the rank is then the number of active squeezed pairs.
    Only rejected matrices take a float eigensolver, to list their singular
    values in the reason.
    """
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
    # Nonzero singular values of a 0/1 matrix are far above display precision.
    listed = ", ".join(f"{s:.6f}" for s in sigma if round(s, 6))
    return Embeddability(
        False, 0, sigma, f"unequal nonzero singular values ({listed})")


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
    out = []
    for code in graphs.all_codes():
        emb = embeddability_check(graphs.decode_code(code))
        if emb.embeddable:
            out.append((code, make_embedding(code)))
    return out


def mean_photon_total(spec: EmbeddingSpec) -> float:
    """Mean photon number over the whole device: 8 times the per-mode value."""
    return 8.0 * spec.mean_photon_per_mode
