"""Brute-force reference implementations the tests compare the package against.

They are independent of the package's own algorithms and far slower, so they
live with the tests rather than in ``gbsgraphs``.
"""

import itertools

import numpy as np

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
