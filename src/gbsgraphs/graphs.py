"""Graph codes, bipartite adjacency construction, and isomorphism classes.

A candidate graph is named by ten binary digits filling the upper triangle of
a 4x4 symmetric 0/1 matrix row-major.  That submatrix couples the four signal
modes (nodes 0-3) to the four idler modes (nodes 4-7) of the device, giving an
8-node bipartite adjacency matrix with zero diagonal blocks.

``classify`` names any 8-node graph by its connected components;
``block_label`` names a graph already known to be ``rank`` disjoint copies of
K_{a,b} from that block shape alone, through the same signature table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

CODE_LENGTH = 10
N_NODES = 8

# Row-major upper-triangle slots of the 4x4 symmetric submatrix, in the order
# the ten code digits fill them.
_UPPER_SLOTS = (
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (1, 2), (1, 3),
    (2, 2), (2, 3),
    (3, 3),
)

# The ten isomorphism classes, in catalog display order, plus the fallback
# for graphs outside them.
CLASS_LABELS = ("1K2", "2K2", "1C4", "2P3", "3K2",
                "1K33", "2S3", "4K2", "2C4", "1K44")
OTHER = "OTHER"


class ComponentSignature(NamedTuple):
    """Node count, edge count, and sorted degree multiset of one component."""

    node_count: int
    edge_count: int
    degrees: tuple[int, ...]    # nonincreasing


# Signatures of the connected subgraphs occurring among the embeddable
# graphs.  Each is decisive within bipartite graphs: a connected bipartite
# component with the given node/edge/degree data is forced to be that graph.
_COMPONENT_NAMES = {
    ComponentSignature(2, 1, (1, 1)): "K2",
    ComponentSignature(3, 2, (2, 1, 1)): "P3",
    ComponentSignature(4, 4, (2, 2, 2, 2)): "C4",
    ComponentSignature(4, 3, (3, 1, 1, 1)): "S3",
    ComponentSignature(6, 9, (3,) * 6): "K33",
    ComponentSignature(8, 16, (4,) * 8): "K44",
}


def validate_code(code: str) -> str:
    """Check that ``code`` is a string of exactly ten 0/1 digits."""
    if not isinstance(code, str):
        raise ValidationError(
            f"graph code must be a string, got {type(code).__name__}")
    if len(code) != CODE_LENGTH:
        raise ValidationError(
            f"graph code must have {CODE_LENGTH} digits, got {code!r}")
    if any(ch not in "01" for ch in code):
        raise ValidationError(
            f"graph code must contain only 0/1 digits, got {code!r}")
    return code


def code_of(n: int) -> str:
    """Candidate code number ``n``: its ten binary digits, most significant first."""
    return format(n, f"0{CODE_LENGTH}b")


def candidate_matrices() -> np.ndarray:
    """The (1024, 4, 4) int64 stack of all candidate submatrices.

    Matrix n is ``decode_code(code_of(n))``: code digit k is bit 9 - k of n.
    """
    n = np.arange(1 << CODE_LENGTH)
    digits = (n[:, None] >> np.arange(CODE_LENGTH - 1, -1, -1)) & 1
    rows, cols = np.array(_UPPER_SLOTS).T
    stack = np.zeros((n.size, 4, 4), dtype=np.int64)
    stack[:, rows, cols] = digits
    stack[:, cols, rows] = digits
    return stack


def validate_submatrix(m) -> np.ndarray:
    """Check that ``m`` is a 4x4 symmetric 0/1 matrix; return it as int64."""
    m = np.asarray(m)
    if m.shape != (4, 4):
        raise ValidationError(f"submatrix must be 4x4, got shape {m.shape}")
    if not ((m == 0) | (m == 1)).all():
        raise ValidationError("submatrix entries must be 0 or 1")
    m = m.astype(np.int64)
    if (m != m.T).any():
        raise ValidationError("submatrix must be symmetric")
    return m


def decode_code(code: str) -> np.ndarray:
    """Build the 4x4 symmetric 0/1 submatrix named by ``code``."""
    validate_code(code)
    m = np.zeros((4, 4), dtype=np.int64)
    for digit, (i, j) in zip(code, _UPPER_SLOTS):
        m[i, j] = m[j, i] = int(digit)
    return m


def build_adjacency(m) -> np.ndarray:
    """8x8 bipartite adjacency with the submatrix as off-diagonal block.

    Edge (i, 4+j) is present iff m[i, j] = 1; the diagonal 4x4 blocks are
    zero by construction.
    """
    m = validate_submatrix(m)
    a = np.zeros((N_NODES, N_NODES), dtype=np.int64)
    a[:4, 4:] = m
    a[4:, :4] = m.T
    return a


def _check_adjacency(a) -> np.ndarray:
    """Adjacency check: 8x8, symmetric, 0/1, zero diagonal.

    Components and class labels are also asked of freely relabeled graphs,
    so this deliberately does not require the bipartite block structure.
    """
    a = np.asarray(a)
    if a.shape != (N_NODES, N_NODES):
        raise ValidationError(f"adjacency must be 8x8, got shape {a.shape}")
    if not ((a == 0) | (a == 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    a = a.astype(np.int64)
    if (a != a.T).any():
        raise ValidationError("adjacency must be symmetric")
    if np.diagonal(a).any():
        raise ValidationError("adjacency must have a zero diagonal")
    return a


def adjacency_for(code: str) -> np.ndarray:
    """Shorthand for ``build_adjacency(decode_code(code))``."""
    return build_adjacency(decode_code(code))


def connected_components(a) -> list[tuple[tuple[int, ...], ComponentSignature]]:
    """Partition the 8 nodes into maximal connected sets.

    Returns (node tuple, signature) pairs ordered by smallest node; isolated
    nodes appear as size-1 components with zero edges.
    """
    a = _check_adjacency(a)
    seen = [False] * N_NODES
    out = []
    for start in range(N_NODES):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        nodes = []
        while stack:
            u = stack.pop()
            nodes.append(u)
            for v in np.nonzero(a[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        nodes.sort()
        degrees = tuple(sorted((int(a[u].sum()) for u in nodes), reverse=True))
        sig = ComponentSignature(len(nodes), sum(degrees) // 2, degrees)
        out.append((tuple(nodes), sig))
    return out


def _class_label(count: int, name: str | None) -> str:
    """``count`` copies of the component called ``name``, or ``OTHER``."""
    label = f"{count}{name}"
    return label if name is not None and label in CLASS_LABELS else OTHER


def classify(a) -> str:
    """Isomorphism class label for ``a``, or ``OTHER``.

    Every non-singleton component must carry the same recognised signature;
    the multiplicity then determines the numeric prefix.  Anything else falls
    through to ``OTHER`` (the classifier totalises over all 1024 codes).
    """
    sigs = [sig for _, sig in connected_components(a) if sig.node_count > 1]
    names = {_COMPONENT_NAMES.get(sig) for sig in sigs}
    if len(names) != 1:
        return OTHER
    return _class_label(len(sigs), names.pop())


def block_label(rank: int, a: int, b: int) -> str:
    """Class label of ``rank`` disjoint copies of K_{a,b}, or ``OTHER``."""
    small, large = sorted((a, b))
    sig = ComponentSignature(a + b, a * b, (large,) * small + (small,) * large)
    return _class_label(rank, _COMPONENT_NAMES.get(sig))
