"""Exact photon-count law of an embedded graph, written independently of gbsgraphs.

Every embeddable graph is a disjoint union of identical complete bipartite
blocks K_{a,b}.  Each block is one two-mode squeezer at r = 1 spread evenly
over its modes: its pair number n is geometric with ratio tanh^2(1), its n
signal photons fall uniformly on its a signal modes and its n idler photons
uniformly on its b idler modes, independently.  Uniform loss thins every
photon with survival probability eta.  The benchmark uses this law to
generate sample files and to check the program's analytic values; it needs
no permanents and no truncation beyond a tail far below float precision.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TANH2 = math.tanh(1.0) ** 2
SECH2 = 1.0 - TANH2

# Row-major upper-triangle slots filled by the ten code digits.
_UPPER_SLOTS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3),
                (2, 2), (2, 3), (3, 3))

# Pair numbers beyond the observed counts that the sums carry; tanh^2(1)^200
# is below 1e-47, so the dropped tail is far below double precision.
_EXTRA_PAIRS = 200
_LOG_FACT = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, 1024)))))


def decode(code: str) -> list[list[int]]:
    """The symmetric 4x4 0/1 submatrix named by a ten-digit code."""
    m = [[0] * 4 for _ in range(4)]
    for digit, (i, j) in zip(code, _UPPER_SLOTS):
        m[i][j] = m[j][i] = int(digit)
    return m


def blocks(code: str) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(signal modes, idler modes) of each complete bipartite block.

    Row i of the submatrix is idler mode 4 + i and column j is signal mode j.
    Raises ValueError when a component is not complete bipartite.
    """
    m = decode(code)
    parent = list(range(8))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(4):
        for j in range(4):
            if m[i][j]:
                parent[find(4 + i)] = find(j)
    groups: dict[int, list[int]] = {}
    for node in range(8):
        if node < 4 and not any(m[i][node] for i in range(4)):
            continue
        if node >= 4 and not any(m[node - 4]):
            continue
        groups.setdefault(find(node), []).append(node)
    out = []
    for nodes in groups.values():
        sig = tuple(n for n in nodes if n < 4)
        idl = tuple(n for n in nodes if n >= 4)
        if any(not m[i - 4][j] for i in idl for j in sig):
            raise ValueError(f"{code}: component {nodes} is not complete bipartite")
        out.append((sig, idl))
    return sorted(out)


def _log_spread(ns: np.ndarray, counts: list[int], modes: int, eta: float) -> np.ndarray:
    # log P(detected counts | n photons spread uniformly over `modes` modes,
    # each surviving with probability eta), for every n in ns.
    total = sum(counts)
    lost = ns - total
    out = _LOG_FACT[ns] - _LOG_FACT[lost] - sum(_LOG_FACT[c] for c in counts)
    if total:
        out = out + total * math.log(eta / modes)
    if eta < 1.0:
        return out + lost * math.log(1.0 - eta)
    return np.where(lost == 0, out, -np.inf)


def pattern_probability(block_list, pattern, eta: float = 1.0) -> float:
    """Exact probability of one detected 8-mode pattern after loss eta."""
    covered = {m for sig, idl in block_list for m in sig + idl}
    if any(pattern[m] for m in range(8) if m not in covered):
        return 0.0
    prob = 1.0
    for sig, idl in block_list:
        xs = [int(pattern[m]) for m in sig]
        xd = [int(pattern[m]) for m in idl]
        lo = max(sum(xs), sum(xd))
        ns = np.arange(lo, lo + _EXTRA_PAIRS + 1)
        logs = (math.log(SECH2) + ns * math.log(TANH2)
                + _log_spread(ns, xs, len(sig), eta)
                + _log_spread(ns, xd, len(idl), eta))
        prob *= math.fsum(np.exp(logs).tolist())
    return prob


def pair_law(rank: int, pairs: int) -> float:
    """Negative binomial: probability that `rank` squeezers emit `pairs` pairs."""
    return math.comb(pairs + rank - 1, pairs) * SECH2 ** rank * TANH2 ** pairs


def event_probability(rank: int, k: int, eta: float = 1.0) -> float:
    """Probability of detecting k photons in total, with no per-mode cap."""
    if eta == 1.0:
        return pair_law(rank, k // 2) if k % 2 == 0 else 0.0
    top = k + _EXTRA_PAIRS
    return math.fsum(pair_law(rank, p) * math.comb(2 * p, k)
                     * eta ** k * (1.0 - eta) ** (2 * p - k)
                     for p in range((k + 1) // 2, top))


def orbit_members(orbit) -> list[tuple[int, ...]]:
    padded = tuple(orbit) + (0,) * (8 - len(orbit))
    return sorted(set(itertools.permutations(padded)))


def capped_members(k: int, n_max: int) -> list[tuple[int, ...]]:
    return [p for p in itertools.product(range(min(k, n_max) + 1), repeat=8)
            if sum(p) == k]


def sample(block_list, shots: int, eta: float, rng) -> np.ndarray:
    """Draw (shots, 8) detected patterns from the exact law."""
    out = np.zeros((shots, 8), dtype=np.int64)
    for sig, idl in block_list:
        pairs = rng.geometric(SECH2, size=shots) - 1
        out[:, list(sig)] = rng.multinomial(pairs, [1.0 / len(sig)] * len(sig))
        out[:, list(idl)] = rng.multinomial(pairs, [1.0 / len(idl)] * len(idl))
    if eta < 1.0:
        out = rng.binomial(out, eta).astype(np.int64)
    return out
