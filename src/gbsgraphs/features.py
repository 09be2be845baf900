"""Event and orbit feature vectors, analytic and sampled, with optional loss.

An event (k, n_max) collects every pattern with total k and no mode above
n_max; an orbit is the nonincreasing multiset of nonzero counts, i.e. the
pattern up to mode permutation.  Feature vectors list probabilities of chosen
events or orbits and come in two provenances: ``sampled`` (frequencies from a
shot list) and ``analytic`` (exact values of the product law in ``engine``,
thinned per photon when a loss model is given).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import engine, graphs
from .embedding import EmbeddingSpec
from .engine import LossModel, SampleSet
from .errors import ValidationError

#: Event totals the analysis defaults to (odd totals vanish without loss).
DEFAULT_EVENTS = (2, 4, 6, 8)

#: Default per-mode cap when collecting events.
DEFAULT_MAX_PER_MODE = 8

#: Orbits used for the three-coordinate graph representation.
DEFAULT_ORBITS = ((1, 1, 1), (1, 1, 1, 1), (2, 1, 1))

#: Analytic values below this give meaningless relative deviations.
DEVIATION_FLOOR = 1e-12

#: match_loss bisects to this width; no loss-factor grid step is finer.
MATCH_TOL = 1e-4


class EventSpec(NamedTuple):
    k: int
    n_max: int


OrbitId = tuple[int, ...]


def validate_orbit(orbit) -> OrbitId:
    orbit = tuple(int(x) for x in orbit)
    if len(orbit) > graphs.N_NODES:
        raise ValidationError(f"orbit {orbit} has more than {graphs.N_NODES} parts")
    if any(x <= 0 for x in orbit):
        raise ValidationError(f"orbit parts must be positive, got {orbit}")
    if any(a < b for a, b in zip(orbit, orbit[1:])):
        raise ValidationError(f"orbit parts must be nonincreasing, got {orbit}")
    if sum(orbit) > 2 ** 63 - 1:
        raise ValidationError("orbit parts sum to more than 2^63 - 1")
    return orbit


def validate_events(events) -> list[int]:
    events = [int(k) for k in events]
    if any(k < 0 for k in events):
        raise ValidationError("event totals must be nonnegative")
    return events


def _distinct_orders(parts: tuple) -> list[tuple]:
    """Distinct orderings of the ascending tuple ``parts``, in ascending order."""
    if len(parts) <= 1:
        return [parts]
    return [(x,) + rest for i, x in enumerate(parts) if parts.index(x) == i
            for rest in _distinct_orders(parts[:i] + parts[i + 1:])]


def orbit_patterns(orbit) -> np.ndarray:
    """All distinct patterns in the orbit, as an int64 (n, 8) array in
    ascending lexicographic order.

    The k nonzero parts fill k of the 8 modes: each of the C(8, k) slot
    choices takes each distinct ordering of the parts, and one lexsort puts
    the rows in order.  Every call builds a fresh array.
    """
    orbit = validate_orbit(orbit)
    slots = np.array(list(itertools.combinations(range(graphs.N_NODES), len(orbit))),
                     dtype=np.intp)
    orders = np.array(_distinct_orders(orbit[::-1]), dtype=np.int64)
    out = np.zeros((len(slots) * len(orders), graphs.N_NODES), dtype=np.int64)
    out[np.arange(len(out))[:, None], np.repeat(slots, len(orders), axis=0)] = (
        np.tile(orders, (len(slots), 1)))
    return out[np.lexsort(out.T[::-1])]


@functools.lru_cache(maxsize=8)
def _members(orbit: OrbitId) -> np.ndarray:
    # Read-only ``orbit_patterns`` of a validated orbit.  An orbit has at most
    # 8! = 40,320 members (2.6 MB), so the cache holds at most about 21 MB.
    out = orbit_patterns(orbit)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Probabilities for an ordered list of event or orbit labels."""

    labels: tuple
    values: np.ndarray
    provenance: str               # "sampled" | "analytic"
    loss_eta: float
    stat_error: np.ndarray | None = None   # binomial, sampled only
    tail_bound: np.ndarray | None = None   # analytic only: 0, the values are exact


def format_label(label) -> str:
    if isinstance(label, EventSpec):
        return f"event(k={label.k},nmax={label.n_max})"
    return "orbit(" + ",".join(str(x) for x in label) + ")"


# ---------------------------------------------------------------------------
# Sampled feature vectors
# ---------------------------------------------------------------------------

def _sampled_fv(samples: SampleSet, labels, masks) -> FeatureVector:
    # Each label's value: the counts of its mask's rows of
    # ``samples.histogram``, summed, over the number of shots.
    counts = samples.histogram[1]
    n = len(samples)
    values = np.array([float(counts[mask].sum()) / n for mask in masks])
    return FeatureVector(
        labels=tuple(labels),
        values=values,
        provenance="sampled",
        loss_eta=samples.meta.loss if samples.meta.loss is not None else 1.0,
        stat_error=np.sqrt(values * (1.0 - values) / n),
    )


def fv_events_from_samples(samples: SampleSet, events: Sequence[int],
                           n_max: int = DEFAULT_MAX_PER_MODE) -> FeatureVector:
    """Fraction of shots landing in each event (k, n_max): the counts of
    the matching rows of ``samples.histogram``, summed."""
    if len(samples) == 0:
        raise ValidationError("cannot build a feature vector from zero shots")
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    events = validate_events(events)
    rows = samples.histogram[0]
    totals = rows.sum(axis=1, dtype=np.int64)
    capped = (rows <= n_max).all(axis=1)
    return _sampled_fv(samples, (EventSpec(k, n_max) for k in events),
                       ((totals == k) & capped for k in events))


def fv_orbits_from_samples(samples: SampleSet,
                           orbits: Sequence[OrbitId]) -> FeatureVector:
    """Fraction of shots whose count multiset equals each orbit: the counts
    of the matching rows of ``samples.histogram``, summed."""
    if len(samples) == 0:
        raise ValidationError("cannot build a feature vector from zero shots")
    orbits = [validate_orbit(o) for o in orbits]
    # Sorted ascending, then reversed: unsigned rows are never negated.
    sorted_desc = np.sort(samples.histogram[0], axis=1)[:, ::-1]
    padded = (np.array(o + (0,) * (graphs.N_NODES - len(o))) for o in orbits)
    return _sampled_fv(samples, orbits,
                       ((sorted_desc == p).all(axis=1) for p in padded))


# ---------------------------------------------------------------------------
# Analytic feature vectors
# ---------------------------------------------------------------------------

def _analytic_fv(labels, values, eta: float) -> FeatureVector:
    # Exact values at transmission eta, so every tail bound is 0.
    return FeatureVector(labels=tuple(labels), values=np.asarray(values),
                         provenance="analytic", loss_eta=eta,
                         tail_bound=np.zeros(len(values)))


def _event_law(spec: EmbeddingSpec, events: list[int], n_max: int,
               etas) -> np.ndarray:
    # One row per transmission, one column per event total: an open cap
    # (n_max >= k) reads the total-count law, a binding cap sums the product
    # law per block.
    out = np.empty((len(etas), len(events)))
    open_cap = [i for i, k in enumerate(events) if k <= n_max]
    capped = [i for i, k in enumerate(events) if k > n_max]
    if open_cap:
        out[:, open_cap] = engine.detected_total_probabilities(
            spec.rank, [events[i] for i in open_cap], etas)
    if capped:
        out[:, capped] = engine.capped_event_probabilities(
            spec, [events[i] for i in capped], n_max, etas)
    return out


def fv_events_analytic(spec: EmbeddingSpec, events: Sequence[int],
                       n_max: int = DEFAULT_MAX_PER_MODE,
                       loss: LossModel | None = None,
                       cutoff_pairs: int | None = None) -> FeatureVector:
    """Exact event probabilities.

    An open cap (n_max >= k) reads the total-count law, a binding cap sums
    the product law per block; both are exact, so tail_bound is 0.
    ``cutoff_pairs`` is accepted and unused.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    eta = 1.0 if loss is None else loss.eta
    events = validate_events(events)
    return _analytic_fv((EventSpec(k, n_max) for k in events),
                        _event_law(spec, events, n_max, [eta])[0], eta)


def fv_orbits_analytic(spec: EmbeddingSpec, orbits: Sequence[OrbitId],
                       loss: LossModel | None = None,
                       cutoff_pairs: int | None = None) -> FeatureVector:
    """Exact orbit probabilities: the product law summed over each orbit's
    member patterns, so tail_bound is 0.  ``cutoff_pairs`` is accepted and
    unused.  Members come from a cache of the last 8 orbits' read-only arrays."""
    eta = 1.0 if loss is None else loss.eta
    orbits = [validate_orbit(o) for o in orbits]
    # One law call over every orbit's members, summed per orbit: a pattern's
    # probability does not depend on the other rows of the call.  The empty
    # block keeps an empty orbit list valid.
    members = [_members(o) for o in orbits]
    prob = engine.detected_probabilities(
        spec, np.concatenate([np.empty((0, graphs.N_NODES), np.int64), *members]),
        eta)
    ends = np.cumsum([len(m) for m in members], dtype=np.intp)
    return _analytic_fv(orbits, [float(prob[end - len(m):end].sum())
                                 for m, end in zip(members, ends)], eta)


# ---------------------------------------------------------------------------
# Loss-sweep deviation curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeviationCurve:
    """Relative deviation of a sampled FV from theory across a loss sweep."""

    loss_factors: np.ndarray      # strictly increasing, in [0, 1]
    deviations: np.ndarray        # (grid, components); NaN where undefined
    labels: tuple
    theory: np.ndarray            # (grid, components) analytic values


def _require_sampled_events(sampled: FeatureVector) -> None:
    if sampled.provenance != "sampled":
        raise ValidationError("deviation curves need a sampled feature vector")
    if not sampled.labels or not all(isinstance(lbl, EventSpec)
                                     for lbl in sampled.labels):
        raise ValidationError("deviation curves need one or more event labels")


def relative_deviation(sampled: FeatureVector, spec: EmbeddingSpec,
                       transmissions: Sequence[float]) -> DeviationCurve:
    """(sampled - theory(eta)) / theory(eta) per component over an eta grid.

    Rows are ordered by increasing loss factor 1 - eta, and the whole grid is
    one evaluation of the law.  Components whose analytic value sits below
    ``DEVIATION_FLOOR`` are undefined (NaN) at that grid point; consumers
    must skip them.
    """
    _require_sampled_events(sampled)
    etas = sorted(set(float(e) for e in transmissions), reverse=True)
    if not etas:
        raise ValidationError("empty transmission grid")
    if etas[0] > 1.0 or etas[-1] < 0.0:
        raise ValidationError("transmissions must lie in [0, 1]")
    theory = _event_law(spec, [lbl.k for lbl in sampled.labels],
                        sampled.labels[0].n_max, etas)
    defined = theory >= DEVIATION_FLOOR
    return DeviationCurve(
        loss_factors=np.array([1.0 - e for e in etas]),
        deviations=np.where(defined, (sampled.values - theory)
                            / np.where(defined, theory, 1.0), np.nan),
        labels=sampled.labels,
        theory=theory,
    )


def loss_factor_grid(step: float) -> np.ndarray:
    """Loss factors 0, step, 2 step, ... up to 1, the last one clamped at 1.

    ``step`` must lie in [MATCH_TOL, 1]: a grid finer than match_loss's
    bisection adds nothing, and the bound keeps a sweep to 10,001 points.
    """
    if not MATCH_TOL <= step <= 1.0:
        raise ValidationError(
            f"loss-factor step must lie in [{MATCH_TOL:g}, 1], got {step!r}")
    return np.minimum(np.arange(0.0, 1.0 + step / 2, step), 1.0)


def match_loss(sampled: FeatureVector, spec: EmbeddingSpec,
               component_index: int, step: float = 0.01,
               cutoff_pairs: int | None = None) -> float | None:
    """Loss factor where one component's deviation changes sign.

    Evaluates the component on ``loss_factor_grid(step)`` in one law call,
    then hands over to ``match_on_grid``, whose bisection takes one more
    call per 7 halvings for an open cap and one per halving for a binding
    cap.  ``cutoff_pairs`` is accepted and unused.
    """
    _require_sampled_events(sampled)
    if not 0 <= component_index < len(sampled.labels):
        raise ValidationError(f"component index {component_index} out of range")
    label = sampled.labels[component_index]
    grid = loss_factor_grid(step)
    theory = _event_law(spec, [label.k], label.n_max, 1.0 - grid)[:, 0]
    return match_on_grid(sampled, spec, component_index, grid, theory)


#: Halvings whose midpoints one open-cap law call of ``match_on_grid``
#: evaluates: up to 2^7 - 1 = 127 transmissions.
_HALVINGS_PER_CALL = 7


def _halving_points(lo: float, hi: float, halvings: int) -> np.ndarray:
    # Every midpoint that bisecting [lo, hi] down to MATCH_TOL can visit in
    # its next ``halvings`` halvings: each level halves every interval still
    # wider than MATCH_TOL, with the float arithmetic of the bisection.
    los, his, points = np.array([lo]), np.array([hi]), []
    for _ in range(halvings):
        wide = his - los > MATCH_TOL
        los, his = los[wide], his[wide]
        if not len(los):
            break
        mids = 0.5 * (los + his)
        points.append(mids)
        los, his = np.concatenate([los, mids]), np.concatenate([mids, his])
    return np.concatenate(points)


def match_on_grid(sampled: FeatureVector, spec: EmbeddingSpec,
                  component_index: int, loss_factors: np.ndarray,
                  theory: np.ndarray) -> float | None:
    """Loss factor where one component's sampled - theory changes sign.

    ``theory`` holds the component's analytic values at the increasing
    ``loss_factors``.  The first sign change on that grid brackets the
    match, and bisection narrows it to MATCH_TOL.  For an open cap
    (n_max >= k) one call of the total-count law evaluates every midpoint
    the next 7 halvings can visit, and the bisection reads its values from
    there; a binding cap, whose law costs grow with the number of
    transmissions, takes one call per halving.  Either way the result is
    the one a call per halving gives, bit for bit.  Returns None when the
    grid shows no sign change.
    """
    label = sampled.labels[component_index]
    target = float(sampled.values[component_index])
    halvings = _HALVINGS_PER_CALL if label.k <= label.n_max else 1

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
    known: dict[float, float] = {}
    while hi - lo > MATCH_TOL:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            points = _halving_points(lo, hi, halvings)
            law = _event_law(spec, [label.k], label.n_max, 1.0 - points)[:, 0]
            known = dict(zip(points.tolist(), (target - law).tolist()))
        rmid = known[mid]
        if rmid == 0.0:
            return mid
        if rlo * rmid < 0.0:
            hi = mid
        else:
            lo, rlo = mid, rmid
    return 0.5 * (lo + hi)
