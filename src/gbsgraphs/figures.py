"""Figure data: per-class event values, loss-sweep deviations, orbit space.

Each figure is emitted data-first as CSV; the SVG is a static rendering of
the same rows.  Probabilities are written with 12 significant digits so that
repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features, graphs, svg
from .embedding import EmbeddingSpec, make_embedding, walk_codes
from .engine import SampleSet

_CLASS_COLOR = dict(zip(graphs.CLASS_LABELS, svg.PALETTE))


def fmt_prob(x: float) -> str:
    """12-significant-digit formatting used for all emitted numbers."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return format(float(x), ".12g")


def write_csv(path, header: list[str], rows: list[list]) -> Path:
    """Write ``header`` and ``rows`` as UTF-8 CSV; None becomes an empty cell."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def class_sorted_codes(codes, labels: dict[str, str] | None = None
                       ) -> list[tuple[str, str]]:
    """(code, class) pairs grouped by class in display order, codes ascending.

    Classes come from ``labels`` (code -> class), by default those of the
    embeddable codes from one ``walk_codes``.  A code outside it goes to
    ``graphs.classify``, which checks it and names it ``OTHER``.
    """
    if labels is None:
        labels = {c.code: c.iso_class for c in walk_codes()}
    labeled = [(code, labels[code] if code in labels
                else graphs.classify(graphs.adjacency_for(code)))
               for code in codes]
    order = {label: i for i, label in enumerate(graphs.CLASS_LABELS)}
    labeled.sort(key=lambda kv: (order.get(kv[1], len(order)), kv[0]))
    return labeled


# ---------------------------------------------------------------------------
# Event value per graph, grouped by class
# ---------------------------------------------------------------------------

def event_by_class_rows(samples_by_code: dict[str, SampleSet],
                        event_k: int = 6,
                        labels: dict[str, str] | None = None) -> list[dict]:
    """Sampled and lossless-analytic probability of one event, per graph,
    at the default per-mode cap; ``labels`` as in ``class_sorted_codes``."""
    rows = []
    for position, (code, label) in enumerate(
            class_sorted_codes(samples_by_code, labels)):
        sampled = features.fv_events_from_samples(samples_by_code[code], [event_k])
        analytic = features.fv_events_analytic(make_embedding(code), [event_k])
        rows.append({
            "position": position,
            "code": code,
            "class": label,
            "sampled": float(sampled.values[0]),
            "stat_error": float(sampled.stat_error[0]),
            "analytic": float(analytic.values[0]),
        })
    return rows


def write_event_by_class(rows: list[dict], csv_path, svg_path=None,
                         event_k: int = 6) -> list[Path]:
    paths = [write_csv(
        csv_path,
        ["position", "code", "class", "sampled", "stat_error", "analytic"],
        [[r["position"], r["code"], r["class"], fmt_prob(r["sampled"]),
          fmt_prob(r["stat_error"]), fmt_prob(r["analytic"])] for r in rows])]
    if svg_path is not None:
        ticks = []
        for label in graphs.CLASS_LABELS:
            member_rows = [r for r in rows if r["class"] == label]
            if member_rows:
                center = sum(r["position"] for r in member_rows) / len(member_rows)
                ticks.append((center, label))
        panel = svg.Panel(
            title=f"event {event_k} probability by graph",
            xlabel="graph (grouped by class)",
            ylabel="probability",
            x_ticks=ticks,
            series=[
                svg.Series("sampled", [r["position"] for r in rows],
                           [r["sampled"] for r in rows], "#1f77b4", "points"),
                svg.Series("analytic", [r["position"] for r in rows],
                           [r["analytic"] for r in rows], "#d62728", "line"),
            ])
        paths.append(svg.render(svg_path, [panel], panel_width=960))
    return paths


# ---------------------------------------------------------------------------
# Loss sweep deviation curves
# ---------------------------------------------------------------------------

def deviation_rows(samples: SampleSet, spec: EmbeddingSpec,
                   events=features.DEFAULT_EVENTS,
                   n_max: int = features.DEFAULT_MAX_PER_MODE,
                   step: float = 0.01,
                   cutoff_pairs: int | None = None):
    """Deviation curve and matched loss factors, from one evaluation of the
    grid (``cutoff_pairs``: accepted, unused)."""
    loss_factors = features.loss_factor_grid(step)
    sampled = features.fv_events_from_samples(samples, events, n_max)
    curve = features.relative_deviation(sampled, spec, 1.0 - loss_factors)
    # 1 - loss factor falls strictly along the grid, so rows stay aligned.
    matches = {
        features.format_label(label): features.match_on_grid(
            sampled, spec, i, loss_factors, curve.theory[:, i])
        for i, label in enumerate(sampled.labels)}
    return curve, matches


def write_deviation(curve: features.DeviationCurve, csv_path,
                    svg_path=None) -> list[Path]:
    header = ["loss_factor"] + [features.format_label(lbl) for lbl in curve.labels]
    rows = [[fmt_prob(lf)] + [fmt_prob(dev) for dev in devs]
            for lf, devs in zip(curve.loss_factors, curve.deviations)]
    paths = [write_csv(csv_path, header, rows)]
    if svg_path is not None:
        series = []
        for j, label in enumerate(curve.labels):
            mask = ~np.isnan(curve.deviations[:, j])
            series.append(svg.Series(
                features.format_label(label),
                [float(x) for x in curve.loss_factors[mask]],
                [float(y) for y in curve.deviations[mask, j]],
                svg.PALETTE[j % len(svg.PALETTE)], "line"))
        zero = svg.Series("", [0.0, 1.0], [0.0, 0.0], "#999999", "line")
        panel = svg.Panel(
            title="relative deviation from theory vs loss factor",
            xlabel="loss factor",
            ylabel="relative deviation",
            series=[zero] + series)
        paths.append(svg.render(svg_path, [panel], panel_width=960))
    return paths


# ---------------------------------------------------------------------------
# Orbit-space coordinates and clustering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSummary:
    iso_class: str
    centroid: tuple[float, ...]
    dispersion: float          # max member distance from centroid
    nearest_class: str
    separation: float          # distance to nearest other centroid


def orbit_space_rows(samples_by_code: dict[str, SampleSet],
                     labels: dict[str, str] | None = None) -> list[dict]:
    """Per-graph coordinates: sampled probabilities of the default orbits;
    ``labels`` as in ``class_sorted_codes``."""
    rows = []
    for code, label in class_sorted_codes(samples_by_code, labels):
        fv = features.fv_orbits_from_samples(samples_by_code[code],
                                             features.DEFAULT_ORBITS)
        rows.append({"code": code, "class": label,
                     "coords": tuple(float(v) for v in fv.values)})
    return rows


def cluster_summaries(rows: list[dict]) -> list[ClusterSummary]:
    by_class: dict[str, list[np.ndarray]] = {}
    for row in rows:
        by_class.setdefault(row["class"], []).append(np.array(row["coords"]))
    centroids = {lbl: np.mean(pts, axis=0) for lbl, pts in by_class.items()}
    out = []
    for label in graphs.CLASS_LABELS:
        if label not in by_class:
            continue
        pts = by_class[label]
        centroid = centroids[label]
        dispersion = max(float(np.linalg.norm(p - centroid)) for p in pts)
        others = [(other, float(np.linalg.norm(centroids[other] - centroid)))
                  for other in centroids if other != label]
        nearest, separation = min(others, key=lambda kv: kv[1], default=("", math.nan))
        out.append(ClusterSummary(label, tuple(float(x) for x in centroid),
                                  dispersion, nearest, separation))
    return out


def write_orbit_space(rows: list[dict], summaries: list[ClusterSummary],
                      csv_path, clusters_csv_path, svg_path=None) -> list[Path]:
    labels = [features.format_label(o) for o in features.DEFAULT_ORBITS]
    paths = [write_csv(
        csv_path, ["code", "class"] + labels,
        [[r["code"], r["class"]] + [fmt_prob(c) for c in r["coords"]]
         for r in rows])]
    paths.append(write_csv(
        clusters_csv_path,
        ["class"] + [f"centroid_{lbl}" for lbl in labels]
        + ["dispersion", "nearest_class", "separation"],
        [[s.iso_class] + [fmt_prob(c) for c in s.centroid]
         + [fmt_prob(s.dispersion), s.nearest_class, fmt_prob(s.separation)]
         for s in summaries]))
    if svg_path is not None:
        panels = []
        for (ix, iy), title in (((0, 1), f"{labels[0]} vs {labels[1]}"),
                                ((0, 2), f"{labels[0]} vs {labels[2]}")):
            series = []
            for label in graphs.CLASS_LABELS:
                pts = [r for r in rows if r["class"] == label]
                if pts:
                    series.append(svg.Series(
                        label,
                        [r["coords"][ix] for r in pts],
                        [r["coords"][iy] for r in pts],
                        _CLASS_COLOR[label], "points"))
            panels.append(svg.Panel(title=title, xlabel=labels[ix],
                                    ylabel=labels[iy], series=series))
        paths.append(svg.render(svg_path, panels))
    return paths
