"""Command-line surface: enumerate, classify, embed, simulate, ingest, fv,
deviation, figure, pipeline, overlap.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 internal invariant
breach.  Every command is deterministic given its options and seed.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import click
import numpy as np

from . import catalog, features, figures, graphs
from .embedding import make_embedding, walk_codes
from .engine import (
    MAX_SHOTS,
    LossModel,
    apply_loss,
    ingest_samples,
    sample,
    to_threshold,
    write_samples,
)
from .errors import InternalError, ValidationError


#: Exit code of each kind of error a command raises (see the module docstring).
_EXIT_CODES = {ValidationError: 2, OSError: 3, InternalError: 4}


class _MappedErrorGroup(click.Group):
    """Maps the package's errors to exit codes once, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            error = click.ClickException(str(exc))
            error.exit_code = next(code for kind, code in _EXIT_CODES.items()
                                   if isinstance(exc, kind))
            raise error


def _parse_events(text: str) -> list[int]:
    try:
        events = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad event list {text!r}; expected e.g. '2,4,6,8'")
    return features.validate_events(events)


def _parse_orbits(text: str) -> list[tuple[int, ...]]:
    orbits = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            orbit = tuple(int(x) for x in part.split(","))
        except ValueError:
            raise ValidationError(
                f"bad orbit {part!r}; expected e.g. '1,1,1;2,1,1'")
        orbits.append(features.validate_orbit(orbit))
    if not orbits:
        raise ValidationError("empty orbit list")
    return orbits


def _parse_codes(text: str | None) -> list[str]:
    """Graph codes of a comma list, stripped and checked; empty ones skipped."""
    return [graphs.validate_code(c.strip()) for c in (text or "").split(",")
            if c.strip()]


def _echo(message: str = "") -> None:
    """``click.echo(message)`` to stdout, picked as click picks it by default
    (``errors=None``) but not cached.  Without ``file=``, click caches a
    writer per stream in a ``WeakKeyDictionary`` whose value is the stream
    itself when it needs no re-encoding, so every stream a caller swaps in
    (``CliRunner``, ``redirect_stdout``) would stay alive for good."""
    click.echo(message, file=click.get_text_stream("stdout", errors=None))


def _echo_json(payload) -> None:
    _echo(json.dumps(payload, indent=2, sort_keys=True))


_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0,
                            show_default=True,
                            help="PCG64 seed; reruns are bit-identical.")


@click.group(cls=_MappedErrorGroup)
@click.version_option()
def cli():
    """Bipartite-graph boson-sampling simulator and analysis pipeline."""


@cli.command("enumerate")
@click.option("--all-candidates", is_flag=True,
              help="Include the non-embeddable codes with their reasons.")
@click.option("--out", type=click.Path(dir_okay=False), default="catalog.json",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def cmd_enumerate(all_candidates, out, fmt):
    """Write the catalog of embeddable graph codes."""
    records = catalog.build_catalog(include_all=all_candidates)
    if fmt == "json":
        catalog.write_catalog(records, out)
    else:
        figures.write_csv(
            out, ["code", "embeddable", "class", "rank", "m", "singular_value",
                  "reason"],
            [[rec.code, rec.embeddable, rec.iso_class, rec.rank,
              figures.fmt_prob(rec.m), figures.fmt_prob(rec.singular_value),
              rec.reason] for rec in records])
    counts = catalog.class_counts(records)
    embeddable = sum(1 for r in records if r.embeddable)
    _echo(f"wrote {len(records)} records ({embeddable} embeddable) to {out}")
    _echo("class counts: " + json.dumps(counts, sort_keys=True))


@cli.command("classify")
@click.argument("codes", nargs=-1, required=True)
def cmd_classify(codes):
    """Isomorphism class and components of one or more graph codes."""
    walked = {c.code: c for c in walk_codes()}
    payload = []
    for code in codes:
        components = [
            {"nodes": list(nodes), "node_count": sig.node_count,
             "edge_count": sig.edge_count, "degrees": list(sig.degrees)}
            for nodes, sig in graphs.connected_components(graphs.adjacency_for(code))]
        found = walked.get(code)
        payload.append({
            "code": code,
            "class": found.iso_class if found else graphs.OTHER,
            "embeddable": found is not None,
            "rank": found.rank if found else None,
            "components": components,
        })
    _echo_json(payload)


@cli.command("embed")
@click.argument("code")
def cmd_embed(code):
    """Embedding parameters (scale, squeezing, photon budget) for a code."""
    spec = make_embedding(code)
    _echo_json({
        "code": spec.code,
        "scale_c": spec.scale_c,
        "singular_values": list(spec.singular_values),
        "rank": spec.rank,
        "squeezing": list(spec.squeezing),
        "mean_photon_per_mode": spec.mean_photon_per_mode,
        "mean_photon_total": 8.0 * spec.mean_photon_per_mode,
    })


@cli.command("simulate")
@click.argument("code")
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=100_000,
              show_default=True)
@_seed_option
@click.option("--loss", "eta", type=float, default=None,
              help="Per-photon transmission probability eta in [0, 1]; "
                   "the loss factor is 1 - eta.")
@click.option("--threshold", is_flag=True, help="Clamp counts to click/no-click.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Sample file path [default: <code>.samples].")
def cmd_simulate(code, shots, seed, eta, threshold, out):
    """Draw seeded samples for an embeddable code and write them to disk.

    Sampling and loss use the two independent children of SeedSequence(seed),
    so adding --loss leaves the ideal patterns drawn unchanged.
    """
    spec = make_embedding(code)
    sample_stream, loss_stream = np.random.SeedSequence(seed).spawn(2)
    samples = sample(spec, shots, sample_stream)
    if eta is not None:
        samples = apply_loss(samples, LossModel(eta), loss_stream)
    if threshold:
        samples = to_threshold(samples)
    out = Path(out) if out is not None else Path(f"{code}.samples")
    sample_path, meta_path = write_samples(samples, out)
    _echo(f"wrote {shots} shots of the exact law to {sample_path} "
          f"(meta: {meta_path})")


@cli.command("ingest")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report as JSON instead of stdout only.")
def cmd_ingest(path, out):
    """Validate a sample file and report its summary statistics."""
    samples = ingest_samples(path)
    rows, counts = samples.histogram
    observed, inverse = np.unique(rows.sum(axis=1, dtype=np.int64), return_inverse=True)
    per_total = np.zeros(len(observed), dtype=np.int64)
    np.add.at(per_total, inverse, counts)
    events = features.fv_events_from_samples(samples, observed.tolist())
    # Counts are nonnegative, so int64 column sums wrap only past this bound.
    if int(rows.max()) <= (2 ** 63 - 1) // len(samples):
        mode_totals = (counts @ rows).tolist()
    else:
        mode_totals = [int(x) for x in counts.astype(object) @ rows.astype(object)]
    report = {
        "path": str(path),
        "shots": len(samples),
        "code": samples.meta.code,
        "threshold": samples.meta.threshold,
        "loss": samples.meta.loss,
        "mode_totals": mode_totals,
        "total_histogram": {str(k): int(c) for k, c in zip(observed, per_total)},
        "odd_total_fraction": int(per_total[observed % 2 == 1].sum()) / len(samples),
        "event_frequencies": {str(e.k): float(v)
                              for e, v in zip(events.labels, events.values)},
    }
    _echo_json(report)
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _fv_rows(code, label, fv):
    blank = [None] * len(fv.labels)
    columns = zip(fv.values, blank if fv.stat_error is None else fv.stat_error)
    return [[code, label, fv.provenance, figures.fmt_prob(fv.loss_eta),
             features.format_label(lbl)] + [figures.fmt_prob(x) for x in values]
            for lbl, values in zip(fv.labels, columns)]


@cli.command("fv")
@click.option("--samples", "sample_paths", multiple=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Sample file(s) to reduce to sampled feature vectors.")
@click.option("--code", default=None,
              help="Compute the analytic feature vector for this code.")
@click.option("--events", default=None, help="Comma list of event totals.")
@click.option("--n-max", type=int, default=features.DEFAULT_MAX_PER_MODE,
              show_default=True)
@click.option("--orbits", default=None,
              help="Semicolon list of orbits, e.g. '1,1,1;2,1,1'.")
@click.option("--loss", "eta", type=float, default=None,
              help="Transmission eta for the analytic vector.")
@click.option("--out", type=click.Path(dir_okay=False), default="fv.csv",
              show_default=True)
def cmd_fv(sample_paths, code, events, n_max, orbits, eta, out):
    """Feature vectors from sample files and/or the analytic distribution."""
    if not sample_paths and code is None:
        raise ValidationError("need --samples and/or --code")
    if events is None and orbits is None:
        events = ",".join(str(k) for k in features.DEFAULT_EVENTS)
    event_list = None if events is None else _parse_events(events)
    orbit_list = None if orbits is None else _parse_orbits(orbits)
    rows = []
    for path in sample_paths:
        samples = ingest_samples(path)
        sample_code = samples.meta.code
        label = (graphs.classify(graphs.adjacency_for(sample_code))
                 if sample_code else "")
        if event_list is not None:
            fv = features.fv_events_from_samples(samples, event_list, n_max)
            rows.extend(_fv_rows(sample_code, label, fv))
        if orbit_list is not None:
            fv = features.fv_orbits_from_samples(samples, orbit_list)
            rows.extend(_fv_rows(sample_code, label, fv))
    if code is not None:
        spec = make_embedding(code)
        loss = LossModel(eta) if eta is not None else None
        label = graphs.classify(graphs.adjacency_for(code))
        if event_list is not None:
            fv = features.fv_events_analytic(spec, event_list, n_max, loss)
            rows.extend(_fv_rows(code, label, fv))
        if orbit_list is not None:
            fv = features.fv_orbits_analytic(spec, orbit_list, loss)
            rows.extend(_fv_rows(code, label, fv))
    figures.write_csv(out, ["code", "class", "provenance", "loss_eta", "label",
                            "value", "stat_error"], rows)
    _echo(f"wrote {len(rows)} feature components to {out}")


@cli.command("deviation")
@click.option("--samples", "sample_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--code", default=None,
              help="Graph code [default: taken from the sample metadata].")
@click.option("--events", default=None, help="Comma list of event totals.")
@click.option("--n-max", type=int, default=features.DEFAULT_MAX_PER_MODE,
              show_default=True)
@click.option("--step", type=float, default=0.01, show_default=True,
              help="Loss-factor grid step, in [1e-4, 1].")
@click.option("--out", type=click.Path(dir_okay=False), default="deviation.csv",
              show_default=True)
def cmd_deviation(sample_path, code, events, n_max, step, out):
    """Relative deviation of a sampled event FV from theory over a loss sweep."""
    _, report = _fig3(ingest_samples(sample_path), code, step, out,
                      events=events, n_max=n_max)
    _echo_json(report)
    _echo(f"wrote deviation grid to {out}")


def _fig3(samples, code, step, csv_path, svg_path=None, events=None,
          n_max=features.DEFAULT_MAX_PER_MODE):
    """Write one graph's deviation grid; return the paths and a report of its
    matched loss factors.  The code defaults to the one in the metadata."""
    code = code or samples.meta.code
    if code is None:
        raise ValidationError("no code given and none recorded in the metadata")
    spec = make_embedding(code)
    event_list = features.DEFAULT_EVENTS if events is None else _parse_events(events)
    curve, matches = figures.deviation_rows(samples, spec, event_list, n_max, step)
    paths = figures.write_deviation(curve, csv_path, svg_path)
    return paths, {"code": code, "matched_loss_factor": matches}


@cli.command("figure")
@click.argument("name", type=click.Choice(["fig2", "fig3", "fig4"]))
@click.option("--samples-dir", type=click.Path(exists=True, file_okay=False),
              default=None, help="Directory of <code>.samples files (fig2, fig4).")
@click.option("--samples", "sample_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Single sample file (fig3).")
@click.option("--code", default=None, help="Graph code (fig3).")
@click.option("--codes", default=None,
              help="Comma list restricting fig2/fig4 to a subset of codes.")
@click.option("--event", "event_k", type=int, default=6, show_default=True,
              help="Event total plotted by fig2.")
@click.option("--step", type=float, default=0.01, show_default=True,
              help="Loss-factor grid step of fig3, in [1e-4, 1].")
@click.option("--out-prefix", default=None,
              help="Output prefix [default: the figure name].")
@click.option("--format", "fmt", type=click.Choice(["csv", "svg"]),
              default="svg", show_default=True,
              help="'csv' skips the SVG rendering.")
def cmd_figure(name, samples_dir, sample_path, code, codes, event_k, step,
               out_prefix, fmt):
    """Emit the data (CSV) and rendering (SVG) behind one figure."""
    prefix = out_prefix or name
    csv_path = Path(f"{prefix}.csv")
    svg_path = Path(f"{prefix}.svg") if fmt == "svg" else None

    if name == "fig3":
        if sample_path is None:
            raise ValidationError("fig3 needs --samples")
        paths, report = _fig3(ingest_samples(sample_path), code, step,
                              csv_path, svg_path)
        _echo_json(report)
    else:
        if samples_dir is None:
            raise ValidationError(f"{name} needs --samples-dir")
        labels = {c.code: c.iso_class for c in walk_codes()}
        files = {c: Path(samples_dir) / f"{c}.samples"
                 for c in _parse_codes(codes) or labels}
        missing = [c for c, path in files.items() if not path.exists()]
        if missing:
            raise ValidationError(
                "missing per-code sample files: " + ", ".join(sorted(missing)))
        # Each file is read just before its row is built, and not kept.
        ordered = figures.class_sorted_codes(files, labels)
        if name == "fig2":
            rows = [figures.event_row(position, code, label,
                                      ingest_samples(files[code]), event_k)
                    for position, (code, label) in enumerate(ordered)]
            paths = figures.write_event_by_class(rows, csv_path, svg_path, event_k)
        else:
            rows = [figures.orbit_row(code, label, ingest_samples(files[code]))
                    for code, label in ordered]
            paths = figures.write_orbit_space(
                rows, figures.cluster_summaries(rows), csv_path,
                Path(f"{prefix}_clusters.csv"), svg_path)
    _echo("wrote " + ", ".join(str(p) for p in paths))


FIG3_CODE = "1111111111"  # the only connected embeddable graph


@cli.command("pipeline")
@click.option("--outdir", type=click.Path(file_okay=False, path_type=Path),
              default="pipeline_out", show_default=True)
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=100_000,
              show_default=True, help="Shots per graph.")
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--eta", type=float, default=0.55, show_default=True,
              help="Per-photon transmission in [0, 1]; the loss factor is 1 - eta.")
@click.option("--event", "event_k", type=click.IntRange(min=0), default=6,
              show_default=True, help="Event total plotted by fig2.")
@click.option("--step", type=float, default=0.01, show_default=True,
              help="Loss-factor grid step of fig3, in [1e-4, 1].")
@click.option("--codes", default="",
              help="Comma list restricting the run to a subset of codes.")
def cmd_pipeline(outdir, shots, seed, eta, event_k, step, codes):
    """End-to-end experiment: catalog, per-graph samples, and all three figures.

    Writes catalog.json, samples/<code>.samples (+ meta), fig2, fig3 (+
    fig3_matches.json) and fig4 (+ fig4_clusters.csv) into OUTDIR, after
    checking every option.  Graph i of the catalog draws shots and loss from
    SeedSequence(seed).spawn(75)[i].spawn(2).  The graphs are run in class
    order, and each one's figure rows are built as soon as its samples are
    written, so one sample set is held at a time.
    """
    loss = LossModel(eta)
    features.loss_factor_grid(step)
    wanted = {make_embedding(c).code for c in _parse_codes(codes)}

    start = time.perf_counter()
    (outdir / "samples").mkdir(parents=True, exist_ok=True)
    records = catalog.build_catalog()
    catalog.write_catalog(records, outdir / "catalog.json")
    _echo(f"catalog: {len(records)} embeddable graphs")

    labels = {rec.code: rec.iso_class for rec in records}
    streams = dict(zip(labels, np.random.SeedSequence(seed).spawn(len(records))))
    fig2_rows, fig4_rows, matches = [], [], None
    ordered = figures.class_sorted_codes(wanted or labels, labels)
    for position, (code, label) in enumerate(ordered):
        sample_stream, loss_stream = streams[code].spawn(2)
        samples = sample(make_embedding(code), shots, sample_stream)
        if eta < 1.0:
            samples = apply_loss(samples, loss, loss_stream)
        write_samples(samples, outdir / "samples" / f"{code}.samples")
        fig2_rows.append(figures.event_row(position, code, label, samples, event_k))
        fig4_rows.append(figures.orbit_row(code, label, samples))
        if code == FIG3_CODE:
            _, report = _fig3(samples, FIG3_CODE, step,
                              outdir / "fig3.csv", outdir / "fig3.svg")
            matches = report["matched_loss_factor"]
    _echo(f"samples: {len(fig2_rows)} graphs x {shots} shots "
          f"at eta={eta} in {time.perf_counter() - start:.1f} s")

    figures.write_event_by_class(fig2_rows, outdir / "fig2.csv",
                                 outdir / "fig2.svg", event_k)
    _echo("fig2: event values per graph")

    if matches is not None:
        (outdir / "fig3_matches.json").write_text(
            json.dumps(matches, indent=2, sort_keys=True) + "\n")
        _echo(f"fig3: matched loss factors {matches}")

    summaries = figures.cluster_summaries(fig4_rows)
    figures.write_orbit_space(fig4_rows, summaries, outdir / "fig4.csv",
                              outdir / "fig4_clusters.csv", outdir / "fig4.svg")
    separated = sum(1 for s in summaries if s.separation > s.dispersion)
    _echo(f"fig4: {separated}/{len(summaries)} classes separate from "
          f"their nearest neighbour")
    _echo(f"done in {time.perf_counter() - start:.1f} s -> {outdir}")


#: One representative code per class, compared by ``overlap``.
CLASS_REPRESENTATIVES = {
    "1K2": "0000000100",
    "2K2": "0010000000",
    "1C4": "1100100000",
    "2P3": "0110000000",
    "3K2": "0000001100",
    "1K33": "1011000111",
    "2S3": "0111000000",
    "4K2": "0100000101",
    "2C4": "0011011000",
    "1K44": "1111111111",
}

#: The class pairs whose orbit-space distance ``overlap`` prints.
OVERLAP_PAIRS = (("2P3", "2S3"), ("2K2", "2P3"), ("1C4", "1K33"))


@cli.command("overlap")
@click.option("--etas", default="0.40,0.55,0.70,0.85", show_default=True,
              help="Comma list of transmissions to sweep.")
@click.option("--shots", type=click.IntRange(1, MAX_SHOTS), default=100_000,
              show_default=True, help="Shots per graph behind the noise floor.")
def cmd_overlap(etas, shots):
    """How close do the class clusters sit in orbit space?

    Per transmission and class pair, prints the exact distance between the
    analytic orbit feature vectors next to the sampling noise at SHOTS shots
    per graph; below four sigma, the two classes cannot be told apart.
    """
    try:
        values = [float(x) for x in etas.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(
            f"bad transmission list {etas!r}; expected e.g. '0.40,0.55'")
    if not values:
        raise ValidationError("empty transmission list")
    losses = [LossModel(eta) for eta in values]
    orbit_names = ", ".join(features.format_label(o)
                            for o in features.DEFAULT_ORBITS)
    _echo(f"orbit space: {orbit_names}")
    _echo(f"sampling noise scale assumes {shots} shots per graph\n")
    for loss in losses:
        vectors = {label: features.fv_orbits_analytic(
                       make_embedding(code), features.DEFAULT_ORBITS, loss).values
                   for label, code in CLASS_REPRESENTATIVES.items()}
        noise = math.sqrt(
            max(float(v.max()) for v in vectors.values()) / shots)
        _echo(f"eta = {loss.eta:.2f} (loss factor {loss.loss_factor:.2f}), "
              f"1-sigma noise ~ {noise:.2e}")
        for a, b in OVERLAP_PAIRS:
            distance = float(np.linalg.norm(vectors[a] - vectors[b]))
            # With no photon left to detect, every vector is 0 and so is the noise.
            sigmas = distance / noise if noise > 0 else math.nan
            verdict = "separable" if distance > 4 * noise else "overlapping"
            _echo(f"  {a} vs {b}: analytic distance {distance:.6f} "
                  f"({sigmas:.1f} sigma, {verdict})")
        _echo()


if __name__ == "__main__":
    cli()
