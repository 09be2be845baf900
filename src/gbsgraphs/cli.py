"""Command-line surface: enumerate, classify, embed, simulate, ingest, fv,
deviation, figure.

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 internal invariant
breach.  Every command is deterministic given its options and seed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import click
import numpy as np

from . import catalog, features, figures, graphs
from .embedding import (
    embeddability_check,
    enumerate_embeddable,
    make_embedding,
    mean_photon_total,
)
from .engine import (
    LossModel,
    apply_loss,
    ingest_samples,
    sample,
    to_threshold,
    write_samples,
)
from .errors import InternalError, ValidationError


class CliValidationError(click.ClickException):
    exit_code = 2


class CliIoError(click.ClickException):
    exit_code = 3


class CliInternalError(click.ClickException):
    exit_code = 4


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            raise CliValidationError(str(exc))
        except OSError as exc:
            raise CliIoError(str(exc))
        except InternalError as exc:
            raise CliInternalError(str(exc))
    return wrapper


def _parse_events(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad event list {text!r}; expected e.g. '2,4,6,8'")


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


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0,
                            show_default=True,
                            help="PCG64 seed; reruns are bit-identical.")


@click.group()
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
@_mapped_errors
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
    click.echo(f"wrote {len(records)} records ({embeddable} embeddable) to {out}")
    click.echo("class counts: " + json.dumps(counts, sort_keys=True))


@cli.command("classify")
@click.argument("codes", nargs=-1, required=True)
@_mapped_errors
def cmd_classify(codes):
    """Isomorphism class and components of one or more graph codes."""
    payload = []
    for code in codes:
        adjacency = graphs.adjacency_for(code)
        components = [
            {"nodes": list(nodes), "node_count": sig.node_count,
             "edge_count": sig.edge_count, "degrees": list(sig.degrees)}
            for nodes, sig in graphs.connected_components(adjacency)]
        emb = embeddability_check(graphs.decode_code(code))
        payload.append({
            "code": code,
            "class": graphs.classify(adjacency),
            "embeddable": emb.embeddable,
            "rank": emb.rank if emb.embeddable else None,
            "components": components,
        })
    _echo_json(payload)


@cli.command("embed")
@click.argument("code")
@_mapped_errors
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
        "mean_photon_total": mean_photon_total(spec),
    })


@cli.command("simulate")
@click.argument("code")
@click.option("--shots", type=int, default=100_000, show_default=True)
@_seed_option
@click.option("--loss", "eta", type=float, default=None,
              help="Per-photon transmission probability eta in [0, 1]; "
                   "the loss factor is 1 - eta.")
@click.option("--threshold", is_flag=True, help="Clamp counts to click/no-click.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Sample file path [default: <code>.samples].")
@_mapped_errors
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
    click.echo(f"wrote {shots} shots of the exact law to {sample_path} "
               f"(meta: {meta_path})")


@cli.command("ingest")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report as JSON instead of stdout only.")
@_mapped_errors
def cmd_ingest(path, out):
    """Validate a sample file and report its summary statistics."""
    samples = ingest_samples(path)
    shots = samples.shots
    totals = shots.sum(axis=1)
    observed, counts = np.unique(totals, return_counts=True)
    events = features.fv_events_from_samples(samples, observed.tolist())
    report = {
        "path": str(path),
        "shots": len(samples),
        "code": samples.meta.code,
        "threshold": samples.meta.threshold,
        "loss": samples.meta.loss,
        "mode_totals": [int(x) for x in shots.sum(axis=0, dtype=object)],
        "total_histogram": {str(k): int(c) for k, c in zip(observed, counts)},
        "odd_total_fraction": float((totals % 2 == 1).mean()),
        "event_frequencies": {str(e.k): float(v)
                              for e, v in zip(events.labels, events.values)},
    }
    _echo_json(report)
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


def _fv_rows(code, label, fv):
    blank = [None] * len(fv.labels)
    columns = zip(fv.values, blank if fv.stat_error is None else fv.stat_error,
                  blank if fv.tail_bound is None else fv.tail_bound)
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
@_mapped_errors
def cmd_fv(sample_paths, code, events, n_max, orbits, eta, out):
    """Feature vectors from sample files and/or the analytic distribution."""
    if not sample_paths and code is None:
        raise ValidationError("need --samples and/or --code")
    if events is None and orbits is None:
        events = ",".join(str(k) for k in features.DEFAULT_EVENTS)
    rows = []
    for path in sample_paths:
        samples = ingest_samples(path)
        sample_code = samples.meta.code
        label = (graphs.classify(graphs.adjacency_for(sample_code))
                 if sample_code else "")
        if events is not None:
            fv = features.fv_events_from_samples(
                samples, _parse_events(events), n_max)
            rows.extend(_fv_rows(sample_code, label, fv))
        if orbits is not None:
            fv = features.fv_orbits_from_samples(samples, _parse_orbits(orbits))
            rows.extend(_fv_rows(sample_code, label, fv))
    if code is not None:
        spec = make_embedding(code)
        loss = LossModel(eta) if eta is not None else None
        label = graphs.classify(graphs.adjacency_for(code))
        if events is not None:
            fv = features.fv_events_analytic(
                spec, _parse_events(events), n_max, loss)
            rows.extend(_fv_rows(code, label, fv))
        if orbits is not None:
            fv = features.fv_orbits_analytic(spec, _parse_orbits(orbits), loss)
            rows.extend(_fv_rows(code, label, fv))
    figures.write_csv(out, ["code", "class", "provenance", "loss_eta", "label",
                            "value", "stat_error", "tail_bound"], rows)
    click.echo(f"wrote {len(rows)} feature components to {out}")


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
@_mapped_errors
def cmd_deviation(sample_path, code, events, n_max, step, out):
    """Relative deviation of a sampled event FV from theory over a loss sweep."""
    _write_deviation(sample_path, code, step, out, events=events, n_max=n_max)
    click.echo(f"wrote deviation grid to {out}")


def _write_deviation(sample_path, code, step, csv_path, svg_path=None,
                     events=None, n_max=features.DEFAULT_MAX_PER_MODE):
    """Write one sample file's deviation grid, echo its matches, return the paths."""
    samples = ingest_samples(sample_path)
    code = code or samples.meta.code
    if code is None:
        raise ValidationError("no code given and none recorded in the metadata")
    spec = make_embedding(code)
    event_list = features.DEFAULT_EVENTS if events is None else _parse_events(events)
    curve, matches = figures.deviation_rows(samples, spec, event_list, n_max, step)
    paths = figures.write_deviation(curve, csv_path, svg_path)
    _echo_json({"code": code, "matched_loss_factor": matches})
    return paths


def _load_sample_dir(directory, codes):
    directory = Path(directory)
    wanted = list(codes) if codes else [c for c, _ in enumerate_embeddable()]
    missing = [c for c in wanted if not (directory / f"{c}.samples").exists()]
    if missing:
        raise ValidationError(
            "missing per-code sample files: " + ", ".join(sorted(missing)))
    return {c: ingest_samples(directory / f"{c}.samples") for c in wanted}


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
@_mapped_errors
def cmd_figure(name, samples_dir, sample_path, code, codes, event_k, step,
               out_prefix, fmt):
    """Emit the data (CSV) and rendering (SVG) behind one figure."""
    prefix = out_prefix or name
    csv_path = Path(f"{prefix}.csv")
    svg_path = Path(f"{prefix}.svg") if fmt == "svg" else None
    code_list = [c.strip() for c in codes.split(",")] if codes else None

    if name == "fig2":
        if samples_dir is None:
            raise ValidationError("fig2 needs --samples-dir")
        samples_by_code = _load_sample_dir(samples_dir, code_list)
        rows = figures.event_by_class_rows(samples_by_code, event_k)
        paths = figures.write_event_by_class(rows, csv_path, svg_path, event_k)
    elif name == "fig3":
        if sample_path is None:
            raise ValidationError("fig3 needs --samples")
        paths = _write_deviation(sample_path, code, step, csv_path, svg_path)
    else:
        if samples_dir is None:
            raise ValidationError("fig4 needs --samples-dir")
        samples_by_code = _load_sample_dir(samples_dir, code_list)
        rows = figures.orbit_space_rows(samples_by_code)
        summaries = figures.cluster_summaries(rows)
        clusters_path = Path(f"{prefix}_clusters.csv")
        paths = figures.write_orbit_space(rows, summaries, csv_path,
                                          clusters_path, svg_path)
    click.echo("wrote " + ", ".join(str(p) for p in paths))


def main():
    cli()


if __name__ == "__main__":
    main()
