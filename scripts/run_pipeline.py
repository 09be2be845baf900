#!/usr/bin/env python3
"""End-to-end experiment: catalog, per-graph samples, and all three figures.

Writes into --outdir:
    catalog.json                        all embeddable codes with class/rank/m
    samples/<code>.samples (+ meta)     seeded lossy shots per graph
    fig2.csv / fig2.svg                 one event probability per graph
    fig3.csv / fig3.svg (+ matches)     loss sweep for the connected graph
    fig4.csv / fig4_clusters.csv / svg  orbit-space coordinates and clusters

Graph i of the catalog samples and loses photons on the two independent streams
SeedSequence(seed).spawn(75)[i].spawn(2); the figures take the samples in memory.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gbsgraphs import catalog, engine, figures
from gbsgraphs.embedding import enumerate_embeddable, make_embedding
from gbsgraphs.engine import LossModel, SampleSet

FIG3_CODE = "1111111111"  # the only connected embeddable graph


@dataclass
class PipelineConfig:
    outdir: Path = Path("pipeline_out")
    shots: int = 100_000
    seed: int = 7
    eta: float = 0.55              # per-photon transmission
    event_k: int = 6
    step: float = 0.01
    codes: list[str] = field(default_factory=list)   # empty = all 75


def simulate_all(cfg: PipelineConfig) -> dict[str, SampleSet]:
    sample_dir = cfg.outdir / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    wanted = set(cfg.codes)
    samples = {}
    specs = enumerate_embeddable()
    graph_streams = np.random.SeedSequence(cfg.seed).spawn(len(specs))
    for index, (code, spec) in enumerate(specs):
        if wanted and code not in wanted:
            continue
        sample_stream, loss_stream = graph_streams[index].spawn(2)
        shots = engine.sample(spec, cfg.shots, sample_stream)
        if cfg.eta < 1.0:
            shots = engine.apply_loss(shots, LossModel(cfg.eta), loss_stream)
        engine.write_samples(shots, sample_dir / f"{code}.samples")
        samples[code] = shots
    return samples


def run(cfg: PipelineConfig) -> None:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()

    records = catalog.build_catalog()
    catalog.write_catalog(records, cfg.outdir / "catalog.json")
    print(f"catalog: {len(records)} embeddable graphs")

    samples = simulate_all(cfg)
    print(f"samples: {len(samples)} graphs x {cfg.shots} shots "
          f"at eta={cfg.eta} in {time.perf_counter() - start:.1f} s")

    rows = figures.event_by_class_rows(samples, cfg.event_k)
    figures.write_event_by_class(rows, cfg.outdir / "fig2.csv",
                                 cfg.outdir / "fig2.svg", cfg.event_k)
    print("fig2: event values per graph")

    if FIG3_CODE in samples:
        curve, matches = figures.deviation_rows(
            samples[FIG3_CODE], make_embedding(FIG3_CODE), step=cfg.step)
        figures.write_deviation(curve, cfg.outdir / "fig3.csv",
                                cfg.outdir / "fig3.svg")
        (cfg.outdir / "fig3_matches.json").write_text(
            json.dumps(matches, indent=2, sort_keys=True) + "\n")
        print(f"fig3: matched loss factors {matches}")

    rows = figures.orbit_space_rows(samples)
    summaries = figures.cluster_summaries(rows)
    figures.write_orbit_space(rows, summaries, cfg.outdir / "fig4.csv",
                              cfg.outdir / "fig4_clusters.csv",
                              cfg.outdir / "fig4.svg")
    separated = sum(1 for s in summaries if s.separation > s.dispersion)
    print(f"fig4: {separated}/{len(summaries)} classes separate from their "
          f"nearest neighbour")
    print(f"done in {time.perf_counter() - start:.1f} s -> {cfg.outdir}")


def _checked(convert, accept, what):
    """An argparse type: convert the text, then refuse values ``accept`` rejects."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


def parse_args() -> PipelineConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--shots", default=100_000,
                        type=_checked(int, lambda n: n >= 1, "an integer >= 1"))
    parser.add_argument("--seed", default=7,
                        type=_checked(int, lambda n: n >= 0, "an integer >= 0"))
    parser.add_argument("--eta", default=0.55,
                        type=_checked(float, lambda e: 0.0 <= e <= 1.0, "in [0, 1]"),
                        help="per-photon transmission (loss factor = 1 - eta)")
    parser.add_argument("--event", type=int, default=6, dest="event_k")
    parser.add_argument("--step", type=float, default=0.01)
    parser.add_argument("--codes", default="",
                        help="comma list restricting to a subset of codes")
    args = parser.parse_args()
    return PipelineConfig(
        outdir=args.outdir, shots=args.shots, seed=args.seed, eta=args.eta,
        event_k=args.event_k, step=args.step,
        codes=[c for c in args.codes.split(",") if c])


if __name__ == "__main__":
    run(parse_args())
