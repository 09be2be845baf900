#!/usr/bin/env python3
"""How close do the 2P3 and 2S3 clusters sit in orbit space?

Sweeps the transmission and prints, per class pair of interest, the exact
(analytic) distance between orbit feature vectors, next to the typical
sampling noise at a given shot count.  Distances below the noise floor mean
the two classes cannot be told apart at that statistics level.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass

import numpy as np

from gbsgraphs import features
from gbsgraphs.embedding import make_embedding
from gbsgraphs.engine import LossModel

REPRESENTATIVES = {
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


@dataclass
class ReportConfig:
    etas: tuple[float, ...] = (0.40, 0.55, 0.70, 0.85)
    shots: int = 100_000
    pairs: tuple[tuple[str, str], ...] = (("2P3", "2S3"), ("2K2", "2P3"),
                                          ("1C4", "1K33"))


def orbit_vector(label: str, eta: float) -> np.ndarray:
    spec = make_embedding(REPRESENTATIVES[label])
    fv = features.fv_orbits_analytic(spec, features.DEFAULT_ORBITS, LossModel(eta))
    return fv.values


def run(cfg: ReportConfig) -> None:
    orbit_names = ", ".join(features.format_label(o)
                            for o in features.DEFAULT_ORBITS)
    print(f"orbit space: {orbit_names}")
    print(f"sampling noise scale assumes {cfg.shots} shots per graph\n")
    for eta in cfg.etas:
        vectors = {label: orbit_vector(label, eta) for label in REPRESENTATIVES}
        noise = math.sqrt(
            max(float(v.max()) for v in vectors.values()) / cfg.shots)
        print(f"eta = {eta:.2f} (loss factor {1 - eta:.2f}), "
              f"1-sigma noise ~ {noise:.2e}")
        for a, b in cfg.pairs:
            distance = float(np.linalg.norm(vectors[a] - vectors[b]))
            verdict = "separable" if distance > 4 * noise else "overlapping"
            print(f"  {a} vs {b}: analytic distance {distance:.6f} "
                  f"({distance / noise:.1f} sigma, {verdict})")
        print()


def parse_args() -> ReportConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--etas", default="0.40,0.55,0.70,0.85")
    args = parser.parse_args()
    return ReportConfig(
        etas=tuple(float(x) for x in args.etas.split(",")),
        shots=args.shots)


if __name__ == "__main__":
    run(parse_args())
