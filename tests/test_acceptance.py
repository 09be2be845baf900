"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the suite is deterministic (fixed seeds throughout).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gbsgraphs import catalog, embedding, engine, features, graphs
from gbsgraphs.cli import cli
from gbsgraphs.engine import LossModel
from oracles import canonical_form

# Reference partition of the 75 embeddable codes into the ten classes.
REFERENCE_PARTITION = {
    "1K2": {"0000000100", "1000000000", "0000100000", "0000000001"},
    "2K2": {"1000100000", "1000000100", "1000000001", "0010000000",
            "0000000010", "0000100100", "0000100001", "0100000000",
            "0000010000", "0001000000", "0000000101", "0000001000"},
    "1C4": {"1100100000", "0000000111", "1010000100", "1001000001",
            "0000101001", "0000110100"},
    "2P3": {"0010010000", "0100001000", "0101000000", "0000001010",
            "0010000010", "0001001000", "0001000010", "0110000000",
            "0100010000", "0011000000", "0000010010", "0000011000"},
    "3K2": {"0001000100", "1000000010", "1000100100", "1000001000",
            "0010000001", "0000010001", "0100000100", "1000010000",
            "0000100010", "1000100001", "0010100000", "0000100101",
            "0000001100", "0100000001", "1000000101", "0001100000"},
    "1K33": {"1011000111", "1101101001", "1110110100", "0000111111"},
    "2S3": {"0100011000", "0001001010", "0010010010", "0111000000"},
    "4K2": {"1000100010", "0100000010", "0010001000", "1000010001",
            "0001010000", "0010100001", "1000100101", "0001100100",
            "1000001100", "0100000101"},
    "2C4": {"1100100111", "0011011000", "0101010010", "0110001010",
            "1010101101", "1001110101"},
    "1K44": {"1111111111"},
}

CLASS_SIZES = {"1K2": 4, "2K2": 12, "1C4": 6, "2P3": 12, "3K2": 16,
               "1K33": 4, "2S3": 4, "4K2": 10, "2C4": 6, "1K44": 1}

REFERENCE_MEAN_PHOTON = 0.345274461385554870545

ORBITS_ETA1 = ((1, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


@pytest.fixture(scope="module")
def class_of(embeddable):
    return {code: graphs.classify(graphs.adjacency_for(code))
            for code, _ in embeddable}


@pytest.fixture(scope="module")
def lossy_orbit_points(embeddable, class_of):
    """Criterion 9 input: sampled 3-orbit coordinates for every code.

    100k shots per code at transmission 0.55; per-code seeds are fixed so the
    whole suite is reproducible.
    """
    points = {}
    for index, (code, spec) in enumerate(embeddable):
        shots = engine.sample(spec, 100_000, seed=1000 + 2 * index)
        lossy = engine.apply_loss(shots, LossModel(0.55), seed=1001 + 2 * index)
        fv = features.fv_orbits_from_samples(lossy, features.DEFAULT_ORBITS)
        points[code] = (class_of[code], fv.values.copy())
    return points


def test_criterion_01_enumeration_count(embeddable):
    start = time.perf_counter()
    found = embedding.enumerate_embeddable()
    elapsed = time.perf_counter() - start
    ok = len(found) == 75 and elapsed < 5.0
    _report(1, ok, f"{len(found)} embeddable codes out of 1024 in {elapsed:.2f} s")


def test_criterion_02_reference_partition(embeddable, class_of):
    partition = {}
    for code, _ in embeddable:
        partition.setdefault(class_of[code], set()).add(code)
    sizes = {label: len(codes) for label, codes in partition.items()}
    mismatches = [label for label in REFERENCE_PARTITION
                  if partition.get(label, set()) != REFERENCE_PARTITION[label]]
    ok = sizes == CLASS_SIZES and not mismatches
    _report(2, ok, f"class sizes {sizes}; mismatched classes: {mismatches or 'none'}")


def test_criterion_03_mean_photon_constant(embeddable):
    m0 = embedding.MEAN_PHOTON_SINGLE
    drift = abs(m0 - REFERENCE_MEAN_PHOTON)
    multiples_ok = all(
        abs(spec.mean_photon_per_mode - spec.rank * m0) < 1e-15
        for _, spec in embeddable)
    ok = drift < 1e-12 and multiples_ok
    _report(3, ok, f"m0 = {m0!r}, |m0 - reference| = {drift:.2e}, "
                   f"m = rank * m0 for all 75: {multiples_ok}")


def test_criterion_04_signature_classifier_matches_permutation_oracle(
        embeddable, class_of):
    cells: dict[bytes, set[str]] = {}
    for code, _ in embeddable:
        key = canonical_form(graphs.adjacency_for(code)).tobytes()
        cells.setdefault(key, set()).add(code)
    signature_cells = {}
    for code, _ in embeddable:
        signature_cells.setdefault(class_of[code], set()).add(code)
    ok = (len(cells) == 10
          and sorted(map(sorted, cells.values()))
          == sorted(map(sorted, signature_cells.values())))
    _report(4, ok, f"{len(cells)} canonical cells, sizes "
                   f"{sorted(len(c) for c in cells.values())}")


def test_criterion_05_probability_correctness(specs_by_code):
    worst = 0.0
    for code in ("0000000100", "0110000000", "1111111111"):
        spec = specs_by_code[code]
        table = engine.build_table(spec, 8)
        for pairs in range(9):
            worst = max(worst, abs(
                table.slice_mass(pairs)
                - engine.total_photon_distribution(spec.rank, pairs)))
    tmsv = engine.pattern_probability(specs_by_code["0000000100"],
                                      (0, 0, 1, 0, 0, 0, 1, 0))
    expected = (1.0 / math.cosh(1.0) ** 2) * math.tanh(1.0) ** 2
    tmsv_err = abs(tmsv - expected)
    ok = worst < 1e-8 and tmsv_err < 1e-10
    _report(5, ok, f"max slice deviation {worst:.2e}, TMSV check error "
                   f"{tmsv_err:.2e} (value {tmsv:.7f})")


def test_criterion_06_sampler_fidelity(specs_by_code):
    # Every even total against the untruncated negative-binomial law, with
    # no renormalisation; the totals beyond k = 16 are pooled into one bin.
    spec = specs_by_code["1111111111"]
    start = time.perf_counter()
    shots = engine.sample(spec, 100_000, seed=2024)
    elapsed = time.perf_counter() - start
    totals = shots.shots.sum(axis=1)
    n = len(shots)
    failures = [f"odd k={k} nonempty" for k in np.unique(totals) if k % 2]
    bins = [(f"k={k}", totals == k, engine.total_photon_distribution(spec.rank, k // 2))
            for k in range(0, 17, 2)]
    bins.append(("k>16", totals > 16, engine.total_photon_tail(spec.rank, 8)))
    for name, hits, p in bins:
        se = math.sqrt(p * (1.0 - p) / n)
        gap = abs(float(hits.mean()) - p)
        if gap >= 4 * se:
            failures.append(f"{name}: |diff| {gap:.2e} >= 4 sigma {4 * se:.2e}")
    ok = not failures and elapsed < 10.0
    _report(6, ok, f"100k shots in {elapsed:.2f} s; "
                   f"violations: {failures or 'none'}")


def test_criterion_07_class_invariance_of_analytic_fvs(embeddable, class_of):
    members: dict[str, list] = {}
    for code, spec in embeddable:
        members.setdefault(class_of[code], []).append(spec)
    worst = 0.0
    for label, specs in members.items():
        reference_events = features.fv_events_analytic(
            specs[0], features.DEFAULT_EVENTS, 8).values
        reference_orbits = features.fv_orbits_analytic(specs[0], ORBITS_ETA1).values
        for spec in specs[1:]:
            ev = features.fv_events_analytic(
                spec, features.DEFAULT_EVENTS, 8).values
            ob = features.fv_orbits_analytic(spec, ORBITS_ETA1).values
            for a, b in zip(np.concatenate([ev, ob]),
                            np.concatenate([reference_events, reference_orbits])):
                if not _rel_close(a, b, 1e-10):
                    worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst == 0.0
    _report(7, ok, "event FVs (k=2,4,6,8) and orbit FVs "
                   f"identical within 1e-10 across members; worst excess "
                   f"{worst:.2e}")


def test_criterion_08_loss_self_consistency(specs_by_code):
    spec = specs_by_code["1111111111"]
    shots = engine.sample(spec, 400_000, seed=555)
    lossy = engine.apply_loss(shots, LossModel(0.55), seed=556)
    sampled = features.fv_events_from_samples(lossy, features.DEFAULT_EVENTS, 8)
    crossings = {}
    failures = []
    for i, label in enumerate(sampled.labels):
        matched = features.match_loss(sampled, spec, i, step=0.01)
        crossings[label.k] = matched
        if matched is None or abs(matched - 0.45) > 0.02:
            failures.append(f"k={label.k}: {matched}")
    ok = not failures
    _report(8, ok, "zero crossings at loss factor "
                   + ", ".join(f"k={k}: {v:.4f}" for k, v in crossings.items())
                   + f"; outside 0.45 +- 0.02: {failures or 'none'}")


def test_criterion_09_orbit_space_clustering(lossy_orbit_points, specs_by_code):
    by_class: dict[str, list[np.ndarray]] = {}
    for code, (label, coords) in lossy_orbit_points.items():
        by_class.setdefault(label, []).append(coords)
    centroids = {lbl: np.mean(pts, axis=0) for lbl, pts in by_class.items()}
    separated = []
    detail = []
    for label, pts in by_class.items():
        centroid = centroids[label]
        dispersion = max(float(np.linalg.norm(p - centroid)) for p in pts)
        nearest, gap = min(
            ((other, float(np.linalg.norm(centroids[other] - centroid)))
             for other in centroids if other != label),
            key=lambda kv: kv[1])
        separated.append(gap > dispersion)
        detail.append(f"{label}: sep {gap:.4f} vs disp {dispersion:.4f} "
                      f"({'ok' if gap > dispersion else 'overlaps ' + nearest})")
    count = sum(separated)

    rep_2p3 = specs_by_code["0110000000"]
    rep_2s3 = specs_by_code["0111000000"]
    fv_2p3 = features.fv_orbits_analytic(rep_2p3, features.DEFAULT_ORBITS,
                                         LossModel(0.55))
    fv_2s3 = features.fv_orbits_analytic(rep_2s3, features.DEFAULT_ORBITS,
                                         LossModel(0.55))
    distance = float(np.linalg.norm(fv_2p3.values - fv_2s3.values))
    print(f"[acceptance] criterion 9 note: analytic 2P3-vs-2S3 orbit distance "
          f"at eta=0.55 is {distance:.6e} "
          f"(2P3 {fv_2p3.values.tolist()}, 2S3 {fv_2s3.values.tolist()})")
    ok = count >= 8
    _report(9, ok, f"{count}/10 classes separate from nearest neighbour; "
                   + "; ".join(detail))


def test_criterion_10_round_trips(tmp_path, specs_by_code):
    problems = []

    # sample files: simulated -> written -> ingested, shots and meta intact
    spec = specs_by_code["0110000000"]
    original = engine.apply_loss(engine.sample(spec, 2_000, seed=31),
                                 LossModel(0.7), seed=32)
    path = tmp_path / "roundtrip.samples"
    engine.write_samples(original, path)
    restored = engine.ingest_samples(path)
    if not (restored.shots == original.shots).all():
        problems.append("sample shots changed across write/ingest")
    if (restored.meta.code, restored.meta.loss, restored.meta.threshold) != \
            (original.meta.code, original.meta.loss, original.meta.threshold):
        problems.append("sample meta changed across write/ingest")

    # catalog: written -> loaded, records identical
    records = catalog.build_catalog(include_all=True)
    catalog.write_catalog(records, tmp_path / "catalog.json")
    if catalog.load_catalog(tmp_path / "catalog.json") != records:
        problems.append("catalog records changed across write/load")

    # fixed seeds give byte-identical outputs
    runner = CliRunner()
    import os
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for args, out_a, out_b in (
                (["enumerate"], "cat_a.json", "cat_b.json"),
                (["simulate", "1111111111", "--shots", "2000", "--seed", "77",
                  "--loss", "0.55"], "sim_a.samples", "sim_b.samples")):
            ra = runner.invoke(cli, args + ["--out", out_a])
            rb = runner.invoke(cli, args + ["--out", out_b])
            if ra.exit_code != 0 or rb.exit_code != 0:
                problems.append(f"{args[0]} exited nonzero")
            elif Path(out_a).read_bytes() != Path(out_b).read_bytes():
                problems.append(f"{args[0]} reruns are not byte-identical")
    finally:
        os.chdir(cwd)

    ok = not problems
    _report(10, ok, f"round-trip problems: {problems or 'none'}")
