"""The ``pipeline`` and ``overlap`` commands, in process and through the two
argv-forwarding scripts under ``scripts/``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gbsgraphs import embedding, engine, graphs
from gbsgraphs.cli import cli
from gbsgraphs.embedding import enumerate_embeddable

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
CODES = ["0000000100", "0110000000", "1111111111"]
PIPELINE_ARGS = ["--shots", "300", "--codes", ",".join(CODES)]
HUGE_SHOTS = "1" + "0" * 400   # beyond int64 and float range

# Bad pipeline arguments and the error each must report.
PIPELINE_ERRORS = {
    ("--eta", "1.5"): "transmission eta must be in [0, 1], got 1.5",
    ("--eta", "nan"): "transmission eta must be in [0, 1], got nan",
    ("--eta", "-0.1"): "transmission eta must be in [0, 1], got -0.1",
    ("--seed", "-1"): "Invalid value for '--seed'",
    ("--shots", "0"): "Invalid value for '--shots'",
    ("--shots", "x"): "Invalid value for '--shots'",
    ("--shots", HUGE_SHOTS): "Invalid value for '--shots'",
    ("--shots", str(engine.MAX_SHOTS + 1)): "Invalid value for '--shots'",
    ("--step", "0"): "loss-factor step must lie in [0.0001, 1], got 0.0",
    ("--step", "2"): "loss-factor step must lie in [0.0001, 1], got 2.0",
    ("--event", "-1"): "Invalid value for '--event'",
    ("--codes", "xyz"): "graph code must have 10 digits, got 'xyz'",
    ("--codes", "0000000000"): "graph 0000000000 is not embeddable",
    ("--outdir", "a_file"): "Invalid value for '--outdir'",
}

OVERLAP_ERRORS = {
    ("--shots", "0"): "Invalid value for '--shots'",
    ("--shots", "-5"): "Invalid value for '--shots'",
    ("--shots", HUGE_SHOTS): "Invalid value for '--shots'",
    ("--shots", str(engine.MAX_SHOTS + 1)): "Invalid value for '--shots'",
    ("--etas", "1.5"): "transmission eta must be in [0, 1], got 1.5",
    ("--etas", "x"): "bad transmission list 'x'",
    ("--etas", ","): "empty transmission list",
}


def run_script(name, args, cwd):
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def invoke(args):
    return CliRunner().invoke(cli, args)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_pipeline_writes_every_output_reproducibly(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    result = run_script("run_pipeline.py", PIPELINE_ARGS, first)
    assert result.returncode == 0, result.stderr
    out = first / "pipeline_out"
    expected = ["catalog.json", "fig2.csv", "fig2.svg", "fig3.csv", "fig3.svg",
                "fig3_matches.json", "fig4.csv", "fig4_clusters.csv", "fig4.svg"]
    for code in CODES:
        expected += [f"samples/{code}.samples", f"samples/{code}.meta.json"]
    assert sorted(tree_bytes(out)) == sorted(expected)

    result = invoke(["pipeline", "--outdir", str(second), *PIPELINE_ARGS])
    assert result.exit_code == 0, result.output
    assert tree_bytes(out) == tree_bytes(second)

    # Graph i of the catalog draws its shots and its loss from the two
    # streams SeedSequence(seed).spawn(75)[i].spawn(2), seed 7 by default.
    specs = enumerate_embeddable()
    assert len(specs) == 75
    streams = np.random.SeedSequence(7).spawn(75)
    for (code, spec), stream in zip(specs, streams):
        if code not in CODES:
            continue
        sample_stream, loss_stream = stream.spawn(2)
        shots = engine.apply_loss(engine.sample(spec, 300, sample_stream),
                                  engine.LossModel(0.55), loss_stream)
        ingested = engine.ingest_samples(out / "samples" / f"{code}.samples")
        assert np.array_equal(ingested.shots, shots.shots), code
        assert ingested.meta.loss == 0.55

    # The figure commands ingest the written files; their figures equal the
    # pipeline's, which took the shots in memory.
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    monkeypatch.chdir(cli_dir)
    for name in ("fig2", "fig4"):
        result = invoke(["figure", name, "--format", "csv", "--samples-dir",
                         str(out / "samples"), "--codes", ",".join(CODES)])
        assert result.exit_code == 0, result.output
    result = invoke(["figure", "fig3", "--format", "csv", "--samples",
                     str(out / "samples" / "1111111111.samples")])
    assert result.exit_code == 0, result.output
    echoed, _ = json.JSONDecoder().raw_decode(result.output)
    assert echoed["matched_loss_factor"] == json.loads(
        (out / "fig3_matches.json").read_text())
    for name in ("fig2.csv", "fig3.csv", "fig4.csv", "fig4_clusters.csv"):
        assert (cli_dir / name).read_bytes() == (out / name).read_bytes(), name


def test_run_pipeline_on_codes_of_one_class(tmp_path):
    result = invoke(["pipeline", "--outdir", str(tmp_path), "--shots", "300",
                     "--codes", "0000000100,1000000000"])
    assert result.exit_code == 0, result.output
    clusters = (tmp_path / "fig4_clusters.csv").read_text()
    assert clusters.splitlines()[1].endswith(",,")


def test_pipeline_walks_the_codes_once(tmp_path, monkeypatch, count_calls):
    # The pipeline and each figure command read the classes off one batched
    # walk and classify no graph on its own.
    walks = count_calls(embedding, "walk_codes")
    classified = count_calls(graphs, "classify")
    result = invoke(["pipeline", "--outdir", str(tmp_path), *PIPELINE_ARGS])
    assert result.exit_code == 0, result.output
    assert (len(walks), len(classified)) == (1, 0)
    monkeypatch.chdir(tmp_path)
    for name in ("fig2", "fig4"):
        walks.clear()
        result = invoke(["figure", name, "--format", "csv", "--out-prefix", "cli",
                         "--samples-dir", str(tmp_path / "samples"),
                         "--codes", ",".join(CODES)])
        assert result.exit_code == 0, result.output
        assert (len(walks), len(classified)) == (1, 0), name


@pytest.mark.parametrize("args", [list(k) for k in PIPELINE_ERRORS])
def test_run_pipeline_rejects_bad_arguments(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    Path("a_file").write_text("")
    result = invoke(["pipeline", "--codes", CODES[0], *args])
    assert result.exit_code == 2, result.output
    assert "Error: " + PIPELINE_ERRORS[tuple(args)] in result.output
    assert "Traceback" not in result.output
    assert os.listdir(tmp_path) == ["a_file"]


@pytest.mark.parametrize("args", [list(k) for k in OVERLAP_ERRORS])
def test_overlap_rejects_bad_arguments(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = invoke(["overlap", *args])
    assert result.exit_code == 2, result.output
    assert "Error: " + OVERLAP_ERRORS[tuple(args)] in result.output
    assert "Traceback" not in result.output
    assert os.listdir(tmp_path) == []


def test_orbit_overlap_report_prints_closest_pair(tmp_path):
    args = ["--etas", "0.55", "--shots", "5000"]
    result = run_script("orbit_overlap_report.py", args, tmp_path)
    assert result.returncode == 0, result.stderr
    assert "2P3 vs 2S3" in result.stdout
    assert invoke(["overlap", *args]).output == result.stdout


def test_overlap_without_surviving_photons_reports_no_separation():
    result = invoke(["overlap", "--etas", "0"])
    assert result.exit_code == 0, result.output
    assert "1-sigma noise ~ 0.00e+00" in result.output
    assert result.output.count("(nan sigma, overlapping)") == 3
