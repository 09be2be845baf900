"""Run the two scripts under ``scripts/`` end to end in a temporary directory."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbsgraphs import engine

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"
CODES = ["0000000100", "0110000000", "1111111111"]
PIPELINE_ARGS = ["--shots", "300", "--codes", ",".join(CODES)]


def run_python(args, cwd):
    path = filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def run_script(name, args, cwd):
    return run_python([str(SCRIPTS / name), *args], cwd)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_pipeline_writes_every_output_reproducibly(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for cwd in (first, second):
        cwd.mkdir()
        result = run_script("run_pipeline.py", PIPELINE_ARGS, cwd)
        assert result.returncode == 0, result.stderr
    out = first / "pipeline_out"
    expected = ["catalog.json", "fig2.csv", "fig2.svg", "fig3.csv", "fig3.svg",
                "fig3_matches.json", "fig4.csv", "fig4_clusters.csv", "fig4.svg"]
    for code in CODES:
        expected += [f"samples/{code}.samples", f"samples/{code}.meta.json"]
    for name in expected:
        assert (out / name).is_file(), name

    pipeline = runpy.run_path(str(SCRIPTS / "run_pipeline.py"))
    in_memory = pipeline["simulate_all"](pipeline["PipelineConfig"](
        outdir=tmp_path / "memory", shots=300, codes=CODES))
    assert sorted(in_memory) == CODES
    for code, samples in in_memory.items():
        ingested = engine.ingest_samples(out / "samples" / f"{code}.samples")
        assert np.array_equal(ingested.shots, samples.shots)
        assert ingested.meta.loss == samples.meta.loss

    assert tree_bytes(out) == tree_bytes(second / "pipeline_out")

    # The CLI ingests the written files; its figures equal the pipeline's,
    # which it drew from the shots in memory.
    cli_dir = tmp_path / "cli"
    cli_dir.mkdir()
    for name in ("fig2", "fig4"):
        result = run_python(
            ["-m", "gbsgraphs.cli", "figure", name, "--format", "csv",
             "--samples-dir", str(out / "samples"), "--codes", ",".join(CODES)],
            cli_dir)
        assert result.returncode == 0, result.stderr
    for name in ("fig2.csv", "fig4.csv", "fig4_clusters.csv"):
        assert (cli_dir / name).read_bytes() == (out / name).read_bytes(), name


def test_run_pipeline_on_codes_of_one_class(tmp_path):
    result = run_script("run_pipeline.py",
                        ["--shots", "300", "--codes", "0000000100,1000000000"],
                        tmp_path)
    assert result.returncode == 0, result.stderr
    clusters = (tmp_path / "pipeline_out" / "fig4_clusters.csv").read_text()
    assert clusters.splitlines()[1].endswith(",,")


@pytest.mark.parametrize("args", [["--eta", "1.5"], ["--eta", "nan"],
                                  ["--eta", "-0.1"], ["--seed", "-1"],
                                  ["--shots", "0"], ["--shots", "x"]])
def test_run_pipeline_rejects_bad_arguments(tmp_path, args):
    result = run_script("run_pipeline.py", [*args, "--codes", CODES[0]], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "error: argument" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "pipeline_out").exists()


def test_orbit_overlap_report_prints_closest_pair(tmp_path):
    result = run_script("orbit_overlap_report.py", ["--etas", "0.55"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "2P3 vs 2S3" in result.stdout
