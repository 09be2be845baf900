import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gbsgraphs import catalog
from gbsgraphs.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def run_in(tmp_path, runner, args):
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return runner.invoke(cli, args)
    finally:
        os.chdir(old)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_default_is_75(tmp_path, runner):
    result = run_in(tmp_path, runner, ["enumerate", "--out", "cat.json"])
    assert result.exit_code == 0, result.output
    records = catalog.load_catalog(tmp_path / "cat.json")
    assert len(records) == 75
    assert all(rec.embeddable for rec in records)
    assert [r.code for r in records] == sorted(r.code for r in records)
    payload = json.loads((tmp_path / "cat.json").read_text())
    assert payload["class_counts"] == {
        "1K2": 4, "2K2": 12, "1C4": 6, "2P3": 12, "3K2": 16,
        "1K33": 4, "2S3": 4, "4K2": 10, "2C4": 6, "1K44": 1}


def test_enumerate_all_candidates_is_1024(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["enumerate", "--all-candidates", "--out", "cat.json"])
    assert result.exit_code == 0
    records = catalog.load_catalog(tmp_path / "cat.json")
    assert len(records) == 1024
    reasons = {rec.reason for rec in records if not rec.embeddable}
    assert "no edges" in reasons


def test_enumerate_is_byte_identical_across_runs(tmp_path, runner):
    run_in(tmp_path, runner, ["enumerate", "--out", "a.json"])
    run_in(tmp_path, runner, ["enumerate", "--out", "b.json"])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_enumerate_csv_format(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["enumerate", "--format", "csv", "--out", "cat.csv"])
    assert result.exit_code == 0
    lines = (tmp_path / "cat.csv").read_text().splitlines()
    assert lines[0].startswith("code,embeddable,class,rank,m")
    assert len(lines) == 76


# ---------------------------------------------------------------------------
# classify / embed
# ---------------------------------------------------------------------------

def test_classify_outputs_class_and_components(tmp_path, runner):
    result = run_in(tmp_path, runner, ["classify", "0110000000", "0000000000"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload[0]["class"] == "2P3"
    assert payload[0]["embeddable"] is True
    assert payload[1]["class"] == "OTHER"
    assert payload[1]["embeddable"] is False


def test_classify_rejects_bad_code(tmp_path, runner):
    result = run_in(tmp_path, runner, ["classify", "potato"])
    assert result.exit_code == 2


def test_embed_reports_parameters(tmp_path, runner):
    result = run_in(tmp_path, runner, ["embed", "1111111111"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rank"] == 1
    assert payload["squeezing"] == [1.0]
    assert payload["mean_photon_total"] == pytest.approx(2.762195691, abs=1e-8)


def test_embed_rejects_non_embeddable(tmp_path, runner):
    result = run_in(tmp_path, runner, ["embed", "1100000000"])
    assert result.exit_code == 2
    assert "unequal" in result.output


# ---------------------------------------------------------------------------
# simulate / ingest
# ---------------------------------------------------------------------------

def test_simulate_writes_samples_and_meta(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["simulate", "0000000100", "--shots", "200", "--seed", "5",
                     "--out", "s.samples"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "s.samples").read_text().splitlines()
    assert len(lines) == 200
    meta = json.loads((tmp_path / "s.meta.json").read_text())
    assert meta["code"] == "0000000100"
    assert meta["seed"] == 5
    assert meta["shots"] == 200
    assert meta["threshold"] is False
    assert meta["loss"] is None


def test_simulate_deterministic_reruns(tmp_path, runner):
    args = ["simulate", "1111111111", "--shots", "400", "--seed", "9"]
    run_in(tmp_path, runner, args + ["--out", "a.samples"])
    run_in(tmp_path, runner, args + ["--out", "b.samples"])
    assert ((tmp_path / "a.samples").read_bytes()
            == (tmp_path / "b.samples").read_bytes())


def test_simulate_loss_and_threshold(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["simulate", "0000000100", "--shots", "300", "--seed", "2",
                     "--loss", "0.55", "--threshold", "--out", "t.samples"])
    assert result.exit_code == 0
    meta = json.loads((tmp_path / "t.meta.json").read_text())
    assert meta["loss"] == pytest.approx(0.55)
    assert meta["threshold"] is True
    counts = {int(x) for line in (tmp_path / "t.samples").read_text().splitlines()
              for x in json.loads(line)}
    assert counts <= {0, 1}


def test_simulate_raises_cutoff_for_higher_rank(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["simulate", "0100000101", "--shots", "10", "--seed", "1",
                     "--out", "r4.samples"])
    assert result.exit_code == 0
    meta = json.loads((tmp_path / "r4.meta.json").read_text())
    assert meta["cutoff_pairs"] == 17
    assert meta["covered_mass"] >= 0.99


def test_simulate_rejects_non_embeddable_with_reason(tmp_path, runner):
    result = run_in(tmp_path, runner, ["simulate", "1100000000", "--shots", "10"])
    assert result.exit_code == 2
    assert "singular values" in result.output


def test_simulate_rejects_negative_seed(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["simulate", "0000000100", "--shots", "10", "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.output


def test_ingest_round_trip_report(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "0000000100", "--shots", "250", "--seed", "4",
            "--out", "r.samples"])
    result = run_in(tmp_path, runner, ["ingest", "r.samples"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["shots"] == 250
    assert report["code"] == "0000000100"
    assert report["odd_total_fraction"] == 0.0


def test_ingest_flags_odd_totals_under_loss(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "1111111111", "--shots", "2000", "--seed", "4",
            "--loss", "0.5", "--out", "l.samples"])
    result = run_in(tmp_path, runner, ["ingest", "l.samples"])
    report = json.loads(result.output)
    assert report["odd_total_fraction"] > 0.1


def test_ingest_error_names_line(tmp_path, runner):
    bad = tmp_path / "bad.samples"
    bad.write_text("[0,0,0,0,0,0,0,0]\n[1,2]\n")
    result = run_in(tmp_path, runner, ["ingest", str(bad)])
    assert result.exit_code == 2
    assert "bad.samples:2" in result.output


def test_ingest_empty_file_is_validation_error(tmp_path, runner):
    empty = tmp_path / "empty.samples"
    empty.write_text("")
    result = run_in(tmp_path, runner, ["ingest", str(empty)])
    assert result.exit_code == 2


def test_ingest_huge_count_reports_only_observed_totals(tmp_path, runner):
    (tmp_path / "big.samples").write_text("[9223372036854775807,0,0,0,0,0,0,0]\n")
    result = run_in(tmp_path, runner, ["ingest", "big.samples"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["total_histogram"] == {"9223372036854775807": 1}
    assert report["event_frequencies"] == {"9223372036854775807": 0.0}


@pytest.mark.parametrize("meta, message", [
    ('{"code": "0000000100", "loss": ', "invalid JSON"),
    ('["0000000100"]', "expected a JSON object, got list"),
    ('{"code": "12345"}', "10 digits"),
], ids=["malformed-json", "not-an-object", "bad-code"])
def test_ingest_bad_meta_is_validation_error(tmp_path, runner, meta, message):
    (tmp_path / "s.samples").write_text("[1,0,0,0,1,0,0,0]\n")
    (tmp_path / "s.meta.json").write_text(meta)
    result = run_in(tmp_path, runner, ["ingest", "s.samples"])
    assert result.exit_code == 2, result.output
    assert "s.meta.json" in result.output and message in result.output


# ---------------------------------------------------------------------------
# fv / deviation
# ---------------------------------------------------------------------------

def test_fv_sampled_plus_analytic(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "1111111111", "--shots", "500", "--seed", "6",
            "--out", "k.samples"])
    result = run_in(tmp_path, runner,
                    ["fv", "--samples", "k.samples", "--code", "1111111111",
                     "--events", "2,4,6,8", "--out", "fv.csv"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "fv.csv").read_text().splitlines()
    assert lines[0] == "code,class,provenance,loss_eta,label,value,stat_error,tail_bound"
    assert len(lines) == 1 + 8
    sampled = [l for l in lines[1:] if ",sampled," in l]
    analytic = [l for l in lines[1:] if ",analytic," in l]
    assert len(sampled) == 4 and len(analytic) == 4
    # odd-free columns: all four labels are even events
    assert all("event(k=" in l for l in lines[1:])


def test_fv_orbits_on_lossy_samples(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "1111111111", "--shots", "4000", "--seed", "8",
            "--loss", "0.5", "--out", "l.samples"])
    result = run_in(tmp_path, runner,
                    ["fv", "--samples", "l.samples",
                     "--orbits", "1,1,1;1,1,1,1;2,1,1", "--out", "fvo.csv"])
    assert result.exit_code == 0
    rows = (tmp_path / "fvo.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    first = rows[0].split(",")
    assert first[4] == '"orbit(1' or "orbit(1" in rows[0]
    value = float(rows[0].rsplit(",", 2)[0].split(",")[-1])
    assert value > 0.0


def test_fv_analytic_only_needs_no_samples(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["fv", "--code", "0110000000", "--events", "2,4",
                     "--loss", "0.7", "--out", "fva.csv"])
    assert result.exit_code == 0
    lines = (tmp_path / "fva.csv").read_text().splitlines()
    assert len(lines) == 3
    assert ",analytic,0.7," in lines[1]


def test_fv_requires_some_input(tmp_path, runner):
    result = run_in(tmp_path, runner, ["fv", "--events", "2"])
    assert result.exit_code == 2


def test_deviation_outputs_grid_and_matches(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "1111111111", "--shots", "3000", "--seed", "12",
            "--out", "d.samples"])
    result = run_in(tmp_path, runner,
                    ["deviation", "--samples", "d.samples", "--step", "0.05",
                     "--out", "dev.csv"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "dev.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "loss_factor"
    assert len(lines) == 1 + 21
    payload = json.loads(result.output.split("wrote")[0])
    assert payload["code"] == "1111111111"
    assert "event(k=2,nmax=8)" in payload["matched_loss_factor"]


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

@pytest.fixture()
def sample_dir(tmp_path, runner):
    directory = tmp_path / "runs"
    directory.mkdir()
    for i, code in enumerate(["0000000100", "1000000000", "1111111111"]):
        run_in(tmp_path, runner,
               ["simulate", code, "--shots", "800", "--seed", str(20 + i),
                "--loss", "0.55", "--out", str(directory / f"{code}.samples")])
    return directory


def test_figure_fig2_subset(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig2", "--samples-dir", str(sample_dir),
                     "--codes", "0000000100,1000000000,1111111111",
                     "--out-prefix", "f2"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "f2.csv").read_text().splitlines()
    assert lines[0] == "position,code,class,sampled,stat_error,analytic"
    assert len(lines) == 4
    # the analytic series is constant within a class: both 1K2 members agree
    k2_rows = [l.split(",") for l in lines[1:] if l.split(",")[2] == "1K2"]
    assert len(k2_rows) == 2
    assert k2_rows[0][5] == k2_rows[1][5]
    svg = (tmp_path / "f2.svg").read_text().splitlines()
    assert svg[0].startswith("<svg")
    assert svg[1].startswith("<!-- gbsgraphs")


def test_figure_fig2_missing_codes_listed(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig2", "--samples-dir", str(sample_dir)])
    assert result.exit_code == 2
    assert "missing per-code sample files" in result.output
    assert "0110000000" in result.output


def test_figure_fig3_curves(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig3", "--samples",
                     str(sample_dir / "1111111111.samples"),
                     "--step", "0.1", "--out-prefix", "f3"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "f3.csv").read_text().splitlines()
    assert len(lines) == 1 + 11
    assert (tmp_path / "f3.svg").exists()


def test_figure_fig4_clusters(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig4", "--samples-dir", str(sample_dir),
                     "--codes", "0000000100,1000000000,1111111111",
                     "--out-prefix", "f4"])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "f4.csv").read_text().splitlines()
    assert rows[0].startswith("code,class,")
    assert len(rows) == 4
    clusters = (tmp_path / "f4_clusters.csv").read_text().splitlines()
    assert clusters[0].startswith("class,") and "centroid_" in clusters[0]
    assert len(clusters) == 3          # 1K2 and 1K44 present
    assert (tmp_path / "f4.svg").exists()


def test_figure_csv_format_skips_svg(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig4", "--samples-dir", str(sample_dir),
                     "--codes", "0000000100,1111111111",
                     "--format", "csv", "--out-prefix", "f4c"])
    assert result.exit_code == 0
    assert (tmp_path / "f4c.csv").exists()
    assert not (tmp_path / "f4c.svg").exists()


def test_figure_outputs_are_deterministic(tmp_path, runner, sample_dir):
    args = ["figure", "fig2", "--samples-dir", str(sample_dir),
            "--codes", "0000000100,1111111111"]
    run_in(tmp_path, runner, args + ["--out-prefix", "x"])
    run_in(tmp_path, runner, args + ["--out-prefix", "y"])
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
    assert (tmp_path / "x.svg").read_bytes() == (tmp_path / "y.svg").read_bytes()
