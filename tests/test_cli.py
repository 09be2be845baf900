import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import catalog, embedding, engine, graphs
from gbsgraphs.cli import cli
from oracles import assert_ingest_matches_oracle, build_catalog_per_code


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


@pytest.mark.parametrize("include_all, kept", [(False, 75), (True, 1024)])
def test_build_catalog_checks_each_code_once(tmp_path, runner, monkeypatch,
                                             count_calls, include_all, kept):
    # One batched walk per run; the eigensolver runs once, and only when the
    # rejected codes' reasons are listed.
    walks = count_calls(embedding, "walk_codes")
    checks = count_calls(embedding, "embeddability_check")
    classified = count_calls(graphs, "classify")
    embedded = count_calls(embedding, "make_embedding")
    eigensolves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a: eigensolves.append(a) or eigvalsh(*a))
    args = ["enumerate", "--out", "cat.json"] + ["--all-candidates"] * include_all
    assert run_in(tmp_path, runner, args).exit_code == 0
    assert len(catalog.load_catalog(tmp_path / "cat.json")) == kept
    assert (len(walks), len(checks), len(classified), len(embedded)) == (1, 0, 0, 0)
    assert len(eigensolves) == include_all


@pytest.mark.parametrize("include_all", [False, True])
def test_build_catalog_matches_per_code_oracle(include_all):
    assert catalog.build_catalog(include_all) == build_catalog_per_code(include_all)


# sha256 of the enumerate outputs, pinned when the catalog was first built by
# one batched walk; they equal those of the per-code catalog before it.
ENUMERATE_SHA256 = {
    ("json",): "087b17005d02d94e72e2a7d91f8dfa93c3b24153de1f362932fdcd8519134a9c",
    ("csv",): "6a4ab4b9b575aff97b1fad1207a5d6014d58b0f699eb7f9b31a19094d346d776",
    ("json", "--all-candidates"):
        "e52aa3b33ca538e76eeaad3122b00f65b288076ec8f9b6dde7d058a0b4b32b8c",
    ("csv", "--all-candidates"):
        "7382655613a7a223a8385fb7d91e297e464264731e2e649d565a586481a58b43",
}


@pytest.mark.parametrize("variant", list(ENUMERATE_SHA256),
                         ids=["json", "csv", "json-all", "csv-all"])
def test_enumerate_output_bytes_are_pinned(tmp_path, runner, variant):
    fmt, *extra = variant
    result = run_in(tmp_path, runner,
                    ["enumerate", "--format", fmt, "--out", "cat", *extra])
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256((tmp_path / "cat").read_bytes()).hexdigest()
    assert digest == ENUMERATE_SHA256[variant]


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


def test_simulate_draws_sampling_and_loss_from_spawned_streams(tmp_path, runner):
    result = run_in(tmp_path, runner,
                    ["simulate", "0100000101", "--shots", "300", "--seed", "5",
                     "--loss", "0.5", "--out", "r4.samples"])
    assert result.exit_code == 0, result.output
    sample_stream, loss_stream = np.random.SeedSequence(5).spawn(2)
    spec = embedding.make_embedding("0100000101")
    want = engine.apply_loss(engine.sample(spec, 300, sample_stream),
                             engine.LossModel(0.5), loss_stream)
    got = engine.ingest_samples(tmp_path / "r4.samples")
    assert (got.shots == want.shots).all()
    assert (got.meta.seed, got.meta.loss) == (5, 0.5)
    meta = json.loads((tmp_path / "r4.meta.json").read_text())
    assert "cutoff_pairs" not in meta and "covered_mass" not in meta


@pytest.mark.parametrize("command", [
    ["simulate", "0000000100", "--shots", "10"],
    ["fv", "--code", "0000000100"],
    ["deviation", "--samples", "x.samples"],
    ["figure", "fig3", "--samples", "x.samples"],
])
def test_cutoff_pairs_option_is_gone(tmp_path, runner, command):
    (tmp_path / "x.samples").write_text("[0,0,1,0,0,0,1,0]\n")
    result = run_in(tmp_path, runner, command + ["--cutoff-pairs", "8"])
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_simulate_rejects_non_embeddable_with_reason(tmp_path, runner):
    result = run_in(tmp_path, runner, ["simulate", "1100000000", "--shots", "10"])
    assert result.exit_code == 2
    assert "singular values" in result.output


@pytest.mark.parametrize("shots", ["0", "1" + "0" * 400, str(engine.MAX_SHOTS + 1)],
                         ids=["zero", "1e400", "max+1"])
def test_simulate_rejects_shots_out_of_range(tmp_path, runner, shots):
    result = run_in(tmp_path, runner, ["simulate", "0000000100", "--shots", shots])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Error: Invalid value for '--shots'" in result.output
    assert list(tmp_path.iterdir()) == []


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


_LONG_INT = "1" + "0" * 5000    # past Python's 4300-digit int-string limit


@pytest.mark.parametrize("line, message", [
    ("[9223372036854775808,0,0,0,0,0,0,0]", "more than 2^63 - 1"),
    ("[9223372036854775807,9223372036854775807,0,0,0,0,0,0]", "more than 2^63 - 1"),
    ("[" + _LONG_INT + ",0,0,0,0,0,0,0]", "more than 4300 digits"),
], ids=["count-2^63", "sum-past-2^63", "count-past-digit-limit"])
def test_ingest_counts_beyond_int64_are_validation_errors(tmp_path, runner,
                                                         line, message):
    (tmp_path / "big.samples").write_text("[0,0,0,0,0,0,0,0]\n" + line + "\n")
    result = run_in(tmp_path, runner, ["ingest", "big.samples"])
    assert result.exit_code == 2, result.output
    assert "big.samples:2" in result.output and message in result.output


def test_ingest_mode_totals_do_not_wrap(tmp_path, runner):
    (tmp_path / "s.samples").write_text("[4611686018427387904,0,0,0,0,0,0,0]\n" * 3)
    result = run_in(tmp_path, runner, ["ingest", "s.samples"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["mode_totals"][0] == 3 * 2 ** 62


def test_ingest_invalid_utf8_is_validation_error(tmp_path, runner):
    (tmp_path / "u.samples").write_bytes(b"[0,0,0,0,0,0,0,0]\n\xff\xfe\n")
    result = run_in(tmp_path, runner, ["ingest", "u.samples"])
    assert result.exit_code == 2, result.output
    assert "u.samples:2" in result.output and "UTF-8" in result.output
    (tmp_path / "v.samples").write_text("[0,0,0,0,0,0,0,0]\n")
    (tmp_path / "v.meta.json").write_bytes(b'{"code": "\xff\xfe"}')
    result = run_in(tmp_path, runner, ["ingest", "v.samples"])
    assert result.exit_code == 2, result.output
    assert "v.meta.json" in result.output


@pytest.mark.parametrize("meta", [
    {"code": "1111111111", "source": "simulated", "seed": None, "loss": 0.55,
     "threshold": False, "shots": 1, "cutoff_pairs": None, "covered_mass": None},
    {"code": "1111111111", "source": "simulated", "seed": 7, "loss": None,
     "threshold": False, "shots": 1, "cutoff_pairs": 8, "covered_mass": 0.99257},
    {"loss": 1, "seed": 0},
], ids=["benchmark-oracle", "older-file", "int-loss"])
def test_ingest_accepts_known_meta_files(tmp_path, runner, meta):
    (tmp_path / "s.samples").write_text("[1,0,0,0,1,0,0,0]\n")
    (tmp_path / "s.meta.json").write_text(json.dumps(meta))
    result = run_in(tmp_path, runner, ["ingest", "s.samples"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("meta, message", [
    ('{"code": "0000000100", "loss": ', "invalid JSON"),
    ('["0000000100"]', "expected a JSON object, got list"),
    ('{"code": "12345"}', "10 digits"),
    ('{"loss": "x"}', "loss"),
    ('{"loss": 1.5}', "loss"),
    ('{"loss": true}', "loss"),
    ('{"seed": -1}', "seed"),
    ('{"seed": 1.5}', "seed"),
    ('{"threshold": "yes"}', "threshold"),
    ('{"seed": ' + _LONG_INT + '}', "s.meta.json:0: an integer has more than 4300"),
], ids=["malformed-json", "not-an-object", "bad-code", "loss-string",
        "loss-above-1", "loss-bool", "seed-negative", "seed-float",
        "threshold-string", "seed-past-digit-limit"])
def test_ingest_bad_meta_is_validation_error(tmp_path, runner, meta, message):
    (tmp_path / "s.samples").write_text("[1,0,0,0,1,0,0,0]\n")
    (tmp_path / "s.meta.json").write_text(meta)
    result = run_in(tmp_path, runner, ["ingest", "s.samples"])
    assert result.exit_code == 2, result.output
    assert "s.meta.json" in result.output and message in result.output


def test_fv_on_mistyped_meta_is_validation_error(tmp_path, runner):
    (tmp_path / "s.samples").write_text("[1,0,0,0,1,0,0,0]\n")
    (tmp_path / "s.meta.json").write_text('{"code": "1000000000", "loss": "x"}')
    result = run_in(tmp_path, runner, ["fv", "--samples", "s.samples"])
    assert result.exit_code == 2, result.output
    assert "s.meta.json" in result.output


_COUNT = st.one_of(st.integers(min_value=0, max_value=3),
                   st.integers(min_value=-2 ** 70, max_value=2 ** 70))
_SHOT_LINE = st.one_of(
    st.lists(_COUNT, min_size=8, max_size=8).map(lambda v: json.dumps(v).encode()),
    st.lists(_COUNT, max_size=10).map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b and b"\r" not in b),
    st.sampled_from([b"", b"# comment", b"[1,0,0,0,1,0,0,0.5]", b"\xff\xfe",
                     b"[" + _LONG_INT.encode() + b",0,0,0,0,0,0,0]"]),
)
_META_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-5, 2 ** 64),
                        st.floats(allow_nan=True), st.text(max_size=12))
_META = st.one_of(
    st.none(),
    st.fixed_dictionaries({}, optional={
        "code": st.one_of(_META_VALUE, st.sampled_from(["0000000100", "1111111111"])),
        "loss": _META_VALUE, "seed": _META_VALUE, "threshold": _META_VALUE,
    }).map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=16),
    st.just(b'{"seed": ' + _LONG_INT.encode() + b'}'),
)


@given(lines=st.lists(_SHOT_LINE, max_size=6), meta=_META,
       command=st.sampled_from([["ingest", "f.samples"],
                                ["fv", "--samples", "f.samples", "--out", "f.csv"]]))
@settings(max_examples=60)
def test_ingest_and_fv_keep_the_exit_code_contract(tmp_path_factory, lines, meta,
                                                   command):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "f.samples").write_bytes(b"\n".join(lines) + b"\n")
    if meta is not None:
        (work / "f.meta.json").write_bytes(meta)
    start = time.perf_counter()
    result = run_in(work, CliRunner(), command)
    assert time.perf_counter() - start < 10.0
    assert result.exit_code in (0, 2, 3), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)


@given(lines=st.lists(_SHOT_LINE, max_size=8), repeats=st.lists(
    st.integers(min_value=0, max_value=7), max_size=8))
@settings(max_examples=60)
def test_ingest_matches_per_line_oracle_on_fuzz_lines(tmp_path_factory, lines,
                                                      repeats):
    lines = lines + [lines[i] for i in repeats if i < len(lines)]
    path = tmp_path_factory.mktemp("oracle") / "f.samples"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert_ingest_matches_oracle(path)


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
    assert lines[0] == "code,class,provenance,loss_eta,label,value,stat_error"
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
    value = float(rows[0].rsplit(",", 1)[0].split(",")[-1])
    assert value > 0.0


_PART = st.one_of(st.integers(1, 4), st.integers(1, 10 ** 400),
                  st.sampled_from([1370, 2 ** 62, 2 ** 63 - 1, 2 ** 63]))
_ORBIT = st.lists(_PART, min_size=1, max_size=9).map(
    lambda parts: ",".join(map(str, sorted(parts, reverse=True))))


@given(orbits=st.lists(_ORBIT, min_size=1, max_size=3).map(";".join),
       source=st.sampled_from([["--code", "0000000100"], ["--code", "1111111111"],
                               ["--samples", "f.samples"]]),
       loss=st.one_of(st.none(), st.floats(), st.floats(0.0, 1.0)))
@settings(max_examples=60)
def test_fv_orbits_keep_the_exit_code_contract(tmp_path_factory, orbits, source,
                                                loss):
    work = tmp_path_factory.mktemp("fuzz_orbits")
    spec = embedding.make_embedding("1111111111")
    engine.write_samples(engine.sample(spec, 200, seed=3), work / "f.samples")
    args = ["fv", *source, "--orbits", orbits, "--out", "f.csv"]
    if loss is not None:
        args += ["--loss", repr(loss)]
    start = time.perf_counter()
    result = run_in(work, CliRunner(), args)
    assert time.perf_counter() - start < 10.0
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)


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


@pytest.fixture()
def dev_dir(tmp_path, runner):
    run_in(tmp_path, runner,
           ["simulate", "1111111111", "--shots", "500", "--seed", "12",
            "--out", "d.samples"])
    return tmp_path


@pytest.mark.parametrize("step", ["0.006", "0.035"])
def test_deviation_grid_ends_at_loss_factor_one(dev_dir, runner, step):
    result = run_in(dev_dir, runner,
                    ["deviation", "--samples", "d.samples", "--step", step,
                     "--out", "dev.csv"])
    assert result.exit_code == 0, result.output
    lines = (dev_dir / "dev.csv").read_text().splitlines()
    assert lines[-1].split(",")[0] == "1"


@pytest.mark.parametrize("step", ["0", "nan", "inf", "1e-7", "5e-5", "1.5"])
def test_deviation_rejects_steps_outside_range_quickly(dev_dir, runner, step):
    start = time.perf_counter()
    result = run_in(dev_dir, runner,
                    ["deviation", "--samples", "d.samples", "--step", step,
                     "--out", "dev.csv"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, (result.output, result.exception)
    assert "step must lie in" in result.output


def test_deviation_rejects_empty_event_list(dev_dir, runner):
    result = run_in(dev_dir, runner,
                    ["deviation", "--samples", "d.samples", "--events", "",
                     "--out", "dev.csv"])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "event labels" in result.output


@pytest.mark.parametrize("command", [
    ["fv", "--samples", "d.samples", "--out", "out.csv"],
    ["fv", "--code", "1111111111", "--out", "out.csv"],
    ["deviation", "--samples", "d.samples", "--out", "out.csv"]])
def test_negative_event_totals_are_rejected(dev_dir, runner, command):
    result = run_in(dev_dir, runner, [*command, "--events=-2,2"])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Error: event totals must be nonnegative" in result.output
    assert not (dev_dir / "out.csv").exists()


def test_fv_checks_its_orbits_before_reading_samples(tmp_path, runner):
    (tmp_path / "bad.samples").write_text("[1, 2, 3]\n")
    result = run_in(tmp_path, runner, ["fv", "--samples", "bad.samples",
                                       "--orbits", "1,2", "--out", "fv.csv"])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Error: orbit parts must be nonincreasing" in result.output


_STEP = st.one_of(st.floats(),
                  st.sampled_from([0.0, -0.0, 1e-7, 5e-5, 0.006, 0.035, 0.5, 1.0]))
_EVENT = st.one_of(st.integers(-2, 12), st.integers(0, 10 ** 400))
_EVENTS = st.one_of(
    st.lists(_EVENT, max_size=4).map(lambda ks: ",".join(map(str, ks))),
    st.text(alphabet="0123456789,-. x", max_size=10))


@given(step=_STEP, events=_EVENTS,
       n_max=st.one_of(st.integers(-2, 12), st.integers(0, 10 ** 400)))
@settings(max_examples=40)
def test_deviation_keeps_the_exit_code_contract(tmp_path_factory, step, events,
                                                n_max):
    work = tmp_path_factory.mktemp("fuzz_dev")
    spec = embedding.make_embedding("1111111111")
    engine.write_samples(engine.sample(spec, 300, seed=5), work / "d.samples")
    start = time.perf_counter()
    result = run_in(work, CliRunner(),
                    ["deviation", "--samples", "d.samples", "--step", repr(step),
                     "--events", events, "--n-max", str(n_max), "--out", "dev.csv"])
    assert time.perf_counter() - start < 10.0
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)


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


def test_figure_fig3_grid_ends_at_loss_factor_one(tmp_path, runner, sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig3", "--samples",
                     str(sample_dir / "1111111111.samples"),
                     "--step", "0.007", "--format", "csv", "--out-prefix", "f3"])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "f3.csv").read_text().splitlines()
    assert lines[-1].split(",")[0] == "1"


def test_figure_fig4_with_one_class_leaves_nearest_class_empty(tmp_path, runner,
                                                              sample_dir):
    result = run_in(tmp_path, runner,
                    ["figure", "fig4", "--samples-dir", str(sample_dir),
                     "--codes", "0000000100,1000000000", "--out-prefix", "f4"])
    assert result.exit_code == 0, (result.output, result.exception)
    clusters = (tmp_path / "f4_clusters.csv").read_text().splitlines()
    assert len(clusters) == 2
    assert clusters[1].startswith("1K2,") and clusters[1].endswith(",,")


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
