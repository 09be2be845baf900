import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import embedding, engine, graphs
from gbsgraphs.errors import SampleFormatError, ValidationError
from oracles import assert_ingest_matches_oracle, permanent_naive

SECH2 = 1.0 / math.cosh(1.0) ** 2
TANH2 = math.tanh(1.0) ** 2


def compositions(total, parts):
    """All nonnegative integer vectors with the given length and sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# permanent kernels
# ---------------------------------------------------------------------------

def test_permanent_identity():
    assert engine.permanent(np.eye(3)) == pytest.approx(1.0)


def test_permanent_all_ones_is_factorial():
    assert engine.permanent(np.ones((3, 3))) == pytest.approx(6.0)
    assert engine.permanent(np.ones((5, 5))) == pytest.approx(120.0)


def test_permanent_empty_matrix_is_one():
    assert engine.permanent(np.zeros((0, 0))) == 1.0
    assert permanent_naive(np.zeros((0, 0))) == 1.0


def test_permanent_rejects_nonsquare_and_oversize():
    with pytest.raises(ValidationError):
        engine.permanent(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        engine.permanent(np.ones((17, 17)))


def test_ryser_matches_naive_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(5, 5))
        ryser = engine.permanent(a)
        naive = permanent_naive(a)
        assert ryser == pytest.approx(naive, rel=1e-10, abs=1e-12)


def test_ryser_matches_naive_on_repeated_submatrices():
    # Repetition patterns drawn from the scaled matrices the engine feeds it.
    spec = embedding.make_embedding("1111111111")
    b = spec.scaled_matrix
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = rng.multinomial(rng.integers(1, 7), [0.25] * 4)
        s = rng.multinomial(int(d.sum()), [0.25] * 4)
        sub = np.repeat(np.repeat(b, d, axis=0), s, axis=1)
        if sub.shape[0] > 6:
            continue
        assert engine.permanent(sub) == pytest.approx(
            permanent_naive(sub), rel=1e-10, abs=1e-14)


# ---------------------------------------------------------------------------
# pattern probabilities
# ---------------------------------------------------------------------------

def test_tmsv_single_pair_probability():
    spec = embedding.make_embedding("0000000100")
    p = engine.pattern_probability(spec, (0, 0, 1, 0, 0, 0, 1, 0))
    assert p == pytest.approx(SECH2 * TANH2, abs=1e-10)
    assert p == pytest.approx(0.2435963, abs=1e-6)


def test_tmsv_double_pair_probability():
    spec = embedding.make_embedding("0000000100")
    p = engine.pattern_probability(spec, (0, 0, 2, 0, 0, 0, 2, 0))
    assert p == pytest.approx(SECH2 * TANH2 ** 2, abs=1e-12)


def test_vacuum_probability_is_sech_power():
    for code, power in (("0000000100", 2), ("0110000000", 4), ("0100000101", 8)):
        spec = embedding.make_embedding(code)
        assert engine.pattern_probability(spec, (0,) * 8) == pytest.approx(
            (1.0 / math.cosh(1.0)) ** power, rel=1e-12)


def test_unpaired_pattern_has_zero_probability():
    spec = embedding.make_embedding("1111111111")
    assert engine.pattern_probability(spec, (1, 0, 0, 0, 0, 0, 0, 0)) == 0.0


@pytest.mark.parametrize("code", ["0000000100", "0100000101"])
def test_zero_law_exhaustive_up_to_total_12(code):
    spec = embedding.make_embedding(code)
    for total in range(1, 13):
        for s_tot in range(total + 1):
            d_tot = total - s_tot
            if s_tot == d_tot:
                continue
            # extreme concentrations plus a spread pattern per split
            for s in ((s_tot, 0, 0, 0), tuple(compositions(s_tot, 4))[-1]):
                for d in ((d_tot, 0, 0, 0), tuple(compositions(d_tot, 4))[-1]):
                    assert engine.pattern_probability(spec, s + d) == 0.0


def test_pattern_validation():
    spec = embedding.make_embedding("0000000100")
    with pytest.raises(ValidationError):
        engine.pattern_probability(spec, (1, 2))
    with pytest.raises(ValidationError):
        engine.pattern_probability(spec, (-1, 0, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# total photon distribution
# ---------------------------------------------------------------------------

def test_total_distribution_rank1_values():
    assert engine.total_photon_distribution(1, 0) == pytest.approx(SECH2, rel=1e-12)
    assert engine.total_photon_distribution(1, 1) == pytest.approx(
        SECH2 * TANH2, rel=1e-12)


def test_total_distribution_matches_pattern_sum():
    # Brute-force enumeration over all patterns with one pair each side.
    spec = embedding.make_embedding("1111111111")
    total = 0.0
    for s in compositions(1, 4):
        for d in compositions(1, 4):
            total += engine.pattern_probability(spec, s + d)
    assert total == pytest.approx(engine.total_photon_distribution(1, 1), rel=1e-12)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_total_distribution_normalises(rank):
    acc = math.fsum(engine.total_photon_distribution(rank, s) for s in range(400))
    assert acc == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rank", [1, 4])
def test_total_distribution_of_huge_pair_numbers_is_zero(rank):
    # The closed form already underflows to 0.0 here, and its integer
    # binomial would overflow float for the larger counts.
    for pairs in (10 ** 6, 10 ** 6 + 1, 10 ** 120, 10 ** 400):
        assert engine.total_photon_distribution(rank, pairs) == 0.0
        assert engine.detected_total_probabilities(
            rank, [2 * pairs], [1.0, 0.5]).tolist() == [[0.0], [0.0]]


def test_total_distribution_validates():
    with pytest.raises(ValidationError):
        engine.total_photon_distribution(0, 1)
    with pytest.raises(ValidationError):
        engine.total_photon_distribution(2, -1)


@pytest.mark.parametrize("rank,cutoff", [(1, 8), (2, 11), (3, 14), (4, 17)])
def test_min_cutoff_for_mass(rank, cutoff):
    assert engine.min_cutoff_for_mass(rank) == cutoff


# ---------------------------------------------------------------------------
# probability tables
# ---------------------------------------------------------------------------

def test_table_single_edge_lives_on_modes_2_and_6():
    spec = embedding.make_embedding("0000000100")
    table = engine.build_table(spec, 8)
    assert len(table) == 9
    others = [i for i in range(8) if i not in (2, 6)]
    assert not table.patterns[:, others].any()
    assert table.covered_mass == pytest.approx(1.0 - math.tanh(1.0) ** 18,
                                               abs=1e-12)


@pytest.mark.parametrize("code,cutoff", [("0000000100", 8), ("0110000000", 9),
                                         ("1111111111", 6)])
def test_table_slices_match_closed_form(code, cutoff, specs_by_code):
    spec = specs_by_code[code]
    table = engine.build_table(spec, cutoff)
    for pairs in range(cutoff + 1):
        assert table.slice_mass(pairs) == pytest.approx(
            engine.total_photon_distribution(spec.rank, pairs), abs=1e-9)
    assert (table.probs >= 0).all()
    assert table.covered_mass <= 1.0
    assert table.covered_mass == pytest.approx(
        1.0 - engine.total_photon_tail(spec.rank, cutoff), abs=1e-9)


def test_table_agrees_with_ryser_probabilities(specs_by_code):
    spec = specs_by_code["1111111111"]
    table = engine.build_table(spec, 4)
    lookup = table.as_dict()
    # exhaustive at small totals, spot checks above
    for s in compositions(2, 4):
        for d in compositions(2, 4):
            pattern = s + d
            assert lookup[pattern] == pytest.approx(
                engine.pattern_probability(spec, pattern), rel=1e-12)
    rng = np.random.default_rng(5)
    for i in rng.choice(len(table), size=40, replace=False):
        pattern = tuple(int(x) for x in table.patterns[i])
        assert table.probs[i] == pytest.approx(
            engine.pattern_probability(spec, pattern), rel=1e-12)


def test_table_mode_permutation_covariance():
    perm = (2, 0, 3, 1)
    m = graphs.decode_code("0110000000")
    code2 = graphs.encode_matrix(m[np.ix_(perm, perm)])
    t1 = engine.build_table(embedding.make_embedding("0110000000"), 8)
    t2 = engine.build_table(embedding.make_embedding(code2), 8)
    d2 = t2.as_dict()
    for pattern, value in t1.as_dict().items():
        s, d = pattern[:4], pattern[4:]
        moved = (tuple(s[perm[j]] for j in range(4))
                 + tuple(d[perm[j]] for j in range(4)))
        assert d2[moved] == value      # bit-identical by construction


def test_table_rejects_bad_cutoff():
    spec = embedding.make_embedding("0000000100")
    with pytest.raises(ValidationError):
        engine.build_table(spec, 0)


def test_every_embeddable_spec_normalises_against_closed_form(embeddable):
    cutoff = 10
    for code, spec in embeddable:
        table = engine.build_table(spec, cutoff)
        for pairs in range(cutoff + 1):
            assert table.slice_mass(pairs) == pytest.approx(
                engine.total_photon_distribution(spec.rank, pairs),
                abs=1e-8), (code, pairs)


# ---------------------------------------------------------------------------
# product law
# ---------------------------------------------------------------------------

def test_blocks_split_signal_and_idler_modes():
    assert embedding.make_embedding("1111111111").blocks == [
        ((0, 1, 2, 3), (4, 5, 6, 7))]
    assert embedding.make_embedding("0000000100").blocks == [((2,), (6,))]
    blocks = embedding.make_embedding("0110000000").blocks
    assert len(blocks) == 2
    assert sorted(len(sig) * len(idl) for sig, idl in blocks) == [2, 2]
    for code, spec in embedding.enumerate_embeddable():
        assert len(spec.blocks) == spec.rank, code


def test_detected_probabilities_match_every_table_entry(embeddable):
    worst = 0.0
    for code, spec in embeddable:
        table = engine.build_table(spec, 6)
        got = engine.detected_probabilities(spec, table.patterns)
        worst = max(worst, float((np.abs(got - table.probs) / table.probs).max()))
    assert worst < 1e-14


def test_detected_probabilities_match_ryser_on_sampled_patterns(specs_by_code):
    for code in ("1111111111", "0110000000", "0100000101", "1011000111"):
        spec = specs_by_code[code]
        shots = engine.sample(spec, 400, seed=17).shots
        distinct = np.unique(shots[shots.sum(axis=1) <= 12], axis=0)
        got = engine.detected_probabilities(spec, distinct)
        for pattern, value in zip(distinct, got):
            assert value == pytest.approx(
                engine.pattern_probability(spec, pattern), rel=1e-12), (code, pattern)


def _thinned_table_mass(table, detected, eta):
    # Sum over ideal patterns t of P(t) * prod_j Bin(detected_j; t_j, eta).
    pats = table.patterns
    top = int(max(pats.max(), detected.max()))
    pmf = np.zeros((top + 1, top + 1))
    for t in range(top + 1):
        for k in range(t + 1):
            pmf[t, k] = math.comb(t, k) * eta ** k * (1.0 - eta) ** (t - k)
    w = np.ones((len(pats), len(detected)))
    for j in range(8):
        w *= pmf[pats[:, j][:, None], detected[None, :, j]]
    return table.probs @ w


@pytest.mark.parametrize("code", ["0000000100", "0010000000", "1100100000"])
def test_lossy_detected_probabilities_match_thinned_deep_table(code, specs_by_code):
    spec = specs_by_code[code]
    cutoff = engine.min_cutoff_for_mass(spec.rank, 1.0 - 1e-12)
    table = engine.build_table(spec, cutoff)
    assert engine.total_photon_tail(spec.rank, cutoff) < 1e-12
    modes = [m for block in spec.blocks for side in block for m in side]
    detected = np.zeros((3 ** len(modes), 8), dtype=np.int64)
    detected[:, modes] = list(itertools.product(range(3), repeat=len(modes)))
    for eta in (0.3, 0.55, 0.9):
        want = _thinned_table_mass(table, detected, eta)
        got = engine.detected_probabilities(spec, detected, eta)
        assert np.abs(got - want).max() < 1e-12, eta
        assert (got[want == 0.0] == 0.0).all()


def test_detected_probabilities_edge_patterns(specs_by_code):
    spec = specs_by_code["0000000100"]
    stray = (1, 0, 1, 0, 0, 0, 1, 0)
    deep = (0, 0, 10 ** 6, 0, 0, 0, 10 ** 6, 0)
    got = engine.detected_probabilities(spec, [stray, deep], 0.5)
    assert got.tolist() == [0.0, 0.0]
    with pytest.raises(ValidationError):
        engine.detected_probabilities(spec, [(0, 0, -1, 0, 0, 0, 0, 0)])


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_detected_total_matches_pair_law_series(rank):
    eta = 0.55
    for k in (0, 1, 2, 5, 8):
        want = math.fsum(
            engine.total_photon_distribution(rank, pairs) * math.comb(2 * pairs, k)
            * eta ** k * (1 - eta) ** (2 * pairs - k)
            for pairs in range((k + 1) // 2, 400))
        assert engine.detected_total_probabilities(rank, [k], [eta])[0, 0] == (
            pytest.approx(want, rel=1e-12)), k
    assert engine.detected_total_probabilities(rank, [0], [0.0])[0, 0] == 1.0
    assert engine.detected_total_probabilities(rank, [10 ** 9], [0.5])[0, 0] == 0.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def k44_spec():
    return embedding.make_embedding("1111111111")


def test_sample_validation(k44_spec):
    with pytest.raises(ValidationError):
        engine.sample(k44_spec, 0, seed=1)


def test_sample_accepts_a_table_for_its_spec(k44_spec):
    table = engine.build_table(k44_spec, 4)
    a = engine.sample(table, 300, seed=12)
    b = engine.sample(k44_spec, 300, seed=12)
    assert (a.shots == b.shots).all()
    assert a.meta == b.meta


def test_sample_draws_table_patterns(k44_spec):
    out = engine.sample(k44_spec, 2000, seed=42)
    lookup = engine.build_table(k44_spec, 8).as_dict()
    for row in out.shots:
        if row[:4].sum() <= 8:
            assert tuple(int(x) for x in row) in lookup
    assert (out.shots[:, :4].sum(axis=1) == out.shots[:, 4:].sum(axis=1)).all()
    assert out.meta.source == "simulated"
    assert out.meta.code == "1111111111"
    assert out.meta.seed == 42


def test_sample_records_the_seed_of_a_spawned_stream(k44_spec):
    stream, _ = np.random.SeedSequence(9).spawn(2)
    out = engine.sample(k44_spec, 50, stream)
    assert out.meta.seed == 9
    assert not (out.shots == engine.sample(k44_spec, 50, 9).shots).all()


def test_sample_is_deterministic(k44_spec):
    a = engine.sample(k44_spec, 2000, seed=9)
    b = engine.sample(k44_spec, 2000, seed=9)
    assert (a.shots == b.shots).all()
    c = engine.sample(k44_spec, 2000, seed=10)
    assert (a.shots != c.shots).any()


def test_sample_frequency_matches_exact_law():
    spec = embedding.make_embedding("0000000100")
    shots = 100_000
    out = engine.sample(spec, shots, seed=123)
    totals = out.shots.sum(axis=1)
    p = SECH2 * TANH2
    se = math.sqrt(p * (1 - p) / shots)
    assert abs((totals == 2).mean() - p) < 4 * se


@pytest.mark.parametrize("code", ["1111111111", "0110000000", "0100000101"])
def test_sampled_pair_numbers_follow_negative_binomial(code, specs_by_code):
    # No renormalisation: the expected counts come from the untruncated law.
    scipy_stats = pytest.importorskip("scipy.stats")
    spec = specs_by_code[code]
    shots = 100_000
    pairs = engine.sample(spec, shots, seed=91).shots[:, :4].sum(axis=1)
    top = 12 + 3 * spec.rank
    probs = [engine.total_photon_distribution(spec.rank, n) for n in range(top)]
    observed = [np.count_nonzero(pairs == n) for n in range(top)]
    probs.append(1.0 - math.fsum(probs))
    observed.append(np.count_nonzero(pairs >= top))
    expected = shots * np.array(probs)
    stat = float(((np.array(observed) - expected) ** 2 / expected).sum())
    critical = scipy_stats.chi2.ppf(1.0 - 1e-3, df=top)
    assert stat < critical, f"chi2 {stat:.1f} >= {critical:.1f}"


def test_sample_chi_squared_against_table(k44_spec):
    scipy_stats = pytest.importorskip("scipy.stats")
    table = engine.build_table(k44_spec, 8)
    shots = 100_000
    out = engine.sample(k44_spec, shots, seed=77)
    order = np.argsort(table.probs)[::-1][:20]
    top = {tuple(int(x) for x in table.patterns[i]): table.probs[i] for i in order}
    counts = {key: 0 for key in top}
    rest = 0
    for row in out.shots:
        key = tuple(int(x) for x in row)
        if key in counts:
            counts[key] += 1
        else:
            rest += 1
    stat = 0.0
    for key, p in top.items():
        expected = shots * p
        stat += (counts[key] - expected) ** 2 / expected
    rest_p = 1.0 - sum(top.values())
    stat += (rest - shots * rest_p) ** 2 / (shots * rest_p)
    critical = scipy_stats.chi2.ppf(1.0 - 1e-3, df=20)
    assert stat < critical, f"chi2 {stat:.1f} >= {critical:.1f}"


# ---------------------------------------------------------------------------
# loss and threshold conversion
# ---------------------------------------------------------------------------

def test_loss_model_validates():
    with pytest.raises(ValidationError):
        engine.LossModel(1.5)
    assert engine.LossModel(0.25).loss_factor == pytest.approx(0.75)


def test_lossless_thinning_is_identity(k44_spec):
    out = engine.sample(k44_spec, 500, seed=4)
    same = engine.apply_loss(out, engine.LossModel(1.0), seed=5)
    assert (same.shots == out.shots).all()
    assert same.meta.loss == 1.0


def test_full_loss_empties_every_mode(k44_spec):
    out = engine.sample(k44_spec, 500, seed=4)
    dark = engine.apply_loss(out, engine.LossModel(0.0), seed=5)
    assert not dark.shots.any()


def test_loss_scales_mean_total(k44_spec):
    shots = 100_000
    out = engine.sample(k44_spec, shots, seed=21)
    eta = 0.5
    thinned = engine.apply_loss(out, engine.LossModel(eta), seed=22)
    ideal_mean = float(out.shots.sum(axis=1).mean())
    got = float(thinned.shots.sum(axis=1).mean())
    spread = float(thinned.shots.sum(axis=1).std(ddof=1))
    assert abs(got - eta * ideal_mean) < 4 * spread / math.sqrt(shots)


def test_total_after_loss_matches_binomially_thinned_law(k44_spec):
    # Event frequencies of the detected total against the thinned pair law.
    shots = 100_000
    eta = 0.6
    out = engine.apply_loss(engine.sample(k44_spec, shots, seed=31),
                            engine.LossModel(eta), seed=32)
    totals = out.shots.sum(axis=1)
    for k in (0, 1, 2, 3, 4, 5):
        p = engine.detected_total_probabilities(1, [k], [eta])[0, 0]
        se = math.sqrt(p * (1 - p) / shots)
        assert abs((totals == k).mean() - p) < 4 * se, k


def test_loss_composes_multiplicatively(k44_spec):
    out = engine.sample(k44_spec, 100, seed=1)
    once = engine.apply_loss(out, engine.LossModel(0.8), seed=2)
    twice = engine.apply_loss(once, engine.LossModel(0.5), seed=3)
    assert twice.meta.loss == pytest.approx(0.4)


def test_loss_rejects_threshold_input(k44_spec):
    clicks = engine.to_threshold(engine.sample(k44_spec, 10, seed=1))
    with pytest.raises(ValidationError):
        engine.apply_loss(clicks, engine.LossModel(0.5), seed=2)


def test_threshold_clamps_and_is_idempotent(k44_spec):
    out = engine.sample(k44_spec, 300, seed=8)
    clicks = engine.to_threshold(out)
    assert clicks.meta.threshold
    assert set(np.unique(clicks.shots)) <= {0, 1}
    again = engine.to_threshold(clicks)
    assert (again.shots == clicks.shots).all()
    assert (clicks.shots == np.minimum(out.shots, 1)).all()


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=8))
def test_threshold_of_single_pattern(counts):
    samples = engine.SampleSet(
        shots=np.array([counts], dtype=np.int64),
        meta=engine.SampleMeta(source="simulated"))
    clicks = engine.to_threshold(samples)
    assert clicks.shots[0].tolist() == [min(c, 1) for c in counts]


# ---------------------------------------------------------------------------
# sample files
# ---------------------------------------------------------------------------

def test_write_then_ingest_roundtrip(tmp_path, k44_spec):
    out = engine.sample(k44_spec, 250, seed=3)
    lossy = engine.apply_loss(out, engine.LossModel(0.7), seed=4)
    path = tmp_path / "k44.samples"
    engine.write_samples(lossy, path)
    back = engine.ingest_samples(path)
    assert (back.shots == lossy.shots).all()
    assert back.meta.source == "ingested"
    assert back.meta.code == "1111111111"
    assert back.meta.loss == pytest.approx(0.7)
    assert back.meta.seed == 3
    stored = json.loads(engine.meta_path_for(path).read_text())
    assert "cutoff_pairs" not in stored and "covered_mass" not in stored


@pytest.mark.parametrize("shots", [
    np.zeros((4, 8), dtype=np.int64),
    np.random.default_rng(11).integers(0, 2, size=(50, 8)),
    np.random.default_rng(12).integers(0, 2 ** 62, size=(20, 8), endpoint=True),
    np.array([[3, 0, 1, 0, 2, 0, 0, 2]], dtype=np.int64),
    np.zeros((0, 8), dtype=np.int64),
], ids=["zeros", "threshold", "up-to-2^62", "single-row", "no-rows"])
def test_write_samples_bytes_equal_json_rows(tmp_path, shots):
    path = tmp_path / "x.samples"
    engine.write_samples(
        engine.SampleSet(shots=shots, meta=engine.SampleMeta("simulated")), path)
    want = "\n".join(json.dumps(row, separators=(",", ":"))
                     for row in shots.tolist()) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_ingest_three_identical_lines(tmp_path):
    path = tmp_path / "x.samples"
    path.write_text("[0,0,1,0,0,0,1,0]\n" * 3)
    got = engine.ingest_samples(path)
    assert len(got) == 3
    assert (got.shots == [0, 0, 1, 0, 0, 0, 1, 0]).all()


def test_ingest_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "x.samples"
    path.write_text("# header\n[0,0,0,0,0,0,0,0]\n\n[1,0,0,0,1,0,0,0]\n")
    assert len(engine.ingest_samples(path)) == 2


@pytest.mark.parametrize("line,fragment", [
    ("[1,2]", "expected 8"),
    ("[1,2,3,4,5,6,7,oops]", "invalid JSON"),
    ("[0,0,0,0,0,0,0,-1]", "negative"),
    ("[0,0,0,0,0,0,0,0.5]", "not an integer"),
    ('{"a":1}', "expected 8"),
])
def test_ingest_reports_line_and_reason(tmp_path, line, fragment):
    path = tmp_path / "bad.samples"
    path.write_text("[0,0,0,0,0,0,0,0]\n" + line + "\n")
    with pytest.raises(SampleFormatError) as err:
        engine.ingest_samples(path)
    assert err.value.line == 2
    assert fragment in str(err.value)


def test_ingest_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.samples"
    path.write_text("")
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)
    path.write_text("# only a comment\n")
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)


def test_ingest_checks_threshold_consistency(tmp_path):
    path = tmp_path / "t.samples"
    path.write_text("[0,0,2,0,0,0,2,0]\n")
    meta = engine.meta_path_for(path)
    meta.write_text(json.dumps({"threshold": True}))
    with pytest.raises(SampleFormatError):
        engine.ingest_samples(path)


_A, _B = b"[0,0,1,0,0,0,1,0]", b"[1,0,0,0,1,0,0,0]"


@pytest.mark.parametrize("content", [
    (_A + b"\n" + _B + b"\n") * 5 + _A + b"\n",
    b"[1,2]\n" + _A + b"\n" + _A + b"\n",
    _A + b"\n" + _B + b"\n[1,2]\n" + _A + b"\n[1,2]\n",
    _A + b"\n[0,0,0,0,0,0,0,-1]\n" + _A + b"\n[0,0,0,0,0,0,0,-1]\n",
    b"# h\n\n" + _A + b"\n# h\n\n  \n" + _B + b"\n# h\n\n",
    _A + b"\r\n" + _B + b"\r\n" + _A + b"\r\n" + _A + b"\n",
    _A + b"\n" + _B + b"\n" + _B,
    _A + b"\n\xff\xfe\n" + _A + b"\n\xff\xfe\n",
    b"\xff" + _A + b"\n",
    b"# h\n\n# h\n",
    b"[1" + b"0" * 5000 + b",0,0,0,0,0,0,0]\n" + _A + b"\n",
], ids=["repeats", "bad-first", "bad-middle-repeated", "negative-repeated",
        "comments-and-blanks", "crlf", "no-final-newline", "invalid-utf8",
        "invalid-utf8-first", "no-samples", "too-many-digits"])
def test_ingest_matches_per_line_oracle(tmp_path, content):
    path = tmp_path / "x.samples"
    path.write_bytes(content)
    assert_ingest_matches_oracle(path)


def test_build_table_and_ingest_leave_no_cyclic_garbage(tmp_path, k44_spec):
    path = tmp_path / "x.samples"
    path.write_bytes((_A + b"\n" + _B + b"\n# h\n") * 50)
    gc.collect()
    gc.disable()
    try:
        engine.build_table(k44_spec, 8)
        assert gc.collect() == 0
        engine.ingest_samples(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_meta_path_convention():
    assert engine.meta_path_for("runs/a.samples").name == "a.meta.json"
    assert engine.meta_path_for("runs/a").name == "a.meta.json"
