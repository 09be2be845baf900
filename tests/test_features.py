import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import embedding, engine, features, figures
from gbsgraphs.cli import CLASS_REPRESENTATIVES
from gbsgraphs.engine import LossModel, SampleMeta, SampleSet
from gbsgraphs.errors import ValidationError
from oracles import (assert_histogram_of, fv_events_per_shot, fv_orbits_per_shot,
                     match_on_grid_per_halving, sample_file_text)
from oracles import orbit_patterns as orbit_patterns_oracle
from oracles import slice_mass

SECH2 = 1.0 / math.cosh(1.0) ** 2
TANH2 = math.tanh(1.0) ** 2


def make_samples(rows, loss=None):
    return SampleSet.of(shots=np.array(rows, dtype=np.int64),
                        meta=SampleMeta(source="simulated", loss=loss))


def partitions(total, max_part):
    """Nonincreasing positive partitions of ``total`` with parts <= max_part."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            if len(rest) + 1 <= 8:
                yield (first,) + rest


# ---------------------------------------------------------------------------
# orbit / event of a single pattern
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8))
def test_orbit_is_permutation_invariant(counts):
    # A shot and its sorted copy both land, in full, in the orbit of its
    # nonzero counts.
    orbit = tuple(sorted((c for c in counts if c), reverse=True))
    fv = features.fv_orbits_from_samples(make_samples([counts, sorted(counts)]), [orbit])
    assert fv.values.tolist() == [1.0]


_ORBIT_EXAMPLES = [
    (), (1,), (1, 1, 1), (2, 1, 1), (2, 2, 1, 1), (1,) * 8, (8, 7, 6, 5, 4, 3, 2, 1)]


# The examples, then every other orbit of total at most 10 (136 in all) and
# one with parts near the int64 range.
@pytest.mark.parametrize("orbit", _ORBIT_EXAMPLES + [
    o for total in range(11) for o in partitions(total, total)
    if o not in _ORBIT_EXAMPLES] + [(10 ** 18, 5)])
def test_orbit_patterns_match_permutation_oracle(orbit):
    got = features.orbit_patterns(orbit)
    want = orbit_patterns_oracle(orbit)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_orbit_members_are_cached_read_only_and_orbit_patterns_stays_fresh(
        specs_by_code):
    spec, orbits = specs_by_code["1111111111"], [(2, 1, 1), (1, 1, 1), (2, 1, 1)]
    want = features.fv_orbits_analytic(spec, orbits, LossModel(0.55)).values
    assert want[0] == want[2]
    cached = features._members((2, 1, 1))
    assert cached is features._members((2, 1, 1))
    assert features._members.cache_info().maxsize == 8
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 5
    features._members.cache_clear()
    fresh = features.orbit_patterns((2, 1, 1))
    assert fresh is not features.orbit_patterns((2, 1, 1))
    assert fresh.flags.writeable and np.array_equal(fresh, cached)
    fresh[:] = 0
    got = features.fv_orbits_analytic(spec, orbits, LossModel(0.55)).values
    assert got.tobytes() == want.tobytes()
    for bad, message in [((1, 2), "nonincreasing"), ((0,), "positive"),
                         ((1,) * 9, "more than 8 parts")]:
        with pytest.raises(ValidationError, match=message):
            features.fv_orbits_analytic(spec, [(1, 1), bad])


def test_orbit_pattern_enumeration():
    pats = features.orbit_patterns((1, 1, 1))
    assert len(pats) == math.comb(8, 3)
    pats = features.orbit_patterns((2, 1, 1))
    assert len(pats) == 8 * math.comb(7, 2)
    assert (pats.sum(axis=1) == 4).all()
    with pytest.raises(ValidationError):
        features.validate_orbit((1, 2))
    with pytest.raises(ValidationError):
        features.validate_orbit((0,))


# ---------------------------------------------------------------------------
# sampled feature vectors
# ---------------------------------------------------------------------------

def test_fv_events_counts_fractions():
    samples = make_samples([[0, 0, 1, 0, 0, 0, 1, 0]] * 4)
    fv = features.fv_events_from_samples(samples, [2, 4, 6, 8], 8)
    assert fv.values.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert fv.provenance == "sampled"
    assert fv.loss_eta == 1.0


def test_fv_events_respects_cap():
    samples = make_samples([[2, 0, 0, 0, 2, 0, 0, 0],
                            [1, 1, 0, 0, 1, 1, 0, 0]])
    fv = features.fv_events_from_samples(samples, [4], n_max=1)
    assert fv.values.tolist() == [0.5]


def test_fv_events_reject_negative_totals(specs_by_code):
    samples = make_samples([[0, 0, 1, 0, 0, 0, 1, 0]])
    with pytest.raises(ValidationError, match="event totals must be nonnegative"):
        features.fv_events_from_samples(samples, [-2, 2])
    with pytest.raises(ValidationError, match="event totals must be nonnegative"):
        features.fv_events_analytic(specs_by_code["1111111111"], [-2, 2])


def test_fv_rejects_empty_sets():
    empty = SampleSet.of(shots=np.zeros((0, 8), dtype=np.int64),
                         meta=SampleMeta(source="simulated"))
    with pytest.raises(ValidationError):
        features.fv_events_from_samples(empty, [2], 8)
    with pytest.raises(ValidationError):
        features.fv_orbits_from_samples(empty, [(1, 1)])


def test_lossless_samples_have_no_odd_events(specs_by_code):
    out = engine.sample(specs_by_code["1111111111"], 20_000, seed=50)
    fv = features.fv_events_from_samples(out, [1, 3, 5, 7], 8)
    assert not fv.values.any()
    orbit_fv = features.fv_orbits_from_samples(out, [(1, 1, 1)])
    assert orbit_fv.values[0] == 0.0


def test_fv_orbits_zero_on_vacuum_shots():
    samples = make_samples([[0] * 8] * 5)
    fv = features.fv_orbits_from_samples(samples, [(1, 1), (2, 1, 1)])
    assert fv.values.tolist() == [0.0, 0.0]


_HISTOGRAM_ORBITS = list(features.DEFAULT_ORBITS) + [
    (), (1,), (2,), (1, 1), (3, 2, 1), (2, 2, 1, 1), (1,) * 8, (300,), (300, 1)]


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _assert_vectors_match_per_shot_oracle(samples):
    events = list(range(13)) + [300, 301, 10 ** 30]
    for n_max in (1, 2, 8, 300):
        got = features.fv_events_from_samples(samples, events, n_max)
        want = fv_events_per_shot(samples, events, n_max)
        assert np.array_equal(_bits(got.values), _bits(want)), n_max
    got = features.fv_orbits_from_samples(samples, _HISTOGRAM_ORBITS)
    assert np.array_equal(_bits(got.values),
                          _bits(fv_orbits_per_shot(samples, _HISTOGRAM_ORBITS)))


def test_sampled_vectors_match_per_shot_oracle_bit_for_bit(embeddable, tmp_path):
    # All 75 graphs, each set as drawn, rebuilt from its shots, and ingested
    # from the file written from it.
    for i, (code, spec) in enumerate(embeddable):
        drawn = engine.apply_loss(engine.sample(spec, 1_500, seed=2 * i),
                                  LossModel(0.55), seed=2 * i + 1)
        fresh = SampleSet.of(shots=drawn.shots, meta=drawn.meta)
        path = tmp_path / f"{code}.samples"
        engine.write_samples(drawn, path)
        for samples in (fresh, drawn, engine.ingest_samples(path)):
            _assert_vectors_match_per_shot_oracle(samples)
            assert_histogram_of(samples)


@pytest.mark.parametrize("big", [0, 300])
def test_histogram_merges_spellings_of_one_pattern(tmp_path, big):
    # Two spellings of one pattern are two distinct lines but one row, with
    # counts below 256 (uint8 rows) or not (int64 rows).
    path = tmp_path / "x.samples"
    path.write_bytes(
        b"[%d,0,0,0,1,0,0,0]\n[ %d, 0,0,0,1,0,0,0 ]\n# h\n" % (big, big)
        + b"[1,0,0,0,1,0,0,0]\n[1,0,0,0,1,0,0,0]\r\n\n[1, 0,0,0,1,0,0,0]\n"
        + b"[0,0,0,0,0,0,0,0]\n[1,0,0,0,1,0,0,0]\n")
    samples = engine.ingest_samples(path)
    rows, counts = samples.histogram
    assert_histogram_of(samples)
    assert rows.dtype == (np.uint8 if big < 256 else np.int64)
    assert counts.tolist() == ([1, 2, 4] if big == 0 else [1, 4, 2])
    _assert_vectors_match_per_shot_oracle(samples)


def _built_set(how, spec, tmp_path, unique_rows_calls):
    # A set made by ``how`` and the int64 shots it was made from.
    drawn = engine.sample(spec, 2_000, seed=54)
    if how == "sample":
        return drawn, unique_rows_calls[-1][0]
    if how == "apply_loss":
        stream = np.random.SeedSequence(55)
        want = np.random.default_rng(stream).binomial(drawn.shots, 0.55)
        return engine.apply_loss(drawn, LossModel(0.55), stream), want
    if how == "to_threshold":
        return engine.to_threshold(drawn), np.minimum(drawn.shots, 1)
    want = drawn.shots
    want[::7, 0] = 300                  # int64 histogram rows
    if how == "ingest_samples":
        path = tmp_path / "x.samples"
        path.write_text(sample_file_text(want))
        return engine.ingest_samples(path), want
    return SampleSet.of(shots=want.copy(), meta=drawn.meta), want


@pytest.mark.parametrize("how", ["sample", "apply_loss", "to_threshold",
                                 "ingest_samples", "SampleSet.of"])
def test_every_set_is_its_histogram_and_row_numbers(
        tmp_path, specs_by_code, count_calls, how):
    calls = count_calls(engine, "_unique_rows")
    samples, want = _built_set(how, specs_by_code["1111111111"], tmp_path, calls)
    distinct, counts = samples.histogram
    assert not (distinct.flags.writeable or counts.flags.writeable
                or samples.rows.flags.writeable)
    assert samples.rows.dtype == engine._row_dtype(len(distinct))
    for name in ("histogram", "rows", "meta", "shots", "other"):
        with pytest.raises(AttributeError):
            setattr(samples, name, None)
    shots = samples.shots
    assert shots.dtype == np.int64 and np.array_equal(shots, want)
    assert len(samples) == len(want)
    assert_histogram_of(samples)
    made = len(calls)
    engine.write_samples(samples, tmp_path / "y.samples")
    assert len(calls) == made


def test_writing_into_shots_leaves_the_set_unchanged(specs_by_code):
    drawn = engine.sample(specs_by_code["1111111111"], 500, seed=56)
    given = drawn.shots
    built = SampleSet.of(shots=given, meta=drawn.meta)
    for samples, source in ((drawn, drawn.shots), (built, given)):
        want = samples.shots.copy()
        samples.shots[0, 0] = 99
        source[0, 0] = 99
        assert np.array_equal(samples.shots, want)
        assert_histogram_of(samples)


def test_sampled_events_match_analytic_within_4_sigma(specs_by_code):
    shots = 50_000
    out = engine.sample(specs_by_code["1111111111"], shots, seed=51)
    fv = features.fv_events_from_samples(out, [2, 4], 8)
    analytic = features.fv_events_analytic(specs_by_code["1111111111"], [2, 4], 8)
    for got, expect in zip(fv.values, analytic.values):
        se = math.sqrt(expect * (1 - expect) / shots)
        assert abs(got - expect) < 4 * se


def test_sampled_lossy_orbits_match_analytic_within_4_sigma(specs_by_code):
    spec = specs_by_code["1111111111"]
    shots = 50_000
    eta = 0.5
    out = engine.apply_loss(engine.sample(spec, shots, seed=52),
                            LossModel(eta), seed=53)
    orbits = [(1, 1, 1), (2, 1, 1)]
    fv = features.fv_orbits_from_samples(out, orbits)
    analytic = features.fv_orbits_analytic(spec, orbits, LossModel(eta))
    for got, expect in zip(fv.values, analytic.values):
        se = math.sqrt(expect * (1 - expect) / shots)
        assert abs(got - expect) < 4 * se
        assert got > 0.0


# ---------------------------------------------------------------------------
# analytic feature vectors
# ---------------------------------------------------------------------------

def test_analytic_events_lossless_closed_form(specs_by_code):
    fv = features.fv_events_analytic(specs_by_code["0000000100"], [2, 3, 4], 8)
    assert fv.values[0] == pytest.approx(SECH2 * TANH2, abs=1e-12)
    assert fv.values[1] == 0.0
    assert fv.values[2] == pytest.approx(SECH2 * TANH2 ** 2, abs=1e-12)
    assert fv.tail_bound.tolist() == [0.0, 0.0, 0.0]


def test_analytic_events_match_table_sums(specs_by_code):
    spec = specs_by_code["0110000000"]
    table = engine.build_table(spec, 9)
    fv = features.fv_events_analytic(spec, [0, 2, 4, 6], 8)
    for k, value in zip([0, 2, 4, 6], fv.values):
        assert value == pytest.approx(slice_mass(table, k // 2), rel=1e-12)


def test_analytic_events_full_loss_is_vacuum_indicator(specs_by_code):
    # The vacuum component reaches 1 up to the reported series tail;
    # every other component vanishes exactly.
    fv = features.fv_events_analytic(specs_by_code["1111111111"], [0, 1, 2], 8,
                                     LossModel(0.0))
    assert abs(fv.values[0] - 1.0) <= fv.tail_bound[0] + 1e-15
    assert fv.tail_bound[0] < 1e-39
    assert fv.values[1] == 0.0
    assert fv.values[2] == 0.0


def test_analytic_events_continuous_in_eta(specs_by_code):
    spec = specs_by_code["1111111111"]
    grid = np.linspace(0.0, 1.0, 21)
    values = [features.fv_events_analytic(spec, [2], 8, LossModel(e)).values[0]
              for e in grid]
    steps = np.abs(np.diff(values))
    assert steps.max() < 0.05


def test_analytic_event_sum_rule(specs_by_code):
    for code in ("0000000100", "0110000000"):
        spec = specs_by_code[code]
        cutoff = 8
        fv = features.fv_events_analytic(spec, list(range(0, 2 * cutoff + 1)),
                                         n_max=2 * cutoff)
        covered = 1.0 - engine.total_photon_tail(spec.rank, cutoff)
        assert math.fsum(fv.values) == pytest.approx(covered, abs=1e-9)
        lossy = features.fv_events_analytic(spec, range(400), n_max=400,
                                            loss=LossModel(0.6))
        assert math.fsum(lossy.values) == pytest.approx(1.0, abs=1e-14)


def _thinned_table_sums(table, eta, key):
    # Brute force over the truncated table: thin each ideal pattern per mode
    # and add its detected outcomes under key(detected), skipping None.
    want = {}
    for pattern, prob in zip(table.patterns, table.probs):
        for detected in itertools.product(*[range(int(t) + 1) for t in pattern]):
            label = key(detected)
            if label is None:
                continue
            w = prob
            for t, k in zip(pattern, detected):
                w *= math.comb(int(t), k) * eta ** k * (1 - eta) ** (int(t) - k)
            want[label] = want.get(label, 0.0) + w
    return want


def test_analytic_events_with_binding_cap_match_brute_force(specs_by_code):
    # The truncated brute force falls short of the exact value by at most the
    # table's tail.
    spec = specs_by_code["1111111111"]
    cutoff, eta, n_max = 3, 0.7, 1
    table = engine.build_table(spec, cutoff)
    want = _thinned_table_sums(
        table, eta, lambda p: sum(p) if max(p) <= n_max and sum(p) in (2, 3) else None)
    fv = features.fv_events_analytic(spec, [2, 3], n_max, LossModel(eta))
    tail = engine.total_photon_tail(spec.rank, cutoff)
    for k, value in zip((2, 3), fv.values):
        assert want[k] - 1e-15 <= value <= want[k] + tail


@pytest.mark.parametrize("code", ["1111111111", "0110000000", "1011000111",
                                  "0100000101", "0011011000"])
def test_capped_events_equal_member_pattern_sums(code, specs_by_code):
    spec = specs_by_code[code]
    for eta, n_max in ((1.0, 1), (0.55, 1), (0.8, 2), (0.3, 3)):
        events = [k for k in range(n_max + 1, 9)]
        fv = features.fv_events_analytic(spec, events, n_max, LossModel(eta))
        for k, value in zip(events, fv.values):
            members = np.array([p for p in itertools.product(range(n_max + 1), repeat=8)
                                if sum(p) == k], dtype=np.int64)
            want = engine.detected_probabilities(spec, members, eta).sum()
            assert value == pytest.approx(want, rel=1e-12, abs=1e-16), (eta, n_max, k)


def test_analytic_events_beyond_any_cutoff_are_exact(specs_by_code):
    spec = specs_by_code["0000000100"]
    fv = features.fv_events_analytic(spec, [18, 10 ** 6], 10 ** 6)
    assert fv.values[0] == pytest.approx(SECH2 * TANH2 ** 9, rel=1e-12)
    assert fv.values[1] == 0.0
    capped = features.fv_events_analytic(spec, [18, 10 ** 6], 9, LossModel(0.5))
    assert capped.values[0] == pytest.approx(
        engine.detected_probabilities(spec, [(0, 0, 9, 0, 0, 0, 9, 0)], 0.5)[0],
        rel=1e-12)
    assert capped.values[1] == 0.0


def test_analytic_orbits_lossless(specs_by_code):
    spec = specs_by_code["0000000100"]
    fv = features.fv_orbits_analytic(spec, [(1, 1), (1, 1, 1), ()])
    assert fv.values[0] == pytest.approx(SECH2 * TANH2, abs=1e-12)
    assert fv.values[1] == 0.0
    assert fv.values[2] == pytest.approx(SECH2, abs=1e-12)
    empty = features.fv_orbits_analytic(spec, [])
    assert empty.labels == () and empty.values.shape == (0,)


@pytest.mark.parametrize("eta", [1.0, 0.55])
def test_analytic_orbits_are_one_law_call_equal_to_per_orbit_calls(
        specs_by_code, count_calls, eta):
    calls = count_calls(engine, "detected_probabilities")
    for code in CLASS_REPRESENTATIVES.values():
        spec = specs_by_code[code]
        calls.clear()
        fv = features.fv_orbits_analytic(spec, features.DEFAULT_ORBITS, LossModel(eta))
        assert len(calls) == 1
        want = [float(engine.detected_probabilities(
                    spec, features.orbit_patterns(o), eta).sum())
                for o in features.DEFAULT_ORBITS]
        assert fv.values.tolist() == want, code


def test_analytic_orbits_lossy_match_brute_force(specs_by_code):
    spec = specs_by_code["0110000000"]
    cutoff, eta = 4, 0.6
    table = engine.build_table(spec, cutoff)
    orbits = [(1, 1), (1, 1, 1), (2, 1, 1), ()]
    want = _thinned_table_sums(
        table, eta, lambda p: tuple(sorted((k for k in p if k), reverse=True)))
    fv = features.fv_orbits_analytic(spec, orbits, LossModel(eta))
    tail = engine.total_photon_tail(spec.rank, cutoff)
    for orbit, value in zip(orbits, fv.values):
        assert want[orbit] - 1e-15 <= value <= want[orbit] + tail
    assert (fv.tail_bound < 1e-39).all()


def test_class_members_share_analytic_fvs(specs_by_code):
    # spot check; the full ten-class sweep lives in the acceptance suite
    a = features.fv_orbits_analytic(specs_by_code["0110000000"],
                                    features.DEFAULT_ORBITS, LossModel(0.5))
    b = features.fv_orbits_analytic(specs_by_code["0011000000"],
                                    features.DEFAULT_ORBITS, LossModel(0.5))
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("code", ["0000000100", "0010000000", "1100100000",
                                  "0110000000", "0000001100", "1011000111",
                                  "0111000000", "0100000101", "0011011000",
                                  "1111111111"])
def test_closed_form_events_match_table_sums_per_category(code, specs_by_code):
    # One representative per class: the closed form depends only on the rank,
    # the table sum on the full matrix; they must agree.
    spec = specs_by_code[code]
    table = engine.build_table(spec, 8)
    fv = features.fv_events_analytic(spec, [2, 4, 6, 8], 8)
    for k, value in zip([2, 4, 6, 8], fv.values):
        assert value == pytest.approx(slice_mass(table, k // 2), rel=1e-10)


@given(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=8, max_size=8), min_size=1, max_size=40),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40)
def test_event_frequency_equals_orbit_sum(rows, k):
    samples = make_samples(rows)
    n_max = 3
    event_fv = features.fv_events_from_samples(samples, [k], n_max)
    orbit_list = [p for p in partitions(k, n_max)]
    orbit_fv = features.fv_orbits_from_samples(samples, orbit_list)
    assert event_fv.values[0] == pytest.approx(orbit_fv.values.sum(), abs=1e-12)


def test_sampling_error_shrinks_within_binomial_envelope(specs_by_code):
    spec = specs_by_code["0000000100"]
    analytic = features.fv_events_analytic(spec, [2, 4, 6], 8).values
    for shots, seed in ((1_000, 60), (10_000, 61), (100_000, 62)):
        out = engine.sample(spec, shots, seed=seed)
        fv = features.fv_events_from_samples(out, [2, 4, 6], 8)
        envelope = 4 * np.sqrt(analytic * (1 - analytic) / shots)
        assert (np.abs(fv.values - analytic) <= envelope).all(), shots


# ---------------------------------------------------------------------------
# deviation curves and loss matching
# ---------------------------------------------------------------------------

def _synthetic_sampled(spec, values, n_max=8):
    return features.FeatureVector(
        labels=tuple(features.EventSpec(k, n_max) for k in (2, 4, 6, 8)),
        values=np.asarray(values, dtype=float),
        provenance="sampled",
        loss_eta=1.0)


def test_self_deviation_is_zero(specs_by_code):
    spec = specs_by_code["1111111111"]
    analytic = features.fv_events_analytic(spec, [2, 4, 6, 8], 8)
    sampled = _synthetic_sampled(spec, analytic.values)
    curve = features.relative_deviation(sampled, spec, [1.0])
    assert curve.loss_factors.tolist() == [0.0]
    assert not np.isnan(curve.deviations).any()
    assert np.abs(curve.deviations).max() == 0.0


def test_deviation_marks_odd_components_undefined(specs_by_code):
    spec = specs_by_code["1111111111"]
    sampled = features.FeatureVector(
        labels=(features.EventSpec(2, 8), features.EventSpec(3, 8)),
        values=np.array([0.2, 0.001]),
        provenance="sampled", loss_eta=1.0)
    curve = features.relative_deviation(sampled, spec, [1.0, 0.5])
    # eta = 1: odd event impossible, deviation undefined
    row_lossless = list(curve.loss_factors).index(0.0)
    assert np.isnan(curve.deviations[row_lossless, 1])
    row_lossy = list(curve.loss_factors).index(0.5)
    assert not np.isnan(curve.deviations[row_lossy, 1])


def test_deviation_requires_sampled_event_vector(specs_by_code):
    spec = specs_by_code["1111111111"]
    analytic = features.fv_events_analytic(spec, [2], 8)
    with pytest.raises(ValidationError):
        features.relative_deviation(analytic, spec, [1.0])


def test_match_loss_zero_for_lossless_selfmatch(specs_by_code):
    spec = specs_by_code["1111111111"]
    analytic = features.fv_events_analytic(spec, [2, 4, 6, 8], 8)
    sampled = _synthetic_sampled(spec, analytic.values)
    for i in range(4):
        matched = features.match_loss(sampled, spec, i)
        assert matched is not None
        assert abs(matched) < 1e-3


@pytest.mark.parametrize("n_max", [8, 1])
def test_deviation_rows_evaluate_the_grid_once(specs_by_code, monkeypatch, n_max):
    # One law call for the whole grid, then, for each component that
    # bisects, one open-cap call of the 127 midpoints that 7 halvings of 0.01
    # can visit, or one binding-cap call per halving; the odd total 3 never
    # changes sign.  The matches equal match_loss's own.
    spec = specs_by_code["1111111111"]
    samples = engine.apply_loss(engine.sample(spec, 3000, seed=40),
                                LossModel(0.55), seed=41)
    events = [2, 3, 4, 6]
    sampled = features.fv_events_from_samples(samples, events, n_max)
    alone = [features.match_loss(sampled, spec, i) for i in range(4)]
    calls = []
    for name in ("detected_total_probabilities", "capped_event_probabilities"):
        def counted(*args, law=getattr(engine, name)):
            calls.append(len(args[-1]))
            return law(*args)
        monkeypatch.setattr(engine, name, counted)
    curve, matches = figures.deviation_rows(samples, spec, events, n_max, step=0.01)
    assert curve.deviations.shape == (101, 4)
    assert calls == ([101, 127, 127, 127] if n_max == 8 else [101] + [1] * 3 * 7)
    assert len(calls) - 1 <= 4 * 7      # bisection halves 0.01 to MATCH_TOL
    assert list(matches.values()) == alone


@pytest.mark.parametrize("step,batches,halvings", [
    (0.01, [127], 7), (0.05, [127, 3], 9), (1.0, [127, 127], 14)])
def test_matches_equal_the_one_call_per_halving_oracle(
        specs_by_code, count_calls, step, batches, halvings):
    # An open cap (n_max 8) evaluates its midpoints in batches of up to 7
    # halvings: 0.05 takes 9 halvings, 127 + 3 midpoints, and 1 takes 14, so
    # two full batches.  A binding cap (n_max 1) takes one call per halving.
    # Both match the oracle's bisection bit for bit.
    spec = specs_by_code["1111111111"]
    samples = engine.apply_loss(engine.sample(spec, 3000, seed=40),
                                LossModel(0.55), seed=41)
    events, grid = [2, 3, 4, 6], features.loss_factor_grid(step)
    for n_max, law in ((8, "detected_total_probabilities"),
                       (1, "capped_event_probabilities")):
        sampled = features.fv_events_from_samples(samples, events, n_max)
        theory = features._event_law(spec, events, n_max, 1.0 - grid)
        want = [match_on_grid_per_halving(sampled, spec, i, grid, theory[:, i])
                for i in range(4)]
        assert [m is None for m in want] == [False, True, False, False]
        calls = count_calls(engine, law)
        _, matches = figures.deviation_rows(samples, spec, events, n_max, step)
        sizes = [len(args[-1]) for args in calls]
        assert sizes == [len(grid)] + 3 * (batches if n_max == 8 else [1] * halvings)
        assert list(matches.values()) == want, n_max
        assert [features.match_loss(sampled, spec, i, step) for i in range(4)] == want


def test_match_loss_recovers_thinning_level(specs_by_code):
    spec = specs_by_code["1111111111"]
    eta = 0.6
    out = engine.apply_loss(engine.sample(spec, 100_000, seed=70),
                            LossModel(eta), seed=71)
    sampled = features.fv_events_from_samples(out, [2, 4, 6, 8], 8)
    matched = features.match_loss(sampled, spec, 0)
    assert matched == pytest.approx(0.40, abs=0.02)


def test_match_loss_none_without_sign_change(specs_by_code):
    spec = specs_by_code["1111111111"]
    sampled = _synthetic_sampled(spec, [0.9, 0.9, 0.9, 0.9])
    assert features.match_loss(sampled, spec, 0) is None


def test_analytic_event_probability_monotone_in_loss_factor(specs_by_code):
    spec = specs_by_code["1111111111"]
    grid = np.linspace(0.0, 1.0, 51)
    for k in (2, 4, 6, 8):
        vals = [features.fv_events_analytic(spec, [k], 8,
                                            LossModel(1.0 - lf)).values[0]
                for lf in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:])), k


def test_match_loss_validates_index(specs_by_code):
    spec = specs_by_code["1111111111"]
    sampled = _synthetic_sampled(spec, [0.1, 0.1, 0.1, 0.1])
    with pytest.raises(ValidationError):
        features.match_loss(sampled, spec, 9)


def test_loss_factor_grid_keeps_the_default_grid_and_ends_at_one():
    assert (features.loss_factor_grid(0.01).tobytes()
            == np.arange(0.0, 1.0 + 0.01 / 2, 0.01).tobytes())
    for step in (0.006, 0.007, 0.035):
        grid = features.loss_factor_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0, step
        assert (np.diff(grid) > 0).all(), step
    assert len(features.loss_factor_grid(features.MATCH_TOL)) == 10_001


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf, 5e-5, 1.5])
def test_loss_factor_grid_rejects_steps_outside_range(step):
    with pytest.raises(ValidationError):
        features.loss_factor_grid(step)
