import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import embedding, graphs
from gbsgraphs.errors import NotEmbeddableError, ValidationError
from oracles import blocks as blocks_oracle
from oracles import embeddability_check_per_code

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

codes_st = st.text(alphabet="01", min_size=10, max_size=10)


# ---------------------------------------------------------------------------
# embeddability
# ---------------------------------------------------------------------------

def test_all_ones_matrix_is_rank_one():
    emb = embedding.embeddability_check(np.ones((4, 4)))
    assert emb.embeddable and emb.rank == 1
    assert emb.singular_values == (4.0, 0.0, 0.0, 0.0)


def test_golden_ratio_eigenvalues():
    emb = embedding.embeddability_check(graphs.decode_code("1100000000"))
    assert np.allclose(emb.singular_values, [GOLDEN, GOLDEN - 1.0, 0.0, 0.0],
                       atol=1e-10)


def test_non_symmetric_input_rejected():
    m = np.zeros((4, 4), dtype=int)
    m[0, 1] = 1
    with pytest.raises(ValidationError):
        embedding.embeddability_check(m)


def _eigvalsh_oracle(m):
    """(embeddable, rank, sigma) from float eigenvalues and a tolerance."""
    sv = np.abs(np.linalg.eigvalsh(m.astype(float)))
    nonzero = sv[sv > 1e-9]
    if len(nonzero) == 0 or nonzero.max() - nonzero.min() > 1e-9:
        return False, 0, None
    return True, len(nonzero), float(nonzero.mean())


def test_exact_test_agrees_with_eigvalsh_oracle_on_all_codes():
    for code in map(graphs.code_of, range(1024)):
        m = graphs.decode_code(code)
        emb = embedding.embeddability_check(m)
        ok, rank, sigma = _eigvalsh_oracle(m)
        assert emb.embeddable == ok, code
        if ok:
            assert emb.rank == rank, code
            assert emb.singular_values[0] == pytest.approx(sigma, rel=1e-12), code


def test_complete_bipartite_is_rank_one():
    emb = embedding.embeddability_check(graphs.decode_code("1111111111"))
    assert emb.embeddable and emb.rank == 1
    assert emb.singular_values[0] == pytest.approx(4.0, abs=1e-10)


def test_double_path_is_rank_two():
    emb = embedding.embeddability_check(graphs.decode_code("0110000000"))
    assert emb.embeddable and emb.rank == 2
    assert emb.singular_values == (math.sqrt(2), math.sqrt(2), 0.0, 0.0)


def test_golden_ratio_graph_rejected():
    emb = embedding.embeddability_check(graphs.decode_code("1100000000"))
    assert not emb.embeddable
    assert "unequal" in emb.reason
    assert "1.618034" in emb.reason


def test_zero_matrix_rejected():
    emb = embedding.embeddability_check(graphs.decode_code("0000000000"))
    assert not emb.embeddable
    assert emb.reason == "no edges"


@given(codes_st, st.permutations([0, 1, 2, 3]))
@settings(max_examples=40)
def test_embeddability_invariant_under_permutation(code, perm):
    m = graphs.decode_code(code)
    permuted = m[np.ix_(perm, perm)]
    a = embedding.embeddability_check(m)
    b = embedding.embeddability_check(permuted)
    assert a.embeddable == b.embeddable
    assert a.rank == b.rank


def test_walk_agrees_with_per_code_check_and_classifier_on_all_codes():
    walked = embedding.walk_codes(include_all=True)
    assert [r.code for r in walked] == [graphs.code_of(n) for n in range(1024)]
    for rec in walked:
        m = graphs.decode_code(rec.code)
        emb = embedding.embeddability_check(m)
        assert emb == embeddability_check_per_code(m), rec.code
        assert rec.embeddable == emb.embeddable, rec.code
        assert rec.reason == emb.reason, rec.code
        if emb.embeddable:
            assert (rec.rank, rec.m, rec.singular_value) == (
                emb.rank, emb.rank * embedding.MEAN_PHOTON_SINGLE,
                emb.singular_values[0]), rec.code
        else:
            assert rec.rank is rec.m is rec.singular_value is None, rec.code
        assert rec.iso_class == graphs.classify(graphs.adjacency_for(rec.code)), rec.code
        assert (rec.iso_class == graphs.OTHER) != rec.embeddable, rec.code
    assert embedding.walk_codes() == [r for r in walked if r.embeddable]


def test_block_label_on_class_and_other_shapes():
    for rank, a, b, label in [(1, 1, 1, "1K2"), (4, 1, 1, "4K2"),
                              (2, 1, 2, "2P3"), (2, 2, 1, "2P3"),
                              (2, 3, 1, "2S3"), (1, 2, 2, "1C4"),
                              (1, 3, 3, "1K33"), (1, 4, 4, "1K44"),
                              (1, 1, 2, graphs.OTHER), (2, 4, 4, graphs.OTHER),
                              (1, 2, 3, graphs.OTHER)]:
        assert graphs.block_label(rank, a, b) == label, (rank, a, b)


# ---------------------------------------------------------------------------
# embedding specs
# ---------------------------------------------------------------------------

def test_enumerate_finds_75(embeddable):
    assert len(embeddable) == 75
    codes = [c for c, _ in embeddable]
    assert codes == sorted(codes)
    assert "0000000000" not in codes


def test_enumerate_matches_per_code_make_embedding(embeddable):
    for code, spec in embeddable:
        want = embedding.make_embedding(code)
        assert spec.code == code
        assert (spec.blocks, spec.rank) == (want.blocks, want.rank), code
        assert spec.scale_c == want.scale_c, code
        assert np.array_equal(spec.scaled_matrix, want.scaled_matrix), code
        assert spec.scaled_matrix.dtype == want.scaled_matrix.dtype


def test_rank_one_codes_are_the_fifteen_single_structures(embeddable):
    rank1 = [c for c, spec in embeddable if spec.rank == 1]
    labels = {graphs.classify(graphs.adjacency_for(c)) for c in rank1}
    assert len(rank1) == 15
    assert labels == {"1K2", "1C4", "1K33", "1K44"}


def test_category_rank_map(embeddable):
    expected = {"1K2": 1, "1C4": 1, "1K33": 1, "1K44": 1,
                "2K2": 2, "2P3": 2, "2S3": 2, "2C4": 2,
                "3K2": 3, "4K2": 4}
    for code, spec in embeddable:
        label = graphs.classify(graphs.adjacency_for(code))
        assert spec.rank == expected[label], code


def test_make_embedding_examples():
    spec = embedding.make_embedding("1111111111")
    assert spec.scale_c == pytest.approx(math.tanh(1.0) / 4.0, rel=1e-14)
    assert spec.rank == 1
    assert spec.mean_photon_per_mode == pytest.approx(0.34527446138545, abs=1e-12)

    spec = embedding.make_embedding("0110000000")
    assert spec.scale_c == pytest.approx(math.tanh(1.0) / math.sqrt(2), rel=1e-14)
    assert spec.mean_photon_per_mode == pytest.approx(2 * 0.34527446138545, abs=1e-11)

    spec = embedding.make_embedding("0000000100")
    assert spec.scale_c == pytest.approx(math.tanh(1.0), rel=1e-14)
    assert spec.squeezing == (1.0,)


def test_blocks_equal_component_traversal_oracle(embeddable):
    for code, spec in embeddable:
        assert spec.blocks == blocks_oracle(code), code
        assert len(spec.blocks) == spec.rank, code
        for sig, idl in spec.blocks:
            assert len(sig) * len(idl) == pytest.approx(
                spec.singular_values[0] ** 2, rel=1e-12), code


def test_make_embedding_rejects_with_reason():
    with pytest.raises(NotEmbeddableError) as err:
        embedding.make_embedding("1100000000")
    assert "unequal" in str(err.value)


def test_scaled_singular_values_hit_tanh_one(embeddable):
    for code, spec in embeddable:
        eigenvalues = np.linalg.eigvalsh(spec.scaled_matrix)
        nonzero = [abs(x) for x in eigenvalues if abs(x) > 1e-9]
        assert len(nonzero) == spec.rank
        for sv in nonzero:
            assert abs(sv - math.tanh(1.0)) < 1e-9, code


def test_mean_photon_constant_matches_sinh_form():
    assert embedding.MEAN_PHOTON_SINGLE == pytest.approx(
        math.sinh(1.0) ** 2 / 4.0, rel=0, abs=0)
