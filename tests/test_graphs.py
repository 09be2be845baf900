import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsgraphs import graphs
from gbsgraphs.errors import ValidationError
from oracles import canonical_form, is_isomorphic

codes_st = st.text(alphabet="01", min_size=10, max_size=10)


# ---------------------------------------------------------------------------
# decode / encode
# ---------------------------------------------------------------------------

def test_decode_all_zero():
    assert not graphs.decode_code("0000000000").any()


def test_decode_single_digit_lands_at_2_2():
    m = graphs.decode_code("0000000100")
    expected = np.zeros((4, 4), dtype=int)
    expected[2, 2] = 1
    assert (m == expected).all()


def test_decode_layout_row_then_inner_triangle():
    m = graphs.decode_code("1100100000")
    assert m.tolist() == [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("bad", ["", "011", "01234567891", "010101010", "010101010x",
                                 "0101010102"])
def test_malformed_codes_rejected(bad):
    with pytest.raises(ValidationError):
        graphs.decode_code(bad)


def test_non_string_code_rejected():
    with pytest.raises(ValidationError):
        graphs.decode_code(1100100000)


@given(codes_st)
def test_encode_decode_roundtrip(code):
    assert graphs.encode_matrix(graphs.decode_code(code)) == code


@given(codes_st)
def test_decoded_matrix_is_valid(code):
    m = graphs.decode_code(code)
    assert (m == m.T).all()
    assert set(np.unique(m)) <= {0, 1}


def test_all_codes_are_1024_ascending():
    codes = list(graphs.all_codes())
    assert len(codes) == 1024
    assert codes == sorted(codes)
    assert codes[0] == "0000000000" and codes[-1] == "1111111111"


def test_candidate_matrices_are_the_decoded_codes():
    stack = graphs.candidate_matrices()
    codes = list(graphs.all_codes())
    assert stack.shape == (1024, 4, 4) and stack.dtype == np.int64
    assert [graphs.code_of(n) for n in range(1024)] == codes
    for m, code in zip(stack, codes):
        assert np.array_equal(m, graphs.decode_code(code)), code


def _entries_are_0_or_1_isin(m) -> bool:
    """The entry check as it was written before its fast path."""
    return bool(np.isin(m, (0, 1)).all())


ENTRY_CASES = {
    "bool": np.eye(4, dtype=bool),
    "float": np.eye(4),
    "float-half": np.eye(4) * 0.5,
    "float-nan": np.full((4, 4), np.nan),
    "complex": np.eye(4, dtype=complex),
    "complex-imaginary": np.eye(4) * 1j,
    "str": np.array([["0", "1", "0", "0"]] * 4),
    "bytes": np.array([[b"0", b"1", b"0", b"0"]] * 4),
    "object-int": np.eye(4, dtype=int).astype(object),
    "object-bool": np.full((4, 4), True, dtype=object),
    "object-none": np.full((4, 4), None, dtype=object),
    "object-str": np.full((4, 4), "1", dtype=object),
    "object-float": np.full((4, 4), 1.0, dtype=object),
    "int-two": np.full((4, 4), 2),
    "int-negative": np.full((4, 4), -1, dtype=np.int8),
    "timedelta": np.zeros((4, 4), dtype="timedelta64[s]"),
}


# Accepted complex entries are cast to int64, which warns as it did before.
@pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("name", list(ENTRY_CASES))
def test_entry_check_accepts_and_rejects_as_before(name):
    m = ENTRY_CASES[name]
    accepted = _entries_are_0_or_1_isin(m)
    if accepted:
        assert np.array_equal(graphs.validate_submatrix(m), m.astype(np.int64))
    else:
        with pytest.raises(ValidationError, match="entries must be 0 or 1"):
            graphs.validate_submatrix(m)
    a = np.zeros((8, 8), dtype=m.dtype)
    a[:4, 4:] = m
    a[4:, :4] = m.T
    if _entries_are_0_or_1_isin(a):
        assert (graphs.connected_components(a)
                == graphs.connected_components(a.astype(np.int64)))
    else:
        with pytest.raises(ValidationError, match="entries must be 0 or 1"):
            graphs.connected_components(a)


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------

def test_adjacency_zero():
    assert not graphs.adjacency_for("0000000000").any()


def test_adjacency_all_ones_is_complete_bipartite():
    a = graphs.adjacency_for("1111111111")
    assert a.sum() == 2 * 16
    assert (a[:4, 4:] == 1).all()


def test_adjacency_single_edge_connects_2_and_6():
    a = graphs.adjacency_for("0000000100")
    edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(a)) if i < j}
    assert edges == {(2, 6)}


@given(codes_st)
def test_adjacency_block_structure(code):
    a = graphs.adjacency_for(code)
    assert (a == a.T).all()
    assert not np.diagonal(a).any()
    assert not a[:4, :4].any() and not a[4:, 4:].any()


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

def test_components_zero_graph():
    comps = graphs.connected_components(graphs.adjacency_for("0000000000"))
    assert len(comps) == 8
    assert all(sig == graphs.ComponentSignature(1, 0, (0,)) for _, sig in comps)


def test_components_single_edge():
    comps = graphs.connected_components(graphs.adjacency_for("0000000100"))
    sigs = sorted(sig for _, sig in comps)
    assert sigs.count(graphs.ComponentSignature(1, 0, (0,))) == 6
    assert graphs.ComponentSignature(2, 1, (1, 1)) in sigs


def test_components_square():
    comps = graphs.connected_components(graphs.adjacency_for("1100100000"))
    big = [sig for _, sig in comps if sig.node_count > 1]
    assert big == [graphs.ComponentSignature(4, 4, (2, 2, 2, 2))]
    assert sum(1 for _, sig in comps if sig.node_count == 1) == 4


def test_components_partition_all_nodes():
    comps = graphs.connected_components(graphs.adjacency_for("0110100101"))
    nodes = sorted(n for ns, _ in comps for n in ns)
    assert nodes == list(range(8))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("code,label", [
    ("1111111111", "1K44"),
    ("0110000000", "2P3"),
    ("0111000000", "2S3"),
    ("0000000100", "1K2"),
    ("1100100000", "1C4"),
    ("0000001100", "3K2"),
    ("0100000101", "4K2"),
    ("0011011000", "2C4"),
    ("1011000111", "1K33"),
    ("0010000000", "2K2"),
    ("0000000000", graphs.OTHER),
    ("1100000000", graphs.OTHER),   # a 4-node path is no listed category
])
def test_classify_examples(code, label):
    assert graphs.classify(graphs.adjacency_for(code)) == label


@given(codes_st)
def test_classify_total_over_all_codes(code):
    label = graphs.classify(graphs.adjacency_for(code))
    assert label in graphs.CLASS_LABELS or label == graphs.OTHER


# ---------------------------------------------------------------------------
# canonical form / isomorphism
# ---------------------------------------------------------------------------

def test_canonical_form_zero_fixed_point():
    a = graphs.adjacency_for("0000000000")
    assert (canonical_form(a) == a).all()


def test_canonical_form_identifies_single_edge_graphs():
    a = canonical_form(graphs.adjacency_for("1000000000"))
    b = canonical_form(graphs.adjacency_for("0000000100"))
    assert (a == b).all()


def test_canonical_form_separates_different_edge_counts():
    a = canonical_form(graphs.adjacency_for("1100100000"))
    b = canonical_form(graphs.adjacency_for("0010000000"))
    assert (a != b).any()


@given(codes_st)
@settings(max_examples=25)
def test_canonical_form_is_a_relabeling(code):
    a = graphs.adjacency_for(code)
    c = canonical_form(a)
    assert c.sum() == a.sum()
    assert sorted(c.sum(axis=0)) == sorted(a.sum(axis=0))
    assert graphs.classify(a) == graphs.classify(c)


@given(codes_st, st.permutations(list(range(8))))
@settings(max_examples=25)
def test_canonical_form_invariant_under_relabeling(code, perm):
    a = graphs.adjacency_for(code)
    perm = np.array(perm)
    relabeled = a[np.ix_(perm, perm)]
    assert (canonical_form(a) == canonical_form(relabeled)).all()


def test_is_isomorphic_reflexive():
    a = graphs.adjacency_for("0110000000")
    assert is_isomorphic(a, a)


def test_is_isomorphic_on_class_members():
    assert is_isomorphic(graphs.adjacency_for("0100000000"),
                         graphs.adjacency_for("0001000000"))
    assert not is_isomorphic(graphs.adjacency_for("0000000100"),
                             graphs.adjacency_for("0010000000"))


@given(codes_st, codes_st, codes_st)
@settings(max_examples=15)
def test_is_isomorphic_equivalence_relation(c1, c2, c3):
    a, b, c = (graphs.adjacency_for(x) for x in (c1, c2, c3))
    assert is_isomorphic(a, a)
    assert is_isomorphic(a, b) == is_isomorphic(b, a)
    if is_isomorphic(a, b) and is_isomorphic(b, c):
        assert is_isomorphic(a, c)
