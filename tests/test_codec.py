import time
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridperms import (
    GriddedPermutation,
    Gridding,
    GridMatrix,
    InconsistentOrdersError,
    Permutation,
    SignAssignment,
    alphabet,
    containment_witness,
    contains,
    decode,
    encode,
    find_signs,
    format_word,
    parse_word,
    pattern_of,
    row_col_orders,
    subword_leq,
)
from gridperms.codec import _extend, _grow, _slots, _spell

from .conftest import DEMO_MATRIX_TEXT, DEMO_WORD_TEXT
from .oracles import (
    brute_griddings,
    brute_sign_assignments,
    is_witness,
    least_index_replay,
    letter_indices,
    negated,
    spell_by_insertion,
)
from .strategies import signed_matrices, words_over

DEMO = GridMatrix.parse(DEMO_MATRIX_TEXT)
ONE_ROW = GridMatrix.parse("+ +")
THREE_CELLS = GridMatrix.parse("+ .\n+ -")
FOREST_MATRICES = [DEMO, ONE_ROW, THREE_CELLS]


def test_alphabet_is_nonzero_cells(demo_matrix):
    assert alphabet(demo_matrix) == {(1, 1), (2, 2), (3, 1), (3, 2)}
    assert alphabet(GridMatrix.parse(". .\n. .")) == frozenset()
    assert alphabet(GridMatrix.parse("-")) == {(1, 1)}


def test_word_parse_format_round_trip():
    word = parse_word(DEMO_WORD_TEXT)
    assert word[:3] == ((3, 1), (3, 1), (2, 2))
    assert len(word) == 9
    assert format_word(word) == DEMO_WORD_TEXT
    assert format_word(()) == ""


def test_parse_word_rejects_garbage():
    for text in ["3", "3,1,2", "a,b", "0,1", "3,-1"]:
        with pytest.raises(ValueError):
            parse_word(text)
    with pytest.raises(ValueError, match="cannot parse letter from '1,x'"):
        parse_word("1,x")
    # integers are an optional - and ASCII digits, as format_word prints them
    for token in ["1_0,1", "+1,1", "1,٣"]:
        with pytest.raises(ValueError) as refusal:
            parse_word(token)
        assert str(refusal.value) == f"cannot parse letter from {token!r}"


# encode

def test_encode_empty_word(demo_matrix, demo_signs):
    gp = encode(demo_matrix, demo_signs, ())
    assert gp.perm == Permutation(())
    assert gp.gridding == Gridding((1, 1, 1, 1), (1, 1, 1))


def test_encode_single_letters(demo_matrix, demo_signs):
    for letter in sorted(alphabet(demo_matrix)):
        gp = encode(demo_matrix, demo_signs, (letter,))
        assert gp.perm == Permutation((1,))
        assert gp.cell_of(1) == letter


def test_encode_rejects_foreign_letters(demo_matrix, demo_signs):
    with pytest.raises(ValueError):
        encode(demo_matrix, demo_signs, ((2, 1),))
    with pytest.raises(ValueError):
        encode(demo_matrix, demo_signs, ((4, 1),))


def test_encode_rejects_invalid_signs(demo_matrix, demo_word):
    with pytest.raises(ValueError):
        encode(demo_matrix, SignAssignment((1, 1, 1), (1, 1)), demo_word)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_encode_cells_and_counts(data):
    m = data.draw(st.sampled_from(FOREST_MATRICES))
    signs = find_signs(m)
    word = data.draw(words_over(m))
    gp = encode(m, signs, word)
    assert len(gp.perm) == len(word)
    # each cell holds as many entries as the word has copies of its letter,
    # and they run with the slope the matrix dictates
    for cell in alphabet(m):
        values = [
            gp.perm.entries[i - 1]
            for i in range(1, len(word) + 1)
            if gp.cell_of(i) == cell
        ]
        assert len(values) == word.count(cell)
        expected = sorted(values, reverse=m.entry(*cell) == -1)
        assert values == expected


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_extend_spells_the_word_with_its_last_letter(data):
    # the word sweep's leaves: one insertion into the spelling of the prefix,
    # at its divisions' slots for the last letter, whose column and row grow
    m, signs = data.draw(signed_matrices())
    word = data.draw(words_over(m))
    assume(word)
    for s in (signs, negated(signs)):
        (entries, cols, rows), (k, l) = _spell(word[:-1], s), word[-1]
        i, v = _slots(word[-1], s)
        gp = encode(m, s, word)
        assert _extend(bytes(entries), cols[i], rows[v]) == bytes(gp.perm.entries)
        assert (_grow(cols, k), _grow(rows, l)) == (gp.gridding.cols, gp.gridding.rows)


@pytest.mark.parametrize("text, signs", [("+", ((1,), (1,))), ("-", ((1,), (-1,)))])
def test_extend_reaches_the_top_of_the_byte_range(text, signs):
    # 255 appended above 1..254, or 1 inserted below 254..1, which moves 254
    # to 255: the last entry of each bump table
    m, s = GridMatrix.parse(text), SignAssignment(*signs)
    (entries, cols, rows), i, v = _spell(((1, 1),) * 254, s), *_slots((1, 1), s)
    assert _extend(bytes(entries), cols[i], rows[v]) == bytes(encode(m, s, ((1, 1),) * 255).perm.entries)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_encode_matches_spelling_by_insertion(data):
    # encode's exact entries and divisions, against the definition
    m, signs = data.draw(signed_matrices())
    word = data.draw(words_over(m))
    for s in (signs, negated(signs)):
        gp = encode(m, s, word)
        spelled = spell_by_insertion(m, s.col_signs, s.row_signs, word)
        assert spelled == (gp.perm.entries, gp.gridding.cols, gp.gridding.rows), (s, word)


def test_spelling_by_insertion_showcase(demo_matrix, demo_signs, demo_word, demo_perm, demo_gridding):
    spelled = spell_by_insertion(demo_matrix, demo_signs.col_signs, demo_signs.row_signs, demo_word)
    assert spelled == (demo_perm.entries, demo_gridding.cols, demo_gridding.rows)


# subword order

def test_subword_examples():
    w = parse_word("3,1 1,1 2,2 3,2")
    assert subword_leq(parse_word("1,1 3,2"), w)
    assert subword_leq((), w)
    assert subword_leq(w, w)
    assert not subword_leq(parse_word("3,2 1,1"), w)
    assert not subword_leq(parse_word("3,1 3,1"), w)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_deletions_are_subwords(data):
    word = data.draw(words_over(DEMO))
    for j in range(len(word)):
        assert subword_leq(word[:j] + word[j + 1 :], word)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kept_letters_witness_the_subword(data):
    # The paper's lemma: a subword v of w encodes to a pattern of encode(w),
    # witnessed at the points of the letters v keeps.  It needs only signs,
    # so every matrix without a negative cycle qualifies, forest or not.
    m, signs = data.draw(signed_matrices())
    word = data.draw(words_over(m, max_len=30))
    keep = data.draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    for s in (signs, negated(signs)):
        big = encode(m, s, word).perm
        small = encode(m, s, tuple(letter for letter, kept in zip(word, keep) if kept)).perm
        indices = letter_indices(m, s.col_signs, s.row_signs, word)
        witness = tuple(sorted(i for i, kept in zip(indices, keep) if kept))
        assert is_witness(big.entries, small.entries, witness), (s, word, keep)
        if len(word) < 25:
            assert containment_witness(big, small) <= witness


# row and column orders

def test_orders_of_showcase(demo_matrix, demo_signs, demo_perm, demo_gridding):
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    assert row_col_orders(gp, demo_signs) == {
        ("col", 1): (3, 1),
        ("col", 2): (6, 8),
        ("col", 3): (5, 4, 7, 9, 2),
        ("row", 1): (5, 4, 3, 2, 1),
        ("row", 2): (6, 7, 8, 9),
    }


def test_orders_empty_and_singleton(demo_matrix, demo_signs):
    empty = GriddedPermutation(
        Permutation(()), demo_matrix, Gridding((1, 1, 1, 1), (1, 1, 1))
    )
    assert all(order == () for order in row_col_orders(empty, demo_signs).values())

    single = encode(demo_matrix, demo_signs, ((2, 2),))
    orders = row_col_orders(single, demo_signs)
    assert orders[("col", 2)] == (1,)
    assert orders[("row", 2)] == (1,)
    assert orders[("col", 1)] == orders[("row", 1)] == ()


# decode

def test_handpicked_extension_is_a_valid_decode(
    demo_matrix, demo_perm, demo_gridding, demo_word
):
    # acceptance #1 checks that this extension sorts the insertion orders;
    # spelled cell by cell, it is the showcase word
    extension = (5, 4, 6, 7, 3, 8, 9, 2, 1)
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    index_of = {value: i for i, value in enumerate(demo_perm, start=1)}
    assert tuple(gp.cell_of(index_of[value]) for value in extension) == demo_word


def test_decode_trivial_cases(demo_matrix, demo_signs):
    empty = GriddedPermutation(
        Permutation(()), demo_matrix, Gridding((1, 1, 1, 1), (1, 1, 1))
    )
    assert decode(empty, demo_signs) == ()
    single = encode(demo_matrix, demo_signs, ((3, 2),))
    assert decode(single, demo_signs) == ((3, 2),)


def test_decode_rejects_conflicting_orders(full_plus_matrix):
    # entries one per cell, arranged so the four insertion orders chain
    # into a cycle: the column orders want 4 before 1 and 2 before 3, the
    # row orders want 1 before 2 and 3 before 4
    gp = GriddedPermutation(
        Permutation.parse("4123"), full_plus_matrix, Gridding((1, 3, 5), (1, 3, 5))
    )
    signs = SignAssignment((1, 1), (1, 1))
    with pytest.raises(InconsistentOrdersError):
        decode(gp, signs)


@pytest.mark.parametrize("text", [DEMO_MATRIX_TEXT, "+ +\n+ +", "- +\n+ -"])
def test_decode_matches_least_index_replay(text):
    # every sign assignment, every permutation of length <= 5 and every
    # valid gridding: decode's word and its conflicts both follow the replay
    m = GridMatrix.parse(text)
    conflicts = 0
    for col_signs, row_signs in brute_sign_assignments(m):
        signs = SignAssignment(col_signs, row_signs)
        for n in range(6):
            for entries in permutations(range(1, n + 1)):
                pi = Permutation(entries)
                for cols, rows in brute_griddings(pi, m):
                    gp = GriddedPermutation(pi, m, Gridding(cols, rows))
                    expected = least_index_replay(pi, m, cols, rows, col_signs, row_signs)
                    if expected is None:
                        conflicts += 1
                        with pytest.raises(InconsistentOrdersError):
                            decode(gp, signs)
                    else:
                        assert decode(gp, signs) == expected
    # only a cycle in the row-column graph lets the orders conflict
    assert (conflicts > 0) == (text != DEMO_MATRIX_TEXT)


def test_decode_with_normalized_signs(demo_matrix, demo_perm, demo_gridding):
    signs = find_signs(demo_matrix)
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    word = decode(gp, signs)
    assert encode(demo_matrix, signs, word) == gp


def test_decode_of_many_columns_takes_under_a_second():
    # 20,000 entries in 2,000 columns: a merge that scans every column per
    # entry took 1.8-3.1 s on a Xeon under Python 3.11, a heap 0.02-0.05 s
    m = GridMatrix(((1,),) * 2000)
    signs = find_signs(m)
    gp = encode(m, signs, tuple((k % 2000 + 1, 1) for k in range(20000)))
    start = time.perf_counter()
    word = decode(gp, signs)
    assert time.perf_counter() - start < 1
    assert encode(m, signs, word) == gp


def test_decode_validates_signs(demo_matrix, demo_perm, demo_gridding):
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    with pytest.raises(ValueError):
        decode(gp, SignAssignment((1, 1, 1), (1, 1)))


# round trip and order preservation

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_encode_decode_round_trip(data):
    m = data.draw(st.sampled_from(FOREST_MATRICES))
    signs = find_signs(m)
    word = data.draw(words_over(m))
    gp = encode(m, signs, word)
    recovered = decode(gp, signs)
    assert encode(m, signs, recovered) == gp


def _is_gridded_deletion(big, small, x):
    """Whether dropping big's entry at index x leaves a copy of small whose
    entries sit in the same cells."""
    survivors = [i for i in range(1, len(big.perm) + 1) if i != x]
    values = [big.perm.entries[i - 1] for i in survivors]
    if pattern_of(values) != small.perm:
        return False
    return all(
        big.cell_of(i) == small.cell_of(rank)
        for rank, i in enumerate(survivors, start=1)
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_deleting_a_letter_shrinks_the_permutation(data):
    m = data.draw(st.sampled_from(FOREST_MATRICES))
    signs = find_signs(m)
    word = data.draw(words_over(m, max_len=6))
    big = encode(m, signs, word)
    for j in range(len(word)):
        small = encode(m, signs, word[:j] + word[j + 1 :])
        assert contains(big.perm, small.perm)
        # some single point of the big plot, removed, leaves a cell-aligned
        # copy of the small gridded permutation
        assert any(
            _is_gridded_deletion(big, small, x) for x in range(1, len(word) + 1)
        )
