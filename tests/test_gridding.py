import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperms import (
    GriddedPermutation,
    Gridding,
    GridMatrix,
    Permutation,
    SignAssignment,
    check_gridding,
    encode,
    find_gridding,
    in_grid_class,
    pattern_of,
)
from gridperms.gridding import _bands, _least_rows, _witness

from .oracles import (
    brute_griddings, division_sequences, inverse, oriented, transpose, valid_gridding,
)
from .strategies import matrices, permutations


# Gridding construction and serialization

def test_divisions_validated():
    Gridding((1, 3, 5, 10), (1, 6, 10))
    Gridding((1, 1, 4), (1, 4))  # empty first column is fine
    with pytest.raises(ValueError):
        Gridding((2, 5), (1, 5))  # must start at 1
    with pytest.raises(ValueError):
        Gridding((1, 3, 2, 5), (1, 5))  # not weakly increasing
    with pytest.raises(ValueError):
        Gridding((1, 5), (1, 4))  # endpoints disagree
    with pytest.raises(ValueError):
        Gridding((1,), (1,))


def test_divisions_must_be_integers():
    for bad in ((1, 2.7), (1, 2.0), (1, "2")):
        with pytest.raises(TypeError):
            Gridding(bad, (1, 2))
        with pytest.raises(TypeError):
            Gridding((1, 2), bad)
    numpy = pytest.importorskip("numpy")
    g = Gridding((True, numpy.int64(2)), (1, 2))
    assert g == Gridding((1, 2), (1, 2)) and all(type(c) is int for c in g.cols)


def test_shape_properties():
    g = Gridding((1, 3, 5, 10), (1, 6, 10))
    assert (g.t, g.u, g.n) == (3, 2, 9)


def test_cell_of_points():
    g = Gridding((1, 3, 5, 10), (1, 6, 10))
    assert g.cell_of(1, 1) == (1, 1)
    assert g.cell_of(3, 6) == (2, 2)
    assert g.cell_of(9, 2) == (3, 1)
    assert g.cell_of(5, 5) == (3, 1)
    with pytest.raises(ValueError):
        g.cell_of(10, 1)
    with pytest.raises(ValueError):
        g.cell_of(0, 1)
    for point in [(1.5, 2.5), (1, 2.0), ("1", 1)]:
        with pytest.raises(TypeError):
            g.cell_of(*point)
    numpy = pytest.importorskip("numpy")
    assert g.cell_of(numpy.int64(9), True) == (3, 1)


def test_cell_of_skips_empty_bands():
    g = Gridding((1, 1, 4), (1, 4, 4))
    assert g.cell_of(1, 1) == (2, 1)
    assert g.cell_of(3, 3) == (2, 1)


def test_gridding_parse_format_round_trip():
    text = "cols=1,3,5,10 rows=1,6,10"
    g = Gridding.parse(text)
    assert g == Gridding((1, 3, 5, 10), (1, 6, 10))
    assert g.format() == text
    assert Gridding.parse("rows=1,6,10 cols=1,3,5,10") == g


def test_gridding_parse_rejects_garbage():
    for text in ["", "cols=1,4", "cols=1,4 rows=1,x", "cols=1,4 cols=1,4",
                 "cols=1,4 rows=1,4 rows=1,4", "1,4 1,4"]:
        with pytest.raises(ValueError):
            Gridding.parse(text)
    with pytest.raises(ValueError, match="cannot parse gridding from 'cols=1,x rows=1,2'"):
        Gridding.parse("cols=1,x rows=1,2")
    # integers are an optional - and ASCII digits, as format prints them
    for text in ["cols=1,+3 rows=1,3", "cols=1,0_3 rows=1,3", "cols=1,٣ rows=1,3"]:
        with pytest.raises(ValueError) as refusal:
            Gridding.parse(text)
        assert str(refusal.value) == f"cannot parse gridding from {text!r}"


# check_gridding

def test_check_gridding_rejects_shifted_division(demo_matrix, demo_perm):
    # moving c_2 to 2 pushes entries 3,5,4 into an empty cell
    assert not check_gridding(demo_perm, demo_matrix, Gridding((1, 2, 5, 10), (1, 6, 10)))


def test_check_gridding_empty_permutation(demo_matrix):
    assert check_gridding(Permutation(()), demo_matrix, Gridding((1, 1, 1, 1), (1, 1, 1)))


def test_check_gridding_rejects_malformed_divisions(demo_matrix, demo_perm):
    with pytest.raises(ValueError):
        check_gridding(demo_perm, demo_matrix, Gridding((1, 5, 10), (1, 6, 10)))
    with pytest.raises(ValueError):
        check_gridding(demo_perm, demo_matrix, Gridding((1, 3, 5, 9), (1, 6, 9)))


def test_check_gridding_monotonicity_per_cell():
    m = GridMatrix.parse("+ -")
    g = Gridding((1, 3, 5), (1, 5))
    assert check_gridding(Permutation.parse("1243"), m, g)
    assert not check_gridding(Permutation.parse("2143"), m, g)
    assert not check_gridding(Permutation.parse("1234"), m, g)


# GriddedPermutation

def test_gridded_permutation_validates(demo_matrix, demo_perm, demo_gridding):
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    assert gp.cell_of(1) == (1, 1)
    assert gp.cell_of(4) == (2, 2)
    assert gp.cell_of(9) == (3, 1)
    with pytest.raises(ValueError):
        GriddedPermutation(demo_perm, demo_matrix, Gridding((1, 2, 5, 10), (1, 6, 10)))


def test_gridded_cell_of_refuses_indices_outside(demo_matrix, demo_perm, demo_gridding):
    # index 0 must not wrap round to the last entry, nor n + 1 read past it
    gp = GriddedPermutation(demo_perm, demo_matrix, demo_gridding)
    empty = GriddedPermutation(Permutation(()), demo_matrix, Gridding((1,) * 4, (1,) * 3))
    for gridded, index in [(gp, 0), (gp, 10), (gp, -1), (empty, 1), (empty, 0)]:
        with pytest.raises(ValueError, match="outside"):
            gridded.cell_of(index)
    for index in [1.0, 1.5, "1"]:
        with pytest.raises(TypeError):
            gp.cell_of(index)
    numpy = pytest.importorskip("numpy")
    assert gp.cell_of(numpy.int64(1)) == gp.cell_of(True) == (1, 1)


# find_gridding / in_grid_class

def test_demo_perm_has_three_griddings(demo_matrix, demo_perm):
    all_griddings = brute_griddings(demo_perm, demo_matrix)
    assert len(all_griddings) == 3
    assert all_griddings[0] == ((1, 3, 5, 10), (1, 5, 10))
    assert ((1, 3, 5, 10), (1, 6, 10)) in all_griddings


def test_find_gridding_monotone_singletons():
    assert find_gridding(Permutation.parse("321"), GridMatrix.parse("+")) is None
    assert find_gridding(Permutation.parse("321"), GridMatrix.parse("-")) == Gridding(
        (1, 4), (1, 4)
    )


def test_membership(demo_matrix, demo_perm):
    assert in_grid_class(demo_perm, demo_matrix)
    assert in_grid_class(Permutation(()), GridMatrix.parse(". .\n. ."))
    assert not in_grid_class(Permutation.parse("321"), GridMatrix.parse("+ +"))


def test_single_increasing_cell_class_is_identities():
    m = GridMatrix.parse("+")
    for n in range(8):
        assert in_grid_class(Permutation(tuple(range(1, n + 1))), m)
    assert not in_grid_class(Permutation.parse("132"), m)


@given(permutations(max_n=6), matrices(max_t=3, max_u=3))
@settings(max_examples=200, deadline=None)
def test_find_gridding_matches_brute_force(pi, m):
    found = find_gridding(pi, m)
    expected = brute_griddings(pi.entries, m)
    if found is None:
        assert expected == []
    else:
        assert (found.cols, found.rows) == expected[0]
        assert check_gridding(pi, m, found)


@given(permutations(max_n=6), matrices(max_t=3, max_u=3))
@settings(max_examples=200, deadline=None)
def test_in_grid_class_matches_brute_force(pi, m):
    assert in_grid_class(pi, m) == bool(brute_griddings(pi.entries, m))


@given(permutations(max_n=6), matrices(max_t=3, max_u=3))
@settings(max_examples=200, deadline=None)
def test_in_grid_class_transpose_identity(pi, m):
    assert in_grid_class(pi, m) == in_grid_class(Permutation(inverse(pi)), transpose(m))


@given(
    permutations(max_n=7),
    st.one_of(matrices(max_t=1, max_u=6), matrices(max_t=6, max_u=1)).filter(
        lambda m: m.t != m.u
    ),
)
@settings(max_examples=200, deadline=None)
def test_in_grid_class_on_either_axis_agrees_with_find_gridding(pi, m):
    # One column searches its column divisions, one row its row divisions.
    assert in_grid_class(pi, m) == (find_gridding(pi, m) is not None)


HINTED_SHAPES = (
    [(1, u) for u in range(2, 7)] + [(t, 1) for t in range(2, 7)] + [(2, 2), (3, 2), (3, 3)]
)


@st.composite
def hinted_searches(draw):
    """A permutation, a matrix of one of HINTED_SHAPES and any sequence of
    divisions of the axis _witness searches, the one with min(t, u) parts."""
    t, u = draw(st.sampled_from(HINTED_SHAPES))
    entries = st.lists(st.sampled_from([0, 1, -1]), min_size=u, max_size=u)
    m = GridMatrix(tuple(tuple(draw(entries)) for _ in range(t)))
    pi = draw(permutations(max_n=7))
    n, parts = len(pi), min(t, u)
    middles = st.lists(st.integers(1, n + 1), min_size=parts - 1, max_size=parts - 1)
    hints = draw(st.lists(middles.map(lambda middle: (1, *sorted(middle), n + 1)), max_size=4))
    return pi, m, hints


@given(hinted_searches())
@settings(max_examples=300, deadline=None)
def test_witness_hint_never_changes_the_answer(case):
    pi, m, hints = case
    # _witness searches rows of a matrix with t >= u; a matrix with fewer
    # columns than rows is searched as its transpose, with the inverse.
    searched, entries = oriented(m, pi)
    found, _ = _witness(entries, searched, iter([(h, _bands(h)) for h in hints]))
    assert (found is not None) == in_grid_class(pi, m)
    if found is not None:
        # rows of the searched matrix and the least columns they admit,
        # swapped back when the search ran on the transpose
        rows, cols = found, _least_rows(entries, searched.columns, _bands(found))
        if m.t < m.u:
            rows, cols = cols, rows
        assert valid_gridding(pi, m, cols, rows)


@given(hinted_searches())
@settings(max_examples=100, deadline=None)
def test_witness_counts_the_divisions_it_tries(case):
    # the hints, then every division, up to and including the first that
    # completes; all of them when none does
    pi, m, hints = case
    searched, entries = oriented(m, pi)
    found, tried = _witness(entries, searched, iter([(h, _bands(h)) for h in hints]))
    order = hints + list(division_sequences(len(pi), searched.u))
    assert tried == (len(order) if found is None else order.index(found) + 1)


@given(permutations(max_n=6), matrices(max_t=3, max_u=3))
@settings(max_examples=200, deadline=None)
def test_least_rows_give_the_least_gridding(pi, m):
    # The first column division the threshold kernel accepts, with its rows,
    # is the lexicographically least gridding.
    index_of, matrix_rows = inverse(pi), transpose(m).columns
    first = next(
        (
            (cols, rows)
            for cols in division_sequences(len(pi), m.t)
            if (rows := _least_rows(index_of, matrix_rows, _bands(cols))) is not None
        ),
        None,
    )
    expected = brute_griddings(pi.entries, m)
    assert first == (expected[0] if expected else None)


@st.composite
def division_pairs(draw, n, t, u, valid):
    """A well-formed (cols, rows) pair; half the time one of ``valid``."""
    if valid and draw(st.booleans()):
        return draw(st.sampled_from(valid))

    def divisions(parts):
        middle = draw(st.lists(st.integers(1, n + 1), min_size=parts - 1,
                               max_size=parts - 1))
        return (1, *sorted(middle), n + 1)

    return divisions(t), divisions(u)


@given(permutations(max_n=5), matrices(max_t=3, max_u=3), st.data())
@settings(max_examples=300, deadline=None)
def test_check_gridding_matches_brute_force(pi, m, data):
    valid = brute_griddings(pi.entries, m)
    cols, rows = data.draw(division_pairs(len(pi), m.t, m.u, valid))
    assert check_gridding(pi, m, Gridding(cols, rows)) == ((cols, rows) in valid)


@st.composite
def near_misses(draw, max_len=40):
    """A permutation, a sign-consistent matrix up to 3x3 and a gridding:
    an encoded word's own gridding, that gridding with one interior
    division moved by one, or the permutation with two values swapped."""
    t, u = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    col_signs = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=t, max_size=t)))
    row_signs = tuple(draw(st.lists(st.sampled_from([1, -1]), min_size=u, max_size=u)))
    m = GridMatrix(tuple(
        tuple(draw(st.sampled_from([0, c * r])) for r in row_signs) for c in col_signs
    ))
    letters = m.nonzero_cells()
    n = draw(st.integers(0, max_len)) if letters else 0
    word = draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n)) if n else ()
    gp = encode(m, SignAssignment(col_signs, row_signs), word)
    entries, cols, rows = list(gp.perm.entries), gp.gridding.cols, gp.gridding.rows
    moves = [
        (axis, i, d[i] + step)
        for axis, d in enumerate((cols, rows))
        for i in range(1, len(d) - 1)
        for step in (-1, 1)
        if d[i - 1] <= d[i] + step <= d[i + 1]
    ]
    kind = draw(st.sampled_from(["encoded", "moved", "swapped"]))
    if kind == "moved" and moves:
        axis, i, division = draw(st.sampled_from(moves))
        d = list((cols, rows)[axis])
        d[i] = division
        cols, rows = (tuple(d), rows) if axis == 0 else (cols, tuple(d))
    elif kind == "swapped" and len(entries) >= 2:
        a, b = draw(st.lists(st.integers(0, len(entries) - 1), min_size=2,
                             max_size=2, unique=True))
        entries[a], entries[b] = entries[b], entries[a]
    return Permutation(tuple(entries)), m, Gridding(cols, rows)


@given(near_misses())
@settings(max_examples=300, deadline=None)
def test_check_gridding_matches_cell_windows_at_codec_lengths(case):
    pi, m, g = case
    assert check_gridding(pi, m, g) == valid_gridding(pi, m, g.cols, g.rows)


@given(permutations(max_n=5, min_n=1), matrices(max_t=2, max_u=2))
@settings(max_examples=150, deadline=None)
def test_membership_closed_under_point_deletion(pi, m):
    if not in_grid_class(pi, m):
        return
    for drop in range(len(pi)):
        child = pattern_of(pi.entries[:drop] + pi.entries[drop + 1 :])
        assert in_grid_class(child, m)
