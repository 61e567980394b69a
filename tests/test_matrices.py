import pytest
from hypothesis import given

from gridperms import GridMatrix

from .conftest import DEMO_MATRIX_TEXT
from .strategies import matrices


def test_parse_orients_from_bottom_left():
    m = GridMatrix.parse(DEMO_MATRIX_TEXT)
    assert (m.t, m.u) == (3, 2)
    assert m.entry(1, 1) == 1
    assert m.entry(2, 2) == 1
    assert m.entry(3, 2) == 1
    assert m.entry(1, 2) == 0
    assert m.entry(2, 1) == 0


def test_parse_accepts_numeric_tokens():
    assert GridMatrix.parse("0 1 1\n1 0 -1") == GridMatrix.parse(DEMO_MATRIX_TEXT)
    assert GridMatrix.parse("1 .\n- 0").entry(1, 1) == -1


def test_parse_skips_blank_lines():
    assert GridMatrix.parse("\n+ +\n\n") == GridMatrix.parse("+ +")


def test_parse_rejects_bad_input():
    for text in ["", "+ +\n+", "x", "2", "+ ++"]:
        with pytest.raises(ValueError):
            GridMatrix.parse(text)


def test_entries_limited_to_signs_and_zero():
    with pytest.raises(ValueError):
        GridMatrix(((0, 2),))
    with pytest.raises(ValueError):
        GridMatrix(())
    with pytest.raises(ValueError):
        GridMatrix(((1,), (1, 0)))


def test_entries_must_be_integers():
    for bad in (((1.0, True),), ((1,), (-1.0,)), (("+",),)):
        with pytest.raises(TypeError):
            GridMatrix(bad)
    numpy = pytest.importorskip("numpy")
    m = GridMatrix(((numpy.int8(-1), True),))
    assert m == GridMatrix(((-1, 1),)) and all(type(e) is int for e in m.columns[0])


def test_format_is_visual_orientation():
    assert GridMatrix.parse(DEMO_MATRIX_TEXT).format() == ". + +\n+ . -"
    assert str(GridMatrix.from_cells(1, 1, {(1, 1): -1})) == "-"


def test_from_rows_matches_parse():
    by_rows = GridMatrix.from_rows([[0, 1, 1], [1, 0, -1]])
    assert by_rows == GridMatrix.parse(DEMO_MATRIX_TEXT)


def test_from_rows_rejects_empty_and_ragged_rows():
    for rows in [[], [[]], [[], []]]:
        with pytest.raises(ValueError, match="at least one column and one row"):
            GridMatrix.from_rows(rows)
    for rows in [[[1], []], [[1, 0], [1]], [[], [1]]]:
        with pytest.raises(ValueError, match="ragged matrix rows"):
            GridMatrix.from_rows(rows)


def test_from_cells_defaults_to_zero():
    m = GridMatrix.from_cells(2, 2, {(1, 2): 1})
    assert m.entry(1, 2) == 1
    assert m.entry(1, 1) == m.entry(2, 1) == m.entry(2, 2) == 0
    with pytest.raises(ValueError):
        GridMatrix.from_cells(2, 2, {(3, 1): 1})


def test_from_cells_reads_integer_coordinates():
    # a float or a string is refused, not dropped or matched by equality
    for cell in [(1.5, 1), (1.0, 2), (1, 2.0), ("1", 1)]:
        with pytest.raises(TypeError):
            GridMatrix.from_cells(2, 2, {cell: 1})
    assert GridMatrix.from_cells(2, 2, {(True, 2): -1}).entry(1, 2) == -1
    numpy = pytest.importorskip("numpy")
    m = GridMatrix.from_cells(2, 2, {(numpy.int64(2), numpy.int64(1)): 1})
    assert m == GridMatrix.from_cells(2, 2, {(2, 1): 1})


def test_entry_bounds_checked():
    m = GridMatrix.parse("+")
    for k, l in [(0, 1), (1, 0), (2, 1), (1, 2)]:
        with pytest.raises(ValueError):
            m.entry(k, l)
    for k, l in [(1.5, 1), (1, 1.0), ("1", 1)]:
        with pytest.raises(TypeError):
            m.entry(k, l)
    numpy = pytest.importorskip("numpy")
    assert m.entry(numpy.int64(1), True) == 1


def test_nonzero_cells_sorted_by_column_then_row():
    m = GridMatrix.parse(DEMO_MATRIX_TEXT)
    assert m.nonzero_cells() == ((1, 1), (2, 2), (3, 1), (3, 2))
    assert GridMatrix.parse(". .\n. .").nonzero_cells() == ()


@given(matrices(max_t=4, max_u=4))
def test_parse_format_round_trip(m):
    assert GridMatrix.parse(m.format()) == m
