import time
from itertools import product

import pytest
from hypothesis import given, settings

from gridperms import (
    GridMatrix,
    NotPartialMultiplicationError,
    SignAssignment,
    cell_graph,
    cycle_sign,
    find_signs,
    has_negative_cycle,
    is_forest,
    row_column_graph,
)

from .oracles import (
    all_matrices, brute_sign_assignments, cell_graph_edges, has_negative_simple_cycle,
)
from .strategies import matrices

FOUR_CYCLE = [("x", 1), ("y", 1), ("x", 2), ("y", 2)]


def test_row_column_graph_edges(demo_matrix):
    g = row_column_graph(demo_matrix)
    assert g.vertices == (("x", 1), ("x", 2), ("x", 3), ("y", 1), ("y", 2))
    assert set(g.edges) == {
        (("x", 1), ("y", 1), 1),
        (("x", 2), ("y", 2), 1),
        (("x", 3), ("y", 1), -1),
        (("x", 3), ("y", 2), 1),
    }


def test_row_column_graph_of_zero_matrix_is_edgeless():
    g = row_column_graph(GridMatrix.parse(". .\n. ."))
    assert len(g.vertices) == 4
    assert g.edges == ()


def test_row_column_graph_single_cell():
    g = row_column_graph(GridMatrix.parse("+"))
    assert g.edges == ((("x", 1), ("y", 1), 1),)


def test_cell_graph_is_a_path(demo_matrix):
    g = cell_graph(demo_matrix)
    assert g.vertices == ((1, 1), (2, 2), (3, 1), (3, 2))
    assert g.label((3, 1)) == -1
    with pytest.raises(ValueError, match=r"^cell \(1, 2\) is not a vertex of the cell graph$"):
        g.label((1, 2))
    assert set(g.edges) == {((1, 1), (3, 1)), ((2, 2), (3, 2)), ((3, 1), (3, 2))}


def test_cell_graph_single_vertex():
    g = cell_graph(GridMatrix.parse(". .\n- ."))
    assert g.vertices == ((1, 1),)
    assert g.edges == ()


def test_cell_graph_full_square_is_a_cycle(full_plus_matrix):
    g = cell_graph(full_plus_matrix)
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    degree = {v: 0 for v in g.vertices}
    for a, b in g.edges:
        degree[a] += 1
        degree[b] += 1
    assert all(d == 2 for d in degree.values())


def test_cell_graph_skips_nonadjacent_cells():
    # middle cell blocks the ends of the row
    g = cell_graph(GridMatrix.parse("+ + +"))
    assert set(g.edges) == {((1, 1), (2, 1)), ((2, 1), (3, 1))}


def test_cell_graph_matches_brute_force_up_to_three_by_three():
    # all 21,297 matrices with at most three columns and three rows
    for t, u in product(range(1, 4), repeat=2):
        for m in all_matrices(t, u):
            g = cell_graph(m)
            assert g.vertices == m.nonzero_cells()
            assert g.labels == tuple(m.entry(k, l) for k, l in g.vertices)
            assert list(g.edges) == cell_graph_edges(m), m


def test_cell_graph_of_a_large_full_matrix_is_fast():
    m = GridMatrix([(1,) * 300] * 300)
    start = time.perf_counter()
    g = cell_graph(m)
    assert time.perf_counter() - start < 1
    assert len(g.vertices) == 90_000
    assert len(g.edges) == 2 * 300 * 299


def test_is_forest(demo_matrix, full_plus_matrix):
    assert is_forest(row_column_graph(demo_matrix))
    assert is_forest(cell_graph(demo_matrix))
    assert not is_forest(row_column_graph(full_plus_matrix))
    assert not is_forest(cell_graph(full_plus_matrix))
    assert is_forest(row_column_graph(GridMatrix.parse(". .\n. .")))


def test_cycle_sign_products(full_plus_matrix, unbalanced_matrix):
    assert cycle_sign(full_plus_matrix, FOUR_CYCLE) == 1
    assert cycle_sign(unbalanced_matrix, FOUR_CYCLE) == -1
    assert cycle_sign(GridMatrix.parse("- -\n- -"), FOUR_CYCLE) == 1


def test_cycle_sign_accepts_closed_form(full_plus_matrix):
    assert cycle_sign(full_plus_matrix, FOUR_CYCLE + [("x", 1)]) == 1


def test_cycle_sign_rejects_non_cycles(full_plus_matrix):
    bad = [
        [("x", 1), ("y", 1)],  # too short
        [("x", 1), ("y", 1), ("x", 2)],  # odd
        [("x", 1), ("x", 2), ("y", 1), ("y", 2)],  # not alternating
        [("x", 1), ("y", 1), ("x", 1), ("y", 2)],  # repeated vertex
    ]
    for cycle in bad:
        with pytest.raises(ValueError):
            cycle_sign(full_plus_matrix, cycle)


def test_cycle_sign_rejects_zero_cells():
    m = GridMatrix.parse("+ .\n+ +")
    with pytest.raises(ValueError):
        cycle_sign(m, FOUR_CYCLE)


def test_sign_assignment_validation():
    with pytest.raises(ValueError):
        SignAssignment((0,), (1,))
    assert SignAssignment([1, -1], [1]).col_signs == (1, -1)


def test_sign_assignment_verify(demo_matrix, demo_signs):
    assert demo_signs.verify(demo_matrix)
    assert not SignAssignment((1, 1, 1), (1, 1)).verify(demo_matrix)
    assert not demo_signs.verify(GridMatrix.parse("+"))  # wrong shape


def test_signs_must_be_integers():
    for cols, rows in [((True,), (1.0,)), ((-1.0,), (1,)), (("1",), (1,))]:
        with pytest.raises(TypeError):
            SignAssignment(cols, rows)
    numpy = pytest.importorskip("numpy")
    signs = SignAssignment((True,), (numpy.int64(-1),))
    assert signs == SignAssignment((1,), (-1,))
    assert all(type(s) is int for s in signs.col_signs + signs.row_signs)
    # signs found for a matrix built from other integer types are ints too
    found = find_signs(GridMatrix(((numpy.int64(1),), (True,))))
    assert all(type(s) is int for s in found.col_signs + found.row_signs)


@given(matrices(max_t=3, max_u=3))
@settings(max_examples=200)
def test_verify_agrees_with_exhaustion(m):
    valid = brute_sign_assignments(m)
    for col_signs in product((1, -1), repeat=m.t):
        for row_signs in product((1, -1), repeat=m.u):
            verdict = SignAssignment(col_signs, row_signs).verify(m)
            assert verdict == ((col_signs, row_signs) in valid)


def test_find_signs_demo_matrix(demo_matrix, demo_signs):
    # the hand-picked choice is the global negation of find_signs' anchored
    # one (its doctest); a negated assignment must verify too
    assert demo_signs.verify(demo_matrix)


def test_find_signs_single_negative_cell():
    assert find_signs(GridMatrix.parse("-")) == SignAssignment((1,), (-1,))


def test_find_signs_reports_a_negative_cycle(unbalanced_matrix):
    with pytest.raises(NotPartialMultiplicationError) as exc_info:
        find_signs(unbalanced_matrix)
    cycle = exc_info.value.cycle
    assert cycle_sign(unbalanced_matrix, cycle) == -1


@pytest.mark.parametrize("closed", [False, True])
def test_find_signs_does_not_recurse_on_long_paths(closed):
    # an N x N staircase, cells (i, i) and (i+1, i), whose row-column graph
    # is a path on 2N vertices, longer than the default recursion limit; a
    # -1 at (1, N) closes it into one negative cycle through every vertex
    n = 600
    columns = [[0] * n for _ in range(n)]
    for i in range(n):
        columns[i][i] = 1
        if i + 1 < n:
            columns[i + 1][i] = 1
    if closed:
        columns[0][n - 1] = -1
    m = GridMatrix(tuple(tuple(column) for column in columns))
    if not closed:
        assert find_signs(m).verify(m)
        return
    with pytest.raises(NotPartialMultiplicationError) as exc_info:
        find_signs(m)
    cycle = exc_info.value.cycle
    assert len(set(cycle)) == len(cycle) == 2 * n
    assert cycle_sign(m, cycle) == -1


def test_has_negative_cycle(demo_matrix, unbalanced_matrix):
    assert not has_negative_cycle(demo_matrix)
    assert has_negative_cycle(unbalanced_matrix)
    assert not has_negative_cycle(GridMatrix.parse(". .\n. ."))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_find_signs_agrees_with_exhaustion_and_cycles(m):
    valid = brute_sign_assignments(m)
    try:
        found = find_signs(m)
    except NotPartialMultiplicationError as exc:
        assert not valid
        assert has_negative_simple_cycle(m)
        assert cycle_sign(m, exc.cycle) == -1
    else:
        assert (found.col_signs, found.row_signs) in valid
        assert not has_negative_simple_cycle(m)


@given(matrices())
@settings(max_examples=200)
def test_forest_matrices_always_get_signs(m):
    if is_forest(row_column_graph(m)):
        assert find_signs(m).verify(m)
