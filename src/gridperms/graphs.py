"""Row-column graphs, cell graphs, cycle signs, and sign assignments.

The row-column graph of a t x u matrix is bipartite on column vertices
("x", 1..t) and row vertices ("y", 1..u), with a signed edge per nonzero
cell.  A matrix factors as column sign times row sign on its nonzero cells
exactly when this graph has no negative cycle; ``find_signs`` computes such
a factorization or produces a negative cycle as a witness.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

from ._value import Value
from .matrices import Cell, GridMatrix

Vertex = tuple[str, int]  # ("x", k) for columns, ("y", l) for rows


class NotPartialMultiplicationError(Exception):
    """No sign assignment exists; ``cycle`` is a witness negative cycle."""

    def __init__(self, cycle: tuple[Vertex, ...]):
        super().__init__(f"negative cycle {' '.join(f'{s}{i}' for s, i in cycle)}")
        self.cycle = cycle


class RowColumnGraph(Value):
    """Bipartite graph with one vertex per column and per row.

    Edges are (x-vertex, y-vertex, sign) triples, one per nonzero cell.
    """

    __slots__ = ("vertices", "edges")
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex, int], ...]

    def __init__(self, vertices: tuple[Vertex, ...],
                 edges: tuple[tuple[Vertex, Vertex, int], ...]) -> None:
        super().__init__(vertices, edges)


class CellGraph(Value):
    """Graph on the nonzero cells of a matrix.

    Two cells are adjacent when they share a row or a column with no nonzero
    cell strictly between them.  ``labels[i]`` is the matrix entry of
    ``vertices[i]``.
    """

    __slots__ = ("vertices", "labels", "edges")
    vertices: tuple[Cell, ...]
    labels: tuple[int, ...]
    edges: tuple[tuple[Cell, Cell], ...]

    def __init__(self, vertices: tuple[Cell, ...], labels: tuple[int, ...],
                 edges: tuple[tuple[Cell, Cell], ...]) -> None:
        super().__init__(vertices, labels, edges)

    def label(self, cell: Cell) -> int:
        """The matrix entry of a nonzero cell; any other cell raises ValueError."""
        try:
            return self.labels[self.vertices.index(cell)]
        except ValueError:
            raise ValueError(f"cell {cell} is not a vertex of the cell graph") from None


class SignAssignment(Value):
    """Column signs c_1..c_t and row signs r_1..r_u, all +-1, stored as
    ints: any integer type is accepted and anything else raises TypeError."""

    __slots__ = ("col_signs", "row_signs")
    col_signs: tuple[int, ...]
    row_signs: tuple[int, ...]

    def __init__(self, col_signs: Iterable[int], row_signs: Iterable[int]) -> None:
        col_signs = tuple(map(operator.index, col_signs))
        row_signs = tuple(map(operator.index, row_signs))
        if any(s not in (1, -1) for s in col_signs + row_signs):
            raise ValueError("signs must be +1 or -1")
        super().__init__(col_signs, row_signs)

    def verify(self, matrix: GridMatrix) -> bool:
        """Whether every nonzero entry (k, l) equals c_k * r_l."""
        if len(self.col_signs) != matrix.t or len(self.row_signs) != matrix.u:
            return False
        return all(
            e in (0, c * r)
            for c, column in zip(self.col_signs, matrix.columns)
            for r, e in zip(self.row_signs, column)
        )


def row_column_graph(matrix: GridMatrix) -> RowColumnGraph:
    """The signed bipartite graph with an edge {x_k, y_l} per nonzero cell."""
    vertices = tuple(("x", k) for k in range(1, matrix.t + 1)) + tuple(
        ("y", l) for l in range(1, matrix.u + 1)
    )
    edges = tuple(
        (("x", k), ("y", l), matrix.entry(k, l)) for k, l in matrix.nonzero_cells()
    )
    return RowColumnGraph(vertices, edges)


def cell_graph(matrix: GridMatrix) -> CellGraph:
    """The graph on nonzero cells, adjacent along rows/columns with nothing
    nonzero in between (i.e. consecutive nonzero cells of a line)."""
    cells = matrix.nonzero_cells()  # by column, then row
    labels = tuple(matrix.entry(k, l) for k, l in cells)
    by_row = sorted(cells, key=lambda cell: (cell[1], cell[0]))
    edges = [(a, b) for a, b in zip(by_row, by_row[1:]) if a[1] == b[1]]
    edges += [(a, b) for a, b in zip(cells, cells[1:]) if a[0] == b[0]]
    return CellGraph(cells, labels, tuple(edges))


def is_forest(graph: RowColumnGraph | CellGraph) -> bool:
    """Whether the graph is acyclic (union-find over its edges)."""
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for edge in graph.edges:
        a, b = find(edge[0]), find(edge[1])
        if a == b:
            return False
        parent[a] = b
    return True


def cycle_sign(matrix: GridMatrix, cycle: Sequence[Vertex]) -> int:
    """Product of the edge signs around a cycle of the row-column graph.

    ``cycle`` is an alternating sequence of column/row vertices, e.g.
    ``[("x", 1), ("y", 1), ("x", 2), ("y", 2)]``; the closing edge from the
    last vertex back to the first is implied (repeating the first vertex at
    the end is also accepted).
    """
    vertices = tuple(tuple(v) for v in cycle)
    if len(vertices) >= 2 and vertices[0] == vertices[-1]:
        vertices = vertices[:-1]
    if len(vertices) < 4 or len(vertices) % 2 != 0:
        raise ValueError(f"not a cycle: {vertices} (need even length >= 4)")
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in cycle: {vertices}")
    sign = 1
    for (side_a, a), (side_b, b) in zip(vertices, vertices[1:] + vertices[:1]):
        if side_a == side_b or {side_a, side_b} != {"x", "y"}:
            raise ValueError("cycle must alternate between column and row vertices")
        k, l = (a, b) if side_a == "x" else (b, a)
        entry = matrix.entry(k, l)
        if entry == 0:
            raise ValueError(f"cycle uses the zero cell ({k}, {l})")
        sign *= entry
    return sign


def find_signs(matrix: GridMatrix) -> SignAssignment:
    r"""Column and row signs with entry(k, l) in {0, c_k * r_l} for all cells.

    Works per connected component of the row-column graph: the least-indexed
    vertex (columns before rows, then by index) gets +1, and signs propagate
    depth-first along edges as sign(neighbor) = sign(vertex) * edge sign.
    Isolated vertices get +1.  An edge that contradicts the signs already
    set closes a negative cycle: the depth-first path from the edge's far
    end down to the vertex being explored, closed by that edge.

    Raises NotPartialMultiplicationError if no assignment exists.

    >>> find_signs(GridMatrix.parse(". + +\n+ . -"))
    SignAssignment(col_signs=(1, -1, -1), row_signs=(1, -1))
    >>> find_signs(GridMatrix.parse("- +\n+ +"))
    Traceback (most recent call last):
    ...
    gridperms.graphs.NotPartialMultiplicationError: negative cycle x1 y1 x2 y2
    """
    graph = row_column_graph(matrix)
    adjacency: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in graph.vertices}
    for xv, yv, sign in graph.edges:
        adjacency[xv].append((yv, sign))
        adjacency[yv].append((xv, sign))

    signs: dict[Vertex, int] = {}
    for root in graph.vertices:
        if root in signs:
            continue
        signs[root] = 1
        path = [root]
        branches = [iter(adjacency[root])]
        while path:
            v = path[-1]
            for w, edge_sign in branches[-1]:
                wanted = signs[v] * edge_sign
                if w not in signs:
                    signs[w] = wanted
                    path.append(w)
                    branches.append(iter(adjacency[w]))
                    break
                if signs[w] != wanted:
                    # No cross edges in an undirected DFS: w is on the path.
                    raise NotPartialMultiplicationError(tuple(path[path.index(w):]))
            else:
                path.pop()
                branches.pop()

    return SignAssignment(
        tuple(signs[("x", k)] for k in range(1, matrix.t + 1)),
        tuple(signs[("y", l)] for l in range(1, matrix.u + 1)),
    )


def has_negative_cycle(matrix: GridMatrix) -> bool:
    """Whether some cycle of the row-column graph has sign -1, i.e. whether
    no sign assignment exists."""
    try:
        find_signs(matrix)
    except NotPartialMultiplicationError:
        return True
    return False
