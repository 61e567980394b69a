"""Griddings: cutting a permutation's plot into cells that match a matrix.

A gridding of a length-n permutation for a t x u matrix is a pair of weakly
increasing division sequences, 1 = c_1 <= ... <= c_(t+1) = n+1 over indices
and 1 = r_1 <= ... <= r_(u+1) = n+1 over values.  Column k spans indices
[c_k, c_(k+1)) and row l spans values [r_l, r_(l+1)), so consecutive equal
divisions make empty columns or rows.  The gridding is valid for a matrix
when every cell's entries are increasing, decreasing, or absent as the
matrix entry is 1, -1, or 0.

One band walk, ``_band_start``, decides every cell for ``check_gridding``,
``find_gridding`` and ``in_grid_class``: it walks a band's values down from
its top while each cell's indices keep the order its entry asks for, which
gives the least start the band can have.  A gridding is valid when each
band reaches its division.  ``in_grid_class`` needs only existence: its
``_witness`` tries each row division of pi for a matrix with t >= u, and
``_least_rows`` chains the walk into a threshold pass that completes the
division with the least column divisions in O(n + t*u) steps.  pi lies in
Grid(M) exactly when its inverse lies in Grid(M^T), and no gridding puts a
point in an all-zero line: ``_upright`` drops those lines, then admits every
class search (``_witness``) and orients it, onto the transpose when t < u.

The gridding searches and the three sweeps in ``enumeration`` first admit
their unpruned tree: one with more than SEARCH_BUDGET nodes raises
LimitExceededError.  The gridding searches and the word sweep are refused
before any work; the class sweeps also meter their walk's steps, so they
are refused after bounded work.  Pattern containment (``perms.contains``)
is metered, not admitted: each candidate index it tries is one step.
"""
import operator
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, combinations_with_replacement
from math import comb

from ._value import Value
from .matrices import Cell, GridMatrix
from .perms import Permutation, _ints

SEARCH_BUDGET = 3 * 10**6


class LimitExceededError(Exception):
    """The requested search is larger than SEARCH_BUDGET allows, or a sweep
    would pass the 255 values its byte spellings hold."""


def _admit(n: int, runs: Iterable[tuple[int, int]]) -> None:
    """Refuse a length that is not an integer or is negative, or a length-n
    search whose unpruned tree has more than SEARCH_BUDGET nodes.  ``runs``
    lists the tree's levels from the root down as (width, depth): depth
    levels whose nodes each have width children.  Unit widths are counted at
    once and other runs stop once the count passes the budget or a level is
    empty, so any n is decided at once.
    """
    if operator.index(n) < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    nodes = level = 1
    for width, depth in runs:
        if width == 1:
            nodes += level * depth
        else:
            for _ in range(depth):
                level *= width
                nodes += level
                if nodes > SEARCH_BUDGET or not level:
                    break
        if nodes > SEARCH_BUDGET:
            raise LimitExceededError(
                f"a length-{n} search has more than {SEARCH_BUDGET} nodes"
            )


class Gridding(Value):
    """Division sequences; ``cols[k-1]`` is c_k and ``rows[l-1]`` is r_l."""

    __slots__ = ("cols", "rows")
    cols: tuple[int, ...]
    rows: tuple[int, ...]

    def __init__(self, cols: Iterable[int], rows: Iterable[int]) -> None:
        cols, rows = tuple(map(operator.index, cols)), tuple(map(operator.index, rows))
        for name, divisions in (("cols", cols), ("rows", rows)):
            if len(divisions) < 2:
                raise ValueError(f"{name} needs at least two divisions")
            if divisions[0] != 1:
                raise ValueError(f"{name} must start at 1: {divisions}")
            if any(a > b for a, b in zip(divisions, divisions[1:])):
                raise ValueError(f"{name} must be weakly increasing: {divisions}")
        if cols[-1] != rows[-1]:
            raise ValueError(
                f"column and row divisions must share the endpoint n+1: "
                f"{cols[-1]} != {rows[-1]}"
            )
        super().__init__(cols, rows)

    @property
    def t(self) -> int:
        """Number of columns."""
        return len(self.cols) - 1

    @property
    def u(self) -> int:
        """Number of rows."""
        return len(self.rows) - 1

    @property
    def n(self) -> int:
        """Length of the gridded permutation."""
        return self.cols[-1] - 1

    def cell_of(self, index: int, value: int) -> Cell:
        """The cell (k, l) whose index and value ranges cover the point; both
        coordinates must be integers, and anything else raises TypeError."""
        index, value = operator.index(index), operator.index(value)
        if not 1 <= index <= self.n or not 1 <= value <= self.n:
            raise ValueError(f"point ({index}, {value}) outside 1..{self.n}")
        return bisect_right(self.cols, index), bisect_right(self.rows, value)

    @classmethod
    def parse(cls, text: str) -> "Gridding":
        """Parse the ``cols=1,3,5,10 rows=1,6,10`` form (either order)."""
        parts = {}
        for token in text.split():
            key, _, values = token.partition("=")
            if key not in ("cols", "rows") or key in parts or not values:
                raise ValueError(f"cannot parse gridding from {text!r}")
            parts[key] = _ints(values.split(","), "gridding", text)
        if set(parts) != {"cols", "rows"}:
            raise ValueError(f"cannot parse gridding from {text!r}")
        return cls(parts["cols"], parts["rows"])

    def format(self) -> str:
        """Render in the ``cols=1,3,5,10 rows=1,6,10`` form that ``parse`` reads."""
        cols = ",".join(str(c) for c in self.cols)
        rows = ",".join(str(r) for r in self.rows)
        return f"cols={cols} rows={rows}"

    def __str__(self) -> str:
        return self.format()


class GriddedPermutation(Value):
    """A permutation with a gridding that is valid for ``matrix``."""

    __slots__ = ("perm", "matrix", "gridding")
    perm: Permutation
    matrix: GridMatrix
    gridding: Gridding

    def __init__(self, perm: Permutation, matrix: GridMatrix, gridding: Gridding) -> None:
        if not check_gridding(perm, matrix, gridding):
            raise ValueError(f"{gridding} is not a valid gridding of {perm} for the matrix")
        super().__init__(perm, matrix, gridding)

    def cell_of(self, index: int) -> Cell:
        """The cell holding the entry at the given index, an integer."""
        index = operator.index(index)
        if not 1 <= index <= self.gridding.n:
            raise ValueError(f"index {index} outside 1..{self.gridding.n}")
        return self.gridding.cell_of(index, self.perm.entries[index - 1])

    def __str__(self) -> str:
        return f"{self.perm} ({self.gridding})"


def check_gridding(pi: Permutation, matrix: GridMatrix, g: Gridding) -> bool:
    """Whether g is a valid gridding of pi for the matrix.

    Valid means each cell (k, l) of the grid holds an increasing sequence if
    entry(k, l) = 1, a decreasing one if -1, and nothing if 0.  Malformed
    divisions (wrong shape or endpoint) raise ValueError; a well-formed
    gridding that violates a cell condition just returns False.  The check
    runs on the transposed problem, whose index map is pi itself.
    """
    if g.t != matrix.t or g.u != matrix.u:
        raise ValueError(
            f"gridding shape {g.t}x{g.u} does not match matrix {matrix.t}x{matrix.u}"
        )
    if g.n != len(pi):
        raise ValueError(f"divisions end at {g.n + 1}, expected {len(pi) + 1}")
    return _bands_valid(pi.entries, matrix.columns, _bands(g.rows), g.cols)


def _bands(divisions: tuple[int, ...]) -> list[int]:
    """The 0-based band of each position 1..n under the divisions."""
    bands: list[int] = []
    for band, (start, stop) in enumerate(zip(divisions, divisions[1:])):
        bands += [band] * (stop - start)
    return bands


def _band_start(
    index_of: Sequence[int], line: tuple[int, ...], band_of: list[int], top: int, floor: int
) -> int:
    """The least start, not below ``floor``, of a valid band of values that
    ends before ``top``.  ``index_of[v-1]`` is the index of value v,
    ``band_of`` the 0-based cross band of each index and ``line[k]`` the
    matrix entry of the band's cell in cross band k.

    As values fall, each cell's key must fall below the last one seen there,
    from n + 1: the key is the index in a 1 cell, n + 1 - index in a -1 cell
    and n + 1 in a 0 cell.  Shrinking a band never breaks a cell, so the
    first value that fails bounds every valid start: a top value in a 0 cell
    returns ``top`` before any slot is allocated.
    """
    if top <= floor or not line[band_of[index_of[top - 2] - 1]]:
        return top
    stop = len(index_of) + 1
    last = [stop] * len(line)
    value = top - 1
    while value >= floor:
        index = index_of[value - 1]
        k = band_of[index - 1]
        sign = line[k]
        key = index if sign == 1 else stop + sign * index
        if key >= last[k]:
            break
        last[k] = key
        value -= 1
    return value + 1


def _bands_valid(
    index_of: Sequence[int], lines: tuple[tuple[int, ...], ...], band_of: list[int],
    divisions: tuple[int, ...],
) -> bool:
    """Whether each band of values starts at its division, ``lines[l]``
    being band l's matrix line: the cell condition for every point."""
    for l, line in enumerate(lines):
        floor = divisions[l]
        if _band_start(index_of, line, band_of, divisions[l + 1], floor) != floor:
            return False
    return True


def _division_sequences(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weakly increasing sequences 1 = d_1 <= ... <= d_(parts+1) = n+1,
    in lexicographic order."""
    for middle in combinations_with_replacement(range(1, n + 2), parts - 1):
        yield (1,) + middle + (n + 1,)


def find_gridding(pi: Permutation, matrix: GridMatrix) -> Gridding | None:
    """The lexicographically least valid gridding of pi, or None.

    Searches column divisions in lexicographic order with row divisions
    innermost, so the first hit is the least (cols, rows) pair.  Exhaustive:
    None means no gridding exists.  Raises LimitExceededError before any
    work when this tree of column and row divisions has more than
    SEARCH_BUDGET nodes.

    >>> m = GridMatrix.parse("- +\\n. +\\n+ .")
    >>> print(find_gridding(Permutation((3, 1, 4, 2)), m))
    cols=1,1,5 rows=1,1,3,5
    >>> print(find_gridding(Permutation((2, 1, 4, 3)), m))
    None
    """
    n = len(pi)
    _admit(n, [(comb(n + parts - 1, parts - 1), 1) for parts in (matrix.t, matrix.u)])
    index_of, matrix_rows = _inverse(pi.entries), _transpose(matrix).columns
    for cols in _division_sequences(n, matrix.t):
        col_of = _bands(cols)
        for rows in _division_sequences(n, matrix.u):
            if _bands_valid(index_of, matrix_rows, col_of, rows):
                return Gridding(cols, rows)
    return None


def _least_rows(
    index_of: Sequence[int], matrix_rows: tuple[tuple[int, ...], ...], col_of: list[int]
) -> tuple[int, ...] | None:
    """The least row divisions that make a valid gridding with the given
    columns, or None; ``matrix_rows[l-1][k-1]`` is entry (k, l) and the rest
    is as for _band_start.  Row l walks down from the start of row l+1, so
    its start is the least from which rows l..u can be gridded.  Every valid
    gridding starts each row at or above these weakly increasing starts, so
    they are the least row divisions when row 1 starts at 1.
    """
    start = len(index_of) + 1
    starts = [start]
    for line in reversed(matrix_rows):
        start = _band_start(index_of, line, col_of, start, 1)
        starts.append(start)
    return tuple(reversed(starts)) if start == 1 else None


def _inverse(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The entries of the inverse permutation: the index of each value."""
    index_of = [0] * len(entries)
    for index, value in enumerate(entries, 1):
        index_of[value - 1] = index
    return tuple(index_of)


def _transpose(matrix: GridMatrix) -> GridMatrix:
    """The matrix with columns and rows swapped: entry (k, l) moves to (l, k)."""
    return GridMatrix(tuple(zip(*matrix.columns)))


def _upright(n: int, matrix: GridMatrix) -> tuple[GridMatrix, Callable]:
    """Admit a length-n _witness search on the matrix's nonzero core, its
    all-zero lines dropped unless all are: C = C(n+p-1, p-1) divisions of
    the axis with p = min(t, u) parts, and a pass of n steps under each.
    Give the matrix it runs on, the core or its transpose when t < u, and
    the map from members' entries to searched ones: _inverse or tuple."""
    for _ in range(2):  # the zero columns go, then the zero columns of the transpose
        matrix = GridMatrix(zip(*([c for c in matrix.columns if any(c)] or matrix.columns)))
    # a generator, so that _admit refuses a negative n before comb sees it
    divisions = ((comb(n + p - 1, p - 1), 1) for p in [min(matrix.t, matrix.u)])
    _admit(n, chain(divisions, [(1, n)]))
    if matrix.t < matrix.u:
        return _transpose(matrix), _inverse
    return matrix, tuple


def in_grid_class(pi: Permutation, matrix: GridMatrix) -> bool:
    """Whether pi has any valid gridding for the matrix.

    Raises LimitExceededError before any work when the search for pi's
    length is over SEARCH_BUDGET.

    >>> m = GridMatrix.parse("- +\\n. +\\n+ .")
    >>> in_grid_class(Permutation((3, 1, 4, 2)), m)
    True
    >>> in_grid_class(Permutation((2, 1, 4, 3)), m)
    False
    """
    matrix, orient = _upright(len(pi), matrix)
    return _witness(orient(pi.entries), matrix)[0] is not None


def _witness(
    entries: tuple[int, ...], matrix: GridMatrix,
    hints: Iterable[tuple[tuple[int, ...], list[int]]] = (),
) -> tuple[tuple[int, ...] | None, int]:
    """A row division that _least_rows completes to a valid gridding of the
    permutation pi with these entries for a matrix with t >= u, or None,
    and the number of divisions tried.

    ``hints``, (division, _bands(division)) pairs, go before every division
    in lexicographic order, so they never change the answer; nothing is admitted.
    The griddings of pi for the matrix are those of its inverse for the
    transpose, columns and rows swapped; the inverse's index map is pi and
    the transpose's rows are the matrix's columns, so _least_rows takes each
    row division of pi as it is.
    """
    tried = 0
    for tried, (rows, row_of) in enumerate(hints, 1):
        if _least_rows(entries, matrix.columns, row_of) is not None:
            return rows, tried
    for tried, rows in enumerate(_division_sequences(len(entries), matrix.u), tried + 1):
        if _least_rows(entries, matrix.columns, _bands(rows)) is not None:
            return rows, tried
    return None, tried
