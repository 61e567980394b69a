"""Griddings: cutting a permutation's plot into cells that match a matrix.

A gridding of a length-n permutation for a t x u matrix is a pair of weakly
increasing division sequences, 1 = c_1 <= ... <= c_(t+1) = n+1 over indices
and 1 = r_1 <= ... <= r_(u+1) = n+1 over values.  Column k spans indices
[c_k, c_(k+1)) and row l spans values [r_l, r_(l+1)), so consecutive equal
divisions make empty columns or rows.  The gridding is valid for a matrix
when every cell's entries are increasing, decreasing, or absent as the
matrix entry is 1, -1, or 0.

``find_gridding`` tries every row division under each column division.
``in_grid_class`` runs a threshold pass instead: with the columns fixed, a
backward pass over the values grows each row's band downward from the start
of the row above while its cells stay valid, keeping the lowest index seen
in each increasing cell and the highest in each decreasing one.  That finds
the least row divisions in O(n + t*u) steps per column division.  As it
needs only existence, ``in_grid_class`` runs the pass on the transposed
problem: it tries each row division and finds the least column divisions.

Every exhaustive search in the package first admits its unpruned tree: one
with more than SEARCH_BUDGET nodes raises LimitExceededError before any work.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .matrices import Cell, GridMatrix
from .perms import Permutation

SEARCH_BUDGET = 3 * 10**6


class LimitExceededError(Exception):
    """The requested search is larger than SEARCH_BUDGET allows."""


def _admit(n: int, runs: Iterable[tuple[int, int]]) -> None:
    """Refuse a negative length, or a length-n search whose unpruned tree
    has more than SEARCH_BUDGET nodes.  ``runs`` lists the tree's levels from
    the root down as (width, depth): depth levels whose nodes each have width
    children.  Unit widths are counted at once and other runs stop once the
    count passes the budget or a level is empty, so any n is decided at once.
    """
    if n < 0:
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


@dataclass(frozen=True)
class Gridding:
    """Division sequences; ``cols[k-1]`` is c_k and ``rows[l-1]`` is r_l."""

    cols: tuple[int, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cols", tuple(int(c) for c in self.cols))
        object.__setattr__(self, "rows", tuple(int(r) for r in self.rows))
        for name, divisions in (("cols", self.cols), ("rows", self.rows)):
            if len(divisions) < 2:
                raise ValueError(f"{name} needs at least two divisions")
            if divisions[0] != 1:
                raise ValueError(f"{name} must start at 1: {divisions}")
            if any(a > b for a, b in zip(divisions, divisions[1:])):
                raise ValueError(f"{name} must be weakly increasing: {divisions}")
        if self.cols[-1] != self.rows[-1]:
            raise ValueError(
                f"column and row divisions must share the endpoint n+1: "
                f"{self.cols[-1]} != {self.rows[-1]}"
            )

    @property
    def t(self) -> int:
        return len(self.cols) - 1

    @property
    def u(self) -> int:
        return len(self.rows) - 1

    @property
    def n(self) -> int:
        return self.cols[-1] - 1

    def cell_of(self, index: int, value: int) -> Cell:
        """The cell (k, l) whose index and value ranges cover the point."""
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
            try:
                parts[key] = tuple(int(v) for v in values.split(","))
            except ValueError:
                raise ValueError(f"cannot parse gridding from {text!r}") from None
        if set(parts) != {"cols", "rows"}:
            raise ValueError(f"cannot parse gridding from {text!r}")
        return cls(parts["cols"], parts["rows"])

    def format(self) -> str:
        cols = ",".join(str(c) for c in self.cols)
        rows = ",".join(str(r) for r in self.rows)
        return f"cols={cols} rows={rows}"

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class GriddedPermutation:
    """A permutation with a gridding that is valid for ``matrix``."""

    perm: Permutation
    matrix: GridMatrix
    gridding: Gridding

    def __post_init__(self) -> None:
        if not check_gridding(self.perm, self.matrix, self.gridding):
            raise ValueError(
                f"{self.gridding} is not a valid gridding of {self.perm} "
                f"for the matrix"
            )

    def cell_of(self, index: int) -> Cell:
        """The cell holding the entry at the given index."""
        return self.gridding.cell_of(index, self.perm.entries[index - 1])

    def __str__(self) -> str:
        return f"{self.perm} ({self.gridding})"


def _require_shape(pi: Permutation, matrix: GridMatrix, g: Gridding) -> None:
    if g.t != matrix.t or g.u != matrix.u:
        raise ValueError(
            f"gridding shape {g.t}x{g.u} does not match matrix {matrix.t}x{matrix.u}"
        )
    if g.n != len(pi):
        raise ValueError(f"divisions end at {g.n + 1}, expected {len(pi) + 1}")


def check_gridding(pi: Permutation, matrix: GridMatrix, g: Gridding) -> bool:
    """Whether g is a valid gridding of pi for the matrix.

    Valid means each cell (k, l) of the grid holds an increasing sequence if
    entry(k, l) = 1, a decreasing one if -1, and nothing if 0.  Malformed
    divisions (wrong shape or endpoint) raise ValueError; a well-formed
    gridding that violates a cell condition just returns False.
    """
    _require_shape(pi, matrix, g)
    return _cells_valid(pi.entries, matrix.columns, _bands(g.cols), g.rows)


def _bands(divisions: tuple[int, ...]) -> list[int]:
    """The 0-based band of each position 1..n under the divisions."""
    bands: list[int] = []
    for band, (start, stop) in enumerate(zip(divisions, divisions[1:])):
        bands += [band] * (stop - start)
    return bands


def _cells_valid(
    entries: tuple[int, ...],
    columns: tuple[tuple[int, ...], ...],
    col_of: list[int],
    rows: tuple[int, ...],
) -> bool:
    """The cell condition for every point, given the 0-based column of each
    index and the row divisions; ``columns`` is ``GridMatrix.columns``."""
    u = len(columns[0])
    # One ascending-index pass: within a cell, indices arrive in order, so
    # comparing against the previous value seen there settles monotonicity.
    # Values are at least 1, so 0 marks a cell with nothing seen yet.
    last_seen = [0] * (len(columns) * u)
    for k, value in zip(col_of, entries):
        l = bisect_right(rows, value) - 1
        entry = columns[k][l]
        if entry == 0:
            return False
        cell = k * u + l
        previous = last_seen[cell]
        if previous and (value > previous) != (entry == 1):
            return False
        last_seen[cell] = value
    return True


def _division_sequences(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weakly increasing sequences 1 = d_1 <= ... <= d_(parts+1) = n+1,
    in lexicographic order."""
    for middle in combinations_with_replacement(range(1, n + 2), parts - 1):
        yield (1,) + middle + (n + 1,)


def _gridding_runs(n: int, matrix: GridMatrix) -> list[tuple[int, int]]:
    """The runs of the length-n gridding search tree: one level of column
    divisions, then one of row divisions under each."""
    return [(comb(n + parts - 1, parts - 1), 1) for parts in (matrix.t, matrix.u)]


def find_gridding(pi: Permutation, matrix: GridMatrix) -> Gridding | None:
    """The lexicographically least valid gridding of pi, or None.

    Searches column divisions in lexicographic order with row divisions
    innermost, so the first hit is the least (cols, rows) pair.  Exhaustive:
    None means no gridding exists.  Raises LimitExceededError before any
    work when this tree of column and row divisions has more than
    SEARCH_BUDGET nodes.
    """
    n = len(pi)
    _admit(n, _gridding_runs(n, matrix))
    for cols in _division_sequences(n, matrix.t):
        col_of = _bands(cols)
        for rows in _division_sequences(n, matrix.u):
            if _cells_valid(pi.entries, matrix.columns, col_of, rows):
                return Gridding(cols, rows)
    return None


def _least_rows(
    index_of: tuple[int, ...],
    matrix_rows: tuple[tuple[int, ...], ...],
    col_of: list[int],
) -> tuple[int, ...] | None:
    """The least row divisions that make a valid gridding with the given
    columns, or None when there are none.  ``index_of`` is the inverse of
    the permutation's entries, ``matrix_rows[l-1][k-1]`` is entry (k, l) and
    ``col_of`` is the 0-based column of each index.

    Rows are gridded from the top down: row l takes values downward from the
    start of row l+1 while its cells stay valid, at O(1) per value.  As
    shrinking a band never breaks a cell, its start is then the least from
    which rows l..u can be gridded.  Every valid gridding starts each row at
    or above these starts, and they weakly increase, so they are the least
    row divisions when row 1 starts at 1.
    """
    n = len(index_of)
    rows = [1] * len(matrix_rows) + [n + 1]
    value = n
    for l in range(len(matrix_rows) - 1, -1, -1):
        signs = matrix_rows[l]
        # Values arrive in descending order, so an increasing cell needs each
        # new index below the lowest seen and a decreasing one above the
        # highest: keys sign * index must fall.  A zero cell's key 0 never
        # falls below its bound 0.
        bound = [n + 1 if sign == 1 else 0 for sign in signs]
        while value:
            index = index_of[value - 1]
            k = col_of[index - 1]
            key = signs[k] * index
            if key >= bound[k]:
                break
            bound[k] = key
            value -= 1
        else:
            return tuple(rows)
        rows[l] = value + 1
    return None


def in_grid_class(pi: Permutation, matrix: GridMatrix) -> bool:
    """Whether pi has any valid gridding for the matrix.

    Admits the same search as find_gridding, then searches the transposed
    problem: the griddings of pi for the matrix are those of the inverse of
    pi for the transpose, with columns and rows swapped.  The inverse of the
    inverse is pi itself and the transpose's rows are the matrix's columns,
    so each row division of pi is given to _least_rows as it is.
    """
    n = len(pi)
    _admit(n, _gridding_runs(n, matrix))
    for rows in _division_sequences(n, matrix.u):
        if _least_rows(pi.entries, matrix.columns, _bands(rows)) is not None:
            return True
    return False
