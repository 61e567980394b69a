"""The benchmark's own reference code, independent of the gridperms package.

Cells are (column, row) pairs, 1-based from the bottom-left as in gridperms.
Everything follows the definitions in the package README, re-derived from
scratch so that the benchmark can build inputs and check answers without
trusting the code it measures.  Nothing here imports gridperms.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement, permutations, product

TOKENS = {".": 0, "+": 1, "-": -1}


class Matrix:
    """A t x u matrix over {0, 1, -1} parsed from the visual text form;
    ``cells`` maps each nonzero cell to its entry."""

    def __init__(self, text: str):
        rows = [[TOKENS[tok] for tok in line.split()] for line in text.splitlines() if line.strip()]
        self.u = len(rows)
        self.t = len(rows[0])
        # rows[0] is the top row, i.e. row u counted from the bottom
        self.cells = {
            (k, l): rows[self.u - l][k - 1]
            for k in range(1, self.t + 1)
            for l in range(1, self.u + 1)
            if rows[self.u - l][k - 1] != 0
        }
        self.letters = sorted(self.cells)


def signs(m: Matrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Column and row signs with entry(k, l) = c_k * r_l on every nonzero cell.

    Of all valid assignments this takes the lexicographically greatest over
    the vertex order x1..xt, y1..yu, which puts +1 on the least vertex of
    every component of the row-column graph.
    """
    for vector in product((1, -1), repeat=m.t + m.u):
        col, row = vector[: m.t], vector[m.t :]
        if all(col[k - 1] * row[l - 1] == e for (k, l), e in m.cells.items()):
            return col, row
    raise ValueError("matrix has no sign assignment")


def _ranks(groups: list[list[int]], group_signs: tuple[int, ...]) -> dict[int, int]:
    rank, coordinate = 1, {}
    for positions, sign in zip(groups, group_signs):
        for j in positions if sign == 1 else reversed(positions):
            coordinate[j] = rank
            rank += 1
    return coordinate


def encode(m: Matrix, col_signs, row_signs, word) -> tuple[list[int], list[int], list[int]]:
    """(entries, cols, rows) of the gridded permutation a word spells.

    Letter j = (k, l) puts an entry in cell (k, l); within column k later
    letters go right when c_k = +1 and left otherwise, within row l later
    letters go up when r_l = +1 and down otherwise.
    """
    by_col = [[] for _ in range(m.t)]
    by_row = [[] for _ in range(m.u)]
    for j, (k, l) in enumerate(word):
        by_col[k - 1].append(j)
        by_row[l - 1].append(j)
    x, y = _ranks(by_col, col_signs), _ranks(by_row, row_signs)
    entries = [0] * len(word)
    for j in range(len(word)):
        entries[x[j] - 1] = y[j]
    cols, rows = [1], [1]
    for group in by_col:
        cols.append(cols[-1] + len(group))
    for group in by_row:
        rows.append(rows[-1] + len(group))
    return entries, cols, rows


def valid_gridding(m: Matrix, entries, cols, rows) -> bool:
    """Whether (cols, rows) is a well-formed gridding of the permutation and
    every cell is increasing, decreasing or empty as its entry says."""
    n = len(entries)
    for divisions, parts in ((cols, m.t), (rows, m.u)):
        if len(divisions) != parts + 1 or divisions[0] != 1 or divisions[-1] != n + 1:
            return False
        if any(a > b for a, b in zip(divisions, divisions[1:])):
            return False
    last: dict[tuple[int, int], int] = {}
    for index, value in enumerate(entries, start=1):
        cell = (bisect_right(cols, index), bisect_right(rows, value))
        entry = m.cells.get(cell, 0)
        if entry == 0:
            return False
        if cell in last and (value > last[cell]) != (entry == 1):
            return False
        last[cell] = value
    return True


def _divisions(n: int, parts: int):
    for middle in combinations_with_replacement(range(1, n + 2), parts - 1):
        yield (1,) + middle + (n + 1,)


def is_member(m: Matrix, entries) -> bool:
    """Membership by trying every pair of column and row divisions."""
    n = len(entries)
    return any(
        valid_gridding(m, entries, cols, rows)
        for cols in _divisions(n, m.t)
        for rows in _divisions(n, m.u)
    )


def non_members(m: Matrix, n: int) -> list[tuple[int, ...]]:
    """Every length-n permutation outside the class, in lexicographic order."""
    return [p for p in permutations(range(1, n + 1)) if not is_member(m, p)]

