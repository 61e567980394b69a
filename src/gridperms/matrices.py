"""0/+1/-1 grid matrices, indexed (column, row) from the bottom-left corner.

``entry(3, 2)`` is the entry in the 3rd column from the left and 2nd row
from the bottom, so a t x u matrix has t columns and u rows.  The text
format, in contrast, is visual: u lines with the top row first.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping

from ._value import Value

Cell = tuple[int, int]

_TOKEN_TO_ENTRY = {"0": 0, ".": 0, "1": 1, "+": 1, "-1": -1, "-": -1}
_ENTRY_TO_TOKEN = {0: ".", 1: "+", -1: "-"}


class GridMatrix(Value):
    """A t x u matrix over {0, +1, -1}.

    ``columns[k-1][l-1]`` stores entry (k, l); both coordinates are 1-based
    from the bottom-left.  Entries are stored as ints: any integer type is
    accepted and anything else raises TypeError.
    """

    __slots__ = ("columns",)
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, columns: Iterable[Iterable[int]]) -> None:
        columns = tuple(tuple(map(operator.index, col)) for col in columns)
        if not columns or not columns[0]:
            raise ValueError("matrix needs at least one column and one row")
        u = len(columns[0])
        if any(len(col) != u for col in columns):
            raise ValueError("ragged matrix columns")
        for col in columns:
            for e in col:
                if e not in (0, 1, -1):
                    raise ValueError(f"matrix entries must be 0, 1 or -1, got {e}")
        super().__init__(columns)

    @property
    def t(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def u(self) -> int:
        """Number of rows."""
        return len(self.columns[0])

    def entry(self, k: int, l: int) -> int:
        """Entry (k, l); a coordinate that is not an integer raises TypeError."""
        k, l = operator.index(k), operator.index(l)
        if not (1 <= k <= self.t and 1 <= l <= self.u):
            raise ValueError(f"cell ({k}, {l}) outside a {self.t}x{self.u} matrix")
        return self.columns[k - 1][l - 1]

    def nonzero_cells(self) -> tuple[Cell, ...]:
        """All cells (k, l) with a nonzero entry, sorted by column then row."""
        return tuple(
            (k, l)
            for k in range(1, self.t + 1)
            for l in range(1, self.u + 1)
            if self.columns[k - 1][l - 1] != 0
        )

    @classmethod
    def from_cells(cls, t: int, u: int, cells: Mapping[Cell, int]) -> "GridMatrix":
        """Build a t x u matrix from a {(k, l): entry} mapping; missing cells
        are 0.  A coordinate that is not an integer raises TypeError."""
        cells = {(operator.index(k), operator.index(l)): e for (k, l), e in cells.items()}
        for (k, l) in cells:
            if not (1 <= k <= t and 1 <= l <= u):
                raise ValueError(f"cell ({k}, {l}) outside a {t}x{u} matrix")
        return cls(
            tuple(
                tuple(cells.get((k, l), 0) for l in range(1, u + 1))
                for k in range(1, t + 1)
            )
        )

    @classmethod
    def from_rows(cls, rows_top_first: Iterable[Iterable[int]]) -> "GridMatrix":
        """Build from rows in visual orientation (top row first)."""
        rows = [tuple(row) for row in rows_top_first]
        if any(len(row) != len(rows[0]) for row in rows[1:]):
            raise ValueError("ragged matrix rows")
        # the top row is row u counted from the bottom
        return cls(zip(*reversed(rows)))

    @classmethod
    def parse(cls, text: str) -> "GridMatrix":
        """Parse the text format: u lines, top row first, tokens from
        {0, 1, -1} or the aliases {., +, -}."""
        rows = []
        for line in text.splitlines():
            tokens = line.split()
            if not tokens:
                continue
            try:
                rows.append([_TOKEN_TO_ENTRY[tok] for tok in tokens])
            except KeyError as exc:
                raise ValueError(f"bad matrix token {exc.args[0]!r} in line {line!r}") from None
        if not rows:
            raise ValueError("empty matrix text")
        return cls.from_rows(rows)

    def format(self) -> str:
        """Render in the text format (top row first, . + - tokens)."""
        rows = reversed(list(zip(*self.columns)))  # top row first
        return "\n".join(" ".join(_ENTRY_TO_TOKEN[e] for e in row) for row in rows)

    def __str__(self) -> str:
        return self.format()
