"""Word codec for grid classes with a sign assignment.

Words over the alphabet of nonzero cells encode gridded permutations: the
j-th letter names the cell that receives the j-th entry, and the column and
row signs dictate where within each column and row the new entry lands.
Decoding reverses this for a given gridded permutation by reading off the
per-column and per-row orders in which entries must have been inserted and
merging them into one linear order.  The merge is conflict-free whenever the
matrix's row-column graph is a forest; otherwise the orders can disagree,
which ``decode`` reports as InconsistentOrdersError.

Containment of gridded permutations corresponds to the subword order on
words, which is what makes word images useful for sweeping grid classes.
"""
from collections import deque
from heapq import heappop, heappush
from itertools import accumulate

from .graphs import SignAssignment
from .gridding import Gridding, GriddedPermutation, _bands
from .matrices import Cell, GridMatrix
from .perms import Permutation, _ints

Letter = Cell  # (column, row) of a nonzero cell
Word = tuple[Letter, ...]


class InconsistentOrdersError(Exception):
    """The row and column orders admit no common linear extension."""


def alphabet(matrix: GridMatrix) -> frozenset[Letter]:
    """The letters available to words over this matrix: its nonzero cells."""
    return frozenset(matrix.nonzero_cells())


def parse_word(text: str) -> Word:
    """Parse whitespace-separated ``k,l`` pairs, e.g. ``3,1 3,1 2,2``.

    >>> parse_word("3,1 3,1 2,2")
    ((3, 1), (3, 1), (2, 2))
    >>> parse_word("")
    ()
    """
    letters = []
    for token in text.split():
        fields = token.split(",")
        if len(fields) != 2:
            raise ValueError(f"cannot parse letter from {token!r}")
        k, l = _ints(fields, "letter", token)
        if k < 1 or l < 1:
            raise ValueError(f"letter coordinates must be positive: {token!r}")
        letters.append((k, l))
    return tuple(letters)


def format_word(word: Word) -> str:
    """Render a word as the whitespace-separated ``k,l`` pairs ``parse_word`` reads."""
    return " ".join(f"{k},{l}" for k, l in word)


def _check_signs(matrix: GridMatrix, signs: SignAssignment) -> None:
    if not signs.verify(matrix):
        raise ValueError("sign assignment does not match the matrix")


def encode(matrix: GridMatrix, signs: SignAssignment, word: Word) -> GriddedPermutation:
    """The gridded permutation spelled out by a word.

    Letter j = (k, l) contributes the entry of cell (k, l) that is j-th
    oldest there.  Within column k the entries of later letters go to the
    right if c_k = +1 and to the left if c_k = -1; within row l the entries
    of later letters go above if r_l = +1 and below if r_l = -1.  Column
    divisions fall out of the per-column letter counts, rows likewise.
    """
    _check_signs(matrix, signs)
    letters = alphabet(matrix)
    for letter in word:
        if letter not in letters:
            raise ValueError(f"letter {letter} is not a nonzero cell of the matrix")

    entries, cols, rows = _spell(word, signs)
    # GriddedPermutation re-validates the cell conditions on construction.
    return GriddedPermutation(Permutation(entries), matrix, Gridding(cols, rows))


def _spell(
    word: Word, signs: SignAssignment
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The entries of the permutation and the column and row divisions that
    a word spells.  Nothing is checked: ``encode`` validates first, and the
    word sweep checks the cell conditions of every image it keeps.
    """
    # each column's and each row's letter positions, in word order
    by_column: list[list[int]] = [[] for _ in signs.col_signs]
    by_row: list[list[int]] = [[] for _ in signs.row_signs]
    for j, (k, l) in enumerate(word):
        by_column[k - 1].append(j)
        by_row[l - 1].append(j)
    # Rows bottom to top give the letters their values and columns left to
    # right the index order, each band in word order if its sign is +1.
    value_of = [0] * len(word)
    value = 0
    for band, sign in zip(by_row, signs.row_signs):
        for j in (band if sign == 1 else reversed(band)):
            value += 1
            value_of[j] = value
    entries = tuple([value_of[j] for band, sign in zip(by_column, signs.col_signs)
                     for j in (band if sign == 1 else reversed(band))])
    return (entries, tuple(accumulate(map(len, by_column), initial=1)),
            tuple(accumulate(map(len, by_row), initial=1)))


def _slots(letter: Letter, signs: SignAssignment) -> tuple[int, int]:
    """The column and row division slots that give the index and value of
    the entry the letter (k, l) appends (_extend): k and l where c_k and r_l
    are +1, ending column k and topping row l, else k - 1 and l - 1."""
    (k, l), c, r = letter, signs.col_signs, signs.row_signs
    return k - (c[k - 1] == -1), l - (r[l - 1] == -1)


_RANGE = bytes(range(256))
# Per value v, the translation that moves each byte at or above v up one
# (255, which has no room, to 0) and v as one byte.
_BUMP = [(_RANGE[:v] + _RANGE[v + 1:] + _RANGE[:1], _RANGE[v:v + 1]) for v in range(256)]


def _extend(entries: bytes, index: int, value: int) -> bytes:
    """The entries ``_spell`` gives for a word with one more letter, as bytes,
    given what it gives for the word and the new entry's index and value:
    values at or above it move up one, in one C-level translation, and the
    value is spliced in at the index.  Bytes hold values up to 255.  The
    divisions grow by _grow, one band at a time."""
    bump, byte = _BUMP[value]
    grown = entries.translate(bump)
    return grown[:index - 1] + byte + grown[index - 1:]


def _grow(divisions: tuple[int, ...], band: int) -> tuple[int, ...]:
    """The column (or row) divisions ``_spell`` gives for a word with a letter
    in this column (or row) appended, given what it gives for the word: those
    after the band grow by one, and one past the last none."""
    return divisions[:band] + tuple([d + 1 for d in divisions[band:]])


def subword_leq(v: Word, w: Word) -> bool:
    """Whether v occurs in w as a not-necessarily-contiguous subword."""
    it = iter(w)
    return all(letter in it for letter in v)


def row_col_orders(
    gp: GriddedPermutation, signs: SignAssignment
) -> dict[tuple[str, int], tuple[int, ...]]:
    """The insertion order of entries within each column and each row.

    Keys are ("col", k) and ("row", l); each maps to the values of that
    band's entries, oldest first.  In column k entries were inserted left to
    right when c_k = +1 and right to left when c_k = -1, so the order lists
    them by index, ascending or descending.  Row orders list values of a
    band ascending or descending as r_l is +1 or -1.
    """
    _check_signs(gp.matrix, signs)
    entries, g = gp.perm.entries, gp.gridding
    # a sign of -1 reverses its band: sign is the slice's step
    orders: dict[tuple[str, int], tuple[int, ...]] = {}
    for k, sign in enumerate(signs.col_signs, 1):
        orders[("col", k)] = entries[g.cols[k - 1] - 1 : g.cols[k] - 1][::sign]
    for l, sign in enumerate(signs.row_signs, 1):
        orders[("row", l)] = tuple(range(g.rows[l - 1], g.rows[l]))[::sign]
    return orders


def decode(gp: GriddedPermutation, signs: SignAssignment) -> Word:
    """A word that encodes back to the given gridded permutation.

    Merges the row and column orders into one linear order on the entries
    and reads off each entry's cell.  An entry comes next when it heads both
    its column's and its row's order; among such entries the one with the
    least index goes first, so the output is deterministic.  Distinct valid
    words can exist (letters of independent cells commute), so round trips
    are stable at the gridded-permutation level, not the word level.

    Raises InconsistentOrdersError when the orders conflict, which can only
    happen if the matrix's row-column graph has a cycle.
    """
    orders = row_col_orders(gp, signs)
    g = gp.gridding
    row_of = _bands(g.rows)
    columns = [deque(orders[("col", k)]) for k in range(1, g.t + 1)]
    rows = [deque(orders[("row", l)]) for l in range(1, g.u + 1)]
    col_of = {value: k for k, column in enumerate(columns) for value in column}
    # An entry is ready when it heads both its column and its row.  The least
    # ready entry heads the least column that has one, since the columns are
    # consecutive index bands, so a heap of those columns yields it.  Taking
    # an entry changes only its column's head and its row's, so only those
    # two columns can turn ready, and no column enters the heap twice.
    heap = [k for k, column in enumerate(columns)
            if column and rows[row_of[column[0] - 1]][0] == column[0]]
    word = []
    while heap:
        k = heappop(heap)
        column = columns[k]
        l = row_of[column.popleft() - 1]
        row = rows[l]
        row.popleft()
        word.append((k + 1, l + 1))
        if column and rows[row_of[column[0] - 1]][0] == column[0]:
            heappush(heap, k)
        if row and (c := col_of[row[0]]) != k and columns[c][0] == row[0]:
            heappush(heap, c)
    if len(word) < len(gp.perm):
        raise InconsistentOrdersError(
            "row and column orders have no common linear extension"
        )
    return tuple(word)
