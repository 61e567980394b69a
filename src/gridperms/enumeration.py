"""Exhaustive desk-scale sweeps of grid classes.

Two independent pipelines generate class members.  ``enumerate_class``
walks the insertion tree: grid classes are closed under deletion, so every
length-n member is a length-(n-1) member with the value n inserted, and
only those one-point extensions whose other deletions are all members go
through the gridding search, so it runs only on members and basis elements.
Each member carries the division that admitted it, a child tries its
parent's first, and the search after a miss stays exhaustive.
``enumerate_via_words`` encodes the lexicographic normal forms of traces:
letters whose cells share neither a column nor a row commute without
changing the encoded gridded permutation, so one word per commutation
class suffices.  It spells each image on the shared prefix of its words
through the core that ``encode`` uses and checks it with the cell rule of
``check_gridding``.  For matrices whose row-column graph is a forest the two
agree; comparing them is the main cross-check this module exists for.
Both count their unpruned tree's nodes against ``gridding.SEARCH_BUDGET``
before any work: k! at depth k of the insertion tree, |alphabet| ** k of words.
The class sweep also admits the gridding search of its longest candidates.
"""
from __future__ import annotations

from collections.abc import Iterator

from .codec import Letter, _spell, alphabet
from .graphs import SignAssignment
from .gridding import _admit, _bands, _bands_valid, _gridding_runs, _witness
from .matrices import GridMatrix
from .perms import Permutation


def _class_levels(matrix: GridMatrix, n_max: int) -> Iterator[list[Permutation]]:
    """The members of lengths 0, 1, ..., n_max, one list per length.

    Level n inserts the value n at every position of every level-(n-1)
    member.  Deleting n from a candidate recovers its parent and position,
    so no candidate repeats.  The class is closed under deletion, so a
    candidate with a one-point deletion outside level n-1 is no member; the
    gridding search runs only on candidates whose deletions are all members,
    which are the members and the basis elements of length n.  Each member
    keeps the division that admitted it, and a child tries its parent's,
    moved to the insertion, before the exhaustive search.
    """
    _admit(n_max, ((k, 1) for k in range(1, n_max + 1)))
    _admit(n_max, _gridding_runs(n_max, matrix))
    # _witness searches column divisions when t < u and row divisions
    # otherwise; the empty permutation's divisions are all 1.
    on_columns = matrix.t < matrix.u
    level = [Permutation(())]
    divisions = [(1,) * (min(matrix.t, matrix.u) + 1)]
    yield level
    for n in range(1, n_max + 1):
        members = {parent.entries for parent in level}
        top = (n - 1,)
        children, found = [], []
        for parent, division in zip(level, divisions):
            entries = parent.entries
            # Deleting v from the parent, which holds v at position p; the
            # values above v close the gap.
            deletions = [
                (p, tuple([w - (w > v) for w in entries if w != v]))
                for p, v in enumerate(entries)
            ]
            for j in range(n):
                # Deleting n gives the parent; deleting v < n gives the
                # parent's deletion of v with n - 1 where n sat.
                if all(
                    d[:j - (p < j)] + top + d[j - (p < j):] in members
                    for p, d in deletions
                ):
                    candidate = Permutation(entries[:j] + (n,) + entries[j:])
                    # n joins the top row, or the column holding index j + 1
                    if on_columns:
                        first = tuple(d + (d > j + 1) for d in division[:-1]) + (n + 1,)
                    else:
                        first = division[:-1] + (n + 1,)
                    witness = _witness(candidate, matrix, first)
                    if witness is not None:
                        children.append(candidate)
                        found.append(witness)
        level, divisions = children, found
        yield level


def enumerate_class(matrix: GridMatrix, n: int) -> set[Permutation]:
    """All length-n members of the matrix's grid class.

    Grows the class length by length through one-point insertions, so the
    gridding search sees at most n times the previous level.  Lengths past
    9, and lengths whose gridding search is over the search budget, are
    refused before any work.
    """
    *_, members = _class_levels(matrix, n)
    return set(members)


def _extends_normal_form(word: list[Letter], letter: Letter) -> bool:
    """Whether appending the letter to a lexicographic trace normal form
    gives another one.

    The letter could move left past every trailing letter it commutes with
    (shares neither column nor row with); the word is a normal form only if
    none of those is greater than it (Anisimov-Knuth).
    """
    k, l = letter
    for other in reversed(word):
        if other[0] == k or other[1] == l:
            return True
        if other > letter:
            return False
    return True


def enumerate_via_words(
    matrix: GridMatrix, signs: SignAssignment, n: int
) -> set[Permutation]:
    """Images under the encoder of all length-n words.

    Words equal up to commuting letters encode the same gridded
    permutation, so only the lexicographic trace normal forms are encoded;
    the image set is that of all |alphabet| ** n words.  Signs that do not
    match the matrix, and lengths whose word tree is over the search budget,
    are refused before any work.
    """
    if not signs.verify(matrix):
        raise ValueError("sign assignment does not match the matrix")
    letters = sorted(alphabet(matrix))
    _admit(n, [(len(letters), n)])
    images: set[tuple[int, ...]] = set()
    band_of: dict[tuple[int, ...], list[int]] = {}
    # Depth-first with an explicit stack, so long words cannot exhaust the
    # recursion limit; entries (depth, letter) extend one shared prefix,
    # whose letter positions by_column and by_row keep for _spell.
    word: list[Letter] = []
    by_column: list[list[int]] = [[] for _ in range(matrix.t)]
    by_row: list[list[int]] = [[] for _ in range(matrix.u)]
    stack: list[tuple[int, Letter]] = []
    while True:
        if len(word) == n:
            entries, cols, rows = _spell(by_column, by_row, signs, n)
            if rows not in band_of:
                band_of[rows] = _bands(rows)
            # the cell rule check_gridding runs, so every image is certified
            if not _bands_valid(entries, matrix.columns, band_of[rows], cols):
                raise ValueError(f"{entries} has no valid gridding {cols} x {rows}")
            images.add(entries)
        else:
            stack += [(len(word), x) for x in letters if _extends_normal_form(word, x)]
        if not stack:
            return {Permutation(entries) for entries in images}
        depth, letter = stack.pop()
        while len(word) > depth:
            k, l = word.pop()
            by_column[k - 1].pop()
            by_row[l - 1].pop()
        k, l = letter
        by_column[k - 1].append(depth)
        by_row[l - 1].append(depth)
        word.append(letter)


def counting_sequence(matrix: GridMatrix, n_max: int) -> tuple[int, ...]:
    """Class sizes at lengths 1..n_max.

    One walk of the insertion tree gives every length.  An n_max that
    enumerate_class would refuse is refused before any work.

    >>> counting_sequence(GridMatrix.parse("+ +"), 3)
    (1, 2, 5)
    """
    return tuple(len(level) for level in _class_levels(matrix, n_max))[1:]
