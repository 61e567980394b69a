"""Exhaustive desk-scale sweeps of grid classes.

Two independent pipelines generate class members.  ``enumerate_class``
walks the insertion tree: grid classes are closed under deletion, so every
length-n member is a length-(n-1) member with the value n inserted, and
only those one-point extensions go through the gridding search.
``enumerate_via_words`` encodes the lexicographic normal forms of traces:
letters whose cells share neither a column nor a row commute without
changing the encoded gridded permutation, so one word per commutation
class suffices.  For matrices whose row-column graph is a forest the two
agree; comparing them is the main cross-check this module exists for.
Both refuse to start when their unpruned tree would have more than
SWEEP_BUDGET leaves: n! for the insertion tree, |alphabet| ** n for words.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

from .codec import Letter, Word, alphabet, encode
from .graphs import SignAssignment
from .gridding import in_grid_class
from .matrices import GridMatrix
from .perms import Permutation

SWEEP_BUDGET = 3 * 10**6


class LimitExceededError(Exception):
    """The requested sweep is larger than SWEEP_BUDGET allows."""


def _admit(n: int, widths: Iterable[int]) -> None:
    """Refuse a negative length, or a sweep whose unpruned tree, with
    widths giving each level's branching, has more than SWEEP_BUDGET leaves.
    The product stops once it passes the budget or reaches 0 (an empty
    alphabet), so any n is decided at once unless every width is 1.
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    leaves = 1
    for width in widths:
        leaves *= width
        if leaves > SWEEP_BUDGET:
            raise LimitExceededError(
                f"a length-{n} sweep has more than {SWEEP_BUDGET} unpruned leaves"
            )
        if not leaves:
            return


def _class_levels(matrix: GridMatrix, n_max: int) -> Iterator[list[Permutation]]:
    """The members of lengths 0, 1, ..., n_max, one list per length.

    Level n inserts the value n at every position of every level-(n-1)
    member and keeps the candidates in the class.  Deleting n from a
    candidate recovers its parent and position, so no candidate repeats.
    """
    level = [Permutation(())]
    yield level
    for n in range(1, n_max + 1):
        children = []
        for parent in level:
            entries = parent.entries
            for j in range(n):
                child = Permutation(entries[:j] + (n,) + entries[j:])
                if in_grid_class(child, matrix):
                    children.append(child)
        level = children
        yield level


def enumerate_class(matrix: GridMatrix, n: int) -> set[Permutation]:
    """All length-n members of the matrix's grid class.

    Grows the class length by length through one-point insertions, so the
    gridding search sees at most n times the previous level.  Lengths with
    n! > SWEEP_BUDGET are refused before any work.
    """
    _admit(n, range(1, n + 1))
    *_, members = _class_levels(matrix, n)
    return set(members)


def _extends_normal_form(word: Word, letter: Letter) -> bool:
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
    the image set is that of all |alphabet| ** n words.  Lengths with
    |alphabet| ** n > SWEEP_BUDGET are refused before any work.
    """
    letters = sorted(alphabet(matrix))
    _admit(n, (len(letters) for _ in range(n)))
    images = set()
    # Depth-first over normal forms with an explicit stack, so long words
    # cannot exhaust the interpreter's recursion limit.
    stack: list[Word] = [()]
    while stack:
        word = stack.pop()
        if len(word) == n:
            images.add(encode(matrix, signs, word).perm)
            continue
        for letter in letters:
            if _extends_normal_form(word, letter):
                stack.append(word + (letter,))
    return images


def counting_sequence(matrix: GridMatrix, n_max: int) -> tuple[int, ...]:
    """Class sizes at lengths 1..n_max.

    One walk of the insertion tree gives every length.  An n_max that
    enumerate_class would refuse is refused before any work.

    >>> counting_sequence(GridMatrix.parse("+ +"), 3)
    (1, 2, 5)
    """
    _admit(n_max, range(1, n_max + 1))
    return tuple(len(level) for level in _class_levels(matrix, n_max))[1:]
