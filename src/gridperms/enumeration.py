"""Exhaustive desk-scale sweeps of grid classes.

Two independent pipelines generate class members: filtering all n!
permutations through the gridding search, and encoding all length-n words
over the cell alphabet.  For matrices whose row-column graph is a forest
the two agree; comparing them is the main cross-check this module exists
for.  Both refuse to start when the search space exceeds a cap.
"""
from __future__ import annotations

from itertools import permutations, product

from .codec import alphabet, encode
from .graphs import SignAssignment
from .gridding import in_grid_class
from .matrices import GridMatrix
from .perms import Permutation

FACTORIAL_CAP = 9
WORD_BUDGET = 10**7


class LimitExceededError(Exception):
    """The requested sweep is larger than its module constant allows."""


def _require_factorial_cap(n: int) -> None:
    if n > FACTORIAL_CAP:
        raise LimitExceededError(f"n = {n} exceeds the factorial cap {FACTORIAL_CAP}")


def enumerate_class(matrix: GridMatrix, n: int) -> set[Permutation]:
    """All length-n members of the matrix's grid class.

    Filters the n! permutations of length n through the gridding search,
    so this is exhaustive but only viable for n up to FACTORIAL_CAP.
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    _require_factorial_cap(n)
    return {
        pi
        for entries in permutations(range(1, n + 1))
        if in_grid_class(pi := Permutation(entries), matrix)
    }


def enumerate_via_words(
    matrix: GridMatrix, signs: SignAssignment, n: int
) -> set[Permutation]:
    """Images of all length-n words under the encoder.

    Distinct words may encode the same permutation; the result is the set
    of distinct images.  The sweep has |alphabet| ** n words and refuses to
    exceed WORD_BUDGET.
    """
    if n < 0:
        raise ValueError(f"length must be nonnegative: {n}")
    letters = sorted(alphabet(matrix))
    if len(letters) ** n > WORD_BUDGET:
        raise LimitExceededError(
            f"{len(letters)} ** {n} words exceed the budget {WORD_BUDGET}"
        )
    return {encode(matrix, signs, word).perm for word in product(letters, repeat=n)}


def counting_sequence(matrix: GridMatrix, n_max: int) -> tuple[int, ...]:
    """Class sizes at lengths 1..n_max, e.g. (1, 2, 5) for a 1x2 all-ones
    matrix.  An n_max over FACTORIAL_CAP is refused before any work."""
    _require_factorial_cap(n_max)
    return tuple(len(enumerate_class(matrix, n)) for n in range(1, n_max + 1))
