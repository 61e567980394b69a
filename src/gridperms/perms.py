"""Permutations in one-line notation: patterns, containment, windows.

A permutation of length n is written as the sequence of its values
pi(1), ..., pi(n), each of 1..n appearing exactly once.  All values are
immutable and all functions are pure, so everything here is safe to share
between threads.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence

from ._value import Value


class Permutation(Value):
    """A permutation of {1, ..., n} in one-line notation.

    ``entries`` holds the values pi(1), ..., pi(n), stored as ints: any
    integer type is accepted and anything else raises TypeError.  The empty
    permutation (n = 0) is allowed.  The sweeps build one per image, so the
    validated field is stored here, without a call to ``Value.__init__``.

    >>> Permutation((2, 1, 3))
    Permutation(entries=(2, 1, 3))
    >>> len(Permutation(()))
    0
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]) -> None:
        entries = tuple(map(operator.index, entries))
        n = len(entries)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "empty"
        if len(self.entries) <= 9:
            return "".join(str(v) for v in self.entries)
        return " ".join(str(v) for v in self.entries)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation.

        Accepts whitespace- or comma-separated positive integers
        (``"1 3 6 8 5 4 7 9 2"``), the compact digit form (``"136854792"``,
        only for length <= 9), and ``"empty"`` for the empty permutation.
        An empty comma-separated field (``"2,,1"``, ``",1"``) is an error.
        """
        text = text.strip()
        if text in ("", "empty"):
            return cls(())
        if any(not field.strip() for field in text.split(",")):
            raise ValueError(f"cannot parse permutation from {text!r}")
        tokens = text.replace(",", " ").split()
        if len(tokens) == 1 and len(tokens[0]) > 1:
            token = tokens[0]
            if not (token.isascii() and token.isdecimal()):
                raise ValueError(f"cannot parse permutation from {text!r}")
            if len(token) > 9:
                raise ValueError(
                    f"digit form only allowed for length <= 9, got {len(token)} digits; "
                    "use separated values"
                )
            return cls(tuple(int(ch) for ch in token))
        return cls(_ints(tokens, "permutation", text))


def _ints(fields: Sequence[str], what: str, text: str) -> tuple[int, ...]:
    """The fields as ints, the one integer reader of every text format: a field
    that is not an optional ``-`` and ASCII digits, or is past ``int``'s digit
    limit, raises ValueError("cannot parse <what> from '<text>'")."""
    try:
        if all(field.isascii() and field.removeprefix("-").isdigit() for field in fields):
            return tuple(map(int, fields))
    except ValueError:
        pass
    raise ValueError(f"cannot parse {what} from {text!r}")


def pattern_of(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to a sequence of distinct integers.

    Each value is replaced by its rank within the sequence (smallest -> 1).

    >>> pattern_of((9, 1, 6, 7, 2)).entries
    (5, 1, 3, 4, 2)
    >>> pattern_of((5, 4, 2)).entries
    (3, 2, 1)
    """
    values = tuple(values)
    if len(set(values)) != len(values):
        raise ValueError(f"values are not distinct: {values}")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(rank[v] for v in values))


def containment_witness(
    pi: Permutation, sigma: Permutation
) -> tuple[int, ...] | None:
    """Lexicographically least index set witnessing sigma inside pi, or None.

    The returned 1-based indices I satisfy
    ``pattern_of([pi(i) for i in I]) == sigma``.  The search backtracks over
    candidate indices in ascending order, pruning any candidate whose value
    breaks an order relation with an already-chosen entry, so the first
    complete assignment found is the lexicographically least witness.  The
    chosen indices are the stack, so no pattern length hits a recursion limit.
    Each candidate index tried is one step of ``gridding.SEARCH_BUDGET``, read
    at call time: the step past it raises LimitExceededError, whose message
    names the candidates tried, so every search costs bounded work.
    """
    from . import gridding  # at call time: gridding imports this module
    budget, tried = gridding.SEARCH_BUDGET, 0
    n, k = len(pi), len(sigma)
    p = pi.entries
    s = sigma.entries
    chosen: list[int] = []
    i = 1
    while len(chosen) < k:
        m = len(chosen)
        # leave room for the k - m - 1 indices still to come
        if i <= n - k + m + 1:
            tried += 1
            if tried > budget:
                raise gridding.LimitExceededError(
                    f"a length-{k} pattern search in length {n} tried {tried} candidates")
            v = p[i - 1]
            if all((v > p[j - 1]) == (s[m] > s[q]) for q, j in enumerate(chosen)):
                chosen.append(i)
            i += 1
        elif chosen:
            i = chosen.pop() + 1
        else:
            return None
    return tuple(chosen)


def contains(pi: Permutation, sigma: Permutation) -> bool:
    """Whether pi has a subsequence order-isomorphic to sigma.  Raises
    LimitExceededError as containment_witness does, past the search budget.

    >>> contains(Permutation((3, 9, 1, 8, 6, 7, 4, 5, 2)),
    ...          Permutation((5, 1, 3, 4, 2)))
    True
    >>> contains(Permutation((1, 2, 3)), Permutation((3, 2, 1)))
    False
    """
    return containment_witness(pi, sigma) is not None


def window(
    pi: Permutation,
    x_interval: tuple[int, int],
    y_interval: tuple[int, int],
) -> Permutation:
    """The pattern of pi's entries with index in ``x_interval`` and value in
    ``y_interval``.

    Both intervals are inclusive pairs (lo, hi) of positions/values in 1..n,
    integers of any integer type; anything else raises TypeError.  An
    interval with lo > hi selects nothing.

    >>> window(Permutation((1, 3, 6, 8, 5, 4, 7, 9, 2)), (5, 9), (1, 5)).entries
    (3, 2, 1)
    """
    n = len(pi)
    (x_lo, x_hi), (y_lo, y_hi) = intervals = [
        tuple(map(operator.index, bounds)) for bounds in (x_interval, y_interval)
    ]
    for lo, hi in intervals:
        if not (1 <= lo <= n and 1 <= hi <= n):
            raise ValueError(
                f"interval bounds ({lo}, {hi}) outside 1..{n} for a length-{n} permutation"
            )
    selected = [
        v
        for i, v in enumerate(pi.entries, start=1)
        if x_lo <= i <= x_hi and y_lo <= v <= y_hi
    ]
    return pattern_of(selected)
