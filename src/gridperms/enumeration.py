"""Exhaustive desk-scale sweeps of grid classes.

Two independent pipelines generate class members.  ``enumerate_class``
walks the insertion tree: grid classes are closed under deletion, so every
length-n member is a length-(n-1) member with the value n inserted at one
of its active sites, the indices where that insertion gives a member (as in
Vatter's generating trees).  Each level maps its members to their witness
row divisions and reports its rejected candidates, search passes and the
meter's total, and each member of the level below keeps its active sites
as a bit mask.  An extension goes through the gridding search only when
each of its other deletions is a member, one mask lookup per deleted
value, so the search runs only on members and basis elements.  It
tries the parent's witness division, lifted once per parent, then each
deletion's, lifted by re-inserting the deleted value, and then every
division, so no answer depends on the hints; each distinct hint is banded
once per length.  Members are spelled as bytes, each deletion one C-level
translation and each extension one splice, so the walk refuses length 256.
A matrix with fewer columns than rows is walked as its transpose, whose
members are the class's inverses.
``enumerate_via_words`` encodes the lexicographic normal forms of traces:
letters whose cells share neither a column nor a row commute without
changing the encoded gridded permutation, so one word per commutation class
suffices.  A mask of the letters barred after each prefix admits a letter in
one test.  Spellings ride the stack as bytes: each normal form carries its
entries as a ``bytes`` string and its divisions, so each one is its
parent's with one C-level insertion and one band grown per division.  Bytes
hold values up to 255, so two or more letters are refused past length 255;
an alphabet of at most one letter, or a length n <= 1, has one word, which
goes through ``encode`` itself.  Each distinct image is checked once, with
``check_gridding``'s cell rule, when first spelled: only then are its
divisions grown and banded, once per distinct division, and its
``Permutation`` built.  The walk reports the normal forms it spelled at each
length, one per trace.  For matrices whose row-column graph is a forest the
two agree; comparing them is the main cross-check this module exists for.
Both draw on ``gridding.SEARCH_BUDGET``: the word sweep counts |alphabet| ** k
words at depth k before any work, and the class sweeps orient and admit
their longest candidate's search through ``_upright``, as ``in_grid_class``
does, then meter their walks' steps.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache

from . import gridding
from .codec import _RANGE, Letter, _check_signs, _extend, _grow, _slots, encode
from .graphs import SignAssignment
from .gridding import _bands, _bands_valid, _upright, _witness
from .matrices import GridMatrix
from .perms import Permutation


# Per value v, the translation that deletes v and moves each byte above it down one
_DROP = [(_RANGE[:v + 1] + _RANGE[v:255], _RANGE[v:v + 1]) for v in range(256)]


def _class_levels(
    matrix: GridMatrix, n_max: int
) -> Iterator[tuple[dict[bytes, tuple[int, ...]], list[bytes], int, int]]:
    """One record (members, rejected, passes, steps) per length 0..n_max of
    the class of a matrix with t >= u: each member's entries, as bytes, to
    its witness row division; the searched candidates that are not members,
    the basis elements of that length; the divisions _witness tried there,
    one _least_rows call each; and the meter's running total.  The class is
    closed under deletion, so the walk stops at the first empty level.

    Level n inserts the value n at every active site of every level-(n-1)
    member P; ``sites`` keeps them as a bit mask per member.  Deleting n
    from a candidate recovers its parent and position, so no candidate
    repeats.  The class is closed under deletion, so the candidate with n at
    index j is a member only if, for each value v of P at index p, deleting
    v gives a member: j - (p < j) must be an active site of P less v, one
    mask lookup per (P, v) on one _DROP translation.  The gridding search
    runs only on the candidates that pass, which are the members and the
    basis elements of length n, and tries _hints before the exhaustive
    search, each distinct division banded once per level; the parent's
    division, which every child tries first, is lifted once per parent.

    Callers orient and admit through _upright.  The walk charges n * n steps
    per parent at length n (n - 1 deletion lookups of n - 1 entries, and n
    candidates) and n + u per division _witness tries; the search that takes
    them past SEARCH_BUDGET raises LimitExceededError, as does entering
    length 256, past the bytes' values (the default budget stops at 208).
    """
    budget, steps, u = gridding.SEARCH_BUDGET, 0, matrix.u
    # the empty permutation, gridded with every row empty
    level = {b"": (1,) * (u + 1)}
    sites: dict[bytes, int] = {}
    yield level, [], 0, 0
    for n in range(1, n_max + 1):
        if n > 255:
            raise gridding.LimitExceededError(
                f"a length-{n_max} sweep stops at length {n}: its spellings hold values up to 255")
        members, grown, rejected, passes, band, top = {}, {}, [], 0, cache(_bands), _RANGE[n:n + 1]
        for parent, division in level.items():
            steps += n * n
            # site s of the parent's deletion at index p is open at j = s
            # <= p and at j = s + 1 > p
            open_sites = (1 << n) - 1
            for p, v in enumerate(parent):
                active = sites[parent.translate(*_DROP[v])]
                open_sites &= (active & ((2 << p) - 1)) | (active >> p << (p + 1))
            lifted = [(rows, band(rows)) for rows in _lifts(division, n, n)]
            mask = 0
            for j in range(n):
                if open_sites >> j & 1:
                    child = parent[:j] + top + parent[j:]
                    witness, tried = _witness(child, matrix, _hints(child, lifted, level, band))
                    passes += tried
                    steps += tried * (n + u)
                    if steps > budget:
                        raise gridding.LimitExceededError(
                            f"a length-{n_max} sweep took {steps} steps at length {n}")
                    if witness is None:
                        rejected.append(child)
                    else:
                        mask |= 1 << j
                        members[child] = witness
            grown[parent] = mask
        level, sites = members, grown
        yield level, rejected, passes, steps
        if not level:
            return


def _lifts(division: tuple[int, ...], x: int, n: int) -> Iterator[tuple[int, ...]]:
    """The least and the greatest division of a length-n permutation that
    give ``division`` once its point of value x is deleted: the point joins
    the row above a boundary at x, or the row below it.  Each ends at n + 1,
    and equal ones are given once.
    """
    above = tuple([b + (b > x) for b in division[:-1]]) + (n + 1,)
    yield above
    below = (1,) + tuple([b + (b >= x) for b in division[1:-1]]) + (n + 1,)
    if below != above:
        yield below


def _hints(
    child: bytes, lifted: list[tuple[tuple[int, ...], list[int]]],
    level: dict[bytes, tuple[int, ...]], band: Callable[[tuple[int, ...]], list[int]],
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The divisions a length-n candidate tries first, banded: ``lifted``, its
    parent's witness division lifted at the value n, then the witness in
    ``level`` of each _DROP deletion, in index order, lifted at its value v."""
    n = len(child)
    yield from lifted
    for v in child:
        if v != n:
            for rows in _lifts(level[child.translate(*_DROP[v])], v, n):
                yield rows, band(rows)


def enumerate_class(matrix: GridMatrix, n: int) -> set[Permutation]:
    """All length-n members of the matrix's grid class.

    Grows the class length by length through one-point insertions, so the
    gridding search sees at most n times the previous level.  Raises
    LimitExceededError before any work when the search for a length-n
    candidate is over SEARCH_BUDGET, and after bounded work when the walk's
    steps pass SEARCH_BUDGET or it reaches length 256, past the 255 values
    its byte spellings hold.  A negative n raises ValueError and a
    non-integer n TypeError.
    """
    upright, orient = _upright(n, matrix)
    *_, (members, *_) = _class_levels(upright, n)
    return {Permutation(orient(entries)) for entries in members}


def _trace_masks(letters: tuple[Letter, ...]) -> list[tuple[Letter, int, int, int]]:
    """Per letter a, in order, (a, bit, below, commute): a's bit and the masks
    of the letters less than a and of those sharing neither its column nor
    its row.  A letter that could move left past a greater one may not follow
    a lexicographic trace normal form (Anisimov-Knuth), so appending a turns
    the mask ``blocked`` of such letters into (blocked | below) & commute."""
    return [((k, l), 1 << i, (1 << i) - 1,
             sum(1 << j for j, (x, y) in enumerate(letters) if x != k and y != l))
            for i, (k, l) in enumerate(letters)]


def enumerate_via_words(
    matrix: GridMatrix, signs: SignAssignment, n: int
) -> set[Permutation]:
    """Images under the encoder of all length-n words.

    Words equal up to commuting letters encode the same gridded
    permutation, so only the lexicographic trace normal forms are encoded
    (_word_images); the image set is that of all |alphabet| ** n words.
    With at most one letter, or n <= 1, every word spells the same entries,
    so one goes through ``encode`` itself.  Signs that do not match the
    matrix, lengths whose word tree is over the search budget, and, with two
    or more letters, lengths past the 255 values a spelling's bytes hold are
    refused before any work.
    """
    _check_signs(matrix, signs)
    letters = matrix.nonzero_cells()
    gridding._admit(n, [(len(letters), n)])
    if len(letters) < 2 or n < 2:  # every word spells the same entries
        if n and not letters:
            return set()
        return {encode(matrix, signs, letters[:1] * n).perm}
    if n > 255:
        raise gridding.LimitExceededError(
            f"a length-{n} word sweep stops at length 256: its spellings hold values up to 255")
    images, _ = _word_images(matrix, signs, letters, n)
    return set(images.values())


def _word_images(
    matrix: GridMatrix, signs: SignAssignment, letters: tuple[Letter, ...], n: int
) -> tuple[dict[bytes, Permutation], list[int]]:
    """The length-n normal forms' images over two or more letters, n >= 2,
    each distinct one's entries as bytes to its ``Permutation``, and per
    length k = 0..n the normal forms spelled, one per trace (Cartier-Foata).

    Masks admit each next letter in one test (_trace_masks).  Each normal
    form's spelling rides the stack, its entries as bytes and its divisions
    (no word and no per-column or per-row position lists), and each popped
    one runs one loop over the letters its mask admits: a child is its
    parent's entries with one _extend at its letter's _slots, fixed once per
    call (column k or k - 1, row l or l - 1 under the signs).
    Below length n it is pushed with its divisions grown in one band each
    (_grow, cached per call); at length n only a new image's divisions are
    grown and banded (once per division) and checked with the cell rule
    before the image is built.  Bytes hold values up to 255, so callers
    refuse longer words.
    """
    masks = [(letter, *_slots(letter, signs), *rest) for letter, *rest in _trace_masks(letters)]
    images: dict[bytes, Permutation] = {}
    spelled, band, grow = [1] + [0] * n, cache(_bands), cache(_grow)
    # Depth-first with an explicit stack, so long words cannot exhaust the
    # recursion limit; each item (entries, cols, rows, depth, blocked) spells
    # a normal form of length depth and masks the letters barred after it.
    stack = [(b"", (1,) * (matrix.t + 1), (1,) * (matrix.u + 1), 0, 0)]
    while stack:
        entries, cols, rows, depth, blocked = stack.pop()
        depth += 1
        spelled[depth] += len(masks) - blocked.bit_count()  # one child per letter not barred
        for (k, l), i, v, bit, below, commute in masks:
            if blocked & bit:
                continue
            child = _extend(entries, cols[i], rows[v])
            if depth < n:
                after = (blocked | below) & commute
                stack.append((child, grow(cols, k), grow(rows, l), depth, after))
            elif child not in images:
                child_cols, child_rows = grow(cols, k), grow(rows, l)
                if not _bands_valid(child, matrix.columns, band(child_rows), child_cols):
                    raise ValueError(
                        f"{tuple(child)} has no valid gridding {child_cols} x {child_rows}")
                images[child] = Permutation(child)
    return images, spelled


def counting_sequence(matrix: GridMatrix, n_max: int) -> tuple[int, ...]:
    """Class sizes at lengths 1..n_max.

    One walk of the insertion tree gives every length; the lengths after the
    walk's last level count 0.  Raises LimitExceededError before any work
    when the search for a length-n_max candidate is over SEARCH_BUDGET, and
    after bounded work when the walk's steps pass SEARCH_BUDGET or it
    reaches length 256, past the 255 values its byte spellings hold.  A
    negative n_max raises ValueError and a non-integer n_max TypeError.

    >>> counting_sequence(GridMatrix.parse("+ +"), 3)
    (1, 2, 5)
    """
    levels = _class_levels(_upright(n_max, matrix)[0], n_max)
    counts = tuple(len(members) for members, *_ in levels)[1:]
    return counts + (0,) * (n_max - len(counts))
