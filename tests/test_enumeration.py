import gc
import re
import time
from functools import partial
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridperms
from gridperms import (
    GridMatrix,
    LimitExceededError,
    Permutation,
    SignAssignment,
    alphabet,
    counting_sequence,
    encode,
    enumerate_class,
    enumerate_via_words,
    find_gridding,
    find_signs,
    in_grid_class,
    is_forest,
    pattern_of,
    row_column_graph,
)
from gridperms.codec import _extend, _grow, _slots, _spell
from gridperms.enumeration import _class_levels, _hints, _lifts, _trace_masks, _word_images
from gridperms.gridding import _bands, _least_rows, _upright

from .conftest import DEMO_MATRIX_TEXT, run_python
from .oracles import (
    all_matrices, brute_sign_assignments, division_sequences, filter_class, inverse,
    is_normal_form, negated, oriented, recurrence, squared_spectral_radius, trace_counts,
    transpose, valid_gridding, word_images,
)
from .strategies import matrices, signed_matrices, words_over

ONE_ROW = GridMatrix.parse("+ +")


def perms(*texts):
    return {Permutation.parse(t) for t in texts}


def test_single_increasing_cell():
    assert enumerate_class(GridMatrix.parse("+"), 4) == perms("1234")
    assert counting_sequence(GridMatrix.parse("+"), 5) == (1, 1, 1, 1, 1)
    assert counting_sequence(GridMatrix.parse("-"), 4) == (1, 1, 1, 1)


def test_one_row_class():
    assert counting_sequence(ONE_ROW, 7) == (1, 2, 5, 12, 27, 58, 121)


def test_all_zero_matrix_class_is_empty_past_zero():
    m = GridMatrix.parse(". .\n. .")
    assert enumerate_class(m, 0) == {Permutation(())}
    assert enumerate_class(m, 1) == set()


def test_class_sweep_stops_at_the_first_empty_level():
    # every level past an empty one is empty, so no length makes it walk on
    m = GridMatrix.parse(". .")
    start = time.perf_counter()
    assert enumerate_class(m, 2_999_998) == set()
    assert counting_sequence(m, 2_000_000) == (0,) * 2_000_000
    assert time.perf_counter() - start < 0.2


def test_one_cell_class_sweep_runs_past_nine():
    # one member per length: the walk's steps, not n!, decide the limit
    one_cell = GridMatrix.parse("+")
    assert enumerate_class(one_cell, 10) == {Permutation(tuple(range(1, 11)))}
    assert enumerate_class(one_cell, 150) == {Permutation(tuple(range(1, 151)))}
    assert counting_sequence(one_cell, 150) == (1,) * 150


class Admitted(Exception):
    """Raised by watch_admission in place of an admitted search's work."""


def watch_admission(monkeypatch):
    """Wrap gridding._admit, which every search calls, and give the list of
    its decisions: True for each admission, which then raises Admitted, and
    False for each refusal, which raises as _admit does."""
    decisions, admit = [], gridperms.gridding._admit

    def watched(*args):
        try:
            admit(*args)
        except Exception:
            decisions.append(False)
            raise
        decisions.append(True)
        raise Admitted

    monkeypatch.setattr("gridperms.gridding._admit", watched)
    return decisions


def _walk_steps(m, n_max):
    """The steps the walk reports on a matrix with t >= u, which are n * n
    for each parent at length n, the members of length n - 1, and n + u
    for each division _witness tries at length n."""
    levels = list(_class_levels(m, n_max))
    steps = levels[-1][3]
    assert steps == sum(len(levels[n - 1][0]) * n * n + levels[n][2] * (n + m.u)
                        for n in range(1, len(levels)))
    return steps


def test_class_sweep_refuses_past_the_byte_range(monkeypatch):
    # The walk spells its members as bytes, which hold values up to 255:
    # under the default budget the meter refuses "+" at length 208, and
    # under a larger one the walk refuses on entering length 256.
    one_cell = GridMatrix.parse("+")
    with pytest.raises(LimitExceededError, match="at length 208$"):
        counting_sequence(one_cell, 300)
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 10**8)
    assert counting_sequence(one_cell, 255) == (1,) * 255
    for sweep in (counting_sequence, enumerate_class):
        with pytest.raises(LimitExceededError, match="length-300 sweep stops at length 256"):
            sweep(one_cell, 300)
    # an empty level ends the walk long before the byte range
    assert counting_sequence(GridMatrix.parse(". ."), 300) == (0,) * 300


def test_class_sweep_budget(monkeypatch, demo_matrix):
    steps = _walk_steps(demo_matrix, 6)
    assert steps == 6435
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", steps)
    assert counting_sequence(demo_matrix, 6) == (1, 2, 6, 20, 67, 221)
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", steps - 1)
    with pytest.raises(LimitExceededError, match="length-6 sweep took 6435 steps"):
        counting_sequence(demo_matrix, 6)


@pytest.mark.parametrize("sweep", [enumerate_class, counting_sequence])
def test_class_sweep_names_its_length_and_steps(monkeypatch, demo_matrix, sweep):
    # The walk stops at the search that takes it past the budget, so it
    # overshoots by at most that search's tries and its parent's n * n.
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 10_000)
    with pytest.raises(LimitExceededError) as refusal:
        sweep(demo_matrix, 9)
    match = re.fullmatch(
        r"a length-9 sweep took (\d+) steps at length (\d+)", str(refusal.value)
    )
    assert match, str(refusal.value)
    steps, n = map(int, match.groups())
    assert n == 7 and _walk_steps(demo_matrix, 6) <= 10_000 < steps
    assert steps <= 10_000 + n * n + (2 * n + n + 1) * (n + 2)


def test_word_sweep_budget(monkeypatch, demo_matrix, demo_signs):
    # four letters, so a depth-3 word tree has 1 + 4 + 16 + 64 = 85 nodes
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 84)
    with pytest.raises(LimitExceededError):
        enumerate_via_words(demo_matrix, demo_signs, 3)
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 85)
    enumerate_via_words(demo_matrix, demo_signs, 3)


def test_word_sweep_refuses_past_the_byte_range(monkeypatch):
    # Spellings are bytes, which hold values up to 255: the default budget
    # refuses two letters at length 21, and a larger one admits length 256,
    # which the sweep then refuses by name before any work.
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 10**200)
    start = time.perf_counter()
    refusal = "length-256 word sweep stops at length 256: its spellings hold values up to 255$"
    with pytest.raises(LimitExceededError, match=refusal):
        enumerate_via_words(ONE_ROW, find_signs(ONE_ROW), 256)
    assert time.perf_counter() - start < 0.25


M33_TEXT = ". . +\n. - +\n+ + ."
M43_TEXT = "+ + + +\n+ + + +\n+ + + +"
# 6x6 with a single nonzero cell: a tiny class whose length-25 membership
# search has 1 + C + C * 25 = 3,705,157 nodes, C = C(30, 5) = 142,506.
M66_TEXT = "\n".join(["+ . . . . ."] + [". . . . . ."] * 5)


def corner(t, u):
    """A t x u matrix whose only nonzero cell is a + in the bottom-left corner."""
    return "\n".join([" ".join("." * t)] * (u - 1) + [" ".join("+" + "." * (t - 1))])


def decreasing(n):
    return Permutation(tuple(range(n, 0, -1)))


# Each builds its arguments and returns the search as a call, so that a
# refusal is timed without building a long permutation.
SEARCHES = {
    "enumerate_class": lambda m, n: partial(enumerate_class, m, n),
    "counting_sequence": lambda m, n: partial(counting_sequence, m, n),
    "enumerate_via_words": lambda m, n: partial(enumerate_via_words, m, find_signs(m), n),
    "find_gridding": lambda m, n: partial(find_gridding, decreasing(n), m),
    "in_grid_class": lambda m, n: partial(in_grid_class, decreasing(n), m),
}


# Each search's unpruned tree, in nodes: sum of |A| ** k for k <= n (words),
# 1 + C1 + C1 * C2 (find_gridding, with C1 and C2 the numbers of column and
# row divisions), 1 + C + C * n (in_grid_class and the class sweeps' longest
# search: C divisions of the axis with p = min(t, u) parts, C = C(n + p - 1,
# p - 1), each one pass of n steps, so a matrix and its transpose are
# admitted alike).  The class sweeps also meter their walk after admission.
# A negative length is refused by the same call, as a ValueError.  README's
# admitted-lengths table lists the same edges (test_readme_admission_table).
ADMISSION_EDGES = [
    ("enumerate_class", "+", [2_999_998], [2_999_999, 3_000_000, 10**100, -1]),
    ("counting_sequence", "+", [2_999_998], [2_999_999, 3_000_000, 10**100, -1]),
    ("enumerate_via_words", DEMO_MATRIX_TEXT, [10], [11, 10**8, 10**100, -1]),
    ("enumerate_via_words", "+ +\n+ +", [10], [11]),
    ("enumerate_via_words", M33_TEXT, [9], [10]),
    ("enumerate_via_words", "+ .\n+ -", [13], [14]),
    ("enumerate_via_words", "+", [2_999_999], [3_000_000, 10**100]),
    ("find_gridding", DEMO_MATRIX_TEXT, [180], [181]),
    ("find_gridding", M33_TEXT, [57], [58]),
    ("find_gridding", M43_TEXT, [30], [31, 60]),
    ("find_gridding", "+", [10**6], []),
    ("in_grid_class", DEMO_MATRIX_TEXT, [1731], [1732]),
    ("in_grid_class", M33_TEXT, [180], [181]),
    ("in_grid_class", M43_TEXT, [180], [181, 360]),
    ("enumerate_class", M66_TEXT, [24], [25]),
    ("counting_sequence", M66_TEXT, [24], [25]),
    ("in_grid_class", "+", [2_999_998], [2_999_999]),
    ("counting_sequence", corner(13, 2), [1731], [1732]),
    ("enumerate_class", corner(17, 1), [2_999_998], [2_999_999]),
    ("counting_sequence", corner(14, 2), [1731], [1732]),
    ("enumerate_class", corner(18, 1), [2_999_998], [2_999_999]),
    ("enumerate_class", DEMO_MATRIX_TEXT, [1731], [1732]),
    ("counting_sequence", "- +\n. +\n+ .", [1731], [1732]),
    ("enumerate_class", "- +\n. +\n+ .", [1731], [1732]),
    ("in_grid_class", "- +\n. +\n+ .", [1731], [1732]),
    # "+" over "+" is walked as "+"
    ("enumerate_class", "+\n+", [2_999_998], [2_999_999, 3_000_000, 10**100, -1]),
    ("counting_sequence", "+\n+", [2_999_998], [2_999_999, 3_000_000, 10**100, -1]),
]


@pytest.mark.parametrize("search, text, admitted, refused", ADMISSION_EDGES)
def test_search_admission_edges(monkeypatch, search, text, admitted, refused):
    decisions = watch_admission(monkeypatch)
    matrix = GridMatrix.parse(text)
    for n in admitted:
        with pytest.raises(Admitted):
            SEARCHES[search](matrix, n)()
    for n in refused:
        run = SEARCHES[search](matrix, n)
        refusal = (LimitExceededError, "search .* nodes") if n >= 0 else (ValueError, "nonnegative")
        start = time.perf_counter()
        with pytest.raises(refusal[0], match=refusal[1]):
            run()
        assert time.perf_counter() - start < 0.25, n
    assert decisions == [True] * len(admitted) + [False] * len(refused)


README_SEARCHES = {
    "enumerate_class": "class sweeps", "counting_sequence": "class sweeps",
    "enumerate_via_words": "word sweep", "find_gridding": "gridding search",
    "in_grid_class": "membership",
}


def test_readme_admission_table():
    # (search family, last admitted n, first refused n), read from the README's
    # table and from ADMISSION_EDGES; a search with no refused length reads
    # "any n" and "none"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("| search | matrix |", 1)[1]
    documented = set()
    for line in table.split("\n\n", 1)[0].splitlines()[2:]:
        search, _, admitted, refused = (cell.strip() for cell in line.strip("|").split("|"))
        documented.add((search.split(" (")[0], admitted.replace(",", ""), refused.replace(",", "")))
    pinned = set()
    for search, _, admitted, refused in ADMISSION_EDGES:
        refused = [n for n in refused if n >= 0]
        edge = (str(max(admitted)), str(min(refused))) if refused else ("any n", "none")
        pinned.add((README_SEARCHES[search], *edge))
    assert documented == pinned


# A sweep of the one-cell matrix, whose word tree has unit width, at a
# length that is not an integer: its walk never reaches len(word) == n, so
# each runs in a fresh process under a timeout.
NON_INTEGER_SWEEP = """
import time
from fractions import Fraction
from gridperms import GridMatrix, counting_sequence, enumerate_class, enumerate_via_words, find_signs
one_cell = GridMatrix.parse("+")
sweep = {{
    "enumerate_class": lambda n: enumerate_class(one_cell, n),
    "counting_sequence": lambda n: counting_sequence(one_cell, n),
    "enumerate_via_words": lambda n: enumerate_via_words(one_cell, find_signs(one_cell), n),
}}[{search!r}]
start = time.perf_counter()
try:
    sweep({n})
except TypeError:
    print(time.perf_counter() - start)
"""


@pytest.mark.parametrize("n", ["2.5", "Fraction(5, 2)"])
@pytest.mark.parametrize("search", ["enumerate_class", "counting_sequence", "enumerate_via_words"])
def test_sweeps_refuse_non_integer_length(search, n):
    proc = run_python("-c", NON_INTEGER_SWEEP.format(search=search, n=n), timeout=4)
    assert proc.returncode == 0, proc.stderr
    assert 0 <= float(proc.stdout) < 0.25


def test_class_sweep_at_eight_on_three_by_three():
    m = GridMatrix.parse(M33_TEXT)
    counts = counting_sequence(m, 8)
    assert counts == (1, 2, 6, 22, 87, 347, 1352, 5090)
    assert counts[-1] == len(enumerate_via_words(m, find_signs(m), 8))


def test_one_letter_word_sweep_is_linear():
    one_cell = GridMatrix.parse("+")
    start = time.perf_counter()
    images = enumerate_via_words(one_cell, SignAssignment((1,), (1,)), 100_000)
    assert time.perf_counter() - start < 3
    assert images == {Permutation(tuple(range(1, 100_001)))}


def test_word_sweep_at_length_one_builds_no_trace_masks():
    # no letter follows another in a one-letter word, so the |A| masks of
    # |A| bits each, 6,400 of them here, are not built
    square = GridMatrix(((1,) * 80,) * 80)
    signs = find_signs(square)
    start = time.perf_counter()
    images = enumerate_via_words(square, signs, 1)
    assert time.perf_counter() - start < 1
    assert images == {Permutation((1,))}


def test_word_sweep_over_empty_alphabet_admits_any_length():
    zero = GridMatrix.parse(". .")
    assert enumerate_via_words(zero, find_signs(zero), 10**9) == set()


@pytest.mark.parametrize("n", [0, 5])
def test_word_sweep_checks_signs_on_entry(n):
    # no letters, so the sweep never reaches encode's own check at n > 0
    with pytest.raises(ValueError, match="sign assignment does not match"):
        enumerate_via_words(GridMatrix.parse(". ."), SignAssignment((1,), (1,)), n)


@pytest.mark.parametrize("text, n_max, tail", [
    (DEMO_MATRIX_TEXT, 7, [1093, 3280]),
    ("+ +\n+ +", 7, [1912, 6528]),
    (M33_TEXT, 6, [728, 2380]),
    ("+ .\n+ -", 6, [144, 377]),
    ("+", 6, [1, 1]),
    ("- +\n. +\n+ .", 7, [1093, 3280]),
    ("+ . -\n. . .\n- . +", 6, [560, 1912]),
])
def test_word_sweep_encodes_one_word_per_trace(text, n_max, tail):
    # Cartier-Foata: exactly one normal form per trace, cycles included.  The
    # walk reports the normal forms it spelled at each length; the one word
    # of a one-letter alphabet goes through encode alone.
    m = GridMatrix.parse(text)
    signs, letters = find_signs(m), m.nonzero_cells()
    traces = trace_counts(m, n_max)
    assert traces[-2:] == tail
    for n in range(2, n_max + 1):
        if len(letters) > 1:
            assert _word_images(m, signs, letters, n)[1] == traces[:n + 1], n
        else:
            assert len(enumerate_via_words(m, signs, n)) == traces[n] == 1, n


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# Cartier-Foata denominators, which share no code with trace_counts: DEMO's
# row-column graph is a path on five vertices, with 1 - 4x + 3x ** 2 =
# (1 - x)(1 - 3x), and M22's a path on four, with 1 - 3x + x ** 2, whose
# series takes every other Fibonacci number.
@pytest.mark.parametrize("text, n, closed_form, images", [
    (DEMO_MATRIX_TEXT, 10, lambda k: (3 ** (k + 1) - 1) // 2, 22760),
    ("+ .\n+ -", 11, lambda k: fibonacci(2 * k + 2), 26610),
], ids=["DEMO", "M22"])
def test_word_sweep_spells_the_closed_form_trace_counts(text, n, closed_form, images):
    m = GridMatrix.parse(text)
    found, spelled = _word_images(m, find_signs(m), m.nonzero_cells(), n)
    assert spelled == [closed_form(k) for k in range(n + 1)]
    assert len(found) == images


def test_word_images_length_one(demo_matrix, demo_signs):
    assert enumerate_via_words(demo_matrix, demo_signs, 1) == perms("1")
    assert enumerate_via_words(demo_matrix, demo_signs, 0) == {Permutation(())}


def test_word_images_cover_showcase_member(demo_matrix, demo_signs, demo_perm):
    assert demo_perm in enumerate_via_words(demo_matrix, demo_signs, 9)


def test_word_images_within_class_for_non_forest():
    m = GridMatrix.parse("+ +\n+ +")
    signs = SignAssignment((1, 1), (1, 1))
    for n in range(5):
        assert enumerate_via_words(m, signs, n) <= enumerate_class(m, n)


def test_word_images_match_class_small(demo_matrix, demo_signs):
    for n in range(5):
        assert enumerate_via_words(demo_matrix, demo_signs, n) == enumerate_class(
            demo_matrix, n
        )


def test_word_images_insensitive_to_sign_choice():
    m = GridMatrix.parse("+ .\n+ -")
    signs = find_signs(m)
    assert negated(signs).verify(m)
    for n in range(5):
        reference = enumerate_class(m, n)
        assert enumerate_via_words(m, signs, n) == reference
        assert enumerate_via_words(m, negated(signs), n) == reference


def test_members_shrink_into_the_class(demo_matrix):
    for n in (1, 2, 3, 4, 5):
        members = enumerate_class(demo_matrix, n)
        smaller = enumerate_class(demo_matrix, n - 1)
        for pi in members:
            deletions = {
                pattern_of(pi.entries[:j] + pi.entries[j + 1 :]) for j in range(n)
            }
            assert deletions <= smaller


# Published bases (Atkinson, "Restricted permutations", 1999, for the
# first three; Av(2143, 3412) is the skew-merged class, Stankova 1994).
@pytest.mark.parametrize("text, basis", [
    ("+ +", {"321", "2143", "3142"}),
    ("+\n+", {"321", "2143", "2413"}),
    ("+ -", {"213", "312"}),
    (DEMO_MATRIX_TEXT, {"2143", "3142", "4132", "4312"}),
    ("- +\n+ -", {"2143", "3412"}),
])
def test_class_sweep_searches_only_members_and_basis(text, basis):
    # A candidate reaches the gridding search only when all its one-point
    # deletions are members, so the rejected ones are the basis elements.
    # With fewer columns than rows the walk runs on the transpose, whose
    # members are the inverses of the class's.
    upright, orient = _upright(7, GridMatrix.parse(text))
    rejected = [orient(entries) for _, at_n, _, _ in _class_levels(upright, 7) for entries in at_n]
    assert len(rejected) == len(basis)
    assert {Permutation(entries) for entries in rejected} == perms(*basis)


# Shapes up to 3x3, so some are walked as their transposes.
@given(matrices(max_t=3, max_u=3))
@settings(max_examples=40, deadline=None)
def test_class_walk_rejects_the_minimal_non_members(m):
    # Each length's rejected candidates, oriented back, are the class's
    # minimal non-members there: the non-members whose deletions all belong.
    upright, orient = _upright(5, m)
    levels = list(_class_levels(upright, 5))
    members = filter_class(m, 0)
    for n in range(1, 6):
        below, members = members, filter_class(m, n)
        rejected = levels[n][1] if n < len(levels) else []
        minimal = {
            pi for pi in map(Permutation, permutations(range(1, n + 1)))
            if pi not in members
            and all(pattern_of(pi.entries[:j] + pi.entries[j + 1:]) in below for j in range(n))
        }
        assert len(rejected) == len(minimal), n
        assert {Permutation(orient(entries)) for entries in rejected} == minimal, n


# Searches and rejections are those of any walk that searches exactly the
# candidates whose deletions are all members.  The passes pin the hints:
# with only the parent's division first, the walk made 5,893 (DEMO), 88,035
# (M33) and 16,800 (a 2x3, walked as its 3x2 transpose) through n = 8.  The
# 1x4 pins the orientation: walked untransposed, on its 4-part row axis, it
# made 52,774.  The 2x2 of + cells is a cycle, with basis elements of
# lengths 4 to 8: 1, 2, 3, 25 and 4 of them.
@pytest.mark.parametrize("text, searched, rejected, max_passes", [
    (DEMO_MATRIX_TEXT, 3332, 4, 4074),
    (M33_TEXT, 6940, 33, 12461),
    ("+ .\n- +\n. +", 4777, 23, 6325),
    ("+\n+\n+\n+", 24833, 131, 25730),
    ("+ +\n+ +", 12872, 35, 18972),
])
def test_class_sweep_certifies_members_from_lifted_witnesses(text, searched, rejected, max_passes):
    levels = list(_class_levels(_upright(8, GridMatrix.parse(text))[0], 8))
    assert sum(len(members) + len(out) for members, out, _, _ in levels[1:]) == searched
    assert sum(len(out) for _, out, _, _ in levels) == rejected
    assert sum(passes for _, _, passes, _ in levels) <= max_passes


@pytest.mark.parametrize("division, x, lifts", [
    ((1, 3, 5), 1, [(1, 4, 6)]),  # a point of value 1
    ((1, 1, 5), 1, [(1, 1, 6), (1, 2, 6)]),  # at 1, below an empty first part
    ((1, 3, 5), 5, [(1, 3, 6)]),  # of value n
    ((1, 5, 5), 5, [(1, 5, 6), (1, 6, 6)]),  # at n, with an empty last part
    ((1, 3, 5), 3, [(1, 3, 6), (1, 4, 6)]),  # on a boundary
    ((1, 3, 3, 5), 3, [(1, 3, 3, 6), (1, 4, 4, 6)]),  # on two boundaries
    ((1, 5), 2, [(1, 6)]),  # a single part
])
def test_lifts_at_the_edges(division, x, lifts):
    assert list(_lifts(division, x, 5)) == lifts


def test_lifts_are_the_extreme_divisions_that_delete_to_the_witness():
    # Deleting the point at x maps each boundary b of the child to b - (b > x).
    for n in range(1, 6):
        for parts in (1, 2, 3):
            for division in division_sequences(n - 1, parts):
                for x in range(1, n + 1):
                    preimages = [
                        d for d in division_sequences(n, parts)
                        if tuple(b - (b > x) for b in d) == division
                    ]
                    lifts = list(_lifts(division, x, n))
                    assert lifts == sorted({min(preimages), max(preimages)})


def test_hints_lift_each_witness_at_its_deleted_point():
    # Every value is a boundary of (1, 2, 3, 4, 5), so each lift shows where
    # the point went back in: at its value, on the rows the walk searches.
    # The level holds exactly the child's other deletions; the parent's
    # division comes lifted at n and banded, as the walk hands it over.
    # Spellings are bytes, as the walk keys its levels.
    parent, n, every = bytes((3, 1, 4, 2)), 5, (1, 2, 3, 4, 5)
    lifted = [(rows, _bands(rows)) for rows in _lifts(every, n, n)]
    for j in range(n):
        child = parent[:j] + bytes((n,)) + parent[j:]
        level = {bytes(w - (w > v) for w in child if w != v): every for v in parent}
        expected = []
        for point in (n, *parent):
            expected += [(rows, _bands(rows)) for rows in _lifts(every, point, n)]
        hints = list(_hints(child, lifted, level, _bands))
        assert hints == expected, j
        assert all(hint is pair for hint, pair in zip(hints, lifted)), j


# The 1x4 is walked as its 4x1 transpose, as the sweeps walk it.
@pytest.mark.parametrize("text", [DEMO_MATRIX_TEXT, M33_TEXT, "+ +\n+ +", "+\n+\n+\n+"])
def test_class_walk_keeps_a_witness_for_every_member(text):
    m, _ = oriented(GridMatrix.parse(text))
    for members, *_ in _class_levels(m, 7):
        for entries, rows in members.items():
            # _witness's completion: the least columns for these rows
            cols = _least_rows(entries, m.columns, _bands(rows))
            assert cols is not None, entries
            assert valid_gridding(entries, m, cols, rows), entries


@pytest.mark.parametrize("text, counts", [
    (DEMO_MATRIX_TEXT, (1, 2, 6, 20, 67, 221)),
    ("- +\n. +\n+ .", (1, 2, 6, 20, 67, 221)),
    (M33_TEXT, (1, 2, 6, 22, 87, 347)),
])
def test_class_sweep_hints_are_divisions_of_the_candidate(text, counts):
    # DEMO's transpose is walked as DEMO, on its two rows.  Each searched
    # candidate, member or rejected, is handed the hints built here from the
    # level below, as the walk builds them.
    m = _upright(6, GridMatrix.parse(text))[0]
    levels = list(_class_levels(m, 6))
    assert tuple(len(members) for members, *_ in levels[1:]) == counts
    for n in range(1, 7):
        below, (members, rejected, *_) = levels[n - 1][0], levels[n]
        for child in [*members, *rejected]:
            division = below[child.replace(bytes((n,)), b"")]
            lifted = [(rows, _bands(rows)) for rows in _lifts(division, n, n)]
            hints = list(_hints(child, lifted, below, _bands))
            assert hints, child
            assert {rows for rows, _ in hints} <= set(division_sequences(n, m.u)), child
            assert all(row_of == _bands(rows) for rows, row_of in hints), child


# Shapes 1x2 to 3x3, so some are walked as their transposes.
@given(matrices(max_t=3, max_u=3).filter(lambda m: m.t * m.u > 1))
@settings(max_examples=60, deadline=None)
def test_class_matches_factorial_filter_on_random_matrices(m):
    for n in range(6):
        assert enumerate_class(m, n) == filter_class(m, n), n


def test_class_matches_factorial_filter_on_all_2x2():
    for m in all_matrices(2, 2):
        for n in range(6):
            assert enumerate_class(m, n) == filter_class(m, n), (m, n)


# DEMO's transpose and another 2x3: fewer columns than rows, so the walk
# runs on the 3x2 transpose and returns the inverses of its members.
@pytest.mark.parametrize("text, counts", [
    ("- +\n. +\n+ .", (1, 2, 6, 20, 67, 221)),
    ("+ .\n- +\n. +", (1, 2, 6, 23, 87, 307)),
])
def test_column_axis_class_matches_factorial_filter(text, counts):
    m = GridMatrix.parse(text)
    assert counting_sequence(m, 6) == counts
    for n in range(7):
        assert enumerate_class(m, n) == filter_class(m, n), n


# Three symmetries of the plot, each as (on the matrix's columns, on the
# entries): the left-right mirror reverses the columns and flips each cell's
# monotonicity, the up-down mirror reverses each column's rows and flips it,
# and the diagonal mirror transposes the matrix and inverts pi.
SYMMETRIES = {
    "reverse": (lambda m: GridMatrix([[-e for e in col] for col in reversed(m.columns)]),
                lambda entries: entries[::-1]),
    "complement": (lambda m: GridMatrix([[-e for e in reversed(col)] for col in m.columns]),
                   lambda entries: tuple(len(entries) + 1 - v for v in entries)),
    "inverse": (transpose, inverse),
}


@given(matrices(), st.sampled_from(sorted(SYMMETRIES)))
@settings(max_examples=60, deadline=None)
@example(GridMatrix.parse(DEMO_MATRIX_TEXT), "inverse")
@example(GridMatrix.parse(M33_TEXT), "complement")
@example(GridMatrix.parse("+ .\n+ -"), "reverse")
@example(GridMatrix.parse("+ +\n+ +"), "inverse")
def test_sweeps_commute_with_the_symmetries(m, name):
    # An oracle that shares no code with the sweeps: each symmetry maps the
    # class of M onto the class of its image, and so the word images too
    # where both sweeps agree, on forests.  Shapes 1x1 to 3x3, so both walks
    # run upright and transposed.
    on_matrix, on_entries = SYMMETRIES[name]
    image = on_matrix(m)
    forest = is_forest(row_column_graph(m))
    for n in range(6):
        members = {Permutation(on_entries(pi.entries)) for pi in enumerate_class(m, n)}
        assert enumerate_class(image, n) == members, n
        if forest:
            assert enumerate_via_words(image, find_signs(image), n) == members, n


# Each leaf's index and value come from the division slots of its letter's
# column and row, which every sign moves on its own, so every sign
# assignment is swept, not only find_signs' and its negation.
@given(signed_matrices())
@settings(max_examples=60, deadline=None)
def test_word_sweep_matches_every_word_under_every_sign_assignment(case):
    m, _ = case
    for signs in (SignAssignment(*pair) for pair in brute_sign_assignments(m)):
        for n in range(5):
            assert enumerate_via_words(m, signs, n) == word_images(m, signs, n), (signs, n)


def test_normal_form_oracle_counts_the_traces():
    # the two trace oracles share no code
    for text in (DEMO_MATRIX_TEXT, "+ +\n+ +", "+ . -\n. . .\n- . +"):
        m = GridMatrix.parse(text)
        letters = sorted(alphabet(m))
        counts = [sum(map(is_normal_form, product(letters, repeat=n))) for n in range(6)]
        assert counts == trace_counts(m, 5), text


@pytest.mark.parametrize("text", [DEMO_MATRIX_TEXT, M33_TEXT, "+ .\n+ -", "+\n+\n+\n+"])
def test_sweeps_band_each_division_once(monkeypatch, text):
    # one banding per distinct division: per call in the word sweep, per
    # length in the class walk, whose divisions end at n + 1
    m = GridMatrix.parse(text)
    banded = []

    def recording_bands(divisions):
        banded.append(divisions)
        return _bands(divisions)

    monkeypatch.setattr("gridperms.enumeration._bands", recording_bands)
    counting_sequence(m, 7)
    assert banded and len(banded) == len(set(banded))
    for n in range(1, 8):
        banded.clear()
        images = enumerate_via_words(m, find_signs(m), n)
        assert len(banded) == len(set(banded)) <= len(images), n


@pytest.mark.parametrize("text", [DEMO_MATRIX_TEXT, "+ +\n+ +"])
def test_word_sweep_encodes_each_gridded_image_once(text):
    # encode is injective on traces, so the gridded images of all |A| ** n
    # words number the traces, whose normal forms the sweep spells once each
    m = GridMatrix.parse(text)
    signs, letters = find_signs(m), sorted(alphabet(m))
    traces = trace_counts(m, 5)
    for n in range(6):
        gridded = {encode(m, signs, word) for word in product(letters, repeat=n)}
        assert len(gridded) == traces[n], n


def check_word_kernels(m, signs, word):
    """The word sweep's kernels on a word and its one- and two-letter
    extensions: a child is its parent's spelling extended at its letter's
    slots, against _spell, encode's core, on the longer word; the masks
    admit exactly the normal forms.  Any sign assignment serves."""
    letters = m.nonzero_cells()
    masks = {letter: rest for letter, *rest in _trace_masks(letters)}

    def spelling(word):
        entries, cols, rows = _spell(word, signs)
        return bytes(entries), cols, rows

    def admitted(word):
        blocked = 0
        for letter in word:
            bit, below, commute = masks[letter]
            if blocked & bit:
                return False
            blocked = (blocked | below) & commute
        return True

    entries, cols, rows = spelling(word)
    for j in range(len(word) + 1):
        assert admitted(word[:j]) == is_normal_form(word[:j]), word[:j]
    for (k, l) in letters:
        i, v = _slots((k, l), signs)
        child = word + ((k, l),)
        grown = _extend(entries, cols[i], rows[v]), _grow(cols, k), _grow(rows, l)
        assert grown == spelling(child), child
        assert admitted(child) == is_normal_form(child), child
        for letter in letters:
            longer = child + (letter,)
            assert admitted(longer) == is_normal_form(longer), longer


@pytest.mark.parametrize(
    "text", [DEMO_MATRIX_TEXT, "+ .\n+ -", M33_TEXT, "+ +\n+ +", "+",
             "- +\n. +\n+ .", "+ . -\n. . .\n- . +"]
)
def test_word_sweep_spells_what_encode_spells(text):
    # Every word up to length 3 and its one- and two-letter extensions, cycles
    # included, through the kernels; then the sweep's images against encode's
    # on every word up to length 5.
    m = GridMatrix.parse(text)
    signs, letters = find_signs(m), sorted(alphabet(m))
    for n in range(4):
        for word in product(letters, repeat=n):
            check_word_kernels(m, signs, word)
    for n in range(6):
        assert enumerate_via_words(m, signs, n) == word_images(m, signs, n), n


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_word_sweep_kernels_match_spell_on_any_matrix(data):
    m, signs = data.draw(signed_matrices())
    check_word_kernels(m, signs, data.draw(words_over(m, max_len=6)))


def test_word_sweep_certifies_every_image(monkeypatch):
    # A core that spelled 21 with one + cell would break the cell rule, which
    # encode checks on the one word of a one-letter alphabet.
    monkeypatch.setattr(
        "gridperms.codec._spell",
        lambda *args: ((2, 1), (1, 3), (1, 3)),
    )
    one_cell = GridMatrix.parse("+")
    with pytest.raises(ValueError, match="not a valid gridding"):
        enumerate_via_words(one_cell, SignAssignment((1,), (1,)), 2)


def test_word_sweep_certifies_every_leaf(monkeypatch, demo_matrix, demo_signs):
    # An insertion that swapped the first two entries of each leaf would
    # give 213 for the normal form (2,2) (2,2) (2,2) in DEMO's + cell.
    def swapping_extend(entries, index, value):
        leaf = _extend(entries, index, value)
        return leaf[1::-1] + leaf[2:] if len(leaf) == 3 else leaf

    monkeypatch.setattr("gridperms.enumeration._extend", swapping_extend)
    with pytest.raises(ValueError, match="no valid gridding"):
        enumerate_via_words(demo_matrix, demo_signs, 3)


@pytest.mark.parametrize("text, n, images", [
    ("+", 0, 1), ("+", 3, 1), ("-", 3, 1), (". .", 0, 1), (". .", 3, 0), (DEMO_MATRIX_TEXT, 0, 1),
])
def test_word_sweep_checks_its_one_word(text, n, images):
    # an alphabet of at most one letter, or n = 0, has at most one word,
    # which encode spells and checks
    m = GridMatrix.parse(text)
    assert len(enumerate_via_words(m, find_signs(m), n)) == images


@pytest.mark.parametrize("text, n", [
    ("+", 255), ("+", 256), ("+", 257), ("-", 255), ("-", 256), ("-", 257), (". .", 300),
])
def test_word_sweep_past_the_byte_range(text, n):
    # an alphabet of at most one letter is swept at any admitted length,
    # past the 255 values its spellings as bytes could hold
    m = GridMatrix.parse(text)
    monotone = range(1, n + 1) if text == "+" else range(n, 0, -1)
    expected = {Permutation(tuple(monotone))} if m.nonzero_cells() else set()
    assert enumerate_via_words(m, find_signs(m), n) == expected


def test_word_sweep_checks_each_image_once(demo_matrix, demo_signs):
    # 1,093 normal forms spell the 221 images of length 6, each kept under
    # its spelling, so built and checked once
    images, spelled = _word_images(demo_matrix, demo_signs, demo_matrix.nonzero_cells(), 6)
    assert spelled[6] == 1093 and len(images) == 221
    assert all(tuple(entries) == tuple(pi.entries) for entries, pi in images.items())


def test_word_sweep_does_not_recurse():
    identity = Permutation(tuple(range(1, 3001)))
    one_cell = GridMatrix.parse("+")
    assert enumerate_via_words(one_cell, SignAssignment((1,), (1,)), 3000) == {identity}


def test_sweeps_leave_no_reference_cycles(demo_matrix, demo_signs):
    gc.collect()
    gc.disable()
    try:
        enumerate_via_words(demo_matrix, demo_signs, 5)
        counting_sequence(demo_matrix, 6)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("text", [DEMO_MATRIX_TEXT, "+ .\n+ -"])
def test_growth_ratio_near_squared_spectral_radius(text):
    # Bevan: the class grows like rho(G) ** 2 per length, where G is the
    # row-column graph.  By length 8 the ratio of consecutive counts lies
    # within 10% above that limit.
    pytest.importorskip("numpy")
    m = GridMatrix.parse(text)
    rho_squared = squared_spectral_radius(m)
    counts = counting_sequence(m, 8)
    assert rho_squared <= counts[7] / counts[6] <= 1.1 * rho_squared


def test_recurrence_oracle_finds_the_shortest_fit():
    assert recurrence([1, 1, 2, 3, 5, 8, 13]) == (1, 1)
    assert recurrence([1, 1, 2, 4, 8, 16]) == (2, 0)  # a_1 = 1 breaks order 1
    assert recurrence([0, 0, 0]) == ()


@pytest.mark.parametrize("text, fit, held_out, rho_squared", [
    (DEMO_MATRIX_TEXT, (7, -16, 13, -3), (7258, 22760), 3),
    ("+ .\n+ -", (6, -12, 9, -2), (3670, 9923, 26610), (3 + 5 ** 0.5) / 2),
], ids=["DEMO", "M22"])
def test_counts_follow_a_rational_recurrence(text, fit, held_out, rho_squared):
    # Forest classes are geometric, so their generating functions are
    # rational: a recurrence fitted on a_0..a_8 predicts the later terms, and
    # its dominant root is rho(G) ** 2 of the row-column graph (Bevan), here
    # the paths on five and four vertices.
    numpy = pytest.importorskip("numpy")
    m = GridMatrix.parse(text)
    counts = (1, *counting_sequence(m, 8 + len(held_out)))
    coefficients = recurrence(counts[:9])
    assert coefficients == fit
    for n in range(9, len(counts)):
        assert sum(c * counts[n - i] for i, c in enumerate(coefficients, 1)) == counts[n]
    assert counts[9:] == held_out
    assert squared_spectral_radius(m) == pytest.approx(rho_squared, abs=1e-9)
    root = max(numpy.roots([1, *(-float(c) for c in coefficients)]), key=abs)
    assert abs(root - rho_squared) < 1e-9
