"""Acceptance suite: eight end-to-end checks, one printed verdict each.

Each test computes its verdict, prints a single PASS/FAIL line that stays
visible under plain pytest, then asserts the verdict and its time budget.
The heavier checks sweep full matrix families or word spaces, so this file
dominates suite runtime by design.
"""
import itertools
import random
import time

from gridperms import (
    Gridding,
    GridMatrix,
    NotPartialMultiplicationError,
    Permutation,
    SignAssignment,
    alphabet,
    cell_graph,
    containment_witness,
    contains,
    decode,
    encode,
    enumerate_class,
    enumerate_via_words,
    find_signs,
    is_forest,
    parse_word,
    pattern_of,
    row_col_orders,
    row_column_graph,
    window,
)

from .conftest import DEMO_MATRIX_TEXT, DEMO_WORD_TEXT
from .oracles import (
    all_matrices,
    brute_sign_assignments,
    filter_class,
    has_negative_simple_cycle,
    is_witness,
)

DEMO = GridMatrix.parse(DEMO_MATRIX_TEXT)
FOREST_TRIO = [DEMO, GridMatrix.parse("+ +"), GridMatrix.parse("+ .\n+ -")]


def report(capsys, number, label, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number}] {label}: {verdict} "
              f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"acceptance {number} ({label}) failed"
    assert elapsed < budget, f"acceptance {number} overran {budget}s: {elapsed:.2f}s"


def test_1_showcase_codec_reproduction(capsys):
    start = time.perf_counter()
    signs = find_signs(DEMO)  # only to prove one exists
    handpicked = SignAssignment((-1, 1, 1), (-1, 1))
    word = parse_word(DEMO_WORD_TEXT)

    gp = encode(DEMO, handpicked, word)
    ok = gp.perm == Permutation.parse("136854792")
    ok = ok and gp.gridding == Gridding((1, 3, 5, 10), (1, 6, 10))

    recovered = decode(gp, handpicked)
    ok = ok and encode(DEMO, handpicked, recovered) == gp

    # an independently chosen linear extension must topologically sort the
    # same relation: every consecutive pair of every order respects it
    extension = (5, 4, 6, 7, 3, 8, 9, 2, 1)
    position = {value: i for i, value in enumerate(extension)}
    for order in row_col_orders(gp, handpicked).values():
        ok = ok and all(position[a] < position[b] for a, b in zip(order, order[1:]))
    ok = ok and signs.verify(DEMO)

    report(capsys, 1, "codec reproduces the showcase run",
           ok, time.perf_counter() - start, 1.0)


def test_2_containment_and_window_examples(capsys):
    start = time.perf_counter()
    pi = Permutation.parse("391867452")
    sigma = Permutation.parse("51342")

    ok = contains(pi, sigma)
    ok = ok and is_witness(pi.entries, sigma.entries, (2, 3, 5, 6, 9))
    witness = containment_witness(pi, sigma)
    ok = ok and witness is not None and is_witness(pi.entries, sigma.entries, witness)

    ok = ok and window(
        Permutation.parse("136854792"), (5, 9), (1, 5)
    ) == Permutation.parse("321")

    report(capsys, 2, "containment witness and window examples",
           ok, time.perf_counter() - start, 1.0)


def test_3_sign_existence_three_routes(capsys):
    start = time.perf_counter()
    rng = random.Random(20260817)
    pool = list(all_matrices(2, 2))
    for _ in range(500):
        pool.append(GridMatrix([[rng.choice((0, 1, -1)) for _ in range(3)] for _ in range(3)]))

    mismatches = 0
    for m in pool:
        try:
            assignment = find_signs(m)
            propagated = assignment.verify(m)
        except NotPartialMultiplicationError:
            propagated = False
        exhausted = bool(brute_sign_assignments(m))
        acyclic = not has_negative_simple_cycle(m)
        if not (propagated == exhausted == acyclic):
            mismatches += 1

    report(capsys, 3,
           f"sign propagation vs exhaustion vs cycle scan on {len(pool)} matrices",
           mismatches == 0, time.perf_counter() - start, 30.0)


def test_4_forest_equivalence_sweep(capsys):
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for t in (1, 2, 3):
        for u in (1, 2, 3):
            for m in all_matrices(t, u):
                total += 1
                if is_forest(row_column_graph(m)) != is_forest(cell_graph(m)):
                    mismatches += 1

    report(capsys, 4, f"row-column vs cell graph forestness on {total} matrices",
           mismatches == 0, time.perf_counter() - start, 120.0)


def test_5_word_images_equal_class(capsys):
    start = time.perf_counter()
    ok = True
    for m in FOREST_TRIO:
        signs = find_signs(m)
        for n in range(8):
            reference = filter_class(m, n)
            if enumerate_via_words(m, signs, n) != reference:
                ok = False
            if enumerate_class(m, n) != reference:
                ok = False

    report(capsys, 5, "word images and insertion tree equal the n! filter, "
           "three matrices, n <= 7",
           ok, time.perf_counter() - start, 300.0)


def test_6_round_trip_all_words(capsys):
    start = time.perf_counter()
    signs = find_signs(DEMO)
    letters = sorted(alphabet(DEMO))
    failures = 0
    total = 0
    for length in range(8):
        for word in itertools.product(letters, repeat=length):
            total += 1
            gp = encode(DEMO, signs, word)
            if encode(DEMO, signs, decode(gp, signs)) != gp:
                failures += 1

    report(capsys, 6, f"encode-decode-encode stable on all {total} words",
           failures == 0, time.perf_counter() - start, 120.0)


def test_7_letter_deletion_preserves_containment(capsys):
    start = time.perf_counter()
    rng = random.Random(7)
    failures = 0
    words_checked = 0
    for m in FOREST_TRIO:
        signs = find_signs(m)
        letters = sorted(alphabet(m))
        for _ in range(3400):
            words_checked += 1
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            big = encode(m, signs, word)
            for j in range(len(word)):
                small = encode(m, signs, word[:j] + word[j + 1 :])
                if not contains(big.perm, small.perm):
                    failures += 1

    report(capsys, 7,
           f"single-letter deletions stay contained across {words_checked} words",
           failures == 0, time.perf_counter() - start, 60.0)


def test_8_downward_closure_sweep(capsys):
    start = time.perf_counter()
    failures = 0
    matrices_checked = 0
    for t in (1, 2):
        for u in (1, 2):
            for m in all_matrices(t, u):
                matrices_checked += 1
                members = {n: enumerate_class(m, n) for n in range(7)}
                # closure under containment reduces to closure under
                # one-point deletions, length by length
                for n in range(1, 7):
                    for pi in members[n]:
                        for j in range(n):
                            child = pattern_of(pi.entries[:j] + pi.entries[j + 1 :])
                            if child not in members[n - 1]:
                                failures += 1

    report(capsys, 8,
           f"class membership closed under deletion on {matrices_checked} matrices",
           failures == 0, time.perf_counter() - start, 120.0)
