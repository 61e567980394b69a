import pytest

from gridperms import (
    GridMatrix,
    LimitExceededError,
    Permutation,
    SignAssignment,
    counting_sequence,
    enumerate_class,
    enumerate_via_words,
    find_signs,
    pattern_of,
)
from gridperms.enumeration import FACTORIAL_CAP

ONE_ROW = GridMatrix.parse("+ +")


def perms(*texts):
    return {Permutation.parse(t) for t in texts}


def test_single_increasing_cell():
    assert enumerate_class(GridMatrix.parse("+"), 4) == perms("1234")
    assert counting_sequence(GridMatrix.parse("+"), 5) == (1, 1, 1, 1, 1)
    assert counting_sequence(GridMatrix.parse("-"), 4) == (1, 1, 1, 1)


def test_length_one_members(demo_matrix):
    assert enumerate_class(demo_matrix, 1) == perms("1")
    assert enumerate_class(demo_matrix, 0) == {Permutation(())}


def test_one_row_class():
    assert enumerate_class(ONE_ROW, 3) == perms("123", "132", "213", "231", "312")
    assert counting_sequence(ONE_ROW, 7) == (1, 2, 5, 12, 27, 58, 121)


def test_all_zero_matrix_class_is_empty_past_zero():
    m = GridMatrix.parse(". .\n. .")
    assert enumerate_class(m, 0) == {Permutation(())}
    assert enumerate_class(m, 1) == set()


def test_factorial_cap():
    with pytest.raises(LimitExceededError):
        enumerate_class(GridMatrix.parse("+"), 10)
    with pytest.raises(ValueError):
        enumerate_class(GridMatrix.parse("+"), -1)


def test_counting_sequence_refuses_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(
        "gridperms.enumeration.enumerate_class", lambda *args: calls.append(args)
    )
    with pytest.raises(LimitExceededError):
        counting_sequence(GridMatrix.parse("+"), FACTORIAL_CAP + 1)
    assert calls == []


def test_word_sweep_budget(monkeypatch, demo_matrix, demo_signs):
    # four letters, so 4 ** 3 = 64 words
    monkeypatch.setattr("gridperms.enumeration.WORD_BUDGET", 63)
    with pytest.raises(LimitExceededError):
        enumerate_via_words(demo_matrix, demo_signs, 3)
    monkeypatch.setattr("gridperms.enumeration.WORD_BUDGET", 64)
    enumerate_via_words(demo_matrix, demo_signs, 3)


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
    negated = SignAssignment(
        tuple(-c for c in signs.col_signs), tuple(-r for r in signs.row_signs)
    )
    assert negated.verify(m)
    for n in range(5):
        reference = enumerate_class(m, n)
        assert enumerate_via_words(m, signs, n) == reference
        assert enumerate_via_words(m, negated, n) == reference


def test_members_shrink_into_the_class(demo_matrix):
    for n in (1, 2, 3, 4, 5):
        members = enumerate_class(demo_matrix, n)
        smaller = enumerate_class(demo_matrix, n - 1)
        for pi in members:
            deletions = {
                pattern_of(pi.entries[:j] + pi.entries[j + 1 :]) for j in range(n)
            }
            assert deletions <= smaller
