import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridperms import (
    LimitExceededError, Permutation, containment_witness, contains, pattern_of, window,
)

from .oracles import brute_contains, is_witness
from .strategies import permutations


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


# construction and parsing

def test_entries_must_be_a_permutation():
    Permutation((2, 1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_entries_must_be_integers():
    # a float equal to an integer would print as "2.01" and break the searches
    for bad in ((2.0, 1), (2, 1.5), ("1",)):
        with pytest.raises(TypeError):
            Permutation(bad)
    numpy = pytest.importorskip("numpy")
    pi = Permutation((numpy.int64(2), True))
    assert pi == Permutation((2, 1)) and all(type(v) is int for v in pi.entries)
    assert str(pi) == "21"


def test_empty_permutation_is_allowed():
    assert len(Permutation(())) == 0
    assert str(Permutation(())) == "empty"


def test_parse_digit_form():
    assert Permutation.parse("136854792").entries == (1, 3, 6, 8, 5, 4, 7, 9, 2)
    assert Permutation.parse("1").entries == (1,)


def test_parse_separated_forms():
    spaced = Permutation.parse("1 3 6 8 5 4 7 9 2")
    assert spaced == Permutation.parse("136854792")
    assert Permutation.parse("10,2,3,4,5,6,7,8,9,1").entries[0] == 10
    assert Permutation.parse("2, 1").entries == (2, 1)
    assert Permutation.parse("1 2,3").entries == (1, 2, 3)


def test_parse_empty():
    assert Permutation.parse("empty").entries == ()
    assert Permutation.parse("").entries == ()


def test_parse_rejects_garbage():
    for text in ["1 2 x", "11", "10", "12a", "1.5 2", "0 1", "2,,1", ",1,2", ","]:
        with pytest.raises(ValueError):
            Permutation.parse(text)
    # a superscript is a digit but not a decimal one: the parser, not int(), refuses it
    with pytest.raises(ValueError, match="cannot parse permutation from '1²'"):
        Permutation.parse("1²")
    with pytest.raises(ValueError, match="cannot parse permutation from '1 x 3'"):
        Permutation.parse("1 x 3")
    # integers are an optional - and ASCII digits, as str prints them
    for text in ["+2 1", "1_0 2", " 2,+1", "٢١", "٢ ١"]:
        with pytest.raises(ValueError) as refusal:
            Permutation.parse(text)
        assert str(refusal.value) == f"cannot parse permutation from {text.strip()!r}"


def test_parse_digit_form_stops_at_nine():
    with pytest.raises(ValueError, match="use separated values"):
        Permutation.parse("1234567890")


def test_str_uses_spaces_past_nine():
    long = Permutation(tuple(range(1, 11)))
    assert str(long) == "1 2 3 4 5 6 7 8 9 10"
    assert Permutation.parse(str(long)) == long


@given(permutations(max_n=12))
def test_parse_str_round_trip(pi):
    assert Permutation.parse(str(pi)) == pi


# pattern_of

def test_pattern_of_flattens_ranks():
    assert pattern_of(()) == Permutation(())


def test_pattern_of_rejects_duplicates():
    with pytest.raises(ValueError):
        pattern_of((3, 1, 3))


@given(st.lists(st.integers(-1000, 1000), unique=True, max_size=10))
def test_pattern_of_idempotent(values):
    once = pattern_of(values)
    assert pattern_of(once.entries) == once


# containment

def test_contains_self():
    pi = Permutation.parse("35142")
    assert containment_witness(pi, pi) == (1, 2, 3, 4, 5)


def test_increasing_has_no_decreasing_pattern():
    assert containment_witness(Permutation.parse("123"), Permutation.parse("321")) is None


def test_deep_pattern_does_not_recurse():
    pi = Permutation(tuple(range(1, 1201)))
    sigma = Permutation(tuple(range(1, 1101)))
    assert containment_witness(pi, sigma) == tuple(range(1, 1101))


def test_empty_pattern_always_contained():
    assert containment_witness(Permutation.parse("231"), Permutation(())) == ()


def test_longer_pattern_never_contained():
    assert not contains(Permutation.parse("12"), Permutation.parse("123"))


@given(permutations(max_n=7), permutations(max_n=5))
@settings(max_examples=150, deadline=None)
def test_contains_matches_brute_force(pi, sigma):
    assert contains(pi, sigma) == brute_contains(pi.entries, sigma.entries)


@given(permutations(max_n=8), permutations(max_n=5))
@settings(max_examples=150, deadline=None)
def test_witness_is_lex_least_occurrence(pi, sigma):
    witness = containment_witness(pi, sigma)
    if witness is None:
        assert not brute_contains(pi.entries, sigma.entries)
        return
    assert is_witness(pi.entries, sigma.entries, witness)
    values = [pi.entries[i - 1] for i in witness]
    assert pattern_of(values) == sigma
    # No occurrence precedes it lexicographically.
    for other in itertools.combinations(range(1, len(pi) + 1), len(sigma)):
        if other >= witness:
            break
        assert not is_witness(pi.entries, sigma.entries, other)


# 21 is absent from 12...10: each first index f < 10 is tried, then each
# index after it, so 9 + 45 candidates.  The example of the contains doctest
# and acceptance #2 tries 20 and ends at its lexicographically least witness.
@pytest.mark.parametrize("pi, sigma, charge, witness", [
    (Permutation(tuple(range(1, 11))), Permutation((2, 1)), 54, None),
    (Permutation.parse("391867452"), Permutation.parse("51342"), 20, (2, 3, 5, 6, 7)),
])
def test_containment_budget(monkeypatch, pi, sigma, charge, witness):
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", charge)
    assert containment_witness(pi, sigma) == witness
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", charge - 1)
    with pytest.raises(LimitExceededError, match=f"tried {charge} candidates$"):
        contains(pi, sigma)


def test_containment_refuses_a_long_search(monkeypatch):
    # a random length-18 pattern in a random length-100 permutation, which
    # an unmetered search found only after 23 s on 2 vCPUs
    rng = random.Random(1)
    pi = Permutation(rng.sample(range(1, 101), 100))
    sigma = Permutation(rng.sample(range(1, 19), 18))
    monkeypatch.setattr("gridperms.gridding.SEARCH_BUDGET", 10**5)
    start = time.perf_counter()
    with pytest.raises(LimitExceededError, match="length-18 .* tried 100001 candidates$"):
        containment_witness(pi, sigma)
    assert time.perf_counter() - start < 1


def test_containment_is_a_partial_order_up_to_length_five():
    universe = [p for n in range(6) for p in all_perms(n)]
    below = {p: {q for q in universe if contains(p, q)} for p in universe}
    for p in universe:
        assert p in below[p]
        for q in below[p]:
            # antisymmetry: equal lengths force equality
            if len(p) == len(q) and p != q:
                pytest.fail(f"{p} and {q} contain each other")
            assert below[q] <= below[p]


# window

def test_window_example():
    assert window(Permutation.parse("136854792"), (1, 2), (6, 9)) == Permutation(())


def test_window_full_is_identity():
    pi = Permutation.parse("462531")
    assert window(pi, (1, 6), (1, 6)) == pi


def test_window_rejects_out_of_range_bounds():
    pi = Permutation.parse("1234")
    for x, y in [((0, 2), (1, 4)), ((1, 5), (1, 4)), ((1, 4), (2, 5))]:
        with pytest.raises(ValueError):
            window(pi, x, y)
    # bounds must be integers: a float is neither bisected nor compared
    pi = Permutation((2, 4, 1, 3))
    for x, y in [((1.5, 3), (1, 4)), ((1, 4), (1, 4.0)), (("1", 4), (1, 4))]:
        with pytest.raises(TypeError):
            window(pi, x, y)
    numpy = pytest.importorskip("numpy")
    assert window(pi, (True, numpy.int64(4)), (1, 4)) == pi


def test_window_reversed_interval_selects_nothing():
    pi = Permutation.parse("1234")
    assert window(pi, (3, 2), (1, 4)) == Permutation(())


def _intervals(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]


def _check_window_composition(pi):
    n = len(pi)
    for x, y in itertools.product(_intervals(n), repeat=2):
        inner = window(pi, x, y)
        if len(inner) == 0:
            continue
        picked_indices = sorted(
            i for i in range(x[0], x[1] + 1) if y[0] <= pi.entries[i - 1] <= y[1]
        )
        picked_values = sorted(pi.entries[i - 1] for i in picked_indices)
        for x2, y2 in itertools.product(_intervals(len(inner)), repeat=2):
            expected = window(
                pi,
                (picked_indices[x2[0] - 1], picked_indices[x2[1] - 1]),
                (picked_values[y2[0] - 1], picked_values[y2[1] - 1]),
            )
            assert window(inner, x2, y2) == expected


def test_window_composition_exhaustive_small():
    for n in range(5):
        for pi in all_perms(n):
            _check_window_composition(pi)


def test_window_composition_sampled_larger():
    def interval(rng, n):
        a = rng.randint(1, n)
        return a, rng.randint(a, n)

    rng = random.Random(811)
    for n in (5, 6):
        for _ in range(400):
            entries = list(range(1, n + 1))
            rng.shuffle(entries)
            pi = Permutation(tuple(entries))
            x, y = interval(rng, n), interval(rng, n)
            inner = window(pi, x, y)
            if len(inner) == 0:
                continue
            picked_indices = sorted(
                i
                for i in range(x[0], x[1] + 1)
                if y[0] <= pi.entries[i - 1] <= y[1]
            )
            picked_values = sorted(pi.entries[i - 1] for i in picked_indices)
            x2, y2 = interval(rng, len(inner)), interval(rng, len(inner))
            expected = window(
                pi,
                (picked_indices[x2[0] - 1], picked_indices[x2[1] - 1]),
                (picked_values[y2[0] - 1], picked_values[y2[1] - 1]),
            )
            assert window(inner, x2, y2) == expected
