"""Tests of the benchmark's own reference code and input generator.

    python3 -m pytest perfbench

Nothing here imports gridperms: the generated inputs and the answer checks
must stand on their own.
"""
import random
from math import factorial

import pytest

import inputs
import oracle
import spec

DEMO = oracle.Matrix(spec.MATRICES["DEMO"])


def test_signs_match_the_readme():
    assert oracle.signs(DEMO) == ((1, -1, -1), (1, -1))


def test_encode_reproduces_the_readme_showcase():
    word = [(3, 1), (3, 1), (2, 2), (3, 2), (1, 1), (2, 2), (3, 2), (3, 1), (1, 1)]
    entries, cols, rows = oracle.encode(DEMO, (-1, 1, 1), (-1, 1), word)
    assert entries == [1, 3, 6, 8, 5, 4, 7, 9, 2]
    assert (cols, rows) == ([1, 3, 5, 10], [1, 6, 10])
    assert oracle.valid_gridding(DEMO, entries, cols, rows)
    assert not oracle.valid_gridding(DEMO, entries, [1, 2, 5, 10], rows)


@pytest.mark.parametrize("name", sorted(spec.COUNTS))
def test_recorded_counts_by_brute_force(name):
    m = oracle.Matrix(spec.MATRICES[name])
    for n in range(1, 6):
        assert factorial(n) - len(oracle.non_members(m, n)) == spec.COUNTS[name][n - 1]


@pytest.mark.parametrize("name", sorted(spec.MEMBERSHIP_LENGTHS))
def test_members_are_members_and_planted_inputs_are_not(name):
    m = oracle.Matrix(spec.MATRICES[name])
    signs = oracle.signs(m)
    patterns = oracle.non_members(m, spec.PLANTED_LENGTH)
    rng = random.Random(7)
    for n in (6, 7, 8):
        for _ in range(3):
            assert oracle.is_member(m, inputs.member(m, signs, n, rng))
            base = inputs.member(m, signs, n - spec.PLANTED_LENGTH, rng)
            pattern = rng.choice(patterns)
            planted = inputs.plant(base, pattern, rng)
            assert sorted(planted) == list(range(1, n + 1))
            assert not oracle.is_member(m, planted)


def test_inputs_depend_only_on_the_seed():
    for workload, generate in inputs.GENERATORS.items():
        first = list(generate(5, 2))
        assert first == list(generate(5, 2))
        assert first != list(generate(6, 2)) or workload == "sweep"
