import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridperms
from gridperms import GridMatrix, Gridding, Permutation, SignAssignment, parse_word

# One showcase instance exercises every operation: a 3x2 matrix with four
# nonzero cells whose row-column graph is a tree, a known member of its
# class, that member's gridding, a hand-picked sign assignment, and a word
# that encodes to exactly that gridded permutation.
DEMO_MATRIX_TEXT = ". + +\n+ . -"
DEMO_WORD_TEXT = "3,1 3,1 2,2 3,2 1,1 2,2 3,2 3,1 1,1"


def run_python(*args, timeout):
    """A fresh interpreter's run on these arguments, importing this source."""
    src = Path(gridperms.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.fixture
def demo_matrix() -> GridMatrix:
    return GridMatrix.parse(DEMO_MATRIX_TEXT)


@pytest.fixture
def demo_signs() -> SignAssignment:
    return SignAssignment((-1, 1, 1), (-1, 1))


@pytest.fixture
def demo_perm() -> Permutation:
    return Permutation.parse("136854792")


@pytest.fixture
def demo_gridding() -> Gridding:
    return Gridding((1, 3, 5, 10), (1, 6, 10))


@pytest.fixture
def demo_word():
    return parse_word(DEMO_WORD_TEXT)


@pytest.fixture
def unbalanced_matrix() -> GridMatrix:
    """2x2 with one negative cell; its single 4-cycle has sign -1, so no
    column/row sign assignment exists."""
    return GridMatrix.parse("- +\n+ +")


@pytest.fixture
def full_plus_matrix() -> GridMatrix:
    """2x2 all ones: a partial multiplication matrix whose row-column graph
    is a 4-cycle, the smallest non-forest case."""
    return GridMatrix.parse("+ +\n+ +")
