"""Hypothesis strategies shared across test modules."""
from hypothesis import strategies as st

from gridperms import GridMatrix, Permutation, alphabet, find_signs, has_negative_cycle


@st.composite
def permutations(draw, max_n=7, min_n=0):
    n = draw(st.integers(min_n, max_n))
    return Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))


@st.composite
def matrices(draw, max_t=3, max_u=3):
    t = draw(st.integers(1, max_t))
    u = draw(st.integers(1, max_u))
    columns = draw(
        st.lists(
            st.lists(st.sampled_from([0, 1, -1]), min_size=u, max_size=u),
            min_size=t,
            max_size=t,
        )
    )
    return GridMatrix(tuple(tuple(column) for column in columns))


@st.composite
def signed_matrices(draw):
    """A matrix with no negative cycle, with find_signs' assignment."""
    m = draw(matrices().filter(lambda m: not has_negative_cycle(m)))
    return m, find_signs(m)


@st.composite
def words_over(draw, matrix, max_len=8):
    letters = sorted(alphabet(matrix))
    if not letters:
        return ()
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=max_len)))
