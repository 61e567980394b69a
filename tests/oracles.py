"""Brute-force reference implementations, and the helpers tests share.

Each function recomputes an answer by the most direct search available so
the library's single-pass or propagation-based routes have something to
disagree with.  The kernel-free ones can check the cell kernel that
``check_gridding``, ``find_gridding`` and both sweeps share: among them
``valid_gridding`` and ``brute_griddings`` test each cell's window, and
``inverse``, ``transpose`` and ``oriented`` redo the searches' orientation.
The two sweep references, ``filter_class`` and ``word_images``, run the
library's ``find_gridding`` and ``encode`` over every permutation or every
word, and so share that kernel: they give the pruned sweeps an exhaustive
route to match, not a check of the kernel.  Everything here is
exponential; keep inputs small.
"""
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from gridperms import GridMatrix, Permutation, SignAssignment, alphabet, encode, find_gridding


def brute_contains(pi, sigma) -> bool:
    """Containment decided by trying every index subset of pi."""
    p, s = tuple(pi), tuple(sigma)
    if len(s) > len(p):
        return False
    return any(
        _order_isomorphic([p[i] for i in indices], s)
        for indices in combinations(range(len(p)), len(s))
    )


def _order_isomorphic(values, sigma) -> bool:
    return all(
        (values[a] < values[b]) == (sigma[a] < sigma[b])
        for a in range(len(sigma))
        for b in range(a + 1, len(sigma))
    )


def is_witness(pi, sigma, indices) -> bool:
    """Whether the 1-based, increasing index set picks a copy of sigma."""
    p, s = tuple(pi), tuple(sigma)
    if len(indices) != len(s) or any(a >= b for a, b in zip(indices, indices[1:])):
        return False
    if any(not 1 <= i <= len(p) for i in indices):
        return False
    return _order_isomorphic([p[i - 1] for i in indices], s)


def division_sequences(n, parts):
    """All 1 = d_1 <= ... <= d_(parts+1) = n+1, lexicographically."""
    for middle in combinations_with_replacement(range(1, n + 2), parts - 1):
        yield (1,) + middle + (n + 1,)


def inverse(pi):
    """The entries of pi's inverse: its indices in the order of their values."""
    p = tuple(pi)
    return tuple(sorted(range(1, len(p) + 1), key=lambda i: p[i - 1]))


def transpose(matrix):
    """The matrix with entry (k, l) moved to (l, k)."""
    return GridMatrix(tuple(zip(*matrix.columns)))


def oriented(matrix, pi=()):
    """The matrix and entries a row search runs on: with fewer columns than
    rows, the transpose and pi's inverse, whose rows are pi's columns."""
    if matrix.t < matrix.u:
        return transpose(matrix), inverse(pi)
    return matrix, tuple(pi)


def negated(signs):
    """The assignment with every sign flipped, which fits the same matrices."""
    return SignAssignment(tuple(-c for c in signs.col_signs), tuple(-r for r in signs.row_signs))


def all_matrices(t, u):
    """Every t x u matrix over 0, 1 and -1, its entries read column by column."""
    for entries in product((0, 1, -1), repeat=t * u):
        yield GridMatrix([entries[k * u:(k + 1) * u] for k in range(t)])


def squared_spectral_radius(matrix) -> float:
    """rho(G) ** 2 of the row-column graph G, by numpy's eigenvalues."""
    import numpy
    adjacency = numpy.zeros((matrix.t + matrix.u, matrix.t + matrix.u))
    for k, l in matrix.nonzero_cells():
        adjacency[k - 1, matrix.t + l - 1] = adjacency[matrix.t + l - 1, k - 1] = 1
    return max(numpy.linalg.eigvalsh(adjacency)) ** 2


def _window_fits(pi, entry, i_lo, i_hi, v_lo, v_hi) -> bool:
    values = [
        v for i, v in enumerate(pi, start=1) if i_lo <= i < i_hi and v_lo <= v < v_hi
    ]
    if entry == 0:
        return not values
    return values == sorted(values, reverse=entry == -1)


def valid_gridding(pi, matrix, cols, rows) -> bool:
    """Whether (cols, rows) grids pi validly, by an explicit window check
    per cell: polynomial, so usable at any length."""
    p = tuple(pi)
    return all(
        _window_fits(p, matrix.entry(k, l), cols[k - 1], cols[k], rows[l - 1], rows[l])
        for k in range(1, matrix.t + 1)
        for l in range(1, matrix.u + 1)
    )


def brute_griddings(pi, matrix):
    """All valid (cols, rows) pairs, by explicit per-cell window checks,
    in lexicographic order."""
    p = tuple(pi)
    n = len(p)
    return [
        (cols, rows)
        for cols in division_sequences(n, matrix.t)
        for rows in division_sequences(n, matrix.u)
        if valid_gridding(p, matrix, cols, rows)
    ]


def least_index_replay(pi, matrix, cols, rows, col_signs, row_signs):
    """The word decode should give for this gridding and these signs, or
    None when the column and row insertion orders conflict.

    Each entry's column predecessor is its left neighbour in its column band
    when the column sign is +1 and its right neighbour when it is -1; its row
    predecessor is the value just below in its row band for +1 and just
    above for -1.  The replay then places, again and again, the least
    unplaced index whose predecessors are placed."""
    p = tuple(pi)
    n = len(p)
    index_of = {v: i for i, v in enumerate(p, start=1)}
    cells, needs = {}, {}
    for i, v in enumerate(p, start=1):
        k = next(k for k in range(1, matrix.t + 1) if i < cols[k])
        l = next(l for l in range(1, matrix.u + 1) if v < rows[l])
        cells[i], needs[i] = (k, l), set()
        before, below = i - col_signs[k - 1], v - row_signs[l - 1]
        if cols[k - 1] <= before < cols[k]:
            needs[i].add(before)
        if rows[l - 1] <= below < rows[l]:
            needs[i].add(index_of[below])
    placed, word = set(), []
    while len(word) < n:
        ready = [i for i in range(1, n + 1) if i not in placed and needs[i] <= placed]
        if not ready:
            return None
        placed.add(ready[0])
        word.append(cells[ready[0]])
    return tuple(word)


def brute_sign_assignments(matrix):
    """All (col_signs, row_signs) pairs matching every nonzero entry,
    by exhausting all 2^(t+u) candidates."""
    return [
        (col_signs, row_signs)
        for col_signs in product((1, -1), repeat=matrix.t)
        for row_signs in product((1, -1), repeat=matrix.u)
        if all(
            matrix.entry(k, l) == col_signs[k - 1] * row_signs[l - 1]
            for k, l in matrix.nonzero_cells()
        )
    ]


def cell_graph_edges(matrix):
    """The cell graph's edges: two nonzero cells are adjacent when they share
    a line with no nonzero cell strictly between them.  Rows come first,
    bottom to top, then columns, left to right; within a line the edges go
    in order along it."""
    t, u, e = matrix.t, matrix.u, matrix.entry
    row_edges = [
        ((a, l), (b, l))
        for l in range(1, u + 1)
        for a, b in combinations(range(1, t + 1), 2)
        if e(a, l) and e(b, l) and not any(e(k, l) for k in range(a + 1, b))
    ]
    column_edges = [
        ((k, a), (k, b))
        for k in range(1, t + 1)
        for a, b in combinations(range(1, u + 1), 2)
        if e(k, a) and e(k, b) and not any(e(k, l) for l in range(a + 1, b))
    ]
    return row_edges + column_edges


def simple_cycles_with_signs(matrix):
    """All simple cycles of the row-column graph, each with its edge-sign
    product.  Cycles are vertex tuples starting at their least vertex; a
    cycle and its reversal are reported once."""
    adjacency = {}
    edge_sign = {}
    for k in range(1, matrix.t + 1):
        adjacency[("x", k)] = []
    for l in range(1, matrix.u + 1):
        adjacency[("y", l)] = []
    for k, l in matrix.nonzero_cells():
        xv, yv = ("x", k), ("y", l)
        adjacency[xv].append(yv)
        adjacency[yv].append(xv)
        edge_sign[(xv, yv)] = edge_sign[(yv, xv)] = matrix.entry(k, l)

    cycles = []

    def extend(path, seen):
        for nxt in adjacency[path[-1]]:
            if nxt == path[0] and len(path) >= 3:
                if path[1] < path[-1]:
                    sign = 1
                    for a, b in zip(path, path[1:] + [path[0]]):
                        sign *= edge_sign[(a, b)]
                    cycles.append((tuple(path), sign))
            elif nxt not in seen and nxt > path[0]:
                seen.add(nxt)
                path.append(nxt)
                extend(path, seen)
                path.pop()
                seen.remove(nxt)

    for start in sorted(adjacency):
        extend([start], {start})
    return cycles


def insertion_points(matrix, col_signs, row_signs, word):
    """Each letter's point in the plane, in word order, from the definition.
    Column band k is the open interval (k - 1, k) of the x axis and row band
    l the same interval of the y axis; letter (k, l) adds a point midway
    between band k's right end and its rightmost point if c_k = +1, or
    between its left end and its leftmost point if -1, and likewise at the
    top or bottom of row band l as r_l is +1 or -1."""
    points = []
    for k, l in word:
        assert matrix.entry(k, l) != 0, (k, l)
        xs = [x for x, _ in points if k - 1 < x < k]
        ys = [y for _, y in points if l - 1 < y < l]
        x = (max(xs, default=k - 1) + k if col_signs[k - 1] == 1 else k - 1 + min(xs, default=k))
        y = (max(ys, default=l - 1) + l if row_signs[l - 1] == 1 else l - 1 + min(ys, default=l))
        points.append((Fraction(x) / 2, Fraction(y) / 2))
    return points


def spell_by_insertion(matrix, col_signs, row_signs, word):
    """The (entries, cols, rows) a word spells, from its insertion_points
    ranked by x and by y."""
    points = insertion_points(matrix, col_signs, row_signs, word)
    entries = tuple(sum(b <= y for _, b in points) for _, y in sorted(points))
    cols = tuple(1 + sum(x < k for x, _ in points) for k in range(matrix.t + 1))
    rows = tuple(1 + sum(y < l for _, y in points) for l in range(matrix.u + 1))
    return entries, cols, rows


def letter_indices(matrix, col_signs, row_signs, word):
    """The index of each letter's point in the permutation the word spells:
    the x-rank of its insertion_points point, in word order."""
    points = insertion_points(matrix, col_signs, row_signs, word)
    xs = sorted(x for x, _ in points)
    return tuple(xs.index(x) + 1 for x, _ in points)


def has_negative_simple_cycle(matrix) -> bool:
    return any(sign == -1 for _, sign in simple_cycles_with_signs(matrix))


def filter_class(matrix, n):
    """Length-n class members, by testing all n! permutations."""
    return {
        pi
        for entries in permutations(range(1, n + 1))
        if find_gridding(pi := Permutation(entries), matrix) is not None
    }


def word_images(matrix, signs, n):
    """Permutations encoded by all |alphabet| ** n words of length n."""
    letters = sorted(alphabet(matrix))
    return {encode(matrix, signs, word).perm for word in product(letters, repeat=n)}


def trace_counts(matrix, n_max):
    """The number of length-n traces over the nonzero cells, for n = 0..n_max:
    words up to commuting letters (cells sharing no row and no column).

    By Cartier-Foata it is the x ** n coefficient of 1 / sum_k (-1) ** k m_k
    x ** k, where m_k counts the k-edge matchings of the row-column graph:
    the sets of k nonzero cells in distinct columns and distinct rows."""
    cells = matrix.nonzero_cells()
    matchings = [
        sum(
            len({k for k, _ in subset}) == size and len({l for _, l in subset}) == size
            for subset in combinations(cells, size)
        )
        for size in range(len(cells) + 1)
    ]
    counts = [1]
    for n in range(1, n_max + 1):
        counts.append(sum(
            (-1) ** (size + 1) * matchings[size] * counts[n - size]
            for size in range(1, min(n, len(cells)) + 1)
        ))
    return counts


def is_normal_form(word) -> bool:
    """Whether the word is the lexicographically least word of its trace:
    no letter commutes with every letter from an earlier, greater one up to
    it (Anisimov-Knuth), letters commuting when their cells share neither a
    column nor a row."""
    for j, (k, l) in enumerate(word):
        for i in range(j - 1, -1, -1):
            if word[i][0] == k or word[i][1] == l:
                break
            if word[i] > word[j]:
                return False
    return True


def recurrence(seq):
    """The shortest (c1, ..., cd) with a_n = c1 a_(n-1) + ... + cd a_(n-d) for
    every n >= d in seq: Berlekamp-Massey over the rationals, exact."""
    terms = [Fraction(a) for a in seq]
    # connection polynomials 1 - c1 x - ... - cd x ** d, as coefficient lists
    current, previous = [Fraction(1)], [Fraction(1)]
    order, shift, previous_gap = 0, 1, Fraction(1)
    for n, term in enumerate(terms):
        gap = term + sum(current[i] * terms[n - i] for i in range(1, order + 1))
        if gap == 0:
            shift += 1
            continue
        before = current[:]
        current += [Fraction(0)] * (len(previous) + shift - len(current))
        for i, coefficient in enumerate(previous):
            current[i + shift] -= gap / previous_gap * coefficient
        if 2 * order <= n:
            order, previous, previous_gap, shift = n + 1 - order, before, gap, 1
        else:
            shift += 1
    current += [Fraction(0)] * (order + 1 - len(current))
    return tuple(-c for c in current[1:order + 1])
