import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fpverify import homology_h1, parse_presentation, smith_normal_form
from fpverify.presentation import abelianized_relation_matrix

from conftest import BADLY_PRESENTED_Z_MODULE


def det(m):
    """Cofactor-expansion determinant (exact, small matrices only)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def bareiss_det(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def matmul(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)]
            for row in x]


def check_smith_form(m):
    """U*A*V = D with unimodular U and V, a nonnegative diagonal in a
    divisibility chain, and for square A the diagonal's product |det A|;
    returns the diagonal."""
    snf = smith_normal_form(m, transforms=True)
    u, v, d = snf.row_transform, snf.col_transform, snf.diagonal
    rows, cols = len(m), len(m[0])
    assert matmul(matmul(u, m), v) == [
        [d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    assert abs(bareiss_det(u)) == 1 and abs(bareiss_det(v)) == 1
    assert all(x >= 0 for x in d)
    assert snf.rank == sum(1 for x in d if x)
    for x, y in zip(d, d[1:]):
        assert (y % x == 0) if x else y == 0
    if rows == cols:
        assert math.prod(d) == abs(bareiss_det(m))
    assert smith_normal_form(m).diagonal == d
    return d


def minor_gcd_invariants(m, rows, cols):
    """Invariant factors via gcd of k x k minors: d_1...d_k = g_k with
    g_k = gcd of all k x k minors (g_0 = 1)."""
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[m[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det(sub))
        if g == 0:
            out.append(0)
            continue
        out.append(g // prev)
        prev = g
    # pad trailing zeros once a zero appears (rank bound reached)
    for i in range(1, len(out)):
        if out[i - 1] == 0:
            out[i] = 0
    return tuple(out)


def check_against_oracle(m):
    rows, cols = len(m), len(m[0]) if m else 0
    snf = smith_normal_form(m)
    assert snf.diagonal == minor_gcd_invariants(m, rows, cols)
    for i in range(snf.rank - 1):
        assert snf.diagonal[i + 1] % snf.diagonal[i] == 0


def test_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == \
        (1, 1, 1)


def test_empty_and_degenerate():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[5]]).diagonal == (5,)
    assert smith_normal_form([[-5]]).diagonal == (5,)


def test_ragged_matrix():
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form([[1, 2], [3]])


def test_transforms_reconstruct():
    assert check_smith_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == \
        (2, 2, 156)


def matrices_up_to(size, bound):
    """Matrices of 1..size rows and columns, entries in [-bound, bound]."""
    return st.integers(1, size).flatmap(
        lambda r: st.integers(1, size).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r, max_size=r)))


matrices = matrices_up_to(5, 4)


@given(matrices)
def test_matches_minor_gcd_oracle(m):
    check_against_oracle(m)


@given(matrices)
def test_invariance_under_permutation_and_sign(m):
    rng = random.Random(sum(sum(abs(x) for x in row) for row in m))
    base = smith_normal_form(m).diagonal
    rows = m[:]
    rng.shuffle(rows)
    cols = list(range(len(m[0])))
    rng.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in rows]
    assert smith_normal_form(shuffled).diagonal == base
    flipped = [[-x for x in row] for row in m]
    assert smith_normal_form(flipped).diagonal == base


@given(matrices_up_to(8, 30))
def test_transforms_and_divisibility_on_wide_entries(m):
    check_smith_form(m)


def test_badly_presented_module():
    m = abelianized_relation_matrix(parse_presentation(BADLY_PRESENTED_Z_MODULE))
    assert abs(bareiss_det(m)) == 10_232_280_156
    assert check_smith_form(m) == (1, 1, 1, 1, 1, 2, 5116140078)


def test_h1_examples():
    h1 = homology_h1(parse_presentation("< a | a^2 >"))
    assert (h1.free_rank, h1.torsion) == (0, (2,))
    h1 = homology_h1(parse_presentation("< a, b | >"))
    assert (h1.free_rank, h1.torsion) == (2, ())
    h1 = homology_h1(parse_presentation("< a, b | a^2 b^-4, a b^2 >"))
    assert h1.free_rank == 0 and h1.torsion == (8,)


def test_h1_trivial_flag():
    assert homology_h1(parse_presentation("< a | a >")).is_trivial()
    assert not homology_h1(parse_presentation("< a | a^3 >")).is_trivial()
