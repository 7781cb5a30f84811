"""Smith normal form over the integers and first homology of a presentation.

Matrices are plain lists of lists of Python ints (arbitrary precision),
row-major.  One elimination loop: each pass moves the smallest nonzero
entry of the unfinished block to (t, t), ties by position, and reduces
column t and row t by it.  A nonzero remainder becomes the next pass's
pivot.  Once the pivot stands alone, an entry of the block it does not
divide is added into its row, so the divisibility chain holds as t
advances and no repair pass follows.  For each t the pivot's absolute
value falls at least every second pass, so the loop ends.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import Presentation, abelianized_relation_matrix

Matrix = list[list[int]]


@dataclass(frozen=True)
class SmithForm:
    diagonal: tuple[int, ...]
    rank: int
    row_transform: Matrix | None = None   # U with U*A*V diagonal
    col_transform: Matrix | None = None   # V


@dataclass(frozen=True)
class H1:
    """Abelian group descriptor: Z^free_rank x Z/d1 x ... (nontrivial di)."""
    free_rank: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Matrix, transforms: bool = False) -> SmithForm:
    """Diagonalize by unimodular row/column operations; nonnegative diagonal
    with each entry dividing the next."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity(rows) if transforms else None
    v = _identity(cols) if transforms else None
    # Row operations act on every matrix in row_mats, column operations on
    # every row in col_rows.  Rows change in place, so col_rows stays valid
    # when row_mats reorders them.
    row_mats = [a, u] if transforms else [a]
    col_rows = a + v if transforms else a[:]

    def swap_rows(i, j):
        for m in row_mats:
            m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for row in col_rows:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        for m in row_mats:
            m[dst][:] = [x + k * y for x, y in zip(m[dst], m[src])]

    def add_col(src, dst, k):
        for row in col_rows:
            row[dst] += k * row[src]

    def negate_row(i):
        for m in row_mats:
            m[i][:] = [-x for x in m[i]]

    t = 0
    while t < min(rows, cols):
        # the smallest nonzero entry of the block; ties go to the first
        # position, so a pivot already at (t, t) keeps its place
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if a[i][j]), default=None)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        p = a[t][t]
        for i in range(t + 1, rows):
            if a[i][t]:
                add_row(t, i, -(a[i][t] // p))
        for j in range(t + 1, cols):
            if a[t][j]:
                add_col(t, j, -(a[t][j] // p))
        # a nonzero remainder is smaller than p: the next pass pivots on it
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
            continue
        # p stands alone; an entry it does not divide joins row t, whose
        # reduction then leaves a remainder smaller than p
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, rows)
                        if any(x % p for x in a[i][t + 1:])), None)
            if bad is not None:
                add_row(bad, t, 1)
                continue
        if p < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(a[i][i] for i in range(min(rows, cols)))
    rank = sum(1 for d in diagonal if d != 0)
    return SmithForm(diagonal=diagonal, rank=rank,
                     row_transform=u, col_transform=v)


def homology_h1(p: Presentation) -> H1:
    """First homology (abelianization) of the presented group."""
    matrix = abelianized_relation_matrix(p)
    if not matrix or not p.generators:
        return H1(free_rank=len(p.generators), torsion=())
    snf = smith_normal_form(matrix)
    torsion = tuple(d for d in snf.diagonal if d not in (0, 1))
    return H1(free_rank=len(p.generators) - snf.rank, torsion=torsion)
