"""Exact dense linear algebra over GF(q^2).

Matrices are lightweight row-major containers of element indices; all the
work happens in module functions via Gaussian elimination (exact in a
field, so plain elimination with pivots normalized to one).  Pivot choice
is deterministic: the first nonzero entry scanning down the column, so
identical inputs give identical reduced forms and kernels.

Row arithmetic runs on the vector kernels of qmds.gf; no table of the
field is read here.

Each matrix is eliminated at most once: its reduced row echelon form is
kept on the instance, and rank, kernel, containment and row equivalence
are all read off that one result.  Full row rank may instead be known
without eliminating, and is then kept in _full_rank.  Three builders mark
it by construction: nullspace, whose kernel vectors are each 1 on their
own free column and 0 on the others; qmds.grs, whose GRS generators have
distinct points and nonzero multipliers (a Vandermonde identity) and whose
extended generators hold such a GRS block; and qmds.mpc, whose block
generators take their rank from the matrix-product identity.  rank
eliminates any other matrix it is asked about: loaded code files, mixers
and test input.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularMatrix
from .gf import Field


class Matrix:
    """A rows x cols grid of field element indices, each an int in
    0..q^2 - 1; any other entry is refused with DimensionMismatch.

    Treat instances as immutable; operations always return fresh objects.
    Zero-row matrices are legal (kernels of injective maps, generators of
    zero-dimensional codes) and carry an explicit column count of at least
    0.  The reduced row echelon form is computed from data on first use and
    kept in _echelon, and a full row rank known from how the matrix was
    built is marked in _full_rank; neither is ever serialized.
    """

    __slots__ = ("field", "rows", "cols", "data", "_echelon", "_full_rank")

    def __init__(self, field: Field, data: list[list[int]], cols: int | None = None):
        self.field = field
        self._echelon: tuple[list[list[int]], list[int]] | None = None
        self._full_rank = False
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows:
            widths = {len(row) for row in self.data}
            if len(widths) != 1:
                raise DimensionMismatch("ragged rows")
            self.cols = widths.pop()
            if cols is not None and cols != self.cols:
                raise DimensionMismatch("explicit cols disagrees with data")
        else:
            if cols is None or cols < 0:
                raise DimensionMismatch(f"zero-row matrix needs a column count of at least 0, got {cols}")
            self.cols = cols
        q2 = field.q2
        for row in self.data:
            for x in row:
                if type(x) is not int or not 0 <= x < q2:
                    raise DimensionMismatch(f"entry {x!r} outside field of size {q2}")

    @classmethod
    def _trusted(cls, field: Field, data: list[list[int]], cols: int) -> "Matrix":
        """A matrix on rows that linalg, grs or mpc computed from valid matrices:
        every entry is already a field element and every row has cols
        entries, so nothing is copied or checked.  The rows become the
        matrix's own; the caller keeps no reference it could write through."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, len(data), cols
        m._echelon, m._full_rank = None, False
        return m

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over GF({self.field.q2}))"


def transpose(m: Matrix) -> Matrix:
    return Matrix._trusted(m.field, [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)], m.rows)


def stack(top: Matrix, bottom: Matrix) -> Matrix:
    if top.field is not bottom.field or top.cols != bottom.cols:
        raise DimensionMismatch("stack needs matching fields and widths")
    # rows are shared with top and bottom, which no one writes
    return Matrix._trusted(top.field, top.data + bottom.data, top.cols)


def _eliminate(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot_columns).

    Computed once per matrix and kept on it, so the result is shared:
    callers read it and never mutate it.  The form is unique for the row
    space, zero rows at the bottom included.
    """
    if m._echelon is None:
        f = m.field
        rows = [list(r) for r in m.data]
        pivots: list[int] = []
        r = 0
        for c in range(m.cols):
            if r == len(rows):
                break
            pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            prow = rows[r]
            if prow[c] != 1:
                prow[c:] = f.scale(f.inv(prow[c]), prow[c:])
            f.clear_column(rows, prow, c)
            pivots.append(c)
            r += 1
        m._echelon = (rows, pivots)
    return m._echelon


def rank(m: Matrix) -> int:
    """The row rank: the row count of a matrix marked full rank, else read
    off its echelon form."""
    if m._full_rank:
        return m.rows
    return len(_eliminate(m)[1])


def nullspace(m: Matrix) -> Matrix:
    """A basis of the right kernel, one vector per row (possibly none),
    marked full rank: each vector is 1 on its own free column and 0 on the
    other free columns."""
    f = m.field
    rows, pivots = _eliminate(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(v)
    out = Matrix._trusted(f, basis, m.cols)
    out._full_rank = True
    return out


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = m.rows
    aug = Matrix._trusted(m.field, [row + [0] * i + [1] + [0] * (n - 1 - i) for i, row in enumerate(m.data)], 2 * n)
    rows, pivots = _eliminate(aug)
    if pivots != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return Matrix._trusted(m.field, [row[n:] for row in rows], n)


def entrywise_frobenius(m: Matrix) -> Matrix:
    """The matrix with every entry conjugated, x -> x^q.

    Nothing is eliminated.  Conjugation is a field automorphism, so it
    commutes with the unique reduced echelon form and with the kernel basis
    read off it: the kernel of the conjugate is the conjugate of the kernel.
    """
    f = m.field
    return Matrix._trusted(f, [f.conjugate(row) for row in m.data], m.cols)


def row_equivalent(a: Matrix, b: Matrix) -> bool:
    """Same row space: the reduced row echelon form is unique for a row
    space, so the pivots and nonzero echelon rows of a and b must agree."""
    if a.field is not b.field or a.cols != b.cols:
        raise DimensionMismatch("row equivalence needs matching fields and widths")
    rows_a, piv_a = _eliminate(a)
    rows_b, piv_b = _eliminate(b)
    r = len(piv_a)
    return piv_a == piv_b and rows_a[:r] == rows_b[:r]


def row_space_contains(outer: Matrix, inner: Matrix) -> bool:
    """Every row of inner lies in the row space of outer.

    Each row of inner is reduced against outer's echelon rows at their
    pivot columns and lies in the row space exactly when nothing is left:
    the certificate rank(stack(outer, inner)) == rank(outer), without
    eliminating the stack.
    """
    if outer.field is not inner.field or outer.cols != inner.cols:
        raise DimensionMismatch("containment needs matching fields and widths")
    rows, pivots = _eliminate(outer)
    rest = [list(v) for v in inner.data]
    for prow, c in zip(rows, pivots):
        outer.field.clear_column(rest, prow, c)
    return not any(any(v) for v in rest)
