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
are all read off that one result.  Full row rank may instead be proved
without eliminating: on a matrix not yet eliminated with 0 < 2 rows <= cols,
rank first eliminates a copy of the leading rows x rows block alone, and a
nonsingular block certifies rank = rows.  That shape is the one of a
Hermitian self-orthogonal generator (2k <= n), which nothing downstream
eliminates; a dual-containing generator (2k >= n) is eliminated in full
anyway, so it never pays for the block first.  The verdict is kept on the
instance too, and the block's form is never stored as the echelon form.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    NoSubfieldSolution,
    PreconditionViolated,
    SingularMatrix,
)
from .gf import Field


class Matrix:
    """A rows x cols grid of field element indices.

    Treat instances as immutable; operations always return fresh objects.
    Zero-row matrices are legal (kernels of injective maps, generators of
    zero-dimensional codes) and carry an explicit column count.  The
    reduced row echelon form is computed from data on first use and kept
    in _echelon, and a full row rank proved on the leading minor is kept in
    _full_rank; neither is ever serialized.
    """

    __slots__ = ("field", "rows", "cols", "data", "_echelon", "_full_rank")

    def __init__(self, field: Field, data: list[list[int]], cols: int | None = None):
        self.field = field
        self._echelon: tuple[list[list[int]], list[int]] | None = None
        self._full_rank: bool | None = None
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
            if cols is None:
                raise DimensionMismatch("zero-row matrix needs an explicit column count")
            self.cols = cols
        q2 = field.q2
        for row in self.data:
            for x in row:
                if not 0 <= x < q2:
                    raise DimensionMismatch(f"entry {x} outside field of size {q2}")

    @classmethod
    def _trusted(cls, field: Field, data: list[list[int]], cols: int) -> "Matrix":
        """A matrix on rows that linalg, grs or mpc computed from valid matrices:
        every entry is already a field element and every row has cols
        entries, so nothing is copied or checked.  The rows become the
        matrix's own; the caller keeps no reference it could write through."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, len(data), cols
        m._echelon = m._full_rank = None
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.field is not b.field:
        raise DimensionMismatch("mixed fields")
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.cols} columns against {b.rows} rows")
    bt = transpose(b)
    return Matrix._trusted(a.field, [mat_vec(bt, row) for row in a.data], b.cols)


def mat_vec(m: Matrix, v: list[int]) -> list[int]:
    if len(v) != m.cols:
        raise DimensionMismatch("vector length mismatch")
    dot = m.field.dot
    return [dot(row, v) for row in m.data]


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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    rows, pivots = _eliminate(m)
    # the cached rows are copied, so a caller writing the result cannot reach the cache
    return Matrix._trusted(m.field, [list(r) for r in rows], m.cols), list(pivots)


def rank(m: Matrix) -> int:
    """The row rank.  A matrix not yet eliminated with 0 < 2 rows <= cols is
    first tried on its leading minor, once per matrix; only when that minor
    is singular is the matrix eliminated in full."""
    if m._full_rank is None and m._echelon is None and 0 < 2 * m.rows <= m.cols:
        m._full_rank = _leading_minor_nonsingular(m)
    if m._full_rank:
        return m.rows
    return len(_eliminate(m)[1])


def _leading_minor_nonsingular(m: Matrix) -> bool:
    """Whether the leading rows x rows block is nonsingular, by forward
    elimination of a copy of that block alone."""
    k = m.rows
    rows = [row[:k] for row in m.data]
    for c in range(k):
        pivot_row = next((i for i in range(c, k) if rows[i][c]), None)
        if pivot_row is None:
            return False
        rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
        # clear_column folds the pivot in itself, so the pivot row is not
        # normalized; only the rows below it are reduced
        m.field.clear_column(rows[c:], rows[c], c)
    return True


def nullspace(m: Matrix) -> Matrix:
    """A basis of the right kernel, one vector per row (possibly none)."""
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
    return Matrix._trusted(f, basis, m.cols)


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

    Conjugation is a field automorphism: it keeps every zero where it is
    and every unit pivot at 1, so applied to m's echelon form it yields,
    step for step, the echelon form of the result.  So m is eliminated
    (once, as ever) and its form carried over, and the result is never
    eliminated itself: a caller taking the kernel of the conjugate and then
    reading m's own echelon form pays for one elimination, not two.
    """
    f = m.field
    rows, pivots = _eliminate(m)
    out = Matrix._trusted(f, [f.conjugate(row) for row in m.data], m.cols)
    out._echelon = ([f.conjugate(row) for row in rows], pivots)
    return out


def row_equivalent(a: Matrix, b: Matrix) -> bool:
    """Same row space: the reduced row echelon form is unique for a row
    space, so the pivots and nonzero echelon rows of a and b must agree."""
    if a.field is not b.field or a.cols != b.cols:
        raise DimensionMismatch("row equivalence needs matching shapes")
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
        raise DimensionMismatch("containment needs matching shapes")
    rows, pivots = _eliminate(outer)
    rest = [list(v) for v in inner.data]
    for prow, c in zip(rows, pivots):
        outer.field.clear_column(rest, prow, c)
    return not any(any(v) for v in rest)


def subfield_nullvector(m: Matrix) -> list[int]:
    """The kernel vector of an (n-1) x n rank n-1 matrix, scaled into GF(q).

    Such a vector exists exactly when the entrywise q-th power of the
    matrix is row equivalent to the matrix itself; both that and the shape
    and rank conditions are enforced here.  The kernel is a line, so the
    GF(q) representative is pinned down by scaling the first nonzero
    coordinate to 1.
    """
    if m.rows != m.cols - 1:
        raise PreconditionViolated(f"shape {m.rows}x{m.cols}, want (n-1) x n")
    if rank(m) != m.rows:
        raise PreconditionViolated("matrix does not have full row rank")
    if not row_equivalent(entrywise_frobenius(m), m):
        raise PreconditionViolated("conjugated matrix is not row equivalent to the original")
    ns = nullspace(m)
    assert ns.rows == 1
    f = m.field
    v = ns.data[0]
    v = f.scale(f.inv(next(x for x in v if x)), v)
    if f.conjugate(v) != v:
        raise NoSubfieldSolution("kernel line has no GF(q) representative")
    return v
