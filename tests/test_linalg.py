"""Linear algebra tests; determinants and solutions recomputed by hand oracles."""

from __future__ import annotations

import random

import pytest

from qmds import errors, linalg
from qmds.gf import Field, field_new
from qmds.grs import LinearCode
from qmds.linalg import (
    Matrix,
    _eliminate,
    entrywise_frobenius,
    inverse,
    nullspace,
    rank,
    row_equivalent,
    row_space_contains,
    stack,
    transpose,
)
from qmds.verify import dual_containing_check


def identity(f, n):
    """The n x n identity matrix over f."""
    return Matrix(f, [[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def det3(f, m):
    """Cofactor expansion, independent of the elimination code."""
    ((a, b, c), (d, e, g), (h, i, j)) = m
    t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
    t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
    t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
    return f.add(f.sub(t1, t2), t3)


def naive_mat_vec(m, v):
    """m v, by the field's element methods."""
    f = m.field
    out = []
    for row in m.data:
        acc = 0
        for x, y in zip(row, v, strict=True):
            acc = f.add(acc, f.mul(x, y))
        out.append(acc)
    return out


def naive_matmul(a, b):
    """a b, by the field's element methods."""
    return Matrix(a.field, [naive_mat_vec(transpose(b), row) for row in a.data], cols=b.cols)


def random_matrix(f, rng, rows, cols):
    return Matrix(f, [[rng.randrange(f.q2) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_invertible(f, rng, n):
    while True:
        m = random_matrix(f, rng, n, n)
        if rank(m) == n:
            return m


def test_identity_rank_and_nullspace():
    f = field_new(3)
    eye = identity(f, 4)
    assert rank(eye) == 4
    assert nullspace(eye).rows == 0
    assert nullspace(eye).cols == 4


def test_pair_mixer_inverse_small_primes():
    for p in (3, 5, 7):
        f = field_new(p)
        a = Matrix(f, [[1, 1], [1, (p - 1) % f.p]])
        ainv = inverse(a)
        assert naive_matmul(a, ainv) == identity(f, 2)
        assert naive_matmul(ainv, a) == identity(f, 2)


def test_vandermonde_rank_q5():
    f = field_new(5)
    pts = [f.exp(6), f.exp(12), f.exp(18)]
    v = Matrix(f, [[f.pow(x, i) for x in pts] for i in range(3)])
    assert det3(f, v.data) != 0
    assert rank(v) == 3


def test_singular_matrix_detected():
    f = field_new(3)
    m = Matrix(f, [[1, 2], [2, 4 if 4 < f.q2 else 1]])
    # second row = 2 * first row over GF(9): 2*2 = 4 = index of "1+..."?
    two = 2 % f.p
    row = [1, f.omega]
    m = Matrix(f, [row, [f.mul(two, x) for x in row]])
    assert rank(m) == 1
    with pytest.raises(errors.SingularMatrix):
        inverse(m)
    ns = nullspace(m)
    assert ns.rows == 1
    assert naive_mat_vec(m, ns.data[0]) == [0, 0]


def test_rank_nullity_randomized():
    rng = random.Random(23)
    for q in (3, 5):
        f = field_new(q)
        for _ in range(40):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = random_matrix(f, rng, rows, cols)
            ns = nullspace(m)
            assert rank(m) + ns.rows == cols
            for v in ns.data:
                assert naive_mat_vec(m, v) == [0] * rows
            if ns.rows:
                assert rank(ns) == ns.rows


def test_inverse_randomized():
    rng = random.Random(5)
    f = field_new(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = random_invertible(f, rng, n)
        assert naive_matmul(m, inverse(m)) == identity(f, n)


def test_rref_is_idempotent_and_pivots_sorted():
    rng = random.Random(9)
    f = field_new(5)
    for _ in range(20):
        m = random_matrix(f, rng, 4, 6)
        r, piv = _eliminate(m)
        assert piv == sorted(piv)
        assert _eliminate(Matrix(f, r, cols=m.cols)) == (r, piv)


def test_a_wide_matrix_and_its_conjugate_share_one_elimination(monkeypatch):
    # a code built on a generator not marked full rank eliminates it for its
    # rank; carrying no dual, it takes the rank route, which reduces the
    # conjugate of the generator's kernel against the generator's echelon
    # form: the one form is read twice and nothing else is eliminated
    f = field_new(5)
    g = Matrix(f, [[f.pow(f.exp(i), j) for i in range(8)] for j in range(3)], cols=8)
    filled, eliminate = [], linalg._eliminate

    def counting(m):
        if m._echelon is None:
            filled.append(m)
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    code = LinearCode(f, g)
    assert code._hermitian_dual is None and filled == [g]
    verdict = dual_containing_check(code)
    assert filled == [g]
    # the kernel of the conjugate spans the same dual
    assert verdict == row_space_contains(g, nullspace(entrywise_frobenius(g)))


def test_entrywise_frobenius_fixes_subfield_matrices():
    f = field_new(5)
    sub = f.subfield_elements()
    m = Matrix(f, [[sub[1], sub[2]], [sub[3], sub[4]]])
    assert entrywise_frobenius(m) == m
    rng = random.Random(1)
    big = random_matrix(f, rng, 3, 3)
    assert entrywise_frobenius(entrywise_frobenius(big)) == big


@pytest.mark.parametrize(
    "data, cols",
    [
        ([[1, 2], [3]], None),  # ragged
        ([[1, 2]], 3),  # disagrees with the explicit width
        ([], None),  # zero rows and no width
        ([[0, 9]], None),  # past GF(9)
        ([[-1, 0]], None),
        ([], -5),  # zero rows and a negative width
        ([[1.5, 2]], None),  # not an int
        ([[True, 0]], None),  # equal to 1, but not an int
    ],
)
def test_public_constructor_refuses_bad_data(data, cols):
    with pytest.raises(errors.DimensionMismatch):
        Matrix(field_new(3), data, cols=cols)


def test_row_equivalence_under_invertible_left_factor():
    rng = random.Random(17)
    f = field_new(3)
    for _ in range(20):
        m = random_matrix(f, rng, 3, 5)
        p = random_invertible(f, rng, 3)
        assert row_equivalent(m, naive_matmul(p, m))
    a = random_matrix(f, rng, 2, 5)
    b = random_matrix(f, rng, 2, 4)
    with pytest.raises(errors.DimensionMismatch):
        row_equivalent(a, b)


def test_equal_shapes_over_two_fields_are_refused_as_a_field_mismatch():
    # GF(9) on the canonical modulus x^2 + x + 2 and on x^2 + 2x + 2: the
    # shapes agree, and the message must name the fields that do not
    canonical, other = field_new(3), Field(3, 1, [2, 2, 1])
    assert canonical.modulus == [2, 1, 1]
    a = Matrix(canonical, [[1, 0, 2, 5], [0, 1, 1, 7]])
    b = Matrix(other, a.data)
    for op, name in ((row_space_contains, "containment"), (row_equivalent, "row equivalence"), (stack, "stack")):
        with pytest.raises(errors.DimensionMismatch, match=f"^{name} needs matching fields and widths$"):
            op(a, b)


def test_family_c_kernel_matrix_is_conjugation_stable():
    # the 4x5 exponent matrix used at q=5 when the point count splits as 1*6
    f = field_new(5)
    m = Matrix(
        f,
        [[f.exp((i * (f.q - 1) - 1) * j) for j in range(1, 6)] for i in range(1, 5)],
    )
    assert rank(m) == 4
    assert row_equivalent(entrywise_frobenius(m), m)


def test_zero_row_matrix_edge_cases():
    f = field_new(3)
    empty = Matrix(f, [], cols=3)
    assert rank(empty) == 0
    ns = nullspace(empty)
    assert ns.rows == 3  # whole space
    assert stack(empty, identity(f, 3)).rows == 3
    assert transpose(empty).cols == 0
