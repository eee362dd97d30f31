"""Linear algebra tests; determinants and solutions recomputed by hand oracles."""

from __future__ import annotations

import random

import pytest

from qmds import errors, linalg
from qmds.gf import field_new
from qmds.linalg import (
    Matrix,
    entrywise_frobenius,
    inverse,
    mat_vec,
    matmul,
    nullspace,
    rank,
    row_equivalent,
    row_space_contains,
    rref,
    stack,
    subfield_nullvector,
    transpose,
)


def det3(f, m):
    """Cofactor expansion, independent of the elimination code."""
    ((a, b, c), (d, e, g), (h, i, j)) = m
    t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
    t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
    t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
    return f.add(f.sub(t1, t2), t3)


def random_matrix(f, rng, rows, cols):
    return Matrix(f, [[rng.randrange(f.q2) for _ in range(cols)] for _ in range(rows)], cols=cols)


def random_invertible(f, rng, n):
    while True:
        m = random_matrix(f, rng, n, n)
        if rank(m) == n:
            return m


def test_identity_rank_and_nullspace():
    f = field_new(3)
    eye = Matrix.identity(f, 4)
    assert rank(eye) == 4
    assert nullspace(eye).rows == 0
    assert nullspace(eye).cols == 4


def test_pair_mixer_inverse_small_primes():
    for p in (3, 5, 7):
        f = field_new(p)
        a = Matrix(f, [[1, 1], [1, f.element(p - 1)]])
        ainv = inverse(a)
        assert matmul(a, ainv) == Matrix.identity(f, 2)
        assert matmul(ainv, a) == Matrix.identity(f, 2)


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
    two = f.element(2)
    row = [1, f.omega]
    m = Matrix(f, [row, [f.mul(two, x) for x in row]])
    assert rank(m) == 1
    with pytest.raises(errors.SingularMatrix):
        inverse(m)
    ns = nullspace(m)
    assert ns.rows == 1
    assert mat_vec(m, ns.data[0]) == [0, 0]


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
                assert mat_vec(m, v) == [0] * rows
            if ns.rows:
                assert rank(ns) == ns.rows


def test_inverse_randomized():
    rng = random.Random(5)
    f = field_new(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = random_invertible(f, rng, n)
        assert matmul(m, inverse(m)) == Matrix.identity(f, n)


def test_rref_is_idempotent_and_pivots_sorted():
    rng = random.Random(9)
    f = field_new(5)
    for _ in range(20):
        m = random_matrix(f, rng, 4, 6)
        r, piv = rref(m)
        assert piv == sorted(piv)
        r2, piv2 = rref(r)
        assert r2 == r and piv2 == piv


def test_a_wide_matrix_and_its_conjugate_share_one_elimination(monkeypatch):
    # rank proves full row rank of a wide matrix on its leading minor, so the
    # kernel of its conjugate then needs an elimination; taking it through
    # entrywise_frobenius eliminates the matrix itself and carries the form
    # across, so containment against it reads that one form
    f = field_new(5)
    g = Matrix(f, [[f.pow(f.exp(i), j) for i in range(8)] for j in range(3)], cols=8)
    filled, eliminate = [], linalg._eliminate

    def counting(m):
        if m._echelon is None:
            filled.append(m)
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert rank(g) == 3 and filled == []
    row_space_contains(g, nullspace(entrywise_frobenius(g)))
    assert filled == [g]


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
        assert row_equivalent(m, matmul(p, m))
    a = random_matrix(f, rng, 2, 5)
    b = random_matrix(f, rng, 2, 4)
    with pytest.raises(errors.DimensionMismatch):
        row_equivalent(a, b)


def test_family_c_kernel_matrix_is_conjugation_stable():
    # the 4x5 exponent matrix used at q=5 when the point count splits as 1*6
    f = field_new(5)
    m = Matrix(
        f,
        [[f.exp((i * (f.q - 1) - 1) * j) for j in range(1, 6)] for i in range(1, 5)],
    )
    assert rank(m) == 4
    assert row_equivalent(entrywise_frobenius(m), m)


def test_subfield_nullvector_worked_instance_q5():
    f = field_new(5)
    m = Matrix(f, [[1, 1]])
    c = subfield_nullvector(m)
    assert c == [1, f.element(4)]
    # oracle: 1*c1 + 1*c2 = 0 over GF(5) forces c2 = -c1; normalized c1 = 1
    assert f.add(c[0], c[1]) == 0
    # the second coordinate is omega^12, the unique square root of 1 besides 1
    assert c[1] == f.exp(12)
    assert f.mul(c[1], c[1]) == 1 and c[1] != 1


def test_subfield_nullvector_uniform_scalar_rows():
    f = field_new(3)
    for u in range(1, f.q2):
        c = subfield_nullvector(Matrix(f, [[u, u]]))
        assert c == [1, f.neg(1)]


def test_subfield_nullvector_random_subfield_matrices():
    rng = random.Random(77)
    for q in (3, 5):
        f = field_new(q)
        sub = [x for x in f.subfield_elements()]
        for _ in range(30):
            n = rng.randrange(2, 6)
            while True:
                m = Matrix(f, [[sub[rng.randrange(q)] for _ in range(n)] for _ in range(n - 1)])
                if rank(m) == n - 1:
                    break
            c = subfield_nullvector(m)
            assert mat_vec(m, c) == [0] * (n - 1)
            assert all(f.in_subfield(x) for x in c)
            first = next(x for x in c if x)
            assert first == 1


def test_subfield_nullvector_preconditions():
    f = field_new(3)
    with pytest.raises(errors.PreconditionViolated):
        subfield_nullvector(Matrix(f, [[1, 0], [0, 1]]))  # square, wrong shape
    with pytest.raises(errors.PreconditionViolated):
        subfield_nullvector(Matrix(f, [[1, 1], [2, 2], [0, 0]], cols=2))
    with pytest.raises(errors.PreconditionViolated):
        subfield_nullvector(Matrix(f, [[0, 0]]))  # rank deficient
    # a line whose kernel is not conjugation stable: [1, omega]
    with pytest.raises(errors.PreconditionViolated):
        subfield_nullvector(Matrix(f, [[1, f.omega]]))


def test_zero_row_matrix_edge_cases():
    f = field_new(3)
    empty = Matrix(f, [], cols=3)
    assert rank(empty) == 0
    ns = nullspace(empty)
    assert ns.rows == 3  # whole space
    assert stack(empty, Matrix.identity(f, 3)).rows == 3
    assert transpose(empty).cols == 0
