"""Property tests: the table-driven, cached elimination and the Hermitian
product kernel against naive oracles.

The elimination oracle is plain Gauss-Jordan elimination through the
field's method calls (add, mul, neg, inv), with no cache and no table
lookups.  Every question linalg answers from its cached echelon form (rank,
kernel, inverse, row equivalence, containment) is recomputed here from the
oracle alone, on random matrices over GF(9), GF(25), GF(81) and GF(529);
so is the rank of wide matrices, with full-rank matrices whose leading
minor is singular among the inputs, and the full rank a kernel basis is
marked with.  The full rank that GRS and extended generators are marked
with is checked against a fresh elimination over GF(4), GF(9), GF(25) and
GF(529).
GF(529) is above the add-table size, so it covers addition through Zech
logarithms.  Hermitian Gram matrices, and the Hermitian products of one
list of rows with another, are checked against written-out sums; both are
summed in packed base-p digits and reduced once per entry: over the fields
above, the p = 2 towers GF(4), GF(16) and GF(64), the t = 2 and t = 3 towers
GF(81), GF(625) and GF(729), GF(529) and GF(625) past the addition table,
and GF(9) on a non-canonical modulus, with rows longer than the digit
slots are first sized for, and with rows dense, half zero, mostly zero
and all zero, each row drawing its own share, so rows are summed both
over every position and over their support, the support empty, one entry
or a few, and both kinds of row meet in one call, summed against the same
packed columns.  The Gram matrices of
random GRS codes over GF(9), GF(25), GF(49) and GF(529) are also checked
entry by entry against power sums.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds.errors import DimensionMismatch, SingularMatrix
from qmds.gf import Field, field_for_q, field_new
from qmds.grs import GrsSpec, LinearCode, extended_self_orthogonal, grs_generator, hermitian_gram, power_sum
from qmds.linalg import (
    Matrix,
    _eliminate,
    entrywise_frobenius,
    inverse,
    nullspace,
    rank,
    row_equivalent,
    row_space_contains,
)

FIELDS = [field_new(3), field_new(5), field_new(3, 2), field_new(23)]
GRS_FIELDS = [field_for_q(q) for q in (3, 5, 7, 23)]
MARKED_FIELDS = [field_for_q(q) for q in (2, 3, 5, 23)]
# FIELDS, the p = 2 and t = 2, 3 towers, GF(625) past the addition table,
# and GF(9) on a primitive modulus other than the canonical x^2 + x + 2
GRAM_FIELDS = FIELDS + [
    field_new(2),
    field_new(2, 2),
    field_new(2, 3),
    field_new(5, 2),
    field_new(3, 3),
    Field(3, 1, [2, 2, 1]),
]

# fixed example sequence, so every run of the suite checks the same matrices
PROPERTY = settings(deadline=None, derandomize=True, max_examples=80)


# -- the oracle ------------------------------------------------------------------


def naive_eliminate(f, data, cols):
    """Reduced row echelon form by method calls; returns (rows, pivots)."""
    rows = [list(r) for r in data]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        if piv != 1:
            s = f.inv(piv)
            rows[r] = [f.mul(s, x) for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                fac = f.neg(rows[i][c])
                rows[i] = [f.add(x, f.mul(fac, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def naive_rank(m):
    return len(naive_eliminate(m.field, m.data, m.cols)[1])


def naive_nullspace(m):
    f = m.field
    rows, pivots = naive_eliminate(f, m.data, m.cols)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(rows[r][fc])
        basis.append(v)
    return basis


def naive_inverse(m):
    """None when singular."""
    n = m.rows
    aug = [row + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m.data)]
    rows, pivots = naive_eliminate(m.field, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rows]


def naive_contains(outer, inner):
    stacked = outer.data + inner.data
    return len(naive_eliminate(outer.field, stacked, outer.cols)[1]) == naive_rank(outer)


def naive_matmul(a, b):
    """The matrix a b, by method calls."""
    f = a.field
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = 0
            for l in range(a.cols):
                acc = f.add(acc, f.mul(a.data[i][l], b.data[l][j]))
            row.append(acc)
        out.append(row)
    return Matrix(f, out, cols=b.cols)


def naive_hermitian_gram(f, rows, others=None):
    """<g_i, h_j>_H = sum over l of g_i[l] * h_j[l]^q, by method calls, with
    the rows h_j of others, or of rows itself when others is None."""
    out = []
    for gi in rows:
        row = []
        for gj in rows if others is None else others:
            acc = 0
            for x, y in zip(gi, gj):
                acc = f.add(acc, f.mul(x, f.pow(y, f.q)))
            row.append(acc)
        out.append(row)
    return out


def naive_equivalent(a, b):
    return naive_rank(a) == naive_rank(b) == len(
        naive_eliminate(a.field, a.data + b.data, a.cols)[1]
    )


# -- strategies ------------------------------------------------------------------


@st.composite
def matrices(draw, field=None, rows=None, cols=None, max_dim=6):
    """A random matrix, often of deficient rank.

    Entries lean towards zero, and about half the draws are a product of
    two random factors through a narrower inner dimension.
    """
    f = field if field is not None else draw(st.sampled_from(FIELDS))
    r = rows if rows is not None else draw(st.integers(0, max_dim))
    c = cols if cols is not None else draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.integers(0, f.q2 - 1))

    def grid(nr, nc):
        row = st.lists(entry, min_size=nc, max_size=nc)
        return Matrix(f, draw(st.lists(row, min_size=nr, max_size=nr)), cols=nc)

    if r and draw(st.booleans()):
        inner = draw(st.integers(1, max(1, min(r, c))))
        return naive_matmul(grid(r, inner), grid(inner, c))
    return grid(r, c)


@st.composite
def window_matrices(draw):
    """A matrix of up to 5 rows, wide (2 rows <= cols) half the time.  Half
    the wide draws of 2 rows or more put a leading block of rank below rows
    beside random columns: full rank as a rule, on a singular leading minor."""
    f = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(0, 5))
    c = draw(st.integers(max(1, 2 * r), 12) if draw(st.booleans()) else st.integers(1, 6))
    if r > 1 and 2 * r <= c and draw(st.booleans()):
        lead = naive_matmul(draw(matrices(field=f, rows=r, cols=r - 1)), draw(matrices(field=f, rows=r - 1, cols=r)))
        rest = draw(matrices(field=f, rows=r, cols=c - r))
        return Matrix(f, [a + b for a, b in zip(lead.data, rest.data)], cols=c)
    return draw(matrices(field=f, rows=r, cols=c))


@st.composite
def matrix_pairs(draw):
    """(a, b) of the same shape; b is often a row recombination of a."""
    a = draw(matrices())
    if a.rows and draw(st.booleans()):
        mix = draw(matrices(field=a.field, rows=a.rows, cols=a.rows))
        return a, naive_matmul(mix, a)
    return a, draw(matrices(field=a.field, rows=a.rows, cols=a.cols))


@st.composite
def marked_generators(draw):
    """A generator marked full rank where it was built, over GF(4), GF(9),
    GF(25) or GF(529): a GRS code of random distinct points, nonzero
    multipliers and k, or an extended code of random k (at an even q every
    k but q - 1)."""
    if draw(st.booleans()):
        return grs_generator(draw(grs_specs(MARKED_FIELDS, max_n=12))).generator
    f = draw(st.sampled_from(MARKED_FIELDS))
    k = draw(st.sampled_from([k for k in range(1, f.q + 1) if f.p != 2 or k != f.q - 1]))
    return extended_self_orthogonal(f, k).generator


@st.composite
def containment_pairs(draw):
    """(outer, inner) of the same width; inner often lies in outer."""
    outer = draw(matrices())
    k = draw(st.integers(0, 4))
    if outer.rows and draw(st.booleans()):
        mix = draw(matrices(field=outer.field, rows=k, cols=outer.rows))
        return outer, naive_matmul(mix, outer)
    return outer, draw(matrices(field=outer.field, rows=k, cols=outer.cols))


@st.composite
def grs_specs(draw, fields=GRS_FIELDS, max_n=8):
    """A GrsSpec of length at most max_n over one of fields, GF(9), GF(25),
    GF(49) or GF(529) by default."""
    f = draw(st.sampled_from(fields))
    n = draw(st.integers(1, min(max_n, f.q2)))
    points = draw(st.lists(st.integers(0, f.q2 - 1), min_size=n, max_size=n, unique=True))
    mults = draw(st.lists(st.integers(1, f.q2 - 1), min_size=n, max_size=n))
    return GrsSpec(field=f, points=tuple(points), multipliers=tuple(mults), k=draw(st.integers(1, n)))


# -- properties ------------------------------------------------------------------


def sparse_rows(f, rnd, count, n, shares):
    """count rows of length n, each with a zero share drawn from shares:
    its entries are each zero with that probability, and otherwise uniform
    over the field."""
    rows = []
    for _ in range(count):
        zeros = rnd.choice(shares)
        rows.append([0 if rnd.random() < zeros else rnd.randrange(f.q2) for _ in range(n)])
    return rows


# the zero shares a call's rows draw from: at 0 a row is summed entry by
# entry, at 1 over an empty support, and at 0.9 mostly over a support of one
# or a few entries; with more than one share, rows summed over every
# position and rows summed over their support meet in one call, as in a
# ladder's block generator
ZERO_SHARES = st.lists(st.sampled_from([0, 0.5, 0.9, 1]), min_size=1, max_size=3)


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 8), st.booleans(), ZERO_SHARES, st.integers(0, 2**32 - 1))
def test_hermitian_gram_matches_the_written_out_sum(k, extra, long_rows, shares, seed):
    # every field takes each shape: k rows of length k + extra, or longer
    # than 2(q^2 + 1), the longest code qmds builds; the generator has full
    # rank, so the Gram matrix is rarely zero.  The entries come from a
    # seeded Random, since thousands of them would overrun what hypothesis
    # draws in one example
    rnd = random.Random(seed)
    for f in GRAM_FIELDS:
        n = 2 * (f.q2 + 1) + 1 + extra if long_rows else max(k, 1) + extra
        m = Matrix(f, sparse_rows(f, rnd, k, n, shares), cols=n)
        if rank(m) < k:
            continue
        gram = hermitian_gram(LinearCode(field=f, generator=m))
        assert (gram.rows, gram.cols) == (k, k)
        assert gram.data == naive_hermitian_gram(f, m.data)


@PROPERTY
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 8), st.booleans(), ZERO_SHARES, st.integers(0, 2**32 - 1))
def test_hermitian_products_of_two_row_lists_match_the_written_out_sum(k, j, extra, long_rows, shares, seed):
    # the Gram test's shapes and draws, for k rows against j others of the
    # same length; no rank is asked of either, so rows may be all zero
    rnd = random.Random(seed)
    for f in GRAM_FIELDS:
        n = 2 * (f.q2 + 1) + 1 + extra if long_rows else max(k, 1) + extra
        rows, others = (sparse_rows(f, rnd, r, n, shares) for r in (k, j))
        assert f.hermitian_products(rows, others) == naive_hermitian_gram(f, rows, others)


def test_hermitian_products_refuse_rows_of_another_length():
    # zip would drop the tail of the longer row without a word
    f = field_new(23)
    for others in ([[1, 2]], [[1, 2, 3, 4]], [[1, 2, 3], [1, 2]]):
        with pytest.raises(DimensionMismatch):
            f.hermitian_products([[1, 2, 3]], others)
    assert f.hermitian_products([[1, 2, 3]], []) == [[]]


@PROPERTY
@given(grs_specs())
def test_hermitian_gram_entries_are_power_sums(spec):
    # <g_i, g_j>_H = sum of N(v) a^(i + q j): power_sum is the independent side
    q = spec.field.q
    gram = hermitian_gram(grs_generator(spec))
    assert gram.data == [[power_sum(spec, i + q * j) for j in range(spec.k)] for i in range(spec.k)]


@PROPERTY
@given(matrices())
def test_rank_rref_and_nullspace_match_the_oracle(m):
    rows, pivots = naive_eliminate(m.field, m.data, m.cols)
    assert rank(m) == len(pivots)
    assert _eliminate(m) == (rows, pivots)
    ns = nullspace(m)
    assert ns.data == naive_nullspace(m)
    # the kernel basis is marked full rank, which the oracle confirms
    assert rank(ns) == ns.rows == naive_rank(ns)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse_matches_the_oracle(m):
    expected = naive_inverse(m)
    try:
        got = inverse(m).data
    except SingularMatrix:
        got = None
    assert got == expected


@PROPERTY
@given(matrix_pairs())
def test_row_equivalent_matches_the_oracle(pair):
    a, b = pair
    assert row_equivalent(a, b) == naive_equivalent(a, b)
    assert row_equivalent(b, a) == naive_equivalent(a, b)


@PROPERTY
@given(containment_pairs())
def test_row_space_contains_matches_the_oracle(pair):
    outer, inner = pair
    assert row_space_contains(outer, inner) == naive_contains(outer, inner)


@PROPERTY
@given(matrices())
def test_cached_second_call_repeats_the_first(m):
    rows, pivots = _eliminate(m)
    first = (rank(m), nullspace(m).data, [list(r) for r in rows], list(pivots))
    rows, pivots = _eliminate(m)
    second = (rank(m), nullspace(m).data, rows, pivots)
    assert first == second
    assert _eliminate(m) == naive_eliminate(m.field, m.data, m.cols)


@PROPERTY
@given(window_matrices())
def test_a_wide_generator_with_a_singular_leading_block_matches_full_elimination(m):
    # wide matrices, some of full rank on a singular leading minor: the
    # shape of a loaded self-orthogonal generator, which rank eliminates whole
    full = _eliminate(Matrix(m.field, m.data, cols=m.cols))
    assert rank(m) == len(full[1]) == naive_rank(m)
    # only the form of the whole matrix is ever kept, and a rank-deficient
    # one is left behind
    assert m._echelon is None or m._echelon == full
    if 0 < 2 * m.rows <= m.cols and len(full[1]) < m.rows:
        assert m._echelon == full
    assert rank(m) == len(full[1])
    assert nullspace(m).data == naive_nullspace(m)
    assert _eliminate(m) == full


@PROPERTY
@given(marked_generators())
def test_a_marked_generator_has_the_rank_of_a_fresh_elimination(g):
    # distinct points and nonzero multipliers give k independent rows, so
    # rank reads the mark and eliminates nothing
    assert g._full_rank
    assert rank(g) == g.rows == rank(Matrix(g.field, g.data, cols=g.cols))
    assert g._echelon is None


@PROPERTY
@given(matrices())
def test_conjugate_echelon_form_equals_a_fresh_elimination(m):
    conj = entrywise_frobenius(m)
    assert _eliminate(conj) == naive_eliminate(conj.field, conj.data, conj.cols)
    # conjugation is a field automorphism, so it commutes with the unique
    # echelon form and with the kernel basis read off it
    rows, pivots = _eliminate(m)
    assert _eliminate(conj) == ([m.field.conjugate(row) for row in rows], pivots)
    assert nullspace(conj).data == entrywise_frobenius(nullspace(m)).data
