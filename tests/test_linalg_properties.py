"""Property tests: the table-driven, cached elimination and the shared
inner-product loop against naive oracles.

The elimination oracle is plain Gauss-Jordan elimination through the
field's method calls (add, mul, neg, inv), with no cache and no table
lookups.  Every question linalg answers from its cached echelon form (rank,
kernel, inverse, row equivalence, containment) is recomputed here from the
oracle alone, on random matrices over GF(9), GF(25), GF(81) and GF(529);
so is the rank that rank proves on a wide matrix's leading minor, with
full-rank matrices whose leading minor is singular among the inputs.
GF(529) is above the add-table size, so it covers addition through Zech
logarithms.  Products and Hermitian Gram matrices, which both run through
mat_vec, are checked against written-out sums, and the Gram matrices of
random GRS codes over GF(9), GF(25), GF(49) and GF(529) entry by entry
against power sums.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds.errors import SingularMatrix
from qmds.gf import field_for_q, field_new
from qmds.grs import GrsSpec, LinearCode, grs_generator, hermitian_gram, power_sum
from qmds.linalg import (
    Matrix,
    _eliminate,
    entrywise_frobenius,
    inverse,
    matmul,
    nullspace,
    rank,
    row_equivalent,
    row_space_contains,
    rref,
)

FIELDS = [field_new(3), field_new(5), field_new(3, 2), field_new(23)]
GRS_FIELDS = [field_for_q(q) for q in (3, 5, 7, 23)]

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
    return out


def naive_hermitian_gram(f, rows):
    """<g_i, g_j>_H = sum over l of g_i[l] * g_j[l]^q, by method calls."""
    out = []
    for gi in rows:
        row = []
        for gj in rows:
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
        return matmul(grid(r, inner), grid(inner, c))
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
        lead = matmul(draw(matrices(field=f, rows=r, cols=r - 1)), draw(matrices(field=f, rows=r - 1, cols=r)))
        rest = draw(matrices(field=f, rows=r, cols=c - r))
        return Matrix(f, [a + b for a, b in zip(lead.data, rest.data)], cols=c)
    return draw(matrices(field=f, rows=r, cols=c))


@st.composite
def matrix_pairs(draw):
    """(a, b) of the same shape; b is often a row recombination of a."""
    a = draw(matrices())
    if a.rows and draw(st.booleans()):
        mix = draw(matrices(field=a.field, rows=a.rows, cols=a.rows))
        return a, matmul(mix, a)
    return a, draw(matrices(field=a.field, rows=a.rows, cols=a.cols))


@st.composite
def containment_pairs(draw):
    """(outer, inner) of the same width; inner often lies in outer."""
    outer = draw(matrices())
    k = draw(st.integers(0, 4))
    if outer.rows and draw(st.booleans()):
        mix = draw(matrices(field=outer.field, rows=k, cols=outer.rows))
        return outer, matmul(mix, outer)
    return outer, draw(matrices(field=outer.field, rows=k, cols=outer.cols))


@st.composite
def product_pairs(draw):
    """(a, b) with a.cols == b.rows, any of the dimensions possibly zero."""
    f = draw(st.sampled_from(FIELDS))
    r, inner, c = (draw(st.integers(0, 6)) for _ in range(3))
    return draw(matrices(field=f, rows=r, cols=inner)), draw(matrices(field=f, rows=inner, cols=c))


@st.composite
def grs_specs(draw):
    """A GrsSpec of length at most 8 over GF(9), GF(25), GF(49) or GF(529)."""
    f = draw(st.sampled_from(GRS_FIELDS))
    n = draw(st.integers(1, 8))
    points = draw(st.lists(st.integers(0, f.q2 - 1), min_size=n, max_size=n, unique=True))
    mults = draw(st.lists(st.integers(1, f.q2 - 1), min_size=n, max_size=n))
    return GrsSpec(field=f, points=tuple(points), multipliers=tuple(mults), k=draw(st.integers(1, n)))


# -- properties ------------------------------------------------------------------


@PROPERTY
@given(product_pairs())
def test_matmul_matches_the_triple_loop(pair):
    a, b = pair
    prod = matmul(a, b)
    assert (prod.rows, prod.cols) == (a.rows, b.cols)
    assert prod.data == naive_matmul(a, b)


@PROPERTY
@given(matrices(max_dim=8))
def test_hermitian_gram_matches_the_written_out_sum(m):
    # any full-rank generator, so the Gram matrix is rarely zero
    assume(rank(m) == m.rows)
    gram = hermitian_gram(LinearCode(field=m.field, generator=m))
    assert (gram.rows, gram.cols) == (m.rows, m.rows)
    assert gram.data == naive_hermitian_gram(m.field, m.data)


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
    r, piv = rref(m)
    assert r.data == rows and piv == pivots
    assert nullspace(m).data == naive_nullspace(m)


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
    first = (rank(m), nullspace(m).data, rref(m)[0].data, list(rref(m)[1]))
    # a caller mutating what rref hands back must not reach the cache
    rref(m)[1].append(-1)
    second = (rank(m), nullspace(m).data, rref(m)[0].data, list(rref(m)[1]))
    assert first == second
    assert _eliminate(m) == naive_eliminate(m.field, m.data, m.cols)


@PROPERTY
@given(window_matrices())
def test_rank_on_the_leading_minor_matches_full_elimination(m):
    full = _eliminate(Matrix(m.field, m.data, cols=m.cols))
    assert rank(m) == len(full[1]) == naive_rank(m)
    # a proved leading minor is never kept as the echelon form; a singular
    # one leaves the full form behind
    assert m._echelon is None or m._echelon == full
    if 0 < 2 * m.rows <= m.cols and len(full[1]) < m.rows:
        assert m._echelon == full
    assert rank(m) == len(full[1])
    assert nullspace(m).data == naive_nullspace(m)
    assert rref(m)[0].data == full[0]


@PROPERTY
@given(matrices(), st.booleans())
def test_conjugate_echelon_form_equals_a_fresh_elimination(m, eliminate_first):
    if eliminate_first:
        _eliminate(m)  # entrywise_frobenius then carries the cache across
    conj = entrywise_frobenius(m)
    fresh = Matrix(conj.field, conj.data, cols=conj.cols)
    assert _eliminate(conj) == _eliminate(fresh)
    assert _eliminate(conj) == naive_eliminate(conj.field, conj.data, conj.cols)
