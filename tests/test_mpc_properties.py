"""Property tests: the rank and Hermitian dual containment that duals and
matrix-product codes take from exact identities, against the rank route.

A Hermitian dual carries the code it was taken of, which spans its own
Hermitian dual in turn.  A product through a square mixer A carries the
product of its ingredients' carried duals through (conj(A)^-1)^T, once
that is checked Hermitian-orthogonal to the product and of the right
dimension.  dual_containing_check then decides containment from the
carried dual's Gram matrix alone.  The rank route is the one every loaded
code file takes: reduce the kernel of the conjugate generator against the
generator's echelon form.  Here it runs on a fresh copy of each code, which
carries no dual, no verdict and no full-rank mark.

Every full-field (k = 1..q-1) and extended (k = 1..q) dual at q <= 7 and
every ladder variant and d at q <= 7, forced ones included, must get the
same verdict both ways.  A product's marked rank must equal a fresh
elimination on random full-rank ingredients and mixers over GF(4), GF(9)
and GF(25), square and not.  A product of random Hermitian duals through a
random square mixer must carry the whole Hermitian dual.  An ingredient
dual with one row changed, or one dropped, fails the product's
certificate over GF(25) and over GF(529), past the addition table, and the
verdict then comes from the rank route.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import linalg, verify
from qmds.gf import field_for_q, field_new
from qmds.grs import LinearCode, construct_extended, construct_full_field, hermitian_dual
from qmds.linalg import Matrix, rank, row_equivalent
from qmds.mpc import (
    LADDER_VARIANTS,
    MpcSpec,
    _ladder_ingredient,
    _pair,
    ladder_in_window,
    matrix_product,
    mp6_ladder,
    pair_mixer,
)
from qmds.verify import dual_containing_check, run_checks

FIELDS = [field_new(2), field_new(3), field_new(5)]

# fixed example sequence, so every run of the suite checks the same codes
PROPERTY = settings(deadline=None, derandomize=True, max_examples=60)


def fresh(code: LinearCode) -> LinearCode:
    """The code on a copy of its generator: no carried dual, no verdicts."""
    f = code.field
    return LinearCode(field=f, generator=Matrix(f, code.generator.data, cols=code.n))


def rank_route(code: LinearCode) -> bool:
    copy = fresh(code)
    assert copy._hermitian_dual is None
    return dual_containing_check(copy)


DUALS = [("full-field", q, k) for q in (3, 5, 7) for k in range(1, q)]
DUALS += [("extended", q, k) for q in (3, 5, 7) for k in range(1, q + 1)]


@pytest.mark.parametrize("family,q,k", DUALS)
def test_full_field_and_extended_duals_match_the_rank_route(family, q, k):
    build = construct_full_field if family == "full-field" else construct_extended
    code = build(field_for_q(q), k)
    assert code._hermitian_dual is not None
    assert dual_containing_check(code) is rank_route(code) is True


def _ladders():
    """(q, variant, d) for every d of the variant's parity from 2 to 2q + 2
    at q <= 7; an extended ingredient exists only inside the window."""
    for q in (3, 5, 7):
        for variant, (kind, parity, _, _) in LADDER_VARIANTS.items():
            for d in range(2 + parity, 2 * q + 3, 2):
                if kind != "extended" or ladder_in_window(q, d, variant):
                    yield q, variant, d


LADDERS = list(_ladders())


@pytest.mark.parametrize("q,variant,d", LADDERS)
def test_every_ladder_verdict_matches_the_rank_route(q, variant, d):
    field = field_for_q(q)
    dprimes = ((d + 1) // 2, d)
    c1, c2 = (_ladder_ingredient(field, variant, dp) for dp in dprimes)
    out, checks = _pair(c1, c2, force=True)
    assert checks == {
        "ingredient_dual_containing": [rank_route(c1), rank_route(c2)],
        "output_dual_containing": rank_route(out),
    }
    # every ingredient, the full space (design distance 1) included, is a
    # Hermitian dual, so the product carries a dual too
    assert all(c._hermitian_dual is not None for c in (c1, c2, out))


@pytest.mark.parametrize("variant", [1, 3, 5])  # extended, full-field, family-a
def test_a_d2_ladder_eliminates_only_its_primals_and_mixer(variant, monkeypatch):
    # the full space is the dual of the zero code, so a d = 2 ladder takes
    # its verdicts from Gram matrices as any other does: only the conjugate
    # of the 1 x n' primal, the mixer and the augmented conjugated mixer that
    # inverse reduces are eliminated with any rows to reduce; the zero-row
    # primal and its conjugate cost no work
    field_for_q(7)
    shapes, eliminate = [], linalg._eliminate

    def counting_eliminate(m):
        if m._echelon is None and m.rows:
            shapes.append((m.rows, m.cols))
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    code = mp6_ladder(7, 2, variant)
    n = code.n // 2
    assert sorted(shapes) == [(1, n), (2, 2), (2, 4)]


def test_the_forced_ladders_include_false_verdicts():
    # the comparison above covers both outcomes, not only True
    forced = [mp6_ladder(q, d, v, force=True) for q, v, d in LADDERS if not ladder_in_window(q, d, v)]
    # 39 ladders in the window and 42 forced past it
    assert (len(LADDERS), len(forced)) == (81, 42)
    verdicts = [c.provenance["forced_checks"]["output_dual_containing"] for c in forced]
    assert verdicts and not any(verdicts)


@st.composite
def full_rank(draw, f, rows: int, cols: int) -> Matrix:
    row = st.lists(st.integers(0, f.q2 - 1), min_size=cols, max_size=cols)
    m = Matrix(f, draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)
    assume(rank(m) == rows)
    return m


@st.composite
def products(draw, square: bool = False):
    """An MpcSpec of s random full-rank codes of one length n through a
    random s x l mixer of full row rank (l = s when square)."""
    f = draw(st.sampled_from(FIELDS))
    s = draw(st.integers(1, 3))
    l = s if square else draw(st.integers(s, 3))
    n = draw(st.integers(2, 4))
    codes = [LinearCode(f, draw(full_rank(f, draw(st.integers(1, n)), n))) for _ in range(s)]
    return MpcSpec(codes=codes, mixer=draw(full_rank(f, s, l)))


@PROPERTY
@given(products())
def test_product_rank_is_the_sum_of_the_ingredient_ranks(spec):
    prod = matrix_product(spec)
    assert prod.generator._full_rank
    assert rank(fresh(prod).generator) == prod.k == sum(c.k for c in spec.codes)


@PROPERTY
@given(products(square=True))
def test_a_product_of_duals_carries_its_whole_hermitian_dual(spec):
    duals = MpcSpec(codes=[hermitian_dual(c) for c in spec.codes], mixer=spec.mixer)
    assume(all(c.k for c in duals.codes))
    prod = matrix_product(duals)
    assert prod._hermitian_dual is not None
    assert row_equivalent(prod._hermitian_dual.generator, hermitian_dual(fresh(prod)).generator)
    assert dual_containing_check(prod) == rank_route(prod)


@pytest.mark.parametrize(
    ("tamper", "q"),
    [
        pytest.param(tamper, q, id=tamper if q == 5 else f"{tamper} over GF(529)")
        for q in (5, 23)
        for tamper in ("change a row", "drop a row")
    ],
)
def test_a_tampered_ingredient_dual_fails_the_certificate(tamper, q, monkeypatch):
    # GF(529) is past the addition table, so it adds through Zech logarithms
    field = field_for_q(q)
    c1, c2 = (_ladder_ingredient(field, 3, dp) for dp in (2, 4))
    rows = [list(row) for row in c2._hermitian_dual.generator.data]
    if tamper == "change a row":
        # no longer orthogonal to c2, whose first column is not zero
        rows[0][0] = field.add(rows[0][0], 1)
    else:
        # still orthogonal, but a dimension short of the dual
        del rows[0]
    c2._hermitian_dual = LinearCode(field, Matrix(field, rows, cols=c2.n))
    reduced, real = [], verify.row_space_contains

    def counting(outer, inner):
        reduced.append(outer)
        return real(outer, inner)

    monkeypatch.setattr(verify, "row_space_contains", counting)
    out = matrix_product(MpcSpec(codes=(c1, c2), mixer=pair_mixer(field)))
    assert out._hermitian_dual is None
    assert dual_containing_check(out) is True
    assert reduced == [out.generator]


def test_run_checks_names_the_route_it_took():
    # a report reads no carried dual, so both codes take the rank route
    code = mp6_ladder(5, 4, 1)
    claims = {"orthogonality": "dual-containing"}
    [carried] = run_checks(code, ("dual-containing",), claims)["checks"]
    [ranked] = run_checks(fresh(code), ("dual-containing",), claims)["checks"]
    assert (carried["verdict"], carried["method"]) == ("pass", "rank of stacked generators")
    assert (ranked["verdict"], ranked["method"]) == ("pass", "rank of stacked generators")
