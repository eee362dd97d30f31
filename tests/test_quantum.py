"""Quantum parameter derivations, closed forms, and the headline table."""

from __future__ import annotations

import pytest

from qmds import gf, grs, linalg, mpc, quantum
from qmds.errors import (
    BadDimension,
    CongruenceViolated,
    DimensionOutOfRange,
    DistanceOutOfRange,
    EvenCharacteristic,
    FieldTooLarge,
    NonPrimeCharacteristic,
    NotDualContaining,
    NotMds,
    NotSelfOrthogonal,
    QmdsError,
    VerificationFailure,
)
from qmds.gf import Field, field_for_q
from qmds.grs import (
    GRS_FAMILIES,
    ConstructionParams,
    GrsSpec,
    LinearCode,
    construct_family_A,
    construct_family_B,
    construct_family_C,
    construct_extended,
    construct_full_field,
    extended_self_orthogonal,
    family_params,
    grs_generator,
    valid_parameter_sets,
)
from qmds.linalg import Matrix
from qmds.mpc import LADDER_VARIANTS, mp6_ladder
from qmds.quantum import (
    QuantumParams,
    TABLE1_LAYOUT,
    hermitian_construction,
    ladder_quantum_record,
    mp7_in_range,
    mp7_shape,
    quantum_mds_from_self_orthogonal,
    singleton_check,
    table1,
    theorem_mp7,
)
from qmds.verify import min_distance_at_least

from test_linalg import identity


@pytest.fixture(scope="module")
def table_rows():
    return table1()


def test_singleton_classification():
    assert singleton_check(QuantumParams(3, 6, 2, 3, True)) == "saturated"
    assert singleton_check(QuantumParams(3, 20, 14, 3, False)) == "strict"
    with pytest.raises(VerificationFailure):
        QuantumParams(3, 5, 5, 2, False)


def test_headline_saturating_codes():
    cases = [
        (construct_family_A, (3, 1, 1, 3), (3, 8, 4, 3)),
        (construct_family_A, (5, 2, 1, 4), (5, 12, 6, 4)),
        (construct_family_B, (5, 1, 3, 4), (5, 8, 2, 4)),
        (construct_family_C, (3, 0, 4, 3), (3, 6, 2, 3)),
        (construct_family_C, (5, 0, 6, 5), (5, 20, 12, 5)),
    ]
    for ctor, args, want in cases:
        code = grs_generator(ctor(ConstructionParams(*args)))
        qp = quantum_mds_from_self_orthogonal(code)
        assert (qp.q, qp.n, qp.k, qp.d) == want
        assert qp.d_is_exact and qp.mds
        assert singleton_check(qp) == "saturated"


def test_mds_route_rejects_non_self_orthogonal():
    f = field_for_q(3)
    hand_built = LinearCode(field=f, generator=Matrix(f, [[1, 0, 0]], cols=3), claimed_distance_lb=3)
    for code in (construct_full_field(f, 2), hand_built):
        with pytest.raises(NotSelfOrthogonal):
            quantum_mds_from_self_orthogonal(code)


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
def test_mds_route_reuses_the_constructors_gram_and_elimination(family, monkeypatch):
    ctor = GRS_FAMILIES[family][0]
    params = valid_parameter_sets(family, 7)[-1]
    grams, eliminated = [], []
    gram, eliminate = grs.hermitian_gram, linalg._eliminate

    def counting_gram(code):
        grams.append(code)
        return gram(code)

    def counting_eliminate(m):
        if m._echelon is None:
            eliminated.append([list(row) for row in m.data])
        return eliminate(m)

    monkeypatch.setattr(grs, "hermitian_gram", counting_gram)
    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    code = grs_generator(ctor(params))
    record = quantum_mds_from_self_orthogonal(code)
    assert (record.n, record.k, record.d) == (code.n, code.n - 2 * code.k, code.k + 1)
    assert len(grams) == 1
    # the generator is marked full rank when it is built, so it is never
    # eliminated on this path
    assert eliminated.count(code.generator.data) == 0
    # the spec keeps the one code its constructor's Gram gate decided
    (first,) = grams
    assert first is code


def test_a_table1_row_eliminates_only_its_primals_and_mixer(monkeypatch):
    # the ingredient duals and the product take their rank and dual
    # containment from identities: only the two self-orthogonal primals, the
    # mixer and the augmented conjugated mixer that inverse reduces are
    # eliminated
    field_for_q(7)
    shapes, eliminate = [], linalg._eliminate

    def counting_eliminate(m):
        if m._echelon is None:
            shapes.append((m.rows, m.cols))
        return eliminate(m)

    monkeypatch.setattr(linalg, "_eliminate", counting_eliminate)
    theorem_mp7(7, 4, 1)
    assert sorted(shapes) == [(1, 50), (2, 2), (2, 4), (3, 50)]


def counting_clear_column(monkeypatch) -> list[list[int]]:
    """Patch Field.clear_column to record, per call, the width of every row
    it is handed, the pivot row last."""
    calls, clear_column = [], Field.clear_column

    def counting(self, rows, prow, c):
        calls.append([len(r) for r in rows] + [len(prow)])
        return clear_column(self, rows, prow, c)

    monkeypatch.setattr(Field, "clear_column", counting)
    return calls


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_family_a_rank_check_clears_at_most_k_columns_of_width_k(q, monkeypatch):
    # a GRS generator is marked full rank when it is built (distinct points,
    # nonzero multipliers), so from the constructor to the caller's record
    # no column is cleared at all
    params = valid_parameter_sets("grs-a", q)[-1]
    calls = counting_clear_column(monkeypatch)
    spec = construct_family_A(params)
    code = grs_generator(spec)
    quantum_mds_from_self_orthogonal(code)
    assert calls == []
    assert code.generator._full_rank and code.generator._echelon is None


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
def test_a_shared_generator_is_rank_checked_once(family, monkeypatch):
    # families B and C take their kernel in closed form, and a newly built
    # equal spec has no kept code, so the first grs_generator call below
    # builds the generator again: neither the constructor, nor that build,
    # nor a later code on the same generator and its record clears a column
    calls = counting_clear_column(monkeypatch)
    built = GRS_FAMILIES[family][0](valid_parameter_sets(family, 7)[-1])
    spec = GrsSpec(built.field, built.points, built.multipliers, built.k)
    first = grs_generator(spec)
    later = grs_generator(spec)
    quantum_mds_from_self_orthogonal(later)
    assert later.generator is first.generator
    assert calls == []


@pytest.mark.parametrize("family", sorted(GRS_FAMILIES))
def test_no_family_code_or_record_clears_a_column_up_to_q23(family, monkeypatch):
    # every set of the family at odd q <= 23, from the constructor to the
    # quantum record
    calls = counting_clear_column(monkeypatch)
    built = 0
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23):
        for params in valid_parameter_sets(family, q):
            quantum_mds_from_self_orthogonal(grs_generator(GRS_FAMILIES[family][0](params)))
            built += 1
    assert built and calls == []


def test_a_replaced_or_equal_spec_carries_no_verdict():
    spec = construct_family_A(ConstructionParams(3, 1, 1, 3))
    assert grs_generator(spec)._self_orthogonal is True
    other = GrsSpec(spec.field, spec.points, spec.multipliers, spec.k)
    assert grs_generator(other)._self_orthogonal is None


def test_mds_route_requires_distance_certificate():
    source = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    stripped = LinearCode(field=source.field, generator=source.generator)
    with pytest.raises(NotMds):
        quantum_mds_from_self_orthogonal(stripped)


def test_hermitian_construction_basics():
    f = field_for_q(3)
    code = construct_full_field(f, 2)  # [9,7] lb 3, dual-containing
    qp = hermitian_construction(code)
    assert (qp.q, qp.n, qp.k, qp.d) == (3, 9, 5, 3)
    assert not qp.d_is_exact
    # 2(k+1) = n - (n - 2k) + 2, so the bound saturates if it is attained
    assert singleton_check(qp) == "saturated"


def test_hermitian_construction_rejects_non_containing():
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    with pytest.raises(NotDualContaining):
        hermitian_construction(so)


def test_hermitian_construction_full_space():
    f = field_for_q(3)
    full = LinearCode(field=f, generator=identity(f, 6))
    full.claimed_distance_lb = 1
    qp = hermitian_construction(full)
    assert (qp.n, qp.k, qp.d) == (6, 6, 1)
    assert singleton_check(qp) == "saturated"


def test_direct_records_name_only_their_classical_ancestor():
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    assert quantum_mds_from_self_orthogonal(so).ancestor == {"classical": [8, 2, 7]}
    dc = construct_full_field(field_for_q(3), 2)
    assert hermitian_construction(dc).ancestor == {"classical": [9, 7]}


def test_two_derivation_routes_agree():
    # self-orthogonal [8,2] -> [[8,4,3]] directly, or via its [8,6] dual
    so = grs_generator(construct_family_A(ConstructionParams(3, 1, 1, 3)))
    direct = quantum_mds_from_self_orthogonal(so)
    via_dual = hermitian_construction(grs._mds_dual(so))  # carries k + 1 = 3
    assert (direct.n, direct.k, direct.d) == (via_dual.n, via_dual.k, via_dual.d)
    assert direct.d_is_exact and not via_dual.d_is_exact


def test_ladder_quantum_constructed_sweep():
    # every in-window (variant, d) for the two cheapest q, built end to end
    for q in (3, 5):
        for variant in range(1, 7):
            dmax = q + 1 if variant in (1, 2) else q
            start = 2 if variant in (1, 3, 5) else 3
            for d in range(start, dmax + 1, 2):
                qp = theorem_mp7(q, d, variant)
                assert (qp.n, qp.k) == mp7_shape(q, d, variant), (q, d, variant)
                assert qp.d == d and not qp.d_is_exact
                assert qp.ancestor["certification"] == "FULL"
                assert 2 * qp.d <= qp.n - qp.k + 2
                assert singleton_check(qp) == ("saturated" if 2 * qp.d == qp.n - qp.k + 2 else "strict")


def test_ladder_closed_forms_symbolically():
    offsets = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
    lengths = {1: 2, 2: 2, 3: 0, 4: 0, 5: -2, 6: -2}
    for q in (7, 9, 11, 13):
        for variant in range(1, 7):
            dmax = q + 1 if variant in (1, 2) else q
            start = 2 if variant in (1, 3, 5) else 3
            for d in range(start, dmax + 1, 2):
                assert mp7_in_range(q, d, variant)
                n, k = mp7_shape(q, d, variant)
                assert n == 2 * q * q + lengths[variant]
                assert k + 3 * d == 2 * q * q + offsets[variant]
    assert not mp7_in_range(5, 8, 5)
    assert not mp7_in_range(5, 3, 1)  # wrong parity
    assert not mp7_in_range(5, 1, 2)


# an even q, q = 15, which is no prime power, and two q's that are no int
# besides the odd prime powers
@pytest.mark.parametrize("q", [3, 5, 7, 4, 9, 15, 3.0, True])
def test_mp7_in_range_is_the_window_an_unforced_ladder_gets_past(monkeypatch, q):
    class PastTheRefusals(Exception):
        pass

    def no_ingredient(field, variant, dprime):
        raise PastTheRefusals

    monkeypatch.setattr(mpc, "_ladder_ingredient", no_ingredient)
    for variant in (*LADDER_VARIANTS, 0, 7, 2.0):
        for d in range(12):
            try:
                mp6_ladder(q, d, variant)
            except PastTheRefusals:
                passed = True
            except QmdsError:
                passed = False
            assert passed == mp7_in_range(q, d, variant), (variant, d)


@pytest.mark.parametrize("d", [3.0, True, "3"])
def test_the_window_holds_only_int_distances(d):
    # mp6_ladder refuses each of these d, so the window table1 reads must too
    assert not mp7_in_range(3, d, 2)
    with pytest.raises(DistanceOutOfRange):
        mp6_ladder(3, d, 2)


@pytest.mark.parametrize("q, d, variant", [(3, 3, 7), (3, 3, 2.0), (3, 3.0, 2), (3, 1, 2), (4, 2, 3), (3, 4, 2)])
def test_the_closed_forms_refuse_what_mp6_ladder_refuses(q, d, variant):
    # an unknown variant, a float variant, a float d, a d below 2, an even q
    # and a d of the wrong parity, each refused with mp6_ladder's class and
    # message, by the closed forms and by the record builder alike
    with pytest.raises(QmdsError) as built:
        mp6_ladder(q, d, variant, force=True)
    for closed_form in (lambda: mp7_shape(q, d, variant), lambda: ladder_quantum_record(None, q, d, variant)):
        with pytest.raises(QmdsError) as refused:
            closed_form()
        assert (type(refused.value), str(refused.value)) == (type(built.value), str(built.value))


@pytest.mark.parametrize("d", [2, 20])
def test_a_record_needs_the_field(d):
    # q = 15 is no prime power, so a forced mp6_ladder refuses it on either
    # side of variant 3's ceiling, 15; no FORMULA-ONLY record stands in
    with pytest.raises(NonPrimeCharacteristic):
        mp6_ladder(15, d, 3, force=True)
    with pytest.raises(NonPrimeCharacteristic):
        ladder_quantum_record(None, 15, d, 3)


def test_table1_builds_every_row_through_the_record_builder(monkeypatch):
    calls = []

    def recording(classical, q, d, variant):
        calls.append((q, d, variant, classical is None))
        return ladder_quantum_record(classical, q, d, variant)

    monkeypatch.setattr(quantum, "ladder_quantum_record", recording)
    table1()
    # the two rows past the ceiling pass no classical code
    assert calls == [(q, d, v, not mp7_in_range(q, d, v)) for q, d, v, _ in TABLE1_LAYOUT]
    assert sum(none for *_, none in calls) == 2


def test_ladder_forced_is_formula_only(table_rows):
    qp = ladder_quantum_record(mp6_ladder(5, 8, 5, force=True), 5, 8, 5)
    [row] = [r for r in table_rows if (r.q, r.d, r.ancestor["variant"]) == (5, 8, 5)]
    assert (qp.n, qp.k, qp.d) == (row.n, row.k, row.d) == (48, 28, 8)
    assert qp.ancestor["certification"] == row.ancestor["certification"] == "FORMULA-ONLY"


@pytest.mark.parametrize("q, d, variant", [(3, 8, 5), (5, 18, 5), (3, 8, 3)])
def test_forced_ladder_with_a_negative_quantum_dimension_is_refused(q, d, variant):
    # the closed forms give [[16, -4, 8]], [[48, -2, 18]] and [[18, -2, 8]]
    assert mp7_shape(q, d, variant)[1] < 0
    with pytest.raises(DimensionOutOfRange):
        ladder_quantum_record(mp6_ladder(q, d, variant, force=True), q, d, variant)


def test_table_shape_and_order(table_rows):
    assert [(r.ancestor["q"], r.ancestor["d"], r.ancestor["variant"]) for r in table_rows] == [
        (q, d, v) for q, d, v, _ in TABLE1_LAYOUT
    ]
    got = [(r.n, r.k, r.d, r.q) for r in table_rows]
    assert got == [
        (20, 14, 3, 3),
        (48, 28, 8, 5),
        (52, 44, 4, 5),
        (52, 40, 5, 5),
        (96, 64, 12, 7),
        (100, 92, 4, 7),
        (164, 152, 5, 9),
        (164, 156, 4, 9),
    ]


def test_table_certification_split(table_rows):
    certs = [r.ancestor["certification"] for r in table_rows]
    assert certs.count("FULL") == 6
    assert certs.count("FORMULA-ONLY") == 2
    for row in table_rows:
        if row.ancestor["certification"] == "FORMULA-ONLY":
            assert "range_conflict" in row.ancestor
            assert "classical" not in row.ancestor  # nothing was constructed
        else:
            assert row.ancestor["classical"][0] == row.n


def test_table_rows_beat_prior_parameters(table_rows):
    for row in table_rows:
        prior = row.ancestor["compare"]
        assert (row.n, row.d) >= (prior["n"], prior["d"])
        better_k = row.k > prior["k"]
        better_d = row.k == prior["k"] and row.d > prior["d"]
        assert better_k or better_d, (row.n, row.k, row.d)


def test_no_violated_records_anywhere(table_rows):
    for row in table_rows:
        assert 2 * row.d <= row.n - row.k + 2
        assert singleton_check(row) == ("saturated" if 2 * row.d == row.n - row.k + 2 else "strict")


# a float, a bool or a string where a library entry point takes an int: each
# call used to raise a bare TypeError or to go through, and gets the class of
# the range check that now refuses it
NON_INT_CALLS = {
    "mp6 d=3.0": (lambda: mp6_ladder(3, 3.0, 2), DistanceOutOfRange),
    "mp6 d=2.5": (lambda: mp6_ladder(3, 2.5, 2), DistanceOutOfRange),
    "mp6 variant=1.0": (lambda: mp6_ladder(3, 2, 1.0), BadDimension),
    "mp7 d=3.0": (lambda: theorem_mp7(3, 3.0, 2), DistanceOutOfRange),
    "mp7 variant=True": (lambda: theorem_mp7(3, 2, True), BadDimension),
    "extended k=2.0": (lambda: construct_extended(field_for_q(3), 2.0), DimensionOutOfRange),
    "extended primal k=True": (lambda: extended_self_orthogonal(field_for_q(3), True), DimensionOutOfRange),
    "full-field k=1.0": (lambda: construct_full_field(field_for_q(3), 1.0), DimensionOutOfRange),
    "sets q=5.0": (lambda: valid_parameter_sets("grs-a", 5.0), EvenCharacteristic),
    "grs-a a=True": (lambda: construct_family_A(family_params("grs-a", 5, True, 3)), CongruenceViolated),
    "grs-b m=3.0": (lambda: construct_family_B(ConstructionParams(5, 1, 3.0, 3)), CongruenceViolated),
    "grs-a d=3.0": (lambda: construct_family_A(ConstructionParams(5, 2, 1, 3.0)), DistanceOutOfRange),
    "floor w=2.5": (lambda: min_distance_at_least(construct_full_field(field_for_q(3), 1), 2.5), BadDimension),
    "field q=7.0": (lambda: field_for_q(7.0), FieldTooLarge),
    "field q=9.0": (lambda: field_for_q(9.0), FieldTooLarge),
    "extended k='2'": (lambda: construct_extended(field_for_q(3), "2"), DimensionOutOfRange),
    "grs-a a='1'": (lambda: family_params("grs-a", 5, "1", 3), CongruenceViolated),
    "grs-a a=1.0": (lambda: family_params("grs-a", 5, 1.0, 3), CongruenceViolated),
}


@pytest.mark.parametrize("name", list(NON_INT_CALLS))
def test_library_entry_points_refuse_non_int_parameters(monkeypatch, name):
    # no field is built yet, so field_for_q(7.0) meets no GF(49) keyed (7, 1)
    monkeypatch.setattr(gf, "_CANONICAL", {})
    call, refusal = NON_INT_CALLS[name]
    with pytest.raises(refusal):
        call()
