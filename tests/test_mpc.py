"""Matrix-product layer: block generator, duality identity, pairing, ladder."""

from __future__ import annotations

import gc
import random
import time

import pytest

from qmds.errors import (
    BadDimension,
    DistanceOutOfRange,
    EnumerationTooLarge,
    EvenCharacteristic,
    HypothesisViolated,
    LengthMismatch,
    MixedFields,
    ParityMismatch,
    RankDeficientMixer,
)
from qmds.gf import field_for_q, field_new
from qmds.grs import LinearCode, construct_full_field
from qmds.linalg import (
    Matrix,
    entrywise_frobenius,
    inverse,
    nullspace,
    rank,
    row_equivalent,
    row_space_contains,
    stack,
    transpose,
)
from qmds.mpc import (
    MpcSpec,
    _ladder_ingredient,
    ladder_in_window,
    matrix_product,
    mixer_prefix_distances,
    mp6_ladder,
    mpc_dual,
    pair_construction,
    pair_mixer,
)
from qmds.verify import dual_containing_check, min_distance_at_least, min_distance_exact

from test_linalg import identity


def random_code(f, rng, n, k=None):
    while True:
        rows = k if k is not None else rng.randrange(1, n + 1)
        data = [[rng.randrange(f.q2) for _ in range(n)] for _ in range(rows)]
        if rank(Matrix(f, data)) == rows:
            return LinearCode(field=f, generator=Matrix(f, data))


def random_square_mixer(f, rng, s):
    while True:
        m = Matrix(f, [[rng.randrange(f.q2) for _ in range(s)] for _ in range(s)])
        if rank(m) == s:
            return m


def test_block_generator_layout():
    # [[1,1],[1,2]] mixing two single-row codes: entries land block by block
    f = field_for_q(3)
    w = f.exp(1)
    c1 = LinearCode(field=f, generator=Matrix(f, [[1, w]]))
    c2 = LinearCode(field=f, generator=Matrix(f, [[1, 1]]))
    mixer = Matrix(f, [[1, 1], [1, 2]])
    prod = matrix_product(MpcSpec(codes=(c1, c2), mixer=mixer))
    assert prod.generator.data == [[1, w, 1, w], [1, 1, 2, 2]]


def test_dimension_additivity():
    f = field_for_q(3)
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randrange(2, 6)
        codes = (random_code(f, rng, n), random_code(f, rng, n))
        prod = matrix_product(MpcSpec(codes=codes, mixer=random_square_mixer(f, rng, 2)))
        assert prod.n == 2 * n
        assert prod.k == codes[0].k + codes[1].k


def test_identity_mixer_preserves_code():
    f = field_for_q(3)
    rng = random.Random(3)
    code = random_code(f, rng, 5, k=2)
    prod = matrix_product(MpcSpec(codes=(code,), mixer=identity(f, 1)))
    assert prod.n == code.n and prod.k == code.k
    assert row_equivalent(prod.generator, code.generator)


def test_mixer_prefix_distances():
    f = field_for_q(3)
    assert mixer_prefix_distances(pair_mixer(f)) == [2, 1]
    assert mixer_prefix_distances(identity(f, 3)) == [1, 1, 1]
    # [[1,1,1]] alone spans the repetition code of length 3
    assert mixer_prefix_distances(Matrix(f, [[1, 1, 1]])) == [3]


def test_a_mixer_past_the_enumeration_cap_is_refused_at_once():
    # GF(64)^9 messages exceed the cap; the 8-row prefix alone would take
    # about 4.4e12 scalar classes
    f = field_for_q(8)
    mixer = identity(f, 9)
    codes = [LinearCode(field=f, generator=Matrix(f, [[1]]))] * 9
    for call in (lambda: mixer_prefix_distances(mixer), lambda: matrix_product(MpcSpec(codes, mixer))):
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLarge):
            call()
        assert time.perf_counter() - start < 1


def test_dual_identity_random():
    # Euclidean dual of the product equals the dual ingredients mixed
    # through the inverse transpose
    f = field_for_q(3)
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randrange(2, 7)
        spec = MpcSpec(
            codes=(random_code(f, rng, n), random_code(f, rng, n)),
            mixer=random_square_mixer(f, rng, 2),
        )
        claimed = mpc_dual(spec)
        oracle = nullspace(matrix_product(spec).generator)
        assert claimed.k == oracle.rows
        if oracle.rows:
            assert row_equivalent(claimed.generator, oracle)


def test_product_bound_never_exceeds_true_distance():
    f = field_for_q(3)
    rng = random.Random(47)
    for _ in range(15):
        n = rng.randrange(2, 5)
        codes = (random_code(f, rng, n, k=1), random_code(f, rng, n, k=rng.randrange(1, n + 1)))
        for c in codes:
            c.claimed_distance_lb = min_distance_exact(c)
        prod = matrix_product(MpcSpec(codes=codes, mixer=random_square_mixer(f, rng, 2)))
        assert prod.claimed_distance_lb <= min_distance_exact(prod)


def test_unclaimed_ingredient_distance_defaults_to_one():
    f = field_for_q(3)
    code = LinearCode(field=f, generator=Matrix(f, [[1, 0], [0, 1]]))
    prod = matrix_product(MpcSpec(codes=(code,), mixer=Matrix(f, [[1, 1]])))
    assert prod.claimed_distance_lb == 1 * 2


def test_spec_validation():
    f9, f25 = field_for_q(3), field_for_q(5)
    rng = random.Random(0)
    c9 = random_code(f9, rng, 3, k=1)
    c25 = random_code(f25, rng, 3, k=1)
    with pytest.raises(MixedFields):
        MpcSpec(codes=(c9, c25), mixer=identity(f9, 2))
    with pytest.raises(MixedFields):
        MpcSpec(codes=(c9,), mixer=identity(f25, 1))
    with pytest.raises(LengthMismatch):
        MpcSpec(codes=(c9, random_code(f9, rng, 4, k=1)), mixer=identity(f9, 2))
    with pytest.raises(RankDeficientMixer):
        MpcSpec(codes=(c9, c9), mixer=Matrix(f9, [[1, 1], [2, 2]]))
    with pytest.raises(RankDeficientMixer):
        # more rows than columns can never have full row rank
        MpcSpec(codes=(c9, c9), mixer=Matrix(f9, [[1], [2]]))
    with pytest.raises(BadDimension):
        MpcSpec(codes=(c9,), mixer=identity(f9, 2))
    with pytest.raises(BadDimension):
        MpcSpec(codes=(), mixer=identity(f9, 1))


def test_dual_needs_square_mixer():
    f = field_for_q(3)
    rng = random.Random(1)
    spec = MpcSpec(codes=(random_code(f, rng, 4, k=2),), mixer=Matrix(f, [[1, 1]]))
    with pytest.raises(RankDeficientMixer):
        mpc_dual(spec)


# -- pairing ------------------------------------------------------------------


def test_pair_mixer_conjugate_inverse_transpose_closed_form():
    # [(A^(q))^(-1)]^t = [[(p+1)/2, (p+1)/2], [(p+1)/2, (p-1)/2]] entrywise,
    # for t = 1 and for the towers GF(81), GF(625) and GF(729) with t > 1
    for q in (3, 5, 7, 9, 25, 27):
        f = field_for_q(q)
        mixer = pair_mixer(f)
        got = transpose(inverse(entrywise_frobenius(mixer)))
        half = (f.p + 1) // 2 % f.p
        want = Matrix(f, [[half, half], [half, (f.p - 1) // 2 % f.p]])
        assert got == want, q


@pytest.mark.parametrize("variant", [1, 3, 5])  # extended, full-field, family-a
def test_pair_mixer_and_its_conjugate_inverse_transpose_span_one_code(variant):
    # the identity pair_construction's dual-containment argument rests on
    f = field_for_q(3)
    codes = (_ladder_ingredient(f, variant, 2), _ladder_ingredient(f, variant, 3))
    mixer = pair_mixer(f)
    conj_mixer = transpose(inverse(entrywise_frobenius(mixer)))
    direct = matrix_product(MpcSpec(codes=codes, mixer=mixer))
    rephrased = matrix_product(MpcSpec(codes=codes, mixer=conj_mixer))
    assert row_equivalent(direct.generator, rephrased.generator)


def test_pair_mixer_needs_odd_characteristic():
    with pytest.raises(EvenCharacteristic):
        pair_mixer(field_new(2, 1))


def test_pair_of_full_field_duals():
    # [9,8] d>=2 with [9,7] d>=3 gives a dual-containing [18,15] with bound 3
    f = field_for_q(3)
    c1 = construct_full_field(f, 1)
    c2 = construct_full_field(f, 2)
    out = pair_construction(c1, c2)
    assert (out.n, out.k) == (18, 15)
    assert out.claimed_distance_lb == 3
    assert row_space_contains(out.generator, nullspace(entrywise_frobenius(out.generator)))


def test_pair_rejects_non_dual_containing_ingredient():
    f = field_for_q(3)
    thin = LinearCode(field=f, generator=Matrix(f, [[1] + [0] * 8]))
    with pytest.raises(HypothesisViolated):
        pair_construction(thin, construct_full_field(f, 1))


def test_containment_check_reports_both_ways():
    f = field_for_q(3)
    good = MpcSpec(
        codes=(construct_full_field(f, 1), construct_full_field(f, 2)),
        mixer=pair_mixer(f),
    )
    assert dual_containing_check(matrix_product(good))
    thin = LinearCode(field=f, generator=Matrix(f, [[1] + [0] * 8]))
    bad = MpcSpec(codes=(thin, thin), mixer=pair_mixer(f))
    assert not dual_containing_check(matrix_product(bad))


# -- ladder -------------------------------------------------------------------


def test_ladder_q3_d2_v5():
    code = mp6_ladder(3, 2, 5)
    assert (code.n, code.k) == (16, 15)
    assert code.claimed_distance_lb == 2
    assert ladder_in_window(3, 2, 5)
    # the bound is tight here
    assert min_distance_at_least(code, 2)
    assert not min_distance_at_least(code, 3)


def test_ladder_q3_d3_v2():
    code = mp6_ladder(3, 3, 2)
    assert (code.n, code.k) == (20, 17)
    assert code.claimed_distance_lb == 3
    assert min_distance_at_least(code, 3)


def test_ladder_shapes_across_variants():
    # lengths 2q^2+2, 2q^2, 2q^2-2 and the matching dimension formulas
    q = 3
    want = {
        1: (20, 19),  # d=2: 2q^2+4-d-d/2
        2: (20, 17),  # d=3: 2q^2+3-d-(d-1)/2
        3: (18, 17),  # d=2
        4: (18, 15),  # d=3
        5: (16, 15),  # d=2: 2q^2-d-d/2
        6: (16, 13),  # d=3
    }
    for variant, (n, k) in want.items():
        d = 2 if variant in (1, 3, 5) else 3
        code = mp6_ladder(q, d, variant)
        assert (code.n, code.k) == (n, k), variant
        assert code.claimed_distance_lb == d


def test_ladder_full_space_ingredient_at_d2():
    # d=2 means the first ingredient is the whole space, distance exactly 1
    code = mp6_ladder(3, 2, 3)
    assert (code.n, code.k) == (18, 17)
    assert code.claimed_distance_lb == 2


def test_ladder_validation():
    with pytest.raises(BadDimension):
        mp6_ladder(3, 2, 7)
    with pytest.raises(EvenCharacteristic):
        mp6_ladder(4, 2, 5)
    with pytest.raises(ParityMismatch):
        mp6_ladder(3, 3, 5)
    with pytest.raises(ParityMismatch):
        mp6_ladder(3, 2, 2)
    with pytest.raises(DistanceOutOfRange):
        mp6_ladder(3, 0, 5)
    with pytest.raises(DistanceOutOfRange):
        mp6_ladder(3, 4, 5)  # q=3 caps even variants at d=3


@pytest.mark.parametrize("variant", [2.0, True, "2", 0, 7, None])
def test_the_window_holds_only_the_variants_mp6_ladder_takes(variant):
    # LADDER_VARIANTS[2.0] would find variant 2, and LADDER_VARIANTS[7] raise
    # a bare KeyError; mp6_ladder refuses each of these variants
    assert not ladder_in_window(3, 3, variant)
    with pytest.raises(BadDimension):
        mp6_ladder(3, 3, variant)


def test_ladder_forced_beyond_range():
    # force assembles the object anyway and reports the failed certificates
    code = mp6_ladder(3, 4, 5, force=True)
    assert (code.n, code.k) == (16, 12)
    assert not ladder_in_window(3, 4, 5)
    checks = code.provenance["forced_checks"]
    assert checks["output_dual_containing"] is False
    # the first ingredient (design distance 2) is still inside its window
    assert checks["ingredient_dual_containing"] == [True, False]


def test_ladder_output_is_dual_containing_in_range():
    for variant, d in ((1, 2), (2, 3), (3, 2), (4, 3), (5, 2), (6, 3)):
        code = mp6_ladder(3, d, variant)
        gram_dual = nullspace(entrywise_frobenius(code.generator))
        assert rank(stack(code.generator, gram_dual)) == code.k, variant


def test_a_ladder_leaves_no_reference_cycle():
    # a dual points back to its primal and a product to its own dual, never
    # the other way, so reference counting frees every object a ladder makes
    field_for_q(5)
    gc.collect()
    gc.disable()
    try:
        mp6_ladder(5, 5, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ladder_provenance_holds_only_what_its_readers_read():
    # ladder_in_window alone says whether a ladder is certified
    assert mp6_ladder(3, 2, 5).provenance == {}
    forced = mp6_ladder(3, 4, 5, force=True)
    assert set(forced.provenance) == {"forced_checks"}


def test_products_carry_no_provenance():
    f = field_for_q(3)
    c = construct_full_field(f, 1)
    spec = MpcSpec(codes=(c, c), mixer=pair_mixer(f))
    codes = [matrix_product(spec), mpc_dual(spec), pair_construction(c, c)]
    assert all(code.provenance == {} for code in codes)
