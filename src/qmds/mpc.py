"""Matrix-product codes: block generators, the duality identities, the
two-code pairing with the [[1,1],[1,p-1]] mixer, and the distance ladder
built on top of it, whose (q, d, variant) ladder_shape alone checks."""

from __future__ import annotations

from .errors import (
    BadDimension,
    DistanceOutOfRange,
    EvenCharacteristic,
    HypothesisViolated,
    LengthMismatch,
    MixedFields,
    NotDualContaining,
    ParityMismatch,
    QmdsError,
    RankDeficientMixer,
)
from .gf import Field, field_for_q
from .grs import (
    LinearCode,
    _family_a_spec,
    _mds_dual,
    _require_odd_q,
    construct_extended,
    euclidean_dual,
    full_field_spec,
    grs_generator,
)
from .linalg import (
    Matrix,
    entrywise_frobenius,
    inverse,
    rank,
    transpose,
)
from .verify import DEFAULT_ENUM_CAP, _min_weight, _require_enumerable, dual_containing_check


class MpcSpec:
    """Ingredient codes plus the s x l mixer that interleaves them.

    Treat instances as immutable.
    """

    __slots__ = ("codes", "mixer")

    def __init__(self, codes, mixer: Matrix):
        self.codes = tuple(codes)
        self.mixer = mixer
        if not self.codes:
            raise BadDimension("need at least one ingredient code")
        f = self.codes[0].field
        if any(c.field is not f for c in self.codes) or self.mixer.field is not f:
            raise MixedFields("ingredients and mixer must share one field")
        length = self.codes[0].n
        if any(c.n != length for c in self.codes):
            raise LengthMismatch("ingredient codes must share one length")
        s, l = self.mixer.rows, self.mixer.cols
        if len(self.codes) != s:
            raise BadDimension(f"{len(self.codes)} codes against {s} mixer rows")
        if s > l or rank(self.mixer) != s:
            raise RankDeficientMixer("mixer must have full row rank")

    @property
    def field(self) -> Field:
        return self.codes[0].field


def matrix_product(spec: MpcSpec) -> LinearCode:
    """The [ml, k_1 + ... + k_s] code with block-row generator (a_ij G_i).

    Its rank is k_1 + ... + k_s without elimination: MpcSpec proves that
    the mixer has full row rank, and each G_i has it.  The recorded
    distance bound is min_i {d_i * delta_i}, where delta_i is the exact
    minimum distance of the code spanned by the first i mixer rows and d_i
    is ingredient i's claimed distance lower bound (1 when it has none).

    When the mixer A is square and every ingredient carries the code D_i
    spanning its Hermitian dual, the product carries D, the D_i mixed
    through (conj(A)^-1)^T (Blackmore-Norton, AAECC 2001).  D is kept only
    when its rows are Hermitian-orthogonal to the product's, checked on
    the two generators, and the dimensions add up to the length; D then
    spans the product's whole Hermitian dual.  D itself carries none.
    Block rows are mostly zero (for a ladder, only 6-25% of their entries
    are nonzero).  Field.hermitian_products packs D's rows into one int per
    column once, and sums each such row over its support against those
    columns, so the check is one sum per block row over its nonzero entries.
    """
    f = spec.field
    mix = spec.mixer
    gen = _block_generator(spec.codes, mix)
    deltas = mixer_prefix_distances(mix)
    bound = min((c.claimed_distance_lb or 1) * de for c, de in zip(spec.codes, deltas))
    code = LinearCode(field=f, generator=gen, claimed_distance_lb=bound)
    duals = [c._hermitian_dual for c in spec.codes]
    if mix.rows == mix.cols and all(d is not None for d in duals):
        # conjugation is a field automorphism, so the conjugated mixer is
        # again nonsingular and the inverse below cannot fail
        dual_mixer = transpose(inverse(entrywise_frobenius(mix)))
        dual = LinearCode(field=f, generator=_block_generator(duals, dual_mixer))
        if code.k + dual.k == code.n and not any(map(any, f.hermitian_products(gen.data, dual.generator.data))):
            code._hermitian_dual = dual
    return code


def _block_generator(codes, mixer: Matrix) -> Matrix:
    """The block rows (a_ij G_i), marked full rank: the caller passes a
    mixer of full row rank and codes of one length, whose generators have
    full row rank as every LinearCode's does.  Each block row is the
    concatenation of its ingredient row scaled by a_i1, ..., a_il; a zero
    a_ij gives a zero block and a one a copy of the row."""
    f = mixer.field
    rows = []
    for arow, code in zip(mixer.data, codes):
        for grow in code.generator.data:
            row = []
            for aij in arow:
                row += f.scale(aij, grow)
            rows.append(row)
    # every entry is a scaled entry of a valid generator
    gen = Matrix._trusted(f, rows, mixer.cols * codes[0].n)
    gen._full_rank = True
    return gen


def mixer_prefix_distances(mixer: Matrix) -> list[int]:
    """delta_i for i = 1..s: exact minimum distance of the length-l code
    spanned by the first i mixer rows (independent, since MpcSpec requires
    full row rank), by the exhaustive enumerator of qmds.verify.  Refused
    with EnumerationTooLarge, before any prefix is enumerated, when the
    whole mixer's q^(2s) messages exceed DEFAULT_ENUM_CAP."""
    _require_enumerable(mixer.field, mixer.rows, DEFAULT_ENUM_CAP)
    return [_min_weight(mixer.field, mixer.data[:i]) for i in range(1, mixer.rows + 1)]


def mpc_dual(spec: MpcSpec) -> LinearCode:
    """Euclidean dual of the product: the ingredient duals mixed through the
    inverse transpose of the mixer."""
    if spec.mixer.rows != spec.mixer.cols:
        raise RankDeficientMixer("the dual identity needs a square nonsingular mixer")
    duals = tuple(euclidean_dual(c) for c in spec.codes)
    return matrix_product(MpcSpec(codes=duals, mixer=transpose(inverse(spec.mixer))))


# -- the two-code pairing --------------------------------------------------------


def pair_mixer(field: Field) -> Matrix:
    """[[1, 1], [1, p-1]] over GF(q^2); needs odd characteristic."""
    if field.p == 2:
        raise EvenCharacteristic("the pairing mixer needs odd characteristic")
    return Matrix(field, [[1, 1], [1, field.neg(1)]])


def pair_construction(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """[2n, k1 + k2] product of two dual-containing codes, itself certified
    dual-containing, with distance bound min{2 d1, d2}.

    The mixer's conjugated inverse transpose is (1/2)[[1, 1], [1, -1]], a
    row scaling of the mixer itself, which is what makes the dual-containment
    argument go through; the output still carries its own certificate.
    """
    return _pair(c1, c2, force=False)[0]


def _pair(c1: LinearCode, c2: LinearCode, force: bool) -> tuple[LinearCode, dict]:
    """The pair product and its dual-containment verdicts, ingredients then
    output; unless forced, a failed verdict raises before the next step."""
    mixer = pair_mixer(c1.field)
    ingredients = [dual_containing_check(c) for c in (c1, c2)]
    if not (force or all(ingredients)):
        raise HypothesisViolated("ingredient is not Hermitian dual-containing")
    out = matrix_product(MpcSpec(codes=(c1, c2), mixer=mixer))
    output = dual_containing_check(out)
    if not (force or output):
        raise NotDualContaining("pair output failed its dual-containment certificate")
    return out, {"ingredient_dual_containing": ingredients, "output_dual_containing": output}


# -- the distance ladder ----------------------------------------------------------

# variant -> (ingredient kind, parity of d, length offset n' - q^2,
#             ceiling offset d_max - q)
LADDER_VARIANTS = {
    1: ("extended", 0, 1, 1),
    2: ("extended", 1, 1, 1),
    3: ("full-field", 0, 0, 0),
    4: ("full-field", 1, 0, 0),
    5: ("family-a", 0, -1, 0),
    6: ("family-a", 1, -1, 0),
}


def ladder_shape(q: int, d: int, variant: int) -> tuple[int, int, int]:
    """Closed-form [2n', 2n' + 2 - d - ceil(d/2)] of the variant's ladder
    code and its ceiling at q, the largest d it certifies.  The one check
    of a ladder's (q, d, variant): it refuses the variant (BadDimension),
    then q (EvenCharacteristic), d (DistanceOutOfRange) and d's parity
    (ParityMismatch), and leaves the ceiling and q's field to its callers."""
    if type(variant) is not int or variant not in LADDER_VARIANTS:
        raise BadDimension(f"variant must be 1..6, got {variant!r}")
    _require_odd_q(q)
    if type(d) is not int or d < 2:
        raise DistanceOutOfRange(f"design distance is an int from 2, got {d!r}")
    _, parity, length, ceiling = LADDER_VARIANTS[variant]
    if d % 2 != parity:
        raise ParityMismatch(f"variant {variant} needs {'even' if parity == 0 else 'odd'} d, got {d}")
    n = 2 * (q * q + length)
    return n, n + 2 - d - (d + 1) // 2, q + ceiling


def ladder_in_window(q: int, d: int, variant: int) -> bool:
    """Whether ladder_shape accepts (q, d, variant), d is at most the
    ceiling and field_for_q accepts q: the window in which mp6_ladder
    certifies its output unforced, and the one decision of whether a ladder
    is certified.  Whatever mp6_ladder refuses unforced is outside it."""
    try:
        return d <= ladder_shape(q, d, variant)[2] and field_for_q(q) is not None
    except QmdsError:
        return False


def mp6_ladder(q: int, d: int, variant: int, force: bool = False) -> LinearCode:
    """Dual-containing [2n', ...] code pairing a design-distance ceil(d/2)
    ingredient with a design-distance d one of the same length n'.

    ladder_shape checks (q, d, variant).  A d past the ceiling raises unless
    force is set, in which case the object is built the same way and its
    containment verdicts are recorded in provenance["forced_checks"]
    instead of being enforced; ladder_in_window says whether the output is
    certified.
    """
    n, k, ceiling = ladder_shape(q, d, variant)
    in_range = d <= ceiling
    if not (in_range or force):
        raise DistanceOutOfRange(
            f"variant {variant} certifies 2 <= d <= {ceiling}; d={d} requires force and loses the certificate"
        )
    field = field_for_q(q)
    c1 = _ladder_ingredient(field, variant, (d + 1) // 2)
    c2 = _ladder_ingredient(field, variant, d)
    out, checks = _pair(c1, c2, force=not in_range)
    if not in_range:
        out.provenance["forced_checks"] = checks
    assert (out.n, out.k, out.claimed_distance_lb) == (n, k, d)
    return out


def _ladder_ingredient(field: Field, variant: int, dprime: int) -> LinearCode:
    """Code of the variant's length with design distance dprime, built as
    the Hermitian dual of an MDS code of dimension dprime - 1: the zero
    code for dprime = 1, whose dual is the full space, else
    construct_extended's primal or the full-field or family-a GRS code.
    So every ingredient carries the code spanning its Hermitian dual, and
    the ladder's ingredient verdict decides whether it is dual-containing.
    """
    kind, _, length, _ = LADDER_VARIANTS[variant]
    k = dprime - 1
    if k == 0:
        return _mds_dual(LinearCode(field=field, generator=Matrix(field, [], cols=field.q2 + length)))
    if kind == "extended":
        # the multiplier solver has no forced mode; its range is a hard precondition
        return construct_extended(field, k)
    spec = full_field_spec(field, k) if kind == "full-field" else _family_a_spec(field, 1, k)
    return _mds_dual(grs_generator(spec))
