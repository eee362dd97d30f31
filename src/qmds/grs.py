"""Generalized Reed-Solomon codes over GF(q^2).

Generator matrices, the Hermitian self-orthogonality criterion, three
parametric self-orthogonal families, and the length q^2 / q^2 + 1
dual-containing realizations.  Families B and C take their multipliers
from the closed-form kernel of a column-scaled Vandermonde system, and the
length q^2 + 1 family takes its multiplier norms from closed forms that
kill the lower power sums, tried in a fixed order.  Constructors verify
their own Gram matrix before returning, so a successfully constructed
object doubles as a certificate.

Each fact is decided once, or read off an identity.  A GRS generator has
distinct points and nonzero multipliers, so its k rows are independent (a
Vandermonde identity): grs_generator and extended_self_orthogonal mark
their generators full rank, and nothing eliminates them to learn it.  A
GrsSpec keeps the one code grs_generator builds from it, and every call
returns that code.  is_self_orthogonal keeps its Gram verdict on the code
object, so a constructor's Gram gate also answers the quantum check on the
code built from its spec.  The Gram matrix is Hermitian, so hermitian_gram
sums only its upper triangle, each row of it one integer sum of digit
polynomials that the field cuts into entries and reduces once
(Field.hermitian_products).

A Hermitian dual keeps the code it was taken of, which spans its own
Hermitian dual in turn, so whether the dual contains its own dual is the
primal's Gram verdict (qmds.verify.dual_containing_check); the full-field
and extended constructors have decided that verdict already.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import (
    BadDimension,
    CongruenceViolated,
    DimensionMismatch,
    DimensionOutOfRange,
    DistanceOutOfRange,
    DuplicatePoints,
    EvenCharacteristic,
    NotSelfOrthogonal,
    SolverFailure,
    ZeroMultiplier,
)
from .gf import Field, field_for_q
from .linalg import Matrix, entrywise_frobenius, nullspace, rank

# most cells, (n - k) * n, of the Hermitian dual a full-field or extended code
# is built as: every k at q = 64 (at most 4096 * 4097 cells) fits, and no k
# at q = 67 (2.0e7 cells) or above does
DUAL_CELL_CAP = 17_000_000


class GrsSpec:
    """Evaluation data for a GRS code: points, column multipliers, dimension.

    Treat instances as immutable; every point and multiplier is a field
    element, an int in 0..q^2 - 1, and k is an int.
    """

    __slots__ = ("field", "points", "multipliers", "k", "_code")

    def __init__(self, field: Field, points, multipliers, k: int):
        self.field = field
        self.points = tuple(points)
        self.multipliers = tuple(multipliers)
        self.k = k
        # the code grs_generator builds from this spec, once; a new spec
        # over the same data starts without one
        self._code: LinearCode | None = None
        q2 = field.q2
        for x in self.points + self.multipliers:
            if type(x) is not int or not 0 <= x < q2:
                raise DimensionMismatch(f"entry {x!r} outside field of size {q2}")
        n = len(self.points)
        if len(set(self.points)) != n:
            raise DuplicatePoints("evaluation points must be pairwise distinct")
        if len(self.multipliers) != n:
            raise BadDimension(f"{n} points against {len(self.multipliers)} multipliers")
        if any(v == 0 for v in self.multipliers):
            raise ZeroMultiplier("column multipliers must be nonzero")
        if type(self.k) is not int or not 1 <= self.k <= n:
            raise BadDimension(f"dimension {self.k!r} outside 1..{n}")

    @property
    def n(self) -> int:
        return len(self.points)


class LinearCode:
    """An [n, k] code presented by a full-rank generator matrix.

    It holds only what its constructor proved: claimed_distance_lb is the
    best lower bound on its distance that the construction gives, or None.
    A code file's claims stay with the file (cli.load_code_file returns
    them beside the code).  provenance starts empty; only a ladder forced
    past its window fills it in, with its failed checks.  The generator is
    never reassigned after construction, so is_self_orthogonal keeps its
    verdict in _self_orthogonal.

    _hermitian_dual holds a code spanning this code's Hermitian dual, or
    None.  Only hermitian_dual (pointing back to the primal) and
    mpc.matrix_product (after checking the dual on the two generators) set
    it.  The link runs one way, from a dual to its primal or from a product
    to a code built for it, so it never closes a reference cycle.
    """

    __slots__ = (
        "field",
        "generator",
        "claimed_distance_lb",
        "provenance",
        "_self_orthogonal",
        "_hermitian_dual",
    )

    def __init__(
        self,
        field: Field,
        generator: Matrix,
        claimed_distance_lb: int | None = None,
    ):
        self.field = field
        self.generator = generator
        self.claimed_distance_lb = claimed_distance_lb
        self.provenance: dict = {}
        self._self_orthogonal: bool | None = None
        self._hermitian_dual: LinearCode | None = None
        if generator.field is not field:
            raise DimensionMismatch("generator matrix lives in a different field")
        if rank(generator) != generator.rows:
            raise BadDimension("generator rows are linearly dependent")

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q2}))"


def _require_odd_q(q: int) -> None:
    """Refuse a q that is not an odd int of at least 3."""
    if type(q) is not int or q < 3 or q % 2 == 0:
        raise EvenCharacteristic(f"q must be an odd prime power >= 3, got {q!r}")


class ConstructionParams(NamedTuple):
    """(q, a, m, d) for the parametric families.  It refuses nothing: each
    family's constructor runs _check_window on it before building anything,
    and family_params derives m from the family's congruence."""

    q: int
    a: int
    m: int
    d: int


def grs_generator(spec: GrsSpec) -> LinearCode:
    """The code with rows (v_1 a_1^j, ..., v_n a_n^j) for j = 0..k-1.

    Row 0 is the multipliers and each later row is the one before times
    the points, entry by entry, so no power is taken; a point 0 keeps v in
    row 0 and 0 after it, the 0^0 = 1 convention.

    Its entries are products of elements GrsSpec has checked, so none is
    checked again, and it is marked full rank: GrsSpec has refused
    duplicate points, zero multipliers and k outside 1..n, and k rows on
    distinct points with nonzero multipliers are independent, since every
    k x k minor is a column-scaled Vandermonde determinant.  For the same
    reason GRS codes are MDS, so n - k + 1 is recorded as a claimed distance
    lower bound.

    The code is built at the first call, kept in spec._code and returned
    by every later call, Gram verdict and all: callers share it and write
    no claim on it.
    """
    if spec._code is None:
        f = spec.field
        generator = Matrix._trusted(f, _running_product_rows(f, spec.multipliers, spec.points, spec.k), spec.n)
        generator._full_rank = True
        spec._code = LinearCode(field=f, generator=generator, claimed_distance_lb=spec.n - spec.k + 1)
    return spec._code


def _running_product_rows(field: Field, multipliers, points, k: int) -> list[list[int]]:
    """The k GRS rows v, v*a, v*a^2, ...: each row is the one before times
    the points, entry by entry."""
    rows = [list(multipliers)]
    while len(rows) < k:
        rows.append(field.vmul(rows[-1], points))
    return rows


def power_sum(spec: GrsSpec, e: int) -> int:
    """Sum of norm(v_i) * a_i^e over the support points, with 0^0 = 1."""
    f = spec.field
    acc = 0
    for a, v in zip(spec.points, spec.multipliers):
        acc = f.add(acc, f.mul(f.norm(v), f.pow(a, e)))
    return acc


def hermitian_gram(code: LinearCode) -> Matrix:
    """The k x k matrix of pairwise Hermitian inner products of generator rows.

    All-zero exactly when the code is contained in its Hermitian dual.
    Entry (i, j) is the sum of g_i g_j^q, so entry (j, i) is its q-th
    power: only the entries with i <= j are summed, and each one below the
    diagonal is the conjugate of its mirror image.  Field.hermitian_products
    sums them: it stacks the conjugate rows into one packed int per column,
    so row i's entries with every row j >= i come from one integer sum, and
    reduces each entry once.
    """
    f, g = code.field, code.generator
    k = g.rows
    gram = [[0] * k for _ in range(k)]
    for i, upper in enumerate(f.hermitian_products(g.data)):
        gram[i][i:] = upper
        for j, x in enumerate(f.conjugate(upper[1:]), i + 1):
            gram[j][i] = x
    return Matrix._trusted(f, gram, k)


def is_self_orthogonal(code: LinearCode) -> bool:
    """Whether the Hermitian Gram matrix is zero, decided once per code
    object and kept in its _self_orthogonal."""
    if code._self_orthogonal is None:
        code._self_orthogonal = hermitian_gram(code).is_zero()
    return code._self_orthogonal


def hermitian_dual(code: LinearCode) -> LinearCode:
    """Generator of {x : <x, c>_H = 0 for every codeword c}; dimension n - k.

    The kernel basis has full rank by construction, so only the conjugate
    of code's generator is eliminated.  The dual carries code, which spans
    its own Hermitian dual, since (C^perp_H)^perp_H = C.
    """
    dual = LinearCode(field=code.field, generator=nullspace(entrywise_frobenius(code.generator)))
    dual._hermitian_dual = code
    return dual


def euclidean_dual(code: LinearCode) -> LinearCode:
    return LinearCode(field=code.field, generator=nullspace(code.generator))


# -- the three parametric families ---------------------------------------------


def construct_family_A(params: ConstructionParams) -> GrsSpec:
    """Self-orthogonal GRS spec of length (q^2 - 1)/a at q = 2am + 1.

    Points run through the powers of omega^a; multipliers repeat a block of
    doubled powers.  The spec is checked against the Gram oracle.
    """
    return _gated_family("grs-a", params, NotSelfOrthogonal, _family_a_spec, a=params.a)


def _family_a_spec(field: Field, a: int, k: int) -> GrsSpec:
    # no range policing or Gram gate; construct_family_A adds both
    q = field.q
    n = (q * q - 1) // a
    block = []
    for e in [q - 1] + [a * s for s in range(1, (q - 1) // a)]:
        block += [field.exp(e), field.exp(e)]
    return GrsSpec(
        field=field,
        points=tuple(field.exp(a * i) for i in range(1, n + 1)),
        multipliers=tuple(block * ((q + 1) // 2)),
        k=k,
    )


def construct_family_B(params: ConstructionParams) -> GrsSpec:
    """Self-orthogonal GRS spec of length (q - 1)(m - 1) at q = 2am - 1.

    Multiplier exponents come from the GF(q)-valued kernel of a
    column-scaled Vandermonde system (_kernel_family_spec, step 2a and
    scale exponent m - 3); points are the powers of omega^(2a) whose
    exponents avoid the multiples of q + 1.
    """
    m = params.m
    return _gated_family("grs-b", params, SolverFailure, _kernel_family_spec, m=m,
                         step=2 * params.a, s=m - 3, shift=-(m - 3))


def construct_family_C(params: ConstructionParams) -> GrsSpec:
    """Self-orthogonal GRS spec of length (q - 1)(m - 1) at q = (2a + 1)m - 1.

    Same kernel pipeline as family B, with step 2a + 1 and scale exponent
    q - 2; a = 0 is allowed and gives the length q^2 - q family.
    """
    return _gated_family("grs-c", params, SolverFailure, _kernel_family_spec, m=params.m,
                         step=2 * params.a + 1, s=params.q - 2, shift=1)


def _gated_family(family: str, params: ConstructionParams, failure: type, build, **shape) -> GrsSpec:
    """The spec build(field, k=d - 1, **shape) on GF(q^2): refused before it
    is built when params are outside the family's window, and with failure
    after when its Gram matrix is not zero."""
    _check_window(family, params)
    spec = build(field_for_q(params.q), k=params.d - 1, **shape)
    if not is_self_orthogonal(grs_generator(spec)):
        raise failure(f"family {family[-1].upper()} spec failed its own Gram certificate")
    return spec


def _kernel_family_spec(field, m, k, step, s, shift) -> GrsSpec:
    """Shared pipeline for families B and C.

    Points are omega^(step j) for j = 1 .. (q - 1)m off the multiples of m.
    The base multipliers are the GF(q)-valued kernel of a column-scaled
    Vandermonde system, in the closed form of _subfield_kernel
    (MacWilliams-Sloane, ch. 10); their discrete logs divided by q + 1 are
    the base multiplier exponents, rolled across q - 1 blocks with the
    family's per-block shift.
    """
    q = field.q
    # log is a multiple of q + 1 for GF(q) elements
    exps = [field.log(c) // (q + 1) for c in _subfield_kernel(field, m, step, s)]
    points = tuple(field.exp(step * j) for j in range(1, (q - 1) * m + 1) if j % m)
    mults = tuple(field.exp(e + shift * b) for b in range(q - 1) for e in exps)
    return GrsSpec(field=field, points=points, multipliers=mults, k=k)


def _subfield_kernel(field: Field, m: int, step: int, s: int) -> list[int]:
    """The kernel of the (m - 2) x (m - 1) system whose row i is
    beta_j^s gamma_j^(i - 1), with beta_j = omega^(step j) and
    gamma_j = beta_j^(q - 1) for j = 1 .. m - 1, scaled so that c_1 = 1.

    gamma = omega^(step (q - 1)) has order m, so the gamma_j are distinct,
    the Vandermonde system has full rank and its kernel is the line of
    u_j = prod_{l != j} (gamma_j - gamma_l)^-1 (MacWilliams-Sloane, ch. 10);
    the kernel of the scaled system is c_j = u_j / beta_j^s, nonzero
    everywhere.  The families need c in GF(q), and SolverFailure says when
    the line has no such representative.
    """
    q = field.q
    gammas = [field.exp(step * j * (q - 1)) for j in range(1, m)]
    dens = []  # 1 / c_j before scaling
    for j, g in enumerate(gammas, 1):
        den = field.exp(step * j * s)
        for h in gammas:
            if h != g:
                den = field.mul(den, field.sub(g, h))
        dens.append(den)
    c = field.vdiv([dens[0]] * len(dens), dens)
    if field.conjugate(c) != c:
        raise SolverFailure("kernel line has no GF(q) representative")
    return c


# family -> (constructor, congruence, divmod(q - shift, step(a)), smallest a,
#            smallest m, d_max(a, m)) for the congruence q = step(a) * m + shift
GRS_FAMILIES = {
    "grs-a": (construct_family_A, "2am + 1", lambda q, a: divmod(q - 1, 2 * a), 1, 1,
              lambda a, m: (a + 1) * m + 1),
    "grs-b": (construct_family_B, "2am - 1", lambda q, a: divmod(q + 1, 2 * a), 1, 2,
              lambda a, m: (a + 1) * m - 2),
    "grs-c": (construct_family_C, "(2a + 1)m - 1", lambda q, a: divmod(q + 1, 2 * a + 1), 0, 2,
              lambda a, m: (a + 1) * m - 1),
}


def _family(family: str) -> tuple:
    """The GRS_FAMILIES row of a family name, or BadDimension."""
    if family not in GRS_FAMILIES:
        raise BadDimension(f"unknown family {family!r}")
    return GRS_FAMILIES[family]


def _check_window(family: str, params: ConstructionParams) -> None:
    """Refuse (q, a, m, d) outside the family's window, or not all ints: the
    one check of a family's parameters, run before anything is built."""
    _, congruence, divide, a_min, m_min, d_max = GRS_FAMILIES[family]
    q, a, m, d = params
    _require_odd_q(q)
    name = "family " + family[-1].upper()
    if type(a) is not int or type(m) is not int or a < a_min or divide(q, a) != (m, 0):
        raise CongruenceViolated(f"{name} needs q = {congruence}, got q={q}, a={a!r}, m={m!r}")
    if m < m_min:
        raise BadDimension(f"{name} is empty for m < {m_min}")
    if type(d) is not int or not 2 <= d <= d_max(a, m):
        raise DistanceOutOfRange(f"{name} supports 2 <= d <= {d_max(a, m)}, got d={d!r}")


def family_params(family: str, q: int, a: int, d: int) -> ConstructionParams:
    """(q, a, m, d) with m derived from the named family's congruence.

    A refused a is named with the q given, never with a derived m; at
    q >= 3 a zero remainder leaves m >= 1.  The constructor checks the rest.
    """
    _, congruence, divide, a_min, _, _ = _family(family)
    if type(a) is not int or a < a_min:
        raise CongruenceViolated(f"{family} needs a >= {a_min}, got {a!r}")
    _require_odd_q(q)
    m, rest = divide(q, a)
    if rest:
        raise CongruenceViolated(f"{family} needs q = {congruence} for some integer m >= 1, got q={q}, a={a}")
    return ConstructionParams(q=q, a=a, m=m, d=d)


def valid_parameter_sets(family: str, q: int) -> list[ConstructionParams]:
    """Every (a, m, d) the named family accepts at this q, ordered by (a, d).

    family is one of "grs-a", "grs-b", "grs-c".  The congruence fixes m once
    step(a) divides q - shift, and d sweeps the certified window.
    """
    _require_odd_q(q)
    _, _, divide, a_min, m_min, d_max = _family(family)
    out = []
    for a in range(a_min, q + 1):
        m, rest = divide(q, a)
        if rest == 0 and m >= m_min:
            out.extend(ConstructionParams(q=q, a=a, m=m, d=d) for d in range(2, d_max(a, m) + 1))
    return out


# -- length q^2: every field element a point ------------------------------------


def full_field_spec(field: Field, k: int) -> GrsSpec:
    """GRS_k on all of GF(q^2) with unit multipliers; self-orthogonal for k <= q - 1."""
    return GrsSpec(
        field=field,
        points=tuple(field.elements()),
        multipliers=(1,) * field.q2,
        k=k,
    )


def construct_full_field(field: Field, k: int) -> LinearCode:
    """Hermitian dual-containing [q^2, q^2 - k] code with design distance k + 1.

    The self-orthogonal side is the unit-multiplier GRS code on the whole
    field (power sums vanish because every exponent below q^2 - 1 sums to
    zero over a full field); what is returned is its Hermitian dual.
    """
    q = field.q
    if type(k) is not int or not 1 <= k <= q - 1:
        raise DimensionOutOfRange(f"need 1 <= k <= q - 1 = {q - 1}, got k={k!r}")
    _check_dual_cells(field.q2, k)
    primal = grs_generator(full_field_spec(field, k))
    if not is_self_orthogonal(primal):
        raise NotSelfOrthogonal("full-field spec failed its own Gram certificate")
    return _mds_dual(primal)


def _check_dual_cells(n: int, k: int) -> None:
    """Refuse a length-n code whose [n, n - k] Hermitian dual would have more
    than DUAL_CELL_CAP cells, or a k that is no int; called before either
    code is built."""
    if type(k) is not int:
        raise DimensionOutOfRange(f"k = {k!r} is not an int")
    cells = (n - k) * n
    if cells > DUAL_CELL_CAP:
        raise DimensionOutOfRange(f"the [{n}, {n - k}] dual would have {cells} cells, over {DUAL_CELL_CAP}")


def _mds_dual(primal: LinearCode) -> LinearCode:
    """The Hermitian dual of an MDS [n, k] code, with design distance k + 1:
    the dual of an MDS code is MDS, whether or not it contains its own dual."""
    dual = hermitian_dual(primal)
    dual.claimed_distance_lb = primal.k + 1
    return dual


# -- length q^2 + 1: one extension coordinate ------------------------------------


def construct_extended(field: Field, k: int) -> LinearCode:
    """Hermitian dual-containing [q^2 + 1, q^2 + 1 - k] code, design distance k + 1."""
    _check_dual_cells(field.q2 + 1, k)
    return _mds_dual(extended_self_orthogonal(field, k))


def extended_self_orthogonal(field: Field, k: int) -> LinearCode:
    """Self-orthogonal [q^2 + 1, k] code: GRS rows on every field element
    plus one extension coordinate folded into the top-degree row.

    The multiplier norms u_i (GF(q)-valued) must kill every power sum
    sum_i u_i a_i^(qj + l), 0 <= j, l < k, except the top one, whose
    nonzero value the extension coordinate absorbs.  The first closed-form
    candidate (see _extension_candidates) with no zero entry, a nonzero top
    sum and a zero Gram matrix gives the code, its generator marked full
    rank: the first q^2 columns are GRS_k on all of GF(q^2) with nonzero
    multipliers.  Every odd q under DUAL_CELL_CAP gets a code at every k in
    1..q.  An even q is refused at k = q - 1 before anything is built, since
    there the one closed form provably has a zero entry.
    """
    q, q2 = field.q, field.q2
    if type(k) is not int or not 1 <= k <= q:
        raise DimensionOutOfRange(f"need 1 <= k <= q = {q}, got k={k!r}")
    if field.p == 2 and k == q - 1:
        # with c^2 = b and x^2 = N(c), x in GF(q), the point alpha = x/c has
        # N(alpha) = 1 and Tr(b*alpha^2) = Tr(x)^2 = 0, so u_b(alpha) = 0
        raise DimensionOutOfRange(
            f"even q={q} has no code at k = q - 1 = {k}: with c^2 = b and x^2 = N(c), "
            "alpha = x/c is a root of every u_b = 1 + N(alpha) + Tr(b alpha^2)"
        )
    points = list(field.elements())
    top_powers = [field.pow(alpha, (q + 1) * (k - 1)) for alpha in points]
    for u in _extension_candidates(field, k, points):
        if 0 in u:
            continue
        # the top powers N(alpha)^(k - 1) lie in GF(q), which conjugation
        # fixes, so their Hermitian product with u is the plain sum
        [[top]] = field.hermitian_products([u], [top_powers])
        if top == 0:
            continue  # the extension coordinate would need norm zero
        mults = [field.norm_preimage(x) for x in u]
        rows = _running_product_rows(field, mults, points, k)
        eta = field.norm_preimage(field.neg(top))
        rows = [row + [0] for row in rows[:-1]] + [rows[-1] + [eta]]
        generator = Matrix(field, rows, cols=q2 + 1)
        generator._full_rank = True
        code = LinearCode(field, generator, claimed_distance_lb=q2 + 2 - k)
        if is_self_orthogonal(code):
            return code
    raise SolverFailure(f"no closed-form multiplier candidate gives a self-orthogonal code (q={q}, k={k})")


def _extension_candidates(field: Field, k: int, points: list[int]):
    """Closed-form multiplier norms u that kill every power sum but the
    top one: all ones at k = q, one rootless polynomial in the norm at
    k <= q - 2, and the norm-plus-trace perturbations
    u_b = 1 + N(alpha) + Tr(b alpha^2), b = 1 .. q^2 - 1, at k = q - 1.  A
    yield may still have a zero entry or a zero top sum; the caller skips
    those, and refuses k = q - 1 at even q, where every u_b has a root."""
    q = field.q
    subfield = field.subfield_elements()
    nonzero_sub = subfield[1:]
    norms = [field.norm(alpha) for alpha in points]
    if k == q:
        # all power sums below the top vanish over the whole field
        yield [1] * len(points)
    elif k == q - 1:
        # 1 + N(alpha) + Tr(b*alpha^2) kills the lower power sums
        base = field.vadd([1] * len(points), norms)
        squares = field.vmul(points, points)
        for b in range(1, field.q2):
            z = field.scale(b, squares)
            yield field.vadd(base, field.vadd(z, field.conjugate(z)))
    else:
        # the first P of exact degree q - k >= 2 with P(0) = 1 and no root in
        # GF(q), applied to the point norms: no entry is zero and the top
        # power sum is minus P's leading coefficient.  product() stores each
        # argument whole, so it gets q - k - 1 copies of the subfield for the
        # middle coefficients, never a nested product
        polys = ((1,) + c for c in itertools.product(*[subfield] * (q - k - 1), nonzero_sub))
        coeffs = next(c for c in polys if all(_poly_eval(field, c, x) for x in subfield))
        yield [_poly_eval(field, coeffs, nrm) for nrm in norms]


def _poly_eval(field: Field, coeffs, x: int) -> int:
    """Horner evaluation, coefficients listed from the constant term up."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc
