"""Generalized Reed-Solomon codes over GF(q^2).

Generator matrices, the Hermitian self-orthogonality criterion, three
parametric self-orthogonal families, and the length q^2 / q^2 + 1
dual-containing realizations.  Constructors verify their own Gram matrix
before returning, so a successfully constructed object doubles as a
certificate.

Each fact is decided once.  A GrsSpec keeps the first code grs_generator
built from it, and later calls hand out fresh codes on that code's
generator, whose full row rank is then already certified.  is_self_orthogonal
keeps its Gram verdict on the code object, and grs_generator passes the
first code's verdict on to the later ones, so a constructor's Gram gate
also answers the quantum check on the code built from its spec.  The Gram
matrix is Hermitian, so hermitian_gram sums only its upper triangle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dataclass_field

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
from .linalg import Matrix, entrywise_frobenius, mat_vec, nullspace, rank, subfield_nullvector

# the multiplier-norm solver gives up after this many kernel samples
SOLVER_RETRIES = 100
# of which at most this many are structured picks; the rest are random
STRUCTURED_PICKS = 60


@dataclass(frozen=True)
class GrsSpec:
    """Evaluation data for a GRS code: points, column multipliers, dimension."""

    field: Field
    points: tuple[int, ...]
    multipliers: tuple[int, ...]
    k: int
    # the first code grs_generator built from this spec; a replaced or
    # newly built equal spec starts without one
    _code: LinearCode | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "multipliers", tuple(self.multipliers))
        n = len(self.points)
        if len(set(self.points)) != n:
            raise DuplicatePoints("evaluation points must be pairwise distinct")
        if len(self.multipliers) != n:
            raise BadDimension(f"{n} points against {len(self.multipliers)} multipliers")
        if any(v == 0 for v in self.multipliers):
            raise ZeroMultiplier("column multipliers must be nonzero")
        if not 1 <= self.k <= n:
            raise BadDimension(f"dimension {self.k} outside 1..{n}")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass
class LinearCode:
    """An [n, k] code presented by a full-rank generator matrix.

    known_distance is only ever set once an exact enumeration certifies it;
    until then claimed_distance_lb carries the best provable lower bound,
    with the provenance dict saying where the claim comes from.  The
    generator is never reassigned after construction, so
    verify.dual_containing_check keeps its verdict in _dual_containing and
    is_self_orthogonal keeps its own in _self_orthogonal.
    """

    field: Field
    generator: Matrix
    known_distance: int | None = None
    claimed_distance_lb: int | None = None
    provenance: dict = dataclass_field(default_factory=dict)
    _dual_containing: bool | None = dataclass_field(default=None, init=False, repr=False, compare=False)
    _self_orthogonal: bool | None = dataclass_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.generator.field is not self.field:
            raise DimensionMismatch("generator matrix lives in a different field")
        if rank(self.generator) != self.generator.rows:
            raise BadDimension("generator rows are linearly dependent")

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows

    @property
    def distance_claim(self) -> int | None:
        """The exact distance when known, else the claimed lower bound."""
        return self.known_distance if self.known_distance is not None else self.claimed_distance_lb

    def __repr__(self) -> str:
        return f"LinearCode([{self.n},{self.k}] over GF({self.field.q2}))"


@dataclass(frozen=True)
class ConstructionParams:
    """(q, a, m, d) for the parametric families.

    Family-specific congruences between q, a and m live in GRS_FAMILIES;
    only shape sanity lives here.
    """

    q: int
    a: int
    m: int
    d: int

    def __post_init__(self):
        if self.q < 3 or self.q % 2 == 0:
            raise EvenCharacteristic(f"q must be an odd prime power >= 3, got {self.q}")
        if self.a < 0 or self.m < 1:
            raise CongruenceViolated(f"bad divisor parameters a={self.a}, m={self.m}")
        if self.d < 2:
            raise DistanceOutOfRange("design distance starts at 2")


def grs_generator(spec: GrsSpec) -> LinearCode:
    """The code with rows (v_1 a_1^j, ..., v_n a_n^j) for j = 0..k-1.

    GRS codes are MDS, so n - k + 1 is recorded as a claimed distance lower
    bound; the verify module promotes it to known_distance after an
    exhaustive enumeration.

    Every call returns a fresh code, since callers rewrite its claims and
    provenance.  Calls after the first share the first code's generator
    and its Gram verdict.
    """
    f = spec.field
    first = spec._code
    if first is None:
        mul, pw = f.mul, f.pow
        pts, mults = spec.points, spec.multipliers
        rows = [[mul(v, pw(a, j)) for a, v in zip(pts, mults)] for j in range(spec.k)]
        generator = Matrix(f, rows, cols=spec.n)
    else:
        generator = first.generator
    code = LinearCode(
        field=f,
        generator=generator,
        claimed_distance_lb=spec.n - spec.k + 1,
        provenance={"construction": "grs", "distance_claim": "mds"},
    )
    if first is None:
        object.__setattr__(spec, "_code", code)
    else:
        code._self_orthogonal = first._self_orthogonal
    return code


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
    diagonal is the conjugate of its mirror image.
    """
    f, g = code.field, code.generator
    k = g.rows
    conj = [f.conjugate(row) for row in g.data]
    gram = [[0] * k for _ in range(k)]
    for i, row in enumerate(g.data):
        upper = mat_vec(Matrix._trusted(f, conj[i:], g.cols), row)
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
    """Generator of {x : <x, c>_H = 0 for every codeword c}; dimension n - k."""
    ker = nullspace(entrywise_frobenius(code.generator))
    return LinearCode(field=code.field, generator=ker, provenance={"construction": "hermitian-dual"})


def euclidean_dual(code: LinearCode) -> LinearCode:
    ker = nullspace(code.generator)
    return LinearCode(field=code.field, generator=ker, provenance={"construction": "euclidean-dual"})


# -- the three parametric families ---------------------------------------------


def construct_family_A(params: ConstructionParams) -> GrsSpec:
    """Self-orthogonal GRS spec of length (q^2 - 1)/a at q = 2am + 1.

    Points run through the powers of omega^a; multipliers repeat a block of
    doubled powers.  The spec is checked against the Gram oracle.
    """
    _check_window("grs-a", params)
    spec = _family_a_spec(field_for_q(params.q), params.a, params.d - 1)
    if not is_self_orthogonal(grs_generator(spec)):
        raise NotSelfOrthogonal("family A spec failed its own Gram certificate")
    return spec


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

    Multiplier exponents come from a GF(q)-valued kernel vector of a small
    matrix of omega powers; points are the powers of omega^(2a) whose
    exponents avoid the multiples of q + 1.
    """
    _check_window("grs-b", params)
    q, a, m, d = params.q, params.a, params.m, params.d
    field = field_for_q(q)
    spec = _kernel_family_spec(
        field,
        m,
        d - 1,
        # the factor a makes each row a sum over a full coset when the power
        # sums are regrouped; for a = 1 or m <= 3 it changes nothing
        row_exponent=lambda i, j: 2 * a * j * ((i - 1) * (q - 1) + m - 3),
        point_exponent=lambda j: 2 * a * j,
        multiplier_shift=-(m - 3),
    )
    if not is_self_orthogonal(grs_generator(spec)):
        raise SolverFailure("family B spec failed its own Gram certificate")
    return spec


def construct_family_C(params: ConstructionParams) -> GrsSpec:
    """Self-orthogonal GRS spec of length (q - 1)(m - 1) at q = (2a + 1)m - 1.

    Same kernel-vector pipeline as family B with its own exponent pattern;
    a = 0 is allowed and gives the length q^2 - q family.
    """
    _check_window("grs-c", params)
    q, a, m, d = params.q, params.a, params.m, params.d
    w = 2 * a + 1
    field = field_for_q(q)
    spec = _kernel_family_spec(
        field,
        m,
        d - 1,
        # same coset-regrouping factor as family B, here 2a + 1
        row_exponent=lambda i, j: w * (i * (q - 1) - 1) * j,
        point_exponent=lambda j: w * j,
        multiplier_shift=1,
    )
    if not is_self_orthogonal(grs_generator(spec)):
        raise SolverFailure("family C spec failed its own Gram certificate")
    return spec


def _kernel_family_spec(field, m, k, row_exponent, point_exponent, multiplier_shift) -> GrsSpec:
    """Shared pipeline for families B and C.

    Build the (m-2) x (m-1) matrix of omega powers, take its GF(q)-valued
    kernel vector, divide the discrete logs by q + 1 to get the base
    multiplier exponents, then roll them across q - 1 blocks with the
    family's per-block shift.
    """
    q = field.q
    rows = [
        [field.exp(row_exponent(i, j)) for j in range(1, m)]
        for i in range(1, m - 1)
    ]
    kernel = subfield_nullvector(Matrix(field, rows, cols=m - 1))
    exps = []
    for c in kernel:
        if c == 0:
            raise SolverFailure("kernel vector has a zero coordinate")
        exps.append(field.log(c) // (q + 1))  # log is a multiple of q+1 for GF(q) elements
    points = tuple(
        field.exp(point_exponent(j)) for j in range(1, (q - 1) * m + 1) if j % m
    )
    mults = tuple(
        field.exp(e + multiplier_shift * s) for s in range(q - 1) for e in exps
    )
    return GrsSpec(field=field, points=points, multipliers=mults, k=k)


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


def _check_window(family: str, params: ConstructionParams) -> None:
    """Refuse (q, a, m, d) outside the family's congruence and distance window."""
    _, congruence, divide, a_min, m_min, d_max = GRS_FAMILIES[family]
    q, a, m, d = params.q, params.a, params.m, params.d
    name = "family " + family[-1].upper()
    if a < a_min or divide(q, a) != (m, 0):
        raise CongruenceViolated(f"{name} needs q = {congruence}, got q={q}, a={a}, m={m}")
    if m < m_min:
        raise BadDimension(f"{name} is empty for m < {m_min}")
    if not 2 <= d <= d_max(a, m):
        raise DistanceOutOfRange(f"{name} supports 2 <= d <= {d_max(a, m)}, got d={d}")


def valid_parameter_sets(family: str, q: int) -> list[ConstructionParams]:
    """Every (a, m, d) the named family accepts at this q, ordered by (a, d).

    family is one of "grs-a", "grs-b", "grs-c".  The congruence fixes m once
    step(a) divides q - shift, and d sweeps the certified window.
    """
    if q < 3 or q % 2 == 0:
        raise EvenCharacteristic(f"q must be an odd prime power >= 3, got {q}")
    if family not in GRS_FAMILIES:
        raise BadDimension(f"unknown family {family!r}")
    _, _, divide, a_min, m_min, d_max = GRS_FAMILIES[family]
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
    if not 1 <= k <= q - 1:
        raise DimensionOutOfRange(f"need 1 <= k <= q - 1 = {q - 1}, got k={k}")
    primal = grs_generator(full_field_spec(field, k))
    if not is_self_orthogonal(primal):
        raise NotSelfOrthogonal("full-field spec failed its own Gram certificate")
    dual = hermitian_dual(primal)
    dual.claimed_distance_lb = k + 1
    dual.provenance = {
        "construction": "full-field",
        "q": q,
        "k": k,
        "distance_claim": "dual-of-mds",
    }
    return dual


# -- length q^2 + 1: one extension coordinate ------------------------------------


def construct_extended(field: Field, k: int) -> LinearCode:
    """Hermitian dual-containing [q^2 + 1, q^2 + 1 - k] code, design distance k + 1."""
    primal = extended_self_orthogonal(field, k)
    dual = hermitian_dual(primal)
    dual.claimed_distance_lb = k + 1
    dual.provenance = {
        "construction": "extended",
        "q": field.q,
        "k": k,
        "distance_claim": "dual-of-mds",
    }
    return dual


def extended_self_orthogonal(field: Field, k: int) -> LinearCode:
    """Self-orthogonal [q^2 + 1, k] code: GRS rows on every field element
    plus one extension coordinate folded into the top-degree row.

    The multiplier norms u_i (GF(q)-valued) must kill every power sum
    except the top one, whose value the extension coordinate absorbs.  The
    u vector is drawn from the kernel of that GF(q)-linear system: a few
    structured kernel members come first (all ones; a root-free polynomial
    in the norm; a norm-plus-trace perturbation), then seeded random kernel
    combinations, up to SOLVER_RETRIES draws in total.
    """
    q, q2 = field.q, field.q2
    if not 1 <= k <= q:
        raise DimensionOutOfRange(f"need 1 <= k <= q = {q}, got k={k}")
    points = list(field.elements())
    system = _extension_system(field, k, points)
    kernel = nullspace(system)
    top_exponent = (q + 1) * (k - 1)
    top_powers = Matrix(field, [[field.pow(alpha, top_exponent) for alpha in points]], cols=q2)
    draws = 0
    for u in _extension_candidates(field, k, points, kernel):
        draws += 1
        if draws > SOLVER_RETRIES:
            break
        if any(x == 0 for x in u):
            continue
        if any(mat_vec(system, u)):
            continue  # not actually in the kernel; never trust a candidate
        (top,) = mat_vec(top_powers, u)
        if top == 0:
            continue  # the extension coordinate would need norm zero
        eta = field.norm_preimage(field.neg(top))
        mults = [field.norm_preimage(x) for x in u]
        rows = []
        for j in range(k):
            row = [field.mul(v, field.pow(alpha, j)) for alpha, v in zip(points, mults)]
            row.append(eta if j == k - 1 else 0)
            rows.append(row)
        code = LinearCode(
            field=field,
            generator=Matrix(field, rows, cols=q2 + 1),
            claimed_distance_lb=q2 + 2 - k,
            provenance={
                "construction": "extended-self-orthogonal",
                "q": q,
                "k": k,
                "distance_claim": "mds",
            },
        )
        if not is_self_orthogonal(code):
            raise NotSelfOrthogonal("extension solver produced a non-certifying code")
        return code
    raise SolverFailure(
        f"no usable all-nonzero kernel vector within {SOLVER_RETRIES} draws (q={q}, k={k})"
    )


def _extension_system(field: Field, k: int, points: list[int]) -> Matrix:
    """The GF(q)-linear constraints on the multiplier norms, two rows per
    power sum: a GF(q^2) equation with GF(q) unknowns splits along the
    basis {1, omega}."""
    f = field
    q = f.q
    omega = f.omega
    inv_denom = f.inv(f.sub(omega, f.frobenius_q(omega)))  # nonzero: omega is outside GF(q)
    rows = []
    for j in range(k):
        for l in range(k):
            if j == k - 1 and l == k - 1:
                continue
            e = q * j + l
            coeffs = [f.pow(alpha, e) for alpha in points]
            comp1 = f.scale(inv_denom, f.vadd(coeffs, f.scale(f.neg(1), f.conjugate(coeffs))))
            comp0 = f.vadd(coeffs, f.scale(f.neg(omega), comp1))
            rows.append(comp0)
            rows.append(comp1)
    return Matrix(f, rows, cols=len(points))


def _extension_candidates(field: Field, k: int, points: list[int], kernel: Matrix):
    """Candidate u vectors: deterministic structured picks, then random
    kernel samples.  Every yield is (or is believed to be) a kernel member;
    the caller re-checks membership regardless."""
    q = field.q
    subfield = field.subfield_elements()
    nonzero_sub = subfield[1:]
    norms = [field.norm(alpha) for alpha in points]
    if k == q:
        # all power sums below the top vanish over the whole field
        yield [1] * len(points)
    elif k == q - 1:
        # 1 + lam*N(alpha) + Tr(b*alpha^gamma) stays in the kernel for
        # 2 <= gamma <= q - 1; hunt for a combination with no zero entry
        choices = itertools.product(range(2, q), nonzero_sub, range(1, field.q2))
        for gamma, lam, b in itertools.islice(choices, STRUCTURED_PICKS):
            z = field.scale(b, [field.pow(alpha, gamma) for alpha in points])
            u = field.vadd([1] * len(points), field.scale(lam, norms))
            yield field.vadd(u, field.vadd(z, field.conjugate(z)))
    else:
        # a polynomial P of exact degree q - k with P(0) = 1 and no root in
        # GF(q), applied to the point norms, is a kernel member whose top
        # power sum equals minus its leading coefficient.  product() stores
        # each argument whole, so it gets q - k - 1 copies of the subfield
        # for the middle coefficients, never a nested product
        polys = ((1,) + c for c in itertools.product(*[subfield] * (q - k - 1), nonzero_sub))
        rootless = (c for c in polys if all(_poly_eval(field, c, x) for x in subfield))
        for coeffs in itertools.islice(rootless, STRUCTURED_PICKS):
            yield [_poly_eval(field, coeffs, nrm) for nrm in norms]
    rng = random.Random(0x5EED + field.q2 * (k + 1))
    nsub = len(subfield)
    while True:
        u = [0] * len(points)
        for row in kernel.data:
            c = subfield[rng.randrange(nsub)]
            u = field.vadd(u, field.scale(c, row))
        yield u


def _poly_eval(field: Field, coeffs, x: int) -> int:
    """Horner evaluation, coefficients listed from the constant term up."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc
