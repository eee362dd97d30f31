"""Independent certification oracles: exact distance by enumeration, distance
floors by column independence, MDS certification, and the two Hermitian
duality checks.  Everything here recomputes from the generator matrix and
never trusts a claim recorded on the code object.  The two duality verdicts
are kept on the object once decided; a freshly loaded code decides them
again.

run_checks is the one place a file's claims become check results, for
`qmds verify` and for the certificate `qmds construct` writes.  Its distance
and MDS checks take one route, which is_mds takes too: enumerate when the
q^(2k) messages fit the cap, else test the column floor, else report the
check skipped."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import cache
from math import comb

from .errors import BadDimension, EnumerationTooLarge, WorkBudgetExceeded
from .gf import Field
from .grs import LinearCode, is_self_orthogonal
from .linalg import entrywise_frobenius, nullspace, row_space_contains, transpose

DEFAULT_ENUM_CAP = 1 << 22
DEFAULT_WORK_BUDGET = 10**8


@dataclass
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail" | "skipped"
    method: str
    work_count: int = 0
    detail: str = ""


@dataclass
class VerificationReport:
    """Outcome of a batch of checks against one code.

    A skipped check (for example an enumeration over the cap) never fails
    the report; only an explicit "fail" verdict does.
    """

    target: str
    checks: list[CheckResult] = dataclass_field(default_factory=list)

    @property
    def overall(self) -> str:
        return "fail" if any(c.verdict == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "verdict": c.verdict,
                    "method": c.method,
                    "work_count": c.work_count,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def min_distance_exact(code: LinearCode, cap: int = DEFAULT_ENUM_CAP, workers: int = 1) -> int:
    """Exact minimum nonzero codeword weight by exhausting the message space.

    Scalar multiples of a codeword share its weight, so one representative
    per scalar class is scored (leading coefficient fixed to 1); the
    minimum over those equals the minimum over all q^(2k) messages, which
    is what the cap is measured against.  See _min_weight for how the
    classes are visited.
    """
    # workers stays only for callers that pass workers=1 (perfbench/workloads.py)
    if workers != 1:
        raise BadDimension(f"the enumeration runs in one process, got workers={workers}")
    f = code.field
    gen = code.generator
    k = gen.rows
    if k == 0:
        raise BadDimension("the zero code has no nonzero codewords")
    if f.q2**k > cap:
        raise EnumerationTooLarge(f"q^2k = {f.q2 ** k} messages exceed the cap of {cap}")
    return _min_weight(f, gen.data)


def _min_weight(f: Field, rows: list[list[int]]) -> int:
    """Lightest nonzero word in the span of linearly independent rows.

    Weight is unchanged by permuting columns and scaling them by nonzero
    scalars, so the columns are arranged once to make the last row
    (1, ..., 1, 0, ..., 0) with m ones.  For a word u spanned by the other
    rows, u + c * last then has weight n - #{j >= m : u_j = 0} -
    #{j < m : u_j = -c}, and the lightest of those q^2 words drops the most
    frequent value of u[:m].  So a depth-first walk over the first k - 1
    rows (leading coefficient 1) scores q^2 codewords per visited word, and
    the class of the last row alone has weight m.
    """
    head, m = _last_row_to_ones(f, rows)
    k1, n = len(head), len(rows[0])
    # row * c at index c - 1 for every nonzero c; row 0 only ever enters
    # with coefficient 1
    mults = [None] + [[f.scale(c, row) for c in range(1, f.q2)] for row in head[1:]]
    vadd = f.vadd
    best = m

    def dfs(level: int, acc: list[int]) -> None:
        nonlocal best
        if level == k1:
            w = n - acc[m:].count(0) - max(Counter(acc[:m]).values())
            if w < best:
                best = w
            return
        dfs(level + 1, acc)
        for v in mults[level]:
            dfs(level + 1, vadd(acc, v))

    for lead, row in enumerate(head):
        dfs(lead + 1, row)
    return best


def _last_row_to_ones(f: Field, rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """The rows above the last, with columns permuted and scaled so that the
    last row reads (1, ..., 1, 0, ..., 0); and m, its number of ones."""
    last = rows[-1]
    support = [j for j, x in enumerate(last) if x]
    zeros = [j for j, x in enumerate(last) if not x]
    scales = [last[j] for j in support]
    head = [f.vdiv([r[j] for j in support], scales) + [r[j] for j in zeros] for r in rows[:-1]]
    return head, len(support)


def enumeration_classes(code: LinearCode) -> int:
    """How many scalar classes min_distance_exact expands for this code."""
    q2, k = code.field.q2, code.k
    return (q2**k - 1) // (q2 - 1)


def min_distance_at_least(code: LinearCode, w: int, budget: int = DEFAULT_WORK_BUDGET) -> bool:
    """True exactly when d >= w: every (w-1)-subset of parity-check columns
    must be linearly independent.  The work estimate C(n, w-1) (w-1)^3,
    one elimination per subset, is checked against the budget before
    starting.  It bounds the prefix-sharing walk's work from above and is
    kept as it was, so every pass or refusal stays the same."""
    n = code.n
    if w <= 1:
        return True
    if w - 1 > n:
        raise BadDimension(f"w - 1 = {w - 1} exceeds the length {n}")
    r = n - code.k  # the generator has full row rank
    if w - 1 > r:
        # columns live in an r-dimensional space, so w-1 of them are
        # always dependent; equivalently Singleton gives d <= r + 1 < w
        return False
    cost = comb(n, w - 1) * (w - 1) ** 3
    if cost > budget:
        raise WorkBudgetExceeded(f"estimated work {cost} exceeds the budget {budget}")
    cols = transpose(nullspace(code.generator)).data
    return _subsets_independent(code.field, cols, w - 1)


def _subsets_independent(f: Field, vectors: list[list[int]], s: int) -> bool:
    """True when every s of the vectors (1 <= s <= len(vectors)) are
    linearly independent, walking the s-subsets depth first in
    lexicographic order.

    Each node shares one elimination among all subsets with its prefix:
    rest holds the vectors after the prefix, already reduced against the
    prefix's echelon basis, and s counts the vectors still to choose.
    Taking v as the next vector reduces the later ones against it in one
    clear_column pass; one that becomes zero depends on the prefix and v,
    and any s vectors holding them are dependent.  Only the later vectors
    nonzero at v's pivot are copied and reduced, since the pass leaves the
    others as they are, so the caller's vectors are never written.  With
    two vectors left to choose, the prefix extends to an independent set by
    any pair of rest exactly when no two of them are proportional.
    """

    def walk(rest: list[list[int]], s: int) -> bool:
        if s == 2:
            leading_one = {tuple(f.scale(f.inv(next(filter(None, u))), u)) for u in rest}
            return len(leading_one) == len(rest)
        for i in range(len(rest) - s + 1):
            v = rest[i]
            p = v.index(next(filter(None, v)))  # v's first nonzero entry
            later = rest[i + 1 :]
            copies = [list(u) for u in later if u[p]]
            f.clear_column(copies, v, p)
            if not all(map(any, copies)):
                return False
            reduced = iter(copies)
            if not walk([next(reduced) if u[p] else u for u in later], s - 1):
                return False
        return True

    return all(map(any, vectors)) and (s == 1 or walk(vectors, s))


def is_mds(code: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Certified d = n - k + 1, by the route the verify checks take: full
    enumeration when it fits the cap, otherwise the column-independence
    floor (Singleton pins d from above, so the floor alone settles it).
    Budget overruns propagate."""
    _, ok, _, refusals = _distance_route(code, code.n - code.k + 1, cap)
    if ok is None:
        raise refusals[-1]
    return ok


def dual_containing_check(code: LinearCode) -> bool:
    """The code's Hermitian dual lies inside the code itself.  The verdict is
    kept on the code object, so every caller holding it shares one run."""
    if code._dual_containing is None:
        g = code.generator  # the kernel of its conjugate spans the Hermitian dual
        code._dual_containing = row_space_contains(g, nullspace(entrywise_frobenius(g)))
    return code._dual_containing


# -- claims checking --------------------------------------------------------------

CHECKS = ("gram", "dual-containing", "min-distance", "mds")
_ENUMERATION = "exhaustive message enumeration"

# what one check found: (ok, method, work_count, detail), ok None when skipped
_Outcome = tuple[bool | None, str, int, str]


def run_checks(
    code: LinearCode, names: tuple[str, ...], orthogonality: str | None, cap: int = DEFAULT_ENUM_CAP
) -> VerificationReport:
    """Run the named checks (from CHECKS) against what the code's file
    claims: its orthogonality, and the distance claim on the code object.
    A check whose property is not claimed reports skipped.  The distance and
    MDS checks share one run of _distance_route, so a code is enumerated,
    or floor-checked, at most once."""
    report = VerificationReport(target=f"[{code.n},{code.k}] over GF({code.field.q2})")
    route = cache(lambda: _distance_route(code, code.distance_claim, cap, code.known_distance is not None))
    for name in names:
        if name == "gram":
            ok, method, work_count, detail = _gram(code, orthogonality == "self-orthogonal")
        elif name == "dual-containing":
            ok, method, work_count, detail = _dual_containing(code, orthogonality == "dual-containing")
        elif name == "min-distance":
            ok, method, work_count, detail = _min_distance(code, route)
        else:
            ok, method, work_count, detail = _mds(code, route)
        verdict = "skipped" if ok is None else "pass" if ok else "fail"
        report.checks.append(CheckResult(name, verdict, method, work_count, detail))
    return report


def _gram(code: LinearCode, claimed: bool) -> _Outcome:
    method = "hermitian gram matrix"
    if not claimed:
        return None, method, 0, "file does not claim self-orthogonality"
    ok = is_self_orthogonal(code)
    # the k^2 estimate code files have always carried, though
    # hermitian_gram sums only the k(k + 1)/2 entries with i <= j
    return ok, method, code.k * code.k, "gram matrix is zero" if ok else "gram matrix has a nonzero entry"


def _dual_containing(code: LinearCode, claimed: bool) -> _Outcome:
    method = "rank of stacked generators"
    if not claimed:
        return None, method, 0, "file does not claim dual containment"
    ok = dual_containing_check(code)
    return ok, method, code.n, "hermitian dual is contained" if ok else "hermitian dual escapes the code"


def _distance_route(
    code: LinearCode, w: int, cap: int, exact: bool = False
) -> tuple[int | None, bool | None, int, list]:
    """The one choice of distance oracle for a claim d >= w, or d = w when
    exact, as (d, ok, work_count, refusals).  When the q^(2k) messages fit
    the cap, d is the enumerated distance and refusals is empty.  Otherwise
    d is None, the column floor decides ok, and refusals holds the
    EnumerationTooLarge.  An exact claim takes two floor tests, d >= w and
    d >= w + 1, and holds when the first passes and the second fails; a test
    that refutes the claim decides it even when the other is over its work
    budget.  When no test refutes it and one is over budget, ok is None and
    each WorkBudgetExceeded follows in refusals.  The zero code raises
    BadDimension."""
    try:
        d = min_distance_exact(code, cap=cap)
    except EnumerationTooLarge as too_large:
        refusals, work_count = [too_large], 0
        for b in (w, w + 1) if exact else (w,):
            try:
                # no nonzero word outweighs its length, so a claim past n + 1
                # is refuted outright; the floor oracle takes b - 1 <= n only
                holds = b <= code.n + 1 and min_distance_at_least(code, b)
            except WorkBudgetExceeded as over:
                refusals.append(over)
                continue
            work_count += comb(code.n, b - 1) if b > 1 else 0
            if holds != (b == w):  # d < w, or an exact claim with d > w
                return None, False, work_count, refusals[:1]
        if len(refusals) > 1:
            return None, None, 0, refusals
        return None, True, work_count, refusals
    return d, d == w if exact else d >= w, enumeration_classes(code), []


def _min_distance(code: LinearCode, route) -> _Outcome:
    w = code.distance_claim
    if w is None:
        return None, "none", 0, "file carries no distance claim"
    claim = f"d >= {w}" if code.known_distance is None else f"d = {w}"
    d, ok, work_count, refusals = route()
    if ok is None:
        return None, "column-independence floor", 0, "; ".join(map(str, refusals))
    if d is None:
        method = "column-independence floor (EnumerationTooLarge for exact search)"
        return ok, method, work_count, f"{claim} {'certified' if ok else 'refuted'}; {refusals[0]}"
    return ok, _ENUMERATION, work_count, f"exact d = {d}, claimed {claim}"


def _mds(code: LinearCode, route) -> _Outcome:
    w = code.n - code.k + 1
    if code.distance_claim != w:
        return None, "none", 0, "file does not claim an MDS distance"
    # Singleton pins d <= w from above, so d >= w settles d = w
    d, ok, work_count, refusals = route()
    if ok is None:
        return None, "column-independence floor", 0, str(refusals[-1])
    method = _ENUMERATION if d is not None else "column-independence floor"
    return ok, method, work_count, f"d = n - k + 1 = {w}" if ok else f"d falls short of n - k + 1 = {w}"
