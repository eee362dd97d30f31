"""Quantum code parameters derived from certified classical ingredients.

Two doors in: a dual-containing code gives [[n, 2k - n, >= d]], and a
self-orthogonal MDS code gives the Singleton-saturating [[n, n - 2k, k + 1]].
Both check their hypothesis, reusing a verdict the code already carries.
A ladder's record, FULL through the first door or FORMULA-ONLY from the
closed forms past the variant's ceiling, is built by ladder_quantum_record.
"""

from __future__ import annotations

from .errors import (
    DimensionOutOfRange,
    NotDualContaining,
    NotMds,
    NotSelfOrthogonal,
    VerificationFailure,
)
from .gf import field_for_q
from .grs import LinearCode, is_self_orthogonal
from .mpc import ladder_in_window, ladder_shape, mp6_ladder
from .verify import dual_containing_check


class QuantumParams:
    """[[n, k, d]]_q with the record of its ancestor.

    d_is_exact distinguishes a true minimum distance from a certified lower
    bound.  ancestor says where the record came from: the classical code's
    shape under "classical", and for a ladder record its family, variant
    and certification.  A record above the quantum Singleton bound
    2d <= n - k + 2 signals an upstream bug and is refused with
    VerificationFailure.
    """

    __slots__ = ("q", "n", "k", "d", "d_is_exact", "ancestor")

    def __init__(self, q: int, n: int, k: int, d: int, d_is_exact: bool, ancestor: dict | None = None):
        self.q, self.n, self.k, self.d = q, n, k, d
        self.d_is_exact = d_is_exact
        self.ancestor = {} if ancestor is None else ancestor
        if 2 * d > n - k + 2:
            raise VerificationFailure(f"[[{n}, {k}, {d}]]_{q} violates the quantum Singleton bound")

    @property
    def mds(self) -> bool:
        """Whether the record saturates the quantum Singleton bound."""
        return 2 * self.d == self.n - self.k + 2


def singleton_check(params: QuantumParams) -> str:
    """'saturated' when 2d = n - k + 2, else 'strict'; QuantumParams
    refuses a record above the bound."""
    return "saturated" if params.mds else "strict"


def hermitian_construction(code: LinearCode) -> QuantumParams:
    """[[n, 2k - n, >= d]]_q from a dual-containing [n, k] code over GF(q^2),
    with d the code's claimed distance lower bound, or 1 when it has none.

    Containment is checked, never assumed: by the Gram verdict of the dual
    the code carries, or by the rank route on a code that carries none.
    """
    if not dual_containing_check(code):
        raise NotDualContaining("ancestor does not contain its Hermitian dual")
    n, kq = code.n, 2 * code.k - code.n
    return QuantumParams(
        q=code.field.q,
        n=n,
        k=kq,
        d=code.claimed_distance_lb or 1,
        d_is_exact=False,
        ancestor={"classical": [n, code.k]},
    )


def quantum_mds_from_self_orthogonal(code: LinearCode) -> QuantumParams:
    """[[n, n - 2k, k + 1]]_q from a self-orthogonal MDS [n, k] code over
    GF(q^2); saturates the quantum Singleton bound identically."""
    if not is_self_orthogonal(code):
        raise NotSelfOrthogonal("ancestor is not Hermitian self-orthogonal")
    n, k = code.n, code.k
    mds_distance = n - k + 1
    if code.claimed_distance_lb != mds_distance:
        raise NotMds("ancestor carries no MDS distance certificate")
    return QuantumParams(
        q=code.field.q,
        n=n,
        k=n - 2 * k,
        d=k + 1,
        d_is_exact=True,
        ancestor={"classical": [n, k, mds_distance]},
    )


# -- the paired-ladder quantum family ---------------------------------------------


def mp7_shape(q: int, d: int, variant: int) -> tuple[int, int]:
    """Closed-form (n, k) of the variant's quantum code: [[n, 2k - n]] from
    the classical [n, k] ladder code.  Refuses what ladder_shape refuses."""
    n, k, _ = ladder_shape(q, d, variant)
    return n, 2 * k - n


# whether (q, d) sits inside the variant's certified window, as mp6_ladder decides it
mp7_in_range = ladder_in_window


def theorem_mp7(q: int, d: int, variant: int) -> QuantumParams:
    """[[n, k, >= d]]_q descendant of the paired ladder, checked against the
    closed form.

    The classical ancestor is built, verified dual-containing, and pushed
    through hermitian_construction; a d outside the certified window is
    refused by mp6_ladder with DistanceOutOfRange.
    """
    return ladder_quantum_record(mp6_ladder(q, d, variant), q, d, variant)


def ladder_quantum_record(classical: LinearCode | None, q: int, d: int, variant: int) -> QuantumParams:
    """The one builder of a ladder's record.  Inside the window, classical
    is mp6_ladder's code for (q, d, variant) and the record is FULL,
    hermitian_construction's.  Past the ceiling classical is not read
    (table1 passes None) and the record is FORMULA-ONLY: the closed forms
    and the range conflict.  It refuses a tuple ladder_shape refuses, a q
    with no field GF(q^2) and a negative quantum dimension."""
    n, k, ceiling = ladder_shape(q, d, variant)
    kq = 2 * k - n
    ancestor = {"family": f"mp7-v{variant}", "q": q, "d": d, "variant": variant}
    if ladder_in_window(q, d, variant):
        params = hermitian_construction(classical)
        assert (params.n, params.k) == (n, kq)
        params.ancestor.update(ancestor, certification="FULL")
        return params
    field_for_q(q)  # no record for a q that has no field GF(q^2)
    if kq < 0:
        raise DimensionOutOfRange(f"variant {variant} at q={q}, d={d} has quantum dimension 2k - n = {kq}")
    ancestor.update(
        certification="FORMULA-ONLY",
        range_conflict=(
            f"needs an ingredient of design distance {d}, but variant "
            f"{variant} ingredients are certified only up to d = {ceiling}"
        ),
    )
    return QuantumParams(q=q, n=n, k=kq, d=d, d_is_exact=False, ancestor=ancestor)


# (q, d, variant, previously published (n, k, d) at the same length)
TABLE1_LAYOUT = (
    (3, 3, 2, (20, 12, 3)),
    (5, 8, 5, (48, 26, 8)),
    (5, 4, 1, (52, 42, 4)),
    (5, 5, 2, (52, 38, 5)),
    (7, 12, 5, (96, 62, 12)),
    (7, 4, 1, (100, 92, 3)),
    (9, 5, 2, (164, 150, 5)),
    (9, 4, 1, (164, 154, 4)),
)


def table1() -> list[QuantumParams]:
    """The eight headline rows, in publication order.

    Every row is built by ladder_quantum_record.  Rows inside the certified
    window pass it mp6_ladder's code and are FULL.  The two rows whose d
    exceeds the variant's ceiling pass None and are FORMULA-ONLY, with the
    conflict spelled out; no construction is attempted for them.  Every row
    records the prior published parameters it is measured against.
    """
    rows = []
    for q, d, variant, compare in TABLE1_LAYOUT:
        classical = mp6_ladder(q, d, variant) if mp7_in_range(q, d, variant) else None
        row = ladder_quantum_record(classical, q, d, variant)
        row.ancestor["compare"] = {"n": compare[0], "k": compare[1], "d": compare[2]}
        rows.append(row)
    return rows
