"""Command-line front end: construct code files, verify their certificates,
and regenerate the parameter tables.

Code files are canonical JSON (sorted keys, two-space indent, trailing
newline), so identical flags always produce byte-identical output.  The
verify subcommand is claims-based: each check certifies what the file
says about itself and reports "skipped" for properties it never claimed.
This module only reads and writes: it parses flags, files and
QMDS_MAX_ENUM, and leaves every check, and the choice of oracle behind
it, to verify.run_checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from .errors import (
    BadDimension,
    CongruenceViolated,
    FieldTooLarge,
    FileMalformed,
    OutputUnwritable,
    QmdsError,
    VerificationFailure,
)
from .gf import SIZE_CAP, Field, field_for_q
from .grs import (
    GRS_FAMILIES,
    ConstructionParams,
    LinearCode,
    construct_extended,
    construct_full_field,
    grs_generator,
    valid_parameter_sets,
)
from .linalg import Matrix
from .mpc import mp6_ladder
from .quantum import (
    ladder_quantum_record,
    quantum_mds_from_self_orthogonal,
    singleton_check,
    table1,
)
from .verify import CHECKS, DEFAULT_ENUM_CAP, CheckResult, VerificationReport, run_checks

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- code file serialization -------------------------------------------------------


def code_file_payload(code: LinearCode, provenance: dict, certificates: list[dict]) -> dict:
    f = code.field
    return {
        "schema_version": SCHEMA_VERSION,
        "field": {"p": f.p, "t": f.t, "modulus": list(f.modulus)},
        "code": {
            "n": code.n,
            "k": code.k,
            "generator": [list(row) for row in code.generator.data],
        },
        "provenance": provenance,
        "certificates": certificates,
    }


def load_code_file(path: str) -> LinearCode:
    """Parse and validate a code file; any defect maps to FileMalformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise FileMalformed(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON, too many digits, too deep
        raise FileMalformed(f"{path} is not valid JSON: {e}") from e
    try:
        if raw["schema_version"] != SCHEMA_VERSION:
            raise FileMalformed(f"unsupported schema_version {raw['schema_version']!r}")
        fld = raw["field"]
        field = Field(_integer(fld["p"]), _integer(fld["t"]), tuple(map(_integer, fld["modulus"])))
        sec = raw["code"]
        n, k = _integer(sec["n"]), _integer(sec["k"])
        gen = [list(map(_integer, row)) for row in sec["generator"]]
        if len(gen) != k or any(len(row) != n for row in gen):
            raise FileMalformed("generator shape disagrees with the declared n, k")
        code = LinearCode(field=field, generator=Matrix(field, gen, cols=n))
        # only an absent provenance or claims section means "claims nothing"
        provenance = raw.get("provenance", {})
        claims = provenance.get("claims", {}) if isinstance(provenance, dict) else None
        if not isinstance(claims, dict):
            raise FileMalformed("provenance and its claims must be JSON objects")
        if claims.get("orthogonality") not in (None, "self-orthogonal", "dual-containing"):
            raise FileMalformed(f"unknown orthogonality claim {claims['orthogonality']!r}")
        code.provenance = provenance
        known, lb = claims.get("known_distance"), claims.get("claimed_distance_lb")
        code.known_distance = None if known is None else _distance(known)
        code.claimed_distance_lb = None if lb is None else _distance(lb)
    except FileMalformed:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise FileMalformed(f"{path} does not match the code file schema: {e}") from e
    except QmdsError as e:
        raise FileMalformed(f"{path} holds invalid code data: {e}") from e
    return code


def _integer(x) -> int:
    """A JSON integer as is; int() would round 1.5, parse "3" and read true as 1."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _distance(x) -> int:
    """A distance claim: a JSON integer of at least 1, the least weight a
    nonzero word can have; a lower claim says nothing and would always pass."""
    if _integer(x) < 1:
        raise FileMalformed(f"distance claim {x} is below 1")
    return x


# -- construct --------------------------------------------------------------------


def cmd_construct(args) -> int:
    code, provenance = _build(args)
    certificates = [_self_certificate(code, provenance)]
    payload = code_file_payload(code, provenance, certificates)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))
    except OSError as e:
        raise OutputUnwritable(f"cannot write {args.out}: {e}") from e
    print(f"wrote {args.out}: [{code.n},{code.k}] over GF({code.field.q2})")
    return 0


def _build(args) -> tuple[LinearCode, dict]:
    family, q = args.family, args.q
    if family in GRS_FAMILIES:
        _require(args.a is not None, f"--a is required for {family}")
        _require(args.d is not None, f"--d is required for {family}")
        ctor, _, divide, a_min, _, _ = GRS_FAMILIES[family]
        if args.a < a_min:
            raise CongruenceViolated(f"{family} needs a >= {a_min}, got {args.a}")
        m, _ = divide(q, args.a)
        code = grs_generator(ctor(ConstructionParams(q=q, a=args.a, m=m, d=args.d)))
        return code, {
            "construction": family,
            "parameters": {"q": q, "a": args.a, "m": m, "d": args.d},
            "claims": _claims("self-orthogonal", code),
        }
    if family in ("full-field", "extended"):
        _require(args.k is not None, f"--k is required for {family}")
        field = field_for_q(q)
        build = construct_full_field if family == "full-field" else construct_extended
        code = build(field, args.k)
        return code, {
            "construction": family,
            "parameters": {"q": q, "k": args.k},
            "claims": _claims("dual-containing", code),
        }
    # mp6 / mp7
    _require(args.d is not None, f"--d is required for {family}")
    _require(args.variant is not None, f"--variant is required for {family}")
    code = mp6_ladder(q, args.d, args.variant, force=args.force)
    certified = code.provenance.get("certified", False)
    provenance = {
        "construction": family,
        "parameters": {"q": q, "d": args.d, "variant": args.variant, "forced": not certified},
        "claims": _claims("dual-containing" if certified else None, code),
    }
    if not certified:
        provenance["construction_checks"] = code.provenance.get("forced_checks", {})
    if family == "mp7":
        record = ladder_quantum_record(code, q, args.d, args.variant)
        provenance["quantum"] = {
            "q": record.q,
            "n": record.n,
            "k": record.k,
            "d": record.d,
            "d_is_exact": record.d_is_exact,
            "mds": record.mds,
            "certification": record.ancestor["certification"],
            "singleton": singleton_check(record),
        }
    return code, provenance


def _claims(orthogonality: str | None, code: LinearCode) -> dict:
    return {
        "orthogonality": orthogonality,
        "claimed_distance_lb": code.claimed_distance_lb,
        "known_distance": code.known_distance,
    }


def _self_certificate(code: LinearCode, provenance: dict) -> dict:
    """Construction-time re-check of the orthogonality claim, by the same
    run_checks that verify uses for it."""
    claim = provenance["claims"]["orthogonality"]
    if claim is None:
        check = CheckResult(
            name="orthogonality",
            verdict="skipped",
            method="none",
            detail="forced construction carries no orthogonality claim",
        )
    else:
        name = "gram" if claim == "self-orthogonal" else "dual-containing"
        [check] = run_checks(code, (name,), claim).checks
        check = replace(check, detail="construction-time self-certification")
    return VerificationReport(target=provenance["construction"], checks=[check]).to_dict()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise BadDimension(message)


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    code = load_code_file(args.infile)
    if args.max_enum is not None:
        cap = args.max_enum
    else:
        raw = os.environ.get("QMDS_MAX_ENUM", str(DEFAULT_ENUM_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise BadDimension(f"QMDS_MAX_ENUM must be an integer, got {raw!r}") from None
    orthogonality = code.provenance.get("claims", {}).get("orthogonality")
    names = CHECKS if args.check == "all" else (args.check,)
    report = run_checks(code, names, orthogonality, cap)
    sys.stdout.write(canonical_json(report.to_dict()))
    return 0 if report.overall == "pass" else VerificationFailure.exit_code


# -- table ------------------------------------------------------------------------

_TABLE1_COLUMNS = ["family", "q", "d", "n", "k", "bound_type", "certification"]
_SWEEP_COLUMNS = ["family", "q", "a", "m", "d", "n", "k", "bound_type", "certification"]


def cmd_table(args) -> int:
    if args.which == "table1":
        columns = _TABLE1_COLUMNS
        rows = [
            {
                "family": f"mp7-v{record.ancestor['variant']}",
                "q": record.q,
                "d": record.d,
                "n": record.n,
                "k": record.k,
                "bound_type": "exact" if record.d_is_exact else "lower-bound",
                "certification": record.ancestor["certification"],
            }
            for record in table1()
        ]
    else:
        columns = _SWEEP_COLUMNS
        family = args.which.replace("family-", "grs-")
        ctor = GRS_FAMILIES[family][0]
        rows = []
        for q in _odd_prime_powers(args.q_max):
            for params in valid_parameter_sets(family, q):
                record = quantum_mds_from_self_orthogonal(grs_generator(ctor(params)))
                rows.append(
                    {
                        "family": family,
                        "q": q,
                        "a": params.a,
                        "m": params.m,
                        "d": record.d,
                        "n": record.n,
                        "k": record.k,
                        "bound_type": "exact",
                        "certification": "FULL",
                    }
                )
    if args.format == "json":
        sys.stdout.write(canonical_json(rows))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _odd_prime_powers(q_max: int) -> list[int]:
    if q_max * q_max > SIZE_CAP:
        raise FieldTooLarge(f"--q-max {q_max}: q^2 = {q_max}^2 exceeds {SIZE_CAP}")
    out = []
    for q in range(3, q_max + 1, 2):
        try:
            field_for_q(q)
        except QmdsError:
            continue
        out.append(q)
    return out


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmds",
        description="Construct, verify, and tabulate Hermitian self-orthogonal "
        "GRS and matrix-product codes and their quantum descendants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write its JSON file")
    c.add_argument(
        "--family",
        required=True,
        choices=["grs-a", "grs-b", "grs-c", "full-field", "extended", "mp6", "mp7"],
    )
    c.add_argument("--q", type=int, required=True, help="subfield size (odd prime power)")
    c.add_argument("--a", type=int, help="congruence parameter for the grs families")
    c.add_argument("--d", type=int, help="design distance")
    c.add_argument("--k", type=int, help="dimension for full-field / extended")
    c.add_argument("--variant", type=int, help="ladder variant 1..6")
    c.add_argument("--force", action="store_true", help="assemble past the certified window")
    c.add_argument("--out", required=True, help="output file path")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="re-run certification oracles on a code file")
    v.add_argument("--in", dest="infile", required=True, help="code file to verify")
    v.add_argument(
        "--check",
        required=True,
        choices=[*CHECKS, "all"],
    )
    v.add_argument("--max-enum", dest="max_enum", type=int, help="enumeration cap override")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", help="emit parameter tables as CSV or JSON")
    t.add_argument(
        "--which", required=True, choices=["table1", "family-a", "family-b", "family-c"]
    )
    t.add_argument("--q-max", dest="q_max", type=int, default=13)
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QmdsError as e:
        sys.stderr.write(
            canonical_json({"error": type(e).__name__, "exit_code": e.exit_code, "message": str(e)})
        )
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
