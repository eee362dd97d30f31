"""Command-line front end: construct code files, verify their certificates,
and regenerate the parameter tables.

Code files are canonical JSON (sorted keys, two-space indent, trailing
newline), so identical flags always produce byte-identical output.  The
verify subcommand is claims-based: each check certifies what the file
says about itself and reports "skipped" for properties it never claimed.
This module only reads and writes: it parses flags, files and
QMDS_MAX_ENUM, and leaves every check, and the choice of oracle behind
it, to verify.run_checks.  What construct knows of a family is its entry
in FAMILIES, and what table knows of a table is its entry in TABLES.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .errors import (
    BadDimension,
    FieldTooLarge,
    FileMalformed,
    OutputUnwritable,
    QmdsError,
    UsageError,
    VerificationFailure,
)
from .gf import SIZE_CAP, field_for_q, field_with_modulus
from .grs import (
    GRS_FAMILIES,
    LinearCode,
    construct_extended,
    construct_full_field,
    family_params,
    grs_generator,
    valid_parameter_sets,
)
from .linalg import Matrix
from .mpc import ladder_in_window, mp6_ladder
from .quantum import (
    ladder_quantum_record,
    quantum_mds_from_self_orthogonal,
    singleton_check,
    table1,
)
from .verify import CHECKS, DEFAULT_ENUM_CAP, report, run_checks

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) and a newline, byte for byte.

    json's C encoder serves no indent, so json.dumps walks an indented value
    item by item in Python.  Here a list of plain ints, such as a generator
    row, is written in one str.join; other lists, string-keyed dicts,
    strings and plain ints are written here too, and any other value is
    json.dumps's own text, its lines indented to where it sits.
    """
    out = []
    _json_lines(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_lines(obj, newline: str, out: list[str]) -> None:
    """Append obj's JSON text to out; newline is a line break and obj's indent."""
    inner = newline + "  "
    if type(obj) is str:
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(str(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + newline + "]")
            return
        out.append("[")
        for i, x in enumerate(obj):
            out.append("," + inner if i else inner)
            _json_lines(x, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, dict) and obj and set(map(type, obj)) == {str}:
        out.append("{")
        for i, (key, value) in enumerate(sorted(obj.items())):
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _json_lines(value, inner, out)
        out.append(newline + "}")
    else:
        # any other value, or a list or dict that is empty or keyed by other
        # than strings
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


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


def load_code_file(path: str) -> tuple[LinearCode, dict]:
    """Parse and validate a code file into its code and its claims section;
    any defect, a claimed_distance_lb above the known_distance among them,
    maps to FileMalformed, whose message names the file.

    The code lands on gf.field_with_modulus's field: the instance shared
    with every code built in this process when the file names the canonical
    modulus of a field already built, and a field of its own otherwise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise FileMalformed(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # bad UTF-8, bad JSON, too many digits, too deep
        raise FileMalformed(f"{path} is not valid JSON: {e}") from e
    try:
        if _integer(raw["schema_version"]) != SCHEMA_VERSION:
            raise FileMalformed(f"unsupported schema_version {raw['schema_version']!r}")
        fld = raw["field"]
        field = field_with_modulus(_integer(fld["p"]), _integer(fld["t"]), tuple(map(_integer, fld["modulus"])))
        sec = raw["code"]
        n, k = _integer(sec["n"]), _integer(sec["k"])
        gen = sec["generator"]
        if len(gen) != k or any(len(row) != n for row in gen):
            raise FileMalformed("generator shape disagrees with the declared n, k")
        # Matrix refuses every entry that is not an int in 0..q^2 - 1
        code = LinearCode(field=field, generator=Matrix(field, gen, cols=n))
        # only an absent provenance or claims section means "claims nothing"
        provenance = raw.get("provenance", {})
        claims = provenance.get("claims", {}) if isinstance(provenance, dict) else None
        if not isinstance(claims, dict):
            raise FileMalformed("provenance and its claims must be JSON objects")
        if claims.get("orthogonality") not in (None, "self-orthogonal", "dual-containing"):
            raise FileMalformed(f"unknown orthogonality claim {claims['orthogonality']!r}")
        known, lb = map(_distance, (claims.get("known_distance"), claims.get("claimed_distance_lb")))
        if None not in (known, lb) and lb > known:
            raise FileMalformed(f"claimed_distance_lb {lb} exceeds known_distance {known}")
    except FileMalformed as e:
        # the checks above say what is wrong; the file is named here
        raise FileMalformed(f"{path}: {e}") from None
    except (KeyError, TypeError, ValueError) as e:
        raise FileMalformed(f"{path} does not match the code file schema: {e}") from e
    except QmdsError as e:
        raise FileMalformed(f"{path} holds invalid code data: {e}") from e
    return code, claims


def _integer(x) -> int:
    """A JSON integer as is; int() would round 1.5, parse "3" and read true as 1."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _distance(x) -> int | None:
    """A distance claim: null, or a JSON integer of at least 1, the least
    weight a nonzero word can have; a lower claim would always pass."""
    if x is not None and _integer(x) < 1:
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


def _grs_code(args):
    params = family_params(args.family, args.q, args.a, args.d)
    code = grs_generator(GRS_FAMILIES[args.family][0](params))
    return code, {"q": args.q, "a": args.a, "m": params.m, "d": args.d}, "self-orthogonal", {}


def _mds_dual_code(args, build):
    return build(field_for_q(args.q), args.k), {"q": args.q, "k": args.k}, "dual-containing", {}


def _ladder_code(args, quantum: bool):
    """The ladder code; a forced one claims no orthogonality and carries its
    failed checks instead, and mp7 adds the quantum record it descends to."""
    code = mp6_ladder(args.q, args.d, args.variant, force=args.force)
    certified = ladder_in_window(args.q, args.d, args.variant)
    parameters = {"q": args.q, "d": args.d, "variant": args.variant, "forced": not certified}
    extra = {} if certified else {"construction_checks": code.provenance["forced_checks"]}
    if quantum:
        record = ladder_quantum_record(code, args.q, args.d, args.variant)
        extra["quantum"] = {name: getattr(record, name) for name in ("q", "n", "k", "d", "d_is_exact", "mds")}
        extra["quantum"].update(certification=record.ancestor["certification"], singleton=singleton_check(record))
    return code, parameters, "dual-containing" if certified else None, extra


# --family name -> (the flags it takes, builder, the builder's further
# arguments).  Each flag it takes is required but the switch --force, and
# each other family's flag is refused.  A builder takes the parsed flags and
# returns the code, its parameters, its orthogonality claim and any further
# provenance sections.
FAMILIES = {
    **{family: (("a", "d"), _grs_code) for family in GRS_FAMILIES},
    "full-field": (("k",), _mds_dual_code, construct_full_field),
    "extended": (("k",), _mds_dual_code, construct_extended),
    "mp6": (("d", "variant", "force"), _ladder_code, False),
    "mp7": (("d", "variant", "force"), _ladder_code, True),
}
# every flag some family takes, in the order _build checks them
FAMILY_FLAGS = tuple(dict.fromkeys(flag for flags, *_ in FAMILIES.values() for flag in flags))


def _build(args) -> tuple[LinearCode, dict]:
    flags, builder, *extra_args = FAMILIES[args.family]
    for flag in FAMILY_FLAGS:
        value = getattr(args, flag)
        if flag in flags and value is None:
            raise BadDimension(f"--{flag} is required for {args.family}")
        # an absent --force is False, and a given --a may be 0
        if flag not in flags and value is not None and value is not False:
            raise BadDimension(f"--{flag} is not taken by {args.family}")
    code, parameters, orthogonality, extra = builder(args, *extra_args)
    claims = {
        "orthogonality": orthogonality,
        "claimed_distance_lb": code.claimed_distance_lb,
        "known_distance": None,
    }
    return code, {"construction": args.family, "parameters": parameters, "claims": claims, **extra}


def _self_certificate(code: LinearCode, provenance: dict) -> dict:
    """Construction-time re-check of the orthogonality claim, by the same
    run_checks that verify uses for it.  A self-orthogonality claim keeps
    the Gram verdict the constructor decided.  A dual-containment claim
    takes the rank route, which reads no carried dual, so the check that
    verify runs on the file is the one that runs here too."""
    claim = provenance["claims"]["orthogonality"]
    if claim is None:
        check = {"name": "orthogonality", "verdict": "skipped", "method": "none", "work_count": 0}
        detail = "forced construction carries no orthogonality claim"
    else:
        name = "gram" if claim == "self-orthogonal" else "dual-containing"
        [check] = run_checks(code, (name,), provenance["claims"])["checks"]
        detail = "construction-time self-certification"
    check["detail"] = detail
    return report(provenance["construction"], [check])


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    code, claims = load_code_file(args.infile)
    if args.max_enum is not None:
        cap = args.max_enum
    else:
        raw = os.environ.get("QMDS_MAX_ENUM", str(DEFAULT_ENUM_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise BadDimension(f"QMDS_MAX_ENUM must be an integer, got {raw!r}") from None
    if cap < 0:
        source = "--max-enum" if args.max_enum is not None else "QMDS_MAX_ENUM"
        raise BadDimension(f"{source} must be at least 0, got {cap}")
    names = CHECKS if args.check == "all" else (args.check,)
    result = run_checks(code, names, claims, cap)
    sys.stdout.write(canonical_json(result))
    return 0 if result["overall"] == "pass" else VerificationFailure.exit_code


# -- table ------------------------------------------------------------------------


def _family_records(args) -> list:
    """The quantum MDS record of every admissible tuple of the --which
    family up to --q-max, each carrying its family, a and m."""
    family = args.which.replace("family-", "grs-")
    ctor = GRS_FAMILIES[family][0]
    records = []
    for q in _odd_prime_powers(args.q_max):
        for params in valid_parameter_sets(family, q):
            record = quantum_mds_from_self_orthogonal(grs_generator(ctor(params)))
            record.ancestor.update(family=family, a=params.a, m=params.m, certification="FULL")
            records.append(record)
    return records


def _table1_records(args) -> list:
    """The Table 1 records at q up to --q-max."""
    _check_q_max(args.q_max)
    return [record for record in table1() if record.q <= args.q_max]


_SWEEP_COLUMNS = ["family", "q", "a", "m", "d", "n", "k", "bound_type", "certification"]

# --which name -> (columns, the records its rows show, from the parsed flags)
TABLES = {
    "table1": (["family", "q", "d", "n", "k", "bound_type", "certification"], _table1_records),
    **{"family-" + family[-1]: (_SWEEP_COLUMNS, _family_records) for family in GRS_FAMILIES},
}


def _table_row(record, columns: list[str]) -> dict:
    """A record's row: its own parameters, and the rest from its ancestor."""
    fields = {**record.ancestor, "q": record.q, "d": record.d, "n": record.n, "k": record.k}
    fields["bound_type"] = "exact" if record.d_is_exact else "lower-bound"
    return {column: fields[column] for column in columns}


def cmd_table(args) -> int:
    columns, records = TABLES[args.which]
    rows = [_table_row(record, columns) for record in records(args)]
    if args.format == "json":
        sys.stdout.write(canonical_json(rows))
    else:
        import csv  # only this command writes CSV, so other commands skip the import

        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _check_q_max(q_max: int) -> None:
    if q_max < 3:
        raise BadDimension(f"--q-max must be at least 3, got {q_max}")
    if q_max * q_max > SIZE_CAP:
        raise FieldTooLarge(f"--q-max {q_max}: q^2 = {q_max}^2 exceeds {SIZE_CAP}")


def _odd_prime_powers(q_max: int) -> list[int]:
    _check_q_max(q_max)
    out = []
    for q in range(3, q_max + 1, 2):
        try:
            field_for_q(q)
        except QmdsError:
            continue
        out.append(q)
    return out


# -- entry point ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit 2, so
    a bad command line gets the one JSON error object like every other
    failure.  Subparsers are built from this class too; --help still
    prints and exits 0."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line, built at the first call and shared by every later
    one: parsing leaves a parser as it was, so main builds it once per
    process.  It names each command and binds no function to it; main looks
    the cmd_ function up at call time, so a later rebinding of one (a test
    double, a profiler's wrapper) is always the one that runs."""
    parser = _Parser(
        prog="qmds",
        description="Construct, verify, and tabulate Hermitian self-orthogonal "
        "GRS and matrix-product codes and their quantum descendants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a code and write its JSON file")
    c.add_argument("--family", required=True, choices=list(FAMILIES))
    c.add_argument(
        "--q", type=int, required=True, help="subfield size (prime power; odd for the grs and ladder families)"
    )
    c.add_argument("--a", type=int, help="congruence parameter for the grs families")
    c.add_argument("--d", type=int, help="design distance")
    c.add_argument("--k", type=int, help="dimension for full-field / extended")
    c.add_argument("--variant", type=int, help="ladder variant 1..6")
    c.add_argument("--force", action="store_true", help="assemble past the certified window")
    c.add_argument("--out", required=True, help="output file path")

    v = sub.add_parser("verify", help="re-run certification oracles on a code file")
    v.add_argument("--in", dest="infile", required=True, help="code file to verify")
    v.add_argument(
        "--check",
        required=True,
        choices=[*CHECKS, "all"],
    )
    v.add_argument("--max-enum", dest="max_enum", type=int, help="enumeration cap override")

    t = sub.add_parser("table", help="emit parameter tables as CSV or JSON")
    t.add_argument("--which", required=True, choices=list(TABLES))
    t.add_argument("--q-max", dest="q_max", type=int, default=13)
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"construct": cmd_construct, "verify": cmd_verify, "table": cmd_table}[args.command]
        return command(args)
    except QmdsError as e:
        sys.stderr.write(
            canonical_json({"error": type(e).__name__, "exit_code": e.exit_code, "message": str(e)})
        )
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
