"""Golden corpus: every pinned `qmds` command and the sha256 of its outputs.

Each command runs through qmds.cli.main in one process.  Its exit code,
stdout, stderr and the bytes of the file it writes are hashed together, and
manifest.json maps the command line to that hash.  tests/test_golden.py
recomputes every hash and names each command whose outputs changed.  A
change that alters outputs on purpose rewrites the manifest in the same
commit, and lists every command whose hash changed:

    PYTHONPATH=src python3 tests/golden/regen.py

Before hashing, the scratch directory's path reads TMP (construct prints
"wrote TMP/code.json"), and an error argparse reports (UsageError) keeps
only its exit code and class, since its text comes from the standard
library.  Every file construct writes is verified with `--check all`, and
with the further flags VERIFY_AGAIN lists for its command, and then
deleted, before the next command runs; the hand-written files in LOADED
are verified too.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qmds.cli import main as qmds_main
from qmds.gf import field_new
from qmds.grs import valid_parameter_sets

MANIFEST = Path(__file__).resolve().with_name("manifest.json")

GRS_FAMILIES = ("grs-a", "grs-b", "grs-c")
GRS_Q = (3, 5, 7, 9, 11, 13)
MDS_Q = (2, 3, 4, 5, 7)
LADDER_Q = (3, 5, 7)


def _code_file(
    n: int, k: int, generator: list[list[int]], orthogonality: str | None = "dual-containing", **distances: int
) -> str:
    """A GF(9) code file claiming the given orthogonality (None: none) and
    distances."""
    return json.dumps({
        "schema_version": 1,
        "field": {"p": 3, "t": 1, "modulus": [2, 1, 1]},
        "code": {"n": n, "k": k, "generator": generator},
        "provenance": {"claims": {"orthogonality": orthogonality, **distances}},
    }) + "\n"


# the self-orthogonal [8, 2] code construct writes for grs-a q=3 a=1 d=3,
# whose distance is 7
GRS_A_Q3 = [[7, 7, 3, 3, 7, 7, 3, 3], [8, 2, 2, 6, 4, 1, 1, 3]]


def _grs_a_q3(known: int, lb: int) -> str:
    return _code_file(8, 2, GRS_A_Q3, "self-orthogonal", known_distance=known, claimed_distance_lb=lb)


# two GF(9) generators [I | P] past the 2^22 cap: a [10, 7] one whose first
# row (1 at columns 0 and 7) has weight 2, so some 3 parity-check columns
# are dependent; and a [15, 7] one whose last column is -1 times the one
# before it, so some 7 generator columns are dependent
WEIGHT_TWO_ROW = [
    [int(i == j) for j in range(7)] + p
    for i, p in enumerate([[1, 0, 0], [1, 2, 3], [4, 5, 6], [7, 8, 1], [2, 4, 8], [3, 6, 7], [5, 1, 4]])
]
PROPORTIONAL_COLUMNS = [
    [int(i == j) for j in range(7)] + p + [field_new(3).neg(p[-1])]
    for i, p in enumerate([
        [1, 2, 3, 4, 5, 6, 7],
        [2, 3, 4, 5, 6, 7, 8],
        [3, 5, 7, 1, 2, 4, 6],
        [4, 7, 1, 8, 3, 2, 5],
        [5, 1, 6, 2, 8, 3, 7],
        [6, 4, 2, 7, 1, 8, 3],
        [7, 6, 5, 3, 4, 1, 2],
    ])
]


# files verify reads as written: a schema this qmds does not read and a
# negative length (exit 4, FileMalformed), a [4200, 1] code whose
# [4200, 4199] kernel would pass grs.DUAL_CELL_CAP (exit 2,
# DimensionOutOfRange), a [3, 1] code claiming self-orthogonality on a
# row whose Hermitian norm is 1, so its Gram check fails (exit 3), and the
# grs-a q=3 code claiming d = 7 (true), d = 6 (false) and both d = 7 and
# d >= 9, which no length-8 code has; then the two MDS claims the column
# floor refutes, on the parity-check side (s = 3) and on the generator side
# (s = 7)
LOADED = (
    ("schema-version-2.json", '{"schema_version": 2}\n'),
    ("negative-length.json", _code_file(-5, 0, [])),
    ("wide-dual-containing.json", _code_file(4200, 1, [[1] * 4200])),
    ("false-self-orthogonal.json", _code_file(3, 1, [[1, 0, 0]], "self-orthogonal")),
    ("true-exact-distance.json", _grs_a_q3(7, 7)),
    ("false-exact-distance.json", _grs_a_q3(6, 6)),
    ("contradictory-distances.json", _grs_a_q3(7, 9)),
    ("weight-two-row.json", _code_file(10, 7, WEIGHT_TWO_ROW, None, known_distance=4)),
    ("proportional-columns.json", _code_file(15, 7, PROPORTIONAL_COLUMNS, None, known_distance=9)),
)

# each check on its own, for one code of each orthogonality claim and for a
# forced ladder that claims none
EACH_CHECK = tuple(f"--check {name}" for name in ("gram", "dual-containing", "min-distance", "mds"))

# further verify flags for some construct command lines, each run after
# `verify --check all`: grs-a q=7 a=1 d=5 is [48, 4] over GF(49), whose
# 49^4 = 5,764,801 messages the default cap refuses, so this is the one
# k = 4 code the corpus enumerates
VERIFY_AGAIN = {
    "--family grs-a --q 7 --a 1 --d 5": ("--check all --max-enum 6000000",),
    "--family grs-a --q 3 --a 1 --d 3": EACH_CHECK,
    "--family full-field --q 5 --k 2": EACH_CHECK,
    "--family mp7 --q 3 --d 3 --variant 2": EACH_CHECK,
    "--family mp6 --q 5 --d 8 --variant 5 --force": EACH_CHECK,
}


def _constructs():
    """The construct command lines, without --out."""
    for family in GRS_FAMILIES:
        for q in GRS_Q:
            for params in valid_parameter_sets(family, q):
                yield f"--family {family} --q {q} --a {params.a} --d {params.d}"
    for family in ("full-field", "extended"):
        for q in MDS_Q:
            for k in range(q + 2):
                yield f"--family {family} --q {q} --k {k}"
    for family in ("mp6", "mp7"):
        for q in LADDER_Q:
            for variant in range(1, 7):
                for d in range(2, q + 4):
                    yield f"--family {family} --q {q} --d {d} --variant {variant}"
        yield f"--family {family} --q 5 --d 8 --variant 5 --force"
    # each family with each flag it requires missing, then with all of them
    for family, flags in (
        *((family, ("--a 1", "--d 3")) for family in GRS_FAMILIES),
        ("full-field", ("--k 2",)),
        ("extended", ("--k 2",)),
        ("mp6", ("--d 3", "--variant 2")),
        ("mp7", ("--d 3", "--variant 2")),
    ):
        for dropped in flags:
            yield " ".join([f"--family {family} --q 5", *(flag for flag in flags if flag != dropped)])
        if len(flags) > 1:
            yield f"--family {family} --q 5"
    # an a below the family's least, one that leaves a remainder, one past q,
    # a d past the window, an even q, a q past the field cap
    yield "--family grs-a --q 5 --a 0 --d 3"
    yield "--family grs-a --q 7 --a 2 --d 3"
    yield "--family grs-b --q 7 --a 3 --d 3"
    yield "--family grs-c --q 7 --a 2 --d 3"
    yield "--family grs-a --q 5 --a 7 --d 3"
    yield "--family grs-a --q 5 --a 1 --d 10"
    yield "--family grs-a --q 4 --a 1 --d 3"
    yield "--family grs-a --q 257 --a 1 --d 3"
    # argparse's own refusals: a family it does not offer, a value that is no integer
    yield "--family grs-d --q 5 --a 1 --d 3"
    yield "--family grs-a --q 5 --a x --d 3"
    # past q = 13: the pairs CI also runs in fresh interpreters, and
    # full-field q = 23, the first dual-containing file past the addition
    # table, whose certificate and verify both take the rank route
    yield "--family grs-a --q 19 --a 1 --d 4"
    yield "--family grs-a --q 23 --a 1 --d 18"
    yield "--family grs-b --q 23 --a 1 --d 3"
    yield "--family grs-c --q 23 --a 0 --d 3"
    # [22, 3] and [22, 4] over GF(529), past the cap: the floor walks their
    # generator columns at s = 3 and s = 4 through Zech sums
    yield "--family grs-b --q 23 --a 6 --d 4"
    yield "--family grs-b --q 23 --a 6 --d 5"
    yield "--family extended --q 19 --k 18"
    yield "--family full-field --q 23 --k 2"
    # Table 1's two q = 9 rows: ladders over GF(81), a t = 2 tower whose
    # packed sums pass 62 bits, each checking its product's dual on
    # block rows that are mostly zero
    yield "--family mp7 --q 9 --d 5 --variant 2"
    yield "--family mp7 --q 9 --d 4 --variant 1"
    # forced and refused ladders: --force inside the window, Table 1's
    # second FORMULA-ONLY row as a file, a forced ladder whose quantum
    # dimension 2k - n = -4 is refused, a d past the extended solver's k
    # range, a forced d of the wrong parity and an even q; then q = 15, no
    # prime power, whose parity and ceiling are refused before its field is
    # built
    yield "--family mp7 --q 3 --d 3 --variant 2 --force"
    yield "--family mp7 --q 7 --d 12 --variant 5 --force"
    yield "--family mp7 --q 3 --d 8 --variant 5 --force"
    yield "--family mp7 --q 5 --d 12 --variant 1 --force"
    yield "--family mp6 --q 5 --d 7 --variant 5 --force"
    yield "--family mp7 --q 4 --d 2 --variant 3 --force"
    for flags in ("--d 2 --variant 3", "--d 3 --variant 3", "--d 20 --variant 3", "--d 20 --variant 3 --force"):
        yield f"--family mp6 --q 15 {flags}"
    # each family with a flag it does not take
    yield "--family grs-a --q 5 --a 1 --d 3 --k 9 --variant 4 --force"
    yield "--family grs-b --q 5 --a 1 --d 3 --variant 2"
    yield "--family grs-c --q 5 --a 0 --d 3 --force"
    yield "--family full-field --q 5 --k 2 --a 0"
    yield "--family extended --q 5 --k 2 --d 3"
    yield "--family mp6 --q 5 --d 3 --variant 2 --k 2"
    yield "--family mp7 --q 5 --d 3 --variant 2 --a 1"


def _tables():
    for which in ("table1", "family-a", "family-b", "family-c"):
        for fmt in ("csv", "json"):
            yield f"table --which {which} --q-max 13 --format {fmt}"
    yield "table --which table1 --q-max 7 --format csv"
    yield "table --which table1 --q-max 2 --format csv"
    yield "table --which family-a --q-max 2 --format csv"
    yield "table --which family-a --q-max 257 --format csv"
    yield "table --which family-d --q-max 13 --format csv"


def _run(argv: list[str], tmp: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = qmds_main(argv)
    out, err = out.getvalue().replace(tmp, "TMP"), err.getvalue().replace(tmp, "TMP")
    if err and json.loads(err)["error"] == "UsageError":
        err = "UsageError"
    return rc, out, err


def _digest(rc: int, out: str, err: str, data: bytes | None) -> str:
    h = hashlib.sha256(json.dumps([rc, out, err, data is not None]).encode())
    if data is not None:
        h.update(data)
    return h.hexdigest()


def corpus_hashes() -> dict[str, str]:
    """Run the corpus and map each command line to the hash of its outputs.

    QMDS_MAX_ENUM is unset while it runs, so verify uses the default cap.
    """
    saved = os.environ.pop("QMDS_MAX_ENUM", None)
    hashes = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "code.json")
            for flags in _constructs():
                command = f"construct {flags}"
                rc, out, err = _run([*command.split(), "--out", path], tmp)
                written = os.path.exists(path)
                hashes[command] = _digest(rc, out, err, Path(path).read_bytes() if written else None)
                if written:
                    for verify_flags in ("--check all", *VERIFY_AGAIN.get(flags, ())):
                        check = _run(["verify", "--in", path, *verify_flags.split()], tmp)
                        hashes[f"{command} && verify {verify_flags}"] = _digest(*check, None)
                    os.remove(path)
            for name, text in LOADED:
                loaded = os.path.join(tmp, name)
                Path(loaded).write_text(text, encoding="utf-8")
                check = _run(["verify", "--in", loaded, "--check", "all"], tmp)
                hashes[f"verify --in TMP/{name} --check all"] = _digest(*check, None)
            for command in _tables():
                hashes[command] = _digest(*_run(command.split(), tmp), None)
    finally:
        if saved is not None:
            os.environ["QMDS_MAX_ENUM"] = saved
    return hashes


def main() -> int:
    hashes = corpus_hashes()
    MANIFEST.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(hashes)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
