"""End-to-end CLI behavior: files, reports, tables, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmds.cli
import qmds.grs
import qmds.verify
from qmds import gf
from qmds.cli import canonical_json, load_code_file, main
from qmds.gf import Field, field_for_q
from qmds.grs import (
    GRS_FAMILIES,
    ConstructionParams,
    construct_extended,
    construct_full_field,
    grs_generator,
    valid_parameter_sets,
)
from qmds.linalg import row_space_contains
from qmds.quantum import theorem_mp7


def run_cli(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def construct(tmp_path, capsys, name, *flags):
    path = tmp_path / name
    rc, _, err = run_cli(["construct", "--out", str(path), *flags], capsys)
    assert rc == 0, err
    return path


def test_construct_writes_schema_fields(tmp_path, capsys):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert payload["field"] == {"p": 3, "t": 1, "modulus": payload["field"]["modulus"]}
    assert payload["code"]["n"] == 8 and payload["code"]["k"] == 2
    assert len(payload["code"]["generator"]) == 2
    assert payload["provenance"]["claims"]["orthogonality"] == "self-orthogonal"
    assert payload["provenance"]["claims"]["claimed_distance_lb"] == 7
    assert payload["provenance"]["parameters"]["m"] == 1  # derived, not passed
    assert payload["certificates"][0]["overall"] == "pass"


@pytest.mark.parametrize("family", ["grs-a", "grs-b", "grs-c"])
def test_construct_derives_the_m_of_valid_parameter_sets(tmp_path, capsys, family):
    params = valid_parameter_sets(family, 11)[-1]
    flags = ["--family", family, "--q", "11", "--a", str(params.a), "--d", str(params.d)]
    path = construct(tmp_path, capsys, "c.json", *flags)
    parameters = json.loads(path.read_text())["provenance"]["parameters"]
    assert parameters == {"q": 11, "a": params.a, "m": params.m, "d": params.d}


def test_construct_is_byte_identical(tmp_path, capsys):
    flags = ["--family", "grs-a", "--q", "5", "--a", "2", "--d", "4"]
    first = construct(tmp_path, capsys, "one.json", *flags)
    second = construct(tmp_path, capsys, "two.json", *flags)
    assert first.read_bytes() == second.read_bytes()


# nested JSON values: unicode strings, bools, None, ints of any sign and
# size, floats with NaN and the infinities, lists of plain ints such as a
# generator row, and dicts keyed by strings or by ints
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.lists(st.integers(), max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=4), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=20,
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps_with_sorted_keys_and_indent(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_verify_all_on_fresh_file(tmp_path, capsys):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    assert rc == 0
    report = json.loads(out)
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts == {
        "gram": "pass",
        "dual-containing": "skipped",
        "min-distance": "pass",
        "mds": "pass",
    }
    dist = next(c for c in report["checks"] if c["name"] == "min-distance")
    assert "exact d = 7" in dist["detail"]

    # an exact claim must equal the enumerated distance, and a file that
    # claims no distance gets no distance verdict
    edited = tmp_path / "edited.json"
    for known, lb, want_rc, want in (
        (7, 7, 0, ("pass", "exact d = 7, claimed d = 7")),
        (6, None, 3, ("fail", "exact d = 7, claimed d = 6")),
        (None, None, 0, ("skipped", "file carries no distance claim")),
    ):
        payload = json.loads(path.read_text())
        payload["provenance"]["claims"].update(known_distance=known, claimed_distance_lb=lb)
        edited.write_text(json.dumps(payload))
        rc, out, _ = run_cli(["verify", "--in", str(edited), "--check", "all"], capsys)
        assert rc == want_rc, known
        dist = next(c for c in json.loads(out)["checks"] if c["name"] == "min-distance")
        assert (dist["verdict"], dist["detail"]) == want

    # an absent provenance or claims section claims nothing
    for strip in (lambda p: p.pop("provenance"), lambda p: p["provenance"].pop("claims")):
        payload = json.loads(path.read_text())
        strip(payload)
        edited.write_text(json.dumps(payload))
        rc, out, _ = run_cli(["verify", "--in", str(edited), "--check", "all"], capsys)
        assert rc == 0
        assert {c["verdict"] for c in json.loads(out)["checks"]} == {"skipped"}

    # [48, 4] over GF(49): 49^4 messages pass the enumeration cap and the
    # floor's C(48, 44) subsets pass the work budget, so both distance
    # checks are refused, which does not fail the report
    path = construct(tmp_path, capsys, "big.json", "--family", "grs-a", "--q", "7", "--a", "1", "--d", "5")
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    assert rc == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("min-distance", "mds"):
        assert checks[name]["verdict"] == "skipped", name
        assert "exceeds the budget" in checks[name]["detail"], name


def test_verify_detects_corruption(tmp_path, capsys):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(path.read_text())
    entry = payload["code"]["generator"][0][0]
    payload["code"]["generator"][0][0] = (entry + 1) % 81
    path.write_text(json.dumps(payload))
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "gram"], capsys)
    assert rc == 3
    report = json.loads(out)
    assert report["overall"] == "fail"
    assert report["checks"][0]["verdict"] == "fail"


def test_malformed_files_exit_4(tmp_path, capsys):
    bad = tmp_path / "broken.json"

    bad.write_text("{ not json")
    assert run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)[0] == 4

    bad.write_text(json.dumps({"schema_version": 99}))
    assert run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)[0] == 4

    # not UTF-8, an integer past Python's digit limit, nesting past the
    # recursion limit: json.load raises neither OSError nor JSONDecodeError
    for content in (b"\xff\xfe{", b'{"schema_version": ' + b"9" * 5000 + b"}", b"[" * 200000):
        bad.write_bytes(content)
        rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
        assert rc == 4, content[:20]
        assert json.loads(err)["error"] == "FileMalformed"

    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(good.read_text())
    del payload["code"]
    bad.write_text(json.dumps(payload))
    assert run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)[0] == 4

    payload = json.loads(good.read_text())
    payload["code"]["generator"][0][0] = 81  # not a field element of GF(81)
    bad.write_text(json.dumps(payload))
    assert run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)[0] == 4

    payload = json.loads(good.read_text())
    payload["code"]["generator"][1] = payload["code"]["generator"][0]  # rank collapse
    bad.write_text(json.dumps(payload))
    assert run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)[0] == 4

    # a distance claim is null or a JSON integer of at least 1: true is not
    # the integer 1, 7.5 or "7" must not be dropped as if the file claimed
    # nothing, and a claim of 0 or -3 no code could fail
    for claim in ("known_distance", "claimed_distance_lb"):
        for value in (True, 7.5, "7", 0, -3):
            payload = json.loads(good.read_text())
            payload["provenance"]["claims"][claim] = value
            bad.write_text(json.dumps(payload))
            rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
            assert rc == 4, (claim, value)
            assert json.loads(err)["error"] == "FileMalformed"

    # true and 1.0 compare equal to the version 1 but are no JSON integer
    for value in (True, 1.0):
        payload = json.loads(good.read_text())
        payload["schema_version"] = value
        bad.write_text(json.dumps(payload))
        rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
        assert rc == 4, value
        assert json.loads(err)["error"] == "FileMalformed"

    # each number must be a JSON integer: int() would round 3.5 to the valid
    # p = 3, parse "8" and read true as 1, so these files would verify
    for section, key, mangle in (
        ("field", "p", lambda p: p + 0.5),
        ("field", "t", float),
        ("field", "modulus", lambda mod: [str(mod[0])] + mod[1:]),
        ("code", "n", str),
        ("code", "k", float),
        ("code", "generator", lambda g: g[:-1] + [[x + 0.5 for x in g[-1]]]),
        ("code", "generator", lambda g: g[:-1] + [[str(x) for x in g[-1]]]),
        ("code", "generator", lambda g: g[:-1] + [[True if x == 1 else x for x in g[-1]]]),
        ("code", "generator", lambda g: g + [g[0]]),  # one row more than k
        # a claims section that is there but malformed must not read as
        # "claims nothing", which skips every check
        ("provenance", "claims", lambda c: [1]),
        ("provenance", "claims", lambda c: {**c, "orthogonality": ["x"]}),
        ("provenance", "claims", lambda c: {**c, "orthogonality": "self-orthogonl"}),
    ):
        payload = json.loads(good.read_text())
        payload[section][key] = mangle(payload[section][key])
        bad.write_text(json.dumps(payload))
        rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
        assert rc == 4, (key, payload[section][key])
        assert json.loads(err)["error"] == "FileMalformed"

    # a negative length (an empty generator has no row to disagree with it),
    # and a provenance that is no JSON object
    for section, value in (("code", {"n": -5, "k": 0, "generator": []}), ("provenance", [1, 2])):
        payload = json.loads(good.read_text())
        payload[section] = value
        bad.write_text(json.dumps(payload))
        rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
        assert rc == 4, section
        assert json.loads(err)["error"] == "FileMalformed"

    assert run_cli(["verify", "--in", str(tmp_path / "absent.json"), "--check", "all"], capsys)[0] == 4


@pytest.mark.parametrize(
    "mangle",
    [
        lambda payload: payload.update(schema_version=2),
        lambda payload: payload["code"].update(k=1),
        lambda payload: payload.update(provenance=[1, 2]),
        lambda payload: payload["provenance"]["claims"].update(orthogonality=["x"]),
        lambda payload: payload["provenance"]["claims"].update(known_distance=0),
    ],
    ids=["schema-version", "generator-shape", "provenance", "orthogonality", "distance-claim"],
)
def test_every_malformed_file_is_named_in_its_error(tmp_path, capsys, mangle):
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(good.read_text())
    mangle(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
    detail = json.loads(err)
    assert rc == 4 and detail["error"] == "FileMalformed"
    assert detail["message"].startswith(f"{bad}: "), detail["message"]


def test_unwritable_out_exits_2(tmp_path, capsys):
    flags = ["--family", "grs-a", "--q", "3", "--a", "1", "--d", "3"]
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        rc, stdout, err = run_cli(["construct", *flags, "--out", str(out)], capsys)
        assert rc == 2, out
        assert stdout == ""
        assert json.loads(err)["error"] == "OutputUnwritable"


def test_even_q_rejected_with_error_json(tmp_path, capsys):
    rc, _, err = run_cli(
        ["construct", "--family", "grs-a", "--q", "4", "--a", "1", "--d", "3", "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert rc == 2
    detail = json.loads(err)
    assert detail["error"] == "EvenCharacteristic"
    assert detail["exit_code"] == 2


def test_missing_family_flags_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    required = {
        "grs-a": {"a": "1", "d": "3"},
        "grs-b": {"a": "1", "d": "3"},
        "grs-c": {"a": "1", "d": "3"},
        "full-field": {"k": "2"},
        "extended": {"k": "2"},
        "mp6": {"d": "3", "variant": "2"},
        "mp7": {"d": "3", "variant": "2"},
    }
    for family, flags in required.items():
        for missing in flags:
            given = [arg for flag, value in flags.items() if flag != missing for arg in (f"--{flag}", value)]
            rc, _, err = run_cli(["construct", "--family", family, "--q", "5", *given, "--out", out], capsys)
            error = json.loads(err)
            assert (rc, error["error"]) == (2, "BadDimension"), (family, missing)
            assert error["message"] == f"--{missing} is required for {family}"
        # with none of them given, the first in order is the one named
        rc, _, err = run_cli(["construct", "--family", family, "--q", "5", "--out", out], capsys)
        assert json.loads(err)["message"] == f"--{next(iter(flags))} is required for {family}"
    assert not os.path.exists(out)


def test_flags_a_family_does_not_take_exit_2(tmp_path, capsys):
    # a mistyped family would otherwise drop the flags meant for another;
    # --a 0 is given, and only the ladders take the switch --force
    out = str(tmp_path / "x.json")
    takes = {
        "grs-a": {"a": "1", "d": "3"},
        "grs-b": {"a": "1", "d": "3"},
        "grs-c": {"a": "1", "d": "3"},
        "full-field": {"k": "2"},
        "extended": {"k": "2"},
        "mp6": {"d": "3", "variant": "2", "force": None},
        "mp7": {"d": "3", "variant": "2", "force": None},
    }
    foreign = {"a": "0", "d": "3", "k": "2", "variant": "2", "force": None}
    for family, flags in takes.items():
        taken = [arg for flag, value in flags.items() for arg in (f"--{flag}", value) if arg is not None]
        for flag, value in foreign.items():
            if flag in flags:
                continue
            given = [f"--{flag}"] if value is None else [f"--{flag}", value]
            rc, _, err = run_cli(["construct", "--family", family, "--q", "5", *taken, *given, "--out", out], capsys)
            assert (rc, json.loads(err)) == (
                2,
                {"error": "BadDimension", "exit_code": 2, "message": f"--{flag} is not taken by {family}"},
            ), (family, flag)
        assert not os.path.exists(out)
        rc, _, err = run_cli(["construct", "--family", family, "--q", "5", *taken, "--out", out], capsys)
        assert rc == 0, (family, err)
        os.remove(out)


def test_the_parser_offers_every_family_and_table_in_order():
    def choices(command, dest):
        [sub] = [a for a in qmds.cli.build_parser()._actions if a.dest == "command"]
        [action] = [a for a in sub.choices[command]._actions if a.dest == dest]
        return list(action.choices)

    assert choices("construct", "family") == ["grs-a", "grs-b", "grs-c", "full-field", "extended", "mp6", "mp7"]
    assert choices("table", "which") == ["table1", "family-a", "family-b", "family-c"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["verify", "--in", "a.json", "--check", "min-distance", "--max-enum", "abc"],
            "qmds verify: argument --max-enum: invalid int value: 'abc'",
        ),
        (["verify", "--in", "a.json"], "qmds verify: the following arguments are required: --check"),
        (["verify", "--in", "a.json", "--check", "all", "--bogus"], "qmds: unrecognized arguments: --bogus"),
        (
            ["construct", "--family", "grs-a", "--q", "x", "--out", "o.json"],
            "qmds construct: argument --q: invalid int value: 'x'",
        ),
    ],
)
def test_bad_flags_exit_2_with_one_json_error(capsys, argv, message):
    # argparse would print its usage text and exit; the CLI reports a bad
    # command line like any other failure
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "UsageError", "exit_code": 2, "message": message}


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["verify", "--help"])
    assert done.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: qmds verify") and err == ""


def test_construct_mp7_embeds_quantum_record(tmp_path, capsys):
    path = construct(
        tmp_path, capsys, "q.json", "--family", "mp7", "--q", "5", "--d", "4", "--variant", "1"
    )
    payload = json.loads(path.read_text())
    assert payload["code"]["n"] == 52 and payload["code"]["k"] == 48
    quantum = payload["provenance"]["quantum"]
    assert (quantum["n"], quantum["k"], quantum["d"]) == (52, 44, 4)
    assert quantum["certification"] == "FULL"
    assert quantum["singleton"] == "strict"
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    assert rc == 0
    report = json.loads(out)
    dist = next(c for c in report["checks"] if c["name"] == "min-distance")
    assert dist["verdict"] == "pass"
    assert "EnumerationTooLarge" in dist["method"]


@pytest.mark.parametrize(
    "flags, mds",
    [
        (["--family", "extended", "--q", "5", "--k", "5"], ("pass", "column-independence floor")),
        (["--family", "mp7", "--q", "5", "--d", "5", "--variant", "2"], ("skipped", "none")),
    ],
)
def test_verify_all_on_the_largest_floor_checks(tmp_path, capsys, flags, mds):
    # both are past the enumeration cap, and their floor checks cover the
    # most column subsets of any certify file: 65,780 and 270,725
    path = construct(tmp_path, capsys, "c.json", *flags)
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    assert rc == 0
    checks = {c["name"]: (c["verdict"], c["method"]) for c in json.loads(out)["checks"]}
    floor = "column-independence floor (EnumerationTooLarge for exact search)"
    assert checks["min-distance"] == ("pass", floor)
    assert checks["mds"] == mds


def test_construct_forced_mp6_reports_failed_checks(tmp_path, capsys):
    path = construct(
        tmp_path, capsys, "f.json",
        "--family", "mp6", "--q", "3", "--d", "4", "--variant", "5", "--force",
    )
    payload = json.loads(path.read_text())
    assert payload["provenance"]["claims"]["orthogonality"] is None
    assert payload["provenance"]["construction_checks"]["output_dual_containing"] is False
    assert payload["certificates"][0]["checks"][0]["verdict"] == "skipped"
    # the distance bound is honest even without the duality certificate
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    assert rc == 0
    report = json.loads(out)
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["gram"] == "skipped" and verdicts["dual-containing"] == "skipped"
    assert verdicts["min-distance"] == "pass"


@pytest.mark.parametrize("variant", ["5", "3"])
def test_forced_mp7_with_a_negative_quantum_dimension_exits_2(tmp_path, capsys, variant):
    # the closed forms give [[16, -4, 8]] and [[18, -2, 8]]
    flags = ["--q", "3", "--d", "8", "--variant", variant, "--force"]
    out = tmp_path / "x.json"
    rc, stdout, err = run_cli(["construct", "--family", "mp7", *flags, "--out", str(out)], capsys)
    assert rc == 2 and stdout == ""
    assert json.loads(err)["error"] == "DimensionOutOfRange"
    assert not out.exists()
    # the classical ladder has no quantum record and is still written
    construct(tmp_path, capsys, "mp6.json", "--family", "mp6", *flags)


@pytest.mark.parametrize("entry", ["construct", "theorem_mp7"])
def test_mp7_decides_each_containment_once(tmp_path, capsys, monkeypatch, entry):
    # the ingredients and the [52, 48] output carry their Hermitian duals, so
    # the pairing and the quantum record decide containment by Gram matrices
    # and reduce nothing against a row space; only the construct-time
    # certificate, which reads no carried dual, takes the rank route
    calls = {}  # id(outer) -> [outer, count]; holding outer keeps ids unique
    real = qmds.verify.row_space_contains

    def counting(outer, inner):
        calls.setdefault(id(outer), [outer, 0])[1] += 1
        return real(outer, inner)

    monkeypatch.setattr(qmds.verify, "row_space_contains", counting)
    if entry == "construct":
        construct(tmp_path, capsys, "q.json", "--family", "mp7", "--q", "5", "--d", "4", "--variant", "1")
    else:
        theorem_mp7(5, 4, 1)
    decided = sorted(((outer.rows, outer.cols), count) for outer, count in calls.values())
    assert decided == ([((48, 52), 1)] if entry == "construct" else [])


def test_grs_a_with_a_below_its_minimum_exits_2(tmp_path, capsys):
    out = tmp_path / "x.json"
    flags = ["--family", "grs-a", "--q", "5", "--a", "0", "--d", "3", "--out", str(out)]
    rc, _, err = run_cli(["construct", *flags], capsys)
    assert rc == 2 and not out.exists()
    assert json.loads(err)["error"] == "CongruenceViolated"


def refused_a(tmp_path, capsys, family, q, a):
    out = tmp_path / "x.json"
    flags = ["--family", family, "--q", str(q), "--a", str(a), "--d", "3", "--out", str(out)]
    rc, stdout, err = run_cli(["construct", *flags], capsys)
    assert (rc, stdout) == (2, "") and not out.exists()
    return json.loads(err)  # exactly one JSON object


@pytest.mark.parametrize(
    "family,congruence",
    [("grs-a", "2am + 1"), ("grs-b", "2am - 1"), ("grs-c", "(2a + 1)m - 1")],
)
def test_an_a_past_q_is_refused_without_a_derived_m(tmp_path, capsys, family, congruence):
    assert refused_a(tmp_path, capsys, family, 5, 7) == {
        "error": "CongruenceViolated",
        "exit_code": 2,
        "message": f"{family} needs q = {congruence} for some integer m >= 1, got q=5, a=7",
    }


def test_an_a_that_leaves_a_remainder_is_refused_without_a_derived_m(tmp_path, capsys):
    # 2a = 4 does not divide q - 1 = 6; m = 1 is the quotient, not a given
    assert refused_a(tmp_path, capsys, "grs-a", 7, 2) == {
        "error": "CongruenceViolated",
        "exit_code": 2,
        "message": "grs-a needs q = 2am + 1 for some integer m >= 1, got q=7, a=2",
    }


def test_extended_even_q_at_k_q_minus_1_exits_2_before_building(tmp_path, capsys, monkeypatch):
    # at an even q and k = q - 1 every trace-perturbed candidate has a root,
    # so the range is refused before any candidate is drawn
    def no_candidates(*args):
        raise AssertionError("a candidate was drawn")

    monkeypatch.setattr(qmds.grs, "_extension_candidates", no_candidates)
    out = tmp_path / "x.json"
    for q, k in ((8, 7), (4, 3), (2, 1)):
        flags = ["--family", "extended", "--q", str(q), "--k", str(k), "--out", str(out)]
        rc, stdout, err = run_cli(["construct", *flags], capsys)
        assert (rc, stdout) == (2, "") and not out.exists()
        assert json.loads(err) == {
            "error": "DimensionOutOfRange",
            "exit_code": 2,
            "message": f"even q={q} has no code at k = q - 1 = {k}: with c^2 = b and x^2 = N(c), "
            "alpha = x/c is a root of every u_b = 1 + N(alpha) + Tr(b alpha^2)",
        }


def test_extended_at_q19_k18_constructs_and_verifies(tmp_path, capsys):
    # the first trace-perturbed candidate with no zero entry and a zero Gram
    # matrix at q = 19 is b = 105
    path = construct(tmp_path, capsys, "ext.json", "--family", "extended", "--q", "19", "--k", "18")
    rc, out, err = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
    report = json.loads(out)
    assert (rc, err, report["overall"]) == (0, "", "pass")
    assert {c["name"]: c["verdict"] for c in report["checks"]}["dual-containing"] == "pass"


@pytest.mark.parametrize("family,k", [("full-field", 1), ("extended", 3)])
def test_oversized_dual_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch, family, k):
    # at q = 128 either dual would hold about 2.7e8 cells; the cap refuses
    # it before any elimination, so the dual is never reached
    def unreachable(code):
        raise AssertionError("the Hermitian dual was built")

    monkeypatch.setattr(qmds.grs, "hermitian_dual", unreachable)
    out = tmp_path / "x.json"
    flags = ["--family", family, "--q", "128", "--k", str(k), "--out", str(out)]
    rc, stdout, err = run_cli(["construct", *flags], capsys)
    assert (rc, stdout) == (2, "") and not out.exists()
    error = json.loads(err)
    assert error["error"] == "DimensionOutOfRange" and error["exit_code"] == 2
    assert str(qmds.grs.DUAL_CELL_CAP) in error["message"]


def test_unforced_out_of_range_mp6_exits_2(tmp_path, capsys):
    rc, _, err = run_cli(
        ["construct", "--family", "mp6", "--q", "3", "--d", "4", "--variant", "5",
         "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert rc == 2
    assert json.loads(err)["error"] == "DistanceOutOfRange"


def test_extended_file_roundtrip(tmp_path, capsys):
    path = construct(tmp_path, capsys, "e.json", "--family", "extended", "--q", "3", "--k", "2")
    payload = json.loads(path.read_text())
    assert payload["code"]["n"] == 10 and payload["code"]["k"] == 8
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "dual-containing"], capsys)
    assert rc == 0 and json.loads(out)["overall"] == "pass"


def test_enum_cap_env_and_flag(tmp_path, capsys, monkeypatch):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    monkeypatch.setenv("QMDS_MAX_ENUM", "10")
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "min-distance"], capsys)
    assert rc == 0
    assert "column-independence floor" in json.loads(out)["checks"][0]["method"]
    # an explicit flag wins over the environment
    rc, out, _ = run_cli(
        ["verify", "--in", str(path), "--check", "min-distance", "--max-enum", "1000000"], capsys
    )
    assert rc == 0
    assert json.loads(out)["checks"][0]["method"] == "exhaustive message enumeration"
    monkeypatch.setenv("QMDS_MAX_ENUM", "abc")
    rc, out, err = run_cli(["verify", "--in", str(path), "--check", "min-distance"], capsys)
    assert rc == 2 and out == ""
    assert json.loads(err)["exit_code"] == 2  # exactly one JSON object, no traceback


@pytest.mark.parametrize(
    "flag, env, source",
    [(["--max-enum", "-1"], None, "--max-enum"), ([], "-3", "QMDS_MAX_ENUM"), (["--max-enum", "-1"], "10", "--max-enum")],
    ids=["flag", "env", "flag-over-env"],
)
def test_negative_enum_cap_exits_2(tmp_path, capsys, monkeypatch, flag, env, source):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    if env is not None:
        monkeypatch.setenv("QMDS_MAX_ENUM", env)
    rc, out, err = run_cli(["verify", "--in", str(path), "--check", "min-distance", *flag], capsys)
    assert (rc, out) == (2, "")
    cap = flag[1] if flag else env
    assert json.loads(err) == {
        "error": "BadDimension",
        "exit_code": 2,
        "message": f"{source} must be at least 0, got {cap}",
    }


def test_zero_enum_cap_never_enumerates(tmp_path, capsys, monkeypatch):
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    for flag, env in ((["--max-enum", "0"], None), ([], "0")):
        if env is not None:
            monkeypatch.setenv("QMDS_MAX_ENUM", env)
        rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "min-distance", *flag], capsys)
        assert rc == 0
        assert "column-independence floor" in json.loads(out)["checks"][0]["method"]


def test_table_family_sweeps(capsys):
    rc, out, _ = run_cli(["table", "--which", "family-c", "--q-max", "3"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,a,m,d,n,k,bound_type,certification"
    assert "grs-c,3,0,4,3,6,2,exact,FULL" in lines  # [[6,2,3]]_3

    rc, out, _ = run_cli(["table", "--which", "family-a", "--q-max", "3"], capsys)
    rows = out.strip().splitlines()[1:]
    assert rows == [
        "grs-a,3,1,1,2,8,6,exact,FULL",
        "grs-a,3,1,1,3,8,4,exact,FULL",
    ]


@pytest.mark.parametrize("q_max", ["257", "10000000000"])
def test_table_q_max_past_the_field_cap_is_refused_at_once(capsys, q_max):
    # q^2 must stay within gf.SIZE_CAP = 2^16, as for --q
    start = time.perf_counter()
    rc, out, err = run_cli(["table", "--which", "family-a", "--q-max", q_max], capsys)
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "FieldTooLarge"


@pytest.mark.parametrize("q_max", ["-300", "-5", "1", "2"])
def test_table_q_max_below_3_is_refused(capsys, q_max):
    rc, out, err = run_cli(["table", "--which", "family-a", "--q-max", q_max], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {
        "error": "BadDimension",
        "exit_code": 2,
        "message": f"--q-max must be at least 3, got {q_max}",
    }


def test_table1_honours_q_max(capsys):
    rows = {}
    for q_max in ("3", "7", "13"):
        rc, out, err = run_cli(["table", "--which", "table1", "--q-max", q_max], capsys)
        assert rc == 0, err
        rows[q_max] = out.strip().splitlines()[1:]
        assert all(int(row.split(",")[1]) <= int(q_max) for row in rows[q_max])
    assert (len(rows["3"]), len(rows["7"]), len(rows["13"])) == (1, 6, 8)
    assert rows["7"] == rows["13"][:6]
    # the default --q-max is 13, so the whole table
    assert run_cli(["table", "--which", "table1"], capsys)[1].strip().splitlines()[1:] == rows["13"]
    for q_max, error in (("2", "BadDimension"), ("257", "FieldTooLarge")):
        rc, out, err = run_cli(["table", "--which", "table1", "--q-max", q_max], capsys)
        assert (rc, out, json.loads(err)["error"]) == (2, "", error)


def test_table1_builds_only_the_fields_its_rows_use():
    # the rows sit at q = 3, 5, 7 and 9; testing every q up to --q-max for a
    # prime power would build GF(11^2) and GF(13^2) as well.  A fresh
    # interpreter, so fields other tests built do not count
    src = str(Path(qmds.cli.__file__).resolve().parents[1])
    probe = (
        f"import contextlib, io, sys; sys.path.insert(0, {src!r}); from qmds import cli, gf\n"
        "with contextlib.redirect_stdout(io.StringIO()): assert cli.main(['table', '--which', 'table1']) == 0\n"
        "print(sorted(gf._CANONICAL))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.strip() == "[(3, 1), (3, 2), (5, 1), (7, 1)]"


def test_table_output_is_deterministic(capsys):
    first = run_cli(["table", "--which", "family-b", "--q-max", "5", "--format", "json"], capsys)[1]
    second = run_cli(["table", "--which", "family-b", "--q-max", "5", "--format", "json"], capsys)[1]
    assert first == second
    rows = json.loads(first)
    assert all(row["certification"] == "FULL" for row in rows)


def test_table1_csv(capsys):
    rc, out, _ = run_cli(["table", "--which", "table1"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,d,n,k,bound_type,certification"
    assert len(lines) == 9
    assert lines[1:] == [
        "mp7-v2,3,3,20,14,lower-bound,FULL",
        "mp7-v5,5,8,48,28,lower-bound,FORMULA-ONLY",
        "mp7-v1,5,4,52,44,lower-bound,FULL",
        "mp7-v2,5,5,52,40,lower-bound,FULL",
        "mp7-v5,7,12,96,64,lower-bound,FORMULA-ONLY",
        "mp7-v1,7,4,100,92,lower-bound,FULL",
        "mp7-v2,9,5,164,152,lower-bound,FULL",
        "mp7-v1,9,4,164,156,lower-bound,FULL",
    ]


def test_huge_field_in_file_exits_4_at_once(tmp_path, capsys):
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    bad = tmp_path / "huge.json"
    for field in ({"p": 1000000000000000009, "t": 1}, {"p": 3, "t": 10**18}):
        payload = json.loads(good.read_text())
        payload["field"].update(field)
        bad.write_text(json.dumps(payload))
        start = time.perf_counter()
        rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
        # trial division of that p alone would run for minutes
        assert time.perf_counter() - start < 5
        assert rc == 4
        detail = json.loads(err)
        assert detail["error"] == "FileMalformed" and "exceeds" in detail["message"]


@pytest.mark.parametrize("cap", ["10", "1000000"])
def test_distance_claim_beyond_length_fails(tmp_path, capsys, cap):
    # [8, 2] code; "10" forces the column-independence floor, "1000000" enumerates
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(path.read_text())
    payload["provenance"]["claims"]["claimed_distance_lb"] = 50
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(
        ["verify", "--in", str(path), "--check", "min-distance", "--max-enum", cap], capsys
    )
    assert rc == 3, err
    check = json.loads(out)["checks"][0]
    assert check["verdict"] == "fail"


@pytest.mark.parametrize("cap", [[], ["--max-enum", "10"]])
@pytest.mark.parametrize("known, verdict", [(2, "fail"), (6, "fail"), (7, "pass"), (8, "fail")])
def test_exact_distance_claim_does_not_depend_on_the_cap(tmp_path, capsys, cap, known, verdict):
    # [8, 2] code with d = 7; under a cap of 10 its 81 messages are not
    # enumerated, and the floor must pin d from both sides: d >= w holds
    # and d >= w + 1 fails
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(path.read_text())
    payload["provenance"]["claims"].update(known_distance=known, claimed_distance_lb=None)
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(["verify", "--in", str(path), "--check", "min-distance", *cap], capsys)
    assert rc == (0 if verdict == "pass" else 3), err
    (check,) = json.loads(out)["checks"]
    assert check["verdict"] == verdict
    assert ("floor" in check["method"]) == bool(cap)


def test_exact_distance_claim_over_the_floor_budget_is_skipped(tmp_path, capsys):
    # [48, 4] over GF(49), d = 45: both floor tests of the exact claim 44 are
    # over the work budget, as is the lower one of 45; d >= 46 fails by
    # Singleton at no cost, which refutes the claim 46 outright
    path = construct(tmp_path, capsys, "big.json", "--family", "grs-a", "--q", "7", "--a", "1", "--d", "5")
    for known, verdict in ((44, "skipped"), (45, "skipped"), (46, "fail")):
        payload = json.loads(path.read_text())
        payload["provenance"]["claims"].update(known_distance=known, claimed_distance_lb=None)
        edited = tmp_path / f"known{known}.json"
        edited.write_text(json.dumps(payload))
        rc, out, _ = run_cli(["verify", "--in", str(edited), "--check", "min-distance"], capsys)
        (check,) = json.loads(out)["checks"]
        assert (rc, check["verdict"]) == (3 if verdict == "fail" else 0, verdict), known
        if verdict == "skipped":
            assert "exceeds the budget" in check["detail"]


@pytest.mark.parametrize("cap", [[], ["--max-enum", "10"]])
@pytest.mark.parametrize(
    "q, d, known",
    [(3, 3, 6), (3, 3, 2), (7, 5, 44)],
    ids=["q3-known6", "q3-known2", "q7-known44"],
)
def test_a_lower_bound_above_the_exact_claim_is_malformed(tmp_path, capsys, cap, q, d, known):
    # construct claims d >= n - k + 1 (7 on the [8, 2] code, 45 on the
    # [48, 4] one); no code has a distance equal to known and at least that,
    # so the file is refused before any check runs, whatever the cap
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", str(q), "--a", "1", "--d", str(d))
    payload = json.loads(path.read_text())
    payload["provenance"]["claims"]["known_distance"] = known
    path.write_text(json.dumps(payload))
    rc, out, err = run_cli(["verify", "--in", str(path), "--check", "all", *cap], capsys)
    assert (rc, out) == (4, "")
    error = json.loads(err)
    assert error["error"] == "FileMalformed"
    assert error["message"].endswith(f"exceeds known_distance {known}")


def write_code_file(path, f, generator, **claims):
    path.write_text(json.dumps({
        "schema_version": 1,
        "field": {"p": f.p, "t": f.t, "modulus": list(f.modulus)},
        "code": {"n": len(generator[0]), "k": len(generator), "generator": generator},
        "provenance": {"claims": {"orthogonality": "self-orthogonal", **claims}},
    }))


def test_a_wide_generator_with_a_singular_leading_block_changes_no_verdict(tmp_path, capsys):
    # two disjoint all-ones blocks span a Hermitian self-orthogonal [6, 2, 3]
    # code over GF(9), since 1 + 1 + 1 = 0; the column order (0, 1, 3, 2, 4, 5)
    # makes the leading 2 x 2 minor singular.  A loaded generator is not
    # marked full rank, so rank eliminates it whole, and every verdict must
    # stay what the block order gives
    f = field_for_q(3)
    plain, permuted = tmp_path / "plain.json", tmp_path / "permuted.json"
    write_code_file(plain, f, [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], claimed_distance_lb=3)
    write_code_file(permuted, f, [[1, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 1]], claimed_distance_lb=3)
    for cap in ([], ["--max-enum", "10"]):
        reports = []
        for path in (plain, permuted):
            rc, out, err = run_cli(["verify", "--in", str(path), "--check", "all", *cap], capsys)
            assert rc == 0, err
            reports.append(json.loads(out))
        assert reports[0] == reports[1]
        verdicts = {c["name"]: c["verdict"] for c in reports[0]["checks"]}
        assert verdicts == {"gram": "pass", "dual-containing": "skipped", "min-distance": "pass", "mds": "skipped"}

    # dependent rows leave every minor singular, and the file is refused
    write_code_file(permuted, f, [[1, 1, 0, 1, 0, 0], [2, 2, 0, 2, 0, 0]], claimed_distance_lb=3)
    rc, out, err = run_cli(["verify", "--in", str(permuted), "--check", "all"], capsys)
    assert (rc, out) == (4, "")
    assert json.loads(err)["error"] == "FileMalformed"


def test_a_loaded_kernel_past_the_dual_cell_cap_is_refused_before_it_is_built(tmp_path, capsys, monkeypatch):
    # a [40, 1] file claiming dual containment: the rank route's kernel is
    # [40, 39], 1560 cells, so a cap one below refuses it
    calls = []
    real = qmds.verify.nullspace
    monkeypatch.setattr(qmds.verify, "nullspace", lambda m: calls.append(m) or real(m))
    path = tmp_path / "wide.json"
    write_code_file(path, field_for_q(3), [[1] * 40], orthogonality="dual-containing")
    for cap, nullspaces in ((39 * 40 - 1, 0), (39 * 40, 1)):
        monkeypatch.setattr(qmds.grs, "DUAL_CELL_CAP", cap)
        calls.clear()
        rc, out, err = run_cli(["verify", "--in", str(path), "--check", "all"], capsys)
        assert len(calls) == nullspaces
        if nullspaces:
            assert rc == 3 and err == ""
            checks = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
            assert checks["dual-containing"] == "fail"
        else:
            assert (rc, out) == (2, "")
            assert json.loads(err) == {
                "error": "DimensionOutOfRange",
                "exit_code": 2,
                "message": f"the [40, 39] dual would have 1560 cells, over {cap}",
            }


def test_zero_code_gets_one_answer_from_every_distance_check(tmp_path, capsys):
    # a [8, 0] code claiming d >= 9 = n - k + 1: the min-distance and mds
    # checks both take the enumerator, which refuses the zero code
    f = field_for_q(3)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "field": {"p": f.p, "t": f.t, "modulus": list(f.modulus)},
        "code": {"n": 8, "k": 0, "generator": []},
        "provenance": {"claims": {"claimed_distance_lb": 9}},
    }))
    errors = []
    for check in ("min-distance", "mds", "all"):
        rc, out, err = run_cli(["verify", "--in", str(path), "--check", check], capsys)
        assert rc == 2 and out == "", check
        errors.append(json.loads(err))
    assert errors[0]["error"] == "BadDimension"
    assert errors == [errors[0]] * 3


@pytest.mark.parametrize(
    "flags, cap, enumerations, floors",
    [
        (["--family", "grs-a", "--q", "3", "--a", "1", "--d", "3"], [], 1, []),
        (["--family", "grs-a", "--q", "3", "--a", "1", "--d", "3"], ["--max-enum", "10"], 0, [7]),
        (["--family", "mp7", "--q", "5", "--d", "4", "--variant", "1"], [], 0, [4]),
    ],
)
def test_verify_all_runs_each_distance_oracle_once(
    tmp_path, capsys, monkeypatch, flags, cap, enumerations, floors
):
    # the [8, 2] grs-a file claims d = 7 = n - k + 1, so both distance checks
    # need its distance; the [52, 48] mp7 file claims d >= 4 and no MDS
    path = construct(tmp_path, capsys, "c.json", *flags)
    walks, floor_ws = [], []
    real_walk, real_floor = qmds.verify._min_weight, qmds.verify.min_distance_at_least

    def counting_walk(f, rows):
        walks.append(len(rows))
        return real_walk(f, rows)

    def counting_floor(code, w, *args, **kwargs):
        floor_ws.append(w)
        return real_floor(code, w, *args, **kwargs)

    monkeypatch.setattr(qmds.verify, "_min_weight", counting_walk)
    monkeypatch.setattr(qmds.verify, "min_distance_at_least", counting_floor)
    rc, out, _ = run_cli(["verify", "--in", str(path), "--check", "all", *cap], capsys)
    assert rc == 0
    verdicts = {c["name"]: c["verdict"] for c in json.loads(out)["checks"]}
    assert verdicts["min-distance"] == "pass"
    assert (len(walks), floor_ws) == (enumerations, floors)


# -- one process, many calls ----------------------------------------------------


def _fresh_process(argv, env):
    done = subprocess.run(
        [sys.executable, "-m", "qmds.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # help text wraps to the terminal width, so both sides get the same one
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(qmds.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("QMDS_MAX_ENUM", None)
    monkeypatch.delenv("QMDS_MAX_ENUM", raising=False)
    out = tmp_path / "c.json"
    sequence = [
        ["verify", "--in", str(out), "--check", "all", "--bogus"],
        ["construct", "--help"],
        ["construct", "--family", "grs-a", "--q", "5", "--a", "2", "--d", "4", "--out", str(out)],
        ["verify", "--in", str(out), "--check", "all"],
    ]
    here, there = [], []
    for argv in sequence:
        try:
            rc = main(argv)
        except SystemExit as done:  # --help
            rc = done.code
        here.append((rc, *capsys.readouterr(), out.read_bytes() if out.exists() else None))
    out.unlink()
    for argv in sequence:
        there.append((*_fresh_process(argv, env), out.read_bytes() if out.exists() else None))
    assert [r[0] for r in here] == [2, 0, 0, 0]
    assert here == there


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = qmds.cli._Parser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "qmds":  # the top-level parser, not a subcommand's
            built.append(self)

    monkeypatch.setattr(qmds.cli._Parser, "__init__", counting)
    path = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    for _ in range(3):
        assert run_cli(["verify", "--in", str(path), "--check", "gram"], capsys)[0] == 0
        assert run_cli(["verify", "--in", str(path), "--check", "gram", "--bogus"], capsys)[0] == 2
    assert len(built) <= 1
    assert qmds.cli.build_parser() is qmds.cli.build_parser()


def test_a_rebound_command_runs_after_the_parser_is_built(capsys, monkeypatch):
    assert run_cli(["verify", "--in", "a.json", "--check", "all", "--bogus"], capsys)[0] == 2
    seen = []
    monkeypatch.setattr(qmds.cli, "cmd_verify", lambda args: seen.append(args.infile) or 7)
    assert main(["verify", "--in", "a.json", "--check", "all"]) == 7
    assert seen == ["a.json"]


# -- loaded codes share the canonical field ---------------------------------------


@pytest.mark.parametrize(
    "flags, rebuild",
    [
        (
            ["--family", "grs-a", "--q", "3", "--a", "1", "--d", "3"],
            lambda f: grs_generator(GRS_FAMILIES["grs-a"][0](ConstructionParams(q=3, a=1, m=1, d=3))),
        ),
        (["--family", "full-field", "--q", "3", "--k", "2"], lambda f: construct_full_field(f, 2)),
        (["--family", "extended", "--q", "3", "--k", "2"], lambda f: construct_extended(f, 2)),
        (["--family", "mp7", "--q", "3", "--d", "3", "--variant", "2"], None),
    ],
    ids=["grs-a", "full-field", "extended", "mp7"],
)
def test_canonical_files_load_onto_the_built_field(tmp_path, capsys, flags, rebuild):
    f = field_for_q(3)
    path = construct(tmp_path, capsys, "c.json", *flags)
    code, claims = load_code_file(str(path))
    assert claims == json.loads(path.read_text())["provenance"]["claims"]
    assert code.field is f
    if rebuild is not None:
        built = rebuild(f)
        assert code.generator == built.generator
        assert row_space_contains(code.generator, built.generator)
        assert row_space_contains(built.generator, code.generator)


def test_other_moduli_load_onto_fields_of_their_own(tmp_path, capsys):
    f = field_for_q(3)
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(good.read_text())
    bad = tmp_path / "other.json"
    payload["field"]["modulus"] = [2, 2, 1]
    bad.write_text(json.dumps(payload))
    (first, _), (second, _) = load_code_file(str(bad)), load_code_file(str(bad))
    assert first.field.modulus == [2, 2, 1]
    assert first.field is not f and second.field is not first.field

    payload["field"]["modulus"] = [1, 0, 1]  # x has order 4 in GF(9)
    bad.write_text(json.dumps(payload))
    rc, out, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
    assert (rc, out) == (4, "")
    assert json.loads(err)["error"] == "FileMalformed"
    assert load_code_file(str(good))[0].field is f


def test_the_gram_check_reduces_in_the_files_own_field(tmp_path, capsys):
    # the [8,1] code is self-orthogonal over the canonical GF(9), x^2 + x + 2;
    # read over x^2 + 2x + 2 its Gram entry is nonzero, while its image under
    # the isomorphism that sends x to a root y of x^2 + x + 2 there is
    # self-orthogonal again, which only a fold through that field's own x^2
    # finds
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "2")
    payload = json.loads(good.read_text())
    payload["field"]["modulus"] = [2, 2, 1]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(payload))
    f = Field(3, 1, [2, 2, 1])
    y = next(e for e in f.elements() if f.add(f.add(f.mul(e, e), e), 2) == 0)
    payload["code"]["generator"] = [[f.add(e % 3, f.mul(e // 3, y)) for e in row] for row in payload["code"]["generator"]]
    image = tmp_path / "image.json"
    image.write_text(json.dumps(payload))
    rc, out, _ = run_cli(["verify", "--in", str(image), "--check", "gram"], capsys)
    assert (rc, json.loads(out)["overall"]) == (0, "pass")
    rc, out, _ = run_cli(["verify", "--in", str(other), "--check", "gram"], capsys)
    assert rc == 3
    assert out == (
        "{\n"
        '  "checks": [\n'
        "    {\n"
        '      "detail": "gram matrix has a nonzero entry",\n'
        '      "method": "hermitian gram matrix",\n'
        '      "name": "gram",\n'
        '      "verdict": "fail",\n'
        '      "work_count": 1\n'
        "    }\n"
        "  ],\n"
        '  "overall": "fail",\n'
        '  "target": "[8,1] over GF(9)"\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "change,reason",
    [
        ({"t": 0}, "t = 0 must be positive"),
        ({"modulus": [5, 2, 1]}, "reduced mod p"),  # p + 2
        ({"modulus": [-1, 2, 1]}, "reduced mod p"),
    ],
)
def test_a_tower_or_modulus_the_field_refuses_exits_4(tmp_path, capsys, change, reason):
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(good.read_text())
    payload["field"].update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
    assert (rc, out) == (4, "")
    detail = json.loads(err)  # exactly one JSON object
    assert detail["error"] == "FileMalformed" and reason in detail["message"]


def test_an_unbuilt_large_field_with_a_bad_modulus_exits_4_at_once(tmp_path, capsys, monkeypatch):
    # a wrong-length modulus must be refused before any field is built: no
    # canonical GF(2^16) to compare against, and no walk over its powers
    good = construct(tmp_path, capsys, "c.json", "--family", "grs-a", "--q", "3", "--a", "1", "--d", "3")
    payload = json.loads(good.read_text())
    payload["field"].update({"p": 2, "t": 8, "modulus": [1, 0, 1]})
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(payload))

    def build(*args):
        raise AssertionError(f"a field was built for {args}")

    monkeypatch.setattr(gf, "_CANONICAL", {})
    monkeypatch.setattr(gf, "_canonical_field", build)
    monkeypatch.setattr(gf, "_build_tables", build)
    rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
    assert (2, 8) not in gf._CANONICAL
    assert rc == 4
    detail = json.loads(err)
    assert detail["error"] == "FileMalformed" and "degree 16" in detail["message"]
