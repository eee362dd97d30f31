"""End-to-end CLI behavior: files, reports, tables, exit codes."""

from __future__ import annotations

import json
import time

import pytest

import qmds.verify
from qmds.cli import main
from qmds.gf import field_for_q
from qmds.grs import valid_parameter_sets
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
        (6, 7, 3, ("fail", "exact d = 7, claimed d = 6")),
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

    payload = json.loads(good.read_text())
    payload["provenance"] = [1, 2]
    bad.write_text(json.dumps(payload))
    rc, _, err = run_cli(["verify", "--in", str(bad), "--check", "all"], capsys)
    assert rc == 4
    assert json.loads(err)["error"] == "FileMalformed"

    assert run_cli(["verify", "--in", str(tmp_path / "absent.json"), "--check", "all"], capsys)[0] == 4


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
    rc, _, err = run_cli(["construct", "--family", "grs-a", "--q", "3", "--d", "3", "--out", out], capsys)
    assert rc == 2 and "--a" in json.loads(err)["message"]
    rc, _, err = run_cli(["construct", "--family", "extended", "--q", "3", "--out", out], capsys)
    assert rc == 2 and "--k" in json.loads(err)["message"]
    rc, _, err = run_cli(["construct", "--family", "mp6", "--q", "3", "--d", "2", "--out", out], capsys)
    assert rc == 2 and "--variant" in json.loads(err)["message"]


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
    # the pairing, the quantum record and the construct-time certificate all
    # need the [52, 48] output's containment verdict: one computation serves
    # them, and each [26, *] ingredient is decided once too
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
    assert decided == [((23, 26), 1), ((25, 26), 1), ((48, 52), 1)]


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
    payload["provenance"]["claims"]["known_distance"] = known
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
        payload["provenance"]["claims"]["known_distance"] = known
        edited = tmp_path / f"known{known}.json"
        edited.write_text(json.dumps(payload))
        rc, out, _ = run_cli(["verify", "--in", str(edited), "--check", "min-distance"], capsys)
        (check,) = json.loads(out)["checks"]
        assert (rc, check["verdict"]) == (3 if verdict == "fail" else 0, verdict), known
        if verdict == "skipped":
            assert "exceeds the budget" in check["detail"]


def write_code_file(path, f, generator, **claims):
    path.write_text(json.dumps({
        "schema_version": 1,
        "field": {"p": f.p, "t": f.t, "modulus": list(f.modulus)},
        "code": {"n": len(generator[0]), "k": len(generator), "generator": generator},
        "provenance": {"claims": {"orthogonality": "self-orthogonal", **claims}},
    }))


def test_a_singular_leading_minor_changes_no_verdict(tmp_path, capsys):
    # two disjoint all-ones blocks span a Hermitian self-orthogonal [6, 2, 3]
    # code over GF(9), since 1 + 1 + 1 = 0; the column order (0, 1, 3, 2, 4, 5)
    # makes the leading 2 x 2 minor singular, so rank falls back to a full
    # elimination, and every verdict must stay what the block order gives
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
