"""Fuzz property: `qmds verify` on a mangled code file ends in one of its
exit codes, with one JSON document and no traceback.

The files are the ones `qmds construct` writes for four codes, one of each
kind the reader meets: a self-orthogonal GRS code, the full-field and
extended dual-containing codes, and an mp7 ladder code.  Each example
replaces or deletes one to three values at drawn paths of the JSON tree,
with ints (negative, in the field, q^2, 2^70), floats, bools, null,
strings, [] or {}.  Whatever the damage, verify must return 0, 2, 3 or
4: on 0 or 3 it writes one JSON report whose overall verdict matches the
exit code, and on 2 or 4 one JSON error object whose exit_code is the one
returned.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds.cli import main

BASES = {
    "grs-a": ["--family", "grs-a", "--q", "3", "--a", "1", "--d", "3"],
    "full-field": ["--family", "full-field", "--q", "3", "--k", "2"],
    "extended": ["--family", "extended", "--q", "3", "--k", "2"],
    "mp7": ["--family", "mp7", "--q", "3", "--d", "3", "--variant", "2"],
}

# fixed example sequence, so every run of the suite tries the same files
FUZZ = settings(deadline=None, derandomize=True, max_examples=250)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def bases(workdir) -> dict[str, dict]:
    """name -> the parsed file construct writes for it."""
    docs = {}
    for name, flags in BASES.items():
        path = workdir / f"{name}.json"
        rc, _, err = run(["construct", *flags, "--out", str(path)])
        assert rc == 0, err
        docs[name] = json.loads(path.read_text())
    return docs


def values(q2: int):
    ints = st.sampled_from([-1, -(q2 + 1), q2, 2**70])
    return st.one_of(ints, st.integers(0, q2 - 1), st.floats(), st.booleans(), st.none(), st.text(max_size=4), st.just([]), st.just({}))


@st.composite
def mutations(draw, doc: dict) -> dict:
    """doc with one to three values replaced or deleted, each at a path
    that descends at least one level and then one more with chance 7/8,
    so that generator entries and claims are reached often."""
    doc = copy.deepcopy(doc)
    field = doc["field"]
    q2 = field["p"] ** (2 * field["t"])
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.integers(0, 7))):
            parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        if parent is None:
            continue  # an earlier mutation left nothing to descend into
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(values(q2))
    return doc


@FUZZ
@given(data=st.data())
def test_a_mangled_code_file_gets_one_exit_code_and_one_json_document(bases, workdir, data):
    name = data.draw(st.sampled_from(sorted(bases)))
    doc = data.draw(mutations(bases[name]))
    path = workdir / "mangled.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(["verify", "--in", str(path), "--check", "all"])
    assert rc in (0, 2, 3, 4), (rc, out, err)
    if rc in (2, 4):
        assert out == ""
        error = json.loads(err)
        assert set(error) == {"error", "exit_code", "message"} and error["exit_code"] == rc
    else:
        assert err == ""
        report = json.loads(out)
        assert report["overall"] == ("pass" if rc == 0 else "fail")
