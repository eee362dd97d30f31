"""Layering: only qmds.gf reads the tables of a Field.

Every other module of the package does its arithmetic through the field's
element methods and vector kernels, so the choice between the addition
table and Zech logarithms is made in one place.  The private attributes of
a live Field are the tables, so a table added later is covered without
editing this test.
"""

from __future__ import annotations

import ast
from pathlib import Path

import qmds
from qmds.gf import field_for_q

PACKAGE = Path(qmds.__file__).resolve().parent
TABLES = {name for name in vars(field_for_q(3)) if name.startswith("_")}


def test_only_gf_reads_field_tables():
    assert {"_exp", "_log", "_add"} <= TABLES
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "gf.py")
    assert modules
    reads = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in TABLES
    ]
    assert not reads, reads
