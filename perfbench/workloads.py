"""The benchmark's four workloads.

Each workload is a fixed list of items stored with its reference output in
reference/<name>.json, recorded from the library by `run.py --record`.  The
benchmark reads the items from that file, so the list does not change when
the library's own parameter tables do.  `run` is the timed call into the
library; `output` turns its result into the record that is compared with
the reference, outside the timed region.

Library functions are looked up on their modules at call time, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# odd prime powers up to 23: every q the sweep visits
SWEEP_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23)
# one tuple in SWEEP_STRIDE of the full sweep, in (q, family, a, d) order
SWEEP_STRIDE = 7
GRS_FAMILIES = ("grs-a", "grs-b", "grs-c")
ENUM_CAP = 1 << 26
ENUM_MAX_MESSAGES = 1 << 24


def _qmds():
    import qmds.cli  # binds the package and loads every layer

    return qmds


def _grs_code(family: str, q: int, a: int, m: int, d: int):
    qmds = _qmds()
    ctor = {
        "grs-a": qmds.grs.construct_family_A,
        "grs-b": qmds.grs.construct_family_B,
        "grs-c": qmds.grs.construct_family_C,
    }[family]
    return qmds.grs.grs_generator(ctor(qmds.grs.ConstructionParams(q=q, a=a, m=m, d=d)))


def _grs_tuples(qs):
    """(family, q, a, m, d) for every valid parameter set, in sweep order."""
    grs = _qmds().grs
    return [
        [family, q, p.a, p.m, p.d]
        for q in qs
        for family in GRS_FAMILIES
        for p in grs.valid_parameter_sets(family, q)
    ]


class Workload:
    name = ""
    # every q the workload's items use; set-up builds each field once
    qs: tuple[int, ...] = ()
    # per-layer shares whose sum the traced run must show at least
    stress: tuple[tuple[str, ...], float] = ((), 0.0)

    def __init__(self, workdir: Path):
        """workdir is a scratch directory for workloads that write files."""

    def record_items(self) -> list:
        """The item payloads, derived from the library when references are recorded."""
        raise NotImplementedError

    def run(self, item):
        """The timed call into the library."""
        raise NotImplementedError

    def output(self, item, raw):
        """The JSON record of one result, compared with the reference."""
        raise NotImplementedError

    def reference(self) -> list[tuple[str, object, object]]:
        with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as fh:
            return [tuple(entry) for entry in json.load(fh)["items"]]

    def item_id(self, item) -> str:
        return " ".join(str(x) for x in item)

    def close(self) -> None:
        pass


class Table1(Workload):
    name = "table1"
    qs = (3, 5, 7)
    stress = (("linalg.self_frac",), 0.90)

    def record_items(self):
        quantum = _qmds().quantum
        return [
            [q, d, v]
            for q, d, v, _ in quantum.TABLE1_LAYOUT
            if q in self.qs and quantum.mp7_in_range(q, d, v)
        ]

    def run(self, item):
        q, d, variant = item
        return _qmds().quantum.theorem_mp7(q, d, variant)

    def output(self, item, record):
        return [
            record.ancestor["family"],
            record.n,
            record.k,
            record.d,
            "exact" if record.d_is_exact else "lower-bound",
            record.ancestor["certification"],
        ]


class Sweep(Workload):
    name = "sweep"
    qs = SWEEP_QS
    stress = (("linalg.self_frac", "grs.self_frac"), 0.85)

    def record_items(self):
        return _grs_tuples(self.qs)[::SWEEP_STRIDE]

    def run(self, item):
        return _qmds().quantum.quantum_mds_from_self_orthogonal(_grs_code(*item))

    def output(self, item, record):
        family, q, a, m, _ = item
        return [family, q, a, m, record.n, record.k, record.d]


class Certify(Workload):
    name = "certify"
    qs = (3, 5, 7)
    stress = (("verify.floor_frac",), 0.75)

    # the two files whose verify alone takes 6-10 s: with them, a pass
    # would fill a whole run
    DROPPED = (
        ["--family", "extended", "--q", "5", "--k", "5"],
        ["--family", "mp7", "--q", "5", "--d", "5", "--variant", "2"],
    )

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def record_items(self):
        items = [
            ["--family", family, "--q", str(q), "--a", str(a), "--d", str(d)]
            for family, q, a, _, d in _grs_tuples((3, 5, 7))
        ]
        for q in (3, 5):
            items += [["--family", "full-field", "--q", str(q), "--k", str(k)] for k in range(1, q)]
            items += [["--family", "extended", "--q", str(q), "--k", str(k)] for k in range(1, q + 1)]
        for q, d, v in Table1(self.workdir).record_items():
            if q <= 5:
                items.append(["--family", "mp7", "--q", str(q), "--d", str(d), "--variant", str(v)])
        return [item for item in items if item not in self.DROPPED]

    def item_id(self, item):
        return " ".join(item[1::2])

    def run(self, item):
        main = _qmds().cli.main
        self._count += 1
        path = str(self.workdir / f"code{self._count}.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            built = main(["construct", *item, "--out", path])
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(out):
            verified = main(["verify", "--in", path, "--check", "all"])
        return path, built, verified, report.getvalue()

    def output(self, item, raw):
        path, built, verified, report = raw
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        checks = [[c["name"], c["verdict"], c["method"]] for c in json.loads(report)["checks"]]
        return {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "construct_exit": built,
            "verify_exit": verified,
            "checks": checks,
        }

    def close(self):
        with contextlib.suppress(OSError):
            for leftover in self.workdir.iterdir():
                leftover.unlink()
            self.workdir.rmdir()


class Enumerate(Workload):
    name = "enumerate"
    qs = (3, 5, 7, 9, 11, 13)
    stress = (("verify.enum_frac",), 0.90)

    def record_items(self):
        return [t for t in _grs_tuples(self.qs) if t[1] ** (2 * (t[4] - 1)) <= ENUM_MAX_MESSAGES]

    def run(self, item):
        code = _grs_code(*item)
        return code.n, code.k, _qmds().verify.min_distance_exact(code, cap=ENUM_CAP, workers=1)

    def output(self, item, raw):
        n, k, d = raw
        # the GRS codes are MDS, so the enumerated distance must be n - k + 1
        return [n, k, d, d == n - k + 1]


CLASSES = {"table1": Table1, "sweep": Sweep, "certify": Certify, "enumerate": Enumerate}
NAMES = tuple(CLASSES)
