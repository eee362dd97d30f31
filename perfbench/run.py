"""Benchmark for the qmds library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck [--workload NAME] [--seed N]
    python3 perfbench/run.py --record

Run from the root of a source tree; qmds is imported from ./src.

A run is one closed loop (one client, one item after the previous returns,
workers=1) over the workload's fixed item list.  It repeats whole passes
over the list, each in an order shuffled from the seed, while the next pass
is expected to end within --seconds, and at least three times.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json.  Times are in
reference seconds: each is divided by the time of a fixed kernel run right
around it, which cancels most of the host's own changes of speed (see
hostspeed.py).  The plain seconds are in the detail line.

  setup_s      median over fresh interpreters of the time to import qmds and
               build the field of every q the workload uses
  wall_s       median over the passes of the time spent in the items
  item_p50_s   median over the items of each item's median time
  item_tail_s  the same per-item times at the highest percentile with at
               least ten items beyond it (the maximum when there are fewer
               than eleven items)
  peak_rss_mb  ru_maxrss of the run's process

With --trace 1 it sets up and runs one pass with every layer wrapped (see
tracer.py), then one pass without, and prints the per-layer metrics.  It
writes every span recorded to .perfbench_spans-<workload>.jsonl at the root
of the tree, one JSON object a line, when the run ends.  Every
item's output is compared with reference/<workload>.json; an item that
raises or differs counts as failed and makes the run exit 1.  The last line
of standard output is the result as one JSON object; the line before it,
starting with "detail ", holds sample counts, the environment and a digest
of all outputs.

--workload all runs every workload in its own interpreter, one at a time,
and prints a table.  --selfcheck makes three traced runs per workload (seed
N twice, then N+1) and checks that outputs and deterministic counts repeat
exactly and that the workload's layer takes its share of the time.
--record rewrites the reference files from the library in ./src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_SAMPLES = 7
MIN_PASSES = 3
# traced runs are checked against each other on these: every count, and the
# repeat ratios (which are given beside their base counts)
DETERMINISTIC = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + [
    m["name"] for m in SPEC["per_layer"] if m["name"].endswith("_repeat_frac")
]

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qmds, qmds.cli
for q in sys.argv[3:]:
    qmds.field_for_q(int(q))
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import hostspeed
print(elapsed, hostspeed.reference_setup(elapsed))
"""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def measure_setup(qs) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, so that no import is cached, in
    seconds and in reference seconds."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE), *map(str, qs)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    plain, reference = map(float, done.stdout.split())
    return plain, reference


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """One pass loop over a workload's items, with its outputs and failures."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.items = workload.reference()
        self.rng = random.Random(seed)
        self.times: dict[str, list[float]] = defaultdict(list)
        self.outputs: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> float:
        """Run every item once, in a fresh order, so that no item always
        follows the same one; return the time spent in the items.

        Untraced, each item's time in reference seconds is kept in
        self.times.
        """
        wl = self.workload
        self.rng.shuffle(self.items)
        clock = hostspeed.ItemClock(read_kernel=tracer is None)
        total = 0.0
        for item_id, item, expected in self.items:
            if tracer is not None:
                tracer.item = item_id
            # start from a collected heap, so that collecting what earlier
            # items left behind does not land in this item's time
            gc.collect()
            clock.start()
            try:
                raw, got = wl.run(item), None
            except Exception:
                raw, got = None, traceback.format_exc()
            elapsed, reference = clock.stop()
            if got is None:
                try:
                    got = json.loads(json.dumps(wl.output(item, raw)))
                except Exception:
                    got = traceback.format_exc()
            total += elapsed
            if reference is not None:
                self.times[item_id].append(reference)
            self.attempted += 1
            if got != expected:
                self.failed += 1
                print(f"item {item_id!r}: expected {expected!r}, got {got!r}", file=sys.stderr)
            self.outputs[item_id] = got
        if tracer is not None:
            tracer.item = None
        return total

    def outputs_digest(self) -> str:
        blob = json.dumps(self.outputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def set_up(qs) -> None:
    import qmds

    for q in qs:
        qmds.field_for_q(q)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    qs = run.workload.qs
    set_up(qs)
    setup, plain_setup, passes, plain_passes = [], [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(plain_passes) <= seconds
    ):
        plain, reference = measure_setup(qs)
        plain_setup.append(plain)
        setup.append(reference)
        done = len(passes)
        plain_passes.append(run.one_pass())
        passes.append(sum(t[done] for t in run.times.values()))
    while len(setup) < SETUP_SAMPLES:
        plain, reference = measure_setup(qs)
        plain_setup.append(plain)
        setup.append(reference)
    per_item = [statistics.median(t) for t in run.times.values()]
    tail_s, tail_pct = tail(per_item)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "samples": {
            "setup_s": len(setup),
            "wall_s": len(passes),
            "item_p50_s": len(per_item),
            "item_tail_s": len(per_item),
            "peak_rss_mb": 1,
        },
        "item_tail_percentile": round(tail_pct, 2),
        # the passes and set-ups in plain seconds, before the host-speed
        # correction
        "plain_passes_s": plain_passes,
        "plain_setup_s": plain_setup,
    }
    return metrics, detail


def measure_traced(run: Run, spans_path: Path) -> tuple[dict, dict]:
    import qmds.cli  # noqa: F401  (the tracer wraps modules that are already loaded)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.item = "setup"
        set_up(run.workload.qs)
        traced_setup = time.perf_counter() - start
        traced_pass = run.one_pass(tracer)
    finally:
        tracer.uninstall()
    bytes_written = sum(
        out.get("bytes", 0) for out in run.outputs.values() if isinstance(out, dict)
    )
    untraced_pass = run.one_pass()
    tracer.write_spans(spans_path)
    # the time spent in the library: set-up and the items, without the
    # collections and output checks between items
    traced_wall = traced_setup + traced_pass
    metrics = tracer.metrics(traced_wall)
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    metrics.update({
        "cli.bytes_written": bytes_written,
        "run.cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_pass - untraced_pass,
    })
    detail = {"traced_pass_s": traced_pass, "untraced_pass_s": untraced_pass}
    return metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    env = environment()
    wl = workloads.CLASSES[name](ROOT / f".perfbench_work-{os.getpid()}")
    try:
        run = Run(wl, seed)
        if trace:
            metrics, detail = measure_traced(run, ROOT / f".perfbench_spans-{name}.jsonl")
        else:
            metrics, detail = measure(run, seconds)
    finally:
        wl.close()
    listed = SPEC["per_layer" if trace else "end_to_end"]
    detail.update({
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "items": len(run.items),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "outputs_sha256": run.outputs_digest(),
    })
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def child_run(name: str, seed: int, seconds: float, trace: bool) -> tuple[int, dict, dict]:
    """Run one workload in a fresh interpreter; (exit code, detail, result)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = done.stdout.splitlines()
    try:
        detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), {})
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        detail, result = {}, {}
    return done.returncode, detail, result


def run_all(seed: int, seconds: float) -> int:
    import workloads

    status = 0
    print(f"{'workload':<10} {'metric':<12} {'value':>12} {'unit':<6} samples")
    for name in workloads.NAMES:
        code, detail, result = child_run(name, seed, seconds, trace=False)
        status = status or code
        for metric, m in result.get("metrics", {}).items():
            n = detail["samples"][metric]
            note = f"  p{detail['item_tail_percentile']}" if metric == "item_tail_s" else ""
            print(f"{name:<10} {metric:<12} {m['value']:>12.6g} {m['unit']:<6} {n}{note}")
        if detail:
            print(f"{name:<10} {'failed_frac':<12} {detail['failed_frac']:>12.6g} {'':<6} "
                  f"{detail['attempted']}  ({detail['failed']} failed)")
            print(f"{name:<10} env {json.dumps(detail['env'])}")
        else:
            print(f"{name:<10} no result (exit {code})")
    return status


def selfcheck(names, seed: int) -> int:
    import workloads

    problems = []
    for name in names:
        runs = [child_run(name, s, 0, trace=True) for s in (seed, seed, seed + 1)]
        for code, _, _ in runs:
            if code != 0:
                problems.append(f"{name}: a traced run exited {code}")
        if any(code != 0 for code, _, _ in runs):
            continue
        values = [{k: v["value"] for k, v in r["metrics"].items()} for _, _, r in runs]
        for metric in DETERMINISTIC:
            seen = [v[metric] for v in values]
            if len(set(seen)) != 1:
                problems.append(f"{name}: {metric} differs across runs: {seen}")
        digests = {d["outputs_sha256"] for _, d, _ in runs}
        if len(digests) != 1:
            problems.append(f"{name}: outputs differ across seeds")
        shares, least = workloads.CLASSES[name].stress
        share = sum(values[0][m] for m in shares)
        verdict = "ok" if share >= least else "LOW"
        if share < least:
            problems.append(f"{name}: {'+'.join(shares)} = {share:.3f} < {least}")
        counts = ", ".join(f"{m}={values[0][m]:g}" for m in DETERMINISTIC if values[0][m])
        print(f"{name}: {'+'.join(shares)} = {share:.3f} (>= {least}: {verdict}); {counts}")
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record() -> int:
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        wl = workloads.CLASSES[name](ROOT / f".perfbench_work-{os.getpid()}")
        try:
            entries = [
                [wl.item_id(item), item, json.loads(json.dumps(wl.output(item, wl.run(item))))]
                for item in wl.record_items()
            ]
        finally:
            wl.close()
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"items": entries}, indent=1) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(entries)} items")
    return 0


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qmds" / "__init__.py").is_file():
        print(f"no qmds package under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record()
    if args.selfcheck:
        names = workloads.NAMES if args.workload in (None, "all") else [args.workload]
        return selfcheck(names, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
