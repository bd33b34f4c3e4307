"""Benchmark for hcramsey.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1 [--smoke]

Run from the repository root.  Runs passes of workload W, each in a fresh
interpreter, until T seconds are used, and samples fresh-interpreter
import time (setup_s) before each pass.  With --trace 0 no pass records
spans and the end-to-end metrics of BENCHMARK.json are printed; with
--trace 1 untraced and traced passes alternate, the per-layer metrics
come from the traced ones and trace.overhead_s is traced minus untraced
wall time.

The last line of standard output is the result object; the line before
it holds machine facts and count digests.  A full record, with every
span, goes to bench/out/.  --smoke selects small sizes for the tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run must end within 180 s; leave room for setup and reporting.
RUN_LIMIT_S = 165.0
SETUP_SAMPLES_PER_PASS = 5
TIMING_NOTE = (
    "unpinned: no CPU pinning, frequency control or cache control; "
    "other processes may share the machine"
)


def machine_facts() -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "timing": TIMING_NOTE,
    }


def facts(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
        **machine_facts(),
    }


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown: not a git checkout"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown: {ref}"


def import_seconds(workload: str) -> float:
    """Seconds to import hcramsey and the submodules the workload calls,
    in a fresh interpreter."""
    modules = "hcramsey, hcramsey.cli" if workload == "cnf_roundtrip" else "hcramsey"
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
        f"t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip())


def run_pass(args, traced: bool, pass_id: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "passrun.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--pass-id", str(pass_id),
    ]
    if args.smoke:
        cmd.append("--smoke")
    # Own session, so a pass that overruns, or outlives this process, is
    # killed together with its pool workers.
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_id} exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_passes(args, run_start: float) -> tuple[list[dict], list[float]]:
    """Passes until --seconds are used: a new pass starts only if at least
    half a pass of average length still fits.  With tracing, untraced and traced passes
    alternate and at least one of each runs.  Import-time samples are
    taken before every pass, so that a burst of machine noise cannot
    cover all of them; the first import, which writes the bytecode
    caches, is discarded."""
    modes = (False, True) if args.trace else (False,)
    import_seconds(args.workload)
    start = time.perf_counter()
    records, setup, durations = [], [], []
    while True:
        t = time.perf_counter()
        setup.extend(import_seconds(args.workload) for _ in range(SETUP_SAMPLES_PER_PASS))
        timeout = RUN_LIMIT_S - (time.perf_counter() - run_start)
        records.append(run_pass(args, modes[len(records) % len(modes)], len(records), timeout))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(records) >= len(modes) and elapsed + statistics.mean(durations) / 2 > args.seconds:
            return records, setup


def typical_pass_s(records: list[dict]) -> float:
    """One pass's wall time, as the sum over its calls of each call's
    median duration across passes, plus the median time between calls.
    Passes repeat the same calls in the same order; taking medians per
    call filters bursts of machine noise that a median of a few whole
    passes would not."""
    if len({len(r["durations"]) for r in records}) != 1:  # a failed call skipped others
        return statistics.median(r["wall_s"] for r in records)
    per_call = zip(*(r["durations"] for r in records))
    between = statistics.median(r["wall_s"] - sum(r["durations"]) for r in records)
    return sum(statistics.median(call) for call in per_call) + between


def count_drift(records: list[dict]) -> list[str]:
    """Passes whose seed-fixed and seeded counts differ from the first
    pass's: every count is deterministic, so any drift is a failure."""
    first = records[0]["counts"]
    return [f"pass {r['pass']}: counts differ from pass 0"
            for r in records[1:] if r["counts"] != first]


def summarize(setup: list[float], records: list[dict]) -> dict:
    from workloads import digest

    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    drift = count_drift(records)
    failures = [f for r in records for f in r["failures"]] + drift
    attempted = sum(r["attempted"] for r in records) + len(records) - 1
    wall_s = typical_pass_s(plain)
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "ok_frac": 1.0 - len(failures) / attempted,
    }
    per_layer = {}
    if traced:
        keys = set().union(*(r["layers"] for r in traced))
        per_layer = {k: statistics.median(r["layers"].get(k, 0.0) for r in traced) for k in keys}
        per_layer["trace.wall_s"] = typical_pass_s(traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - wall_s
    counts = records[0]["counts"]
    return {
        "attempted": attempted,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counts": counts,
        "fixed_counts_digest": digest(counts["fixed"]),
        "counts_digest": digest(counts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for the tests")
    args = ap.parse_args(argv)
    run_start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "hcramsey" / "__init__.py").is_file():
        print(f"hcramsey sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    records, setup = run_passes(args, run_start)
    summary = summarize(setup, records)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    if not args.trace and set(values) != set(metrics):
        raise SystemExit(f"end-to-end metrics {sorted(values)} do not match BENCHMARK.json")

    info = facts(args)
    OUT.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"facts": info, "metrics": metrics, "summary": summary,
                   "setup_samples": setup, "passes": records}, fh)
    print(json.dumps({
        "facts": info,
        "passes": len(records),
        "fixed_counts_digest": summary["fixed_counts_digest"],
        "counts_digest": summary["counts_digest"],
        "failures": summary["failures"][:20],
        "record": str(path.relative_to(ROOT)),
    }))
    print(json.dumps({
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": len(summary["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
