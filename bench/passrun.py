"""One pass of one workload, in the interpreter that runs this file.

run.py starts a fresh interpreter per pass, so every pass starts with cold
in-process caches, as a command-line user's invocation does, and its peak
RSS is its own.  The pass record is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children
    (the search pool's workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(workload: str, seed: int, traced: bool, smoke: bool, pass_id: int) -> dict:
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, Checker, layer_metrics

    prepare, execute, check = WORKLOADS[workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        inp = prepare(SIZES[workload]["smoke" if smoke else "full"], seed, workdir)
        tr = Tracer(traced, pass_id)
        start = time.perf_counter()
        out = execute(inp, tr)
        end = time.perf_counter()
        rss = peak_rss_mb()
        tr.close(start, end)
        chk = Checker()
        counts = check(inp, out, chk)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "pass": pass_id,
        "traced": traced,
        "wall_s": end - start,
        "durations": tr.durations,
        "peak_rss_mb": rss,
        "attempted": chk.attempted,
        "failures": chk.failures,
        "counts": counts,
    }
    if traced:
        record["layers"] = layer_metrics(tr.spans, chk.oracle_s)
        record["spans"] = tr.spans
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    record = run_pass(args.workload, args.seed, bool(args.trace), args.smoke, args.pass_id)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
