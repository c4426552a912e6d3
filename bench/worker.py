"""One benchmark worker process: set up one workload, run measured
iterations for a time budget, and print one JSON line with the result.

Started by run.py; run it by hand with the same arguments to debug:
    python3 bench/worker.py --workload fold --seed 42 --budget 5 --traced 0 --index 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Every worker limits its own address space. A fold worker peaks near
# 210 MiB of address space; the silhouette's [N, N, 2] float64 temporary for
# N ~ 13,700 windows asks for 2.8 GiB, so the allocation is refused before it
# touches memory and the run stays small on a shared host.
ADDRESS_SPACE_LIMIT = 2 << 30


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--traced", type=int, choices=(0, 1), required=True)
    p.add_argument("--index", type=int, default=0)
    args = p.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import charm
    if Path(charm.__file__).resolve().parent != ROOT / "src" / "charm":
        sys.exit(f"error: imported charm from {charm.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if args.traced:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS, Ledger, reference_rate

    def run_id(i):
        return f"{args.workload}/s{args.seed}/w{args.index}/i{i}"

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ledger)
        first_phase_at = time.monotonic()
        setup_rate = reference_rate()
        iterations = []
        start = time.perf_counter()
        while args.budget > 0:
            if tracer:
                tracer.run_id = run_id(len(iterations))
            ledger.start_iteration()
            it = workload.iterate()
            it["reference_rounds"] = ledger.rounds
            iterations.append(it)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(iterations) > args.budget:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "first_phase_at": first_phase_at,
        "setup_reference_rounds_per_s": setup_rate,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "iterations": iterations,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "checks": ledger.checks,
        "notes": {k: sorted(v) if isinstance(v, set) else v for k, v in ledger.notes.items()},
        "machine": machine(np),
    }
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, [run_id(i) for i in range(len(iterations))])
        tracer.write(WORK / "spans" / f"{args.workload}-w{args.index}.tsv")
    print(json.dumps(result))


def machine(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "address_space_limit_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


if __name__ == "__main__":
    main()
