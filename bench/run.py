"""charm-har benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {fold,ingest} --seed N --seconds S --trace {0,1}

Run from a checkout's root (or anywhere: paths are taken from this file).
Each run starts WORKERS fresh worker processes one after another; each sets
the workload up, then runs measured iterations for S / WORKERS seconds (at
least one). SETUP_ONLY more workers only set up, for the set-up median.
With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of the traced workers (the first worker
stays untraced and gives the tracing overhead). Lines before it report the
machine, the checks and the workload's own figures. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, OVERHEAD_METRIC

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fold", "ingest")
WORKERS = 4      # workers that set up and then measure iterations
SETUP_ONLY = 3   # more workers that only set up, for the median of set-up time
WORKER_TIMEOUT_S = 60
BLAS_THREADS = 1
# Timings are reported in reference seconds: the time the work would take
# with the machine running the reference loop at this many rounds per second
# (its usual speed on the 2-vCPU VM the benchmark was built on).
REFERENCE_ROUNDS_PER_S = 400.0

# Figures a run prints besides the gated metrics.
FIGURE_UNITS = {
    "wall_items_per_s": "1/s", "reference_rounds_per_s": "1/s",
    "train_samples_per_s": "1/s", "mlp_train_samples_per_s": "1/s",
    "heldout_macro_f1": "ratio", "mlp_heldout_macro_f1": "ratio",
    "write_rows_per_s": "1/s", "load_rows_per_s": "1/s", "load_gappy_rows_per_s": "1/s",
    "embed_windows_per_s": "1/s", "silhouette_s": "s", "silhouette_failures": "count",
}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_worker(args, index, traced, budget, env):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", str(budget), "--traced", str(int(traced)),
           "--index", str(index)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {index} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_setup_s"] = result["first_phase_at"] - spawned_at
    result["setup_s"] = (result["wall_setup_s"] * result["setup_reference_rounds_per_s"]
                         / REFERENCE_ROUNDS_PER_S)
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # Turn a termination request into an exception, so that subprocess.run
    # kills the running worker and waits for it before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))

    if not (ROOT / "src" / "charm" / "__init__.py").is_file():
        sys.exit(f"error: no charm sources under {ROOT / 'src'}; "
                 "run the benchmark from a checkout of the repository")

    # One BLAS thread, never more than the CPUs: the model's matrices are
    # small, and on a shared 2-vCPU VM a second OpenBLAS thread made
    # quick-start step 4 about 8% slower and noisier. No bytecode cache: every
    # worker compiles the sources, so the first set-up of a run costs the same
    # as the others.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    budget = args.seconds / WORKERS
    workers = [run_worker(args, k, args.trace and k > 0, budget, env) for k in range(WORKERS)]
    setups = workers[:]
    if not args.trace:
        setups += [run_worker(args, WORKERS + k, False, 0, env) for k in range(SETUP_ONLY)]

    machine = {**workers[0]["machine"], "nproc": len(os.sched_getaffinity(0)), "git": git_commit()}
    print("machine: " + json.dumps(machine, sort_keys=True))

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    checks = {}
    for w in workers:
        for name, (ok, bad, detail) in w["checks"].items():
            entry = checks.setdefault(name, [0, 0, ""])
            entry[0] += ok
            entry[1] += bad
            entry[2] = entry[2] or detail
    for key in sorted({k for w in workers for k in w["notes"]}):
        values = [w["notes"][key] for w in workers if key in w["notes"]]
        if key.endswith("sha256"):
            digests = sorted({v for vs in values for v in vs})
            same = len(digests) == 1
            checks[f"{key}.same_in_every_worker"] = [int(same), int(not same), ""]
            attempted += 1
            failed += not same
            print(f"fingerprint {key}: {' '.join(digests)}")
        else:
            print(f"{key}: {json.dumps(values[0], sort_keys=True)}")
    for name, (ok, bad, detail) in sorted(checks.items()):
        print(f"check {name}: {ok} passed, {bad} failed {detail}".rstrip())
    correct = all(bad == 0 for _, bad, _ in checks.values())

    timed = [w for w in workers if "layers" not in w]
    iterations = [it for w in timed for it in w["iterations"]]
    for it in iterations:
        seconds = sum(it["phases"].values())
        it["figures"].update(wall_items_per_s=it["items"] / seconds,
                             reference_rounds_per_s=it["reference_rounds"] / seconds)
    print(f"figure wall_setup_s = {statistics.median(w['wall_setup_s'] for w in setups):.6g} s "
          f"(median of {len(setups)} set-ups)")
    for key, unit in FIGURE_UNITS.items():
        vals = [it["figures"][key] for it in iterations if key in it["figures"]]
        if vals:
            print(f"figure {key} = {statistics.median(vals):.6g} {unit} "
                  f"(median of {len(vals)} iterations)")

    if args.trace:
        metrics = layer_metrics(workers)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_s"] for w in setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(w["peak_rss_mib"] for w in workers),
                             "unit": "MiB"},
            "items_per_s": {"value": statistics.median(
                it["items"] / it["reference_rounds"] * REFERENCE_ROUNDS_PER_S
                for it in iterations), "unit": "1/s"},
        }
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def layer_metrics(workers):
    """Median over the traced workers of each per-layer metric, and the
    tracing overhead: the timed work of a traced iteration minus that of an
    untraced one (the first worker's), over the untraced, both in reference
    rounds so that the machine's changing speed cancels."""
    traced = [w["layers"] for w in workers if "layers" in w]
    out = {name: {"value": statistics.median(t[name]["value"] for t in traced), "unit": unit}
           for name, unit, *_ in LAYER_METRICS}
    rounds = [[it["reference_rounds"] for it in w["iterations"]] for w in workers]
    untraced = statistics.median(rounds[0])
    traced_rounds = statistics.median(x for w in rounds[1:] for x in w)
    name, unit, _ = OVERHEAD_METRIC
    out[name] = {"value": traced_rounds / untraced - 1.0, "unit": unit}
    return out


if __name__ == "__main__":
    main()
