"""Benchmark command for cylmeasure.

    python3 bench/run.py --workload <cli_cold|verdict_sweep|numeric_hot>
                         --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the program is imported from
``src/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for what each figure means.

Load comes from one client, one operation at a time.  Every process the
benchmark starts runs with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_cold", "verdict_sweep", "numeric_hot")
SETUP_INTERPRETERS = 3
DEADLINE_S = 175  # a run must end within 180 s


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run bench/worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {args[:2]} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker {args[:2]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cylmeasure", "__init__.py")):
        print("bench/run.py: run it from the root of a cylmeasure checkout (no src/cylmeasure here)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    # compile the bytecode caches once, so no timed interpreter pays for it
    subprocess.run([sys.executable, "-c", "import cylmeasure.cli"], env=env, check=True, timeout=120)

    seed = str(args.seed)
    setup = [
        worker(["setup", args.workload, seed], env, DEADLINE_S - (time.perf_counter() - started))["setup_s"]
        for _ in range(SETUP_INTERPRETERS)
    ]
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{seed}.csv.gz")
    res = worker(
        ["run", args.workload, seed, str(args.seconds), str(args.trace), trace_path],
        env,
        DEADLINE_S - (time.perf_counter() - started),
    )
    for line in res["errors"]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    timing = res["timing"]
    print(
        f"{args.workload}: {res['attempted']} ops in {res['rounds']} rounds, {res['elapsed_s']:.1f} s; "
        f"failed {res['failed']}; setup {statistics.median(setup):.3f} s of {setup}; "
        f"op p50 {timing['p50']:.6g} s, p{timing['tail_pct']:g} {timing['tail']:.6g} s of {timing['n']}; "
        f"sustained op p50 {timing['p50_sustained']:.6g} s over {timing['windows']} windows"
        + (f"; {res['ops_per_s']:.6g} ops/s" if "ops_per_s" in res else ""),
        file=sys.stderr,
    )
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["per_layer"].items()}
        print(f"trace written to {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_sustained_s": {"value": timing["p50_sustained"], "unit": "s"},
            "op_tail_s": {"value": timing["tail"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
