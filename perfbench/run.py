#!/usr/bin/env python3
"""shearwave benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

It measures the package in ``src/`` of the tree it sits in, without
installing it.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
is a separate run that prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; everything
about the run (tree identity, versions, input and output digests, failure
tally, raw samples) is also written to ``.perfbench_out/results/``.

Only the standard library is used here; the measuring happens in child
processes (``worker.py``) pinned to one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("cli-readme", "sweep", "orbits", "field-grid")

#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
#: The last one goes on to measure.
SETUP_REPS = 3

#: Whole-run budget; a run must finish well inside three minutes.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("ops_ok_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def tree_identity() -> dict:
    """Git commit when the tree is a checkout, plus a digest of ``src/``."""
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def run_worker(args, index, setup_only, run_dir, deadline) -> dict:
    result_path = run_dir / f"worker{index}.json"
    work = run_dir / f"work{index}"
    work.mkdir(parents=True)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--root", str(ROOT), "--work", str(work),
           "--result", str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout can stop the worker's children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {index} exceeded the {DEADLINE_S:.0f} s budget")
    except BaseException:  # interrupted: take the worker and its children down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so a stopped run stops its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "shearwave" / "__init__.py").is_file():
        print(f"no shearwave source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / "runs" / label
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    reps = 1 if args.trace else SETUP_REPS
    setups = []
    try:
        for i in range(reps):
            res = run_worker(args, i, i < reps - 1, run_dir, deadline)
            setups.append(res["setup_s"])
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    identity = tree_identity()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **identity, "setup_s_samples": setups, **res}
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["per_layer"].items()}
    else:
        res["setup_s"] = statistics.median(setups)
        missing = [name for name, _ in END_TO_END if name not in res]
        if missing:
            print(f"no successful operation, so no {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{label}.json"
    record_path.write_text(json.dumps(record, indent=2))

    kinds = ", ".join(f"{k} {v}" for k, v in res["failure_kinds"].items()) or "none"
    print(f"shearwave benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"tree: commit {identity['commit']}, src sha256 {identity['src_sha256']}")
    print(f"env: python {res['python']}, numpy {res['numpy']}, scipy {res['scipy']}, "
          f"nproc {res['nproc']}, one BLAS/OpenMP thread, one client, closed loop")
    print(f"inputs sha256 {res['inputs_sha256']} ({res['timed_ops']} operations run, "
          f"{res['n_inputs']} distinct)")
    if res["truncated"]:
        print(f"TRUNCATED: the loop passed its time cap and ran {res['timed_ops']} of "
              f"{res['planned_ops']} planned operations; compare only with runs that "
              f"ran as many")
    print(f"outputs sha256 {res['outputs_sha256']}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed "
          f"({kinds}), {res['wrong']} wrong")
    for example in res["wrong_examples"]:
        print(f"  wrong: {example}")
    if args.trace:
        print(f"tracing overhead: {res['per_layer']['trace.overhead_frac'][0]:.4f} "
              f"of untraced ops/s; {res['n_spans']} spans in {res['spans_file']}")
    else:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} (median reported)")
        print(f"timed loop: {res['timed_ops']} of {res['planned_ops']} planned operations "
              f"in {res['loop_s']:.1f} s wall")
        print(f"op_s_tail is p{res['tail_percentile']:.2f}: operation {res['tail_rank']} "
              f"of {res['ok_ops']} successful, sorted by time")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
