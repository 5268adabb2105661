"""One benchmark process: set up, then (unless ``--setup-only``) measure.

Started by ``run.py``, which passes the monotonic clock reading taken just
before it started this process (``--t0``), so ``setup_s`` covers
interpreter start, ``import shearwave``, input generation and one untimed
warm-up operation.  The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

#: The measuring loop stops at the first round boundary after this many
#: times ``--seconds``, so a slow machine or program cannot overrun the
#: run's time limit; on the reference machine the plan ends well before.
LOOP_CAP = 2.0


class Tally:
    """Outcomes of the operations of one segment."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds = collections.Counter()
        self.wrong_examples: list[str] = []
        self.ok_times: list[float] = []
        self.total_s = 0.0
        #: key -> times of every execution, kept for the run record.
        self.by_key: dict[str, list[float]] = collections.defaultdict(list)

    def ops_per_s(self):
        """Successful operations per second of operation time."""
        return len(self.ok_times) / self.total_s if self.total_s else 0.0


def run_op(wl, op, tally, digests, workloads):
    """Execute (timed) and check (untimed) one operation."""
    wl.prepare(op)
    t0 = time.perf_counter()
    try:
        result = wl.execute(op)
    except Exception as exc:
        elapsed = time.perf_counter() - t0
        kind = getattr(exc, "kind", type(exc).__name__)
        outcome = f"error:{kind}".encode()
        result = None
    else:
        elapsed = time.perf_counter() - t0
        kind = None
    tally.attempted += 1
    tally.total_s += elapsed
    tally.by_key[op["key"]].append(elapsed)
    wrong = None
    if kind is None:
        try:
            outcome = wl.check(op, result)
        except workloads.WrongAnswer as exc:
            wrong = str(exc)
        except Exception as exc:  # a missing or unparsable artifact
            wrong = f"{type(exc).__name__}: {exc}"
    if wrong is None:
        digest = hashlib.sha256(outcome).hexdigest()
        if digests.setdefault(op["key"], digest) != digest:
            wrong = "output differs from an earlier repetition"
    if wrong is not None:
        kind = "WrongAnswer"
        tally.wrong += 1
        if len(tally.wrong_examples) < 5:
            tally.wrong_examples.append(f"{op['key']}: {wrong}")
    if kind is not None:
        tally.failed += 1
        tally.kinds[kind] += 1
    else:
        tally.ok_times.append(elapsed)


def run_plan(wl, ops, seconds, run_one):
    """Closed loop, one client: each operation starts when the last ends.

    Garbage is collected (untimed) at each round boundary, so collection
    pauses do not depend on what ran before.  Returns the number of
    operations run: whole rounds, fewer than planned only past ``LOOP_CAP``.
    """
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i % len(wl.ops) == 0:
            if i and time.perf_counter() - start > LOOP_CAP * seconds:
                return i
            gc.collect()
        run_one(op, i)
    return len(ops)


def tail_stat(times):
    """(value, percentile, rank): the highest order statistic with at
    least ten operations above it (the maximum below eleven samples)."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, rank


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    work = Path(args.work)

    warnings.simplefilter("ignore")
    import shearwave
    src = (root / "src").resolve()
    if src not in Path(shearwave.__file__).resolve().parents:
        print(f"shearwave imported from {shearwave.__file__}, outside {src}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    warm = Tally()
    run_op(wl, wl.warmup, warm, {}, workloads)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "warmup_failed": warm.failed,
              "warmup_kinds": dict(warm.kinds)}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    result.update({
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "shearwave_file": shearwave.__file__,
    })
    digests: dict[str, str] = {}
    tallies = []
    if not args.trace:
        plan = wl.plan(args.seconds)
        main_tally = Tally()
        t0 = time.perf_counter()
        done = run_plan(wl, plan, args.seconds,
                        lambda op, i: run_op(wl, op, main_tally, digests, workloads))
        result["loop_s"] = time.perf_counter() - t0
        tallies.append(main_tally)
        times = main_tally.ok_times
        if times:
            value, pct, rank = tail_stat(times)
            result.update({"op_s_p50": statistics.median(times), "op_s_tail": value,
                           "tail_percentile": pct, "tail_rank": rank})
        result.update({
            "planned_ops": len(plan), "timed_ops": done, "ok_ops": len(times),
            "peak_rss_mb": peak_rss_mb(children=args.workload == "cli-readme"),
            "ops_per_s": main_tally.ops_per_s(),
            "ops_ok_frac": len(times) / main_tally.attempted if main_tally.attempted else 0.0,
            "samples": dict(main_tally.by_key),
        })
    else:
        import tracing
        # Each operation runs twice below, so one round already repeats
        # every operation and the run takes about ``--seconds``.
        plan = wl.plan(args.seconds / 2.0, min_rounds=1)
        tracer = tracing.Tracer()
        span_dir = work / "spans"
        span_dir.mkdir(parents=True, exist_ok=True)
        in_process = args.workload != "cli-readme"

        def set_tracing(on):
            if not in_process:
                wl.trace_dir = span_dir if on else None
            elif on:
                tracer.install()
            else:
                tracer.uninstall()

        untraced, traced = Tally(), Tally()

        def run_pair(op, i):
            # Each operation runs untraced and traced, in alternating order,
            # so the overhead compares identical work in the same state.
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                set_tracing(on)
                try:
                    run_op(wl, op, traced if on else untraced, digests, workloads)
                finally:
                    set_tracing(False)

        done = run_plan(wl, plan, args.seconds, run_pair)
        result.update({"planned_ops": len(plan), "timed_ops": done})
        tallies += [untraced, traced]
        if in_process:
            spans = tracer.spans
        else:
            spans = tracing.merge_spans(
                json.loads(p.read_text()) for p in sorted(span_dir.glob("*.json")))
        spans_path = work / "spans.json"
        spans_path.write_text(json.dumps(spans))
        layers = tracing.layer_metrics(spans)
        if in_process:  # only cli-readme exercises the cli layer
            layers.update({name: (0.0, "s") for name in (
                "cli.interp_start_s", "cli.import_s", "cli.import_scipy_s",
                *(f"cli.main_s.{key}" for key, _ in workloads.README_COMMANDS))})
        else:
            layers.update(tracing.cli_probe(sys.executable, dict(os.environ),
                                            work / "probe", workloads.README_COMMANDS))
        a, b = untraced.ops_per_s(), traced.ops_per_s()
        layers["trace.ops_per_s_untraced"] = (a, "1/s")
        layers["trace.ops_per_s_traced"] = (b, "1/s")
        layers["trace.overhead_frac"] = ((a - b) / a if a else 0.0, "fraction")
        result["per_layer"] = layers
        result["spans_file"] = str(spans_path.relative_to(root))
        result["n_spans"] = len(spans)

    # Only the operations that ran: a run cut short by ``LOOP_CAP`` shows a
    # different input digest (and ``truncated``) from a complete one.
    result["inputs_sha256"] = workloads.inputs_sha256(plan[:done])
    result["n_inputs"] = len(wl.ops)
    result["truncated"] = done < len(plan)
    result["attempted"] = sum(t.attempted for t in tallies)
    result["failed"] = sum(t.failed for t in tallies)
    result["wrong"] = sum(t.wrong for t in tallies)
    kinds = collections.Counter()
    for t in tallies:
        kinds.update(t.kinds)
    result["failure_kinds"] = dict(sorted(kinds.items()))
    result["wrong_examples"] = [e for t in tallies for e in t.wrong_examples][:5]
    result["outputs_sha256"] = hashlib.sha256("\n".join(
        f"{op['key']} {digests.get(op['key'], 'missing')}" for op in wl.ops
    ).encode()).hexdigest()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
