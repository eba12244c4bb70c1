"""Benchmark for mpcsyn synthesis: one workload, one seed, one result line.

Run from the root of a checkout; the program under test is ``src/mpcsyn``
of the current directory:

    python3 perfbench/run.py --workload mpc-horizontal-bm --seed 1 \
        --seconds 24 --trace 0

A closed loop with one client: one synthesis at a time, from one process
with no extra threads. The run starts processes one after another, each of
which sets up the workload (import, input generation, partition, workload
build) and reports ready: first PROBES that stop there, then WORKERS that
go on to call ``run_pipeline``, worker i until i+1 WORKERS-ths of
``--seconds`` have passed since the run began. Set-up time is the median
over all of them and peak memory over the workers, so each workload is
measured in processes of its own.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it are a readable report. The exit code is 0 when every check passed, 1
when a check failed (the result line still prints), and 2 when nothing
could be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES = 6
WORKERS = 3
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within this
_SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    """Nothing could be measured."""


def _read_line(proc, sel, deadline: float) -> str:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not sel.select(timeout=remaining):
            raise BenchError("worker did not answer within the run limit")
        line = proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {proc.wait()}")
        if line.strip():
            return line.strip()


def run_worker(workload: str, seed: int, window, trace: bool, index: int,
               deadline: float) -> dict:
    """One worker process; returns its result with ``setup_s`` added.

    ``window`` is the ``time.monotonic()`` reading after which the worker
    starts no further call, or "setup" for a set-up-only probe.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(window), "1" if trace else "0", str(index)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **_SINGLE_THREAD})
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if _read_line(proc, sel, deadline) != "ready":
                raise BenchError("worker did not report ready")
            setup_s = time.perf_counter() - t0
            line = _read_line(proc, sel, deadline)
        if not line.startswith("result "):
            raise BenchError(f"unexpected worker output {line[:80]!r}")
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    result = json.loads(line[len("result "):])
    result["setup_s"] = setup_s
    return result


def summarize(setups: list[float], workers: list[dict], trace: bool):
    """(metrics, attempted, failed, report lines) from the set-up times of
    every process and the measuring workers' results.

    A call fails when it raised, failed a worker check, or its rows or
    transcript counts differ from the first call of the first worker.
    """
    calls = [c for r in workers for c in r["calls"]]
    reference = next((c.get("fingerprint") for c in calls
                      if "fingerprint" in c), None)
    for c in calls:
        if c.get("fingerprint") not in (None, reference):
            c["problems"].append("rows or transcript counts differ from "
                                 "the first call")
    sweep_failures = sum(r.get("sweep_failures", 0) for r in workers)
    attempted = len(calls) + sum(len(r.get("sweep_errors", ()))
                                 for r in workers) + sweep_failures
    failed = sum(1 for c in calls if c["problems"]) + sweep_failures
    ok = [c for c in calls if not c["problems"]]
    lines = [f"calls {len(calls)}, failed {failed} of {attempted} "
             f"attempted (failed_frac {failed / attempted:.4f})"]
    for c in calls:
        for p in c["problems"]:
            lines.append(f"  FAILED: {p}")

    def timing(label, values):
        q1, med, q3 = metrics.quartiles(values)
        p = metrics.tail_percentile(len(values))
        tail = (f", p{p:g} {metrics.percentile(values, p):.4f}" if p
                else "; no percentile above the median has 10 samples "
                     "beyond it")
        lines.append(f"{label:<16} median {med:.4f} s, IQR [{q1:.4f}, "
                     f"{q3:.4f}]{tail} (n={len(values)})")
        return med

    plain = [c["gen_s"] for c in ok if not c["traced"]]
    if not plain:
        return None, attempted, failed, lines
    out = {}
    if not trace:
        out["gen_s"] = timing("gen_s", plain)
        out["setup_s"] = timing("setup_s", setups)
        out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                               for r in workers)
        errors = [ok[0]["error"]] + [e for r in workers
                                     for e in r.get("sweep_errors", ())]
        out["workload_error"] = statistics.fmean(errors)
        out["ok_frac"] = (attempted - failed) / attempted
        lines.append(f"{'peak_rss_mb':<16} {out['peak_rss_mb']:.1f} MB "
                     f"(median of {len(workers)} processes)")
        lines.append(f"{'workload_error':<16} {out['workload_error']:.6f} "
                     f"(mean over {len(errors)} pipeline seeds)")
        lines.append(f"{'ok_frac':<16} {out['ok_frac']:.4f}")
        for key, value in ok[0]["net"].items():
            lines.append(f"{'net_' + key:<16} {value} "
                         f"{'B' if key == 'bytes' else 'count'}")
        return out, attempted, failed, lines
    traced = [c["gen_s"] for c in ok if c["traced"]]
    layers = [lay for r in workers for lay in r["layers"]]
    if not traced or not layers:
        return None, attempted, failed, lines
    out = {name: statistics.median(lay[name] for lay in layers)
           for name in layers[0]}
    out["dataio.inputs_s"] = statistics.median(r["inputs_s"] for r in workers)
    untraced_med = timing("gen_s untraced", plain)
    traced_med = timing("gen_s traced", traced)
    out["trace.overhead_s"] = traced_med - untraced_med
    for name, unit in metrics.PER_LAYER.items():
        lines.append(f"{name:<42} {out[name]:.6g} {unit}")
    return out, attempted, failed, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if not (Path.cwd() / "src" / "mpcsyn" / "__init__.py").is_file():
        print("error: run from the root of an mpcsyn checkout "
              "(no src/mpcsyn here)", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        probes = [run_worker(args.workload, args.seed, "setup", trace, i,
                             deadline) for i in range(PROBES)]
        start = time.monotonic()
        workers = [run_worker(args.workload, args.seed,
                              repr(start + args.seconds * (i + 1) / WORKERS),
                              trace, i, deadline) for i in range(WORKERS)]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    values, attempted, failed, lines = summarize(
        [r["setup_s"] for r in probes + workers], workers, trace)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if trace else 'untraced'}, {PROBES} set-up probes "
          f"and {WORKERS} workers")
    for line in lines:
        print("  " + line)
    if values is None:
        print("error: no call succeeded", file=sys.stderr)
        return 2
    names = metrics.PER_LAYER if trace else metrics.END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in names.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
