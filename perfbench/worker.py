"""One benchmark process: set up a workload, then time ``run_pipeline``.

Started by run.py from the root of the checkout under test, whose ``src``
directory supplies ``mpcsyn``:

    python3 perfbench/worker.py WORKLOAD SEED DEADLINE TRACE INDEX

It prints ``ready`` on stdout just before its first ``run_pipeline`` call,
so the parent can time set-up from process start, and ends with one line
``result <json>``. DEADLINE is a ``time.monotonic()`` reading: the worker
keeps calling ``run_pipeline`` on the same inputs while another call is
predicted to end before it, making at least one call (two when tracing).
With DEADLINE ``setup`` it stops after set-up and makes no call.

Every call is checked outside the timed region: exactly n in-domain rows,
and on an ``mpc`` workload the ``cdp`` oracle on the same inputs and seed
must reveal the same measurements and produce the same rows. The parent
also requires every call's transcript counts and rows to equal the first
call's. With TRACE=1 the calls alternate untraced and traced, starting
untraced; worker 0 without tracing also averages workload_error over the
workload's further pipeline seeds on the oracle.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"


def fingerprint(synth, summary) -> str:
    """Hash of the synthetic rows and the transcript's exact counts."""
    h = hashlib.sha256()
    h.update(repr(synth.rows.shape).encode())
    h.update(synth.rows.tobytes())
    counts = {k: summary[k] for k in ("rounds", "bytes", "messages")}
    counts["counters"] = summary["counters"]
    h.update(json.dumps(counts, sort_keys=True).encode())
    return h.hexdigest()


def revealed(log) -> list:
    return [(r["selected_query"], r["measurement"]["values"])
            for r in log["rounds"]]


def check_output(inputs, synth, log, synthesize) -> list[str]:
    """Problems with one call's output; empty when it passes."""
    problems = []
    ds = inputs.dataset
    rows = synth.rows
    if rows.shape != ds.rows.shape:
        problems.append(f"synthetic rows have shape {rows.shape}, "
                        f"expected {ds.rows.shape}")
    else:
        cards = ds.schema.cardinalities
        if rows.size and ((rows < 0).any() or (rows >= cards).any()):
            problems.append("synthetic rows fall outside the domain")
    if inputs.spec.backend == "mpc":
        o_synth, o_log = synthesize(inputs, inputs.seeds[0], backend="cdp")
        if revealed(o_log) != revealed(log):
            problems.append("revealed measurements differ from the cdp oracle")
        if (o_synth.rows.shape != rows.shape
                or not (o_synth.rows == rows).all()):
            problems.append("synthetic rows differ from the cdp oracle")
    return problems


def main(argv) -> int:
    name, seed, trace, index = argv[0], int(argv[1]), argv[3] == "1", \
        int(argv[4])
    probe = argv[2] == "setup"
    deadline = 0.0 if probe else float(argv[2])
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import mpcsyn
    from mpcsyn import dataio, pipeline  # noqa: F401  (loads every layer)

    if Path(mpcsyn.__file__).resolve().parent != (src / "mpcsyn").resolve():
        print(f"mpcsyn imported from {mpcsyn.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import metrics
    import workloads
    from layertrace import Tracer, layer_totals

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    inputs = workloads.prepare(name, seed)
    if tracer:
        tracer.remove()
    synthesize = workloads.synthesize
    print("ready", flush=True)
    if probe:
        print("result " + json.dumps({"calls": []}), flush=True)
        return 0

    min_calls = 2 if trace else 1
    calls, summaries = [], {}
    while True:
        traced = trace and len(calls) % 2 == 1
        if traced:
            tracer.run_id = len(calls)
            tracer.install()
        started = time.perf_counter()
        call = {"traced": traced, "problems": []}
        try:
            t0 = time.perf_counter()
            synth, log = synthesize(inputs, inputs.seeds[0])
            call["gen_s"] = time.perf_counter() - t0
            call["error"] = dataio.workload_error(
                inputs.dataset, synth, inputs.workload).workload_error
            if tracer and tracer.installed:
                tracer.remove()
            summary = log["transcript_summary"]
            call["fingerprint"] = fingerprint(synth, summary)
            call["net"] = {k: summary[k]
                           for k in ("rounds", "bytes", "messages")}
            if traced:
                summaries[tracer.run_id] = summary
            call["problems"] = check_output(inputs, synth, log, synthesize)
        except Exception:  # a failing call is counted, not fatal
            traceback.print_exc()
            call["problems"].append("raised " + traceback.format_exc(
                limit=1).strip().splitlines()[-1])
        finally:
            if tracer and tracer.installed:
                tracer.remove()
        calls.append(call)
        last = time.perf_counter() - started
        if len(calls) >= min_calls and time.monotonic() + last > deadline:
            break

    result = {"calls": calls,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if not trace and index == 0:
        sweep, failures = [], 0
        for s in inputs.seeds[1:]:
            try:
                synth, _ = synthesize(inputs, s, backend="cdp")
                sweep.append(dataio.workload_error(
                    inputs.dataset, synth, inputs.workload).workload_error)
            except Exception:
                traceback.print_exc()
                failures += 1
        result["sweep_errors"] = sweep
        result["sweep_failures"] = failures
    if tracer:
        setup = layer_totals(tracer.spans, "setup")
        result["inputs_s"] = setup["dataio.inputs"]["self_s"]
        result["layers"] = []
        for run_id, summary in summaries.items():
            gen_s = calls[run_id]["gen_s"]
            result["layers"].append(metrics.iteration_layers(
                layer_totals(tracer.spans, run_id), summary, gen_s))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{name}.w{index}.spans.csv.gz")
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
