"""Command-line surface: generate synthetic data and score it.

Exit codes: 0 on success, 1 for user-correctable problems (bad flags,
unreadable files, inconsistent configuration), 2 for internal faults.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import dataio
from .marginals import Schema, Workload
from .pipeline import PrivacyBudget, run_pipeline

_NOISE = {
    "ih": "gaussian-irwin-hall",
    "bm": "gaussian-box-muller",
    "lap": "laplace-sign",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mpcsyn",
        description="differentially private synthetic tabular data over "
                    "secret-shared inputs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="run the select-measure-generate pipeline")
    g.add_argument("--data", required=True, help="input CSV")
    g.add_argument("--domain", required=True, help="domain JSON")
    g.add_argument("--workload", default="all-2way",
                   help="'all-2way' or a workload JSON path")
    g.add_argument("--epsilon", type=float, default=1.0)
    g.add_argument("--delta", type=float, default=1e-9)
    g.add_argument("--rounds", type=int, default=10)
    g.add_argument("--algo", choices=["aim", "mwem"], default="aim")
    g.add_argument("--noise", choices=sorted(_NOISE), default="bm")
    g.add_argument("--partition", default="central",
                   help="central | horizontal:N | vertical:N | mixed:FILE")
    g.add_argument("--backend", choices=["mpc", "cdp"], default="mpc")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="synthetic CSV destination")
    g.add_argument("--metrics", help="also write a metrics report JSON here")
    g.set_defaults(func=cmd_gen)

    m = sub.add_parser("metrics", help="workload error between two datasets")
    m.add_argument("--real", required=True)
    m.add_argument("--synth", required=True)
    m.add_argument("--domain", required=True)
    m.add_argument("--workload", default="all-2way")
    m.add_argument("--out", help="report JSON path (default: stdout)")
    m.set_defaults(func=cmd_metrics)

    return p


def _resolve_workload(arg: str, schema: Schema) -> Workload:
    if arg == "all-2way":
        return dataio.build_workload(schema)
    return dataio.load_workload(arg, schema)


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    ds = dataio.load_dataset(args.data, args.domain)
    wl = _resolve_workload(args.workload, ds.schema)
    canon, plan = dataio.partition(ds, args.partition, seed=args.seed)
    budget = PrivacyBudget(args.epsilon, args.delta, args.rounds)
    synth, log = run_pipeline(
        canon, plan, wl, budget, algo=args.algo.upper(),
        noise_kind=_NOISE[args.noise], backend=args.backend, seed=args.seed,
    )
    dataio.save_dataset(synth, args.out)
    if args.metrics:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command")}
        report = dataio.workload_error(
            canon, synth, wl,
            config=config, seed=args.seed,
            runtime_ms=(time.perf_counter() - t0) * 1000.0,
            transcript=log["transcript_summary"],
        )
        Path(args.metrics).write_text(
            json.dumps(report.to_json(), indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_metrics(args) -> int:
    schema, _ = dataio.load_domain(args.domain)
    real = dataio.load_dataset(args.real, args.domain)
    synth = dataio.load_dataset(args.synth, args.domain)
    wl = _resolve_workload(args.workload, schema)
    report = dataio.workload_error(real, synth, wl)
    text = json.dumps(report.to_json(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
