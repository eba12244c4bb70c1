"""Compare a parent and a change checkout with identical benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]
        [--workload NAME ...] [--first-seed N]

Runs this directory's run.py, untraced, from the root of each checkout, so
both sides measure their own ``src/mpcsyn`` with the same benchmark code
and settings, including the run length from BENCHMARK.json. Pair i uses
seed first_seed + i on both sides, and the side that runs first alternates
from pair to pair. Every run is reported as it
ends (on stderr), then one row per workload and metric:

- gain: the change is better in at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's IQR;
- unresolved: either side's IQR, as a share of its median, exceeds the
  metric's bound, unless every change run beats every parent run;
- regression: the change's median is worse than the parent's by more than
  the bound from BENCHMARK.json;
- no regression: otherwise.

A workload on which the change's failed_frac (failed over attempted
calls, a run without a result counting as one failed call) is higher than
the parent's is flagged. The exit code is 1 when any row is a regression or a workload
failed more, else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import quartiles  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Apply the comparison rule to paired values of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    gap = sign * (p_med - c_med)  # > 0 when the change is better

    def spread(q1, med, q3):
        return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1
                                                 else float("inf"))

    best_parent = min(sign * p for p in parent)
    all_better = all(sign * c < best_parent for c in change)
    if pairs and wins >= 0.9 * pairs and gap > 0 and gap > p_q3 - p_q1:
        result = "gain"
    elif (max(spread(p_q1, p_med, p_q3), spread(c_q1, c_med, c_q3)) > bound
          and not all_better):
        result = "unresolved"
    elif -gap > bound * abs(p_med):
        result = "regression"
    else:
        result = "no regression"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": pairs, "verdict": result}


def run_side(root: Path, workload: str, seed: int, seconds: float):
    """One untraced benchmark run in ``root``; the result object or None."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True,
                   help="root of the parent checkout")
    p.add_argument("--change", type=Path, required=True,
                   help="root of the change checkout")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("at least ten pairs are needed to claim anything")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload or names

    runs = {(w, s): [] for w in workloads for s in sides}
    failed = {(w, s): 0 for w in workloads for s in sides}
    attempted = {(w, s): 0 for w in workloads for s in sides}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            results = {}
            for side in order:
                res = run_side(sides[side], w, seed, bench["run_seconds"])
                print(f"pair {i} seed {seed} {w} {side}: "
                      f"{json.dumps(res)}", file=sys.stderr, flush=True)
                results[side] = res
            for side, r in results.items():
                failed[w, side] += 1 if r is None else r["failed"]
                attempted[w, side] += 1 if r is None else r["attempted"]
            if any(r is None for r in results.values()):
                continue
            for side, r in results.items():
                runs[w, side].append(r["metrics"])

    bad = False
    print(f"{'workload':<20} {'metric':<16} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            par = [r[m["name"]]["value"] for r in runs[w, "parent"]]
            chg = [r[m["name"]]["value"] for r in runs[w, "change"]]
            if not par:
                print(f"{w:<20} {m['name']:<16} no paired runs completed")
                bad = True
                continue
            v = verdict(par, chg, m["better"], m["bound"])
            cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*v[k])
                     for k in ("parent", "change")]
            print(f"{w:<20} {m['name']:<16} {cells[0]:<34} {cells[1]:<34} "
                  f"{v['wins']}/{v['pairs']:<5} {v['verdict']}")
            bad |= v["verdict"] == "regression"
        frac = {s: failed[w, s] / attempted[w, s] for s in sides}
        if frac["change"] > frac["parent"]:
            print(f"{w:<20} failed_frac: parent {frac['parent']:.4f}, "
                  f"change {frac['change']:.4f}  WORSE")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
