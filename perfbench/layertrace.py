"""Outside-in layer tracing: spans recorded around calls into each module.

The program is not edited. ``Tracer.install`` replaces each traced public
function with a wrapper that records a span (name, start, end, parent, run
id) and rebinds it everywhere the original is bound: on its class for
methods, and under every ``mpcsyn`` module name bound to it for functions
(``pipeline``, ``mechanisms`` and ``marginals`` each import primitives by
name). ``Tracer.remove`` puts the originals back. Containers that captured
a function before installation, such as ``primitives._ELEM``, keep the
original; none of them is on the ``run_pipeline`` path.

Spans live in memory and are written out once, at the end of a process.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

import numpy as np


def _broadcast_elems(args):
    x, y = args[1], args[2]
    return int(np.prod(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64))


def _first_size(args):
    return int(args[1].size)


_PLAIN_OPS = ("share", "const_vec", "open", "add", "mul_const_int", "mul",
              "_mul_raw", "trunc", "_layout", "_xor3", "assemble")

# (module, attribute, span name, element counter or None)
TARGETS = (
    [("rss", "Mpc3Engine.mul", "rss.mul", _broadcast_elems),
     ("rss", "Mpc3Engine._mul_raw", "rss.mul", _broadcast_elems),
     ("rss", "Mpc3Engine.borrow_taps", "rss.borrow_taps", None),
     ("rss", "Mpc3Engine.masked_open", "rss.masked_open", _first_size),
     ("rss", "Mpc3Engine.trunc", "rss.trunc", None),
     ("rss", "Mpc3Engine.open", "rss.open", None),
     ("rss", "Mpc3Engine.share", "rss.share", None)]
    + [("rss", f"PlainEngine.{op}", "rss.plain", None) for op in _PLAIN_OPS]
    + [("primitives", fn, f"primitives.{fn}", None)
       for fn in ("sec_eq", "sec_cmp", "sec_max", "sec_exp", "sec_ln",
                  "sec_sqrt", "sec_sin_cos")]
    + [("marginals", fn, f"marginals.{fn}", None)
       for fn in ("compute_workload_answers", "p_way_marginal",
                  "local_compute", "pi_join")]
    + [("mechanisms", fn, f"mechanisms.{fn}", None)
       for fn in ("pi_measure", "sample_noise", "pi_rc")]
    + [("pipeline", "select_mwem", "pipeline.select", None),
       ("pipeline", "select_aim", "pipeline.select", None),
       ("pipeline", "mw_update", "pipeline.mw_update", None),
       ("pipeline", "JointDistribution.marginal", "pipeline.model_marginal",
        None),
       ("pipeline", "sample_synthetic", "pipeline.sample_synthetic", None),
       ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
       ("dataio", "make_toy_dataset", "dataio.inputs", None),
       ("dataio", "partition", "dataio.inputs", None),
       ("dataio", "build_workload", "dataio.inputs", None),
       ("dataio", "workload_error", "dataio.workload_error", None)]
)


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, run id, elements)
        self.spans: list[tuple] = []
        self.run_id = "setup"
        self._stack: list[int] = []
        self._undo: list = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _wrap(self, fn, name: str, elems):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            n = elems(args) if elems is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, n)

        return traced

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items()
                   if key == "mpcsyn" or key.startswith("mpcsyn.")]
        for mod_name, attr, name, elems in TARGETS:
            mod = sys.modules[f"mpcsyn.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, elems))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name, elems)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def remove(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV, one line each, times in nanoseconds."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,run,elems\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ())):
            if b <= reach:
                continue
            covered += b - max(a, reach)
            reach = b
        out.append(end - start - covered)
    return out


def layer_totals(spans, run_id) -> dict:
    """Per span name, for one run: self seconds, inclusive seconds of
    outermost calls, call count and element count."""
    selfs = self_times(spans)
    tot = defaultdict(lambda: {"self_s": 0.0, "incl_s": 0.0, "calls": 0,
                               "elems": 0})
    for i, s in enumerate(spans):
        name, start, end, parent, run, elems = s
        if run != run_id:
            continue
        t = tot[name]
        t["self_s"] += selfs[i] / 1e9
        t["calls"] += 1
        t["elems"] += elems
        # inclusive time counts each outermost span of a name once, so a
        # recursive or re-entrant call is not double counted
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["incl_s"] += (end - start) / 1e9
    return tot
