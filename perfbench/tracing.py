"""Timing wrappers for the traced run, installed from the benchmark's files.

``Tracer.install`` replaces each public function below with a wrapper at every
place a gofevid module looks it up (its defining module, the modules that
import it, and the package namespace), and patches ``RandomStream.gen`` and
``CellData.__post_init__`` on their classes.  No file under ``src/`` changes;
``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, thread, amount]``.  Spans stay in
memory until the run ends.  The parent of a span is the innermost open span of
its thread; a span opened on a pool thread with nothing open there takes the
innermost open span of the thread that installed the tracer, which is blocked
waiting for the pool.  A span's self time is its duration minus the part of
that interval its children cover, so children running side by side on pool
threads are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

from gofevid.dist import RandomStream
from gofevid.pearson import CellData


def _size(value) -> int:
    return int(np.size(value))


def _arg(position: int, name: str):
    def get(args, kwargs):
        return kwargs[name] if name in kwargs else args[position]
    return get


# (defining module, function, span name, amount taken from (args, kwargs, result))
SPANS = (
    ("gofevid.dist", "sample_family", "dist.sample", lambda a, k, out: _size(out)),
    ("gofevid.dist", "sample_chisq", "dist.sample", lambda a, k, out: _size(out)),
    ("gofevid.dist", "chisq_cdf", "dist.chisq_cdf", lambda a, k, out: _size(_arg(0, "x")(a, k))),
    ("gofevid.dist", "chisq_quantile", "dist.chisq_quantile", None),
    ("gofevid.evidence", "lof_transform", "evidence.transform", lambda a, k, out: _size(_arg(0, "s")(a, k))),
    ("gofevid.evidence", "equiv_transform", "evidence.transform", lambda a, k, out: _size(_arg(0, "s")(a, k))),
    ("gofevid.evidence", "evidence_against", "evidence.transform", None),
    ("gofevid.evidence", "evidence_for_equivalence", "evidence.transform", None),
    ("gofevid.pearson", "pearson_stat", "pearson.pearson_stat", None),
    ("gofevid.pearson", "multinomial_power_mc", "pearson.power_mc", lambda a, k, out: out.reps),
    ("gofevid.pearson", "power_lack_of_fit", "pearson.power", None),
    ("gofevid.pearson", "power_equivalence", "pearson.power", None),
    ("gofevid.pearson", "equivalence_test", "pearson.power", None),
    ("gofevid.model_fit", "evidence_for_normality", "model_fit.normality", None),
    ("gofevid.model_fit", "evidence_for_poisson", "model_fit.poisson", None),
    ("gofevid.model_fit", "combine_cells_poisson", "model_fit.combine_cells", None),
    ("gofevid.model_fit", "poisson_mle", "model_fit.poisson_mle", None),
    ("gofevid.boundary", "euclid_d", "boundary", None),
    ("gofevid.boundary", "sup_M", "boundary", None),
    ("gofevid.boundary", "lambda0_uniform", "boundary", None),
    ("gofevid.boundary", "inradius", "boundary", None),
    ("gofevid.boundary", "least_divergent_point", "boundary", None),
    ("gofevid.boundary", "sample_size", "boundary", None),
    ("gofevid.boundary", "table2", "boundary", None),
    ("gofevid.divergence", "J_noncentral", "divergence.J_noncentral", None),
    ("gofevid.divergence", "chisq_density", "divergence.chisq_density", None),
    ("gofevid.sim", "run_scenario", "sim.run_scenario", lambda a, k, out: _arg(0, "config")(a, k).reps * len(out)),
    ("gofevid.cli", "main", "cli.main", lambda a, k, out: int(out != 0)),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._local.stack = self._main_stack = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        owner = stack or self._main_stack
        span = [name, time.perf_counter(), 0.0, owner[-1] if owner else None, threading.get_ident(), 0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._local.stack.pop()

    def _wrap(self, fn, name: str, amount):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = int(name == "cli.main")  # a cli.main that raises counts as a nonzero exit
                raise
            finally:
                self._close(span)
            if amount is not None:
                span[5] = amount(args, kwargs, out)
            return out
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "gofevid" or n.startswith("gofevid.")]
        for module_name, attr, name, amount in SPANS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, amount)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, traced)

        gen = RandomStream.gen.fget

        def traced_gen(stream):
            if stream._gen is not None:
                return stream._gen
            span = self._open("dist.gen")
            try:
                return gen(stream)
            finally:
                self._close(span)

        self._replace(RandomStream, "gen", property(traced_gen))
        self._replace(CellData, "__post_init__", self._wrap(CellData.__post_init__, "pearson.celldata", None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed amount and summed self time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append((span[1], span[2]))
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        t = totals.setdefault(span[0], {"count": 0, "amount": 0, "self_s": 0.0})
        t["count"] += 1
        t["amount"] += span[5]
        t["self_s"] += (span[2] - span[1]) - _covered(children.get(id(span), []))
    # chisq_cdf calls made by the quantile's root search
    totals["dist.chisq_quantile.cdf_calls"] = {
        "count": sum(1 for s in spans if s[0] == "dist.chisq_cdf" and s[3] is not None
                     and s[3][0] == "dist.chisq_quantile"), "amount": 0, "self_s": 0.0}
    return totals


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The span-derived per-layer metrics (see BENCHMARK.json ``per_layer``)."""
    t = span_totals(spans)

    def get(name: str, key: str) -> float:
        return t.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in ("dist.gen", "dist.sample", "dist.chisq_cdf", "dist.chisq_quantile", "evidence.transform",
                 "pearson.celldata", "pearson.pearson_stat", "pearson.power", "model_fit.normality",
                 "model_fit.poisson", "boundary", "divergence.J_noncentral", "divergence.chisq_density",
                 "cli.main"):
        m[f"{name}.count"] = get(name, "count")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("pearson.power_mc", "model_fit.combine_cells", "model_fit.poisson_mle", "sim.run_scenario"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["dist.sample.values"] = get("dist.sample", "amount")
    m["dist.values_per_gen"] = ratio(get("dist.sample", "amount"), get("dist.gen", "count"))
    m["dist.chisq_cdf.points"] = get("dist.chisq_cdf", "amount")
    m["dist.chisq_quantile.cdf_calls_per_call"] = ratio(get("dist.chisq_quantile.cdf_calls", "count"),
                                                        get("dist.chisq_quantile", "count"))
    m["evidence.transform.values"] = get("evidence.transform", "amount")
    m["pearson.power_mc.reps"] = get("pearson.power_mc", "amount")
    m["sim.units"] = get("sim.run_scenario", "amount")
    m["cli.main.nonzero_exits"] = get("cli.main", "amount")
    return m

