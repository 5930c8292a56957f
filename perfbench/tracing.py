"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces public functions at the module (or class) attributes
their callers look up at call time, records one span per call (name,
start, end, parent span, operation id, thread, attributes) in memory and
puts every original back on ``uninstall``.  Nothing under ``src/`` knows
about it.

Spans are only recorded while an operation is open (``op_id`` set), so
correctness checks that run between operations call through the wrappers
without adding spans.  A span opened on a worker thread with nothing open
on that thread takes as parent the innermost span open on the main thread,
which is the call that started the workers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


def _call(call, args, kwargs):
    return call(*args, **kwargs), None


class Tracer:
    """In-memory span recorder that wraps attributes and restores them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._installed: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, func, measure=_call):
        """A stand-in for ``func`` that records a span called ``name``.

        ``measure(func, args, kwargs)`` makes the call and returns
        ``(result, attrs)``; it may substitute arguments or the result.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            op = self.op_id
            if op is None:
                return func(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            attrs = None
            start = time.perf_counter()
            try:
                result, attrs = measure(func, args, kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, op, threading.get_ident(), attrs)
                )
            return result

        return wrapper

    def open_op(self, op_id: int, kind: str):
        """Open the root span of one benchmark operation; returns its token."""
        self.op_id = op_id
        sid = next(self._ids)
        self._main_stack.append(sid)
        return sid, kind, time.perf_counter()

    def close_op(self, token) -> None:
        sid, kind, start = token
        end = time.perf_counter()
        self._main_stack.pop()
        self.spans.append(
            (sid, "op", start, end, None, self.op_id, self._main, {"kind": kind})
        )
        self.op_id = None

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, span name, measure)`` target."""
        for owner, attr, name, measure in targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self.traced(name, original, measure))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Put every original back; returns the attributes left unrestored."""
        broken = []
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                broken.append(f"{owner.__name__}.{attr}")
        return broken

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "thread", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# the attributes to wrap, and what each call reports
# ---------------------------------------------------------------------------


def _lanes(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, {"lanes": int(np.size(result))}


def _mc_draws(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, {"lanes": int(np.size(result)), "mc_draws": int(np.size(result))}


def _blocks(call, args, kwargs):
    result = call(*args, **kwargs)  # shape (4, lanes)
    return result, {"lanes": int(result.shape[1])}


def _grid(call, args, kwargs):
    times, bundle = args[1], args[2]
    return call(*args, **kwargs), {"path_steps": len(bundle) * (len(times) - 1)}


def _event_path(call, args, kwargs):
    return call(*args, **kwargs), {"paths": 1}


def _event_terminals(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, {"paths": int(np.size(result))}


def _grid_csv(call, args, kwargs):
    path, times, values = args
    result = call(*args, **kwargs)
    rows = np.atleast_2d(values).shape[0] * len(times)
    return result, {"rows": int(rows), "bytes": os.path.getsize(path)}


def _event_csv(call, args, kwargs):
    path, paths = args
    result = call(*args, **kwargs)
    rows = sum(len(p.jump_times) for p in paths)
    return result, {"rows": int(rows), "bytes": os.path.getsize(path)}


def _density_matrix(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, {"points": int(result.size)}


def _density_points(call, args, kwargs):
    return call(*args, **kwargs), {"points": int(np.size(args[0]))}


def _gate(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, {"passed": bool(result.passed)}


def _panels(call, args, kwargs):
    # every K15 panel evaluates the integrand once over its 15 nodes
    f, rest = args[0], args[1:]
    count = 0

    def counted(nodes):
        nonlocal count
        count += 1
        return f(nodes)

    result = call(counted, *rest, **kwargs)
    return result, {"panels": count}


def targets(tracer: Tracer, modules: dict) -> list[tuple]:
    """``(owner, attribute, span name, measure)`` for every wrapped call.

    ``modules`` maps short names to the imported ``gaussmart`` submodules;
    each function is wrapped in every module whose callers look it up.
    """
    sampler, pathsim, kernel = modules["sampler"], modules["pathsim"], modules["kernel"]
    verify, cli, generator = modules["verify"], modules["cli"], modules["generator"]

    def kernel_eval(call, args, kwargs):
        ev = call(*args, **kwargs)
        density = tracer.traced("kernel.density", ev.density, _density_points)
        return type(ev)(ev.atom_weight, ev.atom_location, density, ev.quadrature), None

    out = [
        (sampler, "philox_block", "sampler.philox", _blocks),
        (sampler.StreamBundle, "blocks", "sampler.blocks", _blocks),
        (sampler.StreamBundle, "normals", "sampler.normals", _lanes),
        (sampler, "poisson_draw", "sampler.poisson_draw", _lanes),
        (sampler, "gamma_draw", "sampler.gamma_draw", _lanes),
        (pathsim, "sample_subordinator_increment", "sampler.increment", _lanes),
        (kernel, "sample_subordinator_increment", "sampler.increment", _mc_draws),
        (pathsim, "_grid_values", "pathsim.grid", _grid),
        (pathsim, "simulate_event", "pathsim.event", _event_path),
        (cli, "simulate_event", "pathsim.event", _event_path),
        (verify, "simulate_event_terminals", "pathsim.event", _event_terminals),
        (cli, "write_grid_csv", "pathsim.csv", _grid_csv),
        (cli, "write_event_csv", "pathsim.csv", _event_csv),
        (kernel, "kernel_eval", "kernel.eval", kernel_eval),
        (cli, "kernel_eval", "kernel.eval", kernel_eval),
        (kernel, "_density_matrix", "kernel.density", _density_matrix),
        (generator, "kernel_moment", "kernel.moment", _call),
        (cli, "kernel_moment", "kernel.moment", _call),
        (kernel, "ck_residual", "kernel.ck", _call),
        (modules["quadrature"], "adaptive_panels", "quadrature.panels", _panels),
        (generator, "adaptive_panels", "quadrature.panels", _panels),
        (generator, "apply_generator", "generator.apply", _call),
        (generator, "difference_quotient", "generator.quotient", _call),
        (verify, "standard_battery", "verify.battery", _call),
        (verify, "null_calibration", "verify.null", _call),
        (cli, "execute", "cli.execute", _call),
    ]
    for mod in (pathsim, verify, cli):
        out.append((mod, "simulate_grid_ensemble", "pathsim.ensemble", _call))
    for name, func in sorted(vars(verify).items()):
        if name.startswith("test_") and callable(func):
            out.append((verify, name, "verify.test", _gate))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

#: (metric, unit) in report order
LAYER_METRICS = [
    ("sampler.philox_calls", "count"),
    ("sampler.philox_blocks", "count"),
    ("sampler.lanes_per_call", "lanes"),
    ("sampler.philox_s", "s"),
    ("sampler.philox_share", "share"),
    ("sampler.normals_s", "s"),
    ("sampler.poisson_draws", "count"),
    ("sampler.poisson_blocks_per_draw", "blocks/draw"),
    ("sampler.poisson_s", "s"),
    ("sampler.gamma_draws", "count"),
    ("sampler.gamma_blocks_per_draw", "blocks/draw"),
    ("sampler.gamma_s", "s"),
    ("sampler.increment_self_s", "s"),
    ("pathsim.grid_path_steps", "count"),
    ("pathsim.grid_s", "s"),
    ("pathsim.grid_self_s", "s"),
    ("pathsim.event_paths", "count"),
    ("pathsim.event_jumps", "count"),
    ("pathsim.event_s", "s"),
    ("pathsim.event_self_s", "s"),
    ("pathsim.csv_rows", "count"),
    ("pathsim.csv_bytes", "bytes"),
    ("pathsim.csv_s", "s"),
    ("kernel.eval_calls", "count"),
    ("kernel.eval_s", "s"),
    ("kernel.density_points", "count"),
    ("kernel.density_s", "s"),
    ("kernel.moment_calls", "count"),
    ("kernel.moment_s", "s"),
    ("kernel.ck_self_s", "s"),
    ("kernel.mc_draws", "count"),
    ("quadrature.calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.panels_per_call", "panels/call"),
    ("quadrature.s", "s"),
    ("generator.apply_calls", "count"),
    ("generator.apply_s", "s"),
    ("generator.quotient_s", "s"),
    ("verify.tests", "count"),
    ("verify.test_self_s", "s"),
    ("verify.gates_failed", "count"),
    ("cli.execute_self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "share"),
]

#: spans whose Philox blocks are charged to them (nearest such ancestor)
_BLOCK_OWNERS = ("sampler.poisson_draw", "sampler.gamma_draw", "pathsim.event")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def span_stats(spans) -> dict:
    """Per span name: calls, inclusive time, self time and summed attributes.

    Inclusive time and attributes count only the outermost span of a name
    (one with no ancestor of the same name), so nested calls are not
    counted twice.  Self time is a span's duration minus the part of it
    covered by its child spans, on any thread.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)

    def ancestors(s):
        parent = s[4]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][4]

    stats = defaultdict(lambda: defaultdict(float))
    for s in spans:
        sid, name, start, end = s[0], s[1], s[2], s[3]
        st = stats[name]
        st["calls"] += 1
        covered, reach = 0.0, start
        for c in sorted(children.get(sid, ()), key=lambda c: c[2]):
            lo, hi = max(c[2], reach), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        st["self_s"] += end - start - covered
        if any(a[1] == name for a in ancestors(s)):
            continue
        st["s"] += end - start
        for key, value in (s[7] or {}).items():
            if not isinstance(value, str):
                st[key] += value
        if name == "sampler.blocks":
            owner = next((a for a in ancestors(s) if a[1] in _BLOCK_OWNERS), None)
            if owner is not None:
                stats[owner[1]]["blocks"] += s[7]["lanes"]
    return stats


#: metrics that are ratios; every other one is a total, reported per pass
_RATIOS = {
    "sampler.lanes_per_call", "sampler.philox_share", "sampler.poisson_blocks_per_draw",
    "sampler.gamma_blocks_per_draw", "quadrature.panels_per_call", "trace.overhead_share",
}


def layer_metrics(spans, overhead_share: float, passes: int) -> dict:
    """Every metric of :data:`LAYER_METRICS` from the spans of ``passes`` passes."""
    st = span_stats(spans)
    op_s = st["op"]["s"]
    philox, pois, gam = st["sampler.philox"], st["sampler.poisson_draw"], st["sampler.gamma_draw"]
    grid, event, csv = st["pathsim.grid"], st["pathsim.event"], st["pathsim.csv"]
    quad = st["quadrature.panels"]
    values = {
        "sampler.philox_calls": philox["calls"],
        "sampler.philox_blocks": philox["lanes"],
        "sampler.lanes_per_call": _ratio(philox["lanes"], philox["calls"]),
        "sampler.philox_s": philox["s"],
        "sampler.philox_share": _ratio(philox["s"], op_s),
        "sampler.normals_s": st["sampler.normals"]["self_s"],
        "sampler.poisson_draws": pois["lanes"],
        "sampler.poisson_blocks_per_draw": _ratio(pois["blocks"], pois["lanes"]),
        "sampler.poisson_s": pois["s"],
        "sampler.gamma_draws": gam["lanes"],
        "sampler.gamma_blocks_per_draw": _ratio(gam["blocks"], gam["lanes"]),
        "sampler.gamma_s": gam["s"],
        "sampler.increment_self_s": st["sampler.increment"]["self_s"],
        "pathsim.grid_path_steps": grid["path_steps"],
        "pathsim.grid_s": grid["s"],
        "pathsim.grid_self_s": grid["self_s"],
        "pathsim.event_paths": event["paths"],
        # every candidate jump takes one block; the last one per path overshoots
        "pathsim.event_jumps": event["blocks"] - event["paths"],
        "pathsim.event_s": event["s"],
        "pathsim.event_self_s": event["self_s"],
        "pathsim.csv_rows": csv["rows"],
        "pathsim.csv_bytes": csv["bytes"],
        "pathsim.csv_s": csv["s"],
        "kernel.eval_calls": st["kernel.eval"]["calls"],
        "kernel.eval_s": st["kernel.eval"]["s"],
        "kernel.density_points": st["kernel.density"]["points"],
        "kernel.density_s": st["kernel.density"]["s"],
        "kernel.moment_calls": st["kernel.moment"]["calls"],
        "kernel.moment_s": st["kernel.moment"]["s"],
        "kernel.ck_self_s": st["kernel.ck"]["self_s"],
        "kernel.mc_draws": st["sampler.increment"]["mc_draws"],
        "quadrature.calls": quad["calls"],
        "quadrature.panels": quad["panels"],
        "quadrature.panels_per_call": _ratio(quad["panels"], quad["calls"]),
        "quadrature.s": quad["s"],
        "generator.apply_calls": st["generator.apply"]["calls"],
        "generator.apply_s": st["generator.apply"]["s"],
        "generator.quotient_s": st["generator.quotient"]["s"],
        "verify.tests": st["verify.test"]["calls"],
        "verify.test_self_s": st["verify.test"]["self_s"],
        "verify.gates_failed": st["verify.test"]["calls"] - st["verify.test"]["passed"],
        "cli.execute_self_s": st["cli.execute"]["self_s"],
        "trace.spans": len(spans),
        "trace.overhead_share": overhead_share,
    }
    return {
        name: {"value": float(values[name]) / (1 if name in _RATIOS else passes),
               "unit": unit}
        for name, unit in LAYER_METRICS
    }


def philox_share_by_op(spans) -> dict:
    """Share of each operation kind's traced time spent in the Philox network."""
    kind_of = {s[5]: s[7]["kind"] for s in spans if s[1] == "op"}
    op_s, philox_s = defaultdict(float), defaultdict(float)
    for s in spans:
        if s[1] == "op":
            op_s[kind_of[s[5]]] += s[3] - s[2]
        elif s[1] == "sampler.philox":
            philox_s[kind_of[s[5]]] += s[3] - s[2]
    return {kind: _ratio(philox_s[kind], op_s[kind]) for kind in op_s}
