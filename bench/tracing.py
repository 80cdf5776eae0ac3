"""In-memory span tracer that wraps inhibopt's public functions from outside.

The program has no tracing of its own, so the benchmark patches names at the
places they are looked up: every ``inhibopt`` module attribute that refers to
a traced function (``optimize`` and ``cli`` bind solver names at import, and
``cli`` reaches the writers through ``inhibopt.io``), the ``__init__`` of the
model's problem types, and ``DiscreteOperator.apply`` on its class.
:meth:`Tracer.uninstall` restores every patched attribute.

A span records name, start, end and parent.  Spans opened in a worker thread
with nothing open in that thread (the preset thread pool) take the innermost
span open in the main thread as parent.  ``DiscreteOperator.apply`` spans are
kernel spans: they are counted and sized, but not subtracted from their
parent's self time, so ``optimal_pulse`` self time keeps the backward sweep
whole.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from collections import defaultdict

# model types whose construction counts as problem building
MODEL_TYPES = (
    "SpaceGrid", "TimeGrid", "ScalarField", "InhibitionPressure", "ConstantPressure",
    "DiffusionField", "ChemicalParams", "ContinuousControl", "PulseStrategy", "CostSpec",
    "AveragedProblem", "PdeProblem",
)
MODEL_BUILDERS = ("build_initial_condition", "build_random_amplitude", "seasonal_profile")
OPTIMIZERS = ("optimal_pulse", "fixed_point_pulse", "brute_force_pulse", "projected_gradient_mixed")
IO_WRITERS_OWN_METRIC = {
    "io.write_adjoint": "io.write_adjoint_s",
    "io.write_field_snapshots": "io.write_fields_s",
    "io.write_certificate": "io.write_certificate_s",
    "io.write_strategy": "io.write_strategy_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "kernel", "attrs")

    def __init__(self, name: str, parent: "Span | None", kernel: bool):
        self.name = name
        self.parent = parent
        self.kernel = kernel
        self.attrs: dict | None = None
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Patch inhibopt call sites, keep spans in memory, derive per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, hook=None, kernel: bool = False):
        spans = self.spans
        stack_of = self._stack
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else None
            span = Span(name, parent, kernel)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
            if hook is not None:
                span.attrs = hook(args, kwargs, out)
            return out

        return traced

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            return
        from inhibopt import model, pde

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "inhibopt" or n.startswith("inhibopt."))]
        hooks = _hooks()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{fname}"
                wrappers[fn] = self._wrap(name, fn, hooks.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if not attr.startswith("__") and callable(val) and val in wrappers:
                    self._set(mod, attr, wrappers[val])
        for tname in MODEL_TYPES:
            cls = getattr(model, tname)
            self._set(cls, "__init__", self._wrap(f"model.{tname}", cls.__dict__["__init__"]))
        op = pde.DiscreteOperator
        self._set(op, "apply", self._wrap("pde.DiscreteOperator.apply", op.__dict__["apply"],
                                          _stencil_hook, kernel=True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# hooks: per-call facts read from arguments and results


def _stencil_hook(args, kwargs, out):
    op, phi = args[0], args[1]
    faces = op.diffusion.interior_faces()
    # compulsory traffic: read phi, rate and the interior face coefficients, write the result
    return {"bytes": 2 * phi.nbytes + op.rate.nbytes + sum(f.nbytes for f in faces)}


def _simulate_pde_hook(args, kwargs, out):
    problem = args[0]
    return {"points": problem.grid.npoints, "steps": problem.time_grid.n_steps}


def _history_bytes(result) -> int:
    total = 0
    fwd = result.forward
    if fwd is not None:
        total += getattr(fwd, "fields", getattr(fwd, "values", None)).nbytes
    if result.adjoint is not None:
        total += result.adjoint.values.nbytes
    return total


def _optimizer_hook(args, kwargs, out):
    return {"history_bytes": _history_bytes(out), "iterations": out.iterations,
            "accepted": len(out.diagnostics.get("cost_history", [None])) - 1}


def _fixed_point_hook(args, kwargs, out):
    attrs = _optimizer_hook(args, kwargs, out)
    attrs["loop"] = args[0].chem.sigma_star > 0
    return attrs


def _writer_hook(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _cli_hook(args, kwargs, out):
    return {"code": out}


def _hooks() -> dict:
    from inhibopt import io

    hooks = {
        "pde.simulate_pde": _simulate_pde_hook,
        "optimize.optimal_pulse": _optimizer_hook,
        "optimize.brute_force_pulse": _optimizer_hook,
        "optimize.projected_gradient_mixed": _optimizer_hook,
        "optimize.fixed_point_pulse": _fixed_point_hook,
        "cli.run_cli": _cli_hook,
    }
    for fname in vars(io):
        if fname.startswith("write_"):
            hooks[f"io.{fname}"] = _writer_hook
    return hooks


# ---------------------------------------------------------------------------
# per-layer metrics


def _union_seconds(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanIndex:
    """Queries over one list of finished spans."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[id(s.parent)].append(s)

    def count(self, *names: str) -> int:
        return sum(len(self.by_name[n]) for n in names)

    def spans(self, *names: str) -> list[Span]:
        return [s for n in names for s in self.by_name[n]]

    def inclusive(self, *names: str) -> float:
        """Seconds inside the named spans, nested ones counted once."""
        wanted = set(names)
        total = 0.0
        for s in self.spans(*names):
            p = s.parent
            while p is not None and p.name not in wanted:
                p = p.parent
            if p is None:
                total += s.seconds
        return total

    def self_seconds(self, span: Span) -> float:
        kids = [(c.start, c.end) for c in self.children[id(span)] if not c.kernel]
        return span.seconds - _union_seconds(kids, span.start, span.end)

    def attr_sum(self, name: str, key: str, where=None) -> float:
        return sum(s.attrs[key] for s in self.by_name[name]
                   if s.attrs is not None and (where is None or where(s)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced pass (plus set-up).

    A layer that the workload never calls reads 0.
    """
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    model_names = [f"model.{t}" for t in MODEL_TYPES] + [f"model.{b}" for b in MODEL_BUILDERS]
    m["model.build_ms"] = 1e3 * ix.inclusive(*model_names)
    m["model.validate_ms"] = 1e3 * ix.inclusive("model.validate")

    m["averaged.simulate_calls"] = ix.count("averaged.simulate_averaged")
    m["averaged.simulate_ms"] = 1e3 * ix.inclusive("averaged.simulate_averaged")
    m["averaged.cost_ms"] = 1e3 * ix.inclusive("averaged.cost_averaged")

    sims = ix.spans("pde.simulate_pde")
    steps = sum(s.attrs["steps"] for s in sims)
    point_steps = sum(s.attrs["points"] * s.attrs["steps"] for s in sims)
    forward_applies = [c for s in sims for c in ix.children[id(s)] if c.kernel]
    m["pde.simulate_calls"] = len(sims)
    m["pde.simulate_s"] = ix.inclusive("pde.simulate_pde")
    m["pde.cost_s"] = ix.inclusive("pde.cost_pde")
    m["pde.ns_per_pt_step"] = 1e9 * _ratio(sum(s.seconds for s in sims), point_steps)
    m["pde.stencil_applies_per_step"] = _ratio(len(forward_applies), steps)
    m["pde.stencil_bytes_per_step"] = _ratio(sum(c.attrs["bytes"] for c in forward_applies), steps)

    m["adjoint.solve_calls"] = ix.count("adjoint.solve_adjoint_averaged", "adjoint.solve_adjoint_pde")
    m["adjoint.solve_ms"] = 1e3 * ix.inclusive("adjoint.solve_adjoint_averaged",
                                               "adjoint.solve_adjoint_pde")
    m["adjoint.gradient_ms"] = 1e3 * ix.inclusive("adjoint.gradient_continuous",
                                                  "adjoint.gradient_pulse")

    pg = ix.spans("optimize.projected_gradient_mixed")
    pg_trials = sum(1 for s in pg for c in ix.children[id(s)]
                    if c.name == "optimize.optimal_pulse") - len(pg)
    brute = ix.spans("optimize.brute_force_pulse")
    optimizer_results = [s for n in OPTIMIZERS for s in ix.spans(f"optimize.{n}")
                         if s.attrs is not None
                         and (s.parent is None or not s.parent.name.startswith("optimize."))]
    m["optimize.optimal_pulse_calls"] = ix.count("optimize.optimal_pulse")
    m["optimize.optimal_pulse_self_s"] = sum(ix.self_seconds(s)
                                             for s in ix.spans("optimize.optimal_pulse"))
    m["optimize.fixed_point_iters"] = ix.attr_sum("optimize.fixed_point_pulse", "iterations",
                                                  lambda s: s.attrs["loop"])
    m["optimize.pg_iters"] = ix.attr_sum("optimize.projected_gradient_mixed", "iterations")
    m["optimize.pg_evals"] = pg_trials
    m["optimize.pg_accept_ratio"] = _ratio(
        ix.attr_sum("optimize.projected_gradient_mixed", "accepted"), pg_trials)
    m["optimize.brute_force_s"] = ix.inclusive("optimize.brute_force_pulse")
    m["optimize.vertices_per_s"] = _ratio(
        ix.attr_sum("optimize.brute_force_pulse", "iterations"),
        sum(ix.self_seconds(s) for s in brute))
    m["optimize.cert_check_ms"] = 1e3 * ix.inclusive("optimize.certificate_check")
    m["optimize.history_mb"] = max((s.attrs["history_bytes"] for s in optimizer_results),
                                   default=0) / 1e6

    writers = [n for n in ix.by_name if n.startswith("io.write_")]
    write_s = ix.inclusive(*writers)
    written = sum(ix.attr_sum(n, "bytes") for n in writers)
    m["io.resolve_ms"] = 1e3 * ix.inclusive("io.load_config", "io.resolve_bundle")
    for name, metric in IO_WRITERS_OWN_METRIC.items():
        m[metric] = ix.inclusive(name)
    m["io.write_other_s"] = ix.inclusive(*(n for n in writers if n not in IO_WRITERS_OWN_METRIC))
    m["io.bytes_written"] = written
    m["io.write_mb_per_s"] = _ratio(written / 1e6, write_s)

    m["cli.calls"] = ix.count("cli.run_cli")
    m["cli.nonzero_exits"] = sum(1 for s in ix.spans("cli.run_cli")
                                 if s.attrs is None or s.attrs["code"] != 0)
    m["cli.self_s"] = sum(ix.self_seconds(s) for s in ix.spans("cli.run_cli"))
    return {k: float(v) for k, v in m.items()}
