"""Per-layer tracing of cir_ldp from outside the package.

The tracer replaces module attributes through which the layers call each
other (and through which the benchmark calls into them) with timing wrappers,
and restores them afterwards.  Nothing inside ``src/`` changes: a wrapper
sits wherever a caller looks the function up at call time, which for a
module-level name is the module's attribute, and for ``harness._ESTIMATORS``
is the dict entry bound at import.

Two kinds of wrapper exist:

* timed wrappers keep, per name, the call count, inclusive time and self time
  (inclusive time minus what nested timed wrappers cover), on the thread's
  CPU clock, so time the host steals from the VM does not count.  Coarse
  ones also record a span (name, wall-clock start and end, CPU duration,
  parent span, op id) in memory;
* count-only wrappers, for calls too fine to time without distorting them
  (``cgf_limit``, ``dual_vars``, ``region_constants``), only count.

A layer's self time is the sum of the self times of its names.  The untraced
run never constructs a Tracer, so it runs the package unmodified.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

LAYERS = ("cir_model", "functionals", "cgf", "rates", "harness", "cli")


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``module.attr`` (or ``module.attr[key]``)."""

    module: str
    attr: str
    name: str
    layer: str
    kind: str  # "span", "timed" or "count"
    key: str | None = None


# Every attribute a layer (or the benchmark) calls through.  Several targets
# can share one name: harness and cgf each hold their own reference to
# simulate_ensemble, and both are the cir_model layer's ensemble sampler.
TARGETS = (
    # cir_model
    Target("cir_ldp.cir_model", "simulate_ensemble", "simulate_ensemble", "cir_model", "span"),
    Target("cir_ldp.harness", "simulate_ensemble", "simulate_ensemble", "cir_model", "span"),
    Target("cir_ldp.cli", "simulate_path", "simulate_path", "cir_model", "span"),
    Target("cir_ldp.cli", "write_trajectory_csv", "write_trajectory_csv", "cir_model", "span"),
    Target("cir_ldp.cli", "path_rng", "path_rng", "cir_model", "timed"),
    Target("cir_ldp.cir_model", "read_trajectory_csv", "read_trajectory_csv", "cir_model", "span"),
    # functionals
    Target("cir_ldp.functionals", "compute_functionals", "compute_functionals", "functionals", "timed"),
    Target("cir_ldp.harness", "functionals_from_summary", "functionals_from_summary", "functionals", "timed"),
    Target("cir_ldp.functionals", "estimate_mle", "estimate_mle", "functionals", "timed"),
    Target("cir_ldp.functionals", "estimate_tilde", "estimate_tilde", "functionals", "timed"),
    Target("cir_ldp.functionals", "estimate_check", "estimate_check", "functionals", "timed"),
    Target("cir_ldp.functionals", "estimate_combined", "estimate_combined", "functionals", "timed"),
    Target("cir_ldp.harness", "_ESTIMATORS", "estimate_mle", "functionals", "timed", key="mle"),
    Target("cir_ldp.harness", "_ESTIMATORS", "estimate_tilde", "functionals", "timed", key="tilde"),
    Target("cir_ldp.harness", "_ESTIMATORS", "estimate_check", "functionals", "timed", key="check"),
    # cgf
    Target("cir_ldp.cgf", "legendre_transform_numeric", "legendre_transform_numeric", "cgf", "span"),
    Target("cir_ldp.cgf", "cgf_finite_T_mc", "cgf_finite_T_mc", "cgf", "span"),
    Target("cir_ldp.cgf", "lambda_star", "lambda_star", "cgf", "timed"),
    Target("cir_ldp.rates", "lambda_star", "lambda_star", "cgf", "timed"),
    Target("cir_ldp.cgf", "cgf_limit", "cgf_limit", "cgf", "count"),
    Target("cir_ldp.cgf", "dual_vars", "dual_vars", "cgf", "count"),
    # rates
    Target("cir_ldp.rates", "rate_I_infsup", "rate_I_infsup", "rates", "span"),
    Target("cir_ldp.rates", "marginal_inf_numeric", "marginal_inf_numeric", "rates", "span"),
    Target("cir_ldp.rates", "rate_I_mle", "rate_I_mle", "rates", "timed"),
    Target("cir_ldp.rates", "rate_pair", "rate_pair", "rates", "timed"),
    Target("cir_ldp.rates", "rate_marginal", "rate_marginal", "rates", "timed"),
    Target("cir_ldp.harness", "rate_marginal", "rate_marginal", "rates", "timed"),
    # Inside rates the rate_J/rate_K calls are only counted (their time is
    # rates' either way); harness's calls are timed so they leave harness.
    Target("cir_ldp.rates", "rate_J", "rate_J", "rates", "count"),
    Target("cir_ldp.harness", "rate_J", "rate_J", "rates", "timed"),
    Target("cir_ldp.rates", "rate_K", "rate_K", "rates", "count"),
    Target("cir_ldp.harness", "rate_K", "rate_K", "rates", "timed"),
    Target("cir_ldp.rates", "region_constants", "region_constants", "rates", "count"),
    Target("cir_ldp.harness", "region_constants", "region_constants", "rates", "count"),
    # harness
    Target("cir_ldp.harness", "clt_experiments", "clt_experiments", "harness", "span"),
    Target("cir_ldp.harness", "slope_experiment", "slope_experiment", "harness", "span"),
    Target("cir_ldp.harness", "surface_grid", "surface_grid", "harness", "span"),
    Target("cir_ldp.harness", "profile_curves", "profile_curves", "harness", "span"),
    # cli
    Target("cir_ldp.cli", "main", "cli.main", "cli", "span"),
)


class _Stat:
    __slots__ = ("calls", "incl", "self_time", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.work = 0


def _work_of(result) -> int:
    # Path-steps for an ensemble, steps for a stored path; 0 otherwise.
    n_steps = getattr(result, "n_steps", None)
    x_T = getattr(result, "x_T", None)
    if n_steps is not None and x_T is not None:
        return int(n_steps) * len(x_T)
    times = getattr(result, "times", None)
    if times is not None:
        return len(times) - 1
    return 0


class Tracer:
    """Installs wrappers on the cir_ldp layer boundaries and aggregates them.

    Single-threaded by design: the benchmark runs every workload in one
    thread, and worker processes (the 2-worker probe) are timed as a whole
    by the enclosing ``simulate_ensemble`` span.  Wrappers exist only between
    ``install`` and ``uninstall``; the stats persist across installs.
    """

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {"bench.op": "bench"}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child_time, span_id]
        self._saved: list[tuple] = []
        self._op_id = -1
        self._op_wrapper = None

    # -- recording -------------------------------------------------------

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _timed(self, fn, name: str, record_span: bool):
        st = self._stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.thread_time
        wall = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if record_span else parent
            frame = [0.0, span_id]
            if record_span:
                spans.append(None)  # reserve the id; filled on exit
                w0 = wall()
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st.calls += 1
                st.incl += dur
                st.self_time += dur - frame[0]
                if result is not None:
                    st.work += _work_of(result)
                if record_span:
                    spans[span_id] = (name, w0, wall(), dur, parent, self._op_id)

        return wrapper

    def _counted(self, fn, name: str):
        st = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_op(self, op_id: int, fn):
        """Run one benchmark op as a ``bench.op`` span tagged with ``op_id``."""
        if self._op_wrapper is None:
            self._op_wrapper = self._timed(lambda f: f(), "bench.op", True)
        self._op_id = op_id
        try:
            return self._op_wrapper(fn)
        finally:
            self._op_id = -1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib

        wrapped: dict[tuple[str, int], object] = {}
        for tgt in TARGETS:
            try:
                module = importlib.import_module(tgt.module)
                holder = getattr(module, tgt.attr)
                original = holder[tgt.key] if tgt.key is not None else holder
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.append(f"{tgt.module}.{tgt.attr}" + (f"[{tgt.key}]" if tgt.key else ""))
                continue
            self.layer_of[tgt.name] = tgt.layer
            # One wrapper per (name, kind, original function): the same
            # function reached through two modules is wrapped once.
            cache_key = (tgt.name, tgt.kind, id(original))
            wrapper = wrapped.get(cache_key)
            if wrapper is None:
                if tgt.kind == "count":
                    wrapper = self._counted(original, tgt.name)
                else:
                    wrapper = self._timed(original, tgt.name, tgt.kind == "span")
                wrapped[cache_key] = wrapper
            if tgt.key is not None:
                self._saved.append((holder, tgt.key, original, True))
                holder[tgt.key] = wrapper
            else:
                self._saved.append((module, tgt.attr, original, False))
                setattr(module, tgt.attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, is_item in reversed(self._saved):
            if is_item:
                holder[attr] = original
            else:
                setattr(holder, attr, original)
        self._saved.clear()

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict[str, tuple[int, float, float, int]]:
        return {k: (s.calls, s.incl, s.self_time, s.work) for k, s in self.stats.items()}

    @staticmethod
    def delta(after: dict, before: dict) -> dict[str, tuple[int, float, float, int]]:
        out = {}
        for k, (c, i, s, w) in after.items():
            c0, i0, s0, w0 = before.get(k, (0, 0.0, 0.0, 0))
            out[k] = (c - c0, i - i0, s - s0, w - w0)
        return out

    def layer_self(self, stats: dict) -> dict[str, float]:
        """Self seconds per layer (plus ``bench``) from a stats delta."""
        out = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for name, (_, _, self_time, _) in stats.items():
            out[self.layer_of.get(name, "bench")] += self_time
        return out
