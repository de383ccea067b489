"""Per-layer tracing from outside the package.

`Tracer.install` replaces every module's own binding of each public
function of the package (`sampling.normalize` and `cuts.normalize` both get
the wrapper of `cuts.normalize`), and the public methods of its public
classes, with a wrapper that records one aggregate per (function, parent
function): calls, total time and self time.  Self time is the wrapper's
duration minus the durations of the wrapped calls made inside it, so a
layer's self time also holds the untraced code it runs (Fraction arithmetic,
private helpers, dataclass methods).  Only the unit calls keep full spans,
so memory stays flat however many kernel calls a run makes.

`Cut.__post_init__` is wrapped as well: its call count is the number of
cuts created.  A few wrappers also look at results to count what the
per-layer metrics need (no-op normalizations, repeated `form_tuple`
arguments, box sample points, closure sizes).

The layers are the package's modules: groups (L0), cuts (L1 kernel and L2
classification), sampling, pruefer and polyext (L3), boxes and semigroups
(L4 oracles) and cli (L5).
"""

from __future__ import annotations

import functools
import inspect
import time

import tclass
from tclass import boxes, cli, cuts, groups, polyext, pruefer, sampling, semigroups

MODULES = (groups, cuts, sampling, pruefer, polyext, boxes, semigroups, cli)
UNIT = "bench.unit"
AUDITS = ("residual_membership", "stabilizer", "t_closure", "is_idempotent",
          "classify_idempotent", "is_regular")


def _key(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _ours(obj) -> bool:
    return getattr(obj, "__module__", "").startswith(tclass.__name__ + ".")


class Tracer:
    def __init__(self):
        # (function, parent function) -> [calls, total seconds, self seconds]
        self.edges: dict = {}
        self.spans: list = []
        self._stack = [[None, 0.0]]
        self._wrappers: dict = {}
        self._undo: list = []
        self.normalize_noops = 0
        self._form_args: set = set()
        self.form_repeats = 0
        self.box_points = 0
        self.closures = 0
        self.closures_saturated = 0
        self.closure_elements = 0
        self.table_triples = 0
        self._observers = {
            "cuts.normalize": self._see_normalize,
            "pruefer.form_tuple": self._see_form_tuple,
            "boxes.sample_points": self._see_points,
            "semigroups.sample_closure": self._see_closure,
        }

    # --- observers: args and result of one call ---

    def _see_normalize(self, args, result):
        if result == args[1]:
            self.normalize_noops += 1

    def _see_form_tuple(self, args, result):
        key = (args[0], args[1])
        if key in self._form_args:
            self.form_repeats += 1
        else:
            self._form_args.add(key)

    def _see_points(self, args, result):
        self.box_points += len(result)

    def _see_closure(self, args, result):
        self.closures += 1
        self.closure_elements += len(result.dictionary)
        if result.saturated:
            self.closures_saturated += 1
            self.table_triples += result.semigroup.size ** 3

    # --- wrapping ---

    def _wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        key = _key(fn)
        edges, stack, clock = self.edges, self._stack, time.perf_counter
        observe = self._observers.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                edge = edges.get((key, parent[0]))
                if edge is None:
                    edge = edges[(key, parent[0])] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        self._wrappers[fn] = traced
        return traced

    def _replace(self, owner, name, fn):
        self._undo.append((owner, name, fn))
        setattr(owner, name, self._wrap(fn))

    def install(self) -> None:
        for mod in MODULES:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _ours(obj):
                    continue
                if inspect.isfunction(obj):
                    self._replace(mod, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not attr.startswith("_"):
                            self._replace(obj, attr, fn)
        self._replace(cuts.Cut, "__post_init__", vars(cuts.Cut)["__post_init__"])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    def unit(self, label: str, fn):
        """Run one unit call as a child of the benchmark and keep its span."""
        frame = [UNIT, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((label, t0, t1))

    # --- summaries ---

    def calls(self, key: str, parent_prefix: str | None = None) -> int:
        return sum(e[0] for (k, p), e in self.edges.items()
                   if k == key and (parent_prefix is None or (p or "").startswith(parent_prefix)))

    def total_ms(self, key: str) -> float:
        return 1000 * sum(e[1] for (k, _), e in self.edges.items() if k == key)

    def self_ms(self, layer: str) -> float:
        return 1000 * sum(e[2] for (k, _), e in self.edges.items()
                          if k.startswith(layer + "."))

    def edge_table(self) -> list:
        rows = [
            {"function": k, "parent": p or "", "calls": e[0],
             "total_ms": 1000 * e[1], "self_ms": 1000 * e[2]}
            for (k, p), e in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["self_ms"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _model_mul_calls(t: Tracer) -> int:
    # Products the Cayley-table oracle asks of a model adapter.
    keys = {k for k, _ in t.edges if k.endswith("ClassModel.mul")}
    return sum(t.calls(k, parent_prefix="semigroups.") for k in keys)


# name -> (unit, better, value from a finished tracer, the end-to-end
# metric and workloads it should move).  BENCHMARK.json lists the same
# names, units and directions.
PER_LAYER = {
    "cuts.normalize.calls": (
        "count", "lower", lambda t: t.calls("cuts.normalize"),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "cuts.normalize.noop_ratio": (
        "ratio", "lower", lambda t: _ratio(t.normalize_noops, t.calls("cuts.normalize")),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "cuts.Cut.created": (
        "count", "lower", lambda t: t.calls("cuts.Cut.__post_init__"),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "cuts.group_membership.calls": (
        "count", "lower", lambda t: t.calls("cuts.group_membership"),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "cuts.group_membership.per_psi_localize": (
        "ratio", "lower",
        lambda t: _ratio(t.calls("cuts.group_membership"), t.calls("pruefer.psi_localize")),
        "throughput_per_s: verify_pruefer"),
    "cuts.audit.calls": (
        "count", "lower", lambda t: sum(t.calls(f"cuts.{a}") for a in AUDITS),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "cuts.self_ms": (
        "ms", "lower", lambda t: t.self_ms("cuts"),
        "throughput_per_s: verify_pruefer strongly, verify_valuation mildly; classify_stream unchanged"),
    "pruefer.psi_localize.calls": (
        "count", "lower", lambda t: t.calls("pruefer.psi_localize"),
        "throughput_per_s: verify_pruefer only"),
    "pruefer.group_membership.calls": (
        "count", "lower", lambda t: t.calls("pruefer.group_membership"),
        "throughput_per_s: verify_pruefer only"),
    "pruefer.form_tuple.calls": (
        "count", "lower", lambda t: t.calls("pruefer.form_tuple"),
        "throughput_per_s: verify_pruefer only"),
    "pruefer.form_tuple.repeat_ratio": (
        "ratio", "lower", lambda t: _ratio(t.form_repeats, t.calls("pruefer.form_tuple")),
        "throughput_per_s: verify_pruefer only"),
    "pruefer.self_ms": (
        "ms", "lower", lambda t: t.self_ms("pruefer"),
        "throughput_per_s: verify_pruefer only"),
    "groups.is_member.calls": (
        "count", "lower", lambda t: t.calls("groups.is_member"),
        "throughput_per_s: every workload, verify_pruefer most"),
    "groups.self_ms": (
        "ms", "lower", lambda t: t.self_ms("groups"),
        "throughput_per_s: every workload, verify_pruefer most"),
    "sampling.random_cut.calls": (
        "count", "lower", lambda t: t.calls("sampling.random_cut"),
        "throughput_per_s: verify_pruefer, verify_valuation"),
    "sampling.self_ms": (
        "ms", "lower", lambda t: t.self_ms("sampling"),
        "throughput_per_s: verify_pruefer, verify_valuation"),
    "polyext.classify.calls": (
        "count", "lower", lambda t: t.calls("polyext.classify"),
        "throughput_per_s: classify_stream, verify_valuation"),
    "polyext.self_ms": (
        "ms", "lower", lambda t: t.self_ms("polyext"),
        "throughput_per_s: classify_stream, verify_valuation"),
    "semigroups.closure.elements": (
        "count", "higher", lambda t: t.closure_elements,
        "throughput_per_s: oracle_audit; verify_* unchanged"),
    "semigroups.closure.saturated_ratio": (
        "ratio", "higher", lambda t: _ratio(t.closures_saturated, t.closures),
        "throughput_per_s: oracle_audit; verify_* unchanged"),
    "semigroups.model_mul.calls": (
        "count", "lower", _model_mul_calls,
        "throughput_per_s: oracle_audit; verify_* unchanged"),
    # Computed, not counted: m^3 summed over the saturated closure tables,
    # the size of each table's associativity sweep.
    "semigroups.table.triples": (
        "count", "lower", lambda t: t.table_triples,
        "throughput_per_s: oracle_audit; verify_* unchanged"),
    "semigroups.self_ms": (
        "ms", "lower", lambda t: t.self_ms("semigroups"),
        "throughput_per_s: oracle_audit; verify_* unchanged"),
    "boxes.points": (
        "count", "lower", lambda t: t.box_points,
        "throughput_per_s: oracle_audit only"),
    "boxes.check.calls": (
        "count", "lower",
        lambda t: sum(t.calls(f"boxes.{f}") for f in ("check_mul", "check_quotient", "check_same_set")),
        "throughput_per_s: oracle_audit only"),
    "boxes.self_ms": (
        "ms", "lower", lambda t: t.self_ms("boxes"),
        "throughput_per_s: oracle_audit only"),
    "cli.self_ms": (
        "ms", "lower", lambda t: t.self_ms("cli"),
        "latency_p50_ms: classify_stream; setup_s"),
    "cli.load_model_ms": (
        "ms", "lower", lambda t: _ratio(t.total_ms("cli.load_model"), t.calls("cli.load_model")),
        "latency_p50_ms: classify_stream; setup_s"),
}

# Counts and ratios depend only on the seed; two traced runs must agree
# exactly.
DETERMINISTIC = [n for n, (unit, *_) in PER_LAYER.items() if unit in ("count", "ratio")]


def layer_metrics(t: Tracer) -> dict:
    return {name: (fn(t), unit) for name, (unit, _, fn, _) in PER_LAYER.items()}

