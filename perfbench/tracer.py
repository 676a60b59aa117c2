"""Per-layer tracing of the nbdirichlet package from outside.

`Tracer.install()` replaces functions with timing wrappers under the name
each caller looks up. `from .x import y` binds `y` in the importing module
at import time, so patching only the defining module would miss those
calls: every module of the package that holds the function object gets the
wrapper. Methods are patched on their class; `numpy.linalg.solve` is
patched on `numpy.linalg`, where `flow` looks it up at call time.

A layer is a module of the package. A wrapped call is a span; its self time
is its duration minus the time its child spans cover. Spans are aggregated
per function in memory; the shallow ones (a job, its command, the calls
that command makes) are also kept as records with start, end and parent,
and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy

from nbdirichlet import cli, contraction, flow, forms, lattice_ops, measure, samplers, verifier  # noqa: F401

LAYERS = ("cli", "verifier", "samplers", "contraction", "lattice_ops", "measure", "forms", "flow")

# private functions that mark a layer boundary or a cost the metrics name
_PRIVATE = {
    "cli": ("_cmd_verify", "_cmd_flow", "_write_report"),
    "verifier": ("_sweep",),
}
# recursive or never called by a job
_SKIP = {"cli": ("canonical_json", "main")}
# (class, method, span name); a constructor's span is named after its class
_METHODS = (
    (forms.FormInstance, "energy_of_values", "forms.energy_of_values"),
    (forms.ScalarPiece, "prox", "forms.prox"),
    (forms.ScalarPiece, "hess", "forms.hess"),
    (contraction.PLFunction, "__post_init__", "contraction.PLFunction"),
    (contraction.PLFunction, "__call__", "contraction.PLFunction.__call__"),
    (measure.Field, "__init__", "measure.Field"),
    (measure.MeasureSpace, "__init__", "measure.MeasureSpace"),
)
# spans nested less deep than this are kept as records
KEEP_DEPTH = 3

# per-layer metrics of a traced run, in the order they are reported
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.report_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("verifier.self_s", "s"),
    ("verifier.samples", "count"),
    ("verifier.us_per_sample", "us"),
    ("samplers.draws", "count"),
    ("samplers.self_s", "s"),
    ("contraction.pl_builds", "count"),
    ("contraction.pl_builds_per_sample", "ratio"),
    ("contraction.pl_eval.calls", "count"),
    ("contraction.compose.calls", "count"),
    ("contraction.self_s", "s"),
    ("lattice_ops.calls", "count"),
    ("lattice_ops.self_s", "s"),
    ("measure.fields_built", "count"),
    ("measure.spaces_built", "count"),
    ("measure.self_s", "s"),
    ("forms.energy.calls", "count"),
    ("forms.energy.terms", "count"),
    ("forms.energy.self_s", "s"),
    ("forms.energy.ns_per_term", "ns"),
    ("forms.make_form.self_s", "s"),
    ("forms.prox.calls", "count"),
    ("forms.prox.self_s", "s"),
    ("forms.hess.calls", "count"),
    ("forms.self_s", "s"),
    ("flow.steps", "count"),
    ("flow.prox_step.self_s", "s"),
    ("flow.newton_iters_per_step", "ratio"),
    ("flow.admm_iters_per_step", "ratio"),
    ("flow.linalg.calls", "count"),
    ("flow.linalg.self_s", "s"),
    ("flow.certificate.calls", "count"),
    ("flow.certificates_per_step", "ratio"),
    ("flow.certificate.self_s", "s"),
    ("flow.csv_s", "s"),
    ("flow.self_s", "s"),
    ("trace.jobs", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.stats: dict[str, list] = {}  # span name -> [calls, total_s, self_s]
        self.layer_of: dict[str, str] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.records: list[tuple] = []  # (job, id, parent id, name, start, end)
        self._stack: list[list] = []  # open spans: [child_s, id]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str, count=None):
        self.layer_of[name] = layer
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            depth = len(stack)
            span_id = -1
            if depth < KEEP_DEPTH:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if span_id >= 0:
                    parent = stack[-1][1] if stack else -1
                    self.records.append((self.job, span_id, parent, name, t0, t1))
            if count is not None:
                count(args, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nbdirichlet" or mod_name.startswith("nbdirichlet."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; `uninstall` restores the originals."""
        def add(args, out):
            self.counts["verifier.samples"] += out.n_tested

        def terms(args, out):
            self.counts["forms.energy.terms"] += args[0].n_terms

        hooks = {"verifier._sweep": add, "forms.energy_of_values": terms}
        for layer in LAYERS:
            mod = sys.modules[f"nbdirichlet.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                    continue
                if attr in _SKIP.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                self._patch_everywhere(fn, self._wrapper(fn, name, layer, hooks.get(name)))
        for cls, attr, name in _METHODS:
            if attr in cls.__dict__:
                layer = name.split(".", 1)[0]
                self._set(cls, attr, self._wrapper(cls.__dict__[attr], name, layer, hooks.get(name)))
        for owner, attr in ((flow, "cho_factor"), (flow, "cho_solve"), (numpy.linalg, "solve")):
            if attr in owner.__dict__:
                fn = owner.__dict__[attr]
                self._set(owner, attr, self._wrapper(fn, f"flow.linalg.{attr}", "flow"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self(self, layer: str) -> float:
        return sum(st[2] for name, st in self.stats.items() if self.layer_of[name] == layer)

    def metrics(self, jobs: int, overhead_s: float, untraced_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, from the spans and counts of a traced run."""
        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        samples = self.counts["verifier.samples"]
        steps = self.calls("flow.prox_step")
        terms = self.counts["forms.energy.terms"]
        linalg = [n for n in self.stats if n.startswith("flow.linalg.")]
        checks = ("check_criteria", "check_normal_contraction", "run_proof_chain", "check_identities")
        lattice = [n for n in self.stats if self.layer_of[n] == "lattice_ops"]
        values = {
            "cli.self_s": self.layer_self("cli"),
            "cli.report_s": self.total("cli._write_report"),
            "cli.report_bytes": self.counts["cli.report_bytes"],
            "verifier.self_s": self.layer_self("verifier"),
            "verifier.samples": samples,
            "verifier.us_per_sample": 1e6 * ratio(sum(self.total(f"verifier.{c}") for c in checks), samples),
            "samplers.draws": sum(
                self.calls(f"samplers.{f}") for f in ("sample_field", "sample_alpha", "sample_contraction")
            ),
            "samplers.self_s": self.layer_self("samplers"),
            "contraction.pl_builds": self.calls("contraction.PLFunction"),
            "contraction.pl_builds_per_sample": ratio(self.calls("contraction.PLFunction"), samples),
            "contraction.pl_eval.calls": self.calls("contraction.PLFunction.__call__"),
            "contraction.compose.calls": self.calls("contraction.compose"),
            "contraction.self_s": self.layer_self("contraction"),
            "lattice_ops.calls": sum(self.calls(n) for n in lattice),
            "lattice_ops.self_s": self.layer_self("lattice_ops"),
            "measure.fields_built": self.calls("measure.Field"),
            "measure.spaces_built": self.calls("measure.MeasureSpace"),
            "measure.self_s": self.layer_self("measure"),
            "forms.energy.calls": self.calls("forms.energy_of_values"),
            "forms.energy.terms": terms,
            "forms.energy.self_s": self.self_time("forms.energy_of_values"),
            "forms.energy.ns_per_term": 1e9 * ratio(self.self_time("forms.energy_of_values"), terms),
            "forms.make_form.self_s": self.self_time("forms.make_form"),
            "forms.prox.calls": self.calls("forms.prox"),
            "forms.prox.self_s": self.self_time("forms.prox"),
            "forms.hess.calls": self.calls("forms.hess"),
            "forms.self_s": self.layer_self("forms"),
            "flow.steps": steps,
            "flow.prox_step.self_s": self.self_time("flow.prox_step"),
            "flow.newton_iters_per_step": ratio(self.calls("forms.hess"), steps),
            "flow.admm_iters_per_step": ratio(self.calls("forms.prox"), steps),
            "flow.linalg.calls": sum(self.calls(n) for n in linalg),
            "flow.linalg.self_s": sum(self.self_time(n) for n in linalg),
            "flow.certificate.calls": self.calls("flow.prox_certificate"),
            "flow.certificates_per_step": ratio(self.calls("flow.prox_certificate"), steps),
            "flow.certificate.self_s": self.self_time("flow.prox_certificate"),
            "flow.csv_s": self.total("flow.trace_to_csv"),
            "flow.self_s": self.layer_self("flow"),
            "trace.jobs": jobs,
            "trace.overhead_s": overhead_s,
            "trace.overhead_frac": ratio(overhead_s, untraced_s),
        }
        return {name: float(values[name]) for name, _ in PER_LAYER}

    def dump(self) -> dict:
        """The kept span records and the per-function aggregates."""
        return {
            "spans": [
                {"job": j, "id": i, "parent": p, "name": n, "start": s, "end": e}
                for j, i, p, n, s, e in self.records
            ],
            "functions": {
                name: {"layer": self.layer_of[name], "calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counts": dict(self.counts),
        }
