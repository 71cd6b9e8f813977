"""Span tracing from outside the package, for the per-layer metrics.

The package's modules import each other's functions by name, so a traced
function is replaced in every `jastit.*` namespace that holds it, not
only in its home module. Each call records one span: a name, a start and
an end, the span that was open when it started, and the id of the item
being run. Spans are kept in flat arrays while the run lasts and written
out when it ends. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

LAYERS = ("syntax", "frames", "models", "semantics", "calculus",
          "countermodels", "documents", "cli")

# (module, attribute, span name); one span name may cover several functions
FUNCTIONS = (
    ("syntax", "parse_formula", "syntax.parse_formula"),
    ("syntax", "render", "syntax.render"),
    ("syntax", "render_polynomial", "syntax.render"),
    ("frames", "theta", "frames.theta"),
    ("frames", "is_regular", "frames.is_regular"),
    ("frames", "is_mixsucc", "frames.is_mixsucc"),
    ("frames", "validate_frame", "frames.validate_frame"),
    ("models", "validate_model", "models.validate_model"),
    ("semantics", "find_countermodel", "semantics.find_countermodel"),
    ("semantics", "satisfies", "semantics.satisfies"),
    ("calculus", "verify_proof", "calculus.verify_proof"),
    ("calculus", "match_axiom", "calculus.match_axiom"),
    ("countermodels", "build_stit_countermodel", "countermodels.build"),
    ("countermodels", "build_temporal_countermodel", "countermodels.build"),
    ("countermodels", "build_jstit_countermodel", "countermodels.build"),
    ("documents", "load_model", "documents.load_model"),
    ("documents", "load_frame", "documents.load_frame"),
    ("documents", "load_proof", "documents.load_proof"),
    ("documents", "countermodel_document", "documents.countermodel_document"),
    ("documents", "canonical_json", "documents.canonical_json"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name): constructors and a class method
METHODS = (
    ("frames", "JstitFrame", "__init__", "frames.JstitFrame"),
    ("models", "JstitModel", "__init__", "models.JstitModel"),
    ("models", "Universe", "close", "models.Universe.close"),
)

VIOLATION_CODES = (
    "evidence-monotonicity", "evidence-closure-app", "evidence-closure-sum",
    "evidence-closure-check", "act-expansion", "act-new-proofs",
    "act-undivided", "act-transparency", "cs-normality",
)

ITEM = "bench.item"


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = [
        ("syntax.render.calls", "count", "lower"),
        ("syntax.render.s", "s", "lower"),
        ("syntax.parse_formula.calls", "count", "lower"),
        ("syntax.parse_formula.s", "s", "lower"),
        ("frames.theta.calls", "count", "lower"),
        ("frames.theta.s", "s", "lower"),
        ("frames.theta.members", "count", "lower"),
        ("frames.theta.us_per_member", "us", "lower"),
        ("frames.is_regular.s", "s", "lower"),
        ("frames.is_mixsucc.s", "s", "lower"),
        ("frames.validate_frame.s", "s", "lower"),
        ("frames.JstitFrame.calls", "count", "lower"),
        ("frames.JstitFrame.s", "s", "lower"),
        ("models.validate_model.calls", "count", "lower"),
        ("models.validate_model.s", "s", "lower"),
        ("models.validate_model.self_s", "s", "lower"),
        ("models.validate_model.rejected", "count", "lower"),
    ]
    out += [(f"models.validate_model.rejected.{c}", "count", "lower")
            for c in VIOLATION_CODES]
    out += [
        ("models.validate_model.accept_ratio", "ratio", "higher"),
        ("models.JstitModel.calls", "count", "lower"),
        ("models.JstitModel.s", "s", "lower"),
        ("models.Universe.close.s", "s", "lower"),
        ("semantics.find_countermodel.calls", "count", "lower"),
        ("semantics.find_countermodel.s", "s", "lower"),
        ("semantics.find_countermodel.self_s", "s", "lower"),
        ("semantics.candidates", "count", "lower"),
        ("semantics.candidates_per_s", "1/s", "higher"),
        ("semantics.bound_hits", "count", "lower"),
        ("semantics.satisfies.calls", "count", "lower"),
        ("semantics.satisfies.s", "s", "lower"),
        ("calculus.verify_proof.s", "s", "lower"),
        ("calculus.match_axiom.calls", "count", "lower"),
        ("calculus.match_axiom.s", "s", "lower"),
        ("countermodels.build.calls", "count", "lower"),
        ("countermodels.build.s", "s", "lower"),
        ("documents.load_model.s", "s", "lower"),
        ("documents.load_frame.s", "s", "lower"),
        ("documents.load_proof.s", "s", "lower"),
        ("documents.countermodel_document.s", "s", "lower"),
        ("documents.canonical_json.s", "s", "lower"),
        ("documents.bytes_out", "bytes", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
    ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("bench.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.accounted_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Wraps the traced functions of one imported package and records spans."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.nested = array("b")     # an enclosing span has the same name
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []
        self._item = -1
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def _wrap(self, fn: Callable, span: str, hook: Optional[Callable] = None) -> Callable:
        nid = self._id(span)
        name, start, end, parent, item, nested = (
            self.name, self.start, self.end, self.parent, self.item, self.nested)
        stack, active, counts = self._stack, self._active, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            item.append(tracer._item)
            nested.append(active[nid] > 0)
            end.append(0.0)
            stack.append(i)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                counts[f"{span}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
                active[nid] -= 1
            if hook is not None:
                hook(result)
            return result

        return traced

    def _hooks(self) -> dict[str, Callable]:
        counts = self.counts
        violation = self.pkg.diagnostics.VIOLATION

        def validated(diags) -> None:
            codes = {d.code for d in diags if d.severity == violation}
            if codes:
                counts["models.validate_model.rejected"] += 1
                for c in codes:
                    counts[f"models.validate_model.rejected.{c}"] += 1

        def theta_members(family) -> None:
            counts["frames.theta.members"] += len(family)

        def bytes_out(text: str) -> None:
            counts["documents.bytes_out"] += len(text.encode("utf-8"))

        return {"validate_model": validated, "theta": theta_members,
                "canonical_json": bytes_out}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "jastit" or name.startswith("jastit.")]
        hooks = self._hooks()
        for home, attr, span in FUNCTIONS:
            orig = getattr(getattr(self.pkg, home), attr)
            traced = self._wrap(orig, span, hooks.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, traced)
        for home, cls_name, meth, span in METHODS:
            cls = getattr(getattr(self.pkg, home), cls_name)
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, span)))
            else:
                setattr(cls, meth, self._wrap(raw, span))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def run_item(self, item_id: int, fn: Callable, *args):
        """Run one benchmark item inside a top-level span."""
        self._item = item_id
        return self._wrap(fn, ITEM)(*args)

    # -- aggregation

    def metrics(self, wall_s: float) -> dict[str, float]:
        n = len(self.start)
        names, name, parent, nested = self.names, self.name, self.parent, self.nested
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        total: Counter = Counter()      # outermost spans of a name, inclusive
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_self: Counter = Counter()
        search_id = self._ids.get("semantics.find_countermodel")
        candidates = 0
        for i in range(n):
            nm = names[name[i]]
            own = dur[i] - child[i]
            self_s[nm] += own
            layer_self[nm.split(".", 1)[0]] += own
            if not nested[i]:
                total[nm] += dur[i]
                calls[nm] += 1
            if nm == "models.JstitModel" and search_id is not None:
                p = parent[i]
                while p >= 0 and name[p] != search_id:
                    p = parent[p]
                candidates += p >= 0
        items_s = total[ITEM]
        c = self.counts
        members = c["frames.theta.members"]
        vcalls = calls["models.validate_model"]
        out = {
            "syntax.render.calls": calls["syntax.render"],
            "syntax.render.s": total["syntax.render"],
            "syntax.parse_formula.calls": calls["syntax.parse_formula"],
            "syntax.parse_formula.s": total["syntax.parse_formula"],
            "frames.theta.calls": calls["frames.theta"],
            "frames.theta.s": total["frames.theta"],
            "frames.theta.members": members,
            "frames.theta.us_per_member":
                1e6 * total["frames.theta"] / members if members else 0.0,
            "frames.is_regular.s": total["frames.is_regular"],
            "frames.is_mixsucc.s": total["frames.is_mixsucc"],
            "frames.validate_frame.s": total["frames.validate_frame"],
            "frames.JstitFrame.calls": calls["frames.JstitFrame"],
            "frames.JstitFrame.s": total["frames.JstitFrame"],
            "models.validate_model.calls": vcalls,
            "models.validate_model.s": total["models.validate_model"],
            "models.validate_model.self_s": self_s["models.validate_model"],
            "models.validate_model.rejected": c["models.validate_model.rejected"],
        }
        for code in VIOLATION_CODES:
            key = f"models.validate_model.rejected.{code}"
            out[key] = c[key]
        search_s = total["semantics.find_countermodel"]
        out.update({
            "models.validate_model.accept_ratio":
                (vcalls - c["models.validate_model.rejected"]) / vcalls if vcalls else 0.0,
            "models.JstitModel.calls": calls["models.JstitModel"],
            "models.JstitModel.s": total["models.JstitModel"],
            "models.Universe.close.s": total["models.Universe.close"],
            "semantics.find_countermodel.calls": calls["semantics.find_countermodel"],
            "semantics.find_countermodel.s": search_s,
            "semantics.find_countermodel.self_s": self_s["semantics.find_countermodel"],
            "semantics.candidates": candidates,
            "semantics.candidates_per_s": candidates / search_s if search_s else 0.0,
            "semantics.bound_hits":
                c["semantics.find_countermodel.raised.ResourceBoundExceeded"],
            "semantics.satisfies.calls": calls["semantics.satisfies"],
            "semantics.satisfies.s": total["semantics.satisfies"],
            "calculus.verify_proof.s": total["calculus.verify_proof"],
            "calculus.match_axiom.calls": calls["calculus.match_axiom"],
            "calculus.match_axiom.s": total["calculus.match_axiom"],
            "countermodels.build.calls": calls["countermodels.build"],
            "countermodels.build.s": total["countermodels.build"],
            "documents.load_model.s": total["documents.load_model"],
            "documents.load_frame.s": total["documents.load_frame"],
            "documents.load_proof.s": total["documents.load_proof"],
            "documents.countermodel_document.s": total["documents.countermodel_document"],
            "documents.canonical_json.s": total["documents.canonical_json"],
            "documents.bytes_out": c["documents.bytes_out"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        bench_self = layer_self["bench"] + (wall_s - items_s)
        out["bench.self_s"] = bench_self
        out["trace.wall_s"] = wall_s
        accounted = sum(layer_self[layer] for layer in LAYERS) + bench_self
        out["trace.accounted_ratio"] = accounted / wall_s if wall_s else 0.0
        return out

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["start", "d"], ["end", "d"],
                       ["parent", "i"], ["item", "i"], ["nested", "b"]],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name, self.start, self.end, self.parent,
                        self.item, self.nested):
                arr.tofile(fh)
