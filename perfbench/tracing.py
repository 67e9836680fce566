"""Per-layer tracing by wrapping braidhom's public functions.

The tracer replaces each public function of a layer module with a
wrapper that records a span (name, start, end, parent span, operation
id) while an operation is running, in the defining module and in every
braidhom module that bound the same object under an import.  Spans stay
in memory and are written out when the run ends; the per-layer metrics
are derived from them afterwards.  A layer's self time is the duration
of its spans minus the time of wrapped children.
"""

import gzip
import json
import sys
import time
import types

LAYERS = ("cli", "verdict", "leray", "cohomology", "cyclotomic", "exactlin", "presentations")

# Class entry points that are traced besides module-level functions.
CLASS_ENTRIES = (
    ("cyclotomic", "CycContext", "__new__"),
    ("presentations", "Character", "from_json"),
    ("presentations", "CharacterTuple", "from_json"),
)

# Span names each derived metric needs; a metric whose names are gone
# is reported as unmeasured.
NEEDS = {
    "cli": ["cli.main"],
    "verdict": ["verdict.kahler_verdict"],
    "leray.e2": ["leray.e2_trivial"],
    "leray.b1": ["leray.b1_pure_braid"],
    "leray.twisted": ["leray.h1_twisted_pure_braid", "leray.sigma1_membership"],
    "cohomology.h1": ["cohomology.h1_dim"],
    "cohomology.h0": ["cohomology.h0_dim"],
    "cohomology.fox": ["cohomology.fox_jacobian"],
    "cohomology.abelianization": ["cohomology.abelianization"],
    "cohomology.tangent": ["cohomology.tangent_dim_at"],
    "cyclotomic.context": ["cyclotomic.CycContext.__new__"],
    "cyclotomic.rank": ["cyclotomic.rank_kernel"],
    "exactlin.snf": ["exactlin.elementary_divisors"],
    "presentations.catalog": ["presentations.catalog"],
    "presentations.parse": ["presentations.parse_presentation"],
    "presentations.character": [
        "presentations.Character.from_json",
        "presentations.CharacterTuple.from_json",
    ],
    "presentations.validate": ["presentations.validate_character"],
}

# (metric, unit, group in NEEDS); per-operation unless the unit says otherwise
METRICS = (
    ("cli.self_s", "s/op", "cli"),
    ("verdict.calls", "1/op", "verdict"),
    ("verdict.self_s", "s/op", "verdict"),
    ("leray.e2_s", "s/op", "leray.e2"),
    ("leray.e2_cells", "cells/op", "leray.e2"),
    ("leray.b1_self_s", "s/op", "leray.b1"),
    ("leray.twisted_calls", "1/op", "leray.twisted"),
    ("leray.twisted_calls_nested", "1/op", "leray.twisted"),
    ("leray.twisted_self_s", "s/op", "leray.twisted"),
    ("leray.membership_self_s", "s/op", "leray.twisted"),
    ("cohomology.h1_calls", "1/op", "cohomology.h1"),
    ("cohomology.h1_distinct", "1/op", "cohomology.h1"),
    ("cohomology.h1_distinct_ratio", "ratio", "cohomology.h1"),
    ("cohomology.h1_self_s", "s/op", "cohomology.h1"),
    ("cohomology.h0_calls", "1/op", "cohomology.h0"),
    ("cohomology.h0_s", "s/op", "cohomology.h0"),
    ("cohomology.fox_calls", "1/op", "cohomology.fox"),
    ("cohomology.fox_s", "s/op", "cohomology.fox"),
    ("cohomology.fox_letters", "letters/op", "cohomology.fox"),
    ("cohomology.abelianization_s", "s/op", "cohomology.abelianization"),
    ("cohomology.tangent_calls", "1/op", "cohomology.tangent"),
    ("cohomology.tangent_s", "s/op", "cohomology.tangent"),
    ("cyclotomic.context_builds", "1/op", "cyclotomic.context"),
    ("cyclotomic.context_s", "s/op", "cyclotomic.context"),
    ("cyclotomic.context_degree_max", "degree", "cyclotomic.context"),
    ("cyclotomic.rank_calls", "1/op", "cyclotomic.rank"),
    ("cyclotomic.rank_cyc_s", "s/op", "cyclotomic.rank"),
    ("cyclotomic.rank_q_s", "s/op", "cyclotomic.rank"),
    ("cyclotomic.rank_cells", "cells/op", "cyclotomic.rank"),
    ("cyclotomic.rank_field_cells", "cells/op", "cyclotomic.rank"),
    ("exactlin.snf_calls", "1/op", "exactlin.snf"),
    ("exactlin.snf_s", "s/op", "exactlin.snf"),
    ("exactlin.snf_cells", "cells/op", "exactlin.snf"),
    ("exactlin.snf_nnz", "cells/op", "exactlin.snf"),
    ("exactlin.snf_max_cells", "cells", "exactlin.snf"),
    ("presentations.catalog_calls", "1/op", "presentations.catalog"),
    ("presentations.catalog_s", "s/op", "presentations.catalog"),
    ("presentations.parse_s", "s/op", "presentations.parse"),
    ("presentations.character_calls", "1/op", "presentations.character"),
    ("presentations.character_s", "s/op", "presentations.character"),
    ("presentations.validate_calls", "1/op", "presentations.validate"),
    ("presentations.validate_s", "s/op", "presentations.validate"),
)


def _cyc_degree(one):
    ctx = getattr(one, "ctx", None)
    return getattr(ctx, "degree", 1)


def _attrs_rank(args, kwargs, result):
    rows, ncols, one = args[:3]
    return {"cells": len(rows) * ncols, "degree": _cyc_degree(one), "cyc": hasattr(one, "ctx")}


def _attrs_snf(args, kwargs, result):
    a = args[0]
    nnz = sum(len(r) - r.count(0) for r in a.rows)
    return {"cells": a.nrows * a.ncols, "nnz": nnz}


def _attrs_e2(args, kwargs, result):
    return {"cells": result.rank20 * result.rank01}


def _attrs_fox(args, kwargs, result):
    return {"letters": sum(len(r) for r in args[0].relators)}


def _attrs_h1(args, kwargs, result):
    p, phi = args[:2]
    try:
        key = hash((p, phi))
    except TypeError:
        key = id(phi)
    return {"key": key}


ATTRS = {
    "cyclotomic.rank_kernel": _attrs_rank,
    "exactlin.elementary_divisors": _attrs_snf,
    "leray.e2_trivial": _attrs_e2,
    "cohomology.fox_jacobian": _attrs_fox,
    "cohomology.h1_dim": _attrs_h1,
}


class Tracer:
    """Span store plus the wrappers that feed it.

    A span is [name, start, end, parent index, op id, attrs, overhead],
    where overhead is time spent inside the span computing attributes of
    descendants; it is taken off every duration derived from the span.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.wrapped = []
        self.missing = []
        self._contexts = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)
        tracer = self
        is_ctx = name == "cyclotomic.CycContext.__new__"

        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if is_ctx:
                if id(result) in tracer._contexts:
                    # a cache hit: no build happened and no child span was
                    # recorded, so the span is dropped to keep tracing cheap
                    del spans[-1]
                    return result
                tracer._contexts.add(id(result))
                rec[5] = {"built": True, "degree": getattr(result, "degree", 0)}
            elif attrs is not None:
                rec[5] = attrs(args, kwargs, result)
                spent = clock() - rec[2]
                for idx in stack:
                    spans[idx][6] += spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package="braidhom"):
        """Wrap every public function of each layer module, everywhere it
        is bound inside the package."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        targets = {}
        for layer in LAYERS:
            mod = modules.get("%s.%s" % (package, layer))
            if mod is None:
                self.missing.append(layer)
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    targets[id(obj)] = (obj, "%s.%s" % (layer, attr))
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])
        self.wrapped = sorted(name for _, name in targets.values())
        for layer, cls_name, meth in CLASS_ENTRIES:
            mod = modules.get("%s.%s" % (package, layer))
            cls = getattr(mod, cls_name, None) if mod else None
            raw = cls.__dict__.get(meth) if cls is not None else None
            name = "%s.%s.%s" % (layer, cls_name, meth)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, meth, type(raw)(self._wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(name, raw))
            self.wrapped.append(name)

    def calibrate(self, n=20000):
        """Seconds of tracing cost per recorded span, from a no-op."""
        probe = self._wrap("trace.probe", lambda: None)
        saved, self.op_id = self.op_id, -1
        base = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(n):
            probe()
        traced = time.perf_counter() - t0
        f = probe.__wrapped__
        t0 = time.perf_counter()
        for _ in range(n):
            f()
        bare = time.perf_counter() - t0
        del self.spans[base:]
        self.op_id = saved
        return max(traced - bare, 0.0) / n

    def dump(self, path, op_kinds):
        """Write the spans as gzipped JSON lines, after one header line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"op_kinds": op_kinds}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")


def _aggregate(spans, op_filter):
    """Per-layer totals over the spans whose op id passes ``op_filter``."""
    eff = [0.0] * len(spans)
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        eff[i] = (s[2] - s[1]) - s[6]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += eff[i]

    def self_time(i):
        return eff[i] - child[i]

    def has_ancestor(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    t = {}

    def add(key, v):
        t[key] = t.get(key, 0.0) + v

    h1_keys = set()
    char_names = set(NEEDS["presentations.character"])
    for i, s in enumerate(spans):
        if not op_filter(s[4]):
            continue
        name = s[0]
        layer = name.split(".", 1)[0]
        a = s[5] or {}
        add("spans", 1)
        if layer == "cli":
            add("cli.self_s", self_time(i))
        elif layer == "verdict":
            add("verdict.self_s", self_time(i))
            if name == "verdict.kahler_verdict":
                add("verdict.calls", 1)
        if name == "leray.e2_trivial":
            add("leray.e2_s", eff[i])
            add("leray.e2_cells", a.get("cells", 0))
        elif name == "leray.b1_pure_braid":
            add("leray.b1_self_s", self_time(i))
        elif name == "leray.h1_twisted_pure_braid":
            add("leray.twisted_calls", 1)
            add("leray.twisted_self_s", self_time(i))
            if has_ancestor(i, {"leray.sigma1_membership"}):
                add("leray.twisted_calls_nested", 1)
        elif name == "leray.sigma1_membership":
            add("leray.membership_self_s", self_time(i))
        elif name == "cohomology.h1_dim":
            add("cohomology.h1_calls", 1)
            add("cohomology.h1_self_s", self_time(i))
            h1_keys.add(a.get("key"))
        elif name == "cohomology.h0_dim":
            add("cohomology.h0_calls", 1)
            add("cohomology.h0_s", eff[i])
        elif name == "cohomology.fox_jacobian":
            add("cohomology.fox_calls", 1)
            add("cohomology.fox_s", eff[i])
            add("cohomology.fox_letters", a.get("letters", 0))
        elif name == "cohomology.abelianization":
            add("cohomology.abelianization_s", eff[i])
        elif name == "cohomology.tangent_dim_at":
            add("cohomology.tangent_calls", 1)
            add("cohomology.tangent_s", eff[i])
        elif name == "cyclotomic.CycContext.__new__":
            if a.get("built"):
                add("cyclotomic.context_builds", 1)
                add("cyclotomic.context_s", eff[i])
                t["cyclotomic.context_degree_max"] = max(
                    t.get("cyclotomic.context_degree_max", 0), a.get("degree", 0))
        elif name == "cyclotomic.rank_kernel":
            add("cyclotomic.rank_calls", 1)
            add("cyclotomic.rank_cyc_s" if a.get("cyc") else "cyclotomic.rank_q_s", eff[i])
            add("cyclotomic.rank_cells", a.get("cells", 0))
            add("cyclotomic.rank_field_cells", a.get("cells", 0) * a.get("degree", 1))
        elif name == "exactlin.elementary_divisors":
            add("exactlin.snf_calls", 1)
            add("exactlin.snf_s", eff[i])
            add("exactlin.snf_cells", a.get("cells", 0))
            add("exactlin.snf_nnz", a.get("nnz", 0))
            t["exactlin.snf_max_cells"] = max(t.get("exactlin.snf_max_cells", 0), a.get("cells", 0))
        elif name == "presentations.catalog":
            if not has_ancestor(i, {"presentations.catalog"}):
                add("presentations.catalog_calls", 1)
                add("presentations.catalog_s", eff[i])
        elif name == "presentations.parse_presentation":
            add("presentations.parse_s", eff[i])
        elif name in char_names:
            if not has_ancestor(i, char_names):
                add("presentations.character_calls", 1)
                add("presentations.character_s", eff[i])
        elif name == "presentations.validate_character":
            add("presentations.validate_calls", 1)
            add("presentations.validate_s", eff[i])
    t["cohomology.h1_distinct"] = len(h1_keys)
    return t


def layer_metrics(tracer, op_ids, span_cost):
    """Per-layer metrics over the operations in ``op_ids``, normalised per
    operation; maxima and ratios are left as they are."""
    wanted = set(op_ids)
    t = _aggregate(tracer.spans, wanted.__contains__)
    ops = max(len(wanted), 1)
    have = set(tracer.wrapped)
    out = {}
    for metric, unit, group in METRICS:
        gone = [n for n in NEEDS[group] if n not in have]
        if gone:
            out[metric] = {"value": None, "unit": unit, "unmeasured": "not found: " + ", ".join(gone)}
            continue
        if metric == "cohomology.h1_distinct_ratio":
            calls = t.get("cohomology.h1_calls", 0)
            value = t.get("cohomology.h1_distinct", 0) / calls if calls else 0.0
        elif unit in ("degree", "cells"):
            value = t.get(metric, 0)
        else:
            value = t.get(metric, 0) / ops
        out[metric] = {"value": value, "unit": unit}
    spans = t.get("spans", 0)
    out["trace.spans"] = {"value": spans / ops, "unit": "1/op"}
    out["trace.overhead_est_s"] = {"value": spans * span_cost / ops, "unit": "s/op"}
    return out
