"""Span tracing for the benchmark, installed from outside the package.

A span wraps one call into a gquad layer and records its name, start,
end, parent span and the job it ran for.  Wrappers replace a public
function at every place it is bound inside the package (its defining
module, each module that imported it, the package namespace), so calls
between layers are traced as well as the benchmark's own calls.  They
are installed only for a traced pass and removed afterwards; nothing
under ``src/`` knows about them.

Spans are kept in memory and written as JSON lines when the run ends.
"""

import functools
import json
import sys
import time
from contextlib import contextmanager

# (span name, defining module, attribute).  Several functions may share
# one span name; the four exhaustive verifiers report as one layer.
FUNCTIONS = [
    ("linalg.enumerate_singular", "gquad.linalg", "enumerate_singular"),
    ("linalg.mat_mul_batch", "gquad.linalg", "mat_mul_batch"),
    ("incidence.build_w3", "gquad.incidence", "build_w3"),
    ("incidence.build_qminus5", "gquad.incidence", "build_qminus5"),
    ("incidence.verify_gq", "gquad.incidence", "verify_gq"),
    ("incidence.payne_derive", "gquad.incidence", "payne_derive"),
    ("incidence.gq_isomorphic", "gquad.incidence", "gq_isomorphic"),
    ("incidence.aut_incidence", "gquad.incidence", "aut_incidence"),
    ("constructions.build_derived_model", "gquad.constructions",
     "build_derived_model"),
    ("constructions.ambient_stabiliser", "gquad.constructions",
     "ambient_stabiliser"),
    ("constructions.action_from_linear", "gquad.constructions",
     "action_from_linear"),
    ("constructions.build_gu513", "gquad.constructions", "build_gu513"),
    ("constructions.elation_group", "gquad.constructions", "elation_group"),
    ("constructions.shear_group", "gquad.constructions", "shear_group"),
    ("constructions.split_group", "gquad.constructions", "split_group"),
    ("constructions.verify", "gquad.constructions",
     "verify_elation_product_rule"),
    ("constructions.verify", "gquad.constructions",
     "verify_elation_commutator_rule"),
    ("constructions.verify", "gquad.constructions",
     "verify_conjugation_relations"),
    ("constructions.verify", "gquad.constructions", "sylow_exponent"),
    ("groups.invariant_report", "gquad.groups", "invariant_report"),
    ("groups.is_conjugate_subgroup", "gquad.groups",
     "is_conjugate_subgroup"),
    ("groups.is_isomorphic_small", "gquad.groups", "is_isomorphic_small"),
    ("groups.is_regular", "gquad.groups", "is_regular"),
    ("groups.is_normal", "gquad.groups", "is_normal"),
    ("search.enumerate_regular", "gquad.search", "enumerate_regular"),
    ("search.classify_classes", "gquad.search", "classify_classes"),
    ("search.sylow_subgroup", "gquad.search", "sylow_subgroup"),
    ("search.normaliser_gens", "gquad.search", "normaliser_gens"),
]

# GF.default is patched on the class; the others are spans the benchmark
# opens around its own calls (``bench.job`` around each job)
CLI_STEPS = ["build-gq", "payne", "verify", "enumerate-regular", "report"]
OTHER_SPANS = (["gf.default", "groups.PermGroup.order", "bench.job"]
               + [f"cli.{step}" for step in CLI_STEPS])

SPAN_NAMES = sorted({name for name, _, _ in FUNCTIONS} | set(OTHER_SPANS))


def _count_gens(args, result):
    return {"gens_in": len(getattr(args[0], "gens", ()))}


def _count_conjugate(args, result):
    from gquad.groups import UNKNOWN
    return {"unknown": int(result is UNKNOWN),
            "hits": int(result is not None and result is not UNKNOWN)}


def _count_regular(args, result):
    return {"true": int(bool(result))}


def _count_gens_out(args, result):
    return {"gens_out": len(result)}


COUNTERS = {
    "groups.invariant_report": _count_gens,
    "groups.is_conjugate_subgroup": _count_conjugate,
    "groups.is_regular": _count_regular,
    "search.normaliser_gens": _count_gens_out,
}

# counters reported directly, and ratios reported as numerator / calls
COUNT_METRICS = [
    ("groups.invariant_report", "gens_in"),
    ("groups.is_conjugate_subgroup", "unknown"),
    ("search.normaliser_gens", "gens_out"),
]
RATIO_METRICS = [
    ("groups.is_conjugate_subgroup", "hit_ratio", "hits"),
    ("groups.is_regular", "true_ratio", "true"),
]


class Tracer:
    """Collects spans for one run; ``job`` labels the spans that follow."""

    def __init__(self):
        self.spans = []     # [id, parent, name, job, pass, start, end, outer]
        self.counts = {}    # (pass, name, counter) -> int
        self.job = None
        self.pass_no = 0
        self._stack = []
        self._open = {}     # span name -> nesting depth

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        outer = not self._open.get(name)
        rec = [sid, parent, name, self.job, self.pass_no,
               time.perf_counter(), None, outer]
        self.spans.append(rec)
        self._stack.append(sid)
        self._open[name] = self._open.get(name, 0) + 1
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[6] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, n in counter(args, result).items():
                k = (self.pass_no, name, key)
                self.counts[k] = self.counts.get(k, 0) + n
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Patch every gquad binding of the traced functions, then undo."""
        from gquad.gf import GF
        patches = []
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key.split(".")[0] != "gquad":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        default = GF.__dict__["default"]
        patches.append((GF, "default", default))
        GF.default = classmethod(self.wrap("gf.default", default.__func__))
        try:
            yield self
        finally:
            for owner, key, value in reversed(patches):
                setattr(owner, key, value)

    # -- reduction ---------------------------------------------------------

    def pass_stats(self, pass_no):
        """Per-span-name busy, self and call totals for one traced pass."""
        spans = [s for s in self.spans if s[4] == pass_no]
        child = {}
        for s in spans:
            if s[1] is not None:
                child[s[1]] = child.get(s[1], 0.0) + (s[6] - s[5])
        stats = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
                 for name in SPAN_NAMES}
        top = 0.0
        for sid, parent, name, _, _, start, end, outer in spans:
            st = stats[name]
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child.get(sid, 0.0)
            if outer:
                st["busy_s"] += dur
            if parent is None:
                top += dur
        counts = {}
        for (p, name, key), n in self.counts.items():
            if p == pass_no:
                counts[(name, key)] = n
        return stats, counts, top

    def write_jsonl(self, path, t0):
        """One JSON object per span, times in seconds from ``t0``."""
        with open(path, "w") as fh:
            for sid, parent, name, job, pass_no, start, end, _ in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "job": list(job) if job else None, "pass": pass_no,
                    "start": round(start - t0, 6),
                    "end": round(end - t0, 6)}) + "\n")
