"""The benchmark's workloads and the closed loop that times them.

A workload runs one or more parts; a part is a list of jobs.  A job is
one call, or a short chain of calls, into gquad; it returns its checks as
``(what, got, expected)`` triples, with expected values from
``pins.PINS``.  A job that raises or fails a check counts as one failed
operation.  One pass runs every job once, in order, with the reference
loop (``loop_time``) before each job and after the last.  A run repeats
passes back to back (a closed loop with one client: the next job starts
when the previous one and the reference loop have returned) until another
pass would overrun the time budget.

Inputs come from the seed and are made before the passes, outside their
timer.  ``census`` is seed-independent: the CLI pipeline only accepts the
canonical model and every q it runs is prime.

Calls into gquad go through module attributes (``inc.build_w3``), so the
wrappers that ``spans.Tracer.installed`` puts in place see them.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import gquad.cli as cli
import gquad.constructions as cons
import gquad.gf as gf
import gquad.groups as groups
import gquad.incidence as inc
import gquad.search as search

from spans import Tracer

VERIFIERS = ("verify_elation_product_rule", "verify_elation_commutator_rule",
             "verify_conjugation_relations", "sylow_exponent")

# what one pass covers, per part and size; "smoke" is for the benchmark's
# own tests and finishes in seconds
SIZES = {
    "census": {"full": {"qs": (2, 3, 5)}, "smoke": {"qs": (2, 3)}},
    "geometry": {"full": {"q": 5, "gu513": True},
                 "smoke": {"q": 3, "gu513": False}},
    "matrix-groups": {"full": {"ledger": (9,),
                               "verify": {4: VERIFIERS,
                                          8: ("sylow_exponent",)}},
                      "smoke": {"ledger": (4,), "verify": {4: VERIFIERS}}},
    "sylow-climb": {"full": {"aut": (3, 4), "climb": (3,), "normal": (4,)},
                    "smoke": {"aut": (3,), "climb": (3,), "normal": (4,)}},
}


@dataclass
class Job:
    q: int | None
    step: str
    fn: Callable    # fn(ctx) -> list of (what, got, expected)


class Context:
    """What a job needs besides its inputs: the tracer, when tracing."""

    def __init__(self):
        self.tracer = None

    def span(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)


def _shape(gq):
    return gq.n_points, gq.n_lines


# ---------------------------------------------------------------------------
# census: the CLI pipeline build-gq -> payne -> verify -> enumerate-regular
# -> report, in-process, into a work directory
# ---------------------------------------------------------------------------

def _cli(ctx, step, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = ctx.span(f"cli.{step}", cli.run_cli, [step, *argv])
    return rc, out.getvalue()


def _census_q_jobs(q, d, pins, digests):
    w3 = os.path.join(d, f"w3-{q}.gq")
    der = os.path.join(d, f"derived-{q}.gq")
    table = os.path.join(d, f"regular-q{q}.json")

    def build(ctx):
        rc, _ = _cli(ctx, "build-gq", "--type", "w3", "--q", str(q),
                     "--out", w3)
        return [("exit code", rc, 0)]

    def payne(ctx):
        rc, out = _cli(ctx, "payne", "--gq", w3, "--out", der)
        return [("exit code", rc, 0),
                ("derived order in output",
                 f"order ({q - 1},{q + 1})" in out, True)]

    def verify(ctx):
        rc, out = _cli(ctx, "verify", "--gq", der)
        return [("exit code", rc, 0),
                ("verify output",
                 out.startswith(f"valid GQ({q - 1},{q + 1})"), True)]

    def enumerate_regular(ctx):
        rc, _ = _cli(ctx, "enumerate-regular", "--gq", der, "--out", table)
        with open(table, "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        classes = payload["classes"]
        # determinism contract: every pass of a run, traced or not,
        # writes the same bytes
        digest = hashlib.sha256(raw).hexdigest()
        return [("exit code", rc, 0),
                ("complete", payload["complete"], True),
                ("class count", payload["num_classes"], pins["classes"][q]),
                ("descriptions", sorted(c["description"] for c in classes),
                 pins["descriptions"][q]),
                ("template matches", {m: c["description"] for c in classes
                                      for m in c["matches"]},
                 pins["matches"][q]),
                ("table sha256 against the first pass",
                 digests.setdefault(q, digest), digest)]

    return [Job(q, "build-gq", build), Job(q, "payne", payne),
            Job(q, "verify", verify),
            Job(q, "enumerate-regular", enumerate_regular)], table


def _census(size, seed, pins, workdir, info):
    qs = SIZES["census"][size]["qs"]
    pins = pins["census"]
    digests = info["table_sha256"] = {}
    expected = "\n".join(["| q | classes | comments |", "|---|---|---|"]
                         + [pins["report_rows"][q] for q in qs]) + "\n"

    def make_pass(pass_no):
        d = os.path.join(workdir, f"census-{pass_no}")
        os.makedirs(d)
        jobs, tables = [], []
        for q in qs:
            q_jobs, table = _census_q_jobs(q, d, pins, digests)
            jobs += q_jobs
            tables.append(table)
        report = os.path.join(d, "report.md")

        def report_job(ctx):
            rc, _ = _cli(ctx, "report", "--tables", *tables, "--out", report)
            with open(report) as fh:
                return [("exit code", rc, 0),
                        ("report table", fh.read(), expected)]

        return jobs + [Job(None, "report", report_job)]

    return make_pass


# ---------------------------------------------------------------------------
# geometry: form enumeration, verification, derivation, automorphisms
# ---------------------------------------------------------------------------

def _geometry(size, seed, pins, workdir, info):
    cfg = SIZES["geometry"][size]
    q = cfg["q"]
    pins = pins["geometry"]
    rng = random.Random(f"geometry/{seed}")
    x = rng.randrange((q + 1) * (q * q + 1))     # derivation point
    x_iso = rng.randrange(40)                    # point of W(3,3)
    info["derivation points"] = {f"W(3,{q})": x,
                                 "W(3,3) for gq_isomorphic": x_iso}

    def make_pass(pass_no):
        st = {}

        def build_w3(ctx):
            st["k"] = gf.GF.default(q)
            st["w"] = inc.build_w3(st["k"])
            return [("W(3,q) size", _shape(st["w"]), pins["w3"][q])]

        def payne_derive(ctx):
            st["d"] = inc.payne_derive(st["w"], x)
            return [("derived size", _shape(st["d"]), pins["derived"][q]),
                    ("derived order", st["d"].order(), (q - 1, q + 1))]

        def verify(ctx):
            return [("W(3,q)", inc.verify_gq(st["w"], q, q), []),
                    ("derived", inc.verify_gq(st["d"], q - 1, q + 1), [])]

        def aut(ctx):
            return [("Aut order", inc.aut_incidence(st["d"]).order(),
                     pins["aut_derived"][q])]

        def qminus5(ctx):
            qm = inc.build_qminus5(st["k"])
            return [("Q-(5,q) size", _shape(qm), pins["qminus5"][q]),
                    ("Q-(5,q)", inc.verify_gq(qm, q, q * q), [])]

        def isomorphic(ctx):
            # derived W(3,3) is isomorphic to Q-(5,2) at every point
            d = inc.payne_derive(inc.build_w3(gf.GF.default(3)), x_iso)
            target = inc.build_qminus5(gf.GF.default(2))
            iso = inc.gq_isomorphic(d, target)
            mapped = None if iso is None else \
                {tuple(sorted(iso[p] for p in line)) for line in d.lines}
            return [("Q-(5,2) size", _shape(target), pins["qminus5"][2]),
                    ("lines mapped to lines", mapped, set(target.lines))]

        def gu513(ctx):
            group, gq = cons.build_gu513()
            p = pins["gu513"]
            return [("Q-(5,8) size", _shape(gq), (p["points"], p["lines"])),
                    ("Q-(5,8) order", gq.order(), p["order"]),
                    ("regular group order",
                     ctx.span("groups.PermGroup.order", group.order),
                     p["group_order"])]

        jobs = [Job(q, "build_w3", build_w3),
                Job(q, "payne_derive", payne_derive),
                Job(q, "verify_gq", verify),
                Job(q, "aut_incidence", aut),
                Job(q, "build_qminus5", qminus5),
                Job(3, "gq_isomorphic", isomorphic)]
        if cfg["gu513"]:
            jobs.append(Job(8, "build_gu513", gu513))
        return jobs

    return make_pass


# ---------------------------------------------------------------------------
# matrix-groups: the lemma ledger over GF(q) matrices
# ---------------------------------------------------------------------------

def irreducible_moduli(p, f):
    """Every monic irreducible polynomial of degree f over GF(p)."""
    out = []
    for low in itertools.product(range(p), repeat=f):
        try:
            gf.GF(p=p, f=f, modulus=low + (1,))
        except gf.NotIrreducibleError:
            continue
        out.append(low + (1,))
    return out


def _matrix_groups(size, seed, pins, workdir, info):
    cfg = SIZES["matrix-groups"][size]
    pins = pins["matrix-groups"]
    rng = random.Random(f"matrix-groups/{seed}")
    fields = {}
    for q in sorted(set(cfg["ledger"]) | set(cfg["verify"])):
        base = gf.GF(q)
        fields[q] = gf.GF(p=base.p, f=base.f, modulus=rng.choice(
            irreducible_moduli(base.p, base.f)))
    info["moduli"] = {q: k.modulus for q, k in fields.items()}
    group_fns = {"E": "elation_group", "P": "shear_group", "S": "split_group"}
    ledger = ("order", "exponent", "centre_order", "derived_order")

    def ledger_jobs(q):
        k = fields[q]
        st = {}
        jobs = []
        for name, fn_name in group_fns.items():
            def build(ctx, name=name, fn_name=fn_name):
                st[name] = getattr(cons, fn_name)(k)
                return []

            def report(ctx, name=name):
                rep = groups.invariant_report(st[name])
                return [(f"{name} ledger", tuple(rep[f] for f in ledger),
                         pins["ledger"][q][name])]

            jobs += [Job(q, fn_name, build),
                     Job(q, f"invariant_report:{name}", report)]

        def isomorphic(ctx):
            return [("E ~ P", groups.is_isomorphic_small(st["E"], st["P"]),
                     None)]

        return jobs + [Job(q, "is_isomorphic_small", isomorphic)]

    def verify_jobs(q, names):
        k = fields[q]
        expected = {"verify_elation_product_rule": [],
                    "verify_elation_commutator_rule": [],
                    "verify_conjugation_relations": {
                        "conjugate": [], "commutator": [], "product": [],
                        "shear_commutator": []},
                    "sylow_exponent": pins["sylow_exponent"].get(q)}
        jobs = []
        for fn_name in names:
            def job(ctx, fn_name=fn_name):
                return [(fn_name, getattr(cons, fn_name)(k),
                         expected[fn_name])]
            jobs.append(Job(q, fn_name, job))
        return jobs

    def make_pass(pass_no):
        return ([job for q in cfg["ledger"] for job in ledger_jobs(q)]
                + [job for q, names in cfg["verify"].items()
                   for job in verify_jobs(q, names)])

    return make_pass


# ---------------------------------------------------------------------------
# sylow-climb: Aut of a relabelled derived quadrangle, its stabiliser
# chain, the Sylow climb and the normality contrast
# ---------------------------------------------------------------------------

def relabel(gq, sigma):
    """The same quadrangle with point i renamed sigma[i]."""
    labels = [None] * gq.n_points
    for i, lab in enumerate(gq.labels):
        labels[sigma[i]] = lab
    return inc.Quadrangle(gq.n_points,
                          [[sigma[p] for p in line] for line in gq.lines],
                          s=gq.s, t=gq.t, labels=labels, name=gq.name)


def _carry(g, sigma):
    """The permutation g acting on points renamed by sigma."""
    images = [0] * len(sigma)
    for i, j in enumerate(g.arr):
        images[sigma[i]] = sigma[int(j)]
    return groups.Permutation(images)


def _sylow_climb(size, seed, pins, workdir, info):
    """Inputs: each derived quadrangle under a seeded point relabelling.

    The climb is ``sylow_subgroup`` in Aut at q = 3 (order 81 in 51840).
    The climb ``enumerate-regular`` makes at q = 4 (order 1024 in 138240)
    is left out: it is one call of 25-45 s, more than half a run, so a run
    could not time it more than once.  Aut at q = 4 still gets its
    stabiliser chain, ``aut_incidence`` and the E/P normality contrast.
    The ambient is Aut generated by the canonical model's automorphism
    generators, as the CLI finds them, carried along by the relabelling.
    The climb then takes the CLI's path on every seed (which p-element it
    adjoins first decides its cost, and with Aut's generators as found on
    a relabelled quadrangle that cost varies several-fold), while the
    labelling still changes the stabiliser chains, the subgroup keys and
    ``aut_incidence``'s search.  The ``aut_incidence`` job checks that the
    carried generators give exactly the Aut it finds.
    """
    cfg = SIZES["sylow-climb"][size]
    pins = pins["sylow-climb"]
    inputs = {}
    for q in sorted(set(cfg["aut"]) | set(cfg["climb"]) | set(cfg["normal"])):
        model = cons.build_derived_model(gf.GF.default(q))
        sigma = list(range(model.gq.n_points))
        random.Random(f"sylow-climb/{seed}/{q}").shuffle(sigma)
        gens = [_carry(g, sigma) for g in inc.aut_incidence(model.gq).gens]
        inputs[q] = (model.field, relabel(model.gq, sigma), gens)
    info["labelling"] = f"seeded shuffle per q, from sylow-climb/{seed}/<q>"

    def q_jobs(q):
        k, gq, gens = inputs[q]
        st = {}

        def chain(ctx):
            st["amb"] = groups.PermGroup(gq.n_points, gens)
            return [("stabiliser chain order",
                     ctx.span("groups.PermGroup.order", st["amb"].order),
                     pins["aut"][q])]

        def aut(ctx):
            found = inc.aut_incidence(gq)
            return [("Aut order", found.order(), pins["aut"][q]),
                    ("carried generators in Aut",
                     all(found.contains(g) for g in gens), True)]

        def climb(ctx):
            syl = search.sylow_subgroup(st["amb"], k.p)
            return [("Sylow order", syl.order(), pins["sylow"][q]),
                    ("Sylow generators in Aut",
                     all(st["amb"].contains(g) for g in syl.gens), True)]

        def normal(ctx):
            e = cons.action_from_linear(k, cons.elation_gens(k), gq)
            p = cons.action_from_linear(k, cons.shear_gens(k), gq)
            return [("(E normal, P normal)",
                     (groups.is_normal(st["amb"], e),
                      groups.is_normal(st["amb"], p)), pins["normal"][q])]

        jobs = [Job(q, "stabiliser_chain", chain)]
        if q in cfg["aut"]:
            jobs.append(Job(q, "aut_incidence", aut))
        if q in cfg["climb"]:
            jobs.append(Job(q, "sylow_subgroup", climb))
        if q in cfg["normal"]:
            jobs.append(Job(q, "is_normal", normal))
        return jobs

    def make_pass(pass_no):
        return [job for q in sorted(inputs) for job in q_jobs(q)]

    return make_pass


PARTS = {
    "census": _census,
    "geometry": _geometry,
    "matrix-groups": _matrix_groups,
    "sylow-climb": _sylow_climb,
}

# census and the climb load the permutation-group and search code;
# geometry and the matrix ledger share none of the search code.  Each
# pair runs as one workload so that a run has room for many passes.
WORKLOADS = {
    "census-climb": ("census", "sylow-climb"),
    "geometry-ledger": ("geometry", "matrix-groups"),
}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

# The reference loop runs before every job of a pass and after its last
# job, outside the job timers.  Its mean time in a pass gauges the host's
# speed during that pass; REF_NOMINAL_S is its median time on a 2-vCPU
# Xeon (Sapphire Rapids, 2.0 GHz) KVM guest.
REF_ITERATIONS = 300_000
REF_NOMINAL_S = 0.017


def loop_time(iterations=REF_ITERATIONS):
    """Time a fixed pure-Python loop: a gauge of host speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return time.perf_counter() - t0


@dataclass
class Pass:
    wall_s: float   # summed over the jobs, reference loops left out
    cpu_s: float
    ref_s: float    # mean time of the reference loop in this pass
    traced: bool


@dataclass
class RunResult:
    passes: list
    attempted: int
    failed: int
    problems: list
    tracer: Tracer | None

    def median(self, attr, traced=False):
        return statistics.median(getattr(p, attr) for p in self.passes
                                 if p.traced == traced)

    def normalised(self, attr):
        """Median untraced pass time at the reference loop's nominal speed.

        Each pass's time is scaled by REF_NOMINAL_S / the pass's mean
        reference-loop time, so a spell in which the host runs everything
        slower scales the loop and the jobs alike and drops out.
        """
        return statistics.median(getattr(p, attr) * REF_NOMINAL_S / p.ref_s
                                 for p in self.passes if not p.traced)


def _problems(job, ctx):
    try:
        checks = ctx.span("bench.job", job.fn, ctx)
    except Exception as exc:    # a failed operation; the run goes on
        return [f"raised {type(exc).__name__}: {exc}"]
    return [f"{what}: got {got!r}, expected {want!r}"
            for what, got, want in checks if got != want]


def run_workload(name, *, size="full", seed=0, seconds=10.0, trace=False,
                 pins=None, workdir, info=None):
    """Run passes of one workload until the next would overrun ``seconds``.

    ``seconds`` counts from the call, so making the inputs takes from it.
    At least one pass runs, two with ``trace``: the passes then alternate
    untraced and traced, so one run gives both the per-layer spans and
    the tracing overhead.
    """
    t0 = time.perf_counter()
    if pins is None:
        from pins import PINS as pins
    info = {} if info is None else info
    parts = [(part, PARTS[part](size, seed, pins, workdir, info))
             for part in WORKLOADS[name]]
    tracer = Tracer() if trace else None
    ctx = Context()
    passes, durations, problems = [], [], []
    attempted = failed = 0
    while True:
        pass_no = len(passes)
        jobs = [(part, job) for part, make_pass in parts
                for job in make_pass(pass_no)]
        traced = trace and pass_no % 2 == 1
        ctx.tracer = tracer if traced else None
        if traced:
            tracer.pass_no = pass_no
        installed = tracer.installed() if traced else contextlib.nullcontext()
        p0 = time.perf_counter()
        wall = cpu = 0.0
        refs = []
        with installed:
            for part, job in jobs:
                job_id = (part, job.q, job.step)
                if traced:
                    tracer.job = job_id
                refs.append(loop_time())
                c0, w0 = time.process_time(), time.perf_counter()
                found = _problems(job, ctx)
                wall += time.perf_counter() - w0
                cpu += time.process_time() - c0
                attempted += 1
                failed += bool(found)
                problems += [f"pass {pass_no} {job_id}: {p}" for p in found]
        refs.append(loop_time())
        passes.append(Pass(wall, cpu, statistics.fmean(refs), traced))
        durations.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - t0
        estimate = statistics.median(durations)
        if len(passes) >= (2 if trace else 1) and elapsed + estimate > seconds:
            break
    return RunResult(passes, attempted, failed, problems, tracer)
