"""Enumeration of point-regular subgroups up to ambient conjugacy.

A regular subgroup of Aut(GQ) has order equal to the point count, so when
that count is a prime power p^k every candidate lives inside a Sylow
p-subgroup of the ambient group, and since Sylow subgroups are conjugate it
suffices to enumerate order-p^k subgroups of a single one.  Inside a p-group
every proper subgroup lies under a maximal one, and the maximal subgroups
are exactly the preimages of the hyperplanes of the Frattini quotient, so
the search is a descent through maximal-subgroup chains with transitivity
pruning (a subgroup of an intransitive group is intransitive, and regular
means transitive of order n).  Maximal subgroups are masks over the
node's element table; only kept nodes and leaves become PermGroups.
Conjugate subgroups are fused by walking conjugation orbits, whose
steps are image arrays, not Permutations.

When the point count is not a prime power the Sylow route is unavailable
and ``enumerate_regular`` falls back to growing sharply transitive sets
on the ambient's element table, one candidate element at a time, which
is far slower and only sensible for small ambients.

Everything here is deterministic: no randomness, stable orderings, and the
resulting table is sorted by invariant fingerprint so repeated runs emit
byte-identical output.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .gf import _prime_power
from .groups import (
    FiniteGroup,
    PermGroup,
    Permutation,
    _base_keyer,
    _invert_rows,
    element_closure,
    find_isomorphism,
    invariant_report,
    is_regular,
    subgroup_key,
    subgroup_orbit,
)

__all__ = [
    "NotCompatibleError",
    "SearchBudget",
    "RegularClass",
    "RegularClassTable",
    "sylow_subgroup",
    "normaliser_gens",
    "enumerate_regular",
    "classify_classes",
    "describe_group",
]


class NotCompatibleError(ValueError):
    """The point count rules out any regular subgroup of the ambient."""


class _BudgetHit(Exception):
    """A budget ran out; a search raises it again with its ``leaves``
    found so far and its unexpanded ``frontier``."""

    def __init__(self, reason, leaves=None, frontier=()):
        super().__init__(reason)
        self.reason = reason
        self.leaves = leaves
        self.frontier = list(frontier)


@dataclass
class SearchBudget:
    """Limits on a search run; ``None`` means unlimited.

    ``seconds`` is wall-clock time, ``nodes`` counts units of work
    (Sylow-climb orbit steps and closure elements, subgroups built,
    conjugacy-orbit steps), all on one clock per enumeration.  Exhaustion
    never truncates a table silently: the result is marked incomplete and
    carries the unexplored frontier.
    """

    seconds: float | None = None
    nodes: int | None = None

    def __post_init__(self):
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("budget seconds must be positive")
        if self.nodes is not None and self.nodes <= 0:
            raise ValueError("budget node count must be positive")


class _Clock:
    def __init__(self, budget: SearchBudget | None):
        self.budget = budget or SearchBudget()
        self.t0 = time.monotonic()
        self.nodes = 0

    def tick(self, n: int = 1):
        self.nodes += n
        b = self.budget
        if b.nodes is not None and self.nodes > b.nodes:
            raise _BudgetHit(f"node budget {b.nodes} exhausted")
        if b.seconds is not None and time.monotonic() - self.t0 > b.seconds:
            raise _BudgetHit(f"time budget {b.seconds}s exhausted")


# ---------------------------------------------------------------------------
# Sylow subgroups and normalisers
# ---------------------------------------------------------------------------

def normaliser_gens(ambient: PermGroup, sub: PermGroup, *,
                    clock: "_Clock | None" = None) -> list[Permutation]:
    """Generators of the normaliser of ``sub`` in ``ambient``.

    Walks the conjugation orbit of the subgroup under the ambient
    generators and collects Schreier generators v * first^-1, which
    together with the subgroup's own generators generate the full
    normaliser.  Each conjugator first is inverted once, on the first
    step that returns to its conjugate.
    """
    if not sub.gens:
        return list(ambient.gens)
    out: list[Permutation] = list(sub.gens)
    ident = Permutation.identity(ambient.degree)
    seen = {g.arr.tobytes() for g in (ident, *out)}
    first_inv: dict[bytes, np.ndarray] = {}
    for key, v, first in subgroup_orbit(ambient, sub, clock):
        if first is v:
            continue
        finv = first_inv.get(key)
        if finv is None:
            finv = first_inv[key] = _invert_rows(first[None, :])[0]
        # v * first^-1: apply v, then first^-1
        s = finv[v]
        b = s.tobytes()
        if b not in seen:
            seen.add(b)
            out.append(Permutation(s, _checked=True))
    return out


def _p_part(n: int, p: int) -> int:
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def sylow_subgroup(ambient: PermGroup, p: int, *,
                   clock: "_Clock | None" = None) -> PermGroup:
    """A Sylow p-subgroup of ``ambient``.

    Grows a p-subgroup one generator at a time: while H is not yet Sylow,
    p divides |N(H)/H|, so the normaliser contains a p-element outside H,
    and adjoining it keeps the group a p-group because it normalises H.
    Each normaliser orbit step and each closure element ticks ``clock``,
    the caller's budget clock (none: unlimited).
    """
    full = _p_part(ambient.order(), p)
    clock = clock or _Clock(None)
    h = PermGroup(ambient.degree, [])
    while h.order() < full:
        ngens = normaliser_gens(ambient, h, clock=clock)
        n_grp = PermGroup(ambient.degree, ngens)
        found = None
        for e in element_closure(Permutation.identity(ambient.degree),
                                 n_grp.gens, clock=clock):
            o = e.order()
            cand = e ** (o // _p_part(o, p))
            if not cand.is_identity() and not h.contains(cand):
                found = cand
                break
        if found is None:
            raise RuntimeError("no extending p-element found; "
                               "normaliser closure is incomplete")
        h = PermGroup(ambient.degree, list(h.gens) + [found])
        if h.order() % p or full % h.order():
            raise RuntimeError("extension left the p-subgroup chain")
    return h


# ---------------------------------------------------------------------------
# result table
# ---------------------------------------------------------------------------

@dataclass
class RegularClass:
    rep: PermGroup
    class_id: int
    invariants: dict
    description: str
    matches: list[str] = field(default_factory=list)
    iso_class: int | None = None

    def as_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "order": self.invariants["order"],
            "description": self.description,
            "matches": list(self.matches),
            "iso_class": self.iso_class,
            "invariants": {k: v for k, v in self.invariants.items()},
            "generators": self.rep.rows.tolist(),
        }


@dataclass
class RegularClassTable:
    gq_name: str
    ambient_description: str
    n_points: int
    ambient_order: int
    strategy: str
    classes: list[RegularClass]
    complete: bool = True
    notes: list[str] = field(default_factory=list)
    frontier: list[list[list[int]]] = field(default_factory=list)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def as_dict(self) -> dict:
        return {
            "gq": self.gq_name,
            "ambient": self.ambient_description,
            "n_points": self.n_points,
            "ambient_order": self.ambient_order,
            "strategy": self.strategy,
            "num_classes": self.num_classes,
            "complete": self.complete,
            "notes": list(self.notes),
            "frontier": self.frontier,
            "classes": [c.as_dict() for c in self.classes],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            f"# Point-regular subgroup classes on {self.gq_name}",
            "",
            f"Ambient: {self.ambient_description} "
            f"(order {self.ambient_order}), strategy: {self.strategy}.",
            "",
            "| class | order | description | matches | exponent "
            "| centre | derived |",
            "|---|---|---|---|---|---|---|",
        ]
        for c in self.classes:
            inv = c.invariants
            lines.append(
                f"| {c.class_id} | {inv['order']} | {c.description} "
                f"| {', '.join(c.matches) or '-'} | {inv['exponent']} "
                f"| {inv['centre_order']} | {inv['derived_order']} |")
        if not self.complete:
            lines += ["", "Incomplete: " + "; ".join(self.notes)]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure descriptions
# ---------------------------------------------------------------------------

def describe_group(inv: Mapping) -> str:
    """A short structural name from an invariant report.

    Covers the orders that actually occur in regular-subgroup tables
    (p^3 and small 2-groups); anything else falls back to order/exponent.
    """
    n = inv["order"]
    exp = inv["exponent"]
    hist = dict(map(tuple, inv["element_order_histogram"]))
    if n == 8:
        if inv["is_abelian"]:
            return {2: "C2 x C2 x C2", 4: "C4 x C2", 8: "C8"}[exp]
        return "D8" if hist.get(2, 0) == 5 else "Q8"
    pk = _prime_power(n)
    if pk and pk[1] == 3:
        p = pk[0]
        if inv["is_abelian"]:
            if exp == p:
                return f"C{p} x C{p} x C{p}"
            if exp == p * p:
                return f"C{p * p} x C{p}"
            return f"C{n}"
        return f"extraspecial {n} of exponent {exp}"
    abel = "abelian" if inv["is_abelian"] else "nonabelian"
    return f"{abel} of order {n}, exponent {exp}"


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------

def _descend(sylow: PermGroup, target: int, clock: "_Clock",
             ambient: PermGroup):
    """All regular subgroups of order ``target`` inside the Sylow group,
    as (subgroup key, group) pairs.

    A node's maximal subgroups are judged as masks over its element
    table: the order is the popcount, and transitive (so regular, at
    order ``target`` = n) means point 0 has every point as an image.  A
    budget hit carries the leaves so far and the frontier, the
    generators of the unexpanded internal nodes.
    """
    n = sylow.degree
    base, key_of = _base_keyer(ambient)
    leaves: list[tuple[bytes, PermGroup]] = []
    # the orders differ between layers, so one key set serves them all
    seen: set[bytes] = set()
    layer = [sylow]
    try:
        while layer:
            nxt: list[tuple[bytes, PermGroup]] = []
            for h in layer:
                hf = FiniteGroup.from_permgroup(h)
                for mask, gens in hf._maximal_masks():
                    clock.tick()
                    sub = hf.rows[mask]
                    if np.unique(sub[:, 0]).size < n:
                        continue
                    key = key_of(sub[:, base])
                    if key not in seen:
                        seen.add(key)
                        m = PermGroup(n, hf.rows[gens])
                        kept = leaves if len(sub) == target else nxt
                        kept.append((key, m))
            # fuse conjugate internal nodes before descending further;
            # conjugate groups have conjugate subgroup lattices
            layer = (_fuse(ambient, nxt, clock)[0] if len(nxt) > 1
                     else [m for _, m in nxt])
    except _BudgetHit:
        frontier = [h.rows.tolist() for h in layer]
        raise _BudgetHit("descent interrupted", leaves, frontier) from None
    return leaves


def _fuse(ambient: PermGroup, keyed: list[tuple[bytes, PermGroup]],
          clock: "_Clock"):
    """One representative per ambient-conjugacy class, and its orbit keys.

    ``keyed`` holds (subgroup key, group) pairs.  The first group of
    each class, in input order, is kept; its conjugation orbit is walked
    once, and a later group is a conjugate exactly when its key lies in
    a kept group's orbit.
    """
    reps: list[PermGroup] = []
    orbits: list[set] = []
    seen: set = set()
    for key, s in keyed:
        if key in seen:
            continue
        orbit = {k for k, _, _ in subgroup_orbit(ambient, s, clock)}
        seen |= orbit
        reps.append(s)
        orbits.append(orbit)
    return reps, orbits


def _transversal_search(ambient: PermGroup, n: int, clock: "_Clock"):
    """Regular subgroups as (subgroup key, group) pairs, by growing
    sharply transitive closed sets on the ambient's element table.

    The candidates are the fixed-point-free elements whose order divides
    n, bucketed by where they send point 0 and in the byte order of their
    rows.  A group is a sorted index array, grown by the table's products
    and dropped once it holds a non-candidate or outgrows n.  Only viable
    for small ambient groups; the Sylow descent is the main route.
    """
    table = FiniteGroup.from_permgroup(ambient)
    clock.tick(table.order - 1)     # one per element, as its closure ticks
    rows, deg = table.rows, ambient.degree
    base, key_of = _base_keyer(ambient)
    ok = (rows != np.arange(deg, dtype=rows.dtype)).all(axis=1)
    ok[ok] = table.power(np.flatnonzero(ok), n) == 0
    cand = np.flatnonzero(ok)
    cand = cand[np.lexsort(rows[cand].view(np.uint8).T[::-1])]
    cand = cand[np.argsort(rows[cand, 0], kind="stable")]
    starts = np.searchsorted(rows[cand, 0], np.arange(deg + 1))
    found: list[tuple[bytes, PermGroup]] = []
    # every group reaches grow at most once
    visited = set()

    def extend(members: np.ndarray, gens: list[int], new: np.ndarray):
        # the group generated by members (by gens[:-1]) and gens[-1], from
        # the coset new = members * gens[-1]; None when it cannot lie in a
        # regular group of order n
        mask = np.zeros(table.order, dtype=bool)
        mask[members] = True
        size = len(members)
        while (new := np.unique(new[~mask[new]])).size:
            size += len(new)
            if size > n or not ok[new].all():
                return None
            mask[new] = True
            new = table.mul(new[:, None], gens).ravel()
        return None if n % size else np.flatnonzero(mask)

    def grow(members: np.ndarray, gens: list[int]):
        clock.tick()
        if len(members) == n:
            found.append((key_of(rows[members][:, base]),
                          PermGroup(deg, rows[gens])))
            return
        t = np.setdiff1d(np.arange(deg), rows[members, 0])[0]
        bucket = cand[starts[t]:starts[t + 1]]
        # the cosets members * g of the whole bucket in one walk
        cosets = table.mul(members[:, None], bucket)
        viable = ok[cosets].all(axis=0)
        for g, coset in zip(bucket[viable].tolist(), cosets.T[viable]):
            new = extend(members, gens + [g], coset)
            if new is not None and (key := new.tobytes()) not in visited:
                visited.add(key)
                grow(new, gens + [g])

    try:
        grow(np.zeros(1, dtype=np.intp), [])
    except _BudgetHit:
        raise _BudgetHit("transversal search interrupted", found) from None
    return found


def _sorted_rows_digest(group: PermGroup) -> bytes:
    """sha256 of the sorted element rows: the class-order tie-break."""
    rows = np.unique(FiniteGroup.from_permgroup(group).rows, axis=0)
    return hashlib.sha256(rows.tobytes()).digest()


def enumerate_regular(gq, ambient: PermGroup, budget=None, *,
                      sylow: PermGroup | None = None,
                      templates: Mapping[str, PermGroup] | None = None,
                      ) -> RegularClassTable:
    """All point-regular subgroups of ``ambient``, up to conjugacy.

    ``gq`` is the quadrangle the ambient acts on (only its name and point
    count are used here; the caller fixes the action).  ``sylow`` may carry
    a precomputed Sylow p-subgroup to skip the normaliser climb.
    ``templates`` maps names to known regular subgroups; each class is
    tagged with the names it is conjugate to.  A given Sylow group or a
    template that does not fit the ambient raises ``ValueError`` before
    any search work.

    One budget clock covers the whole run: the Sylow climb, the descent
    and the conjugacy fusion.  Budget exhaustion marks the table
    incomplete and records the unexplored frontier; it never truncates
    silently.
    """
    n = gq.n_points
    if ambient.degree != n:
        raise ValueError("ambient degree does not match the point count")
    amb_order = ambient.order()
    if amb_order % n:
        raise NotCompatibleError(
            f"point count {n} does not divide the ambient order {amb_order}")
    # a template matches the classes whose conjugation orbit holds its key
    tmpl_keys = {}
    for name in sorted(templates or {}):
        if templates[name].degree != n:
            raise ValueError(f"template {name!r} degree mismatch")
        tmpl_keys[name] = subgroup_key(ambient, templates[name])
    clock = _Clock(budget)
    pk = _prime_power(n)
    strategy = "transversal" if pk is None else "sylow-descent"
    complete = True
    notes: list[str] = []
    frontier: list = []

    try:
        if pk is None:
            keyed = _transversal_search(ambient, n, clock)
        else:
            p, _ = pk
            if sylow is None:
                sylow = sylow_subgroup(ambient, p, clock=clock)
            else:
                if sylow.degree != n:
                    raise ValueError("sylow degree mismatch")
                if not ambient._contains_rows(sylow.rows).all():
                    raise ValueError("sylow generator outside ambient")
                if sylow.order() != _p_part(amb_order, p):
                    raise ValueError("given subgroup is not Sylow")
            keyed = _descend(sylow, n, clock, ambient)
        reps, orbits = _fuse(ambient, keyed, clock)
    except _BudgetHit as hit:
        complete = False
        notes.append(f"budget exceeded: {hit.reason}")
        if hit.leaves is not None:
            notes.append(f"{len(hit.leaves)} regular subgroups found "
                         "before interruption; conjugacy fusion skipped")
        frontier = hit.frontier
        reps, orbits = [], []

    classes = []
    for rep, orbit in zip(reps, orbits):
        if not is_regular(rep, range(n)):
            raise RuntimeError("candidate class representative not regular")
        inv = invariant_report(rep)
        classes.append(RegularClass(
            rep=rep, class_id=0, invariants=inv,
            description=describe_group(inv),
            matches=[name for name, key in tmpl_keys.items() if key in orbit]))
    classes.sort(key=lambda c: (c.invariants["fingerprint"],
                                _sorted_rows_digest(c.rep)))
    for i, c in enumerate(classes):
        c.class_id = i

    return RegularClassTable(
        gq_name=getattr(gq, "name", str(gq)),
        ambient_description=f"PermGroup(degree={ambient.degree}, "
                            f"order={amb_order})",
        n_points=n,
        ambient_order=amb_order,
        strategy=strategy,
        classes=classes,
        complete=complete,
        notes=notes,
        frontier=frontier,
    )


def classify_classes(table: RegularClassTable, *,
                     bound: int = 4096) -> RegularClassTable:
    """Fill in isomorphism-class ids on an enumeration table.

    Same fingerprint is necessary for isomorphism; within a fingerprint
    bucket the ids are settled by explicit isomorphism search for orders
    up to ``bound``.  Larger groups are grouped by fingerprint alone and
    the table gains a note saying so.  The fingerprints are the ones
    each class carries, so no invariant report is run again.
    """
    by_fp: dict[str, list[RegularClass]] = {}
    for c in table.classes:
        by_fp.setdefault(c.invariants["fingerprint"], []).append(c)
    next_id = 0
    for c in table.classes:
        if c.iso_class is not None:
            continue
        bucket = by_fp[c.invariants["fingerprint"]]
        c.iso_class = next_id
        for other in bucket:
            if other is c or other.iso_class is not None:
                continue
            if c.invariants["order"] > bound:
                other.iso_class = next_id
                note = ("isomorphism classes over the bound grouped by "
                        "fingerprint only")
                if note not in table.notes:
                    table.notes.append(note)
                continue
            if find_isomorphism(c.rep, other.rep, max_order=bound) is not None:
                other.iso_class = next_id
        next_id += 1
    return table
