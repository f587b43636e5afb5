"""Permutation groups and small abstract groups.

Permutations map 0-based points through an image array; the product
g * h applies g first, then h, so x^(g*h) = h(g(x)).  PermGroup keeps a
deterministic stabiliser chain (base points chosen ascending) built
lazily; FiniteGroup is a plain element closure over anything with * and
.inverse(), which is how matrix groups are handled when a permutation
degree would be too wasteful.

Commutators are [g, h] = g^-1 h^-1 g h throughout.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .gf import _factorise
from .textfile import read_int_file

__all__ = [
    "Permutation",
    "PermGroup",
    "FiniteGroup",
    "InvalidPermutationError",
    "NotInvariantError",
    "TooLargeError",
    "UNKNOWN",
    "is_regular",
    "is_semiregular",
    "is_normal",
    "is_conjugate_subgroup",
    "subgroup_key",
    "subgroup_orbit",
    "is_isomorphic_small",
    "invariant_report",
    "report_json",
    "save_group",
    "load_group",
]


class InvalidPermutationError(ValueError):
    """Image list is not a bijection on [0, degree)."""


class NotInvariantError(ValueError):
    """A point set is not closed under the group action."""


class TooLargeError(ValueError):
    """Requested computation exceeds the configured enumeration bound."""


class _Unknown:
    """Budget-exhausted outcome, distinct from a definite None."""

    def __repr__(self):
        return "Unknown"

    def __bool__(self):
        return False


UNKNOWN = _Unknown()

# transversals are stored as full permutation matrices up to this many
# entries (orbit length x degree); beyond that, Schreier vectors
_FULL_TRANSVERSAL_ENTRIES = 25_000_000


def _dtype_for(n: int):
    return np.uint16 if n <= 0xFFFF else np.uint32


class Permutation:
    """A permutation of [0, n) stored as a numpy image array."""

    __slots__ = ("arr", "_hash")

    def __init__(self, images, *, _checked: bool = False):
        arr = np.asarray(images)
        if arr.ndim != 1 or arr.shape[0] == 0:
            raise InvalidPermutationError("images must be a non-empty 1d list")
        n = arr.shape[0]
        if not _checked:
            if arr.min() < 0 or arr.max() >= n or len(np.unique(arr)) != n:
                raise InvalidPermutationError(
                    f"not a bijection on [0,{n})")
        arr = arr.astype(_dtype_for(n), copy=False)
        self.arr = arr
        self.arr.setflags(write=False)
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=_dtype_for(n)), _checked=True)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]):
        arr = np.arange(n, dtype=_dtype_for(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                arr[a] = b
        return cls(arr)

    @property
    def degree(self) -> int:
        return self.arr.shape[0]

    def apply(self, x: int) -> int:
        return int(self.arr[x])

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise InvalidPermutationError("degree mismatch")
        return Permutation(other.arr[self.arr], _checked=True)

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.arr)
        inv[self.arr] = np.arange(self.degree, dtype=self.arr.dtype)
        return Permutation(inv, _checked=True)

    def __pow__(self, e: int) -> "Permutation":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = Permutation.identity(self.degree)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_identity(self) -> bool:
        return bool((self.arr == np.arange(self.degree,
                                           dtype=self.arr.dtype)).all())

    def cycle_lengths(self) -> list[int]:
        """Lengths of all cycles, fixed points included."""
        seen = np.zeros(self.degree, dtype=bool)
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = int(self.arr[x])
                length += 1
            out.append(length)
        return out

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths())

    def fixed_points(self) -> list[int]:
        return list(np.nonzero(self.arr ==
                               np.arange(self.degree,
                                         dtype=self.arr.dtype))[0])

    def least_moved(self) -> int | None:
        diff = np.nonzero(self.arr != np.arange(self.degree,
                                                dtype=self.arr.dtype))[0]
        return int(diff[0]) if diff.size else None

    def __eq__(self, other):
        return (isinstance(other, Permutation)
                and self.arr.shape == other.arr.shape
                and bool((self.arr == other.arr).all()))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.arr.tobytes())
        return self._hash

    def __repr__(self):
        moved = self.least_moved()
        if moved is None:
            return f"Permutation(id, degree={self.degree})"
        return f"Permutation(degree={self.degree}, order={self.order()})"


class _Level:
    """One stabiliser-chain level: base point, generators, transversal.

    own holds the strong generators first stored at this level; the
    orbit and transversal are built from the cumulative set (this level
    and every deeper one), which rebuild receives and keeps in gens.
    """

    __slots__ = ("base", "own", "gens", "pos", "order_of", "trans", "prev")

    def __init__(self, base: int):
        self.base = base
        self.own: list[Permutation] = []
        self.gens: list[Permutation] = []
        self.pos: dict[int, int] = {}
        self.order_of: list[int] = []
        self.trans = None  # orbit x degree matrix, or None
        self.prev = None   # Schreier vector [(gen_idx, prev_point)]

    def rebuild(self, degree: int, gens: list):
        self.gens = list(gens)
        base = self.base
        pos = {base: 0}
        order_of = [base]
        prev = {base: None}
        i = 0
        while i < len(order_of):
            a = order_of[i]
            for gi, g in enumerate(self.gens):
                b = int(g.arr[a])
                if b not in pos:
                    pos[b] = len(order_of)
                    order_of.append(b)
                    prev[b] = (gi, a)
            i += 1
        self.pos = pos
        self.order_of = order_of
        self.prev = prev
        if len(order_of) * degree <= _FULL_TRANSVERSAL_ENTRIES:
            trans = np.empty((len(order_of), degree), dtype=_dtype_for(degree))
            trans[0] = np.arange(degree, dtype=trans.dtype)
            for k, b in enumerate(order_of):
                if k == 0:
                    continue
                gi, a = prev[b]
                # u_b = u_a * g : apply u_a then g
                trans[k] = self.gens[gi].arr[trans[pos[a]]]
            self.trans = trans
        else:
            self.trans = None

    def orbit_size(self) -> int:
        return len(self.order_of)

    def u_arr(self, point: int) -> np.ndarray:
        """Image array of a transversal element u with base^u = point."""
        k = self.pos[point]
        if self.trans is not None:
            return self.trans[k]
        # walk the Schreier vector
        path = []
        b = point
        while self.prev[b] is not None:
            gi, a = self.prev[b]
            path.append(gi)
            b = a
        deg = self.gens[0].degree
        arr = np.arange(deg, dtype=self.gens[0].arr.dtype)
        for gi in reversed(path):
            arr = self.gens[gi].arr[arr]
        return arr


class PermGroup:
    """Permutation group with a lazily built deterministic chain."""

    def __init__(self, degree: int, generators: Iterable = (),
                 *, base_prefix: Sequence[int] = (),
                 element_bound: int = 2**20):
        self.degree = degree
        self.element_bound = element_bound
        self._base_prefix = tuple(base_prefix)
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise InvalidPermutationError(
                    f"generator degree {g.degree} != {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.gens = tuple(gens)
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self._elements: list[Permutation] | None = None

    # -- stabiliser chain ------------------------------------------------

    def _chain(self) -> list[_Level]:
        if self._levels is not None:
            return self._levels
        levels: list[_Level] = [_Level(b) for b in self._base_prefix]

        def gens_at(j: int) -> list[Permutation]:
            return [g for lv in levels[j:] for g in lv.own]

        def rebuild_from(k: int):
            # a generator stored at level k also enters every level above
            for j in range(min(k, len(levels) - 1), -1, -1):
                levels[j].rebuild(self.degree, gens_at(j))

        rebuild_from(len(levels) - 1)

        def sift(g: Permutation, start: int):
            for i in range(start, len(levels)):
                lv = levels[i]
                x = int(g.arr[lv.base])
                if x not in lv.pos:
                    return g, i
                u = lv.u_arr(x)
                uinv = np.empty_like(u)
                uinv[u] = np.arange(self.degree, dtype=u.dtype)
                g = Permutation(uinv[g.arr], _checked=True)
            return g, len(levels)

        def insert(g: Permutation, i: int):
            if i == len(levels):
                levels.append(_Level(g.least_moved()))
            levels[i].own.append(g)
            rebuild_from(i)

        pending = deque(self.gens)
        while pending:
            g = pending.popleft()
            residue, i = sift(g, 0)
            if residue.is_identity():
                continue
            insert(residue, i)
            # re-close: verify every level's Schreier generators sift to
            # the identity, inserting residues until stable
            changed = True
            while changed:
                changed = False
                for j, lv in enumerate(levels):
                    for b in lv.order_of:
                        ub = lv.u_arr(b)
                        for g2 in lv.gens:
                            c = int(g2.arr[b])
                            uc = lv.u_arr(c)
                            ucinv = np.empty_like(uc)
                            ucinv[uc] = np.arange(self.degree,
                                                  dtype=uc.dtype)
                            # u_b * g2 * u_c^{-1}, fixes lv.base
                            s = Permutation(ucinv[g2.arr[ub]],
                                            _checked=True)
                            residue, k = sift(s, j + 1)
                            if not residue.is_identity():
                                insert(residue, k)
                                changed = True
                                break
                        if changed:
                            break
                    if changed:
                        break
        self._levels = levels
        self._validate_chain()
        return levels

    def _validate_chain(self):
        for g in self.gens:
            if not self.contains(g):
                raise AssertionError("chain rejects a generator")
        for a in self.gens[:8]:
            for b in self.gens[:8]:
                if not self.contains(a * b):
                    raise AssertionError("chain rejects a generator product")

    def order(self) -> int:
        if self._order is None:
            n = 1
            for lv in self._chain():
                n *= lv.orbit_size()
            self._order = n
        return self._order

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        levels = self._chain()
        for lv in levels:
            x = int(g.arr[lv.base])
            if x not in lv.pos:
                return False
            u = lv.u_arr(x)
            uinv = np.empty_like(u)
            uinv[u] = np.arange(self.degree, dtype=u.dtype)
            g = Permutation(uinv[g.arr], _checked=True)
        return g.is_identity()

    def base(self) -> list[int]:
        return [lv.base for lv in self._chain()]

    def point_stabilizer(self, x: int) -> "PermGroup":
        chain = PermGroup(self.degree, self.gens, base_prefix=(x,),
                          element_bound=self.element_bound)
        levels = chain._chain()
        gens = levels[1].gens if len(levels) > 1 else []
        sub = PermGroup(self.degree, gens, element_bound=self.element_bound)
        sub._order = chain.order() // levels[0].orbit_size()
        return sub

    # -- orbits ----------------------------------------------------------

    def orbit(self, x: int) -> list[int]:
        seen = {x}
        queue = deque([x])
        while queue:
            a = queue.popleft()
            for g in self.gens:
                b = int(g.arr[a])
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return sorted(seen)

    def orbits(self, on: Iterable[int] | None = None) -> list[list[int]]:
        domain = range(self.degree) if on is None else sorted(set(on))
        done = set()
        out = []
        for x in domain:
            if x in done:
                continue
            orb = self.orbit(x)
            done.update(orb)
            out.append(orb)
        return out

    def is_transitive(self, on: Iterable[int] | None = None) -> bool:
        domain = sorted(set(range(self.degree) if on is None else on))
        if not domain:
            return False
        return self.orbit(domain[0]) == domain

    def is_trivial(self) -> bool:
        return not self.gens

    # -- element enumeration ----------------------------------------------

    def elements(self) -> list[Permutation]:
        if self._elements is None:
            if self.order() > self.element_bound:
                raise TooLargeError(
                    f"order {self.order()} exceeds element bound "
                    f"{self.element_bound}")
            ident = Permutation.identity(self.degree)
            out = [ident]
            index = {ident}
            i = 0
            while i < len(out):
                for g in self.gens:
                    h = out[i] * g
                    if h not in index:
                        index.add(h)
                        out.append(h)
                i += 1
            self._elements = out
        return self._elements

    def __repr__(self):
        return (f"PermGroup(degree={self.degree}, "
                f"ngens={len(self.gens)})")


# ---------------------------------------------------------------------------
# regularity of actions
# ---------------------------------------------------------------------------

def _check_invariant(group: PermGroup, pts: np.ndarray):
    mask = np.zeros(group.degree, dtype=bool)
    mask[pts] = True
    for g in group.gens:
        if not mask[g.arr[pts]].all():
            raise NotInvariantError("point set is not group-invariant")


def is_semiregular(group: PermGroup, on: Iterable[int],
                   order: int | None = None) -> bool:
    """True iff every point stabiliser is trivial on the given set."""
    pts = np.asarray(sorted(set(on)), dtype=np.int64)
    if pts.size == 0:
        raise ValueError("empty point set")
    _check_invariant(group, pts)
    n = group.order() if order is None else order
    remaining = set(pts.tolist())
    while remaining:
        orb = group.orbit(min(remaining))
        if len(orb) != n:
            return False
        remaining.difference_update(orb)
    return True


def is_regular(group: PermGroup, on: Iterable[int],
               order: int | None = None) -> bool:
    """Transitive with trivial stabilisers on the given set.

    order may be supplied when the group order is known externally, to
    avoid building a stabiliser chain at very large degree.
    """
    pts = np.asarray(sorted(set(on)), dtype=np.int64)
    if pts.size == 0:
        raise ValueError("empty point set")
    _check_invariant(group, pts)
    n = group.order() if order is None else order
    if n != pts.size:
        return False
    return len(group.orbit(int(pts[0]))) == pts.size


# ---------------------------------------------------------------------------
# abstract finite groups (closure of elements with * and .inverse())
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Element closure of a finite group in deterministic BFS order."""

    def __init__(self, identity, generators: Iterable, *,
                 limit: int = 2**21):
        gens = []
        seen = {identity}
        for g in generators:
            if g not in seen:
                seen.add(g)
                gens.append(g)
        self.identity = identity
        self.gens = tuple(gens)
        elems = [identity]
        index = {identity: 0}
        i = 0
        while i < len(elems):
            for g in gens:
                h = elems[i] * g
                if h not in index:
                    if len(elems) >= limit:
                        raise TooLargeError(
                            f"closure exceeds limit {limit}")
                    index[h] = len(elems)
                    elems.append(h)
            i += 1
        self.elements = elems
        self.index = index
        self._orders: list[int] | None = None
        self._cayley: np.ndarray | None = None
        self._classes: list[list[int]] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self.index

    def __iter__(self):
        return iter(self.elements)

    def is_pgroup(self) -> tuple[int, int] | None:
        """(p, k) when the order is p^k > 1, else None."""
        primes = _factorise(self.order)
        if len(primes) != 1:
            return None
        p = primes[0]
        k = 0
        n = self.order
        while n > 1:
            n //= p
            k += 1
        return p, k

    def element_order(self, e) -> int:
        o = self.order
        for r in sorted(set(_factorise(o))):
            while o % r == 0 and self._pow(e, o // r) == self.identity:
                o //= r
        return o

    def _pow(self, e, n: int):
        out = self.identity
        base = e
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def element_orders(self) -> list[int]:
        if self._orders is None:
            self._orders = [self.element_order(e) for e in self.elements]
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*set(self.element_orders()))

    def is_abelian(self) -> bool:
        return all(a * b == b * a
                   for i, a in enumerate(self.gens)
                   for b in self.gens[i + 1:])

    def centre(self) -> list:
        return [e for e in self.elements
                if all(e * g == g * e for g in self.gens)]

    def subgroup_closure(self, seed: Iterable) -> list:
        """Subgroup generated by the seed, as elements of this group."""
        out = [self.identity]
        index = {self.identity}
        gens = []
        for e in seed:
            if e not in index:
                index.add(e)
                out.append(e)
                gens.append(e)
        # seeds from a finite group: closure under products suffices
        i = 0
        while i < len(out):
            for g in gens:
                h = out[i] * g
                if h not in index:
                    index.add(h)
                    out.append(h)
            i += 1
        return out

    def normal_closure(self, seed: Iterable) -> list:
        current = self.subgroup_closure(seed)
        while True:
            current_set = set(current)
            new = []
            for g in self.gens:
                gi = g.inverse()
                for e in current:
                    c = gi * e * g
                    if c not in current_set:
                        new.append(c)
                        current_set.add(c)
            if not new:
                return current
            current = self.subgroup_closure(current_set)

    def commutator_subgroup_sets(self, a_elems: Iterable) -> list:
        """[A, G] for a subset A, as the normal closure of [a, g]."""
        comms = set()
        for a in a_elems:
            ai = a.inverse()
            for g in self.gens:
                comms.add(ai * g.inverse() * a * g)
        return self.normal_closure(comms)

    def derived_subgroup(self) -> list:
        comms = set()
        for a in self.gens:
            ai = a.inverse()
            for b in self.gens:
                comms.add(ai * b.inverse() * a * b)
        return self.normal_closure(comms)

    def lower_central_orders(self) -> list[int]:
        """[|g1|, |g2|, ...] until the series stabilises."""
        if self.order == 1:
            return [1]
        out = [self.order]
        current = self.derived_subgroup()
        out.append(len(current))
        while True:
            if len(current) == 1:
                return out
            nxt = self.commutator_subgroup_sets(current)
            if len(nxt) == len(current):
                return out  # stabilised above the identity
            out.append(len(nxt))
            current = nxt

    def power_subgroup(self, p: int) -> list:
        return self.subgroup_closure({self._pow(e, p)
                                      for e in self.elements})

    def frattini(self, *, lattice_bound: int = 1024) -> list | None:
        """Frattini subgroup; None when out of reach for non-p-groups."""
        pk = self.is_pgroup()
        if pk is not None:
            p = pk[0]
            seed = set(self.derived_subgroup())
            seed.update(self.power_subgroup(p))
            return self.subgroup_closure(seed)
        if self.order > lattice_bound:
            return None
        maxes = self._maximal_subgroups()
        if not maxes:
            return [self.identity] if self.order == 1 else list(self.elements)
        inter = set(maxes[0])
        for m in maxes[1:]:
            inter &= set(m)
        return self.subgroup_closure(inter)

    def _maximal_subgroups(self) -> list[frozenset]:
        """All maximal subgroups by upward closure of the lattice."""
        seen = {frozenset([self.identity])}
        frontier = [frozenset([self.identity])]
        everything = frozenset(self.elements)
        proper = set()
        while frontier:
            nxt = []
            for sub in frontier:
                for e in self.elements:
                    if e in sub:
                        continue
                    bigger = frozenset(self.subgroup_closure(sub | {e}))
                    if bigger not in seen:
                        seen.add(bigger)
                        if bigger != everything:
                            nxt.append(bigger)
            proper.update(s for s in frontier if s != everything)
            frontier = nxt
        return [s for s in proper
                if not any(s < t for t in proper if t is not s)]

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes as lists of element indices, each sorted ascending."""
        if self._classes is None:
            n = self.order
            assigned = [False] * n
            classes = []
            for i in range(n):
                if assigned[i]:
                    continue
                orbit = {i}
                queue = deque([i])
                assigned[i] = True
                while queue:
                    j = queue.popleft()
                    e = self.elements[j]
                    for g in self.gens:
                        c = g.inverse() * e * g
                        k = self.index[c]
                        if not assigned[k]:
                            assigned[k] = True
                            orbit.add(k)
                            queue.append(k)
                classes.append(sorted(orbit))
            self._classes = classes
        return self._classes

    def cayley_table(self) -> np.ndarray:
        """T[i, j] = index of elements[i] * elements[j].

        With R[i, k] = index of elements[i] * gens[k], the closure first
        reached element j as elements[i] * gens[k] at the first (i, k)
        with R[i, k] = j, and i < j; so column j is one vectorised step
        from column i: T[:, j] = R[T[:, i], k].
        """
        if self._cayley is None:
            n = self.order
            if n > 4096:
                raise TooLargeError(f"no Cayley table for order {n}")
            right = np.array([[self.index[e * g] for g in self.gens]
                              for e in self.elements], dtype=np.uint16)
            _, first = np.unique(right.ravel(), return_index=True)
            parent, gen = np.divmod(first, max(1, len(self.gens)))
            cols = np.empty((n, n), dtype=np.uint16)
            cols[0] = np.arange(n)
            for j in range(1, n):
                cols[j] = right[cols[parent[j]], gen[j]]
            self._cayley = np.ascontiguousarray(cols.T)
        return self._cayley

    def inverse_index(self, i: int) -> int:
        return self.index[self.elements[i].inverse()]

    @classmethod
    def from_permgroup(cls, g: PermGroup) -> "FiniteGroup":
        return cls(Permutation.identity(g.degree), g.gens,
                   limit=g.element_bound)


def _as_finite_group(g) -> FiniteGroup:
    if isinstance(g, FiniteGroup):
        return g
    if isinstance(g, PermGroup):
        return FiniteGroup.from_permgroup(g)
    raise TypeError(f"expected a group, got {type(g).__name__}")


# ---------------------------------------------------------------------------
# invariant report
# ---------------------------------------------------------------------------

_REPORT_FIELDS = [
    "order", "exponent", "centre_order", "derived_order",
    "lower_central_orders", "frattini_order", "nilpotency_class",
    "is_abelian", "is_special", "is_extraspecial",
    "conjugacy_class_sizes", "element_order_histogram", "fingerprint",
]


def invariant_report(group) -> dict:
    """The full invariant ledger of a small group, as a plain dict."""
    g = _as_finite_group(group)
    centre = g.centre()
    derived = g.derived_subgroup()
    lcs = g.lower_central_orders()
    frattini = g.frattini()
    nilpotent = lcs[-1] == 1
    histogram: dict[int, int] = {}
    for o in g.element_orders():
        histogram[o] = histogram.get(o, 0) + 1
    class_sizes = sorted(len(c) for c in g.conjugacy_classes())
    pk = g.is_pgroup()
    special = False
    if pk is not None and frattini is not None:
        special = (set(centre) == set(derived)
                   and set(derived) == set(frattini))
    report = {
        "order": g.order,
        "exponent": g.exponent(),
        "centre_order": len(centre),
        "derived_order": len(derived),
        "lower_central_orders": lcs,
        "frattini_order": None if frattini is None else len(frattini),
        "nilpotency_class": len(lcs) - 1 if nilpotent else "not nilpotent",
        "is_abelian": g.is_abelian(),
        "is_special": special,
        "is_extraspecial": special and pk is not None and len(centre) == pk[0],
        "conjugacy_class_sizes": class_sizes,
        "element_order_histogram": sorted([o, c]
                                          for o, c in histogram.items()),
    }
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["fingerprint"] = hashlib.sha256(payload.encode()).hexdigest()
    return report


def report_json(report: dict) -> str:
    """Canonical JSON serialisation of an invariant report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# normality / conjugacy of subgroups
# ---------------------------------------------------------------------------

def _check_inside(ambient: PermGroup, sub: PermGroup):
    for s in sub.gens:
        if not ambient.contains(s):
            raise ValueError("subgroup generator outside ambient group")


def is_normal(ambient: PermGroup, sub: PermGroup) -> bool:
    """True iff the subgroup is normal in the ambient group."""
    _check_inside(ambient, sub)
    for g in ambient.gens:
        gi = g.inverse()
        for s in sub.gens:
            if not sub.contains(gi * s * g):
                return False
    return True


def _conjugate_keyer(ambient: PermGroup, sub: PermGroup):
    """key(u.arr, u^-1.arr) -> exact key of the conjugate sub^u.

    Ambient elements are determined by their images of the ambient base
    B, so sub^u is determined by the sorted rows of its base-image block
    u.arr[stack[:, u^-1(B)]], each row packed exactly into int64 codes.
    """
    _check_inside(ambient, sub)
    stack = np.stack([e.arr for e in sub.elements()])
    base = np.asarray(ambient.base(), dtype=np.intp)
    n = ambient.degree
    width = 63 // n.bit_length()
    chunks = max(1, -(-len(base) // width))
    weights = np.zeros((len(base), chunks), dtype=np.int64)
    for j in range(len(base)):
        weights[j, j // width] = n ** (width - 1 - j % width)

    def key(u_arr: np.ndarray, uinv_arr: np.ndarray) -> bytes:
        codes = u_arr[stack[:, uinv_arr[base]]].astype(np.int64) @ weights
        if chunks == 1:
            return np.sort(codes, axis=0).tobytes()
        return codes[np.lexsort(codes.T[::-1])].tobytes()

    return key


def subgroup_key(ambient: PermGroup, sub: PermGroup) -> bytes:
    """Exact key of a subgroup of the ambient: equal iff equal subgroups."""
    arr = np.arange(ambient.degree)
    return _conjugate_keyer(ambient, sub)(arr, arr)


def subgroup_orbit(ambient: PermGroup, sub: PermGroup, clock=None):
    """Walk the conjugation orbit of ``sub`` under the ambient generators.

    Yields ``(key, v, first)`` for the start (v the identity) and for
    every step sub^u -> sub^(u*g) of a depth-first walk: key is the
    ``subgroup_key`` of sub^v, first the conjugator that first reached
    it (v itself on a new conjugate).  Raises ``ValueError`` when sub is
    not inside the ambient; ticks ``clock`` once per step.
    """
    key_of = _conjugate_keyer(ambient, sub)
    ident = Permutation.identity(ambient.degree)
    inverses = [g.inverse().arr for g in ambient.gens]
    key0 = key_of(ident.arr, ident.arr)
    first = {key0: ident}
    yield key0, ident, ident
    todo = [(ident, ident.arr)]
    while todo:
        u, uinv = todo.pop()
        for g, ginv in zip(ambient.gens, inverses):
            if clock is not None:
                clock.tick()
            v = u * g
            vinv = uinv[ginv]
            key = key_of(v.arr, vinv)
            known = first.setdefault(key, v)
            if known is v:
                todo.append((v, vinv))
            yield key, v, known


def is_conjugate_subgroup(ambient: PermGroup, h1: PermGroup,
                          h2: PermGroup, *, budget: int = 100_000):
    """A conjugating element, or None, or UNKNOWN on budget exhaustion.

    Walks the conjugation orbit of h1 (``subgroup_orbit``) looking for
    the key of h2; ``budget`` caps the number of conjugation steps.
    """
    _check_inside(ambient, h1)
    target = subgroup_key(ambient, h2)
    if h1.order() != h2.order():
        return None
    for step, (key, w, first) in enumerate(subgroup_orbit(ambient, h1)):
        if first is w and key == target:
            # verify the witness for real, not just by key
            wi = w.inverse()
            for s in h1.gens:
                if not h2.contains(wi * s * w):
                    raise AssertionError("conjugate key mismatch")
            return w
        if step >= budget:
            return UNKNOWN
    return None


# ---------------------------------------------------------------------------
# isomorphism of small groups
# ---------------------------------------------------------------------------

def _generating_sequence(g: FiniteGroup, table: np.ndarray) -> list[int]:
    chosen = []
    closure = {0}
    for i in range(g.order):
        if i in closure:
            continue
        chosen.append(i)
        new = [i]
        closure.add(i)
        while new:
            x = new.pop()
            row = table[x]
            for y in list(closure):
                for z in (int(row[y]), int(table[y, x])):
                    if z not in closure:
                        closure.add(z)
                        new.append(z)
        if len(closure) == g.order:
            break
    return chosen


def is_isomorphic_small(g1, g2, *, max_order: int = 4096):
    """An isomorphism as an element map {g1 elem: g2 elem}, or None."""
    a = _as_finite_group(g1)
    b = _as_finite_group(g2)
    if a.order != b.order:
        return None
    if a.order > max_order:
        raise TooLargeError(f"order {a.order} exceeds bound {max_order}")
    if a.order == 1:
        return {a.identity: b.identity}
    ra = invariant_report(a)
    rb = invariant_report(b)
    if ra["fingerprint"] != rb["fingerprint"]:
        return None

    ta = a.cayley_table()
    tb = b.cayley_table()
    n = a.order
    orders_a = a.element_orders()
    orders_b = b.element_orders()
    class_of_b = [0] * n
    for ci, cls in enumerate(b.conjugacy_classes()):
        for i in cls:
            class_of_b[i] = ci
    class_size_b = [len(b.conjugacy_classes()[class_of_b[i]])
                    for i in range(n)]
    class_size_a = [0] * n
    for cls in a.conjugacy_classes():
        for i in cls:
            class_size_a[i] = len(cls)

    gens = _generating_sequence(a, ta)

    def candidates(gen_idx: int, first: bool):
        want_o = orders_a[gen_idx]
        want_c = class_size_a[gen_idx]
        if first:
            # one representative per class suffices up to inner autos
            reps = [cls[0] for cls in b.conjugacy_classes()]
            return [r for r in reps
                    if orders_b[r] == want_o and class_size_b[r] == want_c]
        return [i for i in range(n)
                if orders_b[i] == want_o and class_size_b[i] == want_c]

    img = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=bool)
    img[0] = 0
    used[0] = True
    known = [0]

    def extend(k: int, known: list[int]) -> bool:
        if k == len(gens):
            return len(known) == n
        gi = gens[k]
        for h in candidates(gi, first=(k == 0)):
            if used[h]:
                continue
            touched = []
            ok = True
            img[gi] = h
            used[h] = True
            touched.append(gi)
            frontier = [gi]
            local = list(known)
            local.append(gi)
            while frontier and ok:
                x = frontier.pop()
                for y in list(local):
                    for p, q in ((int(ta[x, y]), int(tb[img[x], img[y]])),
                                 (int(ta[y, x]), int(tb[img[y], img[x]]))):
                        if img[p] == -1:
                            if used[q]:
                                ok = False
                                break
                            img[p] = q
                            used[q] = True
                            touched.append(p)
                            local.append(p)
                            frontier.append(p)
                        elif img[p] != q:
                            ok = False
                            break
                    if not ok:
                        break
            if ok and extend(k + 1, local):
                return True
            for t in touched:
                used[img[t]] = False
                img[t] = -1
        return False

    if extend(0, known):
        mapping = {a.elements[i]: b.elements[int(img[i])] for i in range(n)}
        # verified: img was built from Cayley consistency, check bijection
        assert len(set(mapping.values())) == n
        return mapping
    return None


# ---------------------------------------------------------------------------
# group file format
# ---------------------------------------------------------------------------

def save_group(path, group: PermGroup):
    lines = [f"GRP {group.degree} {len(group.gens)}"]
    for g in group.gens:
        lines.append(" ".join(str(int(x)) for x in g.arr))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_group(path) -> PermGroup:
    (degree, _), rows = read_int_file(path, "GRP", 2, lambda h: h[1],
                                      lambda h: h[0])
    gens = []
    for no, images in enumerate(rows, start=2):
        try:
            gens.append(Permutation(images))
        except InvalidPermutationError as exc:
            raise InvalidPermutationError(f"{path}, line {no}: {exc}") from None
    return PermGroup(degree, gens)
