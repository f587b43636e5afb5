"""Permutation groups and small abstract groups.

Permutations map 0-based points through an image array; the product
g * h applies g first, then h, so x^(g*h) = h(g(x)).  A PermGroup keeps
its generators as one read-only block of image-array rows, which its
chain, orbits, checks and keys all read; its ``gens`` are Permutations
viewing those rows.  A regular PermGroup's order is certified from its
centraliser, with no chain.  For membership, and for the order of any
other group, PermGroup builds a deterministic stabiliser chain lazily,
by incremental Schreier-Sims: a new level's base point is the least
point moved by the residue that opens it, after any base_prefix.  Each
level's orbit and transversal only grow, breadth-first with numpy
gathers, so every Schreier generator u_b g u_{b^g}^-1 is formed and
sifted once, in blocks of image-array rows; the bottom level tests
u_b g == u_{b^g} with no inverse at all.
FiniteGroup is the element closure of matrices or permutations (matrix
groups, where a permutation degree would be too wasteful, and small
permutation groups) together with integer tables over the element
indices: the right-multiplication table R[i, k] = index(elements[i] *
gens[k]), which the closure fills as it goes, and the closure-tree word
of each element, which multiplies index arrays by walks through R.
Element orders, the centre, conjugacy classes, subgroup and normal
closures, the lower central series, power and Frattini subgroups and
isomorphisms are all computed from them with numpy; no element products
are made after the closure.  A PermGroup has one FiniteGroup, its
element table, closed on first use and cached: its elements, subgroup
keys and conjugation-orbit walk all read the table's rows.  The walk is
breadth-first and returns the orbit as a table; it keys a chunk of steps
at a time, with one gather and one sort.

``element_closure`` is the one element closure: element tables and the
search's lazy element walks all come from it.  It multiplies blocks of
element code rows by every generator at once, keys the products exactly
and hands on blocks of new rows.  Its order is a contract: the identity
first, then out[i] * g for i ascending and g in generator order, each
product kept only when new, so every element after the identity is an
earlier element times a generator.

Commutators are [g, h] = g^-1 h^-1 g h throughout.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .gf import _factorise, _prime_power
from .linalg import Mat, mat_mul_batch
from .textfile import read_int_file

__all__ = [
    "Permutation",
    "PermGroup",
    "FiniteGroup",
    "InvalidPermutationError",
    "NotInvariantError",
    "TooLargeError",
    "UNKNOWN",
    "element_closure",
    "is_regular",
    "is_semiregular",
    "is_normal",
    "is_conjugate_subgroup",
    "subgroup_key",
    "subgroup_orbit",
    "SubgroupOrbit",
    "is_isomorphic_small",
    "find_isomorphism",
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


def element_closure(identity, gens: Sequence, *, limit: int | None = None,
                    clock=None) -> "_Closure":
    """The group generated by ``gens`` (Permutations or square Mats), as
    a lazy walk in the closure order of the module docstring.

    Iterating the walk yields the elements, made from each block of new
    code rows, and ticks ``clock`` once per new element.  ``limit`` is
    checked once per block: ``TooLargeError`` is raised when a block takes
    the walk past ``limit`` elements, so a lazily read walk may raise up
    to one block early.  ``walk.tables()`` closes it and returns the code
    rows of all elements and R[i, k] = index(elements[i] * gens[k]).
    """
    return _Closure(identity, gens, limit, clock)


# the closure multiplies blocks of at most this many product cells
# (rows x generators x row width)
_CLOSURE_BLOCK_CELLS = 1 << 18


def _row_keys(radix: int, width: int):
    """A function from a block of code rows (``width`` entries below
    ``radix`` each) to the list of their exact keys: one int64 word per
    row when it holds the row, else the bytes of as many words as needed.
    """
    radix = max(radix, 2)
    per = 1
    while per < width and radix ** (per + 1) <= 2 ** 63:
        per += 1
    words = -(-width // per)
    weights = radix ** np.arange(per - 1, -1, -1, dtype=np.int64)
    void = np.dtype((np.void, 8 * words))

    def keys(rows: np.ndarray) -> list:
        if words * per != width:
            padded = np.zeros((len(rows), words * per), dtype=rows.dtype)
            padded[:, :width] = rows
            rows = padded
        codes = rows.reshape(len(rows), words, per) @ weights
        return (codes[:, 0] if words == 1
                else codes.view(void).ravel()).tolist()

    return keys


class _Index(dict):
    """Exact keys to element indices; a new key gets the next index."""

    def __missing__(self, key):
        self[key] = i = len(self)
        return i


def _objects(identity, rows: np.ndarray) -> list:
    """Elements of the type of ``identity`` from their code rows."""
    if isinstance(identity, Permutation):
        return Permutation._from_rows(rows)
    n = identity.rows
    return [Mat(identity.field, n, n, r) for r in rows.tolist()]


class _Closure:
    """The block closure behind ``element_closure``.

    Elements are code rows: a Permutation's image array, or a Mat's
    entries.  A block of known rows is multiplied by every generator at
    once (one gather of image arrays, or one ``mat_mul_batch``), and each
    product is keyed exactly (``_row_keys``) and looked up among the known
    keys, a new key getting the next index.  So the new products are
    appended in the order of their first occurrence (row, generator),
    the order of the one-at-a-time loop, and the same pass writes the
    block's rows of R.  Blocks start at one row and double, up to
    ``_CLOSURE_BLOCK_CELLS`` product cells, so a walk stopped early
    wastes little.  ``_blocks`` yields each block's new rows, checking
    ``limit`` once per block; element objects are made from the new rows
    only, and not at all when ``tables()`` closes the walk.
    """

    def __init__(self, identity, gens, limit, clock):
        self._identity, self._clock = identity, clock
        self._right: list[np.ndarray] = []
        self._walk = self._blocks(identity, list(gens), limit)

    def __iter__(self):
        yield self._identity
        for fresh in self._walk:
            for e in _objects(self._identity, fresh):
                if self._clock is not None:
                    self._clock.tick()
                yield e

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, R): the code rows of all elements in closure order,
        read-only, and R.  The rest of the walk is closed with the same
        limit and clock ticks, making no element objects."""
        for fresh in self._walk:
            if self._clock is not None:
                self._clock.tick(len(fresh))
        return self._rows, np.concatenate(self._right)

    def _blocks(self, identity, gens, limit):
        d = len(gens)
        if isinstance(identity, Permutation):
            ident = identity.arr
            radix = width = identity.degree
            stack = np.array([g.arr for g in gens],
                             dtype=ident.dtype).reshape(d, width)
            # x^(e*g) = g(e(x)): gather the generators' rows at e's images
            offsets = (np.arange(d, dtype=np.intp) * width)[:, None]

            def product(block):
                return stack.take(block[:, None, :] + offsets)
        elif isinstance(identity, Mat):
            field, n = identity.field, identity.rows
            radix, width = field.q, n * n
            ident = np.array(identity.data,
                             dtype=np.uint8 if radix <= 256 else np.uint16)
            stack = np.array([g.data for g in gens],
                             dtype=ident.dtype).reshape(d, 1, n, n)

            def product(block):
                # the block's rows are the last, long batch axis
                return mat_mul_batch(field, block.reshape(-1, n, n), stack
                                     ).swapaxes(0, 1).astype(ident.dtype)
        else:
            raise TypeError(
                f"no closure over {type(identity).__name__} elements")
        keys = _row_keys(radix, width)
        rows = np.empty((16, width), dtype=ident.dtype)
        rows[0] = ident
        index = _Index.fromkeys(keys(rows[:1]), 0)
        size = 1
        cap = max(1, _CLOSURE_BLOCK_CELLS // max(1, d * width))
        lo, step = 0, 1
        while lo < size:
            hi = min(size, lo + step)
            flat = product(rows[lo:hi]).reshape((hi - lo) * d, width)
            found = np.fromiter(map(index.__getitem__, keys(flat)),
                                dtype=np.intp, count=len(flat))
            self._right.append(found.reshape(hi - lo, d))
            lo, step = hi, min(2 * step, cap)
            if len(index) == size:
                continue
            if limit is not None and len(index) > limit:
                raise TooLargeError(f"closure exceeds limit {limit}")
            # the new indices were handed out in order of first occurrence,
            # so each first occurrence raises the running maximum
            top = np.maximum.accumulate(np.concatenate(([size - 1], found)))
            fresh = flat[np.flatnonzero(top[1:] > top[:-1])]
            if len(index) > len(rows):
                grown = np.empty((2 * len(index), width), dtype=rows.dtype)
                grown[:size] = rows[:size]
                rows = grown
            rows[size:len(index)] = fresh
            size = len(index)
            yield fresh
        self._rows = rows[:size].copy() if len(rows) > size else rows
        self._rows.setflags(write=False)


# transversals are stored as full permutation matrices up to this many
# entries (orbit length x degree); beyond that, Schreier vectors
_FULL_TRANSVERSAL_ENTRIES = 25_000_000

# the stabiliser chain forms image arrays in blocks of at most this many
# cells (rows x degree): transversal rows, Schreier generators
_CHAIN_BLOCK_CELLS = 1 << 18

# numpy's take copies its indices to intp; ``_take_rows`` gathers a block
# in slices of at most this many cells, so that copy stays near 0.5 MiB
_TAKE_CELLS = 1 << 16

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
        if not _checked and (arr.dtype.kind not in "iu" or arr.min() < 0
                             or arr.max() >= n or len(np.unique(arr)) != n):
            raise InvalidPermutationError(
                f"not a bijection on the integers [0,{n})")
        arr = arr.astype(_dtype_for(n), copy=False)
        self.arr = arr
        self.arr.setflags(write=False)
        self._hash = None

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=_dtype_for(n)), _checked=True)

    @classmethod
    def _from_rows(cls, block: np.ndarray) -> list["Permutation"]:
        """Permutations viewing the rows of a block of image arrays that
        are known to be bijections, in the dtype of their degree."""
        block.setflags(write=False)
        out = []
        for row in block:
            g = cls.__new__(cls)
            g.arr = row
            g._hash = None
            out.append(g)
        return out

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

    # the cached hash is salted per process, so a pickle carries only the
    # images and the hash is computed again where it is loaded
    def __getstate__(self):
        return self.arr

    def __setstate__(self, arr):
        arr.setflags(write=False)
        self.arr = arr
        self._hash = None

    def __repr__(self):
        moved = self.least_moved()
        if moved is None:
            return f"Permutation(id, degree={self.degree})"
        return f"Permutation(degree={self.degree}, order={self.order()})"


class _Level:
    """One stabiliser-chain level: base point, strong generators, orbit.

    stack holds the image arrays of the strong generators that fix every
    earlier base point, as rows in insertion order.  The orbit of the
    base and its transversal only grow: ``add`` extends the orbit
    breadth-first from the points already in it and keeps their rows, so
    a Schreier generator that once sifted to the identity keeps doing so.
    done[k] is the watermark of stack[k]: the Schreier generators of
    stack[k] at the orbit positions below it have been sifted.

    Orbit position i holds the point orbit[i], reached from position
    parent[i] by stack[via[i]]; trans[i] is the image array of the
    transversal element u with base^u = orbit[i].  Past
    ``_FULL_TRANSVERSAL_ENTRIES`` cells trans is None, and rows are walked
    from the Schreier vector (parent, via) when asked for.  Inverse rows
    of a full transversal are cached as they are first needed.
    """

    __slots__ = ("base", "stack", "done", "orbit", "pos", "parent",
                 "via", "trans", "inv", "has_inv")

    def __init__(self, base: int, degree: int):
        dtype = _dtype_for(degree)
        self.base = base
        self.stack = np.empty((0, degree), dtype=dtype)
        self.done: list[int] = []
        self.orbit = np.array([base], dtype=np.intp)
        self.pos = np.full(degree, -1, dtype=np.intp)
        self.pos[base] = 0
        self.parent = np.zeros(1, dtype=np.intp)
        self.via = np.zeros(1, dtype=np.intp)
        self.trans = np.arange(degree, dtype=dtype)[None, :]
        self.inv = None
        self.has_inv = np.zeros(1, dtype=bool)

    def orbit_size(self) -> int:
        return len(self.orbit)

    def add(self, g: np.ndarray):
        """Append a strong generator's image array, and grow the orbit
        breadth-first: the points already there under g, then each new
        layer under every generator, in (point, generator) order."""
        k = len(self.stack)
        self.stack = np.vstack([self.stack, g[None, :]])
        self.done.append(0)
        old = size = len(self.orbit)
        seen = self.pos >= 0
        front = np.arange(old)
        front_points = self.orbit
        gidx = np.array([k])
        layers = []
        while front.size:
            images = self.stack[gidx][:, front_points].T.ravel()
            fresh = np.flatnonzero(~seen[images])
            _, first = np.unique(images[fresh], return_index=True)
            step = fresh[np.sort(first)]
            front_points = images[step]
            seen[front_points] = True
            layers.append((front_points, front[step // len(gidx)],
                           gidx[step % len(gidx)]))
            front = np.arange(size, size + len(step))
            size += len(step)
            gidx = np.arange(k + 1)
        if size == old:
            return
        points, parents, vias = (np.concatenate(x) for x in zip(*layers))
        self.pos[points] = np.arange(old, size)
        self.orbit = np.concatenate([self.orbit, points])
        self.parent = np.concatenate([self.parent, parents])
        self.via = np.concatenate([self.via, vias])
        # inverse rows are cached for one transversal array only
        self.inv = None
        self.has_inv = np.zeros(size, dtype=bool)
        degree = self.stack.shape[1]
        if self.trans is None or size * degree > _FULL_TRANSVERSAL_ENTRIES:
            self.trans = None
            return
        # the old rows are copied and released before the new ones are made
        trans = np.empty((size, degree), dtype=self.trans.dtype)
        trans[:old] = self.trans
        self.trans = trans
        # u_b = u_a * g: apply u_a, then g; the rows of a layer come from
        # the layers before it
        step = max(1, _CHAIN_BLOCK_CELLS // degree)
        lo = old
        for points, _, _ in layers:
            for s in range(lo, lo + len(points), step):
                t = slice(s, min(s + step, lo + len(points)))
                trans[t] = _compose(trans[self.parent[t]],
                                    self.stack[self.via[t]])
            lo += len(points)

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """Transversal rows of the given orbit positions."""
        if self.trans is not None:
            return self.trans[positions]
        # u_b = u_cur * w while cur walks up the Schreier vector to the
        # base: u_cur = u_parent * g turns w into g * w
        w = np.tile(np.arange(self.stack.shape[1], dtype=self.stack.dtype),
                    (len(positions), 1))
        cur = np.array(positions, dtype=np.intp)
        live = np.flatnonzero(cur)
        while live.size:
            w[live] = _compose(self.stack[self.via[cur[live]]], w[live])
            cur[live] = self.parent[cur[live]]
            live = live[cur[live] != 0]
        return w

    def inverse_rows(self, positions: np.ndarray) -> np.ndarray:
        """Inverses of the transversal rows of the given orbit positions."""
        if self.trans is None:
            return _invert_rows(self.rows(positions))
        need = ~self.has_inv[positions]
        if np.count_nonzero(need):
            missing = np.unique(positions[need])
            if self.inv is None:
                self.inv = np.empty_like(self.trans)
            self.inv[missing] = _invert_rows(self.trans[missing])
            self.has_inv[missing] = True
        return self.inv[positions]

    def schreier_block(self):
        """The next unchecked Schreier generators as (block, spans), or
        None: block holds the image arrays of u_b * g, and spans the
        (generator index, first position, stop) of its rows in order."""
        size, degree = len(self.orbit), self.stack.shape[1]
        room = max(1, _CHAIN_BLOCK_CELLS // degree)
        spans = []
        for k, lo in enumerate(self.done):
            if lo < size and room:
                hi = min(size, lo + room)
                spans.append((k, lo, hi))
                room -= hi - lo
        if not spans:
            return None
        blocks = [_take_rows(self.stack[k],
                             self.rows(np.arange(lo, hi)), 0)
                  for k, lo, hi in spans]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks), spans

    def mark(self, spans, checked: int):
        """Advance the watermarks over the first ``checked`` block rows."""
        for k, lo, hi in spans:
            self.done[k] = lo + min(hi - lo, max(0, checked))
            checked -= hi - lo


def _take_rows(src: np.ndarray, idx: np.ndarray, stride: int) -> np.ndarray:
    """out[r] = src.ravel()[idx[r] + r * stride], gathered a slice of at
    most ``_TAKE_CELLS`` cells at a time."""
    flat = src.ravel()
    out = np.empty(idx.shape, dtype=src.dtype)
    step = max(1, _TAKE_CELLS // max(1, idx.shape[1]))
    for lo in range(0, len(idx), step):
        rows = np.arange(lo, min(lo + step, len(idx)), dtype=np.intp)
        flat.take(idx[lo:lo + step] + (rows * stride)[:, None],
                  out=out[lo:lo + step])
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products a[r] * b[r] of two blocks of image arrays:
    apply a[r], then b[r]."""
    return _take_rows(b, a, b.shape[1])


def _invert_rows(rows: np.ndarray) -> np.ndarray:
    inv = np.empty_like(rows)
    inv[np.arange(len(rows))[:, None], rows] = np.arange(rows.shape[1],
                                                         dtype=rows.dtype)
    return inv


def _sift(levels: list[_Level], block: np.ndarray, start: int = 0):
    """Sift each row of ``block`` (image arrays) through levels[start:].

    Returns (stop, residues): stop[r] is -1 when row r sifts to the
    identity, else the level at which its residue, residues[r], falls out
    of the chain (len(levels) when it passes every level).  The last
    level compares with its transversal rows instead of dividing by them,
    so the bottom level needs inverse rows only for rows that fail there.
    """
    stop = np.full(len(block), -1, dtype=np.intp)
    residues = {}

    def fail(rows, i, cur):
        stop[rows] = i
        residues.update(zip(rows.tolist(), cur))

    alive = np.arange(len(block))
    cur = block
    for i in range(start, len(levels)):
        lv = levels[i]
        p = lv.pos[cur[:, lv.base]]
        out = p < 0
        if np.count_nonzero(out):
            fail(alive[out], i, cur[out])
            alive, cur, p = alive[~out], cur[~out], p[~out]
            if not alive.size:
                return stop, residues
        if i == len(levels) - 1:
            bad = (cur != lv.rows(p)).any(axis=1)
            if np.count_nonzero(bad):
                fail(alive[bad], len(levels),
                     _compose(cur[bad], lv.inverse_rows(p[bad])))
            return stop, residues
        # cur * u^-1: apply cur, then u^-1
        cur = _compose(cur, lv.inverse_rows(p))
    bad = (cur != np.arange(block.shape[1], dtype=block.dtype)).any(axis=1)
    fail(alive[bad], len(levels), cur[bad])
    return stop, residues


class PermGroup:
    """Permutation group with a lazily built deterministic chain.

    ``rows``, the one store of the generators, is a read-only (d, degree)
    block of image arrays in the degree's dtype: first occurrences in
    input order, with the identity and repeats dropped.  Generators may
    be Permutations or image arrays, checked as Permutations; ``gens``
    views the rows as Permutations."""

    def __init__(self, degree: int, generators: Iterable = (),
                 *, base_prefix: Sequence[int] = ()):
        self.degree = degree
        self._base_prefix = tuple(base_prefix)
        rows = {}
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise InvalidPermutationError(
                    f"generator degree {g.degree} != {degree}")
            if not g.is_identity():
                rows.setdefault(g.arr.tobytes(), g.arr)
        self.rows = np.array(list(rows.values()), dtype=_dtype_for(degree)
                             ).reshape(len(rows), degree)
        self.rows.setflags(write=False)
        self._levels: list[_Level] | None = None
        self._order: int | None = None
        self._table: FiniteGroup | None = None

    @functools.cached_property
    def gens(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._from_rows(self.rows))

    # -- stabiliser chain ------------------------------------------------

    def _chain(self) -> list[_Level]:
        """Incremental Schreier-Sims.  The generators are sifted in; then
        the unchecked Schreier generators, deepest level first, a block
        at a time, inserting the first residue of each block that does
        not sift to the identity."""
        if self._levels is not None:
            return self._levels
        levels = [_Level(b, self.degree) for b in self._base_prefix]

        def insert(residue: np.ndarray, i: int):
            if i == len(levels):
                moved = residue != np.arange(self.degree)
                levels.append(_Level(int(np.argmax(moved)), self.degree))
            for lv in levels[:i + 1]:
                lv.add(residue)

        for row in self.rows:
            stop, residues = _sift(levels, row[None, :])
            if stop[0] >= 0:
                insert(residues[0], stop[0])
        j = len(levels) - 1
        while j >= 0:
            found = levels[j].schreier_block()
            if found is None:
                j -= 1
                continue
            block, spans = found
            # sifting u_b * g from level j divides it by u_c, c = b^g, at
            # level j, which leaves the Schreier generator u_b g u_c^-1
            stop, residues = _sift(levels, block, j)
            fails = np.flatnonzero(stop >= 0)
            first = int(fails[0]) if fails.size else len(block)
            levels[j].mark(spans, first)
            if fails.size:
                insert(residues[first], stop[first])
                j = len(levels) - 1
        self._levels = levels
        self._validate_chain()
        return levels

    def _contains_rows(self, block: np.ndarray) -> np.ndarray:
        """Membership of each row of a block of image arrays."""
        return _sift(self._chain(), block)[0] < 0

    def _validate_chain(self):
        if not self._contains_rows(self.rows).all():
            raise AssertionError("chain rejects a generator")
        # products[a, b] applies few[a], then few[b]
        few = self.rows[:8]
        products = few.T[few].swapaxes(1, 2).reshape(-1, self.degree)
        if not self._contains_rows(products).all():
            raise AssertionError("chain rejects a generator product")

    def order(self) -> int:
        """The group order.  A group that ``_regular_by_centraliser``
        certifies regular has order ``degree`` and builds no chain; any
        other group's order is the product of its chain's orbit sizes."""
        if self._order is None:
            if _regular_by_centraliser(self.degree, self.rows):
                self._order = self.degree
            else:
                self._order = math.prod(lv.orbit_size()
                                        for lv in self._chain())
        return self._order

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return bool(self._contains_rows(g.arr[None, :])[0])

    def base(self) -> list[int]:
        return [lv.base for lv in self._chain()]

    def point_stabilizer(self, x: int) -> "PermGroup":
        chain = PermGroup(self.degree, self.rows, base_prefix=(x,))
        levels = chain._chain()
        sub = PermGroup(self.degree, levels[1].stack if len(levels) > 1
                        else ())
        sub._order = chain.order() // levels[0].orbit_size()
        return sub

    # -- orbits ----------------------------------------------------------

    def orbit(self, x: int) -> list[int]:
        mask = np.zeros(self.degree, dtype=bool)
        mask[x] = True
        _close(mask, np.array([x], dtype=np.intp), self.rows)
        return np.flatnonzero(mask).tolist()

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

    # -- element enumeration ----------------------------------------------

    def elements(self) -> list[Permutation]:
        return FiniteGroup.from_permgroup(self).elements

    def __repr__(self):
        return (f"PermGroup(degree={self.degree}, "
                f"ngens={len(self.rows)})")


# ---------------------------------------------------------------------------
# regularity of actions
# ---------------------------------------------------------------------------

def _check_invariant(group: PermGroup, on: Iterable[int]) -> np.ndarray:
    """The points of ``on``, ascending, once they are checked to be a
    non-empty set that every generator maps to itself."""
    pts = np.asarray(sorted(set(on)), dtype=np.int64)
    if pts.size == 0:
        raise ValueError("empty point set")
    mask = np.zeros(group.degree, dtype=bool)
    mask[pts] = True
    if not mask[group.rows[:, pts]].all():
        raise NotInvariantError("point set is not group-invariant")
    return pts


def is_semiregular(group: PermGroup, on: Iterable[int],
                   order: int | None = None) -> bool:
    """True iff every point stabiliser is trivial on the given set."""
    pts = _check_invariant(group, on)
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

    On the whole point set ``group.order()`` needs no stabiliser chain
    when the group is regular.  order may be supplied when the group
    order is known externally, which saves the chain when ``on`` is a
    proper invariant subset.
    """
    pts = _check_invariant(group, on)
    n = group.order() if order is None else order
    if n != pts.size:
        return False
    return len(group.orbit(int(pts[0]))) == pts.size


# ---------------------------------------------------------------------------
# abstract finite groups: an element closure and integer tables over it
# ---------------------------------------------------------------------------

def _close(mask: np.ndarray, frontier: np.ndarray, perms: list) -> None:
    """Close ``mask`` in place under the index permutations ``perms``,
    walking outwards from ``frontier``."""
    while len(perms) and frontier.size:
        images = np.concatenate([perm[frontier] for perm in perms])
        frontier = np.unique(images[~mask[images]])
        mask[frontier] = True


def _regular_by_centraliser(degree: int, perms: list) -> bool:
    """True iff the group generated by the non-identity index
    permutations ``perms`` is regular on range(degree).

    A transitive group is regular exactly when its centraliser in the
    symmetric group is transitive, and that centraliser is semiregular
    (Dixon & Mortimer, *Permutation Groups*, 1996, 4.2).  A centralising
    c is fixed by c(0): along a Schreier tree from 0, c(g(x)) = g(c(x)).
    So for y the least point outside the orbit of 0 under the centralising
    elements found so far, the one candidate with c(0) = y either commutes
    with every generator, and at least doubles that orbit, or proves the
    group is not regular: at most log2(degree) + 1 trials, and no chain.
    """
    if not degree:
        return False
    stack = np.asarray(perms, dtype=_dtype_for(degree)).reshape(-1, degree)
    # a non-identity element of a regular group fixes no point
    if (stack == np.arange(degree)).any():
        return False
    # breadth-first Schreier tree from 0, one layer of arrays at a time:
    # each new point, its parent and the generator that reaches it
    seen = np.zeros(degree, dtype=bool)
    seen[0] = True
    layers = []
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        fresh, first = np.unique(stack[:, frontier], return_index=True)
        keep = ~seen[fresh]
        fresh, first = fresh[keep], first[keep]
        seen[fresh] = True
        via, at = np.divmod(first, frontier.size)
        layers.append((fresh, frontier[at], via))
        frontier = fresh
    if not seen.all():
        return False
    orbit = np.zeros(degree, dtype=bool)
    orbit[0] = True
    found = []
    while not orbit.all():
        c = np.empty(degree, dtype=stack.dtype)
        c[0] = np.argmin(orbit)
        for pts, parent, via in layers:
            c[pts] = stack[via, c[parent]]
        if (c[stack] != stack[:, c]).any():
            return False
        found.append(c)
        _close(orbit, np.flatnonzero(orbit), found)
    return True


# a FiniteGroup closes at most this many elements
_FINITE_GROUP_LIMIT = 2**21

# the Frattini subgroup of a non-p-group is the intersection of its
# maximal subgroups, found from the subgroup lattice up to this order
_LATTICE_BOUND = 1024


class FiniteGroup:
    """A finite group as its element list and integer tables over it.

    ``rows`` holds the code rows of the closure of the generators in the
    order of ``element_closure``; element i is named by its index i, and
    ``elements`` and ``index``, made when first read, map between
    indices and element objects.  The closure also fills the
    right-multiplication table R[i, k] = index(elements[i] * gens[k]), so
    no element is multiplied after it; every invariant is computed from R
    with numpy.  The closure first reached element j as an earlier
    element times a generator, so the path from the identity in that
    closure tree is a word for j in the generators, and ``mul``
    multiplies index arrays by walking those words through R.  From them
    come, when first read, the inverses and the table of conjugates
    x^g = g^-1 x g by each generator, which gives the centre, the
    conjugacy classes and normal closures.  Subgroups are boolean masks
    over the indices, closed by walking right-multiplication
    permutations; the methods that return subgroups list their elements
    in index order.
    """

    def __init__(self, identity, generators: Iterable):
        gens = tuple(g for g in dict.fromkeys(generators) if g != identity)
        walk = element_closure(identity, gens, limit=_FINITE_GROUP_LIMIT)
        self.identity = identity
        self.gens = gens
        self.rows, self._right = walk.tables()
        self._rmul: dict[int, np.ndarray] = {}
        self._orders: list[int] | None = None
        self._classes: list[list[int]] | None = None

    @functools.cached_property
    def elements(self) -> list:
        return [self.identity] + _objects(self.identity, self.rows[1:])

    @functools.cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.rows)

    def __contains__(self, e) -> bool:
        return e in self.index

    def __iter__(self):
        return iter(self.elements)

    def is_pgroup(self) -> tuple[int, int] | None:
        """(p, k) when the order is p^k > 1, else None."""
        return _prime_power(self.order)

    # -- the index kernel -------------------------------------------------

    @functools.cached_property
    def _words(self) -> np.ndarray:
        # words[j, t]: the generator applied at step t on the way from the
        # identity to j; shorter words are padded in front with column d
        # of ``_walk``, the identity
        n, d = self.order, len(self.gens)
        # element j was first reached at the first (i, k) in row-major
        # order with R[i, k] = j, as elements[i] * gens[k]
        parent = np.zeros(n, dtype=np.intp)
        gen = np.full(n, d, dtype=np.intp)
        if n > 1:
            _, first = np.unique(self._right.ravel(), return_index=True)
            parent[1:], gen[1:] = np.divmod(first[1:], d)
        steps = []
        node = np.arange(n)
        while node.any():
            steps.append(gen[node])
            node = parent[node]
        return np.array(steps[::-1], dtype=np.intp).T.reshape(n, -1)

    @functools.cached_property
    def _walk(self) -> np.ndarray:
        return np.hstack([self._right, np.arange(self.order)[:, None]])

    @functools.cached_property
    def _inv(self) -> np.ndarray:
        walk = self._walk
        # back[:, k] undoes walk[:, k]: right multiplication by gens[k]^-1;
        # the last column of walk is the identity, so it lists the rows
        back = np.empty_like(walk)
        back[walk, np.arange(walk.shape[1])] = walk[:, -1:]
        # (g1 ... gm)^-1 = gm^-1 ... g1^-1, applied to the identity
        inv = np.zeros(self.order, dtype=np.intp)
        for t in range(self._words.shape[1] - 1, -1, -1):
            inv = back[inv, self._words[:, t]]
        return inv

    @functools.cached_property
    def _conj(self) -> np.ndarray:
        # conj[x, k] = index of gens[k]^-1 * x * gens[k]
        right, rows = self._right, np.arange(self.order)
        return np.array([right[self.mul(self._inv[g], rows), k]
                         for k, g in enumerate(right[0])],
                        dtype=np.intp).T.reshape(self.order, len(self.gens))

    def mul(self, x, y) -> np.ndarray:
        """Indices of elements[x] * elements[y], elementwise over
        broadcastable index arrays: x is walked through the word of y."""
        out = np.asarray(x, dtype=np.intp)
        words = self._words[y]
        for t in range(words.shape[-1]):
            out = self._walk[out, words[..., t]]
        return out

    def power(self, x, e: int) -> np.ndarray:
        """Indices of elements[x] ** e for e >= 0, by repeated squaring."""
        base = np.asarray(x, dtype=np.intp)
        out = np.zeros_like(base)
        while e:
            if e & 1:
                out = self.mul(out, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return out

    def inverse_index(self, i: int) -> int:
        return int(self._inv[i])

    def _right_perm(self, s: int) -> np.ndarray:
        """Right multiplication by elements[s], as an index permutation."""
        perm = self._rmul.get(s)
        if perm is None:
            perm = self._rmul[s] = self.mul(np.arange(self.order), s)
        return perm

    def span(self, seeds: Iterable[int], gens: Sequence[int] = ()):
        """(mask, kept) for the subgroup generated by element indices.

        mask marks the subgroup generated by ``gens`` and ``seeds``; kept
        is ``gens`` followed by each seed outside the span of the
        generators before it, in seed order.
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        kept = [int(g) for g in gens]
        perms = [self._right_perm(g) for g in kept]
        _close(mask, np.zeros(1, dtype=np.intp), perms)
        for s in seeds:
            if not mask[s]:
                kept.append(int(s))
                perms.append(self._right_perm(int(s)))
                _close(mask, np.flatnonzero(mask), perms)
        return mask, kept

    def _members(self, mask: np.ndarray) -> list:
        return [self.elements[i] for i in np.flatnonzero(mask)]

    def _indices(self, elems: Iterable) -> list[int]:
        return [self.index[e] for e in dict.fromkeys(elems)]

    # -- invariants -------------------------------------------------------

    def element_orders(self) -> list[int]:
        if self._orders is None:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            for r in _factorise(n):
                r_part = 1
                while n % (r_part * r) == 0:
                    r_part *= r
                # x^(n / r_part) has the r-part of x's order as its order
                y = self.power(np.arange(n), n // r_part)
                while True:
                    live = y != 0
                    if not live.any():
                        break
                    orders[live] *= r
                    y = self.power(y, r)
            self._orders = orders.tolist()
        return self._orders

    def element_order(self, e) -> int:
        return self.element_orders()[self.index[e]]

    def exponent(self) -> int:
        return math.lcm(*set(self.element_orders()))

    def is_abelian(self) -> bool:
        # row 0 holds the generators' indices, so products[a, b] is the
        # index of gens[a] * gens[b]
        products = self._right[self._right[0]]
        return bool((products == products.T).all())

    def _centre_mask(self) -> np.ndarray:
        return (self._conj == np.arange(self.order)[:, None]).all(axis=1)

    def centre(self) -> list:
        return self._members(self._centre_mask())

    def subgroup_closure(self, seed: Iterable) -> list:
        """Subgroup generated by the seed, as elements of this group."""
        return self._members(self.span(self._indices(seed))[0])

    def _normal_mask(self, seeds) -> np.ndarray:
        mask, kept = self.span(seeds)
        while True:
            images = self._conj[mask].ravel()
            new = np.unique(images[~mask[images]])
            if not new.size:
                return mask
            mask, kept = self.span(new, kept)

    def normal_closure(self, seed: Iterable) -> list:
        return self._members(self._normal_mask(self._indices(seed)))

    def _commutator_mask(self, a: np.ndarray) -> np.ndarray:
        """[A, G] for index array a, as the normal closure of the
        [x, g] = x^-1 x^g with x in A and g a generator."""
        comms = self.mul(self._inv[a][:, None], self._conj[a])
        return self._normal_mask(np.unique(comms))

    def commutator_subgroup_sets(self, a_elems: Iterable) -> list:
        """[A, G] for a subset A, as the normal closure of [a, g]."""
        a = np.asarray(self._indices(a_elems), dtype=np.intp)
        return self._members(self._commutator_mask(a))

    def _derived_mask(self) -> np.ndarray:
        return self._commutator_mask(self._right[0])

    def derived_subgroup(self) -> list:
        return self._members(self._derived_mask())

    def lower_central_orders(self) -> list[int]:
        """[|g1|, |g2|, ...] until the series stabilises."""
        if self.order == 1:
            return [1]
        current = self._derived_mask()
        out = [self.order, int(current.sum())]
        while out[-1] > 1:
            current = self._commutator_mask(np.flatnonzero(current))
            size = int(current.sum())
            if size == out[-1]:
                break  # stabilised above the identity
            out.append(size)
        return out

    def _power_mask(self, p: int) -> np.ndarray:
        return self.span(np.unique(self.power(np.arange(self.order), p)))[0]

    def power_subgroup(self, p: int) -> list:
        return self._members(self._power_mask(p))

    def _frattini_mask(self):
        pk = self.is_pgroup()
        if pk is not None:
            seed = self._derived_mask() | self._power_mask(pk[0])
            return self.span(np.flatnonzero(seed))[0]
        if self.order > _LATTICE_BOUND:
            return None
        inter = np.ones(self.order, dtype=bool)
        for m in self._lattice_maximal_masks():
            inter &= m
        return inter

    def frattini(self) -> list | None:
        """Frattini subgroup; None when out of reach for non-p-groups."""
        mask = self._frattini_mask()
        return None if mask is None else self._members(mask)

    def _lattice_maximal_masks(self) -> list[np.ndarray]:
        """All maximal subgroups, by upward closure of the lattice: a
        proper subgroup is maximal when every element outside it
        generates the whole group with it."""
        trivial = np.zeros(self.order, dtype=bool)
        trivial[0] = True
        seen = {trivial.tobytes()}
        frontier = [(trivial, [])] if self.order > 1 else []
        maxes = []
        while frontier:
            nxt = []
            for sub, gens in frontier:
                maximal = True
                for e in np.flatnonzero(~sub):
                    bigger, kept = self.span([e], gens)
                    if bigger.all():
                        continue
                    maximal = False
                    key = bigger.tobytes()
                    if key not in seen:
                        seen.add(key)
                        nxt.append((bigger, kept))
                if maximal:
                    maxes.append(sub)
            frontier = nxt
        return maxes

    def _maximal_masks(self):
        """The maximal subgroups of a p-group, lazily, as (mask,
        generator indices): the preimages of the hyperplanes of the
        Frattini quotient G/Phi, each generated by a greedy generating
        set of Phi and d-1 more elements, all picked in index order; the
        walk drops its cached right products when it ends or is closed."""
        pk = self.is_pgroup()
        if pk is None:
            raise ValueError("not a p-group")
        p = pk[0]
        phi, phi_gens = self.span(np.flatnonzero(self._frattini_mask()))
        # coset representatives mapping onto a basis of the elementary
        # abelian quotient G/Phi
        basis = self.span(range(self.order), phi_gens)[1][len(phi_gens):]
        d = len(basis)
        if p ** d * int(phi.sum()) != self.order:
            raise RuntimeError("Frattini quotient basis has the wrong size")
        # functionals on GF(p)^d up to scalar, via a leading 1
        funcs = ((pivot, (0,) * pivot + (1,) + rest) for pivot in range(d)
                 for rest in itertools.product(range(p), repeat=d - pivot - 1))
        try:
            for pivot, c in funcs:
                gens = phi_gens + [
                    int(self.mul(basis[i], self.power(basis[pivot], p - c[i])))
                    for i in range(d) if i != pivot]
                mask = self.span((), gens)[0]
                if p * int(mask.sum()) != self.order:
                    raise RuntimeError(
                        "hyperplane preimage has the wrong order")
                yield mask, gens
        finally:
            self._rmul.clear()

    def conjugacy_classes(self) -> list[list[int]]:
        """Classes as lists of element indices, each sorted ascending,
        ordered by their least index."""
        if self._classes is None:
            n = self.order
            # label each element with the least index of its class: take
            # the least label among conjugates, then jump label[label]
            label = np.arange(n)
            while True:
                new = np.minimum(label, label[self._conj].min(
                    axis=1, initial=n))
                new = new[new]
                if (new == label).all():
                    break
                label = new
            members = np.argsort(label, kind="stable")
            cuts = np.flatnonzero(np.diff(label[members])) + 1
            self._classes = [c.tolist() for c in np.split(members, cuts)]
        return self._classes

    @classmethod
    def from_permgroup(cls, g: PermGroup) -> "FiniteGroup":
        """g's one element table, closed on first use and cached on g; an
        order past ``_FINITE_GROUP_LIMIT`` is refused before closing."""
        if g._table is None:
            if g.order() > _FINITE_GROUP_LIMIT:
                raise TooLargeError(
                    f"order {g.order()} exceeds element bound "
                    f"{_FINITE_GROUP_LIMIT}")
            g._table = cls(Permutation.identity(g.degree), g.gens)
        return g._table


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
    centre = g._centre_mask()
    derived = g._derived_mask()
    lcs = g.lower_central_orders()
    frattini = g._frattini_mask()
    nilpotent = lcs[-1] == 1
    histogram: dict[int, int] = {}
    for o in g.element_orders():
        histogram[o] = histogram.get(o, 0) + 1
    class_sizes = sorted(len(c) for c in g.conjugacy_classes())
    pk = g.is_pgroup()
    special = False
    if pk is not None and frattini is not None:
        special = bool((centre == derived).all()
                       and (derived == frattini).all())
    report = {
        "order": g.order,
        "exponent": g.exponent(),
        "centre_order": int(centre.sum()),
        "derived_order": int(derived.sum()),
        "lower_central_orders": lcs,
        "frattini_order": None if frattini is None else int(frattini.sum()),
        "nilpotency_class": len(lcs) - 1 if nilpotent else "not nilpotent",
        "is_abelian": g.is_abelian(),
        "is_special": special,
        "is_extraspecial": (special and pk is not None
                            and int(centre.sum()) == pk[0]),
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
    """Raise ValueError unless the degrees agree and every subgroup
    generator, all sifted as one block, lies in the ambient group."""
    if sub.degree != ambient.degree or len(sub.rows) and not (
            ambient._contains_rows(sub.rows).all()):
        raise ValueError("subgroup generator outside ambient group")


def is_normal(ambient: PermGroup, sub: PermGroup) -> bool:
    """True iff the subgroup is normal in the ambient group: every
    conjugate g^-1 s g of a subgroup generator s by an ambient generator
    g, sifted as one block, lies in the subgroup."""
    _check_inside(ambient, sub)
    g, n = ambient.rows, ambient.degree
    # conjugate (j, k) applies g[k]^-1, then s[j], then g[k]
    conjugates = g.ravel()[sub.rows[:, _invert_rows(g)]
                           + n * np.arange(len(g))[:, None]]
    return bool(sub._contains_rows(conjugates.reshape(-1, n)).all())


def _base_keyer(ambient: PermGroup):
    """(base, key): the ambient base B, and key(block) -> the exact key
    of the subgroup whose elements' images of B are the rows of block.
    Ambient elements are determined by their images of B, so each row is
    packed exactly into int64 codes, sum_j image_j * weights[j]; the key
    is the sorted codes' bytes.

    ``key.weights`` is the |B| x c array of those weights, and
    ``key.of_codes(codes)`` keys m subgroups at once from their codes,
    shape m x |H| x c: key(block) is ``key.of_codes(block @ weights)``'s
    one key.
    """
    base = np.asarray(ambient.base(), dtype=np.intp)
    n = ambient.degree
    width = 63 // n.bit_length()
    chunks = max(1, -(-len(base) // width))
    weights = np.zeros((len(base), chunks), dtype=np.int64)
    for j in range(len(base)):
        weights[j, j // width] = n ** (width - 1 - j % width)

    def key(block: np.ndarray) -> bytes:
        return of_codes((block.astype(np.int64) @ weights)[None])[0]

    def of_codes(codes: np.ndarray) -> list[bytes]:
        m, h = codes.shape[:2]
        if chunks == 1:
            # row i: subgroup i's codes, sorted in one call
            codes = np.sort(codes[:, :, 0], axis=1)
        else:
            # every subgroup's rows, sorted by subgroup first, then
            # lexicographically
            flat = codes.reshape(m * h, chunks)
            order = np.lexsort((*flat.T[::-1], np.arange(m * h) // h))
            codes = flat[order]
        # each subgroup's codes as one bytes object, all in one call
        row = np.dtype((np.void, 8 * h * chunks))
        return codes.reshape(m, h * chunks).view(row).ravel().tolist()

    key.weights, key.of_codes = weights, of_codes
    return base, key


def subgroup_key(ambient: PermGroup, sub: PermGroup) -> bytes:
    """Exact key of a subgroup of the ambient: equal iff equal subgroups."""
    _check_inside(ambient, sub)
    base, key = _base_keyer(ambient)
    return key(FiniteGroup.from_permgroup(sub).rows[:, base])


# cells of one index block of the conjugation-orbit walk: a chunk of
# steps gathers at most this many base images, or conjugator entries,
# unless one step alone needs more
_WALK_CELLS = 1 << 15


class SubgroupOrbit(NamedTuple):
    """The conjugation orbit of a subgroup under the ambient generators.

    ``keys[i]`` is the ``subgroup_key`` of node i, in discovery order;
    node 0 is the subgroup itself.  ``act[i, g]`` is the node that
    ambient generator g sends node i to: sub^u -> sub^(u*g).  Nodes are
    found in the row-major order of ``act``, so the first step into a
    node (other than 0) comes from its parent in a breadth-first tree.
    """

    keys: list[bytes]
    act: np.ndarray


def subgroup_orbit(ambient: PermGroup, sub: PermGroup,
                   clock=None) -> SubgroupOrbit:
    """The conjugation orbit of ``sub`` under the ambient generators, as
    a ``SubgroupOrbit`` table.

    The walk is breadth-first, a layer at a time: the steps u -> u*g of
    a layer's conjugators u are cut into chunks, and each chunk keys all
    its children at once.  A child's key needs the base images of the
    elements v^-1 s v of sub^v, v = u*g; their codes are one gather from
    the child's code tables (its images times the keyer's weights),
    summed over the base, and one sort (``key.of_codes``).  No index
    block of a chunk exceeds ``_WALK_CELLS`` cells unless a single step
    does.  ``clock`` is ticked once per chunk, after keying, with the
    chunk's step count, so a node budget stops the walk at most one
    chunk past it; a complete walk ticks orbit size x d.  Raises
    ``ValueError`` when sub is not inside the ambient.
    """
    _check_inside(ambient, sub)
    elems = FiniteGroup.from_permgroup(sub).rows
    base, key_of = _base_keyer(ambient)
    gens, inverses = ambient.rows, _invert_rows(ambient.rows)
    d, n = gens.shape
    b, h = len(base), len(elems)
    # s(x) for the elements s of sub is elems_t[x, s]; narrow rows keep
    # the gather of whole rows below cheap
    elems_t = np.ascontiguousarray(elems.T)
    inv_base = inverses[:, base]
    keys = [key_of(elems[:, base])]
    node = {keys[0]: 0}
    act = []
    # the frontier's conjugators and their inverses
    us = uinvs = np.arange(n, dtype=elems.dtype)[None]
    per = max(1, _WALK_CELLS // (max(b, 1) * max(h, n)))
    while len(us):
        steps = len(us) * d
        nxt, nxtinv = [us[:0]], [us[:0]]
        for lo in range(0, steps, per):
            u, g = np.divmod(np.arange(lo, min(lo + per, steps)), d)
            m = len(u)
            # the child v = u * g applies u, then g; v^-1 = g^-1 * u^-1
            vs = gens.ravel()[us[u] + (g * n)[:, None]]
            vinv_base = uinvs.ravel()[inv_base[g] + (u * n)[:, None]]
            # s(v^-1(b_j)) for base point j, child i and element s, as an
            # index into the children's |B| x m x n code tables
            at = (elems_t[vinv_base.T]
                  + (np.arange(b * m) * n).reshape(b, m, 1))
            codes = np.empty((m, h, key_of.weights.shape[1]), np.int64)
            for k, w in enumerate(key_of.weights.T):
                codes[:, :, k] = np.multiply.outer(w, vs).ravel()[at].sum(0)
            chunk = key_of.of_codes(codes)
            if clock is not None:
                clock.tick(m)
            new = []
            for j, key in enumerate(chunk):
                i = node.get(key)
                if i is None:
                    i = node[key] = len(keys)
                    keys.append(key)
                    new.append(j)
                act.append(i)
            nxt.append(vs[new])
            nxtinv.append(uinvs.ravel()[inverses[g[new]]
                                        + (u[new] * n)[:, None]])
        us, uinvs = np.concatenate(nxt), np.concatenate(nxtinv)
    act = np.array(act, dtype=np.intp).reshape(len(keys), d)
    return SubgroupOrbit(keys, act)


class _StepsOver(Exception):
    """A walk ran past its step budget."""


class _StepBudget:
    """A clock for ``subgroup_orbit`` that raises past ``limit`` steps."""

    def __init__(self, limit: int):
        self.limit, self.nodes = limit, 0

    def tick(self, n: int = 1):
        self.nodes += n
        if self.nodes > self.limit:
            raise _StepsOver


def is_conjugate_subgroup(ambient: PermGroup, h1: PermGroup,
                          h2: PermGroup, *, budget: int = 100_000):
    """A conjugating element, or None, or UNKNOWN on budget exhaustion.

    Walks the conjugation orbit of h1 (``subgroup_orbit``) and looks up
    the key of h2; the witness is the conjugator along the walk's
    breadth-first tree.  ``budget`` caps the number of conjugation steps:
    a longer orbit gives UNKNOWN, its walk stopped within one chunk of
    the cap.
    """
    _check_inside(ambient, h1)
    target = subgroup_key(ambient, h2)
    if h1.order() != h2.order():
        return None
    try:
        orbit = subgroup_orbit(ambient, h1, _StepBudget(budget))
    except _StepsOver:
        return UNKNOWN
    if target not in orbit.keys:
        return None
    gens = ambient.rows
    d = len(gens)
    # the first step into a node comes from its tree parent
    path, i, flat = [], orbit.keys.index(target), orbit.act.ravel()
    while i:
        i, g = divmod(int(np.argmax(flat == i)), d)
        path.append(g)
    w = np.arange(ambient.degree, dtype=gens.dtype)
    for g in reversed(path):
        w = gens[g, w]
    # verify the witness for real, not just by key: w^-1 s w, for each
    # generator s of h1, applies w^-1, then s, then w
    winv = _invert_rows(w[None, :])[0]
    if not h2._contains_rows(w[h1.rows[:, winv]]).all():
        raise AssertionError("conjugate key mismatch")
    return Permutation(w, _checked=True)


# ---------------------------------------------------------------------------
# isomorphism of small groups
# ---------------------------------------------------------------------------

# cells (candidate maps x group order) of one block of the isomorphism
# search; extending a block allocates index arrays of at most this many
# cells per generator
_BLOCK_CELLS = 1 << 14


def _extend_homomorphisms(a: FiniteGroup, b: FiniteGroup, gens: Sequence[int],
                          images: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Extend partial maps from a to b over the subgroup generated by
    ``gens``, keeping only the injective homomorphisms.

    Each row of ``rows`` is one map: rows[i, x] is the index in b of the
    image of a's element x, or -1 where it is not known yet; the known
    positions are the same in every row and the identity maps to the
    identity.  images[i, k] is row i's image of gens[k].  From every known
    x the walk steps to x * gens[k] along a's right-multiplication
    permutations and sets, or checks, its image rows[i, x] * images[i, k],
    breadth-first until the known positions are closed; since they are
    shared, each step is one numpy gather over the whole block.  A row
    survives when every step agrees and no element other than the
    identity maps to the identity.  Fills ``rows`` in place and returns
    the surviving rows, completed.
    """
    perms = [a._right_perm(int(g)) for g in gens]
    known = rows[0] >= 0
    frontier = np.flatnonzero(known)
    while frontier.size and len(rows):
        targets = np.concatenate([perm[frontier] for perm in perms])
        values = np.hstack([b.mul(rows[:, frontier], images[:, k, None])
                            for k in range(len(perms))])
        fresh = np.flatnonzero(~known[targets])
        frontier, first = np.unique(targets[fresh], return_index=True)
        rows[:, frontier] = values[:, fresh[first]]
        known[frontier] = True
        agree = (rows[:, targets] == values).all(axis=1)
        rows, images = rows[agree], images[agree]
    # every row is now a homomorphism on the closure: injective exactly
    # when its kernel is trivial
    return rows[(rows[:, np.flatnonzero(known)[1:]] != 0).all(axis=1)]


def _class_sizes(g: FiniteGroup) -> np.ndarray:
    sizes = np.empty(g.order, dtype=np.intp)
    for cls in g.conjugacy_classes():
        sizes[cls] = len(cls)
    return sizes


def is_isomorphic_small(g1, g2, *, max_order: int = 4096):
    """An isomorphism as an element map {g1 elem: g2 elem}, or None.

    Groups whose invariant fingerprints differ are rejected before the
    search in ``find_isomorphism``.
    """
    a = _as_finite_group(g1)
    b = _as_finite_group(g2)
    if a.order == b.order and 1 < a.order <= max_order:
        if (invariant_report(a)["fingerprint"]
                != invariant_report(b)["fingerprint"]):
            return None
    return find_isomorphism(a, b, max_order=max_order)


def find_isomorphism(g1, g2, *, max_order: int = 4096):
    """An isomorphism as an element map {g1 elem: g2 elem}, or None.

    The search alone, with no invariant report: for callers that have
    already compared fingerprints.  g1 is generated by the greedy
    sequence of ``FiniteGroup.span``.  Each generator in turn is sent to
    every element of g2 of equal order and class size outside the image
    so far (the first one to class representatives only, which loses
    nothing up to inner automorphisms), and ``_extend_homomorphisms``
    extends each choice over the subgroup generated so far, a block of
    choices at a time.  The search recurses into the surviving choices
    only, depth first, so it returns the first isomorphism in that order.
    """
    a = _as_finite_group(g1)
    b = _as_finite_group(g2)
    if a.order != b.order:
        return None
    if a.order > max_order:
        raise TooLargeError(f"order {a.order} exceeds bound {max_order}")
    if a.order == 1:
        return {a.identity: b.identity}

    n = a.order
    gens = a.span(range(n))[1]
    orders_a = np.array(a.element_orders())
    orders_b = np.array(b.element_orders())
    sizes_a, sizes_b = _class_sizes(a), _class_sizes(b)
    fits = [(orders_b == orders_a[g]) & (sizes_b == sizes_a[g]) for g in gens]
    reps = np.zeros(n, dtype=bool)
    reps[[cls[0] for cls in b.conjugacy_classes()]] = True
    fits[0] &= reps
    block = max(1, _BLOCK_CELLS // n)

    def search(k: int, rows: np.ndarray):
        if k == len(gens):
            return rows[0]
        # an element already in a row's image cannot be the next image
        free = np.tile(fits[k], (len(rows), 1))
        free[np.arange(len(rows))[:, None], rows[:, rows[0] >= 0]] = False
        parent, image = np.nonzero(free)
        for s in range(0, len(parent), block):
            chosen = rows[parent[s:s + block]]
            images = np.column_stack([chosen[:, gens[:k]],
                                      image[s:s + block]])
            kept = _extend_homomorphisms(a, b, gens[:k + 1], images, chosen)
            found = search(k + 1, kept) if len(kept) else None
            if found is not None:
                return found
        return None

    start = np.full((1, n), -1, dtype=np.intp)
    start[0, 0] = 0
    found = search(0, start)
    if found is None:
        return None
    return {a.elements[i]: b.elements[j] for i, j in enumerate(found.tolist())}


# ---------------------------------------------------------------------------
# group file format
# ---------------------------------------------------------------------------

def save_group(path, group: PermGroup):
    lines = [f"GRP {group.degree} {len(group.rows)}"]
    lines += [" ".join(map(str, row)) for row in group.rows.tolist()]
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
