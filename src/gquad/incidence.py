"""Finite generalised quadrangles as point-line incidence structures.

Points are integers 0..n-1; the lines are one int32 array, a row of
point ids per line, sorted within and across rows, so equal structures
have equal arrays and ``Quadrangle.line_index`` finds the line of any
row of points by one binary search.  A Quadrangle may carry labels (for
the classical models, normalised projective coordinate tuples), which
is how matrix actions get transported onto point permutations.
``Quadrangle.collinearity`` packs each point's closed neighbourhood into
one bit row; verification, perps and derivation read those rows.

The two classical models here are the symplectic quadrangle (all points
of PG(3,q), totally isotropic lines, order (q,q)) and the elliptic
quadric in PG(5,q) (order (q,q^2)), each with its lines from one
pencil per point (``linalg.singular_line_rows``).  Derivation at a
regular point x follows Payne: keep the points not collinear with x,
trim old lines, and add the perp-perp spans through x as new lines,
giving order (s-1, s+1); the spans are ANDs of bit rows over traces.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import GF
from .groups import PermGroup, Permutation, TooLargeError
from .linalg import (
    AlternatingForm,
    QuadraticForm,
    enumerate_singular,
    singular_line_rows,
)
from .textfile import read_int_file

__all__ = [
    "Quadrangle",
    "Violation",
    "NotRegularPointError",
    "build_from_form",
    "build_w3",
    "build_qminus5",
    "verify_gq",
    "dual",
    "line_action",
    "perp_set",
    "double_perp",
    "payne_derive",
    "gq_isomorphic",
    "aut_incidence",
    "save_gq",
    "load_gq",
]


class NotRegularPointError(ValueError):
    """Derivation attempted at a point with a short perp-perp span."""

    def __init__(self, point, witness, size, expected):
        self.point = point
        self.witness = witness
        self.size = size
        self.expected = expected
        super().__init__(
            f"point {point} is not regular: span with {witness} has "
            f"{size} points, expected {expected}")


@dataclass(frozen=True)
class Violation:
    """One canonical witness of a failed incidence check."""

    category: str
    witness: tuple
    message: str


class Quadrangle:
    """An incidence structure with GQ conventions (not validated here),
    its lines kept once as the read-only block ``line_matrix()``."""

    def __init__(self, n_points: int, lines, *, s: int | None = None,
                 t: int | None = None, labels=None, name: str = "GQ"):
        self.n_points = n_points
        mat = np.asarray(lines)  # raises on rows of several lengths
        if mat.ndim != 2:
            raise ValueError("lines must be rows of points of one size")
        if mat.dtype.kind not in "iu":
            raise ValueError(f"line points must be integers, not {mat.dtype}")
        if mat.min() < 0 or mat.max() >= n_points:
            raise ValueError(f"lines have points outside 0..{n_points - 1}")
        mat = np.array(mat, dtype=np.int32)
        if not (mat[:, 1:] >= mat[:, :-1]).all():
            mat.sort(axis=1)
        keys = _row_keys(mat)
        if not (keys[1:] >= keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            mat, keys = mat[order], keys[order]
        mat.flags.writeable = False
        self._lines, self._line_keys = mat, keys
        self.s = s
        self.t = t
        self.name = name
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n_points:
                raise ValueError("labels length must match point count")
        self.labels = labels
        self._label_index = None
        self._edges = None
        self._pencils = None

    @cached_property
    def lines(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``line_matrix()`` as tuples, built on first use."""
        return tuple(map(tuple, self._lines.tolist()))

    @property
    def n_lines(self) -> int:
        return len(self._lines)

    def order(self) -> tuple[int, int]:
        """(s, t), inferred from the structure when not declared."""
        s = self.s if self.s is not None else self._lines.shape[1] - 1
        t = self.t if self.t is not None else len(self.pencils()[0]) - 1
        return s, t

    def point_id(self, label) -> int:
        if self.labels is None:
            raise ValueError("quadrangle has no point labels")
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index[label]

    def line_matrix(self) -> np.ndarray:
        """The lines: the read-only int32 (lines, points per line) block."""
        return self._lines

    def line_index(self, rows) -> np.ndarray:
        """Index of the line holding each row of points (shape (..., k),
        any order within a row), -1 where a row is no line.  The sorted
        rows' big-endian byte keys are searched among the lines', which
        ascend with the rows: exact for any lines of one size."""
        keys, rows = self._line_keys, np.asarray(rows)
        if rows.shape[-1] != self._lines.shape[1]:
            return np.full(rows.shape[:-1], -1)
        found = _row_keys(np.sort(rows, axis=-1))
        # the last key <= each row's; -1 below all, where keys[-1] differs
        pos = np.searchsorted(keys, found, side="right") - 1
        return np.where(keys[pos] == found, pos, -1)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The collinearity graph as flat arrays (src, dst): every ordered
        pair of collinear points once, sorted by (src, dst)."""
        if self._edges is None:
            mat = self.line_matrix()
            n = self.n_points
            wide = mat.astype(np.int64)
            codes = np.sort(np.concatenate([
                wide[:, i] * n + wide[:, j]
                for i, j in itertools.permutations(range(mat.shape[1]), 2)]))
            # drop repeats by hand: np.unique takes seconds on the
            # millions of codes of Q-(5,8)
            codes = codes[np.append(True, codes[1:] != codes[:-1])]
            src, dst = np.divmod(codes, n)
            self._edges = src.astype(mat.dtype), dst.astype(mat.dtype)
        return self._edges

    def pencils(self) -> list[np.ndarray]:
        """Line indices through each point, ascending."""
        if self._pencils is None:
            # 8- and 16-bit points sort stably by radix: 8x faster on Q-(5,8)
            narrow = np.min_scalar_type(self.n_points - 1)
            flat = self._lines.ravel().astype(narrow)
            line_of = np.argsort(flat, kind="stable") // self._lines.shape[1]
            self._pencils = _runs(line_of, np.cumsum(np.bincount(
                flat, minlength=self.n_points)))
        return self._pencils

    def collinearity(self, points=None) -> np.ndarray:
        """Packed closed neighbourhoods, one row per point of ``points``
        (every point when None): ceil(n/8) uint8 bytes in which bit z, in
        ``np.packbits`` order, is set when z is the row's point or shares
        a line with it; the pad bits are 0.  Built a chunk of rows at a
        time from the pencils, with no (rows x points) bool block past
        ``_ROW_CELLS`` cells."""
        n = self.n_points
        points = (np.arange(n) if points is None
                  else np.asarray(points, dtype=np.intp).reshape(-1))
        pens = self.pencils()
        out = np.empty((len(points), (n + 7) // 8), dtype=np.uint8)
        step = max(1, _ROW_CELLS // max(1, n))
        for lo in range(0, len(points), step):
            pts = points[lo:lo + step]
            runs = [pens[p] for p in pts.tolist()]
            owner = np.repeat(np.arange(len(pts)), list(map(len, runs)))
            block = np.zeros((len(pts), n), dtype=bool)
            block[owner[:, None], self._lines[np.concatenate(runs)]] = True
            block[np.arange(len(pts)), pts] = True
            out[lo:lo + step] = np.packbits(block, axis=1)
        return out

    def collinear(self, a: int, b: int) -> bool:
        row = self.collinearity([a])[0]
        return a != b and bool(row[b >> 3] >> (7 - b % 8) & 1)

    def __repr__(self):
        return (f"Quadrangle({self.name}: {self.n_points} points, "
                f"{self.n_lines} lines)")


# a chunk of ``Quadrangle.collinearity`` rows is packed from a (rows x
# points) bool block of about this many cells
_ROW_CELLS = 1 << 20


def _members(row: np.ndarray, n: int) -> np.ndarray:
    """The points whose bits are set in one packed row, ascending."""
    return np.flatnonzero(np.unpackbits(row, count=n))


def _popcount(rows: np.ndarray) -> np.ndarray:
    """The number of set bits in each packed row, about ``_ROW_CELLS``
    bytes at a time."""
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    bits = bits.sum(axis=1, dtype=np.uint8)
    step = max(1, _ROW_CELLS // max(1, rows.shape[1]))
    return np.concatenate([bits[rows[lo:lo + step]].sum(axis=1)
                           for lo in range(0, len(rows), step)])


def _runs(values: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """values cut into consecutive runs ending at ``ends``, as views.
    Sliced by hand: np.split costs 4 ms on Q-(5,8)'s 4617 runs."""
    ends = ends.tolist()
    return [values[a:b] for a, b in zip([0, *ends[:-1]], ends)]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    # byte strings compare as the rows of non-negative points do
    wide = np.ascontiguousarray(rows, dtype=">u4")
    return wide.view(f"S{4 * wide.shape[-1]}")[..., 0]


# ---------------------------------------------------------------------------
# classical models
# ---------------------------------------------------------------------------

def build_from_form(field: GF, form, s: int, t: int,
                    name: str) -> Quadrangle:
    """Point-line geometry of the singular points and lines of a form.

    The points are the normalised singular vectors in ascending order,
    numbered in that order and kept as labels.  The lines are the rows
    of ``linalg.singular_line_rows``: the pencil of each point comes
    from the singular points of a complement of it in its perp, every
    vector is looked up by its integer code, and no line is built as a
    subspace nor any pair of points tested.
    """
    points = [sub.basis[0] for sub in enumerate_singular(form, 1)]
    return Quadrangle(len(points), singular_line_rows(form, points), s=s,
                      t=t, labels=points, name=name)


def build_w3(field: GF) -> Quadrangle:
    """The symplectic quadrangle of order (q,q) on all of PG(3,q)."""
    q = field.q
    return build_from_form(field, AlternatingForm(field), q, q,
                           f"W(3,{q})")


def build_qminus5(field: GF) -> Quadrangle:
    """The elliptic-quadric quadrangle of order (q,q^2) in PG(5,q)."""
    q = field.q
    return build_from_form(field, QuadraticForm(field), q, q * q,
                           f"Q-(5,{q})")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

# the axiom check takes a chunk of lines at a time; each holds about
# this many cells over its (lines x points) bit rows
_AXIOM_CELLS = 1 << 20


def _first_bad_line(gq: Quadrangle, s: int) -> Violation | None:
    mat = gq.line_matrix()
    if mat.shape[1] != s + 1:
        return Violation("line_arity", (0,), f"line 0 has {mat.shape[1]} "
                         f"points, expected {s + 1}")
    # rows are sorted, so a repeated point sits next to itself
    repeats = np.flatnonzero((mat[:, 1:] == mat[:, :-1]).any(axis=1))
    if repeats.size:
        idx = int(repeats[0])
        return Violation("line_arity", (idx,), f"line {idx} repeats a point")
    return None


def verify_gq(gq: Quadrangle, s: int | None = None,
              t: int | None = None) -> list[Violation]:
    """Check the generalised-quadrangle axioms for order (s,t).

    Returns [] when valid, otherwise a single canonical Violation: the
    first failing check in a fixed category order (line arity, point
    degree, pair uniqueness, one-point-per-external-line axiom), with
    the lexicographically least witness ids.  The last two read the
    packed closed neighbourhoods of ``Quadrangle.collinearity``: a pair
    of points lies on two lines exactly when a neighbourhood has fewer
    than 1 + s(t+1) points, and each line ORs its points' rows into
    "seen" and "seen twice" bits, so a point off it that is not seen
    exactly once breaks the axiom.
    """
    if s is None or t is None:
        gs, gt = gq.order()
        s = gs if s is None else s
        t = gt if t is None else t
    n = gq.n_points

    bad = _first_bad_line(gq, s)
    if bad is not None:
        return [bad]

    mat = gq.line_matrix()
    degrees = np.bincount(mat.ravel(), minlength=n)
    if not (degrees == t + 1).all():
        p = int(np.nonzero(degrees != t + 1)[0][0])
        return [Violation("point_degree", (p,),
                          f"point {p} lies on {int(degrees[p])} lines, "
                          f"expected {t + 1}")]

    # each point now lies on t+1 lines of s other points; they are
    # distinct unless the point shares a pair with two lines, and the
    # least such point is the first point of the least repeated pair
    rows = gq.collinearity()
    short = np.flatnonzero(_popcount(rows) != 1 + s * (t + 1))
    if short.size:
        a = int(short[0])
        seen = np.bincount(mat[gq.pencils()[a]].ravel(), minlength=n)
        seen[a] = 0
        b = int(np.flatnonzero(seen > 1)[0])
        return [Violation("pair_uniqueness", (a, b),
                          f"points {a} and {b} lie on more than one "
                          f"common line")]

    # axiom: a point off a line sees exactly one of its points.  The
    # line's own points are in every row, so they are cleared; the pad
    # bits past point n-1 are cleared too
    k = s + 1
    n_lines = gq.n_lines
    pad = np.uint8((0xFF << (-n % 8)) & 0xFF)
    worst = None  # least witness, coded as point * n_lines + line
    chunk = max(1, _AXIOM_CELLS // max(n, k * s * (t + 1)))
    for start in range(0, n_lines, chunk):
        pts = mat[start:start + chunk]
        local = np.arange(len(pts))
        seen = rows[pts[:, 0]]
        twice = np.zeros_like(seen)
        for i in range(1, k):
            row = rows[pts[:, i]]
            twice |= seen & row
            seen |= row
        bad = ~seen | twice
        bad[:, -1] &= pad
        for i in range(k):
            bit = np.uint8(128) >> (pts[:, i] % 8).astype(np.uint8)
            bad[local, pts[:, i] // 8] &= ~bit
        hit = np.flatnonzero(bad.any(axis=0))
        if hit.size:
            # the least point is in the first byte with a bad bit
            bits = np.unpackbits(bad[:, hit[0], None], axis=1)
            col = int(bits.any(axis=0).argmax())
            code = ((8 * int(hit[0]) + col) * n_lines + start
                    + int(bits[:, col].argmax()))
            worst = code if worst is None else min(worst, code)
    if worst is not None:
        p, ell = divmod(worst, n_lines)
        return [Violation("axiom", (p, ell),
                          f"point {p} and line {ell} break the "
                          f"one-collinear-point rule")]
    return []


# ---------------------------------------------------------------------------
# duality, perps, derivation
# ---------------------------------------------------------------------------

def dual(gq: Quadrangle) -> Quadrangle:
    """Swap the roles of points and lines."""
    s, t = gq.order()
    return Quadrangle(gq.n_lines, gq.pencils(), s=t, t=s,
                      name=f"dual {gq.name}")


def line_action(gq: Quadrangle, group: PermGroup) -> PermGroup:
    """The permutation group induced on line indices by a point action.

    Every generator must send lines to lines; a generator that breaks a
    line raises ValueError naming the first line it breaks.
    """
    if group.degree != gq.n_points:
        raise ValueError("group degree does not match the point count")
    images = gq.line_index(group.rows[:, gq.line_matrix()])
    broken = np.flatnonzero(images < 0)
    if broken.size:
        line = tuple(gq.line_matrix()[broken[0] % gq.n_lines].tolist())
        raise ValueError(f"generator maps line {line} off the line set")
    return PermGroup(gq.n_lines, images)


def perp_set(gq: Quadrangle, x: int) -> list[int]:
    """x together with every point collinear with it, ascending."""
    return _members(gq.collinearity([x])[0], gq.n_points).tolist()


def double_perp(gq: Quadrangle, x: int, y: int) -> list[int]:
    """The span {x,y}^perp-perp, ascending: the AND of the rows of
    ``Quadrangle.collinearity`` over the trace {x,y}^perp."""
    if x == y:
        raise ValueError("span needs two distinct points")
    n = gq.n_points
    rx, ry = gq.collinearity([x, y])
    trace = gq.collinearity(_members(rx & ry, n))
    return _members(np.bitwise_and.reduce(trace, axis=0), n).tolist()


def payne_derive(gq: Quadrangle, x: int) -> Quadrangle:
    """Derived quadrangle of order (s-1, s+1) at a regular point x.

    Keeps the points not collinear with x and, less their point on
    x^perp, the lines that miss x; the other lines are the hyperbolic
    lines {x,y}^perp-perp less x, for y not collinear with x.  They are
    found at once on the rows of ``Quadrangle.collinearity``: the trace
    {x,y}^perp of each y is its set of bits in the rows of x's
    neighbours, the y with one trace share one hyperbolic line, and that
    line is the AND of the rows over the trace, built once, from its
    least point y.  x is regular when each has t+1 points; otherwise
    NotRegularPointError names the least y whose span is short.
    """
    s, t = gq.order()
    if s != t:
        raise ValueError(f"derivation needs order (s,s), got ({s},{t})")
    if not 0 <= x < gq.n_points:
        raise ValueError(f"no point {x}")
    n = gq.n_points
    perp = np.unpackbits(gq.collinearity([x])[0], count=n).astype(bool)
    derived = np.flatnonzero(~perp)
    new_id = np.full(n, -1, dtype=np.int64)
    new_id[derived] = np.arange(derived.size)

    mat = gq.line_matrix()
    ids = new_id[mat[~(mat == x).any(axis=1)]]
    kept = ids >= 0
    if not (kept.sum(axis=1) == s).all():
        raise AssertionError("external line meets perp more than once")
    lines = [ids[kept].reshape(-1, s)]

    perp[x] = False
    rows = gq.collinearity(np.flatnonzero(perp))
    # trace[i, j]: neighbour i of x is collinear with derived point j
    trace = np.unpackbits(rows, axis=1, count=n)[:, derived]
    keys = np.packbits(trace.T, axis=1)
    # the least derived point with each trace, ascending
    _, least = np.unique(keys.view(np.dtype((np.void, keys.shape[1]))),
                         return_index=True)
    least.sort()
    sizes = trace[:, least].sum(axis=0)
    if (sizes != t + 1).any():
        i = int(np.flatnonzero(sizes != t + 1)[0])
        raise ValueError(f"points {x} and {int(derived[least[i]])} have "
                         f"{int(sizes[i])} common neighbours, expected "
                         f"{t + 1}")
    step = max(1, _ROW_CELLS // ((t + 1) * rows.shape[1]))
    for lo in range(0, least.size, step):
        ys = least[lo:lo + step]
        on = np.nonzero(trace[:, ys].T)[1].reshape(ys.size, t + 1)
        span = np.unpackbits(np.bitwise_and.reduce(rows[on], axis=1),
                             axis=1, count=n)
        size = span.sum(axis=1)
        if (size != t + 1).any():
            i = int(np.flatnonzero(size != t + 1)[0])
            raise NotRegularPointError(x, int(derived[ys[i]]),
                                       int(size[i]), t + 1)
        span[:, x] = 0
        rest = new_id[np.nonzero(span)[1].reshape(ys.size, t)]
        if (rest < 0).any():
            raise AssertionError("span leaves the derived point set")
        lines.append(rest)

    labels = None
    if gq.labels is not None:
        labels = tuple(gq.labels[p] for p in derived.tolist())
    return Quadrangle(derived.size, np.concatenate(lines), s=s - 1,
                      t=s + 1, labels=labels,
                      name=f"{gq.name} derived at {x}")


# ---------------------------------------------------------------------------
# isomorphism and automorphisms via the collinearity graph
# ---------------------------------------------------------------------------
#
# A GQ has no triangles, so each line is recoverable from the graph as
# two collinear points plus their common neighbours; graph isomorphisms
# are exactly incidence isomorphisms.  The search below is plain colour
# refinement with individualisation, over the graph's flat edge arrays.
#
# A refinement round gives each vertex the signature (its colour, the
# *set* of its neighbours' colours), coded as a fixed-width byte key: the
# colour as 8 big-endian bytes, then the set as a bit row packed most
# significant bit first.  Byte order on these keys is the lexicographic
# order of the rows (colour, has a neighbour of colour 0, 1, ...), and
# the new colour ids are the ranks of the distinct keys in that order, so
# every colouring, its ids included, and with them the search's branch
# order and the generators found, depend only on the graph and the
# initial colouring.  Counting neighbours per colour would refine more
# strongly but would change the generators found.  Each round costs one
# scatter over the edges into a (vertices x colours) bit matrix and one
# sort of the keys.  ``_GRAPH_LIMIT`` stays: with this signature,
# Aut(Q-(5,8)), 4617 points, does not finish in 900 s (one core of a
# 2-vCPU Xeon VM).

_GRAPH_LIMIT = 4096


def _graph_edges(gq: Quadrangle) -> tuple[np.ndarray, np.ndarray]:
    if gq.n_points > _GRAPH_LIMIT:
        raise TooLargeError(
            f"{gq.n_points} points is past the graph-search bound")
    return gq.edges()


def _refine_pair(edges_a, edges_b, col_a, col_b):
    """Joint colour refinement; None when class sizes diverge.

    The two graphs are refined as one disjoint union, graph b's vertices
    shifted by n, so both sides share one set of colour ids.
    """
    n = len(col_a)
    src = np.concatenate([edges_a[0], edges_b[0].astype(np.int64) + n])
    dst = np.concatenate([edges_a[1], edges_b[1].astype(np.int64) + n])
    col = np.concatenate([col_a, col_b]).astype(np.int64, copy=False)
    while True:
        palette = int(col.max()) + 1
        seen = np.zeros(len(col) * palette, dtype=bool)
        seen[src * palette + col[dst]] = True
        keys = np.concatenate([col.astype(">i8").view(np.uint8).reshape(-1, 8),
                               np.packbits(seen.reshape(-1, palette), axis=1)],
                              axis=1)
        keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
        _, inverse = np.unique(keys, return_inverse=True)
        new = inverse.astype(np.int64)
        width = int(new.max()) + 1
        if not (np.bincount(new[:n], minlength=width)
                == np.bincount(new[n:], minlength=width)).all():
            return None
        # refinement only splits classes, so a stable count means done
        if len(np.unique(new[:n])) == len(np.unique(col[:n])):
            return new[:n], new[n:]
        col = new


def _extract_map(edges_a, edges_b, col_a, col_b):
    order_a = np.argsort(col_a, kind="stable")
    order_b = np.argsort(col_b, kind="stable")
    n = len(col_a)
    perm = np.empty(n, dtype=np.int64)
    perm[order_a] = order_b
    # both edge lists are sorted and repeat no pair, so perm is an
    # isomorphism exactly when the mapped codes, sorted, equal b's codes
    mapped = np.sort(perm[edges_a[0]] * n + perm[edges_a[1]])
    target = edges_b[0].astype(np.int64) * n + edges_b[1]
    if np.array_equal(mapped, target):
        return perm
    return None


def _search_iso(edges_a, edges_b, col_a, col_b):
    refined = _refine_pair(edges_a, edges_b, col_a, col_b)
    if refined is None:
        return None
    col_a, col_b = refined
    counts = np.bincount(col_a)
    split = np.nonzero(counts > 1)[0]
    if split.size == 0:
        return _extract_map(edges_a, edges_b, col_a, col_b)
    c = int(split[0])
    fresh = int(max(col_a.max(), col_b.max())) + 1
    v = int(np.nonzero(col_a == c)[0][0])
    for w in np.nonzero(col_b == c)[0]:
        na = col_a.copy()
        nb = col_b.copy()
        na[v] = fresh
        nb[int(w)] = fresh
        found = _search_iso(edges_a, edges_b, na, nb)
        if found is not None:
            return found
    return None


def gq_isomorphic(g1: Quadrangle, g2: Quadrangle) -> dict[int, int] | None:
    """A point bijection carrying lines to lines, or None.

    Searches the two collinearity graphs jointly by colour refinement
    with individualisation (see the section comment): a signature is a
    point's colour and the *set* of its neighbours' colours, and colour
    ids are the ranks of the signatures' byte keys, so the search and
    the map it finds are deterministic.  Quadrangles past
    ``_GRAPH_LIMIT`` points raise TooLargeError.
    """
    if g1.n_points != g2.n_points or g1.n_lines != g2.n_lines:
        return None
    edges_a, edges_b = _graph_edges(g1), _graph_edges(g2)
    col = np.zeros(g1.n_points, dtype=np.int64)
    perm = _search_iso(edges_a, edges_b, col, col.copy())
    if perm is None:
        return None
    if (g2.line_index(perm[g1.line_matrix()]) < 0).any():
        raise AssertionError("graph map does not respect the line sets")
    return {i: int(perm[i]) for i in range(g1.n_points)}


def aut_incidence(gq: Quadrangle) -> PermGroup:
    """The full automorphism group, as permutations of the points.

    Fixes points one at a time; at each level the refined colouring
    (colour plus the *set* of neighbour colours, ids ranked by byte key)
    picks the first non-singleton cell, and the search maps its first
    point to each other point not yet in its orbit.  The ranked ids make
    the generators deterministic: they depend only on the point
    labelling.  The orbit lengths' product must equal the chain order
    and every generator must keep the line set.  Quadrangles past
    ``_GRAPH_LIMIT`` points raise TooLargeError; the bound stays
    because Aut(Q-(5,8)), 4617 points, does not finish in 900 s on one
    core of a 2-vCPU Xeon VM.
    """
    edges = _graph_edges(gq)
    n = gq.n_points
    fixed: list[int] = []
    gens: list[Permutation] = []
    expected = 1
    while True:
        col = np.zeros(n, dtype=np.int64)
        for rank, p in enumerate(fixed):
            col[p] = rank + 1
        refined = _refine_pair(edges, edges, col, col.copy())
        col = refined[0]
        counts = np.bincount(col)
        split = np.nonzero(counts > 1)[0]
        if split.size == 0:
            break
        cell = int(split[0])
        members = np.nonzero(col == cell)[0]
        v = int(members[0])
        level = len(gens)  # this level's generators are gens[level:]
        orbit = {v}
        fresh = int(col.max()) + 1
        for w in members[1:].tolist():
            if w in orbit:
                continue
            ca = col.copy()
            cb = col.copy()
            ca[v] = fresh
            cb[w] = fresh
            perm = _search_iso(edges, edges, ca, cb)
            if perm is None:
                continue
            gens.append(Permutation(perm))
            orbit = set(PermGroup(n, gens[level:]).orbit(v))
        expected *= len(orbit)
        fixed.append(v)
    group = PermGroup(n, gens)
    if group.order() != expected:
        raise AssertionError("orbit product disagrees with the chain order")
    if (gq.line_index(group.rows[:, gq.line_matrix()]) < 0).any():
        raise AssertionError("automorphism breaks the line set")
    return group


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def save_gq(path, gq: Quadrangle):
    """Write the GQ file plus a .json provenance sidecar."""
    s, t = gq.order()
    rows = [f"GQ {gq.n_points} {gq.n_lines} {s} {t}"]
    rows.extend(map(" ".join, gq.line_matrix().astype(str).tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    meta = {
        "name": gq.name,
        "n_points": gq.n_points,
        "n_lines": gq.n_lines,
        "s": s,
        "t": t,
    }
    with open(f"{path}.json", "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_gq(path) -> Quadrangle:
    (n_points, _, s, t), lines = read_int_file(
        path, "GQ", 4, lambda h: h[1], lambda h: h[2] + 1)
    for no, line in enumerate(lines, start=2):
        if any(not 0 <= p < n_points for p in line):
            raise ValueError(f"{path}, line {no}: point out of range")
    name = "GQ"
    try:
        with open(f"{path}.json") as fh:
            name = json.load(fh).get("name", name)
    except (OSError, json.JSONDecodeError):
        pass
    return Quadrangle(n_points, lines, s=s, t=t, name=name)
