"""Row vectors, matrices and bilinear/quadratic forms over GF(q).

Vectors are plain tuples of field codes and act on the right of
matrices: the image of v under M is v @ M.  Consequently M1 * M2 means
"apply M1, then M2".

Two forms are provided: the alternating form

    beta(x, y) = x1*y4 - y1*x4 + x2*y3 - y2*x3

on 4-dimensional space, whose totally isotropic subspaces give the
symplectic quadrangle, and an elliptic quadratic form

    Q(x) = x1*x2 + x3*x4 + x5^2 + x5*x6 + d*x6^2

on 6-dimensional space (d making t^2 + t + d irreducible), whose
singular subspaces give the elliptic quadric quadrangle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf import GF

__all__ = [
    "Mat",
    "SemilinearMap",
    "Subspace",
    "AlternatingForm",
    "QuadraticForm",
    "DimensionMismatchError",
    "rref",
    "normalise_point",
    "projective_points",
    "enumerate_singular",
    "singular_line_rows",
    "code_lookup",
    "sp4_membership",
    "mat_mul_batch",
]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


Vec = tuple  # tuple of field codes


def _check_vec(field: GF, v: Sequence[int], n: int) -> tuple:
    v = tuple(v)
    if len(v) != n:
        raise DimensionMismatchError(f"expected length {n}, got {len(v)}")
    return v


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class Mat:
    """Immutable matrix over a GF instance, row-major code tuple."""

    __slots__ = ("field", "rows", "cols", "data", "_hash")

    def __init__(self, field: GF, rows: int, cols: int,
                 data: Sequence[int]):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)
        if len(self.data) != rows * cols:
            raise DimensionMismatchError("data length != rows*cols")
        self._hash = None

    @classmethod
    def from_rows(cls, field: GF, rows: Sequence[Sequence[int]]) -> "Mat":
        r = len(rows)
        c = len(rows[0])
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionMismatchError("ragged rows")
            flat.extend(row)
        return cls(field, r, c, flat)

    @classmethod
    def identity(cls, field: GF, n: int) -> "Mat":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field, n, n, data)

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def as_rows(self) -> list[tuple]:
        return [self.row(i) for i in range(self.rows)]

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows or self.field is not other.field:
            raise DimensionMismatchError("incompatible matrix product")
        add, mul, _, _ = self.field.scalar_tables()
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                acc = 0
                for t in range(k):
                    x = arow[t]
                    if x:
                        acc = add[acc][mul[x][b[t * m + j]]]
                out[i * m + j] = acc
        return Mat(self.field, n, m, out)

    def apply(self, v: Sequence[int]) -> tuple:
        """Image of the row vector v under this matrix (v @ M)."""
        v = _check_vec(self.field, v, self.rows)
        add, mul, _, _ = self.field.scalar_tables()
        m = self.cols
        out = [0] * m
        for i, x in enumerate(v):
            if x:
                mx = mul[x]
                roff = i * m
                for j in range(m):
                    y = self.data[roff + j]
                    if y:
                        out[j] = add[out[j]][mx[y]]
        return tuple(out)

    def transpose(self) -> "Mat":
        r, c = self.rows, self.cols
        return Mat(self.field, c, r,
                   [self.data[i * c + j] for j in range(c) for i in range(r)])

    def map_entries(self, fn) -> "Mat":
        return Mat(self.field, self.rows, self.cols,
                   [fn(x) for x in self.data])

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices invert")
        n = self.rows
        k = self.field
        add, mul, neg, inv = k.scalar_tables()
        aug = [list(self.row(i)) + [1 if j == i else 0 for j in range(n)]
               for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            s = inv[aug[col][col]]
            aug[col] = [mul[s][x] for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    c = aug[r][col]
                    aug[r] = [add[x][mul[neg[c]][y]]
                              for x, y in zip(aug[r], aug[col])]
        return Mat(k, n, n, [x for row in aug for x in row[n:]])

    def __pow__(self, e: int) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatchError("only square matrices power")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = Mat.identity(self.field, self.rows)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_identity(self) -> bool:
        n = self.cols
        return self.rows == n and all(
            x == (1 if i // n == i % n else 0)
            for i, x in enumerate(self.data))

    def to_array(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.int64).reshape(
            self.rows, self.cols)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.q, self.rows, self.data))
        return self._hash

    def __repr__(self):
        body = "; ".join(",".join(map(str, self.row(i)))
                         for i in range(self.rows))
        return f"Mat({self.field.q})[{body}]"


class SemilinearMap:
    """x -> (x^(p^e)) @ M: a field automorphism then an invertible matrix.

    Products compose left to right like matrices: (A,d)*(B,e) first
    applies (A,d), then (B,e), which works out to (A^(p^e) B, d+e).
    """

    __slots__ = ("mat", "frob", "_hash")

    def __init__(self, mat: Mat, frob: int = 0):
        self.mat = mat
        self.frob = frob % mat.field.f
        self._hash = None

    def apply(self, v: Sequence[int]) -> tuple:
        k = self.mat.field
        if self.frob:
            v = tuple(k.frob(x, self.frob) for x in v)
        return self.mat.apply(v)

    def __mul__(self, other: "SemilinearMap") -> "SemilinearMap":
        if not isinstance(other, SemilinearMap):
            return NotImplemented
        k = self.mat.field
        e = other.frob
        m1 = self.mat if not e else self.mat.map_entries(
            lambda x: k.frob(x, e))
        return SemilinearMap(m1 * other.mat, self.frob + e)

    def inverse(self) -> "SemilinearMap":
        k = self.mat.field
        e = (-self.frob) % k.f
        minv = self.mat.inverse()
        if e:
            minv = minv.map_entries(lambda x: k.frob(x, e))
        return SemilinearMap(minv, e)

    def __eq__(self, other):
        return (isinstance(other, SemilinearMap) and self.mat == other.mat
                and self.frob == other.frob)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.mat, self.frob))
        return self._hash

    def __repr__(self):
        return f"SemilinearMap(frob={self.frob}, {self.mat!r})"


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def rref(field: GF, vectors: Iterable[Sequence[int]]) -> list[tuple]:
    """Reduced row-echelon basis (canonical) of the span of the vectors."""
    add, mul, neg, inv = field.scalar_tables()
    basis: list[list[int]] = []
    for v in vectors:
        v = list(v)
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            c = v[lead]
            if c:
                v = [add[x][mul[neg[c]][y]] for x, y in zip(v, b)]
        if any(v):
            lead = next(i for i, x in enumerate(v) if x)
            s = inv[v[lead]]
            v = [mul[s][x] for x in v]
            for b in basis:
                c = b[lead]
                if c:
                    b[:] = [add[x][mul[neg[c]][y]] for x, y in zip(b, v)]
            basis.append(v)
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return [tuple(b) for b in basis]


class Subspace:
    """Subspace of GF(q)^n with a canonical reduced-echelon basis."""

    __slots__ = ("field", "ambient", "basis", "_hash")

    def __init__(self, field: GF, ambient: int,
                 vectors: Iterable[Sequence[int]]):
        self.field = field
        self.ambient = ambient
        vs = [_check_vec(field, v, ambient) for v in vectors]
        self.basis = tuple(rref(field, vs))
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        v = _check_vec(self.field, v, self.ambient)
        add, mul, neg, _ = self.field.scalar_tables()
        v = list(v)
        for b in self.basis:
            lead = next(i for i, x in enumerate(b) if x)
            c = v[lead]
            if c:
                v = [add[x][mul[neg[c]][y]] for x, y in zip(v, b)]
        return not any(v)

    def vectors(self) -> Iterator[tuple]:
        """All q^dim vectors, in lexicographic order of coefficients."""
        k = self.field
        add, mul, _, _ = k.scalar_tables()
        n = self.ambient
        for coeffs in itertools.product(k.elements(), repeat=self.dim):
            out = [0] * n
            for c, b in zip(coeffs, self.basis):
                if c:
                    mc = mul[c]
                    out = [add[x][mc[y]] for x, y in zip(out, b)]
            yield tuple(out)

    def points(self) -> list[tuple]:
        """Normalised projective points of this subspace, sorted."""
        seen = set()
        for v in self.vectors():
            if any(v):
                seen.add(normalise_point(self.field, v))
        return sorted(seen)

    def perp(self, form) -> "Subspace":
        return form.perp(self)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.q, self.ambient, self.basis))
        return self._hash

    def __lt__(self, other):
        return self.basis < other.basis

    def __repr__(self):
        return f"Subspace{self.basis}"


def normalise_point(field: GF, v: Sequence[int]) -> tuple:
    """Canonical representative of a projective point.

    Scales so the first nonzero coordinate is 1.  This agrees with the
    reduced-echelon representative of the spanned 1-space, and it is the
    lexicographically least vector in the scalar orbit (code 1 being the
    least nonzero code).
    """
    first = next((i for i, x in enumerate(v) if x), None)
    if first is None:
        raise ValueError("zero vector is not a projective point")
    c = v[first]
    if c == 1:
        return tuple(v)
    s = field.inv(c)
    return tuple(field.mul(s, x) for x in v)


def projective_points(field: GF, n: int) -> list[tuple]:
    """All points of PG(n-1, q) as normalised tuples, in ascending order."""
    out = []
    for first in range(n):
        for tail in itertools.product(range(field.q), repeat=n - first - 1):
            out.append((0,) * first + (1,) + tail)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class AlternatingForm:
    """beta(x,y) = x1 y4 - y1 x4 + x2 y3 - y2 x3 on GF(q)^4."""

    def __init__(self, field: GF):
        self.field = field
        self.dim = 4
        one = 1
        m = field.neg(one)
        self.gram = Mat.from_rows(field, [
            (0, 0, 0, one),
            (0, 0, one, 0),
            (0, m, 0, 0),
            (m, 0, 0, 0),
        ])

    def eval(self, u: Sequence[int], v: Sequence[int]) -> int:
        u = _check_vec(self.field, u, 4)
        v = _check_vec(self.field, v, 4)
        k = self.field
        t1 = k.sub(k.mul(u[0], v[3]), k.mul(v[0], u[3]))
        t2 = k.sub(k.mul(u[1], v[2]), k.mul(v[1], u[2]))
        return k.add(t1, t2)

    def perp(self, s: Subspace) -> Subspace:
        return _kernel(self.field, [self.gram.apply(b) for b in s.basis],
                       s.ambient)

    def is_totally_isotropic(self, s: Subspace) -> bool:
        bs = s.basis
        return all(self.eval(bs[i], bs[j]) == 0
                   for i in range(len(bs)) for j in range(i + 1, len(bs)))


class QuadraticForm:
    """An elliptic quadratic form on GF(q)^6, stored upper-triangular.

    Q(x) = x1 x2 + x3 x4 + x5^2 + x5 x6 + d x6^2 where d is the least
    field code making t^2 + t + d irreducible, so the form has Witt
    index 2 (minus type).  The associated bilinear form is the
    polarisation B(u,v) = Q(u+v) - Q(u) - Q(v).
    """

    def __init__(self, field: GF, d: int | None = None, *,
                 coeff: "Mat | None" = None):
        self.field = field
        if coeff is not None:
            if coeff.rows != coeff.cols:
                raise DimensionMismatchError("coefficient matrix not square")
            self.dim = coeff.rows
            self.d = None
            self.coeff = coeff
        else:
            self.dim = 6
            if d is None:
                bad = {field.neg(field.add(field.mul(y, y), y))
                       for y in field.elements()}
                d = next(c for c in field.elements() if c not in bad)
            self.d = d
            rows = [[0] * 6 for _ in range(6)]
            rows[0][1] = 1
            rows[2][3] = 1
            rows[4][4] = 1
            rows[4][5] = 1
            rows[5][5] = d
            self.coeff = Mat.from_rows(field, rows)
        # Gram matrix of the polarisation: coeff + coeff^T
        k = field
        n = self.dim
        self.polar_gram = Mat.from_rows(field, [
            [k.add(self.coeff.entry(i, j), self.coeff.entry(j, i))
             for j in range(n)] for i in range(n)])

    def eval(self, v: Sequence[int]) -> int:
        v = _check_vec(self.field, v, self.dim)
        k = self.field
        if self.d is not None:
            acc = k.mul(v[0], v[1])
            acc = k.add(acc, k.mul(v[2], v[3]))
            acc = k.add(acc, k.mul(v[4], v[4]))
            acc = k.add(acc, k.mul(v[4], v[5]))
            acc = k.add(acc, k.mul(self.d, k.mul(v[5], v[5])))
            return acc
        acc = 0
        for i, vi in enumerate(v):
            if vi:
                acc = k.add(acc, k.mul(vi, k.dot(self.coeff.row(i), v)))
        return acc

    def polar(self, u: Sequence[int], v: Sequence[int]) -> int:
        u = _check_vec(self.field, u, self.dim)
        v = _check_vec(self.field, v, self.dim)
        k = self.field
        s = tuple(k.add(a, b) for a, b in zip(u, v))
        return k.sub(k.sub(self.eval(s), self.eval(u)), self.eval(v))

    def is_singular(self, v: Sequence[int]) -> bool:
        return self.eval(v) == 0

    def perp(self, s: Subspace) -> Subspace:
        return _kernel(self.field,
                       [self.polar_gram.apply(b) for b in s.basis],
                       s.ambient)

    def is_totally_singular(self, s: Subspace) -> bool:
        if not all(self.eval(b) == 0 for b in s.basis):
            return False
        bs = s.basis
        return all(self.polar(bs[i], bs[j]) == 0
                   for i in range(len(bs)) for j in range(i + 1, len(bs)))


def _kernel(field: GF, rows: list[tuple], ambient: int) -> Subspace:
    """Right kernel {v : row . v = 0 for each row} as a Subspace."""
    rows = rref(field, rows)
    add, mul, neg, _ = field.scalar_tables()
    pivots = [next(i for i, x in enumerate(r) if x) for r in rows]
    free = [j for j in range(ambient) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ambient
        v[j] = 1
        for r, piv in zip(rows, pivots):
            # pivot entry is 1, so v[piv] = -r[j]
            v[piv] = neg[r[j]]
        basis.append(v)
    return Subspace(field, ambient, basis)


def sp4_membership(form: AlternatingForm, m: Mat) -> bool:
    """True iff m preserves the alternating form: M J M^T = J."""
    if m.rows != 4 or m.cols != 4:
        raise DimensionMismatchError("expected a 4x4 matrix")
    return m * form.gram * m.transpose() == form.gram


# ---------------------------------------------------------------------------
# singular subspace enumeration
# ---------------------------------------------------------------------------

# field codes in one point chunk's (points x candidate lines x line
# points x coordinates) block of ``singular_line_rows``, counted as if
# every candidate line were singular; with the chunk's int64 vector
# codes, W(3,27) peaks at about 75 MB
_PENCIL_CELLS = 1 << 20


def _code_weights(q: int, n: int) -> np.ndarray:
    return q ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _code_digits(codes: np.ndarray, q: int, n: int) -> np.ndarray:
    """The coordinates of each vector code, first coordinate first."""
    return codes[:, None] // _code_weights(q, n) % q


def _quadratic_values(form, digits: np.ndarray) -> np.ndarray:
    """Q at every vector of ``digits`` (coordinates on the last axis)."""
    k = form.field
    mul, add = k.mul_table, k.add_table
    val = np.zeros(digits.shape[:-1], dtype=mul.dtype)
    for i in range(form.dim):
        for j in range(form.dim):
            c = form.coeff.entry(i, j)
            if c:
                val = add[val, mul[c, mul[digits[..., i], digits[..., j]]]]
    return val


def _singular_points(form) -> list[tuple]:
    # the normalised vectors are the codes whose leading nonzero digit
    # is 1, i.e. the blocks [q^m, 2 q^m); concatenated they ascend
    q, n = form.field.q, form.dim
    codes = np.concatenate([np.arange(q**m, 2 * q**m, dtype=np.int64)
                            for m in range(n)])
    digits = _code_digits(codes, q, n)
    if not isinstance(form, AlternatingForm):
        digits = digits[_quadratic_values(form, digits) == 0]
    return [tuple(v) for v in digits.tolist()]


def code_lookup(multiples: np.ndarray, size: int) -> np.ndarray:
    """Array from vector code to point index, -1 off the points.

    multiples[i] holds the codes of the nonzero scalar multiples of point
    i; each of them maps to i.
    """
    look = np.full(size, -1, dtype=np.int64)
    look[multiples] = np.arange(len(multiples))[:, None]
    return look


def singular_line_rows(form, points: Sequence[Sequence[int]]) -> np.ndarray:
    """Totally isotropic/singular lines as sorted rows of point indices.

    points are the singular points in ascending order, as from
    ``enumerate_singular(form, 1)``.  A vector is coded as the integer
    its coordinates spell in base q, first coordinate most significant,
    so code order is point order, and ``code_lookup`` over the scalar
    multiples names the point of any vector.  The lines come from one
    pencil per point v: they are the spans of v with the singular points
    w of v^perp / v.  With c the polar functional w -> B(v, w) and c_j
    its first nonzero entry, the vectors e_i - (c_i / c_j) e_j, i != j,
    span v^perp; leaving out the one of a further nonzero coordinate of
    v leaves n - 2 that span a complement of v there.  The projective
    points of that complement are tried by their codes (all are
    singular for the alternating form; otherwise a table of Q over every
    code keeps the zeros), and each line {v} + {w + mu*v} is looked up
    once from every point on it and kept from its least point, so the
    rows, (v, others ascending), ascend.  Points go a chunk at a time,
    about ``_PENCIL_CELLS`` cells each.  A point of a line that is
    missing from ``points`` raises AssertionError.  The polar form must
    vanish at no point.
    """
    k = form.field
    q, n = k.q, form.dim
    mul, add = k.mul_table, k.add_table
    index, mulf, addf = _flat_tables(k)
    digits = np.asarray(points, dtype=np.int64).reshape(-1, n)
    n_pts = len(digits)
    weights = _code_weights(q, n)
    # the coordinates of every scalar multiple c*v, c = 1..q-1, of every
    # point v, gathered once
    scaled = np.stack([mul[c][digits] for c in range(1, q)],
                      axis=1).astype(index)
    multiples = scaled @ weights
    look = code_lookup(multiples, q**n)
    # coefficients of the polar functional w -> B(v, w) of every point v
    gram = form.gram if isinstance(form, AlternatingForm) else form.polar_gram
    coef = np.zeros(digits.shape, dtype=mul.dtype)
    for i in range(n):
        for j in range(n):
            g = gram.entry(i, j)
            if g:
                coef[:, j] = add[coef[:, j], mul[digits[:, i], g]]
    if not coef.any(axis=1).all():
        raise ValueError("the polar form vanishes at a point")
    every = np.arange(n_pts)
    piv = (coef != 0).argmax(axis=1)
    inv = np.array([0] + [k.inv(a) for a in range(1, q)], dtype=mul.dtype)
    neg = np.array([k.neg(a) for a in range(q)], dtype=index)
    # -c_i / c_piv, the piv coordinate of the kernel vector of coordinate i
    slope = neg[mul[coef, inv[coef[every, piv]][:, None]]]
    other = digits != 0
    other[every, piv] = False
    free = np.ones((n_pts, n), dtype=bool)
    free[every, piv] = free[every, other.argmax(axis=1)] = False
    free = np.nonzero(free)[1].reshape(n_pts, n - 2)
    cand = np.asarray(projective_points(k, n - 2), dtype=index)
    m = len(cand)
    # Q at every vector code; Q(w + mu*v) = Q(w) on v^perp
    qval = (None if isinstance(form, AlternatingForm) else
            _quadratic_values(form, _code_digits(np.arange(q**n), q, n)))
    step = max(1, _PENCIL_CELLS // (m * (q + 1) * n))
    out = [np.empty((0, q + 1), dtype=np.int64)]
    for lo in range(0, n_pts, step):
        pts = every[lo:lo + step]
        # w = sum_a cand[:, a] * (kernel vector of free[:, a]) has cand at
        # the free coordinates, their dot product with the slopes at piv
        # and 0 at the other one; its code is summed from those
        sl = slope[pts[:, None], free[pts]]
        dot = mulf.take(sl[:, 0, None] * q + cand[:, 0])
        for a in range(1, n - 2):
            term = mulf.take(sl[:, a, None] * q + cand[:, a])
            dot = dot ^ term if addf is None else addf.take(dot * q + term)
        codes = weights[free[pts]] @ cand.T.astype(np.int64)
        codes += dot * weights[piv[pts], None]
        if qval is None:
            owner, codes = np.repeat(pts, m), codes.ravel()
        else:
            owner, which = np.nonzero(qval[codes] == 0)
            owner, codes = owner + lo, codes[owner, which]
        # the codes of the line's points w + mu*v, mu = 0..q-1
        if addf is None:
            line = np.column_stack((codes, codes[:, None] ^ multiples[owner]))
        else:
            w = _code_digits(codes, q, n).astype(index)
            line = np.column_stack((codes, addf.take(
                w[:, None] * q + scaled[owner]) @ weights))
        ids = look[line]
        least = ids.min(axis=1)
        if (least < 0).any():
            raise AssertionError("a point of a singular line is not singular")
        first = owner < least
        rows = np.column_stack((owner[first], np.sort(ids[first], axis=1)))
        out.append(rows[np.lexsort((rows[:, 1], rows[:, 0]))])
    return np.concatenate(out)


def enumerate_singular(form, dim: int) -> list[Subspace]:
    """Totally isotropic/singular subspaces of the given dimension.

    Ordered by their canonical echelon bases (ascending), each exactly
    once.  dim 1 gives GQ points, dim 2 gives GQ lines.  The points are
    found by evaluating the form over the codes of all normalised
    vectors at once, the lines by ``singular_line_rows``.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    k = form.field
    n = form.dim
    pts = _singular_points(form)
    if dim == 1:
        return [Subspace(k, n, [v]) for v in pts]
    out = [Subspace(k, n, [pts[a], pts[b]])
           for a, b in singular_line_rows(form, pts)[:, :2].tolist()]
    out.sort(key=lambda s: s.basis)
    return out


# ---------------------------------------------------------------------------
# batched matrix algebra on stacks of code matrices
# ---------------------------------------------------------------------------

def _flat_tables(field: GF) -> tuple:
    """(index, mul, add): the field's tables flattened for gathers at
    a*q + b, in the narrowest unsigned dtype ``index`` that holds
    q^2 - 1: uint8 up to q = 16, uint16 up to 256, else uint32.  add is
    None in characteristic 2, where xor adds codes."""
    q = field.q
    index = np.uint8 if q <= 16 else np.uint16 if q <= 256 else np.uint32
    mul = field.mul_table.astype(index, copy=False).ravel()
    add = (None if field.p == 2
           else field.add_table.astype(index, copy=False).ravel())
    return index, mul, add


def mat_mul_batch(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise-GF product of stacks of matrices.

    a has shape (..., n, k), b shape (..., k, m), with broadcastable
    leading batch dimensions of any ndim each, both of field codes of
    an integer dtype (else TypeError); a code outside 0..q-1 raises
    ValueError naming the first one.  Works via the field's lookup
    tables, so q <= 1024.

    Each operand is copied once, batch-last (matrix axes first, batch
    axes last, contiguous), in the index dtype of ``_flat_tables``.  Each
    inner term t is then one gather from the flattened multiplication
    table at a[t]*q + b[t] over the whole batch, added by xor in
    characteristic 2, else by one gather from the flattened addition
    table; stacks whose last batch axis is long run best.  Returns int64
    codes of shape (*batch, n, m) that keep the batch-last memory: not
    C-contiguous when there is a batch, and a product fed back in is not
    copied into another layout.
    """
    q = field.q
    index, mul, add = _flat_tables(field)
    a, b = np.asarray(a), np.asarray(b)
    for x in (a, b):
        if x.dtype.kind not in "biu":
            raise TypeError(f"field codes must be integers, not {x.dtype}")
        # read as unsigned, a negative code is a huge one
        if x.size and x.view(f"u{x.itemsize}").max() >= q:
            bad = x[(x < 0) | (x >= q)][0]
            raise ValueError(f"code {bad} out of range for GF({q})")
    nd = max(a.ndim, b.ndim)

    def batch_last(x):
        # (..., r, c) -> contiguous (r, c, *batch), batch padded to nd - 2;
        # narrowed in x's own memory order first, which is the fast cast
        x = x.reshape((1,) * (nd - x.ndim) + x.shape).astype(index)
        return np.ascontiguousarray(x.transpose(nd - 2, nd - 1,
                                                *range(nd - 2)))

    aq = batch_last(a.swapaxes(-1, -2)) * q         # (k, n, *batch)
    terms = (mul.take(x[:, None] + y) for x, y in zip(aq, batch_last(b)))
    acc = next(terms)
    for term in terms:
        if add is None:
            acc ^= term
        else:
            acc = add.take(acc * q + term)
    return acc.astype(np.int64).transpose(*range(2, nd), 0, 1)
