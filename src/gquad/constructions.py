"""Point-regular group constructions on classical quadrangles.

Everything on the symplectic side is anchored at the base point
(1,0,0,0) of W(3,q).  Its stabiliser contains the root elations
t(a,b,c) and the shears theta(alpha), lower unitriangular matrices that
multiply by simple closed-form rules.  Products of these realise the
groups this package studies: the elation group E of order q^3, the
shear-extended group P, the split variants S(U,W) built from a
decomposition of the field, and the unipotent group T of order q^4.
E, P and the S(U,W) all act point-regularly on the q^3 points of the
quadrangle derived at the base point.

Two further regular groups live on elliptic quadrics directly: the two
extraspecial groups of order 27 on Q-(5,2), and a group of order 4617
on Q-(5,8) built from the norm and trace maps of GF(2^18) over GF(8).

Matrix convention: row vectors, right action v @ M, so products apply
left to right and match the group operation of the induced
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import GF
from .groups import (FiniteGroup, InvalidPermutationError, PermGroup,
                     Permutation, TooLargeError, _extend_homomorphisms)
from .incidence import Quadrangle, build_from_form, build_w3, gq_isomorphic, \
    payne_derive
from .linalg import (Mat, QuadraticForm, SemilinearMap, _check_vec,
                     _code_weights, _flat_tables, code_lookup,
                     mat_mul_batch, normalise_point, rref)

__all__ = [
    "BASE_POINT",
    "NotAnAutomorphismError",
    "elation_matrix",
    "shear_matrix",
    "shear_power_matrix",
    "elation_gens",
    "axis_gens",
    "centre_gens",
    "shear_gens",
    "split_gens",
    "unipotent_gens",
    "elation_group",
    "shear_group",
    "split_group",
    "unipotent_group",
    "DerivedModel",
    "build_derived_model",
    "action_from_linear",
    "ambient_stabiliser_gens",
    "ambient_stabiliser",
    "iso_E_to_P",
    "build_extraspecial27",
    "build_gu513",
    "verify_elation_product_rule",
    "verify_elation_commutator_rule",
    "verify_conjugation_relations",
    "verify_shear_power_formula",
    "sylow_exponent",
]

BASE_POINT = (1, 0, 0, 0)


class NotAnAutomorphismError(ValueError):
    """A linear map failed to act on a quadrangle."""


# ---------------------------------------------------------------------------
# the two families of unipotent stabiliser elements
# ---------------------------------------------------------------------------

def elation_matrix(field: GF, a: int, b: int, c: int) -> Mat:
    """The root elation t(a,b,c), fixing the base point.

    t(a,b,c) t(x,y,z) = t(a+x-bz+cy, b+y, c+z), so these q^3 matrices
    form a group, with t(a,b,c)^-1 = t(-a,-b,-c).
    """
    return Mat.from_rows(field, [
        (1, 0, 0, 0),
        (field.neg(c), 1, 0, 0),
        (b, 0, 1, 0),
        (a, b, c, 1),
    ])


def shear_matrix(field: GF, alpha: int) -> Mat:
    """The shear theta(alpha), fixing the base point."""
    a2 = field.mul(alpha, alpha)
    return Mat.from_rows(field, [
        (1, 0, 0, 0),
        (field.neg(alpha), 1, 0, 0),
        (field.neg(a2), alpha, 1, 0),
        (0, 0, alpha, 1),
    ])


def shear_power_matrix(field: GF, alpha: int, n: int) -> Mat:
    """Closed form for theta(alpha)^n.

    The binomial coefficients are divided as integers before reduction
    mod p, which keeps the formula valid in every characteristic.
    """
    k = field
    a2 = k.mul(alpha, alpha)
    a3 = k.mul(a2, alpha)
    return Mat.from_rows(k, [
        (1, 0, 0, 0),
        (k.mul(k.scalar(-n), alpha), 1, 0, 0),
        (k.mul(k.scalar(-(n * (n + 1) // 2)), a2),
         k.mul(k.scalar(n), alpha), 1, 0),
        (k.mul(k.scalar(-(n * (n * n - 1) // 6)), a3),
         k.mul(k.scalar(n * (n - 1) // 2), a2),
         k.mul(k.scalar(n), alpha), 1),
    ])


def _basis(field: GF) -> list[int]:
    # codes of 1, x, x^2, ... : a GF(p)-basis of the field
    return [field.p ** j for j in range(field.f)]


# ---------------------------------------------------------------------------
# generating sets and matrix groups
# ---------------------------------------------------------------------------

def centre_gens(field: GF) -> list[Mat]:
    """Generators of Z = {t(a,0,0)}, order q."""
    return [elation_matrix(field, a, 0, 0) for a in _basis(field)]


def axis_gens(field: GF) -> list[Mat]:
    """Generators of R = {t(a,b,0)}, order q^2."""
    return centre_gens(field) + \
        [elation_matrix(field, 0, b, 0) for b in _basis(field)]


def elation_gens(field: GF) -> list[Mat]:
    """Generators of the full elation group E = {t(a,b,c)}, order q^3."""
    return axis_gens(field) + \
        [elation_matrix(field, 0, 0, c) for c in _basis(field)]


def shear_gens(field: GF) -> list[Mat]:
    """Generators of P = <R, all shears>, order q^3."""
    return axis_gens(field) + \
        [shear_matrix(field, al) for al in _basis(field)]


def split_gens(field: GF, u_basis: Sequence[int] | None = None,
               w_basis: Sequence[int] | None = None) -> list[Mat]:
    """Generators of S(U,W) = <R, theta(U), t(0,0,W)>, order q^3.

    U and W are given by GF(p)-bases (field codes) and must satisfy
    U + W = field as a direct sum.  The defaults are U = <1> and
    W = <x, ..., x^(f-1)>.
    """
    k = field
    base = _basis(k)
    if u_basis is None and w_basis is None:
        u_basis, w_basis = base[:1], base[1:]
    elif u_basis is None or w_basis is None:
        raise ValueError("give both bases or neither")
    u_basis, w_basis = list(u_basis), list(w_basis)
    if len(u_basis) + len(w_basis) != k.f:
        raise ValueError("basis sizes must add up to the field degree")
    prime = GF.default(k.p)
    rows = [k.coeffs(v) for v in u_basis + w_basis]
    if len(rref(prime, rows)) != k.f:
        raise ValueError("U and W do not span the field")
    return axis_gens(k) + [shear_matrix(k, u) for u in u_basis] + \
        [elation_matrix(k, 0, 0, w) for w in w_basis]


def unipotent_gens(field: GF) -> list[Mat]:
    """Generators of T = <E, all shears>, order q^4."""
    return elation_gens(field) + \
        [shear_matrix(field, al) for al in _basis(field)]


def _matrix_group(field: GF, gens: list[Mat]) -> FiniteGroup:
    return FiniteGroup(Mat.identity(field, 4), gens)


def elation_group(field: GF) -> FiniteGroup:
    return _matrix_group(field, elation_gens(field))


def shear_group(field: GF) -> FiniteGroup:
    return _matrix_group(field, shear_gens(field))


def split_group(field: GF, u_basis: Sequence[int] | None = None,
                w_basis: Sequence[int] | None = None) -> FiniteGroup:
    return _matrix_group(field, split_gens(field, u_basis, w_basis))


def unipotent_group(field: GF) -> FiniteGroup:
    return _matrix_group(field, unipotent_gens(field))


# ---------------------------------------------------------------------------
# the derived quadrangle and matrix actions on labelled quadrangles
# ---------------------------------------------------------------------------

@dataclass
class DerivedModel:
    """W(3,q) together with its derivation at the base point."""
    field: GF
    ambient_gq: Quadrangle
    base: int
    gq: Quadrangle


def build_derived_model(field: GF) -> DerivedModel:
    w = build_w3(field)
    x = w.point_id(BASE_POINT)
    return DerivedModel(field, w, x, payne_derive(w, x))


def action_from_linear(field: GF, maps: Sequence, gq: Quadrangle,
                       ) -> PermGroup:
    """Point permutations of a labelled quadrangle induced by matrices.

    Labels must be normalised coordinate rows; maps can be Mat or
    SemilinearMap, all applied to all labels by one ``mat_mul_batch``.
    A map that fails to permute the points, or permutes them but breaks
    a line, raises NotAnAutomorphismError.
    """
    if gq.labels is None:
        raise ValueError("quadrangle carries no coordinate labels")
    labels = np.array(gq.labels, dtype=np.intp)
    n = labels.shape[1]
    weights = _code_weights(field.q, n)
    look = code_lookup((field.mul_table[1:, labels] @ weights).T,
                       field.q * weights[0])
    maps = [(m.mat, m.frob) if isinstance(m, SemilinearMap) else (m, 0)
            for m in maps]
    for mat, _ in maps:
        _check_vec(field, gq.labels[0], mat.rows)
    frob = np.array([[field.frob(x, e) for x in range(field.q)]
                     for _, e in maps], dtype=np.intp).reshape(-1, field.q)
    mats = np.array([mat.to_array() for mat, _ in maps]).reshape(-1, n, n)
    # each label is a 1 x n matrix, so the labels make the long batch axis
    images = mat_mul_batch(field, frob[:, labels][:, :, None],
                           mats[:, None])[:, :, 0]
    gens = []
    for img, ids in zip(images, look[images @ weights]):
        bad = np.flatnonzero(ids < 0)
        if bad.size:
            w = normalise_point(field, img[bad[0]].tolist())
            raise NotAnAutomorphismError(
                f"{gq.labels[bad[0]]} maps to {w}, which is not a point")
        try:
            g = Permutation(ids)
        except InvalidPermutationError:
            raise NotAnAutomorphismError(
                "map is not injective on points") from None
        if (gq.line_index(g.arr[gq.line_matrix()]) < 0).any():
            raise NotAnAutomorphismError("map does not preserve lines")
        gens.append(g)
    return PermGroup(gq.n_points, gens)


def ambient_stabiliser_gens(field: GF) -> list:
    """Generators of a subgroup of the base-point stabiliser in
    PGammaSp(4,q): all of it at even q, index 2 at odd q.

    Root elations, the unipotents of a Levi SL(2) acting on the middle
    two coordinates, a torus element, and the Frobenius map when the
    field is not prime.  No similitude is among them, which at odd q
    leaves out half the stabiliser (order 30000 against 60000 at q = 5;
    ROADMAP item 1).  Feed these to action_from_linear on W(3,q) or on
    the derived quadrangle.
    """
    k = field
    gens: list = list(elation_gens(k))
    for al in _basis(k):
        gens.append(Mat.from_rows(k, [(1, 0, 0, 0), (0, 1, al, 0),
                                      (0, 0, 1, 0), (0, 0, 0, 1)]))
        gens.append(Mat.from_rows(k, [(1, 0, 0, 0), (0, 1, 0, 0),
                                      (0, al, 1, 0), (0, 0, 0, 1)]))
    lam = k.primitive()
    if lam != 1:
        gens.append(Mat.from_rows(k, [(lam, 0, 0, 0), (0, 1, 0, 0),
                                      (0, 0, 1, 0), (0, 0, 0, k.inv(lam))]))
    if k.f > 1:
        gens.append(SemilinearMap(Mat.identity(k, 4), 1))
    return gens


def ambient_stabiliser(field: GF, gq: Quadrangle) -> PermGroup:
    """The stabiliser of the base point, acting on a labelled model."""
    return action_from_linear(field, ambient_stabiliser_gens(field), gq)


# ---------------------------------------------------------------------------
# the isomorphism E -> P in characteristic > 3
# ---------------------------------------------------------------------------

def iso_E_to_P(field: GF) -> dict:
    """An explicit isomorphism from E onto P, as a dict of matrices.

    Sends t(a,b,0) to itself and t(0,-alpha^2/2,alpha) to
    theta(alpha); only exists in characteristic > 3 (in characteristic
    2 and 3 the two groups have different exponents).
    """
    k = field
    if k.p in (2, 3):
        raise ValueError(
            f"E and P are not isomorphic in characteristic {k.p}")
    P = shear_group(k)
    E = elation_group(k)
    inv2 = k.inv(k.scalar(2))
    images = list(axis_gens(k))
    for al in _basis(k):
        b = k.neg(k.mul(inv2, k.mul(al, al)))
        images.append(elation_matrix(k, 0, b, al))
    assert len(P.gens) == len(images)
    start = np.full((1, P.order), -1, dtype=np.intp)
    start[0, 0] = 0
    phi = _extend_homomorphisms(
        P, E, [P.index[g] for g in P.gens],
        np.array([[E.index[m] for m in images]], dtype=np.intp), start)
    if not len(phi):
        raise AssertionError("shear-to-elation map is not an isomorphism")
    # an injective homomorphism between groups of order q^3 is onto
    return {E.elements[j]: P.elements[i]
            for i, j in enumerate(phi[0].tolist())}


# ---------------------------------------------------------------------------
# regular groups on elliptic quadrics
# ---------------------------------------------------------------------------

# x^2 + xy + y^2: anisotropic over GF(2), preserved by the order-3 map A
_PLANE = ((1, 1), (0, 1))
_A3 = ((0, 1), (1, 1))
_A3_INV = ((1, 1), (1, 0))
_I2 = ((1, 0), (0, 1))


def _triple_plane_form(field: GF) -> QuadraticForm:
    rows = [[0] * 6 for _ in range(6)]
    for blk in range(3):
        for i in range(2):
            for j in range(2):
                rows[2 * blk + i][2 * blk + j] = _PLANE[i][j]
    return QuadraticForm(field, coeff=Mat.from_rows(field, rows))


def _block_matrix(field: GF, blocks) -> Mat:
    """A 6x6 matrix assembled from a 3x3 grid of 2x2 blocks."""
    rows = [[0] * 6 for _ in range(6)]
    for bi, brow in enumerate(blocks):
        for bj, blk in enumerate(brow):
            if blk is None:
                continue
            for i in range(2):
                for j in range(2):
                    rows[2 * bi + i][2 * bj + j] = blk[i][j]
    return Mat.from_rows(field, rows)


def build_extraspecial27(kind: str, target: Quadrangle | None = None,
                         ) -> tuple[PermGroup, Quadrangle]:
    """A point-regular extraspecial group of order 27 on Q-(5,2).

    kind is "exp3" or "exp9", the exponent of the group.  The model
    quadrangle splits GF(2)^6 into three anisotropic planes, which is
    where the generators are block matrices; pass target (any copy of
    Q-(5,2)) to have the action transported onto it instead.  Returns
    (group, quadrangle acted on).
    """
    k = GF.default(2)
    gq = build_from_form(k, _triple_plane_form(k), 2, 4,
                         "Q-(5,2) three-plane model")
    if kind == "exp3":
        mats = [
            _block_matrix(k, [[_A3, None, None], [None, _A3_INV, None],
                              [None, None, _I2]]),
            _block_matrix(k, [[_I2, None, None], [None, _A3, None],
                              [None, None, _A3_INV]]),
            _block_matrix(k, [[None, _I2, None], [None, None, _I2],
                              [_I2, None, None]]),
        ]
    elif kind == "exp9":
        mats = [
            _block_matrix(k, [[None, _A3, None], [None, None, _I2],
                              [_I2, None, None]]),
            _block_matrix(k, [[None, _I2, None], [None, None, _A3],
                              [_I2, None, None]]),
        ]
    else:
        raise ValueError(f"kind must be 'exp3' or 'exp9', not {kind!r}")
    group = action_from_linear(k, mats, gq)
    if target is None:
        return group, gq
    iso = gq_isomorphic(gq, target)
    if iso is None:
        raise ValueError("target is not a copy of Q-(5,2)")
    pa = Permutation([iso[i] for i in range(gq.n_points)])
    # pa^-1 g pa: apply pa^-1, then g, then pa
    return PermGroup(target.n_points,
                     pa.arr[group.rows[:, pa.inverse().arr]]), target


def build_gu513() -> tuple[PermGroup, Quadrangle]:
    """A point-regular group of order 4617 = 513 * 9 on Q-(5,8).

    Model: GF(2^18) viewed as a 6-space over GF(8).  The composite
    Q(x) = Tr(x^513) of the norm onto GF(512) and the trace onto GF(8)
    is an elliptic quadratic form, so its 4617 singular projective
    points and totally singular lines form Q-(5,8).  Multiplication by
    the 513 norm-one elements together with the Frobenius x -> x^4
    (order 9, semilinear over GF(8)) act regularly on the points.

    A point is the residue mod m = 37449 of the logs of its vectors to
    the primitive zeta, as GF(8)* = <zeta^m>; its label is the least
    code of its scalar orbit.  Q(zeta^l) = Tr(zeta^(513 l)) depends on
    l mod 511 only, so one table of 511 traces finds the singular ones.

    The lines are found without a search over pairs of points: the 65
    lines through point 0 come from its 520 collinear points, and every
    line is the image of 9 of them under the group, which maps lines to
    lines and acts on residues: the multiplier adds 511, the Frobenius
    multiplies by 4.  Of those 9 images the one kept is the one that
    sends point 0 to the line's least point, so each line is made once.

    Returns (group, quadrangle); group.gens[0] is the norm-one
    multiplier, group.gens[1] the Frobenius.
    """
    k = GF.default(1 << 18)
    q1 = k.q - 1                       # 262143 = 513 * 511
    m = q1 // 7                        # 37449 = 513 * 73
    exp, log = k.exp_log_char2()

    # zeta^(513 i) for i < 511 is GF(512)*; add its conjugates over GF(8)
    trace = np.bitwise_xor.reduce(
        exp[np.outer((1, 8, 64), 513 * np.arange(511)) % q1])
    label = exp.reshape(7, m).min(axis=0)    # least code of each residue
    res = np.flatnonzero(trace[np.arange(m) % 511] == 0)
    res = res[np.argsort(label[res])]              # numbered by label
    pts, n = label[res], len(res)
    # two periods: a residue plus a shift below m needs no reduction
    point_of_res = np.full(2 * m, -1, dtype=np.int32)
    point_of_res[res] = point_of_res[res + m] = np.arange(n)

    # the pencil of point 0: for singular u, w the polarisation collapses
    # to B(u,w) = Q(u+w), and addition of codes is xor; the line through
    # 0 and a collinear j holds the points 0 + c*j, and it is kept for
    # the j that is least of them
    nbrs = 1 + np.flatnonzero(trace[log[pts[0] ^ pts[1:]] % 511] == 0)
    sums = pts[0] ^ exp[(log[pts[nbrs]][:, None] + m * np.arange(7)) % q1]
    others = point_of_res[log[sums] % m]
    if (others < 0).any():
        raise AssertionError("a point of a singular line is not singular")
    keep = nbrs < others.min(axis=1)
    # compress keeps the (9, 65) residues C-ordered, as [:, keep] would
    # not: the gathers below take twice as long on a transposed view
    pencil = res[np.vstack((0 * nbrs, nbrs, others.T)).compress(keep, 1)]

    # every group element is x -> zeta^(511a) x^(4^b), a < 513, b < 9, or
    # on residues r -> 4^b r + 511a; both are GF(8)-semilinear and
    # keep Q = 0, so they map lines to lines.  The group is regular, so
    # each line is the image of 9 pencil lines, one for each of its
    # points as the image of point 0: keep the image in which point 0
    # lands on the line's least point
    shifts = (511 * np.arange(513) % m)[:, None]
    rows = []
    for _ in range(9):
        image = point_of_res[pencil[:, None] + shifts]     # (9, 513, 65)
        if (image < 0).any():
            raise AssertionError("map does not preserve the point set")
        rows.append(image[:, image[0] < image[1:].min(axis=0)].T)
        pencil = pencil * 4 % m
    lines = np.sort(np.concatenate(rows), axis=1)
    # two lines share at most one point, so their first two order them
    lines = lines[np.argsort(lines[:, 0] * n + lines[:, 1])]
    gq = Quadrangle(n, lines, s=8, t=64, labels=pts.tolist(),
                    name="Q-(5,8) norm-trace model")

    # the norm-one multiplier and the Frobenius
    images = point_of_res[np.stack([res + 511, res * 4 % m])]
    if (images < 0).any():
        raise AssertionError("map does not preserve the point set")
    return PermGroup(n, images), gq


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

def _field_luts(field: GF):
    add = field.add_table.astype(np.int64)
    mul = field.mul_table.astype(np.int64)
    neg = np.array(field.scalar_tables()[2], dtype=np.int64)
    return add, mul, neg


# Each checker builds its matrices once, with the public constructors, as
# stacks of code matrices, and states its identity without inverses:
# theta^-1 x theta = y as x theta = theta y, and [x, y] = z as
# x y = y x z.  Both sides are mat_mul_batch products over a grid of
# parameters, and _mismatches lists the grid positions where they differ.

def _stack(mats) -> np.ndarray:
    return np.array([m.to_array() for m in mats], dtype=np.int64)


def _abc(i, q: int) -> tuple:
    # the parameters (a, b, c) of the elation in row (or rows) i
    return i // (q * q), i // q % q, i % q


def _elations(field: GF):
    """All q^3 root elations, t(a,b,c) in row a*q^2 + b*q + c, with the
    parameter grids a, b, c."""
    a, b, c = _abc(np.arange(field.q ** 3), field.q)
    t = _stack([elation_matrix(field, *abc)
                for abc in zip(a.tolist(), b.tolist(), c.tolist())])
    return t, a, b, c


def _mismatches(blocks, limit: int) -> list[tuple[int, int]]:
    """The first limit grid positions (i, j), row-major, where the two
    sides of an identity differ.

    blocks yields (left, right) stacks of shape (rows, cols, n, n) for
    consecutive row ranges of the grid; it is consumed only until limit
    positions are found.
    """
    bad: list[tuple[int, int]] = []
    lo = 0
    for left, right in blocks:
        i, j = np.nonzero((left != right).any(axis=(-2, -1)))
        bad += zip((i + lo).tolist(), j.tolist())
        if len(bad) >= limit:
            break
        lo += left.shape[0]
    return bad[:max(limit, 0)]


def _elation_pairs(field: GF, limit: int, t: np.ndarray, right) -> list:
    """Compare t_i t_j with right(lo, hi), rows lo..hi of the q^3 x q^3
    grid, over every pair; returns ((a,b,c), (x,y,z)) tuples."""
    q = field.q
    n = q ** 3
    chunk = max(1, (1 << 25) // (n * 64 * 8))
    blocks = ((mat_mul_batch(field, t[lo:lo + chunk, None], t[None, :]),
               right(lo, lo + chunk)) for lo in range(0, n, chunk))
    return [(_abc(i, q), _abc(j, q)) for i, j in _mismatches(blocks, limit)]


def verify_elation_product_rule(field: GF, limit: int = 5) -> list:
    """Check t(a,b,c) t(x,y,z) = t(a+x-bz+cy, b+y, c+z) on all pairs.

    Returns up to limit counterexamples as ((a,b,c), (x,y,z)) tuples;
    an empty list means the rule holds.
    """
    add, mul, neg = _field_luts(field)
    q = field.q
    t, a, b, c = _elations(field)
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    ap = add[add[a1, a], add[neg[mul[b1, c]], mul[c1, b]]]
    code = ap * (q * q) + add[b1, b] * q + add[c1, c]
    return _elation_pairs(field, limit, t, lambda lo, hi: t[code[lo:hi]])


def verify_elation_commutator_rule(field: GF, limit: int = 5) -> list:
    """Check [t(a,b,c), t(x,y,z)] = t(2(cy-bz), 0, 0) on all pairs."""
    add, mul, neg = _field_luts(field)
    q = field.q
    t, _, b, c = _elations(field)
    two = field.scalar(2)
    code = mul[two, add[mul[c[:, None], b], neg[mul[b[:, None], c]]]] \
        * (q * q)

    def right(lo, hi):
        yx = mat_mul_batch(field, t[None, :], t[lo:hi, None])
        return mat_mul_batch(field, yx, t[code[lo:hi]])

    return _elation_pairs(field, limit, t, right)


def verify_conjugation_relations(field: GF, limit: int = 5) -> dict:
    """The four identities tying shears to root elations.

    conjugate:        theta^-1 t(a,b,c) theta
                        = t(a - 2*alpha*b - 2*alpha^2*c, b + alpha*c, c)
    commutator:       [t(a,b,c), theta] = t(-alpha(c^2+2*alpha*c+2b),
                                            alpha*c, 0)
    product:          theta(alpha) theta(beta)
                        = t(alpha^2 beta, alpha beta, 0) theta(alpha+beta)
    shear_commutator: [theta(alpha), theta(beta)]
                        = t(alpha beta (alpha-beta), 0, 0)

    Exhaustive over all parameters; returns a dict from identity name
    to a list (at most limit long) of offending parameter tuples.
    """
    add, mul, neg = _field_luts(field)
    q = field.q
    two = field.scalar(2)
    t, a, b, c = _elations(field)
    th = _stack([shear_matrix(field, al) for al in field.elements()])
    al = np.arange(q)[:, None]      # rows of every grid
    be = np.arange(q)               # columns of the shear grids
    al2 = mul[al, al]
    conj = (add[a, neg[mul[two, add[mul[al, b], mul[al2, c]]]]] * (q * q)
            + add[b, mul[al, c]] * q + c)
    inner = add[mul[c, c], mul[two, add[mul[al, c], b]]]
    comm = neg[mul[al, inner]] * (q * q) + mul[al, c] * q
    t_th = mat_mul_batch(field, t[None, :], th[:, None])
    th_t = mat_mul_batch(field, th[:, None], t[None, :])
    th_th = mat_mul_batch(field, th[:, None], th[None, :])
    sides = {
        "conjugate": (t_th, mat_mul_batch(field, th[:, None], t[conj])),
        "commutator": (t_th, mat_mul_batch(field, th_t, t[comm])),
        "product": (th_th, mat_mul_batch(
            field, t[mul[al2, be] * (q * q) + mul[al, be] * q],
            th[add[al, be]])),
        "shear_commutator": (th_th, mat_mul_batch(
            field, th_th.swapaxes(0, 1),
            t[mul[mul[al, be], add[al, neg[be]]] * (q * q)])),
    }
    out = {name: _mismatches([pair], limit) for name, pair in sides.items()}
    for name in ("conjugate", "commutator"):
        out[name] = [(i, _abc(j, q)) for i, j in out[name]]
    return out


def verify_shear_power_formula(field: GF, n_max: int | None = None,
                               limit: int = 5) -> list:
    """Compare theta(alpha)^n with its closed form for 0 <= n <= n_max.

    The default n_max runs past two full periods of theta.  Returns up
    to limit offending (alpha, n) pairs.
    """
    k = field
    period = k.p * k.p if k.p in (2, 3) else k.p
    if n_max is None:
        n_max = 2 * period + 1
    ns = range(n_max + 1)
    th = _stack([shear_matrix(k, al) for al in k.elements()])
    powers = np.empty((k.q, len(ns), 4, 4), dtype=np.int64)
    acc = np.broadcast_to(np.eye(4, dtype=np.int64), th.shape)
    for n in ns:
        powers[:, n] = acc
        acc = mat_mul_batch(k, acc, th)
    closed = _stack([shear_power_matrix(k, al, n)
                     for al in k.elements() for n in ns])
    return _mismatches([(powers, closed.reshape(powers.shape))], limit)


# sylow_exponent powers the unitriangular matrices this many at a time
_SYLOW_CHUNK = 1 << 16


def _unitriangular_coords(field: GF, lo: int, hi: int) -> np.ndarray:
    """Coordinates (6, hi - lo) of the unitriangular matrices lo..hi-1,
    in the index dtype of ``_flat_tables``: matrix number idx holds the
    base-q digits of idx at (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
    idx = np.arange(lo, hi, dtype=np.uint32)
    out = np.empty((6, hi - lo), dtype=_flat_tables(field)[0])
    for pos in range(6):
        idx, out[pos] = np.divmod(idx, field.q)
    return out


def _unitriangular_mul(field: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of unitriangular matrices given by their coordinates, as
    ``_unitriangular_coords`` orders them, of shape (6, ...).

    The group law read off the matrix product: four gathers from the
    flat multiplication table, and additions by xor in characteristic 2,
    else by gathers from the flat addition table.
    """
    q = field.q
    _, mul, add = _flat_tables(field)

    def plus(x, *ys):
        for y in ys:
            x = x ^ y if add is None else add.take(x * q + y)
        return x

    def times(x, y):
        return mul.take(x * q + y)

    a01, a02, a03, a12, a13, a23 = a
    b01, b02, b03, b12, b13, b23 = b
    return np.stack([
        plus(a01, b01),
        plus(a02, b02, times(a01, b12)),
        plus(a03, b03, times(a01, b13), times(a02, b23)),
        plus(a12, b12),
        plus(a13, b13, times(a12, b23)),
        plus(a23, b23)])


def _unitriangular_pow(field: GF, x: np.ndarray, e: int) -> np.ndarray:
    """The e-th powers (e >= 1) of unitriangular coordinates (6, ...)."""
    out = None
    while e:
        if e & 1:
            out = x if out is None else _unitriangular_mul(field, out, x)
        e >>= 1
        if e:
            x = _unitriangular_mul(field, x, x)
    return out


def sylow_exponent(field: GF) -> int:
    """Exponent of the unitriangular subgroup of GL(4,q), by powering.

    That subgroup is a Sylow p-subgroup of GL(4,q).  All q^6 of its
    elements are raised to the p-th (and if needed p^2-th) power in
    chunks of ``_SYLOW_CHUNK``, each kept as the six above-diagonal
    coordinates of its matrices and multiplied by the group law on
    them; the identity is the element whose coordinates are all 0.  The
    answer is p^2 in characteristic 2 and 3, p beyond.
    """
    q, p = field.q, field.p
    if q > 9:
        raise TooLargeError(f"q^6 matrices get too big for q = {q}")
    count = q ** 6
    all_p = True
    all_p2 = True
    for lo in range(0, count, _SYLOW_CHUNK):
        coords = _unitriangular_coords(field, lo,
                                       min(lo + _SYLOW_CHUNK, count))
        pw = _unitriangular_pow(field, coords, p)
        if pw.any():
            all_p = False
            if _unitriangular_pow(field, pw, p).any():
                all_p2 = False
    if all_p:
        return p
    if all_p2:
        return p * p
    raise AssertionError("unipotent exponent exceeds p^2")
