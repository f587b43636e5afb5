"""The singular-line pencils against the routes they replaced.

``isotropic_lines_by_echelon_oracle``, ``singular_lines_by_pairs_oracle``
and ``gu513_lines_oracle`` are the earlier per-line and per-pair Python
routes: every 2x4 echelon pattern tested against the alternating form,
the later orthogonal points of each singular point split into lines
through ``normalise_point``, and the per-point mate loop of
``build_gu513``.  ``build_from_form_oracle`` numbers the points of each
line through ``Subspace.points()``.  ``pair_line_rows_oracle`` is the
pair kernel that ``linalg.singular_line_rows`` used before it built one
pencil per point: it tests every pair of points for collinearity, a
chunk of first points at a time.  They are kept here only, as oracles
for ``linalg.singular_line_rows``, ``enumerate_singular`` and
``build_from_form``, which look vectors up by integer code.
"""

import itertools

import numpy as np
import pytest

import gquad.linalg as linalg
from gquad.constructions import _triple_plane_form, build_gu513
from gquad.gf import GF
from gquad.incidence import Quadrangle, build_from_form
from gquad.linalg import (
    AlternatingForm,
    QuadraticForm,
    Subspace,
    _code_digits,
    _code_weights,
    code_lookup,
    enumerate_singular,
    normalise_point,
    projective_points,
    singular_line_rows,
)


def singular_points_oracle(form) -> list[tuple]:
    """Normalised singular points, one form evaluation per point."""
    pts = projective_points(form.field, form.dim)
    if isinstance(form, AlternatingForm):
        return pts
    return [v for v in pts if form.eval(v) == 0]


def isotropic_lines_by_echelon_oracle(form: AlternatingForm) -> list[Subspace]:
    """Every 2x4 reduced echelon pattern on which beta vanishes."""
    k = form.field
    out = []
    for p1 in range(4):
        for p2 in range(p1 + 1, 4):
            free1 = [j for j in range(p1 + 1, 4) if j != p2]
            free2 = [j for j in range(p2 + 1, 4)]
            nf = len(free1) + len(free2)
            for vals in itertools.product(k.elements(), repeat=nf):
                r1 = [0, 0, 0, 0]
                r2 = [0, 0, 0, 0]
                r1[p1] = 1
                r2[p2] = 1
                for j, c in zip(free1, vals):
                    r1[j] = c
                for j, c in zip(free2, vals[len(free1):]):
                    r2[j] = c
                if form.eval(r1, r2) == 0:
                    out.append(Subspace(k, 4, [r1, r2]))
    out.sort(key=lambda s: s.basis)
    return out


def singular_lines_by_pairs_oracle(form: QuadraticForm,
                                   pts: list[tuple]) -> list[Subspace]:
    """For each singular point u in ascending order, split the later
    orthogonal singular points into the lines through u; a line is
    recorded when u is its least point."""
    k = form.field
    index = {v: i for i, v in enumerate(pts)}
    arr = np.asarray(pts, dtype=np.int64)
    mul_np = k.mul_table.astype(np.int64)
    add_np = k.add_table.astype(np.int64)
    add, mul, _, _ = k.scalar_tables()
    out = []
    for i, u in enumerate(pts):
        w = form.polar_gram.apply(u)
        prod = np.zeros(len(pts), dtype=np.int64)
        for col, wc in enumerate(w):
            if wc:
                prod = add_np[prod, mul_np[arr[:, col], wc]]
        mates = np.nonzero(prod[i + 1:] == 0)[0] + i + 1
        claimed = set()
        for j in mates:
            j = int(j)
            if j in claimed:
                continue
            v = pts[j]
            ids = [i, j]
            least = i
            for c in range(1, k.q):
                mc = mul[c]
                t = index[normalise_point(
                    k, tuple(add[a][mc[b]] for a, b in zip(u, v)))]
                ids.append(t)
                if t < least:
                    least = t
            claimed.update(x for x in ids if x > i)
            if least == i:
                out.append(Subspace(k, form.dim, [u, v]))
    out.sort(key=lambda s: s.basis)
    return out


def enumerate_lines_oracle(form) -> list[Subspace]:
    if isinstance(form, AlternatingForm):
        return isotropic_lines_by_echelon_oracle(form)
    return singular_lines_by_pairs_oracle(form, singular_points_oracle(form))


def build_from_form_oracle(form) -> Quadrangle:
    """Lines numbered point by point through ``Subspace.points()``."""
    points = singular_points_oracle(form)
    index = {p: i for i, p in enumerate(points)}
    lines = [tuple(index[p] for p in sub.points())
             for sub in enumerate_lines_oracle(form)]
    return Quadrangle(len(points), lines, labels=points)


def pair_line_rows_oracle(form, points, chunk_cells=1 << 18) -> np.ndarray:
    """Every line through two collinear points, as sorted index rows.

    Two singular points span a singular line exactly when the polar form
    vanishes on them.  That form is linear in the second point, so for a
    chunk of first points it is tabulated over the codes of the first
    half of the coordinates and over those of the second half, and
    collinearity is a comparison of two table gathers.  For each pair
    i < j the other q-1 points i + c*j of its line come from one lookup;
    the pair is kept only when j is the least of them, so each line is
    emitted once, as the row (i, j, others ascending), and the rows
    ascend.
    """
    k = form.field
    q, n = k.q, form.dim
    mul, add = k.mul_table, k.add_table
    digits = np.asarray(points, dtype=np.int64).reshape(-1, n)
    weights = _code_weights(q, n)
    scaled = np.stack([mul[c][digits] for c in range(1, q)],
                      axis=1).astype(np.intp)
    multiples = scaled @ weights
    look = code_lookup(multiples, q**n)
    if k.p == 2:
        def span_codes(i, j):
            return multiples[i, :1] ^ multiples[j]  # bit-field coordinates
    else:
        flat_add = add.ravel()
        rows = digits * q

        def span_codes(i, j):
            return (flat_add[rows[i, None] + scaled[j]].astype(np.int64)
                    @ weights)

    gram = form.gram if isinstance(form, AlternatingForm) else form.polar_gram
    coef = np.zeros(digits.shape, dtype=mul.dtype)
    for i in range(n):
        for j in range(n):
            g = gram.entry(i, j)
            if g:
                coef[:, j] = add[coef[:, j], mul[digits[:, i], g]]
    neg = np.asarray([k.neg(a) for a in range(q)], dtype=mul.dtype)
    h = n // 2
    codes = multiples[:, 0]
    head, tail = codes // q**(n - h), codes % q**(n - h)
    head_digits = _code_digits(np.arange(q**h), q, h)
    tail_digits = _code_digits(np.arange(q**(n - h)), q, n - h)

    def partial(cf, dg):
        acc = np.zeros((len(cf), len(dg)), dtype=mul.dtype)
        for t in range(dg.shape[1]):
            acc = add[acc, mul[cf[:, t, None], dg[None, :, t]]]
        return acc

    n_pts = len(digits)
    step = max(1, chunk_cells // max(1, n_pts))
    out = [np.empty((0, q + 1), dtype=np.int64)]
    for lo in range(0, n_pts, step):
        hi = min(lo + step, n_pts)
        cf = coef[lo:hi]
        top = partial(cf[:, :h], head_digits)
        bottom = neg[partial(cf[:, h:], tail_digits)]
        r, c = np.nonzero(top[:, head[lo + 1:]] == bottom[:, tail[lo + 1:]])
        i, j = r + lo, c + lo + 1
        later = j > i
        i, j = i[later], j[later]
        others = look[span_codes(i, j)]
        least = others.min(axis=1)
        if (least < 0).any():
            raise AssertionError("a point of a singular line is not singular")
        first = j < least
        out.append(np.column_stack(
            (i[first], j[first], np.sort(others[first], axis=1))))
    return np.concatenate(out)


def gu513_lines_oracle():
    """(labels, lines) of the norm-trace Q-(5,8), one point at a time."""
    k = GF(p=2, f=18)
    q1 = k.q - 1
    exp_l, log_l = k._ensure_exp_log()
    exp = np.asarray(exp_l, dtype=np.int64)
    log = np.asarray(log_l, dtype=np.int64)

    def pow_all(v, n):
        return np.where(v == 0, 0, exp[(log[v] * n) % q1])

    codes = np.arange(k.q, dtype=np.int64)
    norm = pow_all(codes, 513)
    qval = norm ^ pow_all(norm, 8) ^ pow_all(norm, 64)
    step = q1 // 7
    rep = codes.copy()
    for j in range(1, 7):
        m = rep.copy()
        m[1:] = exp[(log[codes[1:]] + j * step) % q1]
        m[0] = 0
        np.minimum(rep, m, out=rep)
    pts = np.unique(rep[codes[(qval == 0) & (codes > 0)]])
    look = np.full(k.q, -1, dtype=np.int64)
    look[pts] = np.arange(pts.size)
    lines = []
    for i in range(pts.size):
        u = int(pts[i])
        mates = pts[qval[np.bitwise_xor(pts, u)] == 0]
        mates = mates[mates != u]
        umul = [int(exp[(log[u] + j * step) % q1]) for j in range(7)]
        claimed = set()
        for w in mates.tolist():
            if w in claimed:
                continue
            cell = {w} | {int(rep[w ^ m]) for m in umul}
            claimed |= cell
            idxs = sorted(int(look[c]) for c in cell) + [i]
            idxs.sort()
            if idxs[0] == i:
                lines.append(tuple(idxs))
    return [int(c) for c in pts], sorted(lines)


W3_QS = [2, 3, 4, 5, 7, 8, 9]
QMINUS_QS = [2, 3, 4, 5]


def _forms():
    for q in W3_QS:
        yield f"W(3,{q})", AlternatingForm(GF.default(q))
    for q in QMINUS_QS:
        yield f"Q-(5,{q})", QuadraticForm(GF.default(q))
    yield "Q-(5,2) three planes", _triple_plane_form(GF.default(2))


FORMS = dict(_forms())


@pytest.mark.parametrize("name", list(FORMS))
def test_enumerate_singular_matches_oracle(name):
    form = FORMS[name]
    pts = enumerate_singular(form, 1)
    assert [s.basis[0] for s in pts] == singular_points_oracle(form)
    assert enumerate_singular(form, 2) == enumerate_lines_oracle(form)


@pytest.mark.parametrize("name", list(FORMS))
def test_build_from_form_matches_oracle(name):
    form = FORMS[name]
    want = build_from_form_oracle(form)
    got = build_from_form(form.field, form, 1, 1, name)
    assert got.labels == want.labels
    assert got.lines == want.lines


@pytest.mark.parametrize("name", ["W(3,5)", "W(3,8)", "Q-(5,3)", "Q-(5,4)"])
def test_line_rows_do_not_depend_on_the_chunk_size(name, monkeypatch):
    form = FORMS[name]
    pts = [s.basis[0] for s in enumerate_singular(form, 1)]
    whole = singular_line_rows(form, pts)
    for cells in (1, 37, 500, 5000):
        monkeypatch.setattr(linalg, "_PENCIL_CELLS", cells)
        assert np.array_equal(singular_line_rows(form, pts), whole)


LARGE_FORMS = {"W(3,16)": AlternatingForm(GF.default(16)),
               "Q-(5,7)": QuadraticForm(GF.default(7))}


@pytest.mark.parametrize("name", list(FORMS) + list(LARGE_FORMS))
def test_line_rows_match_the_pair_kernel(name):
    form = {**FORMS, **LARGE_FORMS}[name]
    pts = [s.basis[0] for s in enumerate_singular(form, 1)]
    got = singular_line_rows(form, pts)
    want = pair_line_rows_oracle(form, pts)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["W(3,3)", "Q-(5,3)", "Q-(5,2) three planes"])
def test_line_rows_reject_a_missing_point(name):
    form = FORMS[name]
    pts = [s.basis[0] for s in enumerate_singular(form, 1)]
    for gone in (0, len(pts) // 2, len(pts) - 1):
        with pytest.raises(AssertionError, match="not singular"):
            singular_line_rows(form, pts[:gone] + pts[gone + 1:])


def test_line_rows_need_a_nondegenerate_polar_form():
    # Q(x) = x1 x2 on GF(3)^4: the polar form vanishes on (0, 0, 1, 0)
    k = GF.default(3)
    rows = [[0] * 4 for _ in range(4)]
    rows[0][1] = 1
    form = QuadraticForm(k, coeff=linalg.Mat.from_rows(k, rows))
    pts = [s.basis[0] for s in enumerate_singular(form, 1)]
    with pytest.raises(ValueError, match="polar form vanishes"):
        singular_line_rows(form, pts)


def test_line_rows_are_sorted_rows_of_lines():
    form = FORMS["Q-(5,3)"]
    pts = [s.basis[0] for s in enumerate_singular(form, 1)]
    rows = singular_line_rows(form, pts)
    assert rows.shape == (10 * 28, 4)
    assert (np.diff(rows, axis=1) > 0).all()
    assert [tuple(r) for r in rows.tolist()] == sorted(map(tuple,
                                                           rows.tolist()))


def test_gu513_lines_match_oracle():
    _, gq = build_gu513()
    labels, lines = gu513_lines_oracle()
    assert gq.labels == tuple(labels)
    assert gq.lines == tuple(lines)
