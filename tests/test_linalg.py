import itertools
import random

import numpy as np
import pytest

from gquad.gf import GF
from gquad.linalg import (
    AlternatingForm,
    DimensionMismatchError,
    Mat,
    QuadraticForm,
    SemilinearMap,
    Subspace,
    enumerate_singular,
    mat_mul_batch,
    normalise_point,
    projective_points,
    rref,
    sp4_membership,
)


def rand_mat(field, n, rng):
    return Mat(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])


def rand_invertible(field, n, rng):
    while True:
        m = rand_mat(field, n, rng)
        try:
            m.inverse()
            return m
        except ZeroDivisionError:
            continue


def all_subspaces_dim4(field):
    """Every subspace of GF(q)^4 via reduced echelon patterns."""
    out = [Subspace(field, 4, [])]
    for d in range(1, 5):
        for pivots in itertools.combinations(range(4), d):
            free = []
            for r, p in enumerate(pivots):
                for j in range(p + 1, 4):
                    if j not in pivots:
                        free.append((r, j))
            for vals in itertools.product(field.elements(),
                                          repeat=len(free)):
                rows = [[0] * 4 for _ in range(d)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, j), c in zip(free, vals):
                    rows[r][j] = c
                out.append(Subspace(field, 4, rows))
    return out


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_matrix_product_definition():
    # against the schoolbook triple loop over field ops
    rng = random.Random(1)
    for q in [2, 3, 4, 9]:
        k = GF.default(q)
        for _ in range(10):
            a = rand_mat(k, 4, rng)
            b = rand_mat(k, 4, rng)
            c = a * b
            for i in range(4):
                for j in range(4):
                    want = 0
                    for t in range(4):
                        want = k.add(want, k.mul(a.entry(i, t),
                                                 b.entry(t, j)))
                    assert c.entry(i, j) == want


def test_apply_is_right_action():
    rng = random.Random(2)
    for q in [2, 5, 8]:
        k = GF.default(q)
        for _ in range(20):
            a = rand_mat(k, 4, rng)
            b = rand_mat(k, 4, rng)
            v = tuple(rng.randrange(q) for _ in range(4))
            assert (a * b).apply(v) == b.apply(a.apply(v))


def test_inverse_and_pow():
    rng = random.Random(3)
    for q in [2, 3, 4, 5, 9]:
        k = GF.default(q)
        eye = Mat.identity(k, 4)
        for _ in range(10):
            m = rand_invertible(k, 4, rng)
            assert m * m.inverse() == eye
            assert m.inverse() * m == eye
            assert m**3 == m * m * m
            assert m**-2 == (m.inverse()) ** 2
            assert m**0 == eye
        with pytest.raises(ZeroDivisionError):
            Mat(k, 2, 2, [0, 0, 0, 0]).inverse()


def test_transpose_and_shape_errors():
    k = GF.default(3)
    m = Mat.from_rows(k, [(1, 2, 0), (0, 1, 1)])
    assert m.transpose().as_rows() == [(1, 0), (2, 1), (0, 1)]
    with pytest.raises(DimensionMismatchError):
        m * m
    with pytest.raises(DimensionMismatchError):
        m.apply((1, 2, 0))


def test_batch_product_matches_single():
    rng = random.Random(4)
    for q in [2, 4, 5]:
        k = GF.default(q)
        mats_a = [rand_mat(k, 4, rng) for _ in range(6)]
        mats_b = [rand_mat(k, 4, rng) for _ in range(6)]
        a = np.stack([m.to_array() for m in mats_a])
        b = np.stack([m.to_array() for m in mats_b])
        got = mat_mul_batch(k, a, b)
        for i in range(6):
            want = (mats_a[i] * mats_b[i]).to_array()
            assert (got[i] == want).all()


def mat_mul_batch_oracle(field, a, b):
    """The former kernel: two 2-d table gathers per inner term."""
    mul = field.mul_table.astype(np.int64)
    addt = field.add_table.astype(np.int64)
    acc = mul[a[..., :, 0, None], b[..., 0, None, :]]
    for t in range(1, a.shape[-1]):
        acc = addt[acc, mul[a[..., :, t, None], b[..., t, None, :]]]
    return acc


def test_batch_product_matches_mat_products_on_random_stacks():
    rng = np.random.default_rng(11)
    # 16 takes the xor sum past GF(8), 25 and 27 the odd prime-power add
    # gather, and 27 the largest flat index, 26 * 27 + 26
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        k = GF.default(q)

        def stack(*shape):
            return rng.integers(0, q, shape)

        def product(x, y):
            return (Mat(k, *x.shape, x.ravel().tolist())
                    * Mat(k, *y.shape, y.ravel().tolist())).to_array()

        a, b = stack(20, 4, 4), stack(20, 4, 4)
        got = mat_mul_batch(k, a, b)
        assert got.shape == (20, 4, 4)
        for i in range(20):
            assert (got[i] == product(a[i], b[i])).all()
        # the (c, 1) x (1, n) broadcast of the elation-rule verifiers
        a, b = stack(3, 1, 4, 4), stack(1, 5, 4, 4)
        got = mat_mul_batch(k, a, b)
        assert got.shape == (3, 5, 4, 4)
        for i in range(3):
            for j in range(5):
                assert (got[i, j] == product(a[i, 0], b[0, j])).all()
        a, b = stack(4, 2, 3), stack(4, 3, 5)
        got = mat_mul_batch(k, a, b)
        for i in range(4):
            assert (got[i] == product(a[i], b[i])).all()
        # the block closure's shape: code rows of known elements, stored
        # as uint8, by a (1, d, n, n) stack of generators
        for dtype in (np.uint8, np.uint16):
            a = stack(6, 1, 4, 4).astype(dtype)
            b = stack(1, 3, 4, 4).astype(dtype)
            got = mat_mul_batch(k, a, b)
            assert got.dtype == np.int64 and got.shape == (6, 3, 4, 4)
            for i in range(6):
                for j in range(3):
                    assert (got[i, j] == product(a[i, 0].astype(np.int64),
                                                 b[0, j].astype(np.int64))
                            ).all()
        # and the former kernel on a larger stack
        a, b = stack(500, 4, 4), stack(500, 4, 4)
        assert (mat_mul_batch(k, a.astype(np.uint8), b)
                == mat_mul_batch_oracle(k, a, b)).all()


@pytest.mark.parametrize("q", [5, 16, 17])
def test_batch_product_rejects_codes_out_of_range(q):
    k = GF.default(q)
    eye = np.eye(2, dtype=np.int64)
    for bad in (q, q + 2, -1):
        m = np.array([[1, 0], [bad, 1]])
        for a, b in ((m, eye), (eye, m), (m[None], eye), (eye, m[None])):
            with pytest.raises(ValueError, match=rf"code {bad} out of range"):
                mat_mul_batch(k, a, b)
    # narrow dtypes are checked too, and the first bad code is named
    with pytest.raises(ValueError, match=rf"code {q} "):
        mat_mul_batch(k, eye, np.array([[0, q], [q + 1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError, match="code -1 "):
        mat_mul_batch(k, np.array([[0, -1], [0, 0]], dtype=np.int8), eye)
    with pytest.raises(TypeError, match="integers"):
        mat_mul_batch(k, np.eye(2), eye)
    # first in the operand's own index order, not in its memory order
    with pytest.raises(ValueError, match=rf"code {q + 2} "):
        mat_mul_batch(k, np.array([[0, q], [q + 2, 0]]).T, eye)


@pytest.mark.parametrize("q", [16, 17, 256, 257, 1024])
def test_batch_product_matches_oracle_at_index_dtype_boundaries(q):
    # the flat index a*q + b is uint8 up to q = 16, uint16 up to 256 and
    # uint32 beyond; each layout and broadcast goes through the oracle
    k = GF.default(q)
    rng = np.random.default_rng(q)

    def check(a, b, shape):
        got = mat_mul_batch(k, a, b)
        assert got.dtype == np.int64 and got.shape == shape
        assert (got == mat_mul_batch_oracle(k, np.asarray(a, np.int64),
                                            np.asarray(b, np.int64))).all()
        return got

    # q - 1 everywhere reaches the largest index, q^2 - 1
    top = np.full((3, 4, 4), q - 1)
    check(top, top, (3, 4, 4))
    check(top.astype(np.uint16), top[0].astype(np.uint16), (3, 4, 4))
    a = rng.integers(0, q, (6, 3, 4))
    b = rng.integers(0, q, (6, 4, 2))
    # batch-last views, laid out as mat_mul_batch returns its products
    a_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    b_last = np.moveaxis(rng.integers(0, q, (4, 2, 6)), -1, 0)
    check(a_last, b_last, (6, 3, 2))
    check(a_last, b, (6, 3, 2))
    # reversed strides
    check(a[::-1, ::-1, ::-1], b[::-1], (6, 3, 2))
    check(a[:, :, ::-1], b[::-1, ::-1, :], (6, 3, 2))
    # unequal batch ndim, and broadcast batch axes
    check(a, b[0], (6, 3, 2))
    check(a[0], b, (6, 3, 2))
    check(a[:, None], b[None, :5], (6, 5, 3, 2))
    check(a[:2, None, None], b[None, :3], (2, 1, 3, 3, 2))
    # empty batches
    check(a[:0], b[:0], (0, 3, 2))
    check(a[:0], b[0], (0, 3, 2))
    check(a[:, None], b[:0], (6, 0, 3, 2))
    # products fed straight back in, as batch-last views
    sq = rng.integers(0, q, (5, 4, 4))
    p = check(sq, sq, (5, 4, 4))
    assert not p.flags.c_contiguous
    pp = check(p, p, (5, 4, 4))
    check(pp, sq, (5, 4, 4))
    check(sq[0], pp, (5, 4, 4))


def test_semilinear_composition_and_inverse():
    rng = random.Random(5)
    for q in [4, 8, 9, 16]:
        k = GF.default(q)
        for _ in range(10):
            a = SemilinearMap(rand_invertible(k, 4, rng),
                              rng.randrange(k.f))
            b = SemilinearMap(rand_invertible(k, 4, rng),
                              rng.randrange(k.f))
            v = tuple(rng.randrange(q) for _ in range(4))
            assert (a * b).apply(v) == b.apply(a.apply(v))
            assert (a * a.inverse()).apply(v) == v
            assert a.inverse().apply(a.apply(v)) == v


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def test_rref_canonical_under_generating_set_changes():
    rng = random.Random(6)
    for q in [2, 3, 4]:
        k = GF.default(q)
        for _ in range(20):
            vecs = [tuple(rng.randrange(q) for _ in range(4))
                    for _ in range(rng.randrange(1, 4))]
            s = Subspace(k, 4, vecs)
            shuffled = list(vecs)
            rng.shuffle(shuffled)
            scaled = []
            for v in shuffled:
                c = rng.randrange(1, q)
                scaled.append(tuple(k.mul(c, x) for x in v))
            combos = scaled + [
                tuple(k.add(a, b) for a, b in zip(scaled[0], scaled[-1]))]
            assert Subspace(k, 4, combos) == s
            for v in s.vectors():
                assert s.contains(v)


def test_subspace_cardinalities():
    k = GF.default(3)
    s = Subspace(k, 4, [(1, 0, 0, 0), (0, 1, 2, 0)])
    assert s.dim == 2
    assert len(list(s.vectors())) == 9
    assert len(s.points()) == 4  # (q^2 - 1)/(q - 1)
    assert not s.contains((0, 0, 1, 0))


def test_normalise_point():
    k = GF.default(4)
    assert normalise_point(k, (1, 2, 1, 1)) == (1, 2, 1, 1)
    assert normalise_point(k, (1, 0, 0, 0)) == (1, 0, 0, 0)
    assert normalise_point(k, (0, 2, 3, 0))[1] == 1
    v = (2, 3, 0, 1)
    w = normalise_point(k, v)
    assert w[0] == 1
    for c in range(1, 4):
        scaled = tuple(k.mul(c, x) for x in v)
        assert normalise_point(k, scaled) == w
        assert w <= scaled  # canonical rep is the lex-least in the orbit
    assert Subspace(k, 4, [v]).basis[0] == w
    with pytest.raises(ValueError):
        normalise_point(k, (0, 0, 0, 0))


def test_projective_point_count_and_order():
    for q, n in [(2, 4), (3, 4), (4, 4), (2, 6), (3, 6)]:
        k = GF.default(q)
        pts = projective_points(k, n)
        assert len(pts) == (q**n - 1) // (q - 1)
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        for v in pts[:50]:
            assert normalise_point(k, v) == v


# ---------------------------------------------------------------------------
# the alternating form
# ---------------------------------------------------------------------------

def test_beta_spec_values():
    k = GF.default(3)
    beta = AlternatingForm(k)
    assert beta.eval((1, 0, 0, 0), (0, 0, 0, 1)) == 1
    assert beta.eval((0, 1, 0, 0), (0, 0, 1, 0)) == 1
    assert beta.eval((0, 0, 0, 1), (1, 0, 0, 0)) == k.neg(1)


def test_beta_is_alternating_bilinear_and_matches_gram():
    rng = random.Random(7)
    for q in [2, 3, 4, 5]:
        k = GF.default(q)
        beta = AlternatingForm(k)
        for _ in range(30):
            u = tuple(rng.randrange(q) for _ in range(4))
            v = tuple(rng.randrange(q) for _ in range(4))
            w = tuple(rng.randrange(q) for _ in range(4))
            c = rng.randrange(q)
            assert beta.eval(u, u) == 0
            assert beta.eval(u, v) == k.neg(beta.eval(v, u))
            uv = tuple(k.add(a, b) for a, b in zip(u, v))
            assert beta.eval(uv, w) == k.add(beta.eval(u, w),
                                             beta.eval(v, w))
            cu = tuple(k.mul(c, a) for a in u)
            assert beta.eval(cu, w) == k.mul(c, beta.eval(u, w))
            # gram realises the same form
            gv = beta.gram.apply(u)
            assert k.dot(gv, v) == beta.eval(u, v)


def test_perp_examples():
    k = GF.default(3)
    beta = AlternatingForm(k)
    e1 = Subspace(k, 4, [(1, 0, 0, 0)])
    p = beta.perp(e1)
    assert p.dim == 3
    assert p.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    whole = Subspace(k, 4, Mat.identity(k, 4).as_rows())
    assert beta.perp(whole).dim == 0
    zero = Subspace(k, 4, [])
    assert beta.perp(zero).dim == 4


def test_perp_involution_and_inclusion_reversing_exhaustive():
    for q in [2, 3]:
        k = GF.default(q)
        beta = AlternatingForm(k)
        subs = all_subspaces_dim4(k)
        # subspace counts: sum of gaussian binomials [4 choose d]_q
        want = {2: 67, 3: 212}[q]
        assert len(subs) == want
        for s in subs:
            ps = beta.perp(s)
            assert ps.dim == 4 - s.dim
            assert beta.perp(ps) == s
        rng = random.Random(8)
        for _ in range(60):
            a, b = rng.sample(subs, 2)
            if all(b.contains(v) for v in a.basis):  # a <= b
                pa, pb = beta.perp(a), beta.perp(b)
                assert all(pa.contains(v) for v in pb.basis)


def test_sp4_membership():
    k = GF.default(5)
    beta = AlternatingForm(k)
    assert sp4_membership(beta, Mat.identity(k, 4))
    lam = 3
    torus = Mat.from_rows(k, [(lam, 0, 0, 0), (0, 1, 0, 0),
                              (0, 0, 1, 0), (0, 0, 0, k.inv(lam))])
    assert sp4_membership(beta, torus)
    bad = Mat.from_rows(k, [(lam, 0, 0, 0), (0, 1, 0, 0),
                            (0, 0, 1, 0), (0, 0, 0, 1)])
    assert not sp4_membership(beta, bad)
    with pytest.raises(DimensionMismatchError):
        sp4_membership(beta, Mat.identity(k, 3))


def test_isotropic_point_and_line_counts():
    for q in [2, 3, 4, 5, 7, 8, 9]:
        k = GF.default(q)
        beta = AlternatingForm(k)
        want = (q + 1) * (q * q + 1)
        pts = enumerate_singular(beta, 1)
        lines = enumerate_singular(beta, 2)
        assert len(pts) == q**3 + q**2 + q + 1  # all of PG(3,q)
        assert len(pts) == len(projective_points(k, 4))
        assert len(lines) == want
        assert len(set(lines)) == want
        for ln in lines[:40]:
            assert beta.is_totally_isotropic(ln)
        assert lines == sorted(lines, key=lambda s: s.basis)


# ---------------------------------------------------------------------------
# the elliptic quadratic form
# ---------------------------------------------------------------------------

def test_elliptic_coefficient_is_least_valid():
    for q, want_d in [(2, 1), (3, 2), (4, 2), (5, 1), (8, 1)]:
        k = GF.default(q)
        form = QuadraticForm(k)
        assert form.d == want_d
        # t^2 + t + d has no root
        for y in k.elements():
            assert k.add(k.add(k.mul(y, y), y), form.d) != 0


def test_quadratic_eval_matches_coeff_matrix():
    rng = random.Random(9)
    for q in [2, 3, 4]:
        k = GF.default(q)
        form = QuadraticForm(k)
        for _ in range(40):
            v = tuple(rng.randrange(q) for _ in range(6))
            # v U v^T from the stored upper-triangular matrix
            want = k.dot(form.coeff.apply(v), v)
            # careful: apply computes v @ U, dot with v again
            assert form.eval(v) == want


def test_polarisation_is_bilinear_and_symmetric():
    rng = random.Random(10)
    for q in [2, 3, 4, 5]:
        k = GF.default(q)
        form = QuadraticForm(k)
        for _ in range(30):
            u = tuple(rng.randrange(q) for _ in range(6))
            v = tuple(rng.randrange(q) for _ in range(6))
            w = tuple(rng.randrange(q) for _ in range(6))
            assert form.polar(u, v) == form.polar(v, u)
            uv = tuple(k.add(a, b) for a, b in zip(u, v))
            assert form.polar(uv, w) == k.add(form.polar(u, w),
                                              form.polar(v, w))
            gv = form.polar_gram.apply(u)
            assert k.dot(gv, v) == form.polar(u, v)
        # char 2: polarisation is alternating
        if k.p == 2:
            for _ in range(10):
                u = tuple(rng.randrange(q) for _ in range(6))
                assert form.polar(u, u) == 0


def test_singular_point_counts():
    # the (q+1)(q^3+1) count certifies the minus type
    for q in [2, 3, 4, 5]:
        k = GF.default(q)
        form = QuadraticForm(k)
        pts = enumerate_singular(form, 1)
        assert len(pts) == (q + 1) * (q**3 + 1)


def test_singular_line_count_q2():
    k = GF.default(2)
    form = QuadraticForm(k)
    lines = enumerate_singular(form, 2)
    assert len(lines) == 45
    for ln in lines:
        assert form.is_totally_singular(ln)
    assert len(set(lines)) == 45


def test_singular_lines_cover_each_point_q2_q3():
    # every singular point lies on exactly q^2 + 1 singular lines
    for q in [2, 3]:
        k = GF.default(q)
        form = QuadraticForm(k)
        pts = enumerate_singular(form, 1)
        lines = enumerate_singular(form, 2)
        per_point = {p.basis[0]: 0 for p in pts}
        for ln in lines:
            for v in ln.points():
                per_point[v] += 1
        assert set(per_point.values()) == {q * q + 1}


def test_enumerate_singular_rejects_bad_dim():
    k = GF.default(2)
    with pytest.raises(ValueError):
        enumerate_singular(AlternatingForm(k), 3)
