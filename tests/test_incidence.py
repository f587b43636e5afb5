"""Tests for generalised-quadrangle construction and verification."""

import hashlib
import json

import numpy as np
import pytest

from gquad.gf import GF
from gquad.groups import PermGroup, Permutation
from gquad.incidence import (
    NotRegularPointError,
    Quadrangle,
    Violation,
    aut_incidence,
    build_qminus5,
    build_w3,
    double_perp,
    dual,
    gq_isomorphic,
    line_action,
    load_gq,
    payne_derive,
    perp_set,
    save_gq,
    verify_gq,
)


def grid33():
    """The 3x3 grid, a quadrangle of order (2,1) with 72 automorphisms."""
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8),
             (0, 3, 6), (1, 4, 7), (2, 5, 8)]
    return Quadrangle(9, lines, s=2, t=1, name="grid 3x3")


def neighbour_lists(gq: Quadrangle) -> list[np.ndarray]:
    """The points collinear with each point, ascending, cut from the
    sorted edge targets."""
    src, dst = gq.edges()
    return np.split(dst, np.searchsorted(src, np.arange(1, gq.n_points)))


# -- construction ------------------------------------------------------------

def test_w3_counts():
    for q in (2, 3, 4, 5):
        gq = build_w3(GF.default(q))
        want = (q + 1) * (q * q + 1)
        assert gq.n_points == want
        assert gq.n_lines == want
        assert gq.order() == (q, q)
        assert all(len(line) == q + 1 for line in gq.lines)


def test_qminus5_counts():
    for q in (2, 3):
        gq = build_qminus5(GF.default(q))
        assert gq.n_points == (q + 1) * (q ** 3 + 1)
        assert gq.n_lines == (q * q + 1) * (q ** 3 + 1)
        assert gq.order() == (q, q * q)


def test_point_labels_roundtrip():
    gq = build_w3(GF.default(3))
    for i in (0, 7, gq.n_points - 1):
        assert gq.point_id(gq.labels[i]) == i
    with pytest.raises(KeyError):
        gq.point_id((9, 9, 9, 9))


def test_quadrangle_validation():
    with pytest.raises(ValueError):
        Quadrangle(3, [(0, 3)])
    with pytest.raises(ValueError):
        Quadrangle(3, [(0, 1)], labels=("a",))
    # lines of mixed sizes, and points that are no integers
    with pytest.raises(ValueError):
        Quadrangle(9, [(0, 1, 2), (3, 4), (6, 7, 8),
                       (0, 3, 6), (1, 4, 7), (2, 5, 8)], s=2, t=1)
    with pytest.raises(ValueError):
        Quadrangle(2, np.array([[0.5, 1.0]]))
    with pytest.raises(ValueError):
        Quadrangle(2, np.array([[False, True]]))


# -- verification ------------------------------------------------------------

def test_verify_valid():
    assert verify_gq(grid33()) == []
    for q in (2, 3, 4, 5):
        assert verify_gq(build_w3(GF.default(q))) == []
    assert verify_gq(build_qminus5(GF.default(2))) == []
    assert verify_gq(build_qminus5(GF.default(3))) == []


def test_verify_line_arity():
    out = verify_gq(grid33(), s=3)
    assert len(out) == 1 and out[0].category == "line_arity"
    assert out[0].witness == (0,)
    dup = Quadrangle(9, [(0, 1, 1), (3, 4, 5), (6, 7, 8),
                         (0, 3, 6), (1, 4, 7), (2, 5, 8)], s=2, t=1)
    out = verify_gq(dup)
    assert out[0].category == "line_arity" and out[0].witness == (0,)


def test_verify_point_degree():
    base = grid33()
    # canonical ordering puts (6,7,8) last, so dropping it starves 6,7,8
    out = verify_gq(Quadrangle(9, base.lines[:-1], s=2, t=1))
    assert out[0].category == "point_degree"
    assert out[0].witness == (6,)  # least under-covered point


def test_verify_pair_uniqueness():
    lines = list(grid33().lines) + [(0, 1, 2)]
    # duplicate line: same pairs twice, degrees now wrong too
    out = verify_gq(Quadrangle(9, lines, s=2, t=1), s=2, t=1)
    assert out[0].category == "point_degree"
    # doubled edges keep sizes and degrees intact but repeat pairs
    doubled = [(0, 1), (0, 1), (2, 3), (2, 3), (4, 5), (4, 5)]
    out = verify_gq(Quadrangle(6, doubled, s=1, t=1))
    assert out[0].category == "pair_uniqueness"
    assert out[0].witness == (0, 1)
    assert isinstance(out[0], Violation)


def test_verify_axiom():
    # two disjoint triangles plus a perfect matching is line-regular
    # and pair-unique but breaks the one-collinear-point rule
    lines = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    out = verify_gq(Quadrangle(6, lines, s=1, t=1))
    assert out[0].category == "axiom"
    assert out[0].witness == (0, 2)  # point 0 against line (1,2)


def axiom_witness_oracle(gq: Quadrangle, s: int):
    """The former dense axiom check: all counts against one expected
    lines x points matrix; the least (point, line) witness or None."""
    mat = gq.line_matrix().astype(np.int64)
    nb = neighbour_lists(gq)
    cnt = np.zeros((gq.n_lines, gq.n_points), dtype=np.int64)
    for ell, row in enumerate(mat):
        for x in row:
            cnt[ell, nb[x]] += 1
    expected = np.ones_like(cnt)
    np.put_along_axis(expected, mat, s, axis=1)
    bad = np.argwhere(cnt != expected)
    return min((int(p), int(ell)) for ell, p in bad) if bad.size else None


def _swapped(gq: Quadrangle, rng) -> Quadrangle:
    """gq with one point of one line swapped for one point of another:
    line sizes and point degrees stay, the axiom usually breaks."""
    lines = [list(line) for line in gq.lines]
    while True:
        i, j = rng.choice(len(lines), 2, replace=False)
        a, b = rng.choice(lines[i]), rng.choice(lines[j])
        if a not in lines[j] and b not in lines[i]:
            break
    lines[i][lines[i].index(a)] = b
    lines[j][lines[j].index(b)] = a
    return Quadrangle(gq.n_points, lines, s=gq.s, t=gq.t)


def test_verify_axiom_across_chunks(monkeypatch):
    import gquad.incidence as incidence
    # one line per chunk: the least witness of the triangles example,
    # (0, 2), lies in the third chunk, after worse witnesses in the first
    monkeypatch.setattr(incidence, "_AXIOM_CELLS", 1)
    lines = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    out = verify_gq(Quadrangle(6, lines, s=1, t=1))
    assert out[0].witness == (0, 2)
    assert verify_gq(build_w3(GF.default(3))) == []
    rng = np.random.default_rng(3)
    cases = [build_w3(GF.default(2)), build_w3(GF.default(3)),
             build_qminus5(GF.default(2)),
             payne_derive(build_w3(GF.default(3)), 0)]
    seen_later, checked = False, 0
    for cells in (1, 40, 1000):
        monkeypatch.setattr(incidence, "_AXIOM_CELLS", cells)
        for gq in cases:
            s, t = gq.order()
            for _ in range(6):
                broken = _swapped(gq, rng)
                out = verify_gq(broken)
                if out and out[0].category == "axiom":
                    checked += 1
                    want = axiom_witness_oracle(broken, s)
                    assert out[0].witness == want
                    # lines per chunk, as verify_gq sizes them
                    chunk = max(1, cells // max(gq.n_points,
                                                (s + 1) * s * (t + 1)))
                    seen_later |= want[1] >= chunk
    assert seen_later and checked >= 20


def fano_plane() -> Quadrangle:
    return Quadrangle(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                          (1, 4, 6), (2, 3, 6), (2, 4, 5)], name="Fano")


def affine_plane_3() -> Quadrangle:
    """AG(2,3): the point (x, y) is 3x + y, lines in four directions."""
    lines = {tuple(sorted(3 * ((x + i * dx) % 3) + (y + i * dy) % 3
                          for i in range(3)))
             for x in range(3) for y in range(3)
             for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))}
    return Quadrangle(9, sorted(lines), name="AG(2,3)")


def pentagon() -> Quadrangle:
    return Quadrangle(5, [(i, (i + 1) % 5) for i in range(5)],
                      name="pentagon")


def two_copies(gq: Quadrangle) -> Quadrangle:
    """gq and a disjoint copy on the points n..2n-1."""
    mat = gq.line_matrix()
    return Quadrangle(2 * gq.n_points, np.concatenate([mat,
                                                       mat + gq.n_points]),
                      name=f"two {gq.name}")


# non-GQs that pass the checks before the axiom, with the witness found
# by the dense count, and how many points of the witness line the
# witness point sees: all of them in the planes, none in the others
AXIOM_CASES = {
    "Fano": (fano_plane, (0, 3), 3),
    "AG(2,3)": (affine_plane_3, (0, 4), 3),
    "pentagon": (pentagon, (0, 3), 0),
    "two W(3,2)": (lambda: two_copies(build_w3(GF.default(2))), (0, 15), 0),
    "two Q-(5,2)": (lambda: two_copies(build_qminus5(GF.default(2))),
                    (0, 45), 0),
}


@pytest.mark.parametrize("name", list(AXIOM_CASES))
def test_axiom_witnesses_of_non_quadrangles(name):
    make, want, sees = AXIOM_CASES[name]
    gq = make()
    out = verify_gq(gq)
    assert [v.category for v in out] == ["axiom"]
    assert out[0].witness == want == axiom_witness_oracle(gq, gq.order()[0])
    p, ell = want
    line = gq.line_matrix()[ell]
    assert p not in line
    assert np.isin(line, neighbour_lists(gq)[p]).sum() == sees


def test_collinearity_rows_are_the_closed_neighbourhoods(monkeypatch):
    import gquad.incidence as incidence
    # 40 and 9 points: a whole last byte and one pad-heavy one; 27: the
    # derived q=3, 5 pad bits; 4 and 6: points on no line
    cases = [build_w3(GF.default(3)), grid33(),
             payne_derive(build_w3(GF.default(3)), 0),
             Quadrangle(4, [(0, 1, 2), (0, 1, 3)]),
             Quadrangle(6, [(0, 2, 3), (0, 2, 5)])]
    for gq in cases:
        n = gq.n_points
        want = adjacency_oracle(gq) | np.eye(n, dtype=bool)
        rows = gq.collinearity()
        assert rows.dtype == np.uint8 and rows.shape == (n, (n + 7) // 8)
        bits = np.unpackbits(rows, axis=1).astype(bool)
        assert np.array_equal(bits[:, :n], want)
        assert not bits[:, n:].any()
        picked = [n - 1, 0, n // 2, 0]
        assert np.array_equal(gq.collinearity(picked), rows[picked])
        for cells in (1, 37):
            monkeypatch.setattr(incidence, "_ROW_CELLS", cells)
            assert np.array_equal(gq.collinearity(), rows)
        monkeypatch.undo()
        assert [gq.collinear(a, b) for a in range(n) for b in range(n)] == \
            [bool(want[a, b]) and a != b for a in range(n) for b in range(n)]
    # pad bits: the valid quadrangles stay valid
    assert verify_gq(cases[0]) == [] and verify_gq(cases[2]) == []


# -- perp machinery ----------------------------------------------------------

def test_perp_sets_w3():
    q = 3
    gq = build_w3(GF.default(q))
    ps = perp_set(gq, 0)
    assert len(ps) == q * q + q + 1
    assert 0 in ps
    far = next(p for p in range(gq.n_points) if p not in ps)
    span = double_perp(gq, 0, far)
    assert len(span) == q + 1
    assert 0 in span and far in span
    # every point of the span has the same trace
    for z in span:
        if z not in (0, far):
            assert double_perp(gq, 0, z) == span


def test_dual_grid():
    d = dual(grid33())
    assert d.n_points == 6 and d.n_lines == 9
    assert d.order() == (1, 2)
    assert verify_gq(d) == []


def test_dual_w3_2_selfdual():
    gq = build_w3(GF.default(2))
    d = dual(gq)
    assert verify_gq(d) == []
    assert gq_isomorphic(d, gq) is not None


# -- derivation --------------------------------------------------------------

def test_derive_w32():
    gq = build_w3(GF.default(2))
    der = payne_derive(gq, 0)
    assert der.n_points == 8
    assert der.order() == (1, 3)
    assert der.n_lines == 16
    assert verify_gq(der) == []
    assert der.labels is not None and len(der.labels) == 8


def test_derive_w33_gives_elliptic():
    der = payne_derive(build_w3(GF.default(3)), 5)
    assert der.n_points == 27 and der.n_lines == 45
    assert der.order() == (2, 4)
    assert verify_gq(der) == []
    q52 = build_qminus5(GF.default(2))
    phi = gq_isomorphic(der, q52)
    assert phi is not None
    assert sorted(phi.values()) == list(range(27))


def test_derive_rejects_wrong_order():
    with pytest.raises(ValueError):
        payne_derive(build_qminus5(GF.default(2)), 0)


def test_derive_not_regular_point():
    # the dual of W(3,3) has order (3,3) but no regular points
    d = dual(build_w3(GF.default(3)))
    with pytest.raises(NotRegularPointError) as err:
        payne_derive(d, 0)
    assert err.value.point == 0
    assert err.value.size < err.value.expected


def double_perp_oracle(nbs: list, x: int, y: int) -> list[int]:
    """The former span: the neighbour lists ``nbs`` met by
    ``np.intersect1d``."""
    trace = np.intersect1d(np.append(nbs[x], x), np.append(nbs[y], y))
    span = None
    for w in trace.tolist():
        pw = np.append(nbs[w], w)
        span = pw if span is None else np.intersect1d(span, pw)
    return sorted(int(v) for v in span)


def payne_derive_oracle(gq: Quadrangle, x: int) -> Quadrangle:
    """The former derivation loop: one ``double_perp_oracle`` per
    derived point that no earlier span covers."""
    s, t = gq.order()
    nbs = neighbour_lists(gq)
    perp = np.append(nbs[x], x)
    derived = np.setdiff1d(np.arange(gq.n_points), perp)
    new_id = np.full(gq.n_points, -1, dtype=np.int64)
    new_id[derived] = np.arange(derived.size)
    mat = gq.line_matrix()
    ids = new_id[mat[~(mat == x).any(axis=1)]]
    lines = [ids[ids >= 0].reshape(-1, s)]
    covered = set()
    for y in derived.tolist():
        if y in covered:
            continue
        span = double_perp_oracle(nbs, x, y)
        if len(span) != t + 1:
            raise NotRegularPointError(x, y, len(span), t + 1)
        rest = [p for p in span if p != x]
        covered.update(rest)
        lines.append(new_id[rest][None])
    labels = None
    if gq.labels is not None:
        labels = tuple(gq.labels[p] for p in derived.tolist())
    return Quadrangle(derived.size, np.concatenate(lines), s=s - 1,
                      t=s + 1, labels=labels,
                      name=f"{gq.name} derived at {x}")


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_derive_matches_loop_oracle(q):
    w = build_w3(GF.default(q))
    for x in (0, w.n_points // 2, w.n_points - 1):
        got, want = payne_derive(w, x), payne_derive_oracle(w, x)
        assert got.line_matrix().tobytes() == want.line_matrix().tobytes()
        assert got.labels == want.labels and got.name == want.name
        assert got.order() == (q - 1, q + 1)


def test_not_regular_point_fields_match_loop_oracle():
    d = dual(build_w3(GF.default(3)))
    for x in (0, 5):
        with pytest.raises(NotRegularPointError) as got:
            payne_derive(d, x)
        with pytest.raises(NotRegularPointError) as want:
            payne_derive_oracle(d, x)
        fields = ("point", "witness", "size", "expected")
        assert [getattr(got.value, f) for f in fields] == \
            [getattr(want.value, f) for f in fields]
        assert str(got.value) == str(want.value)


def test_derive_rejects_a_trace_of_the_wrong_size():
    # W(3,2) plus a line through y, a neighbour z of 0 that y does not
    # see, and one more point off 0's perp: every line that misses 0
    # still meets its perp once, but 0 and y now have 4 common neighbours
    w = build_w3(GF.default(2))
    perp = set(perp_set(w, 0))
    y = min(set(range(w.n_points)) - perp)
    z = min(perp - {0} - set(perp_set(w, y)))
    v = min(set(range(w.n_points)) - perp - set(perp_set(w, y))
            - set(perp_set(w, z)))
    lines = np.concatenate([w.line_matrix(), [sorted((y, z, v))]])
    with pytest.raises(ValueError, match=rf"points 0 and {y} have 4 common "
                                         rf"neighbours, expected 3"):
        payne_derive(Quadrangle(w.n_points, lines, s=2, t=2), 0)


def test_double_perp_matches_oracle():
    gq = build_w3(GF.default(4))
    nbs = neighbour_lists(gq)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 20:
        x, y = (int(v) for v in rng.choice(gq.n_points, 2, replace=False))
        if gq.collinear(x, y):
            continue
        span = double_perp(gq, x, y)
        assert span == double_perp_oracle(nbs, x, y)
        assert len(span) == 5 and {x, y} <= set(span)
        assert perp_set(gq, x) == sorted([x, *nbs[x].tolist()])
        checked += 1


# -- isomorphism and automorphisms -------------------------------------------

def test_not_isomorphic_different_gqs():
    w2 = build_w3(GF.default(2))
    assert gq_isomorphic(w2, build_w3(GF.default(3))) is None
    der = payne_derive(build_w3(GF.default(3)), 0)
    q52 = build_qminus5(GF.default(2))
    # same parameters, shuffled copy must map
    rng = np.random.default_rng(11)
    relab = rng.permutation(27)
    shuffled = Quadrangle(27, [tuple(int(relab[p]) for p in line)
                               for line in q52.lines], s=2, t=4)
    phi = gq_isomorphic(q52, shuffled)
    assert phi is not None
    assert gq_isomorphic(der, shuffled) is not None


def test_aut_grid():
    assert aut_incidence(grid33()).order() == 72


def test_aut_w32():
    g = aut_incidence(build_w3(GF.default(2)))
    assert g.order() == 720
    assert g.is_transitive()


def test_aut_q52():
    g = aut_incidence(build_qminus5(GF.default(2)))
    assert g.order() == 51840
    assert g.is_transitive()


def test_aut_w33():
    g = aut_incidence(build_w3(GF.default(3)))
    assert g.order() == 51840


def test_aut_searches_each_orbit_point_once():
    # a point already in the orbit of a level's generators, reached from
    # any orbit point, gets no search and adds no generator
    from gquad.constructions import build_derived_model
    cases = [(build_derived_model(GF.default(3)).gq, 51840, 13),
             (build_qminus5(GF.default(3)), 26127360, 20)]
    for gq, order, ngens in cases:
        g = aut_incidence(gq)
        assert g.order() == order
        assert len(g.gens) == ngens


# -- the line lookup ---------------------------------------------------------

def line_index_oracle(gq: Quadrangle, rows) -> list[int]:
    """Each row's line through a dict of sorted tuples, -1 off the lines."""
    index = {line: i for i, line in enumerate(gq.lines)}
    return [index.get(tuple(sorted(r)), -1)
            for r in np.asarray(rows).tolist()]


def line_action_oracle(gq: Quadrangle, group: PermGroup) -> list:
    """The former per-line loop of ``line_action``: image arrays."""
    index = {line: i for i, line in enumerate(gq.lines)}
    return [np.array([index[tuple(sorted(int(g.apply(p)) for p in line))]
                      for line in gq.lines]) for g in group.gens]


def _pair_twice():
    # (0, 1, 2) and (0, 1, 3) share the pair {0, 1}: no GQ
    return Quadrangle(6, [(0, 1, 2), (0, 1, 3), (1, 3, 4), (2, 4, 5),
                          (0, 4, 5)])


def test_line_index_matches_set_oracle():
    from gquad.constructions import build_derived_model
    rng = np.random.default_rng(11)
    cases = [grid33(), build_w3(GF.default(2)),
             build_derived_model(GF.default(3)).gq,
             build_qminus5(GF.default(2))]
    for gq in cases + [_pair_twice()]:
        lm = gq.line_matrix()
        # the graph search is for GQs only; the identity serves the rest
        auts = ([g.arr for g in aut_incidence(gq).gens] if gq in cases
                else [np.arange(gq.n_points)])
        others = [rng.permutation(gq.n_points) for _ in range(6)]
        for arr in auts + others:
            # the points of each row in any order
            rows = rng.permuted(arr[lm], axis=1)
            got = gq.line_index(rows)
            assert got.tolist() == line_index_oracle(gq, rows)
        for arr in auts:
            assert sorted(gq.line_index(arr[lm]).tolist()) == \
                list(range(gq.n_lines))
        # most random permutations break a line
        assert any((gq.line_index(arr[lm]) < 0).any() for arr in others)
        # any leading shape; a row of another size is no line
        stack = np.stack([lm[::-1], lm[:, ::-1]])
        assert gq.line_index(stack).tolist() == [
            list(range(gq.n_lines))[::-1], list(range(gq.n_lines))]
        assert gq.line_index(lm[:, 1:]).tolist() == [-1] * gq.n_lines


def test_line_index_needs_no_gq_axioms():
    gq = _pair_twice()
    # (0, 0, 1) sorts below every line, (3, 3, 3) above
    rows = np.array([(1, 0, 3), (2, 1, 0), (4, 3, 1), (0, 1, 4),
                     (5, 4, 0), (3, 3, 3), (5, 4, 2), (1, 0, 0)])
    assert gq.line_index(rows).tolist() == [1, 0, 3, -1, 2, -1, 4, -1]
    assert gq.line_index(rows).tolist() == line_index_oracle(gq, rows)


def test_line_action_matches_loop_and_rejects_line_breaker():
    for gq in (grid33(), build_w3(GF.default(2))):
        group = aut_incidence(gq)
        lines = line_action(gq, group)
        assert [g.arr.tolist() for g in lines.gens] == \
            [a.tolist() for a in line_action_oracle(gq, group)]
        assert lines.order() == group.order()
    # swapping points 0 and 1 keeps (0, 1, 2) and breaks (0, 3, 6)
    swap = PermGroup(9, [Permutation.from_cycles(9, [(0, 1)])])
    with pytest.raises(ValueError,
                       match=r"line \(0, 3, 6\) off the line set"):
        line_action(grid33(), swap)


def test_line_action_names_the_line_a_later_generator_breaks():
    gq = grid33()
    keep = aut_incidence(gq).gens[0]
    assert line_action(gq, PermGroup(9, [keep])).order() > 1
    swap = Permutation.from_cycles(9, [(0, 1)])
    with pytest.raises(ValueError,
                       match=r"^generator maps line \(0, 3, 6\) off the "
                             r"line set$"):
        line_action(gq, PermGroup(9, [keep, swap]))


def test_not_isomorphic_same_parameters():
    # W(3,q) and its dual Q(4,q) both have 40 points and 40 lines at q=3
    # but are not isomorphic for odd q: the joint refinement of the
    # search has to exhaust every branch and answer None
    w = build_w3(GF.default(3))
    d = dual(w)
    assert (d.n_points, d.n_lines) == (w.n_points, w.n_lines)
    assert gq_isomorphic(w, d) is None
    assert gq_isomorphic(d, d) is not None


# -- colour refinement against the dense oracle ------------------------------

def adjacency_oracle(gq: Quadrangle) -> np.ndarray:
    """The former dense n x n collinearity matrix."""
    adj = np.zeros((gq.n_points, gq.n_points), dtype=bool)
    for i, nb in enumerate(neighbour_lists(gq)):
        adj[i, nb] = True
    return adj


def refine_oracle(adj_a, adj_b, col_a, col_b):
    """The former dense joint colour refinement: one boolean matvec per
    colour per round, signature rows unique'd as int64 rows."""
    while True:
        palette = int(max(col_a.max(), col_b.max())) + 1
        sig_a = [col_a]
        sig_b = [col_b]
        for c in range(palette):
            sig_a.append(adj_a @ (col_a == c))
            sig_b.append(adj_b @ (col_b == c))
        both = np.concatenate([np.stack(sig_a, axis=1),
                               np.stack(sig_b, axis=1)])
        _, inverse = np.unique(both, axis=0, return_inverse=True)
        new_a = inverse[:len(col_a)].astype(np.int64)
        new_b = inverse[len(col_a):].astype(np.int64)
        ca = np.bincount(new_a, minlength=int(inverse.max()) + 1)
        cb = np.bincount(new_b, minlength=int(inverse.max()) + 1)
        if not (ca == cb).all():
            return None
        if len(np.unique(new_a)) == len(np.unique(col_a)):
            return new_a, new_b
        col_a, col_b = new_a, new_b


def extract_map_oracle(adj_a, adj_b, col_a, col_b):
    """The former dense check of a discrete colouring's map."""
    order_a = np.argsort(col_a, kind="stable")
    order_b = np.argsort(col_b, kind="stable")
    perm = np.empty(len(col_a), dtype=np.int64)
    perm[order_a] = order_b
    if (adj_b[perm][:, perm] == adj_a).all():
        return perm
    return None


def _relabelled(gq: Quadrangle, relab) -> Quadrangle:
    """gq with point p renamed relab[p]."""
    return Quadrangle(gq.n_points, [tuple(int(relab[p]) for p in line)
                                    for line in gq.lines],
                      s=gq.s, t=gq.t, name=f"relabelled {gq.name}")


def _refinement_cases():
    w33 = build_w3(GF.default(3))
    cases = [build_w3(GF.default(2)), build_qminus5(GF.default(2)), w33]
    cases += [payne_derive(build_w3(GF.default(q)), 0) for q in (2, 3, 4, 5)]
    relab = np.random.default_rng(5).permutation(cases[-2].n_points)
    return cases + [_relabelled(cases[-2], relab), dual(w33)]


def _same_refinement(ga, gb, col_a, col_b):
    import gquad.incidence as incidence
    want = refine_oracle(adjacency_oracle(ga), adjacency_oracle(gb),
                         col_a, col_b)
    got = incidence._refine_pair(ga.edges(), gb.edges(), col_a, col_b)
    if want is None:
        assert got is None
        return False
    assert got is not None
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return True


def test_refinement_matches_dense_oracle():
    rng = np.random.default_rng(8)
    cases = _refinement_cases()
    outcomes = set()
    for gq in cases:
        n = gq.n_points
        for k in (1, 2, 3, n // 4):
            col = rng.integers(0, k, n)
            # single graph: one colouring on both sides
            outcomes.add(_same_refinement(gq, gq, col, col.copy()))
            # joint: a second colouring, usually with other class sizes
            # after a few rounds, so the oracle often answers None
            outcomes.add(_same_refinement(gq, gq, col,
                                          rng.permutation(col)))
        # joint: a relabelled copy with the colouring carried over
        relab = rng.permutation(n)
        col = rng.integers(0, 3, n)
        moved = np.empty_like(col)
        moved[relab] = col
        assert _same_refinement(gq, _relabelled(gq, relab), col, moved)
    # joint pairs of different quadrangles with equal point counts
    w33, d = cases[2], cases[-1]
    for k in (1, 2, 5):
        col = rng.integers(0, k, w33.n_points)
        outcomes.add(_same_refinement(w33, d, col, col.copy()))
    assert outcomes == {True, False}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_aut_generators_match_dense_oracle_search(q, monkeypatch):
    import gquad.incidence as incidence
    der = payne_derive(build_w3(GF.default(q)), 0)
    relab = np.random.default_rng(q).permutation(der.n_points)
    for gq in (der, _relabelled(der, relab)):
        got = [g.arr.tobytes() for g in aut_incidence(gq).gens]
        with monkeypatch.context() as m:
            m.setattr(incidence, "_graph_edges", adjacency_oracle)
            m.setattr(incidence, "_refine_pair", refine_oracle)
            m.setattr(incidence, "_extract_map", extract_map_oracle)
            want = [g.arr.tobytes() for g in aut_incidence(gq).gens]
        assert got == want


def test_edges_give_the_neighbour_lists():
    # the last: points 1 and 4 on no line, so their runs are empty
    for gq in (grid33(), build_w3(GF.default(3)),
               Quadrangle(4, [(0, 1, 2), (0, 1, 3)]),
               Quadrangle(6, [(0, 2, 3), (0, 2, 5)])):
        src, dst = gq.edges()
        codes = src.astype(np.int64) * gq.n_points + dst
        assert np.array_equal(codes, np.unique(codes))
        want = [sorted({b for line in gq.lines if a in line for b in line}
                       - {a}) for a in range(gq.n_points)]
        assert [nb.tolist() for nb in neighbour_lists(gq)] == want


def pencils_oracle(gq: Quadrangle) -> list[list[int]]:
    """The former per-line loop of ``pencils``."""
    pens = [[] for _ in range(gq.n_points)]
    for idx, line in enumerate(gq.lines):
        for p in line:
            pens[p].append(idx)
    return pens


def test_pencils_match_loop_oracle():
    from gquad.constructions import build_derived_model
    for gq in (grid33(), build_w3(GF.default(3)),
               build_derived_model(GF.default(3)).gq,
               build_qminus5(GF.default(2)), _pair_twice(),
               Quadrangle(6, [(0, 2, 3), (0, 2, 5)])):
        assert [p.tolist() for p in gq.pencils()] == pencils_oracle(gq)


def test_line_store_is_sorted_and_read_only():
    q52 = build_qminus5(GF.default(2))
    rng = np.random.default_rng(4)
    rows = rng.permuted(q52.line_matrix()[rng.permutation(q52.n_lines)],
                        axis=1)
    again = Quadrangle(q52.n_points, rows, s=2, t=4)
    got, want = again.line_matrix(), q52.line_matrix()
    assert got.dtype == want.dtype == np.int32
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 1
    # the store is a copy: already sorted rows of the caller stay writeable
    rows = q52.line_matrix().copy()
    Quadrangle(q52.n_points, rows, s=2, t=4)
    assert rows.flags.writeable


# -- files -------------------------------------------------------------------

def test_gq_file_roundtrip(tmp_path):
    gq = build_w3(GF.default(2))
    path = tmp_path / "w32.gq"
    save_gq(path, gq)
    text = path.read_text()
    first = text.splitlines()[0]
    assert first == "GQ 15 15 2 2"
    assert text.endswith("\n")
    meta = json.loads((tmp_path / "w32.gq.json").read_text())
    assert meta["name"] == "W(3,2)"
    back = load_gq(path)
    assert back.n_points == gq.n_points
    assert back.lines == gq.lines
    assert back.name == "W(3,2)"
    assert verify_gq(back) == []


def test_gq_file_bad_header(tmp_path):
    path = tmp_path / "bad.gq"
    path.write_text("GX 1 0 1 1\n")
    with pytest.raises(ValueError):
        load_gq(path)


def _edited_w32(tmp_path, edit):
    path = tmp_path / "w32.gq"
    save_gq(path, build_w3(GF.default(2)))
    rows = path.read_text().splitlines()
    path.write_text("\n".join(edit(rows)) + "\n")
    return path


@pytest.mark.parametrize("edit, line", [
    (lambda rows: rows[:-1], 16),                       # truncated
    (lambda rows: rows[:8], 9),                         # cut mid-file
    (lambda rows: rows + [rows[-1]], 17),               # padded
    (lambda rows: rows + ["", "1 2 3"], 18),            # padded after gap
    (lambda rows: rows[:4] + ["0 1"] + rows[5:], 5),    # wrong arity
    (lambda rows: rows[:4] + [""] + rows[5:], 5),       # empty row
    (lambda rows: rows[:6] + ["0 1 15"] + rows[7:], 7),  # point out of range
    (lambda rows: rows[:2] + ["0 1 z"] + rows[3:], 3),  # not an integer
])
def test_gq_file_errors_name_the_line(tmp_path, edit, line):
    path = _edited_w32(tmp_path, edit)
    with pytest.raises(ValueError, match=f"line {line}:"):
        load_gq(path)


def test_gq_file_allows_trailing_blank_lines(tmp_path):
    path = _edited_w32(tmp_path, lambda rows: rows + ["", ""])
    assert load_gq(path).n_lines == 15


# sha256 of the .gq file and its .json sidecar written by save_gq,
# recorded at commit f711dc7
SAVED_GQ_SHA256 = {
    "w3-2": (
        "a011dbff31030dd7e3e27dd8300d952a73aa8f437a4c4ea6eb9f0dde9bd7b68e",
        "92a977a229fcb55067c26dd657cfac3207f4dfa237943ca86a445c26f407c01f"),
    "w3-3": (
        "838543f35ebf2b2cef795afdf867b3377d62a9de4c5f8700be1aff62c1f07058",
        "e9641005735f522e666f18e2b34fd67e2e5c247b3e68baab2ad64442cb05910d"),
    "w3-4": (
        "68eb41c74e64a391b698009449b1b5a9dbd3992deb896871b401facd186a522e",
        "9b7bc9ef2c0a38139c334ff03671cbf75f8a3098cabff6fc08726037f199be70"),
    "w3-5": (
        "13efbd75ae2d1ebf6b7838652c24959059cd28c3e5ef2131eae663c8957cb7df",
        "aa217b7e9fb9ed93c50bef0b23c040915754a3abf62a1188cfeaacb34c18a3da"),
    "derived-3": (
        "313e71fe0e6ff95fe0266b75ffdd9667236ca7720e96ac5b5956556347a40b20",
        "8ba51d3a6e9bf08d31dd0a11872f10b89fd090a23829ed05473743e025469ed1"),
    "derived-4": (
        "1972f2bb9080cfaf49b1859c78e86b6f38a59d35b3cc8aaa1485d4eddaf993f4",
        "39125115535f27898c8bd942c628369f9f2295745ef88c0d05d3f2b039d0360d"),
    "derived-5": (
        "dd8f3d5f301ea5d87bff7b89a59884b9f6d74f28f1b978b97149e2e65bf74389",
        "66ea465cd0a8d718b999e6a706b8e46ee877200749f6ff535bbb3212ca95c1cb"),
    "qminus5-2": (
        "34dedc6739e4438c44b14cab4fa489f5c61f49574fca029a91c05e28a325c378",
        "19d806f8e7801dd004b789afd8d276e3807004c673ca4781d602d28b358c72e3"),
    "qminus5-3": (
        "9537ef5429c776724ecf7ac8b9e23fcb7900c9404f7cfa291964c0f410c1f90d",
        "5be58527c51d3ecc2dc3faf0fa0de621941d406d24766b643fc79852f8cdbdaf"),
    "dual-w3-3": (
        "df5c5720d3e8d23c608a6989abe53eb79633013d8d0f93850363f9cba3181db0",
        "ebb66436ab4e7179983f41b6028f6ca5598068db08344534be850af330c289e4"),
    "w3-4-at-7": (
        "fcf0ae36072e63cae1350bfb921ad67d7e5e4a40ced9886ca02abe134cf60233",
        "6916ca116825c00f61575dfd59e9eb5e9cf42ed8f9b9203067dab1ebe68bd291"),
    "gu513": (
        "83c6350e9d2d933f8df76a704c4f0addcebbdf01af1f78df18b487ee49990853",
        "b46d0ad7b4bfc74e65183cea8b324077569676ee75857863e19b492979e001db"),
}


def _pinned_quadrangles():
    from gquad.constructions import build_derived_model, build_gu513
    for q in (2, 3, 4, 5):
        yield f"w3-{q}", build_w3(GF.default(q))
    for q in (3, 4, 5):
        yield f"derived-{q}", build_derived_model(GF.default(q)).gq
    for q in (2, 3):
        yield f"qminus5-{q}", build_qminus5(GF.default(q))
    yield "dual-w3-3", dual(build_w3(GF.default(3)))
    yield "w3-4-at-7", payne_derive(build_w3(GF.default(4)), 7)
    yield "gu513", build_gu513()[1]


def test_saved_quadrangle_files_match_pinned_bytes(tmp_path):
    seen = []
    for name, gq in _pinned_quadrangles():
        path = tmp_path / f"{name}.gq"
        save_gq(path, gq)
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (path, tmp_path / f"{name}.gq.json"))
        assert got == SAVED_GQ_SHA256[name], f"{name} file bytes changed"
        seen.append(name)
    assert seen == list(SAVED_GQ_SHA256)
