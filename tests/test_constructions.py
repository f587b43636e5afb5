"""Tests for the explicit group constructions and identity checkers."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gquad.constructions as cons
from gquad.constructions import (
    BASE_POINT,
    NotAnAutomorphismError,
    action_from_linear,
    ambient_stabiliser,
    ambient_stabiliser_gens,
    axis_gens,
    build_derived_model,
    build_extraspecial27,
    build_gu513,
    centre_gens,
    elation_gens,
    elation_group,
    elation_matrix,
    iso_E_to_P,
    shear_gens,
    shear_group,
    shear_matrix,
    shear_power_matrix,
    split_gens,
    unipotent_gens,
    split_group,
    sylow_exponent,
    unipotent_group,
    verify_conjugation_relations,
    verify_elation_commutator_rule,
    verify_elation_product_rule,
    verify_shear_power_formula,
)
from gquad.gf import GF
from gquad.groups import (
    FiniteGroup,
    PermGroup,
    Permutation,
    InvalidPermutationError,
    TooLargeError,
    find_isomorphism,
    invariant_report,
    is_isomorphic_small,
    is_normal,
    is_regular,
)
from gquad.incidence import Quadrangle, build_qminus5, line_action, verify_gq
from gquad.linalg import Mat, SemilinearMap, mat_mul_batch, normalise_point


# -- matrix identities -------------------------------------------------------

def test_elation_product_rule_small():
    for q in (2, 3, 4):
        assert verify_elation_product_rule(GF.default(q)) == []


def test_elation_commutator_rule_small():
    for q in (2, 3, 4):
        assert verify_elation_commutator_rule(GF.default(q)) == []


def test_elation_inverse():
    k = GF.default(5)
    for a, b, c in [(0, 0, 0), (1, 2, 3), (4, 4, 1)]:
        t = elation_matrix(k, a, b, c)
        ti = elation_matrix(k, k.neg(a), k.neg(b), k.neg(c))
        assert t * ti == Mat.identity(k, 4)


def test_conjugation_relations_small():
    for q in (2, 3, 4, 5):
        rel = verify_conjugation_relations(GF.default(q))
        assert all(v == [] for v in rel.values()), rel


def test_shear_power_formula_small():
    for q in (2, 3, 4, 5, 9):
        assert verify_shear_power_formula(GF.default(q)) == []


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.integers(0, 60))
def test_shear_power_matches_repeated_product(alpha, n):
    k = GF.default(7)
    acc = Mat.identity(k, 4)
    th = shear_matrix(k, alpha)
    for _ in range(n):
        acc = acc * th
    assert acc == shear_power_matrix(k, alpha, n)


def test_shear_orders():
    # order p for p > 3, order p^2 in characteristics 2 and 3
    for q, order in ((5, 5), (7, 7), (2, 4), (4, 4), (3, 9), (9, 9)):
        k = GF.default(q)
        al = 1
        th = shear_matrix(k, al)
        acc = Mat.identity(k, 4)
        got = None
        for n in range(1, order + 1):
            acc = acc * th
            if acc == Mat.identity(k, 4):
                got = n
                break
        assert got == order


# -- the checkers against object-level oracles -------------------------------
#
# The former Mat loops, kept as oracles.  They call the constructors
# through the module, so a constructor patched there reaches both them
# and the checkers.

def elation_rules_oracle(field, limit=5):
    """The product and commutator rules, one Mat product at a time.

    Returns the (product, commutator) counterexample lists, pairs
    ((a,b,c), (x,y,z)) in row-major order, each at most limit long.
    """
    k = field
    two = k.scalar(2)
    ts = {abc: cons.elation_matrix(k, *abc)
          for abc in itertools.product(k.elements(), repeat=3)}
    inv = {abc: m.inverse() for abc, m in ts.items()}
    product, commutator = [], []
    for (a, b, c), t in ts.items():
        for (x, y, z), u in ts.items():
            cy_bz = k.sub(k.mul(c, y), k.mul(b, z))
            want = ts[(k.add(k.add(a, x), cy_bz), k.add(b, y), k.add(c, z))]
            if t * u != want and len(product) < limit:
                product.append(((a, b, c), (x, y, z)))
            com = inv[(a, b, c)] * inv[(x, y, z)] * t * u
            if com != ts[(k.mul(two, cy_bz), 0, 0)] and \
                    len(commutator) < limit:
                commutator.append(((a, b, c), (x, y, z)))
    return product, commutator


def conjugation_relations_oracle(field, limit=5):
    """The former verify_conjugation_relations loop."""
    k = field
    two = k.scalar(2)
    out = {"conjugate": [], "commutator": [], "product": [],
           "shear_commutator": []}

    def note(key, item):
        if len(out[key]) < limit:
            out[key].append(item)

    for al in k.elements():
        th = cons.shear_matrix(k, al)
        thi = th.inverse()
        al2 = k.mul(al, al)
        for a, b, c in itertools.product(k.elements(), repeat=3):
            t = cons.elation_matrix(k, a, b, c)
            a_new = k.sub(a, k.add(k.mul(two, k.mul(al, b)),
                                   k.mul(two, k.mul(al2, c))))
            want = cons.elation_matrix(k, a_new, k.add(b, k.mul(al, c)), c)
            if thi * t * th != want:
                note("conjugate", (al, (a, b, c)))
            inner = k.add(k.mul(c, c), k.add(k.mul(two, k.mul(al, c)),
                                             k.mul(two, b)))
            want = cons.elation_matrix(k, k.neg(k.mul(al, inner)),
                                       k.mul(al, c), 0)
            if t.inverse() * thi * t * th != want:
                note("commutator", (al, (a, b, c)))
    for al, be in itertools.product(k.elements(), repeat=2):
        tha = cons.shear_matrix(k, al)
        thb = cons.shear_matrix(k, be)
        want = cons.elation_matrix(k, k.mul(k.mul(al, al), be),
                                   k.mul(al, be), 0) * \
            cons.shear_matrix(k, k.add(al, be))
        if tha * thb != want:
            note("product", (al, be))
        want = cons.elation_matrix(k, k.mul(k.mul(al, be), k.sub(al, be)),
                                   0, 0)
        if tha.inverse() * thb.inverse() * tha * thb != want:
            note("shear_commutator", (al, be))
    return out


def shear_power_oracle(field, n_max, limit=5):
    """The former verify_shear_power_formula loop."""
    k = field
    bad = []
    for al in k.elements():
        th = cons.shear_matrix(k, al)
        acc = Mat.identity(k, 4)
        for n in range(n_max + 1):
            if acc != shear_power_matrix(k, al, n) and len(bad) < limit:
                bad.append((al, n))
            acc = acc * th
    return bad


def _with_one_entry_changed(make, hit, entry):
    """make, except that the matrix for the parameters hit has its
    below-diagonal entry (i, j) raised by one; it stays invertible."""
    i, j = entry

    def faulty(field, *params):
        m = make(field, *params)
        if params != hit:
            return m
        data = list(m.data)
        data[4 * i + j] = field.add(data[4 * i + j], 1)
        return Mat(field, 4, 4, data)
    return faulty


BROKEN = {
    "elation": ("elation_matrix",
                _with_one_entry_changed(elation_matrix, (0, 1, 1), (3, 1))),
    "shear": ("shear_matrix",
              _with_one_entry_changed(shear_matrix, (2,), (3, 2))),
}


@pytest.mark.parametrize("limit", [1, None])
@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_checkers_match_oracles_under_a_broken_constructor(
        monkeypatch, broken, q, limit):
    name, faulty = BROKEN[broken]
    monkeypatch.setattr(cons, name, faulty)
    k = GF.default(q)
    cap = {} if limit is None else {"limit": limit}
    product, commutator = elation_rules_oracle(k, **cap)
    relations = conjugation_relations_oracle(k, **cap)
    assert verify_elation_product_rule(k, **cap) == product
    assert verify_elation_commutator_rule(k, **cap) == commutator
    assert verify_conjugation_relations(k, **cap) == relations
    n_max = 2 * (k.p * k.p if k.p in (2, 3) else k.p) + 1
    assert verify_shear_power_formula(k, **cap) == \
        shear_power_oracle(k, n_max, **cap)
    # the fault is seen, so the comparisons above are not of empty lists
    assert any(relations.values())
    if broken == "elation":
        assert product and commutator
        assert product[0] == commutator[0] == ((0, 0, 1), (0, 1, 1))
    else:
        assert verify_shear_power_formula(k, **cap)


# -- generating sets and matrix groups ---------------------------------------

def test_group_orders():
    for q in (2, 3, 4):
        k = GF.default(q)
        assert len(elation_group(k).elements) == q ** 3
        assert len(shear_group(k).elements) == q ** 3
        assert len(unipotent_group(k).elements) == q ** 4
    for q in (4, 9):
        assert len(split_group(GF.default(q)).elements) == q ** 3


def test_gen_counts():
    k = GF.default(8)
    assert len(centre_gens(k)) == 3
    assert len(axis_gens(k)) == 6
    assert len(elation_gens(k)) == 9
    assert len(shear_gens(k)) == 9


def test_shear_group_contains_all_shears():
    # the group does not depend on the basis: theta(alpha) is inside
    # for every alpha, not just the basis elements
    k = GF.default(4)
    P = shear_group(k)
    for al in k.elements():
        assert shear_matrix(k, al) in P.index


def test_split_gens_validation():
    k = GF.default(4)
    with pytest.raises(ValueError):
        split_gens(k, [1], None)  # one basis without the other
    with pytest.raises(ValueError):
        split_gens(k, [1], [1, 2])  # too many vectors
    with pytest.raises(ValueError):
        split_gens(k, [1], [1])  # dependent
    with pytest.raises(ValueError):
        split_gens(k, [3], [3])  # dependent


def test_split_gens_alternative_decomposition():
    k = GF.default(4)
    # U = <x>, W = <1> is a valid decomposition too
    S = split_group(k, [2], [1])
    assert len(S.elements) == 64


def test_invariants_match_small_group_lemmas():
    E2 = invariant_report(elation_group(GF.default(2)))
    assert E2["is_abelian"] and E2["exponent"] == 2
    E3 = invariant_report(elation_group(GF.default(3)))
    assert E3["is_extraspecial"] and E3["exponent"] == 3
    P3 = invariant_report(shear_group(GF.default(3)))
    assert P3["is_extraspecial"] and P3["exponent"] == 9
    P2 = invariant_report(shear_group(GF.default(2)))
    assert P2["is_abelian"] and P2["exponent"] == 4
    assert P2["element_order_histogram"] == [[1, 1], [2, 3], [4, 4]]


# -- the isomorphism E -> P --------------------------------------------------

def test_iso_e_to_p_is_an_isomorphism():
    k = GF.default(5)
    phi = iso_E_to_P(k)
    E = elation_group(k)
    assert len(phi) == 125
    assert set(phi) == set(E.elements)
    assert len(set(phi.values())) == 125
    for a in E.elements[::7]:
        for b in E.elements[::11]:
            assert phi[a * b] == phi[a] * phi[b]


def test_e_p_isomorphism_past_order_4096():
    k = GF.default(17)
    E, P = elation_group(k), shear_group(k)
    phi = find_isomorphism(E, P, max_order=4913)
    assert set(phi) == set(E.elements)
    assert len(set(phi.values())) == 4913
    for g in E.gens:
        for h in E.elements:
            assert phi[g * h] == phi[g] * phi[h]


def test_iso_e_to_p_rejects_small_characteristic():
    with pytest.raises(ValueError):
        iso_E_to_P(GF.default(2))
    with pytest.raises(ValueError):
        iso_E_to_P(GF.default(9))


def test_e_p_not_isomorphic_small_characteristic():
    for q in (2, 3, 4):
        k = GF.default(q)
        assert is_isomorphic_small(elation_group(k), shear_group(k)) is None


# -- actions on the derived quadrangle ---------------------------------------

def test_derived_model_and_regular_actions():
    k = GF.default(3)
    model = build_derived_model(k)
    assert model.ambient_gq.labels[model.base] == BASE_POINT
    assert model.gq.n_points == 27
    assert model.gq.order() == (2, 4)
    for gens in (elation_gens(k), shear_gens(k)):
        act = action_from_linear(k, gens, model.gq)
        assert is_regular(act, range(27))


def test_line_fixing_contrast():
    # E fixes every line through the base point, P only one
    k = GF.default(3)
    model = build_derived_model(k)
    w3 = model.ambient_gq
    pencil = set(w3.pencils()[model.base])
    assert len(pencil) == 4

    def fixed_lines(gens):
        act = action_from_linear(k, gens, w3)
        la = line_action(w3, act)
        return {ln for ln in pencil
                if all(g.apply(ln) == ln for g in la.gens)}

    assert fixed_lines(elation_gens(k)) == pencil
    fixed = fixed_lines(shear_gens(k))
    assert len(fixed) == 1
    ln = fixed.pop()
    labs = {w3.labels[p] for p in w3.lines[ln]}
    assert labs == {(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0)}


def test_split_group_line_orbits():
    # orbits of length p^k on the q non-fixed lines through the base
    k = GF.default(4)
    model = build_derived_model(k)
    w3 = model.ambient_gq
    act = action_from_linear(k, split_gens(k), w3)
    la = line_action(w3, act)
    pencil = set(w3.pencils()[model.base])
    sizes = sorted(len(o) for o in la.orbits() if set(o) & pencil)
    assert sizes == [1, 2, 2]


def test_action_rejects_line_breaker():
    k = GF.default(3)
    model = build_derived_model(k)
    bad = Mat.from_rows(k, [(1, 0, 0, 0), (0, 1, 0, 0),
                            (0, 0, 1, 0), (0, 0, 0, 2)])
    with pytest.raises(NotAnAutomorphismError):
        action_from_linear(k, [bad], model.ambient_gq)
    # on the derived quadrangle the same map keeps the points (it fixes
    # the base and scales one coordinate) and breaks lines there too
    with pytest.raises(NotAnAutomorphismError):
        action_from_linear(k, elation_gens(k) + [bad], model.gq)


def action_oracle(field, maps, gq):
    """The former per-label ``action_from_linear``: each label through
    ``apply``, ``normalise_point`` and ``point_id``, and the lines
    checked by ``np.unique`` over the stacked rows."""
    lm = gq.line_matrix()
    gens = []
    for m in maps:
        images = []
        for lab in gq.labels:
            w = normalise_point(field, m.apply(lab))
            try:
                images.append(gq.point_id(w))
            except KeyError:
                raise NotAnAutomorphismError(
                    f"{lab} maps to {w}, which is not a point") from None
        try:
            g = Permutation(images)
        except InvalidPermutationError:
            raise NotAnAutomorphismError(
                "map is not injective on points") from None
        mapped = np.sort(g.arr[lm], axis=1)
        both = np.concatenate([lm, mapped.astype(lm.dtype)])
        if np.unique(both, axis=0).shape[0] != lm.shape[0]:
            raise NotAnAutomorphismError("map does not preserve lines")
        gens.append(g)
    return PermGroup(gq.n_points, gens)


def _action_outcome(act, field, maps, gq):
    try:
        return [(g.arr.dtype, g.arr.tobytes()) for g in
                act(field, maps, gq).gens]
    except ValueError as exc:
        return type(exc), str(exc)


def test_action_matches_per_label_oracle():
    builders = (elation_gens, shear_gens, split_gens, unipotent_gens,
                centre_gens, ambient_stabiliser_gens)
    for q in (2, 3, 4, 5, 7, 8, 9):
        k = GF.default(q)
        model = build_derived_model(k)
        for gq in (model.gq, model.ambient_gq):
            for gens in builders:
                got = _action_outcome(action_from_linear, k, gens(k), gq)
                assert isinstance(got, list)
                assert got == _action_outcome(action_oracle, k, gens(k), gq)
    semi = [SemilinearMap(elation_matrix(GF.default(8), 1, 2, 3), 2)]
    w8 = build_derived_model(GF.default(8)).ambient_gq
    assert _action_outcome(action_from_linear, GF.default(8), semi, w8) == \
        _action_outcome(action_oracle, GF.default(8), semi, w8)


def test_action_errors_match_per_label_oracle():
    k = GF.default(3)
    model = build_derived_model(k)
    bad = Mat.from_rows(k, [(1, 0, 0, 0), (0, 1, 0, 0),
                            (0, 0, 1, 0), (0, 0, 0, 2)])
    singular = Mat.from_rows(k, [(1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 0)])
    # swaps the base point with (0,0,0,1), so it leaves the derived points
    swap = Mat.from_rows(k, [(0, 0, 0, 1), (0, 1, 0, 0),
                             (0, 0, 1, 0), (1, 0, 0, 0)])
    # two points with one label: the map is not injective on points
    w3 = model.ambient_gq
    twin = Quadrangle(w3.n_points, w3.lines, s=3, t=3,
                      labels=w3.labels[:-1] + w3.labels[-2:-1])
    cases = [([bad], w3, "map does not preserve lines"),
             (elation_gens(k) + [swap], model.gq, "which is not a point"),
             ([singular], w3, "zero vector"),
             ([Mat.identity(k, 5)], w3, "expected length 5, got 4"),
             ([Mat.identity(k, 4)], twin, "map is not injective on points")]
    for maps, gq, text in cases:
        got = _action_outcome(action_from_linear, k, maps, gq)
        assert got == _action_outcome(action_oracle, k, maps, gq)
        assert text in got[1]


def test_ambient_stabiliser_orders():
    for q, order in ((2, 48), (3, 648)):
        k = GF.default(q)
        model = build_derived_model(k)
        amb = ambient_stabiliser(k, model.gq)
        assert amb.order() == order
        E = action_from_linear(k, elation_gens(k), model.gq)
        P = action_from_linear(k, shear_gens(k), model.gq)
        assert is_normal(amb, E)
        assert not is_normal(amb, P)


# -- regular groups on elliptic quadrics -------------------------------------

def test_extraspecial27_kinds():
    for kind, expo in (("exp3", 3), ("exp9", 9)):
        group, gq = build_extraspecial27(kind)
        assert verify_gq(gq, 2, 4) == []
        assert is_regular(group, range(27))
        rep = invariant_report(FiniteGroup.from_permgroup(group))
        assert rep["order"] == 27
        assert rep["is_extraspecial"]
        assert rep["exponent"] == expo


def test_extraspecial27_transport():
    target = build_qminus5(GF.default(2))
    group, gq = build_extraspecial27("exp9", target=target)
    assert gq is target
    assert is_regular(group, range(27))


def test_extraspecial27_bad_kind():
    with pytest.raises(ValueError):
        build_extraspecial27("exp27")


def test_gu513_structure():
    group, gq = build_gu513()
    assert gq.n_points == 4617
    assert gq.n_lines == 33345
    assert verify_gq(gq, 8, 64) == []
    assert group.order() == 4617
    assert is_regular(group, range(4617))
    mult, frob = group.gens
    assert mult.order() == 513
    assert frob.order() == 9
    norm_part = PermGroup(4617, [mult])
    assert is_normal(group, norm_part)


def test_gu513_generators_are_the_field_maps_on_labels():
    # stated with the field's scalar mul and pow on the labels, not with
    # the log residues the builder works on: a point's label is the least
    # code of its GF(8)* multiples, gens[0] multiplies by zeta^511 and
    # gens[1] raises to the 4th power
    group, gq = build_gu513()
    k = GF(p=2, f=18)
    zeta = k.primitive()
    scalars = [k.pow(zeta, (k.q - 1) // 7 * j) for j in range(7)]
    assert len(set(scalars)) == 7
    assert all(k.pow(c, 8) == c for c in scalars)

    def point(v):
        return gq.point_id(min(k.mul(c, v) for c in scalars))

    mult, frob = group.gens
    shift = k.pow(zeta, 511)
    rng = np.random.default_rng(0)
    for i in rng.choice(gq.n_points, size=400, replace=False).tolist():
        label = gq.labels[i]
        assert point(label) == i
        assert mult.apply(i) == point(k.mul(shift, label))
        assert frob.apply(i) == point(k.pow(label, 4))


def test_gu513_lines_are_closed_under_the_group():
    # stated without reference to how the lines are found: the group
    # permutes the lines, each point is on t+1 = 65 of them, none twice
    group, gq = build_gu513()
    assert line_action(gq, group).degree == 33345
    mat = gq.line_matrix()
    assert mat.shape == (33345, 9)
    assert (np.bincount(mat.ravel(), minlength=4617) == 65).all()
    assert len(set(gq.lines)) == gq.n_lines


def test_second_gu513_build_reuses_the_field_tables(monkeypatch):
    group, gq = build_gu513()
    exp, log = GF.default(1 << 18).exp_log_char2()
    assert not exp.flags.writeable and not log.flags.writeable

    def rebuilt(self):
        raise AssertionError("GF(2^18) exp/log tables built again")

    monkeypatch.setattr(GF, "_build_exp_log_char2", rebuilt)
    again, gq_again = build_gu513()
    assert (again.rows == group.rows).all()
    assert gq_again.lines == gq.lines and gq_again.labels == gq.labels
    assert GF.default(1 << 18).exp_log_char2()[0] is exp


# -- the Sylow exponent check ------------------------------------------------

def test_sylow_exponent():
    assert sylow_exponent(GF.default(2)) == 4
    assert sylow_exponent(GF.default(3)) == 9
    assert sylow_exponent(GF.default(4)) == 4
    assert sylow_exponent(GF.default(5)) == 5
    assert sylow_exponent(GF.default(8)) == 4  # 4 chunks of 2^16


def _unitriangular_mats(field):
    """All q^6 upper unitriangular 4 x 4 matrices over the field."""
    for d in itertools.product(range(field.q), repeat=6):
        yield Mat.from_rows(field, [(1, d[0], d[1], d[2]), (0, 1, d[3], d[4]),
                                    (0, 0, 1, d[5]), (0, 0, 0, 1)])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sylow_exponent_is_lcm_of_element_orders(q):
    # an independent route: each element powered with Mat.__mul__ until
    # it reaches the identity, so no mat_mul_batch product is involved
    k = GF.default(q)
    eye = Mat.identity(k, 4)
    exponent = 1
    for m in _unitriangular_mats(k):
        power, order = m, 1
        while power != eye:
            power, order = power * m, order + 1
        exponent = math.lcm(exponent, order)
    assert exponent == k.p ** 2
    assert sylow_exponent(k) == exponent


@pytest.mark.parametrize("q, chunk", [(2, 5), (3, 100), (8, 87381)])
def test_sylow_exponent_with_chunks_that_do_not_divide_q6(monkeypatch, q,
                                                          chunk):
    # 8^6 = 3 * 87381 + 1, so the last GF(8) chunk holds one matrix
    k = GF.default(q)
    assert (q ** 6) % chunk
    monkeypatch.setattr(cons, "_SYLOW_CHUNK", chunk)
    assert sylow_exponent(k) == k.p ** 2


def test_sylow_exponent_guard():
    with pytest.raises(TooLargeError):
        sylow_exponent(GF.default(25))


# The former sylow_exponent kernel, kept as the oracle of the coordinate
# group law: whole 4 x 4 code matrices powered by mat_mul_batch products.

_ABOVE_DIAGONAL = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def mat_identity_mask(a):
    """Boolean mask over a stack (..., n, n): which entries equal I."""
    n = a.shape[-1]
    eye = np.zeros((n, n), dtype=a.dtype)
    for i in range(n):
        eye[i, i] = 1
    return (a == eye).all(axis=(-1, -2))


def _unitriangular_stack(coords):
    """The 4 x 4 matrices (m, 4, 4) with coordinates (6, m), built
    batch-last as mat_mul_batch works."""
    mats = np.zeros((4, 4, coords.shape[1]), dtype=np.uint8)
    for d in range(4):
        mats[d, d] = 1
    for pos, (i, j) in enumerate(_ABOVE_DIAGONAL):
        mats[i, j] = coords[pos]
    return np.moveaxis(mats, -1, 0)


def unitriangular_power_oracle(field, e):
    """The e-th powers (e >= 1) of all q^6 unitriangular matrices, matrix
    number idx holding the base-q digits of idx above the diagonal."""
    q = field.q
    idx = np.arange(q ** 6)
    base = _unitriangular_stack(
        np.stack([(idx // q ** pos) % q for pos in range(6)]))
    out = None
    while e:
        if e & 1:
            out = base if out is None else mat_mul_batch(field, out, base)
        e >>= 1
        if e:
            base = mat_mul_batch(field, base, base)
    return out


def test_mat_identity_mask():
    k = GF.default(5)
    eye = Mat.identity(k, 4).to_array()
    stack = np.stack([eye, elation_matrix(k, 1, 0, 0).to_array()])
    assert list(mat_identity_mask(stack)) == [True, False]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unitriangular_powers_match_oracle(q):
    # every element's p-th and p^2-th power, coordinate by coordinate
    k = GF.default(q)
    p = k.p
    coords = cons._unitriangular_coords(k, 0, q ** 6)
    assert coords.dtype == np.uint8
    assert (_unitriangular_stack(coords)
            == unitriangular_power_oracle(k, 1)).all()
    for e in (p, p * p):
        got = cons._unitriangular_pow(k, coords, e)
        want = unitriangular_power_oracle(k, e)
        assert (want == _unitriangular_stack(got)).all(), e
        # the identity test on coordinates is the oracle's on matrices
        assert (mat_identity_mask(want) == ~got.any(axis=0)).all(), e


@pytest.mark.parametrize("q", [8, 9])
def test_unitriangular_group_law_matches_matrix_products(q):
    # xor additions at q = 8, addition-table gathers at q = 9
    k = GF.default(q)
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 6, 2000), dtype=np.uint8)
    got = cons._unitriangular_mul(k, a, b)
    want = mat_mul_batch(k, _unitriangular_stack(a), _unitriangular_stack(b))
    assert (want == _unitriangular_stack(got)).all()
