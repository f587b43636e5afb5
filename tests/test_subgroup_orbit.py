"""The conjugation-orbit walk against independent routes.

``oracle_form`` is the canonical form the orbit walks used before the
base-image key: the element rows of a subgroup, sorted and deduplicated
by ``np.unique(axis=0)``.  It is kept here only, as the oracle for
subgroup equality.  ``orbit_oracle`` and ``normaliser_oracle`` are the
former walk over Permutation objects, one product per step, and the
Schreier generators formed from it.  Normalisers and conjugacy are also
checked by brute force over every ambient element.
"""

import numpy as np
import pytest

from gquad.constructions import (
    action_from_linear,
    ambient_stabiliser,
    build_derived_model,
    elation_gens,
    shear_gens,
    unipotent_gens,
)
from gquad.gf import GF
from gquad.groups import (
    UNKNOWN,
    FiniteGroup,
    PermGroup,
    Permutation,
    is_conjugate_subgroup,
    subgroup_key,
    subgroup_orbit,
)
from gquad.incidence import aut_incidence
from gquad.groups import _base_keyer
from gquad.search import (
    SearchBudget,
    _BudgetHit,
    _Clock,
    normaliser_gens,
)


def orbit_oracle(ambient: PermGroup, sub: PermGroup):
    """The former walk: conjugators as Permutations, one product u * g
    per step, yielding (key, v, first) as ``subgroup_orbit`` does."""
    stack = np.stack([e.arr for e in sub.elements()])
    base, key_of = _base_keyer(ambient)
    ident = Permutation.identity(ambient.degree)
    inverses = [g.inverse().arr for g in ambient.gens]
    key0 = key_of(stack[:, base])
    first = {key0: ident}
    yield key0, ident, ident
    todo = [(ident, ident.arr)]
    while todo:
        u, uinv = todo.pop()
        for g, ginv in zip(ambient.gens, inverses):
            v = u * g
            vinv = uinv[ginv]
            key = key_of(v.arr[stack[:, vinv[base]]])
            known = first.setdefault(key, v)
            if known is v:
                todo.append((v, vinv))
            yield key, v, known


def normaliser_oracle(ambient: PermGroup, sub: PermGroup):
    """The former ``normaliser_gens``: Schreier generators v * first^-1
    as Permutation products over ``orbit_oracle``."""
    if not sub.gens:
        return list(ambient.gens)
    out = list(sub.gens)
    seen = {g.arr.tobytes() for g in out}
    for _, v, first in orbit_oracle(ambient, sub):
        if first is v:
            continue
        s = v * first.inverse()
        b = s.arr.tobytes()
        if not s.is_identity() and b not in seen:
            seen.add(b)
            out.append(s)
    return out


def oracle_form(group: PermGroup) -> bytes:
    """The old sorted-row canonical form: the oracle for equal subgroups."""
    rows = np.stack([e.arr for e in group.elements()])
    return np.unique(rows, axis=0).tobytes()


def _conjugate(group: PermGroup, v: Permutation) -> PermGroup:
    vi = v.inverse()
    return PermGroup(group.degree, [vi * s * v for s in group.gens])


def _descent_subgroups(sylow: PermGroup, target: int):
    """The Sylow group and every subgroup its descent to order target
    builds, transitive or not."""
    out, layer = [sylow], [sylow]
    while layer:
        nxt = []
        for h in layer:
            hf = FiniteGroup.from_permgroup(h)
            for _, gens in hf._maximal_masks():
                m = PermGroup(h.degree, [hf.elements[i] for i in gens])
                out.append(m)
                if m.order() > target:
                    nxt.append(m)
        layer = nxt
    return out


def _setting(q: int, ambient):
    model = build_derived_model(GF.default(q))
    k, gq = model.field, model.gq
    e, p, t = (action_from_linear(k, gens(k), gq)
               for gens in (elation_gens, shear_gens, unipotent_gens))
    amb = ambient(model)
    subs = _descent_subgroups(t, q ** 3) + [e, p]
    return amb, e, t, subs


@pytest.fixture(scope="module")
def q2():
    return _setting(2, lambda m: ambient_stabiliser(m.field, m.gq))


@pytest.fixture(scope="module")
def q3():
    return _setting(3, lambda m: aut_incidence(m.gq))


def _assert_bijection(pairs):
    by_key, by_oracle = {}, {}
    for key, form in pairs:
        assert by_key.setdefault(key, form) == form
        assert by_oracle.setdefault(form, key) == key


@pytest.mark.parametrize("setting", ["q2", "q3"])
def test_base_image_key_agrees_with_oracle(setting, request):
    amb, e, t, subs = request.getfixturevalue(setting)
    pairs = [(subgroup_key(amb, h), oracle_form(h)) for h in subs]
    # E is one of the descent's maximal subgroups, built from other
    # generators: equal groups must get equal keys
    assert subgroup_key(amb, e) in [key for key, _ in pairs[:-2]]
    for h in subs:
        for step, (key, v, _) in enumerate(subgroup_orbit(amb, h)):
            if step == 8:
                break
            pairs.append((key, oracle_form(_conjugate(h, Permutation(v)))))
    _assert_bijection(pairs)
    assert len({key for key, _ in pairs}) > len(subs) // 2


@pytest.mark.parametrize("pairs, degree", [(16, 32), (8, 512)])
def test_key_stays_exact_with_several_codes_per_row(pairs, degree):
    # C2 wr S_k on 2k of the points: its base is longer than one int64
    # code holds at this degree, so each row gets several codes
    swap = Permutation.from_cycles(degree, [(0, 1)])
    shift = Permutation.from_cycles(degree, [tuple(range(0, 2 * pairs, 2)),
                                             tuple(range(1, 2 * pairs, 2))])
    twist = Permutation.from_cycles(degree, [(0, 2), (1, 3)])
    amb = PermGroup(degree, [swap, shift, twist])
    assert len(amb.base()) > 63 // degree.bit_length()
    subs = [PermGroup(degree, [Permutation.from_cycles(degree, cycles)])
            for cycles in ([(0, 1), (2, 3)], [(0, 1)], [(0, 2), (1, 3)],
                           [(0, 2, 4), (1, 3, 5)])]
    found = []
    for h in subs:
        for step, (key, v, _) in enumerate(subgroup_orbit(amb, h)):
            if step == 40:
                break
            found.append((key, oracle_form(_conjugate(h, Permutation(v)))))
    _assert_bijection(found)


def _brute_normaliser_order(amb: PermGroup, h: PermGroup) -> int:
    """|{g in amb : h^g = h}|, testing every ambient element."""
    members = {x.arr.tobytes() for x in h.elements()}
    g = np.stack([x.arr for x in amb.elements()])
    ginv = np.empty_like(g)
    ginv[np.arange(len(g))[:, None], g] = np.arange(g.shape[1],
                                                    dtype=g.dtype)
    normalises = np.ones(len(g), dtype=bool)
    for s in h.gens:
        conj = np.take_along_axis(g, s.arr[ginv], axis=1)  # g^-1 s g
        normalises &= np.array([row.tobytes() in members for row in conj])
    return int(normalises.sum())


@pytest.mark.parametrize("setting", ["q2", "q3"])
def test_array_walk_matches_object_oracle(setting, request):
    # the same steps with the same keys and conjugators, new conjugates
    # at the same steps, and the same Schreier generators in order
    amb, e, t, subs = request.getfixturevalue(setting)
    for h in subs:
        got = list(subgroup_orbit(amb, h))
        want = list(orbit_oracle(amb, h))
        assert len(got) == len(want)
        for (key, v, first), (okey, ov, ofirst) in zip(got, want):
            assert key == okey
            assert (v == ov.arr).all() and (first == ofirst.arr).all()
            assert (first is v) == (ofirst is ov)
        assert normaliser_gens(amb, h) == normaliser_oracle(amb, h)


def test_normaliser_order_matches_brute_force_q2(q2):
    amb, e, t, subs = q2
    for h in subs:
        n = PermGroup(amb.degree, normaliser_gens(amb, h))
        assert n.order() == _brute_normaliser_order(amb, h)


def test_normaliser_order_matches_brute_force_q3(q3):
    amb, e, t, subs = q3
    for h in (e, t):
        n = PermGroup(amb.degree, normaliser_gens(amb, h))
        assert n.order() == _brute_normaliser_order(amb, h)


def test_is_conjugate_subgroup_matches_brute_force_q2(q2):
    amb, e, t, subs = q2
    # conjugates by the ambient generators give pairs that are conjugate
    # without being equal
    subs = subs + [_conjugate(h, g) for h in subs for g in amb.gens]
    forms = [oracle_form(h) for h in subs]
    conjugates = [{oracle_form(_conjugate(h, g)) for g in amb.elements()}
                  for h in subs]
    proper_pairs = 0
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            w = is_conjugate_subgroup(amb, a, b)
            assert w is not UNKNOWN
            if forms[j] in conjugates[i]:
                assert oracle_form(_conjugate(a, w)) == forms[j]
                proper_pairs += forms[i] != forms[j]
            else:
                assert w is None
    assert proper_pairs > 0


def test_walk_rejects_subgroup_outside_ambient(q2):
    amb, e, t, subs = q2
    outside = next(Permutation.from_cycles(amb.degree, [(0, x)])
                   for x in range(1, amb.degree)
                   if not amb.contains(
                       Permutation.from_cycles(amb.degree, [(0, x)])))
    bad = PermGroup(amb.degree, [outside])
    with pytest.raises(ValueError):
        next(subgroup_orbit(amb, bad))
    with pytest.raises(ValueError):
        subgroup_key(amb, bad)
    with pytest.raises(ValueError):
        is_conjugate_subgroup(amb, bad, e)
    with pytest.raises(ValueError):
        is_conjugate_subgroup(amb, e, bad)


def test_walk_ticks_the_callers_clock(q3):
    amb, e, t, subs = q3
    with pytest.raises(_BudgetHit):
        normaliser_gens(amb, e, clock=_Clock(SearchBudget(nodes=3)))


def test_walk_with_no_generators_yields_only_the_start():
    amb = PermGroup(6, [])
    got = list(subgroup_orbit(amb, PermGroup(6, [])))
    assert len(got) == 1
    key, v, first = got[0]
    assert first is v and (v == np.arange(6)).all()
    assert key == subgroup_key(amb, PermGroup(6, []))


@pytest.mark.parametrize("cycles", [[(0, 1, 2, 3, 4, 5)],
                                    [(0, 1, 2), (3, 4)]])
def test_walk_with_one_generator_matches_object_oracle(cycles):
    g = Permutation.from_cycles(6, cycles)
    amb = PermGroup(6, [g])
    for h in (amb, PermGroup(6, [g * g]), PermGroup(6, [])):
        got = list(subgroup_orbit(amb, h))
        want = list(orbit_oracle(amb, h))
        # an abelian ambient normalises every subgroup: the start, then
        # one step back to it
        assert len(got) == len(want) == 2
        for (key, v, first), (okey, ov, ofirst) in zip(got, want):
            assert key == okey and (v == ov.arr).all()
            assert (first is v) == (ofirst is ov)


def _wreath(pairs: int, degree: int) -> PermGroup:
    """C2 wr S_k on the first 2k points, as in the several-codes test."""
    return PermGroup(degree, [
        Permutation.from_cycles(degree, [(0, 1)]),
        Permutation.from_cycles(degree, [tuple(range(0, 2 * pairs, 2)),
                                         tuple(range(1, 2 * pairs, 2))]),
        Permutation.from_cycles(degree, [(0, 2), (1, 3)])])


@pytest.mark.parametrize("pairs, degree, chunks",
                         [(2, 8, 1), (16, 32, 2), (8, 512, 2)])
def test_many_block_keys_equal_single_block_keys(pairs, degree, chunks):
    amb = _wreath(pairs, degree)
    base, key_of = _base_keyer(amb)
    width = 63 // degree.bit_length()
    assert max(1, -(-len(base) // width)) == chunks
    rng = np.random.default_rng(degree)
    for rows, d, top in ((12, 5, 2), (12, 5, degree), (1, 3, degree),
                         (7, 1, 3), (7, 0, degree)):
        # few distinct values force ties in the leading code of a row
        blocks = rng.integers(0, top, size=(rows, d, len(base)))
        blocks = blocks.astype(np.uint16 if degree > 256 else np.uint8)
        keys = key_of.many(blocks)
        assert keys == [key_of(blocks[:, i]) for i in range(d)]


def _long_walk(q3):
    amb, e, t, subs = q3
    # the subgroup with the longest conjugation orbit walk
    return max(subs, key=lambda h: sum(1 for _ in subgroup_orbit(amb, h)))


@pytest.mark.parametrize("extra", [1, 5])
def test_node_budget_stops_the_walk_mid_node(q3, extra):
    amb, e, t, subs = q3
    h = _long_walk(q3)
    d = len(amb.gens)
    full = [key for key, _, _ in subgroup_orbit(amb, h)]
    nodes = 2 * d + extra       # not a multiple of the children per node
    assert len(full) > nodes + 1
    clock = _Clock(SearchBudget(nodes=nodes))
    got = []
    with pytest.raises(_BudgetHit):
        for key, _, _ in subgroup_orbit(amb, h, clock):
            got.append(key)
    # the start and one step per node of budget; the next tick raises
    assert clock.nodes == nodes + 1
    assert got == full[:nodes + 1]
    clock = _Clock(SearchBudget(nodes=len(full) - 1))
    assert [key for key, _, _ in subgroup_orbit(amb, h, clock)] == full
