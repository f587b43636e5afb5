"""Tests for the permutation and abstract group machinery."""

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gquad.constructions import build_derived_model
from gquad.gf import GF, _factorise
from gquad.groups import (
    UNKNOWN,
    FiniteGroup,
    InvalidPermutationError,
    NotInvariantError,
    PermGroup,
    Permutation,
    TooLargeError,
    element_closure,
    invariant_report,
    is_conjugate_subgroup,
    is_isomorphic_small,
    is_normal,
    is_regular,
    is_semiregular,
    load_group,
    report_json,
    save_group,
)
from gquad.linalg import Mat


def cyc(n, *cycles):
    return Permutation.from_cycles(n, [tuple(c) for c in cycles])


def sym(n):
    """Symmetric group on n points."""
    return PermGroup(n, [cyc(n, range(n)), cyc(n, (0, 1))])


def alt(n):
    gens = [cyc(n, (i, i + 1, i + 2)) for i in range(n - 2)]
    return PermGroup(n, gens)


def brute_order(gens, degree):
    ident = Permutation.identity(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = e * g
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


# -- permutations -----------------------------------------------------------

def test_permutation_composition_order():
    # x^(g*h) = h(g(x)): apply left factor first
    g = cyc(4, (0, 1))
    h = cyc(4, (1, 2))
    gh = g * h
    assert gh.apply(0) == 2
    assert gh.apply(2) == 1
    assert gh.apply(1) == 0
    hg = h * g
    assert hg.apply(0) == 1 and hg.apply(1) == 2


def test_permutation_inverse_pow_order():
    g = cyc(6, (0, 1, 2), (3, 4))
    assert g.order() == 6
    assert (g * g.inverse()).is_identity()
    assert g ** 6 == Permutation.identity(6)
    assert g ** -1 == g.inverse()
    assert g ** 4 == g * g * g * g
    assert sorted(g.cycle_lengths()) == [1, 2, 3]


def test_permutation_validation():
    with pytest.raises(InvalidPermutationError):
        Permutation([0, 0, 1])
    with pytest.raises(InvalidPermutationError):
        Permutation([0, 2])
    with pytest.raises(InvalidPermutationError):
        Permutation([-1, 0])
    with pytest.raises(InvalidPermutationError):
        cyc(3, (0, 1)) * cyc(4, (0, 1))


@pytest.mark.parametrize("images", [[0.5, 1], [1.7, 0.2], [True, False],
                                    ["1", "0"]])
def test_permutation_rejects_non_integer_images(images):
    # none may round, cast or slip through to the identity or a swap
    with pytest.raises(InvalidPermutationError):
        Permutation(images)
    with pytest.raises(InvalidPermutationError):
        PermGroup(2, [images])


def test_generator_block_contract():
    a, b = cyc(6, (0, 1, 2)), cyc(6, (3, 4))
    ident = Permutation.identity(6)
    given = [ident, b, a, b, ident, a * b, a]
    group = PermGroup(6, given)
    # first occurrences in input order, the identity and repeats dropped
    want = [b, a, a * b]
    assert group.rows.tolist() == [g.arr.tolist() for g in want]
    assert group.rows.shape == (3, 6) and group.rows.dtype == np.uint16
    assert not group.rows.flags.writeable
    with pytest.raises(ValueError):
        group.rows[0, 0] = 1
    assert group.gens == tuple(want)
    assert all(np.shares_memory(g.arr, group.rows) for g in group.gens)
    # the same group from a block of image arrays, in any integer dtype
    block = np.array([g.arr for g in given], dtype=np.int64)
    same = PermGroup(6, block)
    assert same.rows.dtype == np.uint16
    assert (same.rows == group.rows).all()
    assert same.order() == group.order() == 6
    assert same.base() == group.base()
    assert PermGroup(6).rows.shape == (0, 6)
    assert PermGroup(1 << 16).rows.dtype == np.uint32
    with pytest.raises(InvalidPermutationError):
        PermGroup(6, [cyc(5, (0, 1))])
    with pytest.raises(InvalidPermutationError):
        PermGroup(6, np.array([[1, 0, 2, 3, 4]]))


def test_permutation_hash_eq():
    a = cyc(5, (0, 1, 2))
    b = cyc(5, (1, 2)) * cyc(5, (0, 1))
    assert a == b and hash(a) == hash(b)
    assert a != cyc(5, (0, 2, 1))
    assert len({a, b}) == 1


@settings(max_examples=60)
@given(st.integers(3, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)),
                        st.permutations(range(n)),
                        st.integers(0, n - 1))))
def test_permutation_properties(data):
    pa, pb, x = data
    a, b = Permutation(list(pa)), Permutation(list(pb))
    assert (a * b).apply(x) == b.apply(a.apply(x))
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert (a ** a.order()).is_identity()


# -- stabiliser chain -------------------------------------------------------

def test_symmetric_group_orders():
    for n, want in [(3, 6), (4, 24), (5, 120), (6, 720), (7, 5040)]:
        assert sym(n).order() == want


def test_alternating_and_misc_orders():
    assert alt(5).order() == 60
    assert PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))]).order() == 4
    assert PermGroup(5, []).order() == 1
    # dihedral of order 10
    d = PermGroup(5, [cyc(5, range(5)), Permutation([0, 4, 3, 2, 1])])
    assert d.order() == 10


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7).flatmap(
    lambda n: st.tuples(st.permutations(range(n)),
                        st.permutations(range(n)))))
def test_chain_order_matches_closure(data):
    pa, pb = data
    n = len(pa)
    gens = [Permutation(list(pa)), Permutation(list(pb))]
    grp = PermGroup(n, gens)
    assert grp.order() == brute_order(gens, n)
    assert_chain_matches_oracle(grp, seed=n)


def test_contains_and_elements():
    s4 = sym(4)
    assert s4.contains(cyc(4, (0, 3, 2)))
    assert s4.contains(Permutation.identity(4))
    a4 = alt(4)
    assert not a4.contains(cyc(4, (0, 1)))
    assert a4.contains(cyc(4, (0, 1), (2, 3)))
    elems = a4.elements()
    assert len(elems) == 12 == len(set(elems))
    assert all(s4.contains(e) for e in elems)


def test_elements_bound(monkeypatch):
    import gquad.groups as groups
    monkeypatch.setattr(groups, "_FINITE_GROUP_LIMIT", 1000)
    calls = []
    real = groups.element_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "element_closure", counted)
    big = PermGroup(9, [cyc(9, range(9)), cyc(9, (0, 1))])
    with pytest.raises(TooLargeError):
        big.elements()
    # refused from the chain's order, before any closure
    assert calls == []


def test_point_stabilizer():
    s5 = sym(5)
    st0 = s5.point_stabilizer(0)
    assert st0.order() == 24
    assert all(g.apply(0) == 0 for g in st0.gens)
    assert st0.contains(cyc(5, (1, 2, 3, 4)))
    assert not st0.contains(cyc(5, (0, 1)))


def test_orbits_transitivity():
    g = PermGroup(6, [cyc(6, (0, 1, 2)), cyc(6, (3, 4))])
    assert g.orbits() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_transitive()
    assert g.is_transitive(on=[0, 1, 2])
    assert sym(6).is_transitive()
    assert g.orbit(4) == [3, 4]


def orbit_oracle(group, x):
    """The former breadth-first point-orbit walk: the oracle for
    PermGroup.orbit."""
    seen = {x}
    queue = deque([x])
    while queue:
        a = queue.popleft()
        for g in group.gens:
            b = int(g.arr[a])
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return sorted(seen)


def test_orbits_match_oracle():
    groups = _model_groups(2) + _model_groups(3) + [_aut_of_derived(3)]
    # one-generator subgroups have orbits short of the whole point set
    groups += [PermGroup(g.degree, g.gens[:1]) for g in groups]
    for g in groups:
        expected = [orbit_oracle(g, x) for x in range(g.degree)]
        assert [g.orbit(x) for x in range(g.degree)] == expected
        partition = sorted({tuple(o) for o in expected})
        assert g.orbits() == [list(o) for o in partition]
        assert g.is_transitive() == (len(expected[0]) == g.degree)
    assert any(not g.is_transitive() for g in groups)


def test_base_prefix_chain():
    g = PermGroup(5, sym(5).gens, base_prefix=(2,))
    assert g.order() == 120
    assert g.base()[0] == 2


# -- the stabiliser chain against the former re-close loop ------------------

def _inverse(u):
    inv = np.empty_like(u)
    inv[u] = np.arange(len(u))
    return inv


def chain_oracle(degree, gens, base_prefix=()):
    """The former re-close loop, kept as the oracle for PermGroup's chain.

    Each insertion rebuilds every level's orbit and transversal from
    scratch; then a sweep sifts every Schreier generator of every level,
    one at a time through freshly inverted transversal rows, and starts
    again after each residue it inserts.  Returns the levels as
    (base point, {orbit point: transversal image array}) pairs.
    """
    ident = np.arange(degree)
    bases = list(base_prefix)
    own = [[] for _ in bases]
    trans = []

    def gens_at(j):
        return [g for lv in own[j:] for g in lv]

    def rebuild():
        trans.clear()
        for j, b in enumerate(bases):
            u = {b: ident}
            queue = [b]
            for a in queue:
                for g in gens_at(j):
                    c = int(g[a])
                    if c not in u:
                        u[c] = g[u[a]]
                        queue.append(c)
            trans.append(u)

    def sift(g, start):
        for i in range(start, len(bases)):
            x = int(g[bases[i]])
            if x not in trans[i]:
                return g, i
            g = _inverse(trans[i][x])[g]
        return g, len(bases)

    def insert(g, i):
        if i == len(bases):
            bases.append(int(np.flatnonzero(g != ident)[0]))
            own.append([])
        own[i].append(g)
        rebuild()

    def reclose():
        for j in range(len(bases)):
            for b, ub in trans[j].items():
                for g in gens_at(j):
                    s = _inverse(trans[j][int(g[b])])[g[ub]]
                    residue, k = sift(s, j + 1)
                    if (residue != ident).any():
                        insert(residue, k)
                        return True
        return False

    rebuild()
    for g in gens:
        residue, i = sift(g.arr.astype(np.intp), 0)
        if (residue != ident).any():
            insert(residue, i)
            while reclose():
                pass
    return list(zip(bases, trans))


def oracle_order(levels):
    return math.prod(len(u) for _, u in levels)


def oracle_contains(levels, g):
    g = g.arr.astype(np.intp)
    for base, u in levels:
        x = int(g[base])
        if x not in u:
            return False
        g = _inverse(u[x])[g]
    return bool((g == np.arange(len(g))).all())


def random_word(group, rng, length=12):
    w = Permutation.identity(group.degree)
    for k in rng.integers(len(group.gens), size=length * bool(group.gens)):
        w = w * group.gens[k]
    return w


def assert_chain_matches_oracle(group, base_prefix=(), seed=0):
    """Order and membership agree with the oracle, on random products of
    the generators and on permutations that are mostly not members."""
    levels = chain_oracle(group.degree, group.gens, base_prefix)
    assert group.order() == oracle_order(levels)
    rng = np.random.default_rng(seed)
    members = [random_word(group, rng) for _ in range(12)]
    swap = cyc(group.degree, (0, 1))
    others = ([Permutation(rng.permutation(group.degree)) for _ in range(12)]
              + [m * swap for m in members[:6]])
    assert all(group.contains(m) for m in members)
    for x in members + others:
        assert group.contains(x) == oracle_contains(levels, x)
    if group.order() < math.factorial(group.degree):
        assert not all(group.contains(x) for x in others)


def hypercube_group(k):
    """C2 wr S_k in its product action on the 2^k vectors of GF(2)^k:
    a coordinate flip, a transposition and a cycle of the coordinates."""
    pts = np.arange(2 ** k)
    bits = (pts[:, None] >> np.arange(k)) & 1

    def permute_coordinates(cols):
        return Permutation((bits[:, cols] << np.arange(k)).sum(axis=1))

    return PermGroup(2 ** k, [
        Permutation(pts ^ 1),
        permute_coordinates([1, 0] + list(range(2, k))),
        permute_coordinates(list(range(1, k)) + [0]),
    ])


def _aut_of_derived(q):
    from gquad.incidence import aut_incidence
    return aut_incidence(build_derived_model(GF.default(q)).gq)


def _stabiliser_ambient(q):
    from gquad.constructions import ambient_stabiliser
    model = build_derived_model(GF.default(q))
    return ambient_stabiliser(model.field, model.gq)


def _gu513_regular():
    from gquad.constructions import build_gu513
    return build_gu513()[0]


CHAIN_CASES = {
    **{f"S{n}": (lambda n=n: sym(n)) for n in range(2, 8)},
    **{f"aut-q{q}": (lambda q=q: _aut_of_derived(q)) for q in (2, 3, 4, 5)},
    **{f"stabiliser-q{q}": (lambda q=q: _stabiliser_ambient(q))
       for q in (2, 3, 4, 5, 7)},
    "gu513-regular": _gu513_regular,
    "c2-wr-s9": lambda: hypercube_group(9),
}


def sparse_generators(rng, n, count):
    """Permutations of n points that each cycle a few of them, so that the
    groups they generate are mostly neither S_n nor A_n."""
    gens = []
    for _ in range(count):
        images = np.arange(n)
        pts = rng.choice(n, size=rng.integers(2, min(n, 5) + 1), replace=False)
        images[pts] = np.roll(pts, -1)
        gens.append(Permutation(images))
    return gens


def test_chain_matches_oracle_on_sparse_random_groups():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(4, 13))
        gens = sparse_generators(rng, n, int(rng.integers(1, 4)))
        assert_chain_matches_oracle(PermGroup(n, gens), seed=trial)


@pytest.mark.parametrize("name", list(CHAIN_CASES))
def test_chain_matches_oracle(name):
    group = CHAIN_CASES[name]()
    # a fresh group, so the chain is built here and not by its maker
    assert_chain_matches_oracle(PermGroup(group.degree, group.gens))


def test_hypercube_group_order():
    for k in range(2, 10):
        assert hypercube_group(k).order() == 2 ** k * math.factorial(k)


@pytest.mark.parametrize("prefix", [(2,), (4, 0), (0, 1, 2)])
def test_base_prefix_chain_matches_oracle(prefix):
    for group in (sym(6), hypercube_group(4), _stabiliser_ambient(3)):
        g = PermGroup(group.degree, group.gens, base_prefix=prefix)
        assert g.base()[:len(prefix)] == list(prefix)
        assert_chain_matches_oracle(g, prefix)


def test_point_stabilizer_matches_oracle():
    for group in (sym(6), hypercube_group(5), _stabiliser_ambient(3)):
        for x in (0, 3):
            st = group.point_stabilizer(x)
            assert all(g.apply(x) == x for g in st.gens)
            # st carries its order from the chain with base (x,), and
            # builds its own chain for contains
            assert_chain_matches_oracle(st)
            assert st.order() == group.order() // len(group.orbit(x))


def test_schreier_vector_fallback_matches_full_transversals(monkeypatch):
    import gquad.groups as groups
    from gquad.constructions import (action_from_linear, elation_gens,
                                     shear_gens, unipotent_gens)
    model = build_derived_model(GF.default(3))
    subs = [action_from_linear(model.field, gens(model.field), model.gq)
            for gens in (elation_gens, shear_gens, unipotent_gens)]
    cases = [sym(6), hypercube_group(6), _stabiliser_ambient(3),
             _aut_of_derived(3)]
    full = [PermGroup(g.degree, g.gens) for g in cases]
    for g in full:
        g.order()
    # orbit x degree past 200 cells drops to Schreier vectors: the first
    # levels of every case, but not the deeper ones
    monkeypatch.setattr(groups, "_FULL_TRANSVERSAL_ENTRIES", 200)
    kinds = set()
    rng = np.random.default_rng(7)
    for g, f in zip(cases, full):
        sv = PermGroup(g.degree, g.gens)
        assert sv.order() == f.order()
        assert sv.base() == f.base()
        kinds |= {lv.trans is None for lv in sv._chain()}
        members = [random_word(g, rng) for _ in range(12)]
        others = [Permutation(rng.permutation(g.degree)) for _ in range(12)]
        assert all(sv.contains(m) for m in members)
        for x in others:
            assert sv.contains(x) == f.contains(x)
        if g.degree == 27:
            for h in subs:
                assert groups.subgroup_key(sv, h) == groups.subgroup_key(f, h)
    assert kinds == {True, False}


def test_gu513_chain_makes_few_permutations(monkeypatch):
    group = _gu513_regular()
    calls = 0
    real = Permutation.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting)
    assert math.prod(lv.orbit_size() for lv in group._chain()) == 4617
    # the chain works on blocks of image arrays; only the strong
    # generators become Permutation objects
    assert calls <= 64


PEAK_RSS_SCRIPT = """
from gquad.constructions import build_gu513


def status(field):
    # VmHWM is the peak of this process's own memory map; ru_maxrss would
    # also count the parent it was forked from
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024


group, _ = build_gu513()
before = status("VmRSS")
# order() needs no chain for a regular group; build it to measure it
levels = group._chain()
print(status("VmHWM"), before, sum(lv.trans.nbytes for lv in levels))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_gu513_chain_peak_rss():
    import gquad
    src = os.path.dirname(os.path.dirname(gquad.__file__))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    peak, before, trans = map(int, done.stdout.split())
    mib = 1 << 20
    # the former re-close loop peaked at 103.5 MiB in this script (Linux
    # x86-64, numpy 2.4), 0.6 MiB above its RSS before the chain and the
    # transversal it keeps; a full inverse transversal would add 40 MiB
    assert peak <= 103.5 * mib
    assert peak - before <= trans + mib


# -- regularity -------------------------------------------------------------

def test_regular_actions():
    c6 = PermGroup(6, [cyc(6, range(6))])
    assert is_regular(c6, range(6))
    assert is_semiregular(c6, range(6))
    v4 = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    assert is_regular(v4, range(4))
    assert not is_regular(sym(4), range(4))  # transitive but too big
    assert not is_semiregular(sym(4), range(4))


def test_semiregular_not_transitive():
    g = PermGroup(9, [cyc(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))])
    assert is_semiregular(g, range(9))
    assert not is_regular(g, range(9))
    assert is_regular(g, [0, 3, 6])


def test_regular_with_supplied_order():
    c6 = PermGroup(6, [cyc(6, range(6))])
    assert is_regular(c6, range(6), order=6)
    assert not is_regular(c6, range(6), order=12)


def test_regular_invariance_check():
    g = PermGroup(3, [cyc(3, (0, 1))])
    with pytest.raises(NotInvariantError):
        is_regular(g, [0, 2])
    with pytest.raises(ValueError):
        is_regular(g, [])


def chain_order(group):
    """The oracle for the centraliser certificate: the product of the
    orbit sizes of a freshly built stabiliser chain."""
    fresh = PermGroup(group.degree, group.gens)
    return math.prod(lv.orbit_size() for lv in fresh._chain())


def certify(group, monkeypatch=None):
    """The certificate's verdict on a fresh copy of group, and how many
    centralising elements it found on the way (when monkeypatch is
    given: each one found grows the orbit through one _close call)."""
    import gquad.groups as groups
    found = 0
    if monkeypatch is not None:
        real = groups._close

        def counting(*args):
            nonlocal found
            found += 1
            real(*args)

        monkeypatch.setattr(groups, "_close", counting)
    verdict = groups._regular_by_centraliser(
        group.degree, [g.arr for g in group.gens])
    if monkeypatch is not None:
        monkeypatch.undo()
    return verdict, found


def assert_certificate_matches_chain(group):
    want = chain_order(group)
    regular = want == group.degree and group.is_transitive()
    assert certify(group)[0] == regular
    assert PermGroup(group.degree, group.gens).order() == want


def _c3_by_s3():
    """C3 x S3 in its product action on Z3 x {0, 1, 2}, point (a, b) as
    a + 3b, from two fixed-point-free generators: (a, b) -> (a + 1, b^t)
    with t = (0 1), and (a, b) -> (a, b + 1).  Its centraliser is the C3
    shifting a, so the trial for y = 1 succeeds and the one for y = 3
    fails."""
    a, b = np.divmod(np.arange(9), 3)[::-1]
    swap = np.array([1, 0, 2])
    return PermGroup(9, [Permutation((a + 1) % 3 + 3 * swap[b]),
                         Permutation(a + 3 * ((b + 1) % 3))])


def test_certificate_steps(monkeypatch):
    c6 = PermGroup(6, [cyc(6, range(6))])
    v4 = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    d4 = PermGroup(4, [cyc(4, range(4)), cyc(4, (0, 1), (2, 3))])
    c3 = PermGroup(9, [cyc(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))])
    c3s3 = _c3_by_s3()
    mp = monkeypatch
    # C6 needs one centralising element (c(0) = 1), V4 two
    assert certify(c6, mp) == (True, 1)
    assert certify(v4, mp) == (True, 2)
    # S4: a generator fixes a point, so no trial is made
    assert certify(sym(4), mp) == (False, 0)
    # D4 on the square: transitive and fixed-point free, and the first
    # trial fails
    assert d4.is_transitive() and d4.order() == 8
    assert not any((g.arr == np.arange(4)).any() for g in d4.gens)
    assert certify(d4, mp) == (False, 0)
    # C3 on 9 points: semiregular, but the tree does not reach every point
    assert certify(c3, mp) == (False, 0)
    assert c3s3.is_transitive() and c3s3.order() == 18
    assert not any((g.arr == np.arange(9)).any() for g in c3s3.gens)
    assert certify(c3s3, mp) == (False, 1)
    # the same group with a generator fixing (a, 2): no trial is made,
    # where one would succeed
    fixing = PermGroup(9, [c3s3.gens[0] ** 4, c3s3.gens[0] ** 3,
                           c3s3.gens[1]])
    assert fixing.order() == 18
    assert certify(fixing, mp) == (False, 0)
    # order 6 on 6 points, but not transitive
    c2c3 = PermGroup(6, [cyc(6, (0, 3), (2, 5, 4))])
    assert certify(c2c3, mp) == (False, 0)
    # no generators: regular on one point only
    assert certify(PermGroup(1), mp) == (True, 0)
    assert certify(PermGroup(5), mp) == (False, 0)
    for g in (c6, v4, sym(4), d4, c3, c3s3, fixing, c2c3, PermGroup(1),
              PermGroup(5)):
        assert_certificate_matches_chain(g)


def _census_groups(q):
    """E, P, S and T on the derived quadrangle at q, its ambient for the
    census, and every class representative of the census."""
    from gquad.constructions import (action_from_linear, ambient_stabiliser,
                                     elation_gens, shear_gens, split_gens,
                                     unipotent_gens)
    from gquad.incidence import aut_incidence
    from gquad.search import enumerate_regular
    model = build_derived_model(GF.default(q))
    k, gq = model.field, model.gq
    acts = [action_from_linear(k, gens(k), gq)
            for gens in (elation_gens, shear_gens, split_gens,
                         unipotent_gens)]
    ambient = (aut_incidence(gq) if q == 3
               else ambient_stabiliser(k, gq))
    table = enumerate_regular(gq, ambient, sylow=acts[3])
    assert table.complete
    return acts + [ambient] + [c.rep for c in table.classes]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_certificate_matches_chain_on_census(q):
    groups = _census_groups(q)
    assert sum(chain_order(g) == g.degree and g.is_transitive()
               for g in groups) >= 4
    for g in groups:
        assert_certificate_matches_chain(g)


@pytest.mark.parametrize("q", [3, 4])
def test_certificate_matches_chain_on_subgroups_of_aut(q):
    aut = _aut_of_derived(q)
    rng = np.random.default_rng(q)
    for _ in range(12):
        assert_certificate_matches_chain(PermGroup(
            aut.degree, [random_word(aut, rng, 3) for _ in range(2)]))


def test_gu513_order_builds_no_chain():
    group = _gu513_regular()
    assert group.order() == 4617
    assert group._levels is None
    assert is_regular(group, range(4617))
    assert group._levels is None


# -- abstract groups and invariants -----------------------------------------

def heisenberg3():
    k = GF.default(3)
    x = Mat.from_rows(k, [(1, 1, 0), (0, 1, 0), (0, 0, 1)])
    y = Mat.from_rows(k, [(1, 0, 0), (0, 1, 1), (0, 0, 1)])
    return FiniteGroup(Mat.identity(k, 3), [x, y])


def order27_exp9():
    # C9 : C3 with the C3 acting as x -> 4x on Z/9
    a = Permutation([(x + 1) % 9 for x in range(9)])
    b = Permutation([(4 * x) % 9 for x in range(9)])
    return FiniteGroup(Permutation.identity(9), [a, b])


def test_finite_group_closure_matrix():
    k = GF.default(2)
    # GL(2,2) is symmetric of degree 3
    a = Mat.from_rows(k, [(0, 1), (1, 0)])
    b = Mat.from_rows(k, [(1, 1), (0, 1)])
    g = FiniteGroup(Mat.identity(k, 2), [a, b])
    assert g.order == 6
    assert not g.is_abelian()
    assert g.exponent() == 6
    assert len(g.centre()) == 1


def test_finite_group_limit(monkeypatch):
    import gquad.groups as groups
    monkeypatch.setattr(groups, "_FINITE_GROUP_LIMIT", 100)
    with pytest.raises(TooLargeError):
        FiniteGroup(Permutation.identity(8), sym(8).gens)


def test_invariant_report_s3():
    rep = invariant_report(sym(3))
    assert rep["order"] == 6
    assert rep["exponent"] == 6
    assert rep["centre_order"] == 1
    assert rep["derived_order"] == 3
    assert rep["lower_central_orders"] == [6, 3]
    assert rep["nilpotency_class"] == "not nilpotent"
    assert rep["frattini_order"] == 1
    assert not rep["is_abelian"]
    assert not rep["is_special"]
    assert rep["conjugacy_class_sizes"] == [1, 2, 3]
    assert rep["element_order_histogram"] == [[1, 1], [2, 3], [3, 2]]


def test_invariant_report_dihedral8():
    d8 = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    rep = invariant_report(d8)
    assert rep["order"] == 8
    assert rep["exponent"] == 4
    assert rep["centre_order"] == 2
    assert rep["derived_order"] == 2
    assert rep["frattini_order"] == 2
    assert rep["nilpotency_class"] == 2
    assert rep["is_special"] and rep["is_extraspecial"]
    assert rep["conjugacy_class_sizes"] == [1, 1, 2, 2, 2]


def test_invariant_report_abelian():
    c6 = PermGroup(6, [cyc(6, range(6))])
    rep = invariant_report(c6)
    assert rep["is_abelian"]
    assert rep["nilpotency_class"] == 1
    assert rep["lower_central_orders"] == [6, 1]
    assert rep["frattini_order"] == 1  # squarefree order
    assert not rep["is_special"]
    v4 = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    rep4 = invariant_report(v4)
    assert rep4["centre_order"] == 4 and not rep4["is_special"]


def test_invariant_report_heisenberg():
    rep = invariant_report(heisenberg3())
    assert rep["order"] == 27
    assert rep["exponent"] == 3
    assert rep["is_extraspecial"]
    assert rep["nilpotency_class"] == 2
    assert rep["element_order_histogram"] == [[1, 1], [3, 26]]
    rep9 = invariant_report(order27_exp9())
    assert rep9["order"] == 27 and rep9["exponent"] == 9
    assert rep9["is_extraspecial"]
    assert rep["fingerprint"] != rep9["fingerprint"]


def test_fingerprint_stable_under_generator_choice():
    d8a = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    d8b = PermGroup(4, [Permutation([0, 3, 2, 1]),
                        cyc(4, (1, 3)) * cyc(4, range(4))])
    ra, rb = invariant_report(d8a), invariant_report(d8b)
    assert d8b.order() == 8
    assert ra["fingerprint"] == rb["fingerprint"]
    blob = report_json(ra)
    assert blob.endswith("\n")
    import json
    assert json.loads(blob) == ra


def test_frattini_against_lattice():
    # p-group fast path vs explicit maximal-subgroup intersection
    cases = [
        PermGroup(8, [cyc(8, range(8))]),                       # C8
        PermGroup(6, [cyc(6, (0, 1, 2, 3)), cyc(6, (4, 5))]),   # C4 x C2
        PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])]),
        PermGroup(9, [cyc(9, (0, 1, 2), (3, 4, 5), (6, 7, 8)),
                      cyc(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))]),  # C3 x C3
    ]
    for grp in cases:
        g = FiniteGroup.from_permgroup(grp)
        fast = set(g.frattini())
        inter = set(g.elements)
        for m in maximal_subgroups_oracle(g):
            inter &= m
        assert fast == inter


def test_element_orders_exponent():
    g = FiniteGroup.from_permgroup(sym(4))
    assert g.exponent() == 12
    assert g.element_order(cyc(4, range(4))) == 4
    hist = {}
    for o in g.element_orders():
        hist[o] = hist.get(o, 0) + 1
    assert hist == {1: 1, 2: 9, 3: 8, 4: 6}


# -- the closure contract ----------------------------------------------------

def closure_oracle(identity, gens) -> list:
    """The former breadth-first closure loop: the oracle for element_closure."""
    out = [identity]
    index = {identity}
    i = 0
    while i < len(out):
        for g in gens:
            h = out[i] * g
            if h not in index:
                index.add(h)
                out.append(h)
        i += 1
    return out


class CountingClock:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def _model_groups(q):
    from gquad.constructions import (action_from_linear, build_derived_model,
                                     elation_gens, shear_gens, unipotent_gens)
    model = build_derived_model(GF.default(q))
    return [action_from_linear(model.field, gens(model.field), model.gq)
            for gens in (elation_gens, shear_gens, unipotent_gens)]


def test_closure_order_matches_oracle_for_permutation_groups():
    groups = [sym(4)] + _model_groups(2) + _model_groups(3)
    for g in groups:
        expected = closure_oracle(Permutation.identity(g.degree), g.gens)
        assert g.elements() == expected
        assert FiniteGroup.from_permgroup(g).elements == expected
        # a fresh group, closed through FiniteGroup first
        fresh = PermGroup(g.degree, g.gens)
        assert FiniteGroup.from_permgroup(fresh).elements == expected


def test_closure_order_matches_oracle_for_matrix_groups():
    from gquad.constructions import elation_group, shear_group
    for q in (4, 9):
        for build in (elation_group, shear_group):
            g = build(GF.default(q))
            assert g.order == q ** 3
            assert g.elements == closure_oracle(g.identity, g.gens)
            assert all(g.index[e] == i for i, e in enumerate(g.elements))


def right_oracle(g: FiniteGroup) -> np.ndarray:
    """The former R fill: index[e * s] for every element and generator."""
    return np.array([[g.index[e * s] for s in g.gens] for e in g.elements],
                    dtype=np.intp).reshape(g.order, len(g.gens))


def test_closure_fills_right_table_as_oracle():
    from gquad.constructions import elation_group, shear_group, split_group
    for q in (4, 9):
        for build in (elation_group, shear_group, split_group):
            g = build(GF.default(q))
            assert g.elements == closure_oracle(g.identity, g.gens)
            assert (g._right == right_oracle(g)).all()
    # order 15625: each 4x4 code over GF(25) takes two int64 words
    e25 = elation_group(GF.default(25))
    assert e25.order == 25 ** 3
    assert (e25._right == right_oracle(e25)).all()
    for h in _model_groups(2) + _model_groups(3):
        g = FiniteGroup.from_permgroup(h)
        assert (g._right == right_oracle(g)).all()


def test_closure_and_tables_make_no_products(monkeypatch):
    from gquad.constructions import elation_gens
    k = GF.default(3)
    gens = elation_gens(k)
    perm_groups = [PermGroup(h.degree, h.gens) for h in _model_groups(3)]
    calls = []
    for cls in (Mat, Permutation):
        real = cls.__mul__

        def counted(a, b, real=real):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
    e = FiniteGroup(Mat.identity(k, 4), gens)
    # reading the conjugation table builds every index table
    assert e._conj.shape == (27, len(gens))
    assert e.order == 27
    for h in perm_groups:
        h.elements()
        t = FiniteGroup.from_permgroup(h)
        assert t._conj.shape == (t.order, len(t.gens))
    assert calls == []
    import gquad.groups as groups
    monkeypatch.setattr(groups, "_FINITE_GROUP_LIMIT", 26)
    with pytest.raises(TooLargeError):
        FiniteGroup(Mat.identity(k, 4), gens)
    monkeypatch.setattr(groups, "_FINITE_GROUP_LIMIT", 27)
    assert FiniteGroup(Mat.identity(k, 4), gens).order == 27


def test_inverse_and_conjugation_tables_are_built_on_first_read():
    from gquad.constructions import elation_group
    g = elation_group(GF.default(3))
    n = g.order
    prods = g.mul(np.arange(n)[:, None], np.arange(n)[None, :])
    g.power(np.arange(n), 3)
    # multiplying and powering need only the closure-tree words
    assert "_words" in vars(g)
    assert "_inv" not in vars(g) and "_conj" not in vars(g)
    inv = [g.inverse_index(i) for i in range(n)]
    assert "_conj" not in vars(g)
    assert all(prods[i, inv[i]] == 0 for i in range(n))
    assert len(g.centre()) == 3
    assert "_conj" in vars(g)


def test_maximal_masks_drop_their_right_products():
    g = heisenberg3()
    assert len(list(g._maximal_masks())) == 4
    assert g._rmul == {}
    walk = g._maximal_masks()
    next(walk)
    assert g._rmul
    walk.close()
    assert g._rmul == {}


def test_lazy_closure_prefix_and_clock():
    # the Sylow climb stops at the first useful element: it sees a prefix
    # of the oracle order, and the clock counts only the new elements
    s7 = sym(7)
    oracle = closure_oracle(Permutation.identity(7), s7.gens)
    clock = CountingClock()
    walk = element_closure(Permutation.identity(7), s7.gens, clock=clock)
    prefix = [e for _, e in zip(range(100), walk)]
    assert prefix == oracle[:100]
    assert clock.ticks == 99
    # and it is lazy: ten elements of S12 cost ten elements, not 12!
    s12 = sym(12)
    clock = CountingClock()
    walk = element_closure(Permutation.identity(12), s12.gens, clock=clock)
    assert len([e for _, e in zip(range(10), walk)]) == 10
    assert clock.ticks == 9


def test_subgroup_closure_matches_oracle_as_a_set():
    h = FiniteGroup.from_permgroup(_model_groups(3)[2])
    ident = h.identity
    seeds = [[], [ident], h.elements[5:8], h.elements[7:4:-1] + [ident],
             h.derived_subgroup(), [h.elements[3]] * 3,
             h.elements[40:45]]
    for seed in seeds:
        got = h.subgroup_closure(seed)
        assert len(got) == len(set(got))
        assert set(got) == set(closure_oracle(ident, seed))


def test_closure_limits_raise(monkeypatch):
    import gquad.groups as groups
    s5 = sym(5)
    ident = Permutation.identity(5)
    assert len(list(element_closure(ident, s5.gens, limit=120))) == 120
    with pytest.raises(TooLargeError):
        list(element_closure(ident, s5.gens, limit=119))
    monkeypatch.setattr(groups, "_FINITE_GROUP_LIMIT", 119)
    with pytest.raises(TooLargeError):
        FiniteGroup(ident, s5.gens)
    small = PermGroup(5, s5.gens)
    with pytest.raises(TooLargeError):
        small.elements()
    with pytest.raises(TooLargeError):
        FiniteGroup.from_permgroup(small)


def test_from_permgroup_does_not_close_again(monkeypatch):
    import gquad.groups as groups
    calls = []
    real = groups.element_closure

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "element_closure", counted)
    g = _model_groups(2)[0]

    def whole_group_closures():
        # invariant_report closes subgroups too; count closures of g
        return sum(1 for _, gens in calls if tuple(gens) == g.gens)

    elements = g.elements()
    assert whole_group_closures() == 1
    a = FiniteGroup.from_permgroup(g)
    b = FiniteGroup.from_permgroup(g)
    invariant_report(g)
    assert whole_group_closures() == 1
    # one table per group, holding the closure's own rows
    assert a is b
    assert a.elements is elements and b.elements is elements
    assert (a.rows == np.stack([e.arr for e in elements])).all()
    assert a.gens == g.gens and a.identity == Permutation.identity(g.degree)


# -- the index kernel against the former object-product loops ---------------

def pow_oracle(g: FiniteGroup, e, n: int):
    """The former FiniteGroup._pow: square-and-multiply on elements."""
    out = g.identity
    base = e
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def element_orders_oracle(g: FiniteGroup) -> list[int]:
    out = []
    for e in g.elements:
        o = g.order
        for r in sorted(set(_factorise(o))):
            while o % r == 0 and pow_oracle(g, e, o // r) == g.identity:
                o //= r
        out.append(o)
    return out


def centre_oracle(g: FiniteGroup) -> list:
    return [e for e in g.elements if all(e * x == x * e for x in g.gens)]


def normal_closure_oracle(g: FiniteGroup, seed) -> list:
    current = closure_oracle(g.identity, list(dict.fromkeys(seed)))
    while True:
        current_set = set(current)
        new = []
        for x in g.gens:
            xi = x.inverse()
            for e in current:
                c = xi * e * x
                if c not in current_set:
                    new.append(c)
                    current_set.add(c)
        if not new:
            return current
        current = closure_oracle(g.identity, list(current_set))


def commutator_sets_oracle(g: FiniteGroup, a_elems) -> list:
    comms = set()
    for a in a_elems:
        for x in g.gens:
            comms.add(a.inverse() * x.inverse() * a * x)
    return normal_closure_oracle(g, comms)


def derived_oracle(g: FiniteGroup) -> list:
    return commutator_sets_oracle(g, g.gens)


def lower_central_oracle(g: FiniteGroup) -> list[int]:
    if g.order == 1:
        return [1]
    out = [g.order]
    current = derived_oracle(g)
    out.append(len(current))
    while len(current) > 1:
        nxt = commutator_sets_oracle(g, current)
        if len(nxt) == len(current):
            break
        out.append(len(nxt))
        current = nxt
    return out


def power_subgroup_oracle(g: FiniteGroup, p: int) -> list:
    return closure_oracle(g.identity,
                          list(dict.fromkeys(pow_oracle(g, e, p)
                                             for e in g.elements)))


def maximal_subgroups_oracle(g: FiniteGroup) -> list[frozenset]:
    """The former upward closure of the subgroup lattice over elements.

    Products come from a Cayley table made by multiplying every pair of
    elements.  A subgroup is grown by one element of each of its cosets,
    since all elements of a coset e*sub give the same group.
    """
    els = list(g.elements)
    pos = {e: i for i, e in enumerate(els)}
    table = [[pos[a * b] for b in els] for a in els]
    one = pos[g.identity]

    def close(gens):
        out, todo = {one}, [one]
        while todo:
            x = todo.pop()
            for k in gens:
                h = table[x][k]
                if h not in out:
                    out.add(h)
                    todo.append(h)
        return frozenset(out)

    bottom = frozenset([one])
    seen, frontier, proper = {bottom}, [(bottom, [])], set()
    everything = frozenset(range(len(els)))
    while frontier:
        nxt = []
        for sub, gens in frontier:
            done = set(sub)
            for e in range(len(els)):
                if e in done:
                    continue
                done.update(table[e][s] for s in sub)
                bigger = close(gens + [e])
                if bigger not in seen:
                    seen.add(bigger)
                    if bigger != everything:
                        nxt.append((bigger, gens + [e]))
        proper.update(x for x, _ in frontier if x != everything)
        frontier = nxt
    return [frozenset(els[i] for i in x) for x in proper
            if not any(x < y for y in proper)]


def frattini_oracle(g: FiniteGroup, derived, lattice_bound=1024):
    pk = g.is_pgroup()
    if pk is not None:
        seed = set(derived) | set(power_subgroup_oracle(g, pk[0]))
        return closure_oracle(g.identity, list(seed))
    if g.order > lattice_bound:
        return None
    inter = set(g.elements)
    for m in maximal_subgroups_oracle(g):
        inter &= m
    return list(inter)


def conjugacy_classes_oracle(g: FiniteGroup) -> list[list[int]]:
    assigned = [False] * g.order
    classes = []
    for i in range(g.order):
        if assigned[i]:
            continue
        orbit, todo = {i}, [i]
        assigned[i] = True
        while todo:
            e = g.elements[todo.pop()]
            for x in g.gens:
                k = g.index[x.inverse() * e * x]
                if not assigned[k]:
                    assigned[k] = True
                    orbit.add(k)
                    todo.append(k)
        classes.append(sorted(orbit))
    return classes


def invariant_report_oracle(g: FiniteGroup, orders, classes, centre,
                            derived, lcs, frattini) -> dict:
    """The former invariant_report body over object-product results."""
    histogram = {}
    for o in orders:
        histogram[o] = histogram.get(o, 0) + 1
    pk = g.is_pgroup()
    special = (pk is not None and frattini is not None
               and set(centre) == set(derived) == set(frattini))
    report = {
        "order": g.order,
        "exponent": math.lcm(*set(orders)),
        "centre_order": len(centre),
        "derived_order": len(derived),
        "lower_central_orders": lcs,
        "frattini_order": None if frattini is None else len(frattini),
        "nilpotency_class": (len(lcs) - 1 if lcs[-1] == 1
                             else "not nilpotent"),
        "is_abelian": all(a * b == b * a for a in g.gens for b in g.gens),
        "is_special": special,
        "is_extraspecial": special and len(centre) == pk[0],
        "conjugacy_class_sizes": sorted(len(c) for c in classes),
        "element_order_histogram": sorted([o, c]
                                          for o, c in histogram.items()),
    }
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["fingerprint"] = hashlib.sha256(payload.encode()).hexdigest()
    return report


def assert_matches_oracles(g: FiniteGroup):
    """Every index-table invariant of a fresh group against its oracle:
    exact lists for orders and classes, sets for subgroups."""
    orders = element_orders_oracle(g)
    classes = conjugacy_classes_oracle(g)
    centre = centre_oracle(g)
    derived = derived_oracle(g)
    lcs = lower_central_oracle(g)
    frattini = frattini_oracle(g, derived)
    assert g.element_orders() == orders
    assert g.conjugacy_classes() == classes
    assert set(g.centre()) == set(centre)
    assert set(g.derived_subgroup()) == set(derived)
    assert g.lower_central_orders() == lcs
    assert set(g.frattini()) == set(frattini)
    for p in _factorise(g.order):
        assert set(g.power_subgroup(p)) == \
            set(power_subgroup_oracle(g, p))
    some = g.elements[1::max(1, g.order // 5)]
    assert set(g.normal_closure(some[:1])) == \
        set(normal_closure_oracle(g, some[:1]))
    assert set(g.commutator_subgroup_sets(centre + some)) == \
        set(commutator_sets_oracle(g, centre + some))
    for seed in ([], some[:2], some[1:4], derived[:3] + some[-1:]):
        assert set(g.subgroup_closure(seed)) == \
            set(closure_oracle(g.identity, seed))
    assert invariant_report(g) == invariant_report_oracle(
        g, orders, classes, centre, derived, lcs, frattini)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matrix_groups_match_oracles(q):
    from gquad.constructions import elation_group, shear_group, split_group
    k = GF.default(q)
    builds = [elation_group, shear_group] + ([split_group] if k.f > 1
                                             else [])
    for build in builds:
        assert_matches_oracles(build(k))


def sorted_indices(g):
    return lambda sub: sorted(g.index[e] for e in sub)


def test_small_groups_match_oracles():
    # S4, S3 and GL(2,2) are not p-groups: their Frattini subgroup comes
    # from the lattice of maximal subgroups
    k = GF.default(2)
    gl22 = FiniteGroup(Mat.identity(k, 2),
                       [Mat.from_rows(k, [(0, 1), (1, 0)]),
                        Mat.from_rows(k, [(1, 1), (0, 1)])])
    d8 = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    groups = [FiniteGroup.from_permgroup(g) for g in
              (sym(4), sym(3), PermGroup(6, [cyc(6, range(6))]), d8,
               PermGroup(1, []))]
    groups += [gl22, heisenberg3(), order27_exp9()]
    for g in groups:
        assert_matches_oracles(g)
    # the maximal subgroups, as sets of elements: the lattice route for
    # the first three, the hyperplane route for D8
    for g in groups[:3]:
        got = sorted(np.flatnonzero(m).tolist()
                     for m in g._lattice_maximal_masks())
        assert got == sorted(map(sorted_indices(g),
                                 maximal_subgroups_oracle(g)))
        with pytest.raises(ValueError):
            next(g._maximal_masks())
    d8 = groups[3]
    assert maximal_masks_as_sets(d8) == \
        sorted(map(sorted_indices(d8), maximal_subgroups_oracle(d8)))


def maximal_masks_as_sets(g):
    """``_maximal_masks`` as sorted index lists, each mask checked
    against the span of its generators."""
    out = []
    for mask, gens in g._maximal_masks():
        assert (g.span((), gens)[0] == mask).all()
        out.append(np.flatnonzero(mask).tolist())
    return sorted(out)


def test_hyperplane_maximal_masks_match_lattice_oracle():
    # the p-group route: Frattini-quotient hyperplane preimages, against
    # the upward closure of the subgroup lattice over elements.  E over
    # GF(4) is elementary abelian of order 64: 63 hyperplanes, and 2825
    # subgroups in the lattice
    from gquad.constructions import elation_group
    d8 = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    for g in (FiniteGroup.from_permgroup(d8), heisenberg3(), order27_exp9(),
              elation_group(GF.default(4))):
        p = g.is_pgroup()[0]
        got = maximal_masks_as_sets(g)
        assert all(len(m) * p == g.order for m in got)
        assert got == sorted(map(sorted_indices(g),
                                 maximal_subgroups_oracle(g)))


@pytest.mark.parametrize("q", [2, 3])
def test_descent_groups_match_oracles(q):
    # the regular subgroups the Sylow descent finds, and the Sylow
    # subgroup it starts from
    import gquad.search as search
    from gquad.constructions import ambient_stabiliser
    model = build_derived_model(GF.default(q))
    t = _model_groups(q)[2]
    amb = ambient_stabiliser(model.field, model.gq)
    leaves = [m for _, m in search._descend(t, q ** 3, search._Clock(None),
                                            amb)]
    assert leaves
    for h in leaves + [t]:
        assert_matches_oracles(FiniteGroup.from_permgroup(h))


def test_index_products_match_element_products():
    rng = np.random.default_rng(7)
    for g in (FiniteGroup.from_permgroup(sym(7)), heisenberg3()):
        x = rng.integers(0, g.order, 300)
        y = rng.integers(0, g.order, 300)
        want = [g.index[g.elements[a] * g.elements[b]] for a, b in zip(x, y)]
        assert g.mul(x, y).tolist() == want
        assert g.mul(x[0], y).tolist() == [g.index[g.elements[x[0]]
                                                   * g.elements[b]]
                                           for b in y]
        assert g.power(x, 5).tolist() == \
            [g.index[pow_oracle(g, g.elements[a], 5)] for a in x]
        assert all(g.elements[g.inverse_index(a)] == g.elements[a].inverse()
                   for a in x)
    s7 = FiniteGroup.from_permgroup(sym(7))
    assert s7.element_orders() == [e.order() for e in s7.elements]


def test_span_keeps_a_greedy_generating_set():
    h = FiniteGroup.from_permgroup(_model_groups(3)[2])
    seeds = list(range(5, 60, 3))
    mask, kept = h.span(seeds)
    assert set(np.flatnonzero(mask)) == \
        {h.index[e] for e in closure_oracle(h.identity,
                                            [h.elements[i] for i in seeds])}
    for j, s in enumerate(kept):
        # each kept seed lies outside the span of those before it
        before = closure_oracle(h.identity, [h.elements[i] for i in kept[:j]])
        assert h.elements[s] not in before
    mask2, kept2 = h.span(range(h.order), kept)
    assert mask2.all() and kept2[:len(kept)] == kept


def test_invariants_make_no_second_pass(monkeypatch):
    # the closure fills the right-multiplication table, so a matrix
    # group's invariants multiply no elements at all
    from gquad.constructions import elation_group, shear_group
    k = GF.default(5)
    e, p = elation_group(k), shear_group(k)
    calls = []
    real = Mat.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(Mat, "__mul__", counted)
    for g in (e, p):
        invariant_report(g)
        assert calls == []
    assert invariant_report(e) == invariant_report(e)
    invariant_report(p)
    assert is_isomorphic_small(e, p) is not None  # E ~ P when p > 3
    assert calls == []


# -- normality and conjugacy -------------------------------------------------

def test_is_normal():
    s4 = sym(4)
    assert is_normal(s4, alt(4))
    v4 = PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    assert is_normal(s4, v4)
    syl = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    assert not is_normal(s4, syl)
    with pytest.raises(ValueError):
        is_normal(alt(4), PermGroup(4, [cyc(4, (0, 1))]))


def is_normal_oracle(ambient, sub):
    """The former normality test: one ``contains`` call per element."""
    for s in sub.gens:
        if not ambient.contains(s):
            raise ValueError("subgroup generator outside ambient group")
    for g in ambient.gens:
        gi = g.inverse()
        for s in sub.gens:
            if not sub.contains(gi * s * g):
                return False
    return True


def _same_normality(ambient, sub):
    try:
        want = is_normal_oracle(ambient, sub)
    except ValueError:
        with pytest.raises(ValueError):
            is_normal(ambient, sub)
        return None
    assert is_normal(ambient, sub) is want
    return want


@pytest.mark.parametrize("q", [4, 5, 7])
def test_is_normal_matches_per_element_oracle(q):
    aut = _aut_of_derived(q)
    e, p, t = _model_groups(q)
    # the E/P normality contrast in the full automorphism group
    assert _same_normality(aut, e) is True
    assert _same_normality(aut, p) is False
    assert _same_normality(aut, t) is False
    assert _same_normality(t, e) is True
    # P is not inside E: the membership check raises on both routes
    assert _same_normality(e, p) is None
    assert _same_normality(aut, PermGroup(aut.degree)) is True


def test_is_normal_matches_oracle_on_small_groups():
    s4 = sym(4)
    syl = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    assert _same_normality(s4, syl) is False
    assert _same_normality(s4, alt(4)) is True
    assert _same_normality(alt(4), PermGroup(4, [cyc(4, (0, 1))])) is None
    assert _same_normality(s4, PermGroup(5, [cyc(5, (0, 1))])) is None
    assert _same_normality(PermGroup(4), PermGroup(4)) is True


def test_conjugate_subgroups():
    s4 = sym(4)
    h1 = PermGroup(4, [cyc(4, (0, 1))])
    h2 = PermGroup(4, [cyc(4, (2, 3))])
    w = is_conjugate_subgroup(s4, h1, h2)
    assert isinstance(w, Permutation)
    wi = w.inverse()
    for s in h1.elements():
        assert h2.contains(wi * s * w)
    # transposition vs double transposition: same order, not conjugate
    h3 = PermGroup(4, [cyc(4, (0, 1), (2, 3))])
    assert is_conjugate_subgroup(s4, h1, h3) is None
    # order mismatch short-circuits
    assert is_conjugate_subgroup(s4, h1, alt(4)) is None


def test_conjugate_subgroup_identity_and_budget():
    s4 = sym(4)
    h = PermGroup(4, [cyc(4, (0, 1, 2))])
    w = is_conjugate_subgroup(s4, h, h)
    assert w.is_identity()
    h2 = PermGroup(4, [cyc(4, (1, 2, 3))])
    out = is_conjugate_subgroup(s4, h, h2, budget=0)
    assert out is UNKNOWN
    assert not out
    assert is_conjugate_subgroup(s4, h, h2) is not None


def test_conjugate_sylow():
    s4 = sym(4)
    syl1 = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    syl2 = PermGroup(4, [cyc(4, (0, 1, 3, 2)), Permutation([0, 2, 1, 3])])
    assert syl1.order() == syl2.order() == 8
    w = is_conjugate_subgroup(s4, syl1, syl2)
    assert isinstance(w, Permutation)


# -- isomorphism -------------------------------------------------------------

def test_isomorphic_dihedral_presentations():
    d8a = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    # regular representation: elements e,r,r2,r3,s,rs,r2s,r3s
    d8b = PermGroup(8, [Permutation([1, 2, 3, 0, 7, 4, 5, 6]),
                        Permutation([4, 5, 6, 7, 0, 1, 2, 3])])
    assert d8b.order() == 8
    phi = is_isomorphic_small(d8a, d8b)
    assert phi is not None
    ga = FiniteGroup.from_permgroup(d8a)
    for x in ga:
        for y in ga:
            assert phi[x * y] == phi[x] * phi[y]
    assert len(set(map(hash, phi.values()))) == 8


def test_not_isomorphic():
    d8 = PermGroup(4, [cyc(4, range(4)), Permutation([0, 3, 2, 1])])
    # right multiplication by i and j on 1,-1,i,-i,j,-j,k,-k
    q8 = PermGroup(8, [Permutation([2, 3, 1, 0, 7, 6, 4, 5]),
                       Permutation([4, 5, 6, 7, 1, 0, 3, 2])])
    assert q8.order() == 8
    rep = invariant_report(q8)
    assert rep["element_order_histogram"] == [[1, 1], [2, 1], [4, 6]]
    assert is_isomorphic_small(d8, q8) is None
    c8 = PermGroup(8, [cyc(8, range(8))])
    assert is_isomorphic_small(d8, c8) is None
    c4c2 = PermGroup(6, [cyc(6, (0, 1, 2, 3)), cyc(6, (4, 5))])
    c2c2c2 = PermGroup(6, [cyc(6, (0, 1)), cyc(6, (2, 3)), cyc(6, (4, 5))])
    assert is_isomorphic_small(c4c2, c2c2c2) is None


def test_isomorphic_extraspecial27():
    assert is_isomorphic_small(heisenberg3(), order27_exp9()) is None
    phi = is_isomorphic_small(heisenberg3(), heisenberg3())
    assert phi is not None


def test_isomorphism_order_guard():
    with pytest.raises(TooLargeError):
        is_isomorphic_small(sym(7), sym(7), max_order=100)
    assert is_isomorphic_small(sym(3), sym(4)) is None


# -- file format -------------------------------------------------------------

def test_group_file_roundtrip(tmp_path):
    g = sym(5)
    path = tmp_path / "s5.grp"
    save_group(path, g)
    text = path.read_text()
    assert text.startswith("GRP 5 2\n")
    assert text.endswith("\n")
    back = load_group(path)
    assert back.degree == 5
    assert back.gens == g.gens
    assert back.order() == 120


def test_group_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("GQX 3 1\n0 1 2\n")
    with pytest.raises(ValueError):
        load_group(path)
    path.write_text("GRP 3 1\n0 1\n")
    with pytest.raises(ValueError):
        load_group(path)


@pytest.mark.parametrize("text, line", [
    ("GRP 3 2\n1 2 0\n", 3),                  # truncated
    ("GRP 3 1\n1 2 0\n0 2 1\n", 3),          # trailing row
    ("GRP 3 2\n1 2 0\n0 1\n", 3),            # wrong arity
    ("GRP 3 2\n1 2 0\n\n0 2 1\n", 3),        # blank row inside
    ("GRP 3 1\n1 2 x\n", 2),                  # not an integer
    ("GRP 3 1\n1 1 0\n", 2),                  # not a permutation
    ("GRP 3\n1 2 0\n", 1),                    # short header
])
def test_group_file_errors_name_the_line(tmp_path, text, line):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}:"):
        load_group(path)


def test_group_file_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "ok.grp"
    path.write_text("GRP 3 1\n1 2 0\n\n\n")
    assert load_group(path).order() == 3
