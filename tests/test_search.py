import hashlib
import json
import os
import subprocess
import sys
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import gquad
import gquad.groups
import gquad.search

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
    FiniteGroup,
    PermGroup,
    Permutation,
    TooLargeError,
    element_closure,
    invariant_report,
    is_normal,
    is_regular,
    subgroup_key,
    subgroup_orbit,
)
from gquad.incidence import aut_incidence, build_w3, dual
from gquad.linalg import Mat
from gquad.search import (
    NotCompatibleError,
    SearchBudget,
    classify_classes,
    describe_group,
    enumerate_regular,
    normaliser_gens,
    sylow_subgroup,
)


def _model(q):
    return build_derived_model(GF.default(q))


def _perm_groups(model):
    k = model.field
    gq = model.gq
    e = action_from_linear(k, elation_gens(k), gq)
    p = action_from_linear(k, shear_gens(k), gq)
    t = action_from_linear(k, unipotent_gens(k), gq)
    return e, p, t


@pytest.fixture(scope="module")
def q2():
    model = _model(2)
    e, p, t = _perm_groups(model)
    amb = ambient_stabiliser(model.field, model.gq)
    return model, e, p, t, amb


@pytest.fixture(scope="module")
def q3():
    model = _model(3)
    e, p, t = _perm_groups(model)
    amb = aut_incidence(model.gq)
    return model, e, p, t, amb


# ---------------------------------------------------------------------------
# sylow subgroups and normalisers
# ---------------------------------------------------------------------------

def test_sylow_subgroup_q2(q2):
    model, e, p, t, amb = q2
    assert amb.order() == 48
    s = sylow_subgroup(amb, 2)
    assert s.order() == 16
    for g in s.gens:
        assert amb.contains(g)
    # a Sylow 2-subgroup: every element order is a power of two
    orders = {x.order() for x in FiniteGroup.from_permgroup(s).elements}
    assert all(o in (1, 2, 4, 8, 16) for o in orders)


def test_sylow_subgroup_q3(q3):
    model, e, p, t, amb = q3
    assert amb.order() == 51840
    s = sylow_subgroup(amb, 3)
    assert s.order() == 81


def test_unipotent_group_is_sylow(q3):
    model, e, p, t, amb = q3
    assert t.order() == 81
    assert amb.order() % t.order() == 0
    assert (amb.order() // t.order()) % 3 != 0


def test_normaliser_of_elation_group(q3):
    # the derived quadrangle at q=3 is classical, so its automorphism
    # group is far larger than anything inherited from W(3,3) and the
    # elation group is not normal in it; the normaliser has index 40
    model, e, p, t, amb = q3
    gens = normaliser_gens(amb, e)
    n = PermGroup(amb.degree, gens)
    assert is_normal(n, e)
    assert n.order() == 1296
    assert amb.order() // n.order() == 40


def test_normaliser_of_shear_extension_is_proper(q3):
    model, e, p, t, amb = q3
    gens = normaliser_gens(amb, p)
    n = PermGroup(amb.degree, gens)
    assert p.order() < n.order() < amb.order()
    assert n.order() % p.order() == 0


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------

def test_describe_dihedral_and_cyclic():
    d8 = PermGroup(4, [Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                       Permutation.from_cycles(4, [(1, 3)])])
    assert describe_group(invariant_report(d8)) == "D8"
    c8 = PermGroup(8, [Permutation.from_cycles(8, [tuple(range(8))])])
    assert describe_group(invariant_report(c8)) == "C8"


def test_describe_quaternion():
    k = GF(3)
    i = Mat.from_rows(k, [[0, 2], [1, 0]])
    j = Mat.from_rows(k, [[1, 1], [1, 2]])
    q8 = FiniteGroup(Mat.identity(k, 2), [i, j])
    rep = invariant_report(q8)
    assert rep["order"] == 8
    assert describe_group(rep) == "Q8"


def test_describe_order_27():
    k = GF(3)
    e = FiniteGroup(Mat.identity(k, 4), elation_gens(k))
    assert describe_group(invariant_report(e)) == "extraspecial 27 of exponent 3"


# ---------------------------------------------------------------------------
# enumeration, prime-power route
# ---------------------------------------------------------------------------

def test_enumerate_q2_four_classes(q2):
    model, e, p, t, amb = q2
    table = enumerate_regular(model.gq, amb, sylow=t,
                              templates={"E": e, "P": p})
    assert table.complete
    assert table.num_classes == 4
    descs = sorted(c.description for c in table.classes)
    assert descs == ["C2 x C2 x C2", "C4 x C2", "D8", "D8"]
    by_desc = {}
    for c in table.classes:
        by_desc.setdefault(c.description, []).append(c)
    assert by_desc["C2 x C2 x C2"][0].matches == ["E"]
    assert by_desc["C4 x C2"][0].matches == ["P"]
    for c in by_desc["D8"]:
        assert c.matches == []


def _recording_search(monkeypatch):
    calls = []
    real = gquad.search.find_isomorphism

    def recording(a, b, **kwargs):
        iso = real(a, b, **kwargs)
        calls.append((a, b, kwargs, iso))
        return iso

    monkeypatch.setattr(gquad.search, "find_isomorphism", recording)
    return calls


def test_enumerate_q2_iso_classes(q2, monkeypatch):
    model, e, p, t, amb = q2
    calls = _recording_search(monkeypatch)
    table = classify_classes(enumerate_regular(model.gq, amb, sylow=t))
    ids = {c.description: set() for c in table.classes}
    for c in table.classes:
        assert c.iso_class is not None
        ids[c.description].add(c.iso_class)
    # the two dihedral classes are non-conjugate but isomorphic
    assert len(ids["D8"]) == 1
    assert len({c.iso_class for c in table.classes}) == 3
    # and the map that says so is an isomorphism
    d8a, d8b = (c.rep for c in table.classes if c.description == "D8")
    [phi] = [iso for a, b, _, iso in calls if (a, b) == (d8a, d8b)]
    assert set(phi) == set(d8a.elements())
    assert set(phi.values()) == set(d8b.elements())
    for x in d8a.elements():
        for y in d8a.elements():
            assert phi[x * y] == phi[x] * phi[y]


def test_classify_searches_up_to_its_bound(q2, monkeypatch):
    model, e, p, t, amb = q2
    table = enumerate_regular(model.gq, amb, sylow=t)
    calls = _recording_search(monkeypatch)
    classify_classes(table, bound=5000)
    assert calls
    assert all(kwargs == {"max_order": 5000} for _, _, kwargs, _ in calls)
    assert [c.iso_class for c in table.classes] == [0, 1, 2, 2]
    assert table.notes == []


PICKLE_TABLE = """
import pickle, sys
from gquad.constructions import (action_from_linear, ambient_stabiliser,
                                 build_derived_model, unipotent_gens)
from gquad.gf import GF
from gquad.search import enumerate_regular
model = build_derived_model(GF.default(2))
amb = ambient_stabiliser(model.field, model.gq)
t = action_from_linear(model.field, unipotent_gens(model.field), model.gq)
with open(sys.argv[1], "wb") as fh:
    pickle.dump(enumerate_regular(model.gq, amb, sylow=t), fh)
"""

CLASSIFY_PICKLED = """
import pickle, sys
from gquad.search import classify_classes
with open(sys.argv[1], "rb") as fh:
    table = pickle.load(fh)
print(*[c.iso_class for c in classify_classes(table).classes])
"""


def test_pickled_table_classifies_under_another_hash_seed(tmp_path):
    # a Permutation's hash is salted per process: a table pickled in one
    # process must still classify in another, where its two dihedral
    # classes share a fingerprint and so are searched for an isomorphism
    src = os.path.dirname(os.path.dirname(gquad.__file__))
    path = tmp_path / "table.pkl"
    outputs = []
    for seed, script in (("1", PICKLE_TABLE), ("2", CLASSIFY_PICKLED)):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert outputs[1] == ["0", "1", "2", "2"]


def test_enumerate_q2_deterministic(q2):
    model, e, p, t, amb = q2
    a = enumerate_regular(model.gq, amb, sylow=t).to_json()
    b = enumerate_regular(model.gq, amb, sylow=t).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["num_classes"] == 4
    assert payload["complete"] is True


def test_enumerate_q3_two_extraspecial_classes(q3):
    model, e, p, t, amb = q3
    table = enumerate_regular(model.gq, amb, sylow=t,
                              templates={"E": e, "P": p})
    assert table.complete
    assert table.num_classes == 2
    descs = {c.description for c in table.classes}
    assert descs == {"extraspecial 27 of exponent 3",
                     "extraspecial 27 of exponent 9"}
    for c in table.classes:
        if c.invariants["exponent"] == 3:
            assert c.matches == ["E"]
        else:
            assert c.matches == ["P"]
    table = classify_classes(table)
    assert len({c.iso_class for c in table.classes}) == 2


@pytest.mark.parametrize("q", [5, 7])
def test_enumerate_odd_prime_two_classes(q):
    model = _model(q)
    e, p, t = _perm_groups(model)
    amb = ambient_stabiliser(model.field, model.gq)
    table = enumerate_regular(model.gq, amb, sylow=t,
                              templates={"E": e, "P": p})
    assert table.complete
    assert table.num_classes == 2
    for c in table.classes:
        assert c.description == f"extraspecial {q ** 3} of exponent {q}"
    matches = sorted(m for c in table.classes for m in c.matches)
    assert matches == ["E", "P"]
    # abstractly isomorphic, just not conjugate
    table = classify_classes(table)
    assert len({c.iso_class for c in table.classes}) == 1


def test_descend_and_fuse_never_report_invariants(q3, monkeypatch):
    # orbit keys are exact, so the descent has no use for a fingerprint
    model, e, p, t, amb = q3

    def forbidden(*args, **kwargs):
        raise AssertionError("invariant_report called during the descent")

    monkeypatch.setattr(gquad.groups, "invariant_report", forbidden)
    monkeypatch.setattr(gquad.search, "invariant_report", forbidden)
    clock = gquad.search._Clock(None)
    leaves = gquad.search._descend(t, 27, clock, amb)
    assert leaves
    assert all(key == subgroup_key(amb, m) for key, m in leaves)
    reps, orbits = gquad.search._fuse(amb, leaves, clock)
    assert len(reps) == 2


# ---------------------------------------------------------------------------
# the descent on the node's table against the former PermGroup descent
# ---------------------------------------------------------------------------

def maximal_permgroups_oracle(h, p, clock):
    """The former maximal-subgroup step: each Frattini-quotient
    hyperplane preimage rebuilt as a PermGroup, whose stabiliser chain
    checks its order."""
    hf = FiniteGroup.from_permgroup(h)
    phi, phi_gens = hf.span([hf.index[e] for e in hf.frattini()])
    basis = hf.span(range(hf.order), phi_gens)[1][len(phi_gens):]
    d = len(basis)
    assert p ** d * int(phi.sum()) == hf.order
    out = []
    for pivot in range(d):
        for rest in product(range(p), repeat=d - pivot - 1):
            c = (0,) * pivot + (1,) + rest
            clock.tick()
            gens = list(phi_gens)
            for i in range(d):
                if i != pivot:
                    gens.append(hf.mul(basis[i],
                                       hf.power(basis[pivot], p - c[i])))
            m = PermGroup(h.degree, [hf.elements[i] for i in gens])
            assert m.order() * p == hf.order
            out.append(m)
    return out


def descend_oracle(sylow, target, p, clock, ambient):
    """The former descent: every maximal subgroup a PermGroup, judged by
    its orbit, its chain order, ``subgroup_key`` and ``is_regular``, and
    the conjugate internal nodes fused by keys computed again.  The
    leaves are (key, group) pairs, as from ``_descend``."""
    pts = list(range(sylow.degree))
    leaves, leaf_keys = [], set()
    layer = [sylow]
    layer_keys = {subgroup_key(ambient, sylow)}
    try:
        while layer:
            nxt, nxt_keys = [], set()
            for h in layer:
                for m in maximal_permgroups_oracle(h, p, clock):
                    if not m.is_transitive(pts):
                        continue
                    key = subgroup_key(ambient, m)
                    if m.order() == target:
                        if key not in leaf_keys:
                            leaf_keys.add(key)
                            if is_regular(m, pts, order=target):
                                leaves.append((key, m))
                    elif key not in nxt_keys and key not in layer_keys:
                        nxt_keys.add(key)
                        nxt.append(m)
            if len(nxt) > 1:
                reps, seen = [], set()
                for m in nxt:
                    if subgroup_key(ambient, m) not in seen:
                        seen |= {k for k, _, _ in
                                 subgroup_orbit(ambient, m, clock)}
                        reps.append(m)
                nxt = reps
            layer = nxt
            layer_keys |= nxt_keys
    except gquad.search._BudgetHit:
        frontier = [[[int(x) for x in g.arr] for g in h.gens] for h in layer]
        raise gquad.search._BudgetHit("descent interrupted", leaves,
                                      frontier)
    return leaves


def _keyed_gens(leaves):
    return [(key, [g.arr.tolist() for g in m.gens]) for key, m in leaves]


def _descent_setting(q):
    model = _model(q)
    e, p, t = _perm_groups(model)
    if q == 3:
        amb = aut_incidence(model.gq)
    else:
        amb = ambient_stabiliser(model.field, model.gq)
    return t, q ** 3, model.field.p, amb


def _interrupted(descend, nodes):
    with pytest.raises(gquad.search._BudgetHit) as hit:
        descend(gquad.search._Clock(SearchBudget(nodes=nodes)))
    hit = hit.value
    return hit.reason, _keyed_gens(hit.leaves), hit.frontier


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_descend_matches_oracle(q):
    # the same leaves, in order, with the same keys and generators, and
    # the same clock ticks.  Wherever a node budget stops both, the frontier is
    # the same; the oracle builds a node's maximal subgroups before it
    # judges any, so it may hold fewer of the leaves found so far.  q=4
    # descends through two layers with a fusion between.
    t, target, p, amb = _descent_setting(q)

    def descend(clock):
        return gquad.search._descend(t, target, clock, amb)

    def oracle(clock):
        return descend_oracle(t, target, p, clock, amb)

    clock, oracle_clock = gquad.search._Clock(None), gquad.search._Clock(None)
    got = _keyed_gens(descend(clock))
    want = _keyed_gens(oracle(oracle_clock))
    assert got and got == want
    assert clock.nodes == oracle_clock.nodes
    n = clock.nodes
    for nodes in sorted({k for k in (2, n // 3, 2 * n // 3, n - 10, n - 1)
                         if k > 0}):
        reason, part, frontier = _interrupted(descend, nodes)
        old_reason, old, old_frontier = _interrupted(oracle, nodes)
        assert (reason, frontier) == (old_reason, old_frontier)
        assert part == want[:len(part)] and len(part) >= len(old)


def test_descend_chains_no_discarded_subgroup(q3, monkeypatch):
    # a maximal subgroup that is intransitive or already seen never
    # becomes a PermGroup, so no stabiliser chain is built for it
    model, e, p, t, amb = q3
    amb.order(), t.order()
    chained = []
    real = PermGroup._chain

    def counted(self):
        if self._levels is None:
            chained.append(self)
        return real(self)

    monkeypatch.setattr(PermGroup, "_chain", counted)
    leaves = gquad.search._descend(t, 27, gquad.search._Clock(None), amb)
    judged = list(FiniteGroup.from_permgroup(t)._maximal_masks())
    assert len(judged) > len(leaves)
    assert all(any(c is m for _, m in leaves) for c in chained)


def test_given_sylow_is_checked(q2):
    model, e, p, t, amb = q2
    outside = PermGroup(8, [Permutation.from_cycles(8, [(0, 1)])])
    assert not amb.contains(outside.gens[0])
    with pytest.raises(ValueError, match="sylow generator outside ambient"):
        enumerate_regular(model.gq, amb, sylow=outside)
    # E lies in the stabiliser, of order 48, but is not a Sylow 2-subgroup
    with pytest.raises(ValueError, match="given subgroup is not Sylow"):
        enumerate_regular(model.gq, amb, sylow=e)


def test_enumerate_generic_sylow_agrees_q2(q2):
    model, e, p, t, amb = q2
    table = enumerate_regular(model.gq, amb)
    assert table.num_classes == 4


# ---------------------------------------------------------------------------
# budgets and compatibility
# ---------------------------------------------------------------------------

def test_budget_interruption_reports_frontier(q3):
    model, e, p, t, amb = q3
    table = enumerate_regular(model.gq, amb, SearchBudget(nodes=2), sylow=t)
    assert not table.complete
    assert any("budget" in note for note in table.notes)
    assert table.frontier
    md = table.to_markdown()
    assert "Incomplete" in md


def test_climb_ticks_the_given_clock(q3):
    model, e, p, t, amb = q3
    clock = gquad.search._Clock(None)
    assert sylow_subgroup(amb, 3, clock=clock).order() == 81
    assert clock.nodes == 5242
    short = gquad.search._Clock(SearchBudget(nodes=clock.nodes - 1))
    with pytest.raises(gquad.search._BudgetHit):
        sylow_subgroup(amb, 3, clock=short)


def test_node_budget_covers_climb_and_descent(q3):
    # the climb takes 5242 nodes, the descent and fusion 4684 more
    model, e, p, t, amb = q3
    table = enumerate_regular(model.gq, amb, SearchBudget(nodes=5243))
    assert not table.complete
    assert table.notes[0] == "budget exceeded: descent interrupted"
    table = enumerate_regular(model.gq, amb, SearchBudget(nodes=9926))
    assert table.complete and table.num_classes == 2


@pytest.mark.parametrize("bad", [
    PermGroup(7, []),
    PermGroup(8, [Permutation.from_cycles(8, [(0, 1)])]),
], ids=["degree", "outside"])
def test_bad_template_fails_before_search(q2, monkeypatch, bad):
    model, e, p, t, amb = q2
    calls = []

    def counted(name):
        real = getattr(gquad.search, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("sylow_subgroup", "_descend"):
        monkeypatch.setattr(gquad.search, name, counted(name))
    with pytest.raises(ValueError):
        enumerate_regular(model.gq, amb, templates={"E": e, "X": bad})
    assert calls == []
    # the same calls run the search once the template fits
    enumerate_regular(model.gq, amb, templates={"E": e})
    assert calls == ["sylow_subgroup", "_descend"]


def test_budget_seconds_must_be_positive():
    with pytest.raises(ValueError):
        SearchBudget(seconds=0)
    with pytest.raises(ValueError):
        SearchBudget(nodes=-3)


def test_not_compatible(q2):
    model, e, p, t, amb = q2
    tiny = PermGroup(8, [])
    with pytest.raises(NotCompatibleError):
        enumerate_regular(model.gq, tiny)


def test_degree_mismatch(q2):
    model, e, p, t, amb = q2
    with pytest.raises(ValueError):
        enumerate_regular(model.ambient_gq, amb)


# ---------------------------------------------------------------------------
# transversal route for composite point counts
# ---------------------------------------------------------------------------

def test_transversal_on_symmetric_group():
    # S6 on 6 points has two regular subgroup classes: the cyclic group
    # and the regular representation of the symmetric group on 3 letters
    s6 = PermGroup(6, [Permutation.from_cycles(6, [tuple(range(6))]),
                       Permutation.from_cycles(6, [(0, 1)])])
    gq = SimpleNamespace(n_points=6, name="six labelled points")
    table = enumerate_regular(gq, s6)
    assert table.strategy == "transversal"
    assert table.complete
    assert table.num_classes == 2
    descs = sorted(c.description for c in table.classes)
    assert descs == ["abelian of order 6, exponent 6",
                     "nonabelian of order 6, exponent 6"]


def transversal_oracle(ambient: PermGroup, n: int, clock):
    """The former transversal search: fixed-point-free Permutations
    bucketed by the image of 0 and sorted by their bytes, each candidate
    group closed again from the identity and keyed by the frozenset of
    its element bytes."""
    deg = ambient.degree
    ident = Permutation.identity(deg)
    by_image = {t: [] for t in range(1, deg)}
    for e in element_closure(ident, ambient.gens, clock=clock):
        if not (e.arr == ident.arr).any():
            by_image[e.apply(0)].append(e)
    for t in by_image:
        by_image[t].sort(key=lambda g: g.arr.tobytes())

    found = []
    visited = set()

    def close(gens):
        elems = {}
        try:
            for x in element_closure(ident, gens, limit=n):
                if elems and (x.arr == ident.arr).any():
                    return None
                elems[x.arr.tobytes()] = x
        except TooLargeError:
            return None
        if n % len(elems):
            return None
        return elems

    def grow(elems, gens):
        clock.tick()
        if len(elems) == n:
            found.append(PermGroup(deg, gens))
            return
        covered = {e.apply(0) for e in elems.values()}
        t = min(x for x in range(deg) if x not in covered)
        for g in by_image[t]:
            new = close(gens + [g])
            if new is None:
                continue
            key = frozenset(new)
            if key in visited:
                continue
            visited.add(key)
            grow(new, gens + [g])

    grow({ident.arr.tobytes(): ident}, [])
    return found


def _sym_gens(n: int, points) -> list:
    """A long cycle and a transposition of the given points."""
    points = list(points)
    return [Permutation.from_cycles(n, [tuple(points)]),
            Permutation.from_cycles(n, [tuple(points[:2])])]


def _transversal_ambient(name: str) -> tuple[PermGroup, int]:
    if name == "S6":
        return PermGroup(6, _sym_gens(6, range(6))), 2
    if name == "W(3,2)":
        return aut_incidence(build_w3(GF(2))), 0
    # S4 x S3 on the 4 x 3 grid, point 3a + b
    grid = np.arange(12).reshape(4, 3)
    return PermGroup(12, [
        Permutation(np.roll(grid, -1, axis=0).ravel()),
        Permutation(grid[[1, 0, 2, 3]].ravel()),
        Permutation(np.roll(grid, -1, axis=1).ravel()),
        Permutation(grid[:, [1, 0, 2]].ravel())]), 5


@pytest.mark.parametrize("name", ["S6", "W(3,2)", "S4 x S3"])
def test_transversal_matches_oracle(name):
    # the same groups, in order, with the same generators, and the same
    # clock ticks
    amb, classes = _transversal_ambient(name)
    n = amb.degree
    clock, oracle_clock = gquad.search._Clock(None), gquad.search._Clock(None)
    keyed = gquad.search._transversal_search(amb, n, clock)
    want = transversal_oracle(amb, n, oracle_clock)
    assert all(key == subgroup_key(amb, h) for key, h in keyed)
    got = [h for _, h in keyed]
    assert ([[g.arr.tolist() for g in h.gens] for h in got]
            == [[g.arr.tolist() for g in h.gens] for h in want])
    assert [h.order() for h in got] == [h.order() for h in want]
    assert clock.nodes == oracle_clock.nodes
    gq = SimpleNamespace(n_points=n, name=name)
    assert enumerate_regular(gq, amb).num_classes == classes


def test_transversal_no_regular_group():
    # Aut(W(3,2)) has order 720 and no element of order 15, hence no
    # subgroup acting regularly on the 15 points
    w = build_w3(GF(2))
    amb = aut_incidence(w)
    assert amb.order() == 720
    table = enumerate_regular(w, amb)
    assert table.strategy == "transversal"
    assert table.complete
    assert table.num_classes == 0


def test_transversal_q43_has_no_regular_group():
    # Q(4,3), the dual of W(3,3): 40 points, Aut of order 51840; the
    # search runs to the end and finds none
    gq = dual(build_w3(GF(3)))
    amb = aut_incidence(gq)
    assert gq.n_points == 40 and amb.order() == 51840
    table = enumerate_regular(gq, amb)
    assert table.strategy == "transversal"
    assert table.complete
    assert table.num_classes == 0


def test_transversal_budget_hit_counts_groups_found():
    s6 = PermGroup(6, _sym_gens(6, range(6)))
    gq = SimpleNamespace(n_points=6, name="six labelled points")
    clock = gquad.search._Clock(None)
    found = gquad.search._transversal_search(s6, 6, clock)
    # the last tick is the last group's, so one group short of the end
    table = enumerate_regular(gq, s6, SearchBudget(nodes=clock.nodes - 1))
    assert not table.complete
    assert table.notes == [
        "budget exceeded: transversal search interrupted",
        f"{len(found) - 1} regular subgroups found before interruption; "
        "conjugacy fusion skipped"]
    assert table.frontier == []


# ---------------------------------------------------------------------------
# table integrity
# ---------------------------------------------------------------------------

def test_reps_are_regular_and_distinct(q3):
    model, e, p, t, amb = q3
    table = enumerate_regular(model.gq, amb, sylow=t)
    pts = list(range(model.gq.n_points))
    seen = set()
    for c in table.classes:
        assert is_regular(c.rep, pts, order=27)
        key = frozenset(x.arr.tobytes()
                        for x in FiniteGroup.from_permgroup(c.rep).elements)
        assert key not in seen
        seen.add(key)


def test_markdown_layout(q2):
    model, e, p, t, amb = q2
    table = enumerate_regular(model.gq, amb, sylow=t,
                              templates={"E": e, "P": p})
    md = table.to_markdown()
    assert md.count("|") > 20
    assert "C4 x C2" in md and "D8" in md


# sha256 of the Sylow climb's output in the full automorphism group of
# the derived W(3, q): the generators' image rows as '<u2' bytes, in
# generator order, and the q=3 table enumerated with no Sylow group or
# templates given; recorded at commit f12f27f
CLIMB_SYLOW = {
    3: (81, 4, "dfdba9e212a828647ab08b364484cecc"
               "424073b458f311245889e04b248d7ba6"),
    4: (1024, 9, "1ca234722720a5876b08afae441430bf"
                 "821bf2045433850a08c62babba389e07"),
}
CLIMB_TABLE_Q3 = ("2999e51b860104b8c0b4d30c60ce5231"
                  "ae1ca407b0978705e7dd13ec600997cd")


@pytest.mark.parametrize("q", sorted(CLIMB_SYLOW))
def test_sylow_climb_matches_pinned_generators(q):
    model = _model(q)
    sylow = sylow_subgroup(aut_incidence(model.gq), model.field.p)
    rows = np.array([g.arr for g in sylow.gens], dtype="<u2")
    digest = hashlib.sha256(rows.tobytes()).hexdigest()
    assert (sylow.order(), len(sylow.gens), digest) == CLIMB_SYLOW[q]


def test_full_aut_climb_table_matches_pinned_bytes():
    model = _model(3)
    table = enumerate_regular(model.gq, aut_incidence(model.gq))
    assert table.complete and table.num_classes == 2
    digest = hashlib.sha256(table.to_json().encode()).hexdigest()
    assert digest == CLIMB_TABLE_Q3
