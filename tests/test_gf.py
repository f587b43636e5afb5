import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gquad.gf import (
    GF,
    FieldMismatchError,
    NotIrreducibleError,
    triple_image,
    _DEFAULT_MODULI,
    _factorise,
    _prime_power,
    _is_irreducible,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32]


# ---------------------------------------------------------------------------
# oracle: naive polynomial arithmetic straight from the definitions
# ---------------------------------------------------------------------------

def poly_mul_mod(a, b, modulus, p):
    """Multiply little-endian coeff lists and reduce mod (modulus, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg_m = len(modulus) - 1
    while len(prod) > deg_m:
        lead = prod.pop()
        if lead:
            shift = len(prod) - deg_m
            for i in range(deg_m):
                prod[shift + i] = (prod[shift + i] - lead * modulus[i]) % p
    while len(prod) < deg_m:
        prod.append(0)
    return prod


def oracle_mul(field, a, b):
    pa = list(reversed(field.coeffs(a)))
    pb = list(reversed(field.coeffs(b)))
    prod = poly_mul_mod(pa, pb, list(field.modulus), field.p)
    return field.from_coeffs(reversed(prod))


def oracle_add(field, a, b):
    return field.from_coeffs(
        x + y for x, y in zip(field.coeffs(a), field.coeffs(b)))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_code_order_is_lex_order_on_coeff_vectors():
    for q in SMALL_Q:
        k = GF.default(q)
        vecs = [k.coeffs(a) for a in k.elements()]
        assert vecs == sorted(vecs)
        assert len(set(vecs)) == q


def test_roundtrip_coeffs():
    for q in SMALL_Q:
        k = GF.default(q)
        for a in k.elements():
            assert k.from_coeffs(k.coeffs(a)) == a


def test_distinguished_codes():
    # codes evaluate the representative polynomial at p: constants are
    # 0..p-1, the class of x is p itself
    for q in SMALL_Q:
        k = GF.default(q)
        assert k.coeffs(0) == (0,) * k.f
        for m in range(k.p):
            cs = k.coeffs(k.scalar(m))
            assert cs[-1] == m and all(c == 0 for c in cs[:-1])
        if k.f > 1:
            assert k.gen() == k.p
            g = k.coeffs(k.gen())
            assert g[-2] == 1 and sum(g) == 1


# ---------------------------------------------------------------------------
# arithmetic against the oracle
# ---------------------------------------------------------------------------

def test_add_mul_match_oracle_exhaustive():
    for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]:
        k = GF.default(q)
        for a in k.elements():
            for b in k.elements():
                assert k.add(a, b) == oracle_add(k, a, b)
                assert k.mul(a, b) == oracle_mul(k, a, b)


def test_add_mul_match_oracle_sampled_bigger():
    rng = random.Random(0)
    for q in [32, 49, 64, 81, 121, 125, 128, 169, 243, 256, 343, 512]:
        k = GF.default(q)
        for _ in range(200):
            a = rng.randrange(q)
            b = rng.randrange(q)
            assert k.add(a, b) == oracle_add(k, a, b)
            assert k.mul(a, b) == oracle_mul(k, a, b)


def test_field_axioms_exhaustive_small():
    for q in [2, 3, 4, 5, 8, 9]:
        k = GF.default(q)
        els = list(k.elements())
        for a in els:
            assert k.add(a, 0) == a
            assert k.mul(a, 1) == a
            assert k.add(a, k.neg(a)) == 0
            if a:
                assert k.mul(a, k.inv(a)) == 1
            for b in els:
                assert k.add(a, b) == k.add(b, a)
                assert k.mul(a, b) == k.mul(b, a)
                for c in els:
                    assert k.add(k.add(a, b), c) == k.add(a, k.add(b, c))
                    assert k.mul(k.mul(a, b), c) == k.mul(a, k.mul(b, c))
                    assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b),
                                                          k.mul(a, c))


def test_pow_and_inverse():
    for q in SMALL_Q:
        k = GF.default(q)
        for a in k.nonzero():
            assert k.pow(a, q - 1) == 1
            assert k.pow(a, 0) == 1
            assert k.mul(k.pow(a, 3), k.pow(a, -3)) == 1
        assert k.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            k.inv(0)
        with pytest.raises(ZeroDivisionError):
            k.pow(0, -1)


def test_frobenius_is_additive_and_fixes_prime_field():
    for q in [4, 8, 9, 16, 25, 27, 32]:
        k = GF.default(q)
        for a in k.elements():
            for b in k.elements():
                assert k.frob(k.add(a, b)) == k.add(k.frob(a), k.frob(b))
        for m in range(k.p):
            assert k.frob(k.scalar(m)) == k.scalar(m)
        # order of Frobenius is exactly f
        for a in k.elements():
            v = a
            for _ in range(k.f):
                v = k.frob(v)
            assert v == a


def test_gf4_multiplication_table():
    # GF(4) = GF(2)[x]/(x^2+x+1): with w the class of x, w*w = w+1.
    k = GF.default(4)
    w = k.gen()
    assert k.mul(w, w) == k.add(w, 1)
    assert k.mul(w, k.add(w, 1)) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81]),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_mul_matches_oracle_property(q, ai, bi):
    k = GF.default(q)
    a, b = ai % q, bi % q
    assert k.mul(a, b) == oracle_mul(k, a, b)
    assert k.add(a, b) == oracle_add(k, a, b)


# ---------------------------------------------------------------------------
# element wrapper
# ---------------------------------------------------------------------------

def test_element_operators():
    k = GF.default(9)
    a = k.element(5)
    b = k.element(7)
    assert (a + b).code == k.add(5, 7)
    assert (a - b).code == k.sub(5, 7)
    assert (a * b).code == k.mul(5, 7)
    assert (a / b).code == k.div(5, 7)
    assert (-a).code == k.neg(5)
    assert (a**4).code == k.pow(5, 4)
    assert a + 1 == k.element(k.add(5, 1))
    assert 2 * a == k.element(k.mul(5, 2))
    assert k.element(0) == 0 and k.element(1) == 1


def test_element_rejects_mixed_fields():
    a = GF.default(4).element(2)
    b = GF.default(8).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        GF.default(8).element(a)


def test_element_code_range_checked():
    k = GF.default(4)
    with pytest.raises(ValueError):
        k.element(4)
    with pytest.raises(ValueError):
        k.element(-1)


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------

def test_shipped_moduli_are_irreducible_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for (p, f), coeffs in _DEFAULT_MODULI.items():
        poly = sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)),
                          x, modulus=p)
        assert poly.is_irreducible, (p, f)


def test_shipped_moduli_are_least_code():
    # brute force for the sizes where that is cheap
    for (p, f), coeffs in _DEFAULT_MODULI.items():
        if p**f > 750:
            continue
        for m in range(p**f):
            cand = tuple(m // p**i % p for i in range(f)) + (1,)
            if _is_irreducible(list(cand), p):
                assert cand == coeffs, (p, f)
                break


def test_custom_modulus_accepted_and_reducible_rejected():
    # x^3 + x^2 + 1 is the other irreducible cubic over GF(2)
    k = GF(p=2, f=3, modulus=(1, 0, 1, 1))
    assert k.q == 8
    g = k.gen()
    assert k.pow(g, 3) == k.add(k.pow(g, 2), 1)
    with pytest.raises(NotIrreducibleError):
        GF(p=2, f=2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(NotIrreducibleError):
        GF(p=3, f=2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)


def test_rabin_path_degree_18():
    k = GF(p=2, f=18)
    assert k.q == 262144
    assert k.modulus == _DEFAULT_MODULI[(2, 18)]
    g = k.gen()
    # x^18 = x^3 + 1 in this field
    assert k.pow(g, 18) == k.add(k.pow(g, 3), 1)
    # codes multiply carry-lessly: x^2 * x^3 = x^5
    assert k.mul(4, 8) == 32


def exp_log_char2_oracle(field):
    """The scalar exp/log loop: carry-less products, one power a step."""
    f, q = field.f, field.q
    mod_int = sum(1 << i for i, c in enumerate(field.modulus) if c)
    top = 1 << f

    def mul_int(a, b):
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod_int
        return r

    def pow_int(a, n):
        r = 1
        while n:
            if n & 1:
                r = mul_int(r, a)
            a = mul_int(a, a)
            n >>= 1
        return r

    order = q - 1
    primes = _factorise(order)
    gen = next(c for c in range(2, q)
               if all(pow_int(c, order // r) != 1 for r in primes))
    exp = [0] * order
    log = [0] * q
    v = 1
    for i in range(order):
        exp[i] = v
        log[v] = i
        v = mul_int(v, gen)
    assert v == 1
    return exp, log


# (f, modulus or None for the default); GF(4) has one irreducible
# quadratic, x^4+x^3+x^2+x+1 has a primitive element other than x.
# Past its first 128 entries the table doubles through two tables, of
# f//2 and f - f//2 bits: odd f = 9, 13 give halves of unequal width
@pytest.mark.parametrize("f, modulus", [
    (2, None), (3, None), (3, (1, 0, 1, 1)), (4, None), (4, (1, 1, 1, 1, 1)),
    (10, None), (10, (1,) + (0,) * 6 + (1, 0, 0, 1)),
    (18, None), (18, (1,) + (0,) * 6 + (1,) + (0,) * 10 + (1,)),
    (9, None), (13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1)),
])
def test_char2_exp_log_tables_match_scalar_loop(f, modulus):
    k = GF(p=2, f=f, modulus=modulus)
    if modulus is not None:
        assert k.modulus != GF(p=2, f=f).modulus
    exp, log = k._ensure_exp_log()
    assert type(exp) is list and type(log) is list
    assert type(exp[-1]) is int and type(log[-1]) is int
    assert (exp, log) == exp_log_char2_oracle(k)


def _oracle_order(field, a):
    n, v = 1, a
    while v != 1:
        v = oracle_mul(field, v, a)
        n += 1
    return n


# the default moduli and three others; x is not primitive modulo the
# default x^2 + 1 over GF(3), nor modulo x^4+x^3+x^2+x+1 over GF(2)
@pytest.mark.parametrize("field", [GF.default(q) for q in SMALL_Q] + [
    GF(p=3, f=2, modulus=(2, 1, 1)), GF(p=2, f=4, modulus=(1, 1, 1, 1, 1)),
    GF(p=5, f=2, modulus=(2, 1, 1))],
    ids=lambda k: f"{k.q}-{''.join(map(str, k.modulus))}")
def test_primitive_is_least_generator(field):
    g = field.primitive()
    orders = [_oracle_order(field, a) for a in range(1, g + 1)]
    assert orders[-1] == field.q - 1
    assert field.q == 2 or max(orders[:-1]) < field.q - 1


@pytest.mark.parametrize("q", [2, 3, 9])
def test_char2_exp_log_needs_characteristic_2_and_q_above_2(q):
    with pytest.raises(ValueError):
        GF(q).exp_log_char2()


def test_non_prime_power_rejected():
    for bad in [1, 6, 10, 12, 100]:
        with pytest.raises(ValueError):
            GF(bad)


def test_prime_power_matches_brute_force():
    for n in range(-2, 300):
        brute = [(p, k) for p in range(2, max(n, 2) + 1)
                 for k in range(1, 9) if p ** k == n
                 and all(p % d for d in range(2, p))]
        assert _prime_power(n) == (brute[0] if brute else None), n


def test_default_is_cached():
    assert GF.default(9) is GF.default(9)
    assert GF(9) is not GF(9)


# ---------------------------------------------------------------------------
# the cubing map a, b -> a*b*(a - b)
# ---------------------------------------------------------------------------

def test_triple_image_small_even_fields():
    assert triple_image(GF.default(2)) == {0}
    assert triple_image(GF.default(4)) == {0, 1}
    for q in [8, 16, 32]:
        k = GF.default(q)
        assert triple_image(k) == set(k.elements())


def test_triple_image_matches_brute_force():
    for q in [3, 5, 8, 9]:
        k = GF.default(q)
        brute = {
            k.mul(k.mul(a, b), k.sub(a, b))
            for a in k.elements() for b in k.elements()
        }
        assert triple_image(k) == brute


def test_scalar_tables_are_the_full_tables_as_lists():
    for q in SMALL_Q + [1024]:
        k = GF.default(q)
        add, mul, neg, inv = k.scalar_tables()
        assert add == [[k.add(a, b) for b in range(q)] for a in range(q)]
        assert mul == [[k.mul(a, b) for b in range(q)] for a in range(q)]
        assert neg == [k.neg(a) for a in range(q)]
        assert inv == [None] + [k.inv(a) for a in range(1, q)]
    with pytest.raises(ValueError):
        GF(p=2, f=11).scalar_tables()
