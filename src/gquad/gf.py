"""Arithmetic in small finite fields GF(p^f).

Elements of GF(p^f) are residues of GF(p)[x] modulo a fixed monic
irreducible polynomial of degree f.  The element with polynomial
representative c_{f-1}*x^{f-1} + ... + c_1*x + c_0 is encoded as the
integer obtained by evaluating that polynomial at p:

    code = c_{f-1} * p^(f-1) + ... + c_1 * p + c_0.

Codes 0..p-1 are the prime subfield (so code 1 is the multiplicative
identity), code p is the residue class of x, and for p = 2 addition of
codes is XOR.  Coefficient vectors are always presented leading
coefficient first, the way the polynomial is written, so integer order
on codes coincides with lexicographic order on coefficient vectors.

The default modulus for each (p, f) is the monic irreducible of degree f
over GF(p) with the smallest code (equivalently, lexicographically least
coefficient vector).  The table below ships precomputed values for
p <= 13, f <= 6, plus degree 18 over GF(2); anything else is searched
for at construction time.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "GF",
    "GFElement",
    "FieldMismatchError",
    "NotIrreducibleError",
    "triple_image",
]

# Least-code monic irreducibles, keyed by (p, f).  Stored little-endian:
# (c0, c1, ..., c_{f-1}, 1) with the leading coefficient included.
_DEFAULT_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),                   # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),                # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),             # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),          # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),       # x^6 + x + 1
    (2, 18): (1, 0, 0, 1) + (0,) * 14 + (1,),  # x^18 + x^3 + 1
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),                   # x^2 + 1
    (3, 3): (1, 2, 0, 1),                # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1),
    (5, 2): (2, 0, 1),                   # x^2 + 2
    (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1): (0, 1),
    (7, 2): (1, 0, 1),                   # x^2 + 1
    (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (11, 1): (0, 1),
    (11, 2): (1, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1),
    (11, 6): (2, 1, 0, 0, 0, 0, 1),
    (13, 1): (0, 1),
    (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1),
    (13, 4): (2, 0, 0, 0, 1),
    (13, 5): (2, 4, 0, 0, 0, 1),
    (13, 6): (2, 0, 0, 0, 0, 0, 1),
}

# Full add/mul lookup tables are built below this field size.
_TABLE_MAX = 1024


class FieldMismatchError(ValueError):
    """Operands belong to different field instances."""


class NotIrreducibleError(ValueError):
    """A supplied modulus fails the irreducibility check."""


def _factorise(n: int) -> list[int]:
    """Prime divisors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) when n = p^k with k >= 1, else None."""
    primes = _factorise(n)
    if len(primes) != 1:
        return None
    p = primes[0]
    k = 0
    while n > 1:
        n //= p
        k += 1
    return p, k


# ----------------------------------------------------------------------
# polynomial helpers over GF(p); polys are little-endian coefficient lists
# ----------------------------------------------------------------------

def _pol_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _pol_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pol_trim(out)


def _pol_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        if a[-1] == 0:
            a.pop()
            if not a:
                return [0]
            continue
        shift = len(a) - 1 - dm
        c = a[-1]  # m is monic
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    return _pol_trim(a) if a else [0]


def _pol_divmod(a: Sequence[int], b: Sequence[int], p: int):
    a = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * max(1, len(a) - db)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        c = a[-1] * lead_inv % p
        quo[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    return _pol_trim(quo), (_pol_trim(a) if a else [0])


def _pol_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b != [0]:
        a, b = b, _pol_divmod(a, b, p)[1]
    return a


def _pol_powmod(base: Sequence[int], e: int, m: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _pol_mod(base, m, p)
    while e:
        if e & 1:
            result = _pol_mod(_pol_mul(result, base, p), m, p)
        base = _pol_mod(_pol_mul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Irreducibility over GF(p).

    Degree <= 6 uses exhaustive trial division by every monic polynomial
    of degree up to f // 2.  Larger degrees use Rabin's criterion.
    """
    f = len(poly) - 1
    if f < 1:
        return False
    if f == 1:
        return True
    if any(c % p != poly[i] for i, c in enumerate(poly)):
        poly = [c % p for c in poly]
    if poly[0] == 0:
        return False  # divisible by x
    if f <= 6:
        for d in range(1, f // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                cand = list(tail) + [1]
                if _pol_mod(poly, cand, p) == [0]:
                    return False
        return True
    # Rabin: x^(p^f) == x mod poly and gcd(x^(p^(f/r)) - x, poly) == 1
    # for every prime r dividing f.
    x = [0, 1]
    if _pol_powmod(x, p**f, poly, p) != x:
        return False
    for r in _factorise(f):
        w = _pol_powmod(x, p ** (f // r), poly, p)
        diff = [(wi - xi) % p for wi, xi in
                itertools.zip_longest(w, x, fillvalue=0)]
        g = _pol_gcd(poly, _pol_trim(diff), p)
        if len(g) > 1:
            return False
    return True


def _least_irreducible(p: int, f: int) -> tuple[int, ...]:
    for m in range(p**f):
        cand = [m // p**i % p for i in range(f)] + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------
# the field class
# ----------------------------------------------------------------------

class GF:
    """The finite field GF(p^f) with a fixed modulus.

    Elements are plain ints in range(q) (see module docstring for the
    encoding).  All arithmetic methods take and return codes.  Instances
    are immutable; use GF.default(q) for a cached copy with the default
    modulus.
    """

    def __init__(self, q: int | None = None, *, p: int | None = None,
                 f: int | None = None,
                 modulus: Sequence[int] | None = None):
        if q is not None:
            pf = _prime_power(q)
            if pf is None:
                raise ValueError(f"{q} is not a prime power")
            p, f = pf
        if p is None or f is None:
            raise ValueError("give q, or both p and f")
        if f < 1 or p < 2 or _factorise(p) != [p]:
            raise ValueError("p must be prime and f >= 1")
        self.p = p
        self.f = f
        self.q = p**f
        if modulus is None:
            modulus = _DEFAULT_MODULI.get((p, f)) or _least_irreducible(p, f)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree f")
        if not _is_irreducible(modulus, p):
            raise NotIrreducibleError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._weights = tuple(p ** (f - 1 - i) for i in range(f))
        self._mul_table = None
        self._add_table = None
        self._exp = None
        self._log = None
        self._scalar_tables = None

    _cache: dict[int, "GF"] = {}

    @classmethod
    def default(cls, q: int) -> "GF":
        """Cached field with the default modulus (tables are shared)."""
        got = cls._cache.get(q)
        if got is None:
            got = cls._cache[q] = cls(q)
        return got

    # -- encoding ------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_{f-1}, ..., c_1, c_0), leading first."""
        return tuple(a // w % self.p for w in self._weights)

    def from_coeffs(self, cs: Iterable[int]) -> int:
        """Code of a leading-first coefficient vector."""
        cs = list(cs)
        if len(cs) != self.f:
            raise ValueError(f"need {self.f} coefficients")
        return sum((c % self.p) * w for c, w in zip(cs, self._weights))

    def element_str(self, a: int) -> str:
        return ",".join(str(c) for c in self.coeffs(a))

    def elements(self) -> range:
        """All element codes in canonical (lexicographic) order."""
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def scalar(self, m: int) -> int:
        """The prime-subfield element m mod p."""
        return m % self.p

    def gen(self) -> int:
        """The residue class of x (a root of the modulus)."""
        if self.f == 1:
            raise ValueError("GF(p) has no polynomial generator")
        return self.p

    def primitive(self) -> int:
        """The least primitive element code: the base of the exp table."""
        exp, _ = self._ensure_exp_log()
        return exp[1 % (self.q - 1)]

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        t = self._ensure_add_table()
        if t is not None:
            return int(t[a, b])
        return self.from_coeffs(x + y for x, y in
                                zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.from_coeffs(-c for c in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        t = self._ensure_mul_table()
        if t is not None:
            return int(t[a, b])
        if a == 0 or b == 0:
            return 0
        exp, log = self._ensure_exp_log()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1:
            return 1
        exp, log = self._ensure_exp_log()
        return exp[(self.q - 1 - log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if n else 1
        exp, log = self._ensure_exp_log()
        return exp[(log[a] * n) % (self.q - 1)]

    def frob(self, a: int, e: int = 1) -> int:
        """Frobenius a -> a^(p^e)."""
        return self.pow(a, self.p ** (e % self.f))

    def sum(self, items: Iterable[int]) -> int:
        out = 0
        for v in items:
            out = self.add(out, v)
        return out

    def dot(self, u: Sequence[int], v: Sequence[int]) -> int:
        return self.sum(self.mul(a, b) for a, b in zip(u, v))

    # -- tables --------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        pa = list(reversed(self.coeffs(a))) or [0]
        pb = list(reversed(self.coeffs(b))) or [0]
        prod = _pol_mod(_pol_mul(pa, pb, self.p), self.modulus, self.p)
        prod += [0] * (self.f - len(prod))
        return self.from_coeffs(reversed(prod))

    def _find_primitive(self) -> int:
        order = self.q - 1
        primes = _factorise(order)
        for cand in range(2, self.q):
            if all(self._slow_pow(cand, order // r) != 1 for r in primes):
                return cand
        raise AssertionError("no primitive element")  # unreachable

    def _slow_pow(self, a: int, n: int) -> int:
        out = 1
        while n:
            if n & 1:
                out = self._raw_mul(out, a)
            a = self._raw_mul(a, a)
            n >>= 1
        return out

    def _build_exp_log(self):
        q = self.q
        if q == 2:
            self._exp, self._log = [1], [0, 0]
            return
        if self.p == 2:
            exp, log = (t.tolist() for t in self.exp_log_char2())
        else:
            g = self._find_primitive()
            exp = [0] * (q - 1)
            log = [0] * q
            v = 1
            for i in range(q - 1):
                exp[i] = v
                log[v] = i
                v = self._raw_mul(v, g)
            assert v == 1
        self._exp, self._log = exp, log

    def exp_log_char2(self) -> tuple[np.ndarray, np.ndarray]:
        """exp and log tables of a field of characteristic 2, as arrays.

        exp[i] is g^i for the least primitive code g, log[exp[i]] is i
        and log[0] is 0.  Bit i of a code is the coefficient of x^i, so
        carry-less multiplication works on codes directly; past its
        first block the table is filled by doubling,
        exp[k:2k] = exp[:k] * g^k, where a * g^k is GF(2)-linear in a: the
        xor of two table gathers, at the low f//2 bits and the high bits.
        """
        if self.p != 2 or self.q == 2:
            raise ValueError("needs characteristic 2 and q > 2")
        f, q = self.f, self.q
        mod_int = sum(1 << i for i, c in enumerate(self.modulus) if c)

        def mul_int(a, b):
            # a * b for an int or int64 array a and an int b: b's bits
            # select the shifts a * x^i, each reduced on the way
            r = a ^ a
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a = a << 1
                a ^= (a >> f) * mod_int
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
        # one power at a time up to 128 entries, so that every block is
        # at least 1 KB (and from f = 14 on the product tables below):
        # numpy caches freed smaller buffers, and a cached buffer left
        # inside the heap keeps the memory around it
        exp = np.ones(order, dtype=np.int64)
        k = min(order, 128)
        for i in range(1, k):
            exp[i] = mul_int(int(exp[i - 1]), gen)
        half = f // 2
        low, high = np.arange(1 << half), np.arange(0, q, 1 << half)
        while k < order:
            top = min(2 * k, order)
            c, block = pow_int(gen, k), exp[:top - k]
            exp[k:top] = (mul_int(low, c)[block & low[-1]]
                          ^ mul_int(high, c)[block >> half])
            k = top
        assert mul_int(int(exp[-1]), gen) == 1
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(order)
        return exp, log

    def _ensure_exp_log(self):
        if self._exp is None:
            self._build_exp_log()
        return self._exp, self._log

    def _ensure_mul_table(self):
        if self._mul_table is None and self.q <= _TABLE_MAX:
            exp, log = self._ensure_exp_log()
            q = self.q
            e = np.asarray(exp + exp, dtype=np.int64)
            l = np.asarray(log, dtype=np.int64)
            t = e[l[:, None] + l[None, :]]
            t[0, :] = 0
            t[:, 0] = 0
            self._mul_table = t.astype(self._dtype())
        return self._mul_table

    def _ensure_add_table(self):
        if self._add_table is None and self.q <= _TABLE_MAX:
            # digit by digit, so no temporary is larger than q x q
            codes = np.arange(self.q)
            t = np.zeros((self.q, self.q), dtype=np.int64)
            for w in self._weights:
                d = codes // w % self.p
                t += (d[:, None] + d) % self.p * w
            self._add_table = t.astype(self._dtype())
        return self._add_table

    def _dtype(self):
        return np.uint8 if self.q <= 256 else np.uint32

    def scalar_tables(self):
        """(add, mul, neg, inv) as plain lists for tight scalar loops.

        inv[0] is None.  Past q = 1024 the full tables raise ValueError.
        """
        if getattr(self, "_scalar_tables", None) is None:
            add, mul = self.add_table.tolist(), self.mul_table.tolist()
            neg = [self.neg(a) for a in range(self.q)]
            inv = [None] + [self.inv(a) for a in range(1, self.q)]
            self._scalar_tables = (add, mul, neg, inv)
        return self._scalar_tables

    @property
    def mul_table(self) -> np.ndarray:
        t = self._ensure_mul_table()
        if t is None:
            raise ValueError(f"q={self.q} too large for full tables")
        return t

    @property
    def add_table(self) -> np.ndarray:
        t = self._ensure_add_table()
        if t is None:
            raise ValueError(f"q={self.q} too large for full tables")
        return t

    # -- misc ----------------------------------------------------------

    def element(self, value) -> "GFElement":
        """Wrap a code, coefficient iterable, or GFElement."""
        if isinstance(value, GFElement):
            if value.field is not self:
                raise FieldMismatchError("element from a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise ValueError(f"code {value} out of range for GF({self.q})")
            return GFElement(self, value)
        return GFElement(self, self.from_coeffs(value))

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.f == other.f and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))


class GFElement:
    """A field element bound to its GF instance; supports operators."""

    __slots__ = ("field", "code")

    def __init__(self, field: GF, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs(self.code)

    def _coerce(self, other) -> int:
        if isinstance(other, GFElement):
            if other.field != self.field:
                raise FieldMismatchError("mixed fields")
            return other.code
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.field.add(self.code, c))

    __radd__ = __add__

    def __sub__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.field.sub(self.code, c))

    def __mul__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.field.mul(self.code, c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return GFElement(self.field, self.field.div(self.code, c))

    def __neg__(self):
        return GFElement(self.field, self.field.neg(self.code))

    def __pow__(self, n: int):
        return GFElement(self.field, self.field.pow(self.code, n))

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.field == other.field and self.code == other.code
        if isinstance(other, int):
            return self.code == self.field.scalar(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.code, self.field.q))

    def __repr__(self):
        return f"GF({self.field.q}):{self.field.element_str(self.code)}"


@lru_cache(maxsize=None)
def _triple_image_cached(field: GF) -> frozenset:
    out = set()
    for a in field.elements():
        for b in field.elements():
            out.add(field.mul(field.mul(a, b), field.sub(a, b)))
    return frozenset(out)


def triple_image(field: GF) -> frozenset:
    """The set {a*b*(a-b) : a, b in GF(q)} of element codes."""
    return _triple_image_cached(field)
