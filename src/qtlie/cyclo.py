"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the canonical basis 1, z, ..., z^(phi(L)-1) where z is a
primitive L-th root of unity, reduced modulo the L-th cyclotomic polynomial.
A value is a tuple of arbitrary-precision integer numerators over one positive
denominator, kept canonical (the denominator is coprime to the numerators, and
zero is 0/1), so equality of values is exactly equality of (numerators,
denominator).  Phi_L is monic with integer coefficients, so reducing a product
needs only integer arithmetic, and each operation ends with one gcd.
"""
from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, InvariantViolated, ParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _rat_poly_divmod(num, den):
    num = list(num)
    dn = len(den)
    q = [_ZERO] * max(len(num) - dn + 1, 0)
    inv_lead = _ONE / den[-1]
    for k in range(len(num) - dn, -1, -1):
        c = num[k + dn - 1] * inv_lead
        q[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    return _poly_trim(q), _poly_trim(num)


def _poly_derivative(p):
    return [i * c for i, c in enumerate(p) if i]


def _poly_gcd(a, b):
    """Monic gcd of two trimmed rational polynomials, not both zero."""
    while b:
        a, b = b, _rat_poly_divmod(a, b)[1]
    inv_lead = _ONE / a[-1]
    return [c * inv_lead for c in a]


def _divisors(n: int) -> list[int]:
    """Positive divisors of a nonzero integer, by trial division."""
    n, out, p = abs(n), [1], 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out = [d * p**i for d in out for i in range(e + 1)]
        p += 1
    return out


def proper_factor_over_q(poly):
    """A monic factor over Q of a monic rational polynomial of degree >= 2 (low
    degree first), proper and of positive degree, or None if none is found.

    The factor is the square-free part poly / gcd(poly, poly') when some factor
    repeats, else x - r for a rational root r (rational root theorem on the
    integer-cleared coefficients).  None means poly is square-free without
    rational roots; it may still factor into pieces of degree >= 2.
    """
    sqfree = _rat_poly_divmod(poly, _poly_gcd(poly, _poly_derivative(poly)))[0]
    if len(sqfree) < len(poly):
        return sqfree
    den = math.lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    if ints[0] == 0:
        return [_ZERO, _ONE]
    for q in _divisors(ints[-1]):
        for p in _divisors(ints[0]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                value = 0
                for c in reversed(ints):
                    value = value * r + c
                if value == 0:
                    return [-r, _ONE]
    return None


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Integer coefficients of the L-th cyclotomic polynomial, low degree first."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if L == 1:
        return (-1, 1)
    poly = [-1] + [0] * (L - 1) + [1]  # x^L - 1
    for d in range(1, L):
        if L % d == 0:
            poly, rem = _rat_poly_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise InvariantViolated(f"Phi_{d} does not divide x^{L} - 1 exactly")
    return tuple(int(c) for c in poly)  # a quotient by monic integer divisors


class CycloField:
    """The field Q(zeta_L) with its integer power-basis reduction tables."""

    __slots__ = ("L", "phi", "poly", "_zpow", "_reduce", "_roots", "_exponent", "_skews", "zero", "one")

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("L must be >= 1")
        self.L = L
        self.poly = cyclotomic_polynomial(L)
        phi = self.phi = len(self.poly) - 1
        # z^j in the canonical basis for 0 <= j <= max(L-1, 2*phi-2): every root
        # of unity, and every power that a product of two reduced elements reaches
        cur = [1] + [0] * (phi - 1)
        zpow = [tuple(cur)]
        for _ in range(max(L - 1, 2 * phi - 2)):
            carry = cur[-1]  # z * cur, reduced by the monic Phi_L
            cur = [0] + cur[:-1]
            if carry:
                cur = [c - carry * p for c, p in zip(cur, self.poly)]
            zpow.append(tuple(cur))
        self._zpow = tuple(zpow)
        # the nonzero entries (i, c) of z^j, for the powers phi <= j <= 2*phi-2
        self._reduce = tuple((j, tuple((i, c) for i, c in enumerate(zpow[j]) if c))
                             for j in range(phi, 2 * phi - 1))
        self.zero = _make(self, (0,) * phi, 1)  # the shared zero, which + and - add for free
        # the L roots of unity, built once; z^0 is the shared unit that
        # CycloNum.__mul__ multiplies by for free
        self._roots = tuple(_make(self, zpow[j], 1) for j in range(L))
        self.one = self._roots[0]
        # the exponent j of each shared root object, keyed by identity, and the
        # skews z^a - z^b between them, one shared object per a * L + b, which
        # torus.sigma_skew fills as it meets them
        self._exponent = {id(r): j for j, r in enumerate(self._roots)}
        self._skews = {}

    def __repr__(self):
        return f"CycloField(L={self.L})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.L == self.L

    def __hash__(self):
        return hash(("CycloField", self.L))

    def root(self, j: int) -> "CycloNum":
        """The root of unity z^j in canonical form (z^0 is `one`)."""
        return self._roots[j % self.L]

    def from_rational(self, value) -> "CycloNum":
        """A rational as an element of this field; the ints 0 and 1 give `zero` and `one` themselves."""
        tail = self.zero.num[1:]
        if type(value) is int:
            if value == 0:
                return self.zero
            return self.one if value == 1 else _make(self, (value,) + tail, 1)
        c = value if type(value) is Fraction else Fraction(value)
        return _make(self, (c.numerator,) + tail, c.denominator)

    def coerce(self, value) -> "CycloNum":
        """A CycloNum unchanged; an int or Fraction as an element of this field."""
        return value if isinstance(value, CycloNum) else self.from_rational(value)

    def element(self, coeffs) -> "CycloNum":
        """The element with the given rational coefficients in the power basis."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.phi:
            raise DimensionMismatch(f"expected {self.phi} coefficients, got {len(coeffs)}")
        den = math.lcm(*(c.denominator for c in coeffs))
        return CycloNum(self, [c.numerator * (den // c.denominator) for c in coeffs], den)


@lru_cache(maxsize=None)
def make_field(L: int) -> CycloField:
    return CycloField(L)


_new = object.__new__


def _make(field: CycloField, num: tuple[int, ...], den: int) -> "CycloNum":
    """A CycloNum from numerators and a denominator that are already canonical."""
    out = _new(CycloNum)
    out.field = field
    out.num = num
    out.den = den
    return out


def _reduced(field: CycloField, num: list[int], den: int) -> "CycloNum":
    """A CycloNum from integer numerators over a positive denominator: one gcd
    brings them to canonical form (with den == 1 they already are)."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return _make(field, tuple([c // g for c in num]), den // g)
    return _make(field, tuple(num), den)


class CycloNum:
    """An element of Q(zeta_L) in canonical form: integer numerators `num` over
    the power basis and one denominator `den`, with den > 0,
    gcd(den, *num) == 1, and zero as (0, ..., 0) / 1.  Immutable."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num, den: int = 1):
        """Any integer numerators over a nonzero integer denominator, stored
        in canonical form."""
        num = tuple(num)
        if len(num) != field.phi:
            raise DimensionMismatch(f"expected {field.phi} coefficients, got {len(num)}")
        if not all(isinstance(c, int) for c in num + (den,)):
            raise TypeError("numerators and denominator must be integers")
        if den == 0:
            raise ZeroDivisionError("cyclotomic number with denominator 0")
        sign = 1 if den > 0 else -1
        g = math.gcd(den, *num) * sign
        self.field = field
        self.num = tuple(int(c) // g for c in num)
        self.den = int(den) // g

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field is not self.field and other.field.L != self.field.L:
                raise DimensionMismatch("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        field = self.field
        if type(other) is not CycloNum or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        zero = field.zero
        if other is zero:  # accumulators and zero entries start as the shared zero
            return self
        if self is zero:
            return other
        a, b, da, db = self.num, other.num, self.den, other.den
        if len(a) == 1:  # phi = 1: one gcd on the one numerator
            if da == db:
                n = a[0] + b[0]
            else:
                n = a[0] * db + b[0] * da
                da *= db
            g = math.gcd(n, da)
            return _make(field, (n // g,), da // g)
        if da == db:
            num = [x + y for x, y in zip(a, b)]
        else:
            num = [x * db + y * da for x, y in zip(a, b)]
            da *= db
        return _reduced(field, num, da)

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if type(other) is not CycloNum or other.field is not field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        zero = field.zero
        if other is zero:
            return self
        if self is zero:
            return -other
        a, b, da, db = self.num, other.num, self.den, other.den
        if len(a) == 1:  # phi = 1: one gcd on the one numerator
            if da == db:
                n = a[0] - b[0]
            else:
                n = a[0] * db - b[0] * da
                da *= db
            g = math.gcd(n, da)
            return _make(field, (n // g,), da // g)
        if da == db:
            num = [x - y for x, y in zip(a, b)]
        else:
            num = [x * db - y * da for x, y in zip(a, b)]
            da *= db
        return _reduced(field, num, da)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.field, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        field = self.field
        if isinstance(other, CycloNum):
            if other.field is not field and other.field.L != field.L:
                raise DimensionMismatch("mixed cyclotomic fields")
        elif isinstance(other, int):
            # a rational factor has degree 0: scaling needs no reduction mod Phi_L
            return _reduced(field, [a * other for a in self.num], self.den)
        elif isinstance(other, Fraction):
            return _reduced(field, [a * other.numerator for a in self.num], self.den * other.denominator)
        else:
            return NotImplemented
        if self is field.one:  # basis elements and trivial pairings hold the shared unit
            return other
        if other is field.one:
            return self
        a, b = self.num, other.num
        den = self.den * other.den
        phi = field.phi
        if phi == 1:  # E1, E3, E5; with the same path in + and -, a fifth off functor's wall_s
            return _reduced(field, [a[0] * b[0]], den)
        prod = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        out = prod[:phi]
        for j, zj in field._reduce:  # z^j for j >= phi, in the canonical basis
            c = prod[j]
            if c:
                for i, zji in zj:
                    out[i] += c * zji
        return _reduced(field, out, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse: the product of the conjugates sigma_j(a),
        j != 1 a unit mod L and sigma_j: z -> z^j, over the norm N(a), which is
        a times that product and rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        field = self.field
        L, zpow = field.L, field._zpow
        conjugates = field.one
        for j in range(2, L):  # empty for L <= 2, where phi = 1
            if math.gcd(j, L) == 1:
                num = [0] * field.phi
                for i, c in enumerate(self.num):
                    if c:
                        for k, zk in enumerate(zpow[i * j % L]):
                            num[k] += c * zk
                conjugates = conjugates * _reduced(field, num, self.den)
        norm = self * conjugates
        if not norm.is_rational():
            raise InvariantViolated(f"norm {norm} of {self} is not rational")
        out = conjugates * Fraction(norm.den, norm.num[0])
        if not (out * self).is_one():
            raise InvariantViolated("computed inverse does not multiply to one")
        return out

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, CycloNum) and other.field.L != self.field.L:
            # across fields only rational values are compared; arithmetic still raises
            return (self.is_rational() and other.is_rational()
                    and self.num[0] == other.num[0] and self.den == other.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a rational value equals (and so hashes as) its int or Fraction; an
        # int hashes as the Fraction of the same value, so with den == 1 the
        # numerators hash as the coefficient tuple
        if self.is_rational():
            return hash(self.num[0]) if self.den == 1 else hash(Fraction(self.num[0], self.den))
        return hash((self.field.L, self.num if self.den == 1 else self.coeffs))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients over the power basis (for output, not arithmetic)."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num == self.field.one.num

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    def approx(self) -> complex:
        """Floating approximation, for diagnostics only (never used in decisions)."""
        z = cmath.exp(2j * cmath.pi / self.field.L)
        return sum(complex(c) * z**j for j, c in enumerate(self.coeffs))

    def serialize(self) -> str:
        body = ",".join(f"{c.numerator}/{c.denominator}" for c in self.coeffs)
        return f"{self.field.L}:[{body}]"

    def __repr__(self):
        return f"CycloNum({self.serialize()})"

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}z^{j}" if j > 1 else f"{mag}z"
                parts.append(term if c > 0 else "-" + term)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def parse_cyclonum(text: str, field: CycloField | None = None) -> CycloNum:
    """Parse the `L:[p/q,...]` serialization (bit-exact round trip)."""
    try:
        head, _, body = text.partition(":")
        L = int(head)
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError
        items = body[1:-1].split(",") if body != "[]" else []
        coeffs = [Fraction(item.strip()) for item in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad cyclotomic number {text!r}") from exc
    fld = field if field is not None else make_field(L)
    if fld.L != L:
        raise ParseError(f"field order mismatch: {L} vs {fld.L}")
    if len(coeffs) != fld.phi:
        raise ParseError(f"expected {fld.phi} coefficients, got {len(coeffs)}")
    return fld.element(coeffs)


# One term of the printed form: a rational, or `c*z`, `c*z^j`, `z`, `z^j`.
_POWER_TERM = re.compile(r"(-?)(?:(\d+(?:/\d+)?)|(?:(\d+(?:/\d+)?)\*)?z(?:\^(\d+))?)")


def parse_scalar(text: str, field: CycloField) -> CycloNum:
    """Parse a plain rational (`3`, `-1/2`), a serialized CycloNum, or the
    printed form of a CycloNum (`-2 - 4*z`, `1/2 + z^2`)."""
    text = text.strip()
    if ":" in text:
        return parse_cyclonum(text, field)
    try:
        if "z" not in text:
            return field.from_rational(Fraction(text))
        out = field.zero
        for term in text.replace(" - ", " + -").split(" + "):
            m = _POWER_TERM.fullmatch(term.strip())
            if not m:
                raise ValueError
            sign, rational, coeff, power = m.groups()
            value = Fraction(rational) if rational else Fraction(coeff or 1) * field.root(int(power or 1))
            out = out - value if sign else out + value
        return out
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}") from exc
