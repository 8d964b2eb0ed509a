"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are stored in the canonical basis 1, z, ..., z^(phi(L)-1) where z is a
primitive L-th root of unity, reduced modulo the L-th cyclotomic polynomial.
Coefficients are arbitrary-precision rationals, so equality of values is
exactly equality of coefficient tuples.
"""
from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolated, ParseError

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


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


def _poly_sub(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


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
    """The field Q(zeta_L) with its canonical power-basis reduction tables."""

    __slots__ = ("L", "phi", "poly", "_powers", "zero", "one")

    def __init__(self, L: int):
        if L < 1:
            raise ValueError("L must be >= 1")
        self.L = L
        poly = cyclotomic_polynomial(L)
        self.phi = len(poly) - 1
        self.poly = tuple(Fraction(c) for c in poly)
        # z^j in the canonical basis, for phi <= j <= max(L-1, 2*phi-2).
        top = max(L - 1, 2 * self.phi - 2)
        powers: dict[int, tuple[Fraction, ...]] = {}
        cur = [_ONE] + [_ZERO] * (self.phi - 1)  # z^0
        for j in range(1, top + 1):  # z^j = z * z^(j-1), reduced by Phi_L
            carry = cur[-1]
            cur = [_ZERO] + cur[:-1]
            if carry:
                for i in range(self.phi):
                    cur[i] -= carry * self.poly[i]
            if j >= self.phi:
                powers[j] = tuple(cur)
        self._powers = powers
        self.zero = CycloNum(self, (_ZERO,) * self.phi)
        self.one = CycloNum(self, (_ONE,) + (_ZERO,) * (self.phi - 1))

    def __repr__(self):
        return f"CycloField(L={self.L})"

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.L == self.L

    def __hash__(self):
        return hash(("CycloField", self.L))

    def power_basis(self, j: int) -> tuple[Fraction, ...]:
        """Coefficients of z^j (0 <= j) in the canonical basis."""
        j %= self.L
        if j < self.phi:
            coeffs = [_ZERO] * self.phi
            coeffs[j] = _ONE
            return tuple(coeffs)
        return self._powers[j]

    def root(self, j: int) -> "CycloNum":
        """The root of unity z^j in canonical form."""
        return CycloNum(self, self.power_basis(j))

    def from_rational(self, value) -> "CycloNum":
        c = Fraction(value)
        return CycloNum(self, (c,) + (_ZERO,) * (self.phi - 1))

    def coerce(self, value) -> "CycloNum":
        """A CycloNum unchanged; an int or Fraction as an element of this field."""
        return value if isinstance(value, CycloNum) else self.from_rational(value)

    def element(self, coeffs) -> "CycloNum":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.phi:
            raise ValueError(f"expected {self.phi} coefficients, got {len(coeffs)}")
        return CycloNum(self, coeffs)


@lru_cache(maxsize=None)
def make_field(L: int) -> CycloField:
    return CycloField(L)


class CycloNum:
    """An element of Q(zeta_L) in canonical reduced form. Immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.field.L != self.field.L:
                raise ValueError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, CycloNum) and isinstance(other, (int, Fraction)):
            # a rational factor has degree 0: scaling needs no reduction mod Phi_L.
            # CycloNum is tested first: isinstance on Fraction is an ABC check
            return CycloNum(self.field, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        phi = self.field.phi
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = list(prod[:phi])
        for j in range(phi, 2 * phi - 1):
            c = prod[j]
            if c:
                for i, pi in enumerate(self.field.power_basis(j)):
                    if pi:
                        out[i] += c * pi
        return CycloNum(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_L."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # Work with rational polynomials: r0 = Phi_L, r1 = self.
        r0 = list(self.field.poly)
        r1 = _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]  # Bezout coefficients for self
        while True:
            if len(r1) == 1:
                inv = [c / r1[0] for c in s1]
                break
            q, r = _rat_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
            if not r1:
                raise ArithmeticError("element not invertible (non-trivial gcd)")
        coeffs = [_ZERO] * self.field.phi
        for i, c in enumerate(inv):
            coeffs[i] = c
        out = CycloNum(self.field, tuple(coeffs))
        # Inverse may still need reduction if deg(inv) >= phi; multiply check is cheap.
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
            return self.is_rational() and other.is_rational() and self.coeffs[0] == other.coeffs[0]
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a rational value equals (and so hashes as) its int or Fraction
        return hash(self.coeffs[0]) if self.is_rational() else hash((self.field.L, self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.coeffs[0]

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


def arith(a: CycloNum, b: CycloNum, op: str) -> CycloNum:
    """Dispatch helper for the four field operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


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
