"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Rational scalars are plain ``fractions.Fraction`` values (always reduced,
positive denominator).  Prime-field scalars are ``FpElement`` values carrying
their modulus.  Plain ``int`` coerces into either field; mixing two different
moduli, or mixing a prime-field element with a rational, raises
``FieldMismatchError``.  There is no floating point anywhere.

``FpElement`` is the public scalar: parsed files, ``LinMap`` entries and
every value the library hands out.  Inside the two hot layers, the sparse
verifier engine (``sparse``) and row reduction (``linalg._rref``), a GF(p)
scalar is its plain ``int`` instead, so that no object is built per
operation: ``Field.raw`` turns a public scalar into that form, ``Field.lift``
turns it back, and ``Field.reduce`` brings a sparse vector of raw values,
which may have grown past p, to canonical form.  Over Q the raw form is the
``int`` numerator of an integral ``Fraction`` and the ``Fraction`` itself
otherwise: constants are almost always integers, Python's mixed
int/``Fraction`` arithmetic is exact, and int arithmetic builds no object
per operation.  ``Field.lift`` hands out a ``Fraction`` again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache


class FieldMismatchError(TypeError):
    """Arithmetic between scalars of two different exact fields."""


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin bases that decide every n < 2**64 (Jim Sinclair's set)
_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


@cache
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 2**64, on seven bases (one that is
    0 mod n is skipped); above it on the first twelve primes, exact for
    anything we will ever see.  Each verdict is remembered: every field
    built, one per file read, asks again about its modulus."""
    if n < 2:
        return False
    for p in _PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES_64 if n < 2**64 else _PRIMES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of the field with ``p`` elements, p prime."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldMismatchError(
                    f"cannot mix GF({self.p}) with GF({other.p})")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        raise FieldMismatchError(
            f"cannot mix GF({self.p}) with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        return FpElement(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return FpElement(self.value - other.value, self.p)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return FpElement(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def inverse(self) -> "FpElement":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return FpElement(pow(self.value, -1, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"FpElement({self.value}, {self.p})"


@dataclass(frozen=True)
class Field:
    """Descriptor of an exact base field: rationals (p is None) or GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def zero(self):
        return Fraction(0) if self.p is None else FpElement(0, self.p)

    @property
    def one(self):
        return Fraction(1) if self.p is None else FpElement(1, self.p)

    def of(self, n) :
        """Canonical image of an int (or Fraction, rationals only)."""
        if self.p is None:
            return Fraction(n)
        if isinstance(n, Fraction):
            if n.denominator == 1:
                return FpElement(n.numerator, self.p)
            raise FieldMismatchError(f"cannot map {n} into GF({self.p})")
        return FpElement(n, self.p)

    def parse(self, s: str):
        """Parse a scalar string: 'a' or 'a/b' over Q, decimal digits over GF(p)."""
        s = s.strip()
        if self.p is None:
            return Fraction(s)
        if "/" in s:
            raise ValueError(f"'{s}' is not a GF({self.p}) scalar")
        return FpElement(int(s), self.p)

    def raw(self, x):
        """The engine form of a scalar: over GF(p) an int in [0, p), over Q
        an int when the value is integral and the ``Fraction`` otherwise."""
        if self.p is None:
            return x.numerator if x.denominator == 1 else x
        return x.value if isinstance(x, FpElement) else x % self.p

    def lift(self, x):
        """The public scalar of a raw value."""
        if self.p is None:
            return x if type(x) is Fraction else Fraction(x)
        return FpElement(x, self.p)

    def reduce(self, vec: dict) -> dict:
        """A sparse vector of raw values in canonical form: over GF(p) every
        value taken mod p, and zeros dropped."""
        p = self.p
        if p is None:
            return {k: v for k, v in vec.items() if v}
        return {k: r for k, v in vec.items() if (r := v % p)}

    def fmt(self, x) -> str:
        if self.p is None:
            return str(x if type(x) in (int, Fraction) else Fraction(x))
        return str(x % self.p if isinstance(x, int) else x.value)

    def __str__(self):
        return "q" if self.p is None else f"fp:{self.p}"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


def parse_field(s: str) -> Field:
    """Parse a field descriptor: 'q' or 'fp:<p>'."""
    s = s.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        return Field(int(s[3:]))
    raise ValueError(f"unknown field descriptor '{s}'")
