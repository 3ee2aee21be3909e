"""Exact coefficient fields: the rationals and odd prime fields F_p.

All higher layers are generic over a *field descriptor* object exposing
``zero``, ``one``, ``char``, element construction via ``__call__`` and the
pivot test ``is_unit`` (true for nonzero elements).
Rational scalars are plain :class:`fractions.Fraction` (already in lowest
terms with positive denominator); prime-field scalars are :class:`FpElement`
values stored as residues in ``[0, p)``.

Characteristic 2 is rejected at construction: the symplectic machinery
divides by 2 in several places.
"""
from __future__ import annotations

from fractions import Fraction


class CharacteristicTwoError(ValueError):
    """A coefficient field of characteristic 2 was requested."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """Descriptor for Q.  A single instance ``QQ`` is exported."""

    char = 0
    is_unit = staticmethod(bool)

    def __call__(self, num=0, den=1):
        if isinstance(num, Fraction) and den == 1:
            return num
        return Fraction(num, den)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def random(self, rng, height=6):
        """Small random rational; denominators kept tiny to avoid blowup."""
        return Fraction(rng.randint(-height, height), rng.randint(1, 3))

    def random_nonzero(self, rng, height=6):
        while True:
            x = self.random(rng, height)
            if x:
                return x

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    """Residue modulo an odd prime, with full arithmetic operators."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields: F_%d vs F_%d" % (self.p, other.p))
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.p, w - self.v)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.p, self.v * pow(w, self.p - 2, self.p))

    def __rtruediv__(self, other):
        w = self._coerce(other)
        if w is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.p, w * pow(self.v, self.p - 2, self.p))

    def __pow__(self, e: int):
        if e < 0:
            return (FpElement(self.p, 1) / self) ** (-e)
        return FpElement(self.p, pow(self.v, e, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash(("Fp", self.p, self.v))

    def __repr__(self):
        return "%d mod %d" % (self.v, self.p)


class PrimeField:
    """Descriptor for F_p, p an odd prime (p = 2 is rejected)."""

    is_unit = staticmethod(bool)

    def __init__(self, p: int):
        if p == 2:
            raise CharacteristicTwoError("characteristic 2 is not supported")
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p

    @property
    def char(self):
        return self.p

    def __call__(self, v=0):
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise ValueError("element of F_%d given to F_%d" % (v.p, self.p))
            return v
        return FpElement(self.p, v)

    @property
    def zero(self):
        return FpElement(self.p, 0)

    @property
    def one(self):
        return FpElement(self.p, 1)

    def elements(self):
        for v in range(self.p):
            yield FpElement(self.p, v)

    def random(self, rng, height=None):
        return FpElement(self.p, rng.randrange(self.p))

    def random_nonzero(self, rng, height=None):
        return FpElement(self.p, rng.randrange(1, self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


def GF(p: int) -> PrimeField:
    return PrimeField(p)
