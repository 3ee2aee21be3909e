"""Truncated polynomial rings R_K = F[t]/(t^K).

A TruncPoly always carries exactly K coefficients; arithmetic silently
truncates at t^K.  Matrices over R_K are products and inverses in `linalg`
(on int layers, the inverse by t-adic lifting) with the ring descriptor
`TruncRing(field, K)`; ring systems and the t-local Smith reduction run on
int layers where they are used (`linalg._lift_solve` for `witt` and
`spgroup.cayley`, `sntmodule._smith_orders` for `quasi_basis`), and their
boxed oracles live in the tests.  `tmat_mul` (which is `linalg.mat_mul`)
and the hashable matrix key `tmat_key` are the pair that sends
`spgroup.group_closure` over F_p[t]/(t^K) to its packed-int path; with any
other pair it runs its generic BFS.
"""
from __future__ import annotations

from .linalg import mat_mul


class TruncPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, K=None):
        coeffs = list(coeffs)
        if K is None:
            K = len(coeffs)
        if len(coeffs) < K:
            coeffs = coeffs + [field.zero] * (K - len(coeffs))
        elif len(coeffs) > K:
            coeffs = coeffs[:K]
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field, K):
        return cls(field, [], K)

    @classmethod
    def one(cls, field, K):
        return cls(field, [field.one], K)

    # -- basic queries -----------------------------------------------------
    @property
    def prec(self):
        return len(self.coeffs)

    def __getitem__(self, s):
        return self.coeffs[s]

    def constant(self):
        return self.coeffs[0]

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------
    def _check(self, other):
        if isinstance(other, TruncPoly):
            if other.prec != self.prec:
                raise ValueError("mismatched truncation orders %d vs %d"
                                 % (self.prec, other.prec))
            if other.field != self.field:
                raise ValueError("mismatched coefficient fields")
            return other
        # scalars (field elements or ints) become constants
        return TruncPoly(self.field, [self.field(other)], self.prec)

    def __add__(self, other):
        o = self._check(other)
        return TruncPoly(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        return TruncPoly(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._check(other)
        return o - self

    def __neg__(self):
        return TruncPoly(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._check(other)
        K = self.prec
        z = self.field.zero
        out = [z] * K
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(K - i):
                b = o.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers of a TruncPoly are not supported")
        r = TruncPoly.one(self.field, self.prec)
        for _ in range(e):
            r = r * self
        return r

    # -- t-power plumbing ---------------------------------------------------
    def shift(self, s):
        """Multiply by t^s."""
        z = self.field.zero
        return TruncPoly(self.field, [z] * s + list(self.coeffs), self.prec)

    # -- misc ---------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, TruncPoly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == TruncPoly(self.field, [self.field(other)], self.prec)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("(%s)*t" % c)
            else:
                terms.append("(%s)*t^%d" % (c, i))
        body = " + ".join(terms) if terms else "0"
        return "%s (mod t^%d)" % (body, self.prec)


def tp(field, K, *coeffs):
    return TruncPoly(field, [field(c) for c in coeffs], K)


class TruncRing:
    """Descriptor for R_K = F[t]/(t^K), shaped like the field descriptors
    (``zero``, ``one``, ``__call__``)."""

    def __init__(self, field, K):
        self.field = field
        self.K = K
        self.zero = TruncPoly.zero(field, K)
        self.one = TruncPoly.one(field, K)

    def __call__(self, c):
        """The constant polynomial c."""
        return TruncPoly(self.field, [self.field(c)], self.K)

    def __repr__(self):
        return "TruncRing(%r, %d)" % (self.field, self.K)


# with `tmat_key`, the pair that `spgroup.group_closure` runs on packed ints
tmat_mul = mat_mul


def tmat_key(A):
    """Hashable key of a matrix over R_K (used for group closures)."""
    return tuple(tuple(x.coeffs for x in row) for row in A)

