"""Truncated polynomial rings R_K = F[t]/(t^K).

R_K is a local ring: every element is t^v · unit (v = t-adic valuation), so
Gaussian elimination with unit pivots and a t-local Smith normal form are
available.  A TruncPoly always carries exactly K coefficients; arithmetic
silently truncates at t^K.  Matrices over R_K are handled by `linalg` with
the ring descriptor `TruncRing(field, K)`; this module adds what needs
valuations (the t-local Smith normal form) and the hashable matrix key
`tmat_key` for group closures.
"""
from __future__ import annotations

from .linalg import identity, mat_mul


class NotAUnitError(ArithmeticError):
    """Inversion of a non-unit (constant term zero) was attempted."""


class TruncPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs, K=None):
        coeffs = list(coeffs)
        if K is None:
            K = len(coeffs)
        z = field.zero
        if len(coeffs) < K:
            coeffs = coeffs + [z] * (K - len(coeffs))
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

    @classmethod
    def t(cls, field, K):
        return cls(field, [field.zero, field.one], K)

    @classmethod
    def const(cls, field, c, K):
        return cls(field, [field(c)], K)

    # -- basic queries -----------------------------------------------------
    @property
    def prec(self):
        return len(self.coeffs)

    def __getitem__(self, s):
        return self.coeffs[s]

    def constant(self):
        return self.coeffs[0]

    def is_unit(self):
        return bool(self.coeffs[0])

    def valuation(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.prec

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

    def inv(self):
        """Multiplicative inverse mod t^K; requires a unit."""
        if not self.is_unit():
            raise NotAUnitError("constant term is zero")
        K = self.prec
        c0inv = self.field.one / self.coeffs[0]
        out = [c0inv]
        for n in range(1, K):
            acc = self.field.zero
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * out[n - i]
            out.append(-c0inv * acc)
        return TruncPoly(self.field, out)

    def __truediv__(self, other):
        o = self._check(other)
        return self * o.inv()

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        r = TruncPoly.one(self.field, self.prec)
        for _ in range(e):
            r = r * self
        return r

    # -- t-power plumbing ---------------------------------------------------
    def shift(self, s):
        """Multiply by t^s."""
        z = self.field.zero
        return TruncPoly(self.field, [z] * s + list(self.coeffs), self.prec)

    def divide_t(self, s):
        """Exact division by t^s; raises if any low coefficient is nonzero."""
        if any(bool(c) for c in self.coeffs[:s]):
            raise ValueError("not divisible by t^%d" % s)
        return TruncPoly(self.field, list(self.coeffs[s:]), self.prec)

    def truncate(self, j):
        """Reduce mod t^j (coefficients >= j zeroed; precision kept)."""
        z = self.field.zero
        return TruncPoly(self.field,
                         [c if i < j else z for i, c in enumerate(self.coeffs)],
                         self.prec)

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
    (``zero``, ``one``, ``__call__``, ``is_unit``) so that every `linalg`
    routine runs over it."""

    is_unit = staticmethod(TruncPoly.is_unit)

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


# the product that callers pass to `spgroup.group_closure` with `tmat_key`
tmat_mul = mat_mul


def tmat_key(A):
    """Hashable key of a matrix over R_K (used for group closures)."""
    return tuple(tuple(x.coeffs for x in row) for row in A)


def smith_form_t(A):
    """t-local Smith normal form over R_K.

    Returns (U, D, V) with U·A·V = D, U and V invertible over R_K, and D
    diagonal with entries t^{d_1} | t^{d_2} | ... (d_i nondecreasing; the
    zero entry is t^K).  Pivots are chosen by minimal t-valuation with ties
    broken by lowest (row, col), so the output is deterministic.
    """
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], [row[:] for row in A], []
    R = TruncRing(A[0][0].field, A[0][0].prec)
    K = R.K
    D = [row[:] for row in A]
    U = identity(R, nr)
    V = identity(R, nc)
    for s in range(min(nr, nc)):
        best, bv = None, K
        for i in range(s, nr):
            for j in range(s, nc):
                v = D[i][j].valuation()
                if v < bv:
                    best, bv = (i, j), v
        if best is None or bv >= K:
            break
        bi, bj = best
        if bi != s:
            D[s], D[bi] = D[bi], D[s]
            U[s], U[bi] = U[bi], U[s]
        if bj != s:
            for row in D:
                row[s], row[bj] = row[bj], row[s]
            for row in V:
                row[s], row[bj] = row[bj], row[s]
        unit = D[s][s].divide_t(bv)
        uinv = unit.inv()
        D[s] = [uinv * x for x in D[s]]
        U[s] = [uinv * x for x in U[s]]
        for i in range(nr):
            if i != s and D[i][s]:
                q = D[i][s].divide_t(bv)
                D[i] = [x - q * y for x, y in zip(D[i], D[s])]
                U[i] = [x - q * y for x, y in zip(U[i], U[s])]
        for j in range(nc):
            if j != s and D[s][j]:
                q = D[s][j].divide_t(bv)
                for row in D:
                    row[j] = row[j] - q * row[s]
                for vrow in V:
                    vrow[j] = vrow[j] - q * vrow[s]
    return U, D, V


def smith_divisors(D, ncols=None):
    """Column orders from a Smith form: d_j = valuation of the diagonal
    entry (K when absent or zero)."""
    if not D:
        return []
    K = D[0][0].prec
    nc = ncols if ncols is not None else len(D[0])
    out = []
    for j in range(nc):
        out.append(D[j][j].valuation() if j < len(D) else K)
    return out
