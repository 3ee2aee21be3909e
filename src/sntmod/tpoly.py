"""Truncated polynomial rings R_K = F[t]/(t^K) and exact linear algebra over them.

R_K is a local ring: every element is t^v · unit (v = t-adic valuation), so
Gaussian elimination with unit pivots and a t-local Smith normal form are
available.  A TruncPoly always carries exactly K coefficients; arithmetic
silently truncates at t^K.
"""
from __future__ import annotations

from .linalg import rref as _rref, transpose as _transpose


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


# --------------------------------------------------------------------------
# matrices over R_K (lists of lists of TruncPoly)
# --------------------------------------------------------------------------

def tmat_zero(field, K, r, c):
    z = TruncPoly.zero(field, K)
    return [[z for _ in range(c)] for _ in range(r)]


def tmat_identity(field, K, n):
    z = TruncPoly.zero(field, K)
    o = TruncPoly.one(field, K)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def tmat_from_scalars(field, K, A):
    """Lift a field-scalar matrix to constant polynomials."""
    return [[TruncPoly(field, [x], K) for x in row] for row in A]


def tmat_mul(A, B):
    Bt = _transpose(B)
    out = []
    for row in A:
        new = []
        for col in Bt:
            acc = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                acc = acc + a * b
            new.append(acc)
        out.append(new)
    return out


def tmat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def tmat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def tmat_transpose(A):
    return _transpose(A)


def tmat_eq(A, B):
    return len(A) == len(B) and all(
        all(a == b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def tmat_key(A):
    """Hashable key (used for group closures)."""
    return tuple(tuple(x.coeffs for x in row) for row in A)


def tvec_mat(v, A):
    At = _transpose(A)
    out = []
    for col in At:
        acc = v[0] * col[0]
        for a, b in zip(v[1:], col[1:]):
            acc = acc + a * b
        out.append(acc)
    return out


def tmat_inverse(A):
    """Inverse over R_K via Gauss-Jordan with unit pivots.

    A square matrix over the local ring is invertible iff its reduction
    mod t is invertible; raises NotAUnitError otherwise.
    """
    n = len(A)
    if n == 0:
        return []
    field, K = A[0][0].field, A[0][0].prec
    I = tmat_identity(field, K, n)
    R, pivots = _rref(field, [row[:] + I[i] for i, row in enumerate(A)],
                      TruncPoly.is_unit)
    if pivots != list(range(n)):
        raise NotAUnitError("matrix not invertible over the truncated ring")
    return [row[n:] for row in R]


def tmat_solve_right(A, b):
    """One solution y of A yᵀ = b over R_K, or None.

    Elimination uses unit pivots only; sufficient whenever the reduction of
    A mod t has full row rank (the only case the package needs).
    """
    nr = len(A)
    if nr == 0:
        return []
    nc = len(A[0])
    field, K = A[0][0].field, A[0][0].prec
    R, pivots = _rref(field, [A[i][:] + [b[i]] for i in range(nr)],
                      TruncPoly.is_unit)
    if nc in pivots:
        return None
    z = TruncPoly.zero(field, K)
    y = [z] * nc
    for rr, c in enumerate(pivots):
        y[c] = R[rr][nc]
    # consistency check
    for i in range(nr):
        acc = z
        for j in range(nc):
            acc = acc + A[i][j] * y[j]
        if acc != b[i]:
            return None
    return y


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
    field, K = A[0][0].field, A[0][0].prec
    D = [row[:] for row in A]
    U = tmat_identity(field, K, nr)
    V = tmat_identity(field, K, nc)
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
