"""Exact arithmetic of the benchmark's own, used to make inputs and to check
outputs independently of the program under test.

Scalars are `fractions.Fraction` over Q and plain ints in [0, p) over F_p.
A field is described by `Q` or by `Zp(p)`; both expose the same few
operations, so each routine below is written once.  Truncated polynomials
are lists of K coefficients, ascending.
"""
from __future__ import annotations

from fractions import Fraction


class _Q:
    p = 0

    def __call__(self, x):
        return Fraction(x)

    def inv(self, x):
        return 1 / Fraction(x)

    def __repr__(self):
        return "Q"


class Zp:
    def __init__(self, p):
        self.p = p

    def __call__(self, x):
        return int(x) % self.p

    def inv(self, x):
        x %= self.p
        if not x:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(x, self.p - 2, self.p)

    def __repr__(self):
        return "F%d" % self.p


Q = _Q()


def red(F, x):
    return x % F.p if F.p else x


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------

def zeros(r, c):
    return [[0] * c for _ in range(r)]


def transpose(A):
    return [list(c) for c in zip(*A)]


def mul(F, A, B):
    Bt = transpose(B)
    return [[red(F, sum(a * b for a, b in zip(row, col))) for col in Bt]
            for row in A]


def eq(F, A, B):
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(red(F, a - b) == 0 for a, b in zip(ra, rb))
        for ra, rb in zip(A, B))


def is_zero(F, A):
    return all(red(F, a) == 0 for row in A for a in row)


def rref_rank(F, rows):
    """Rank by Gauss-Jordan elimination."""
    R = [[F(x) for x in row] for row in rows]
    rank, nc = 0, len(R[0]) if R else 0
    for c in range(nc):
        piv = next((i for i in range(rank, len(R)) if R[i][c]), None)
        if piv is None:
            continue
        R[rank], R[piv] = R[piv], R[rank]
        inv = F.inv(R[rank][c])
        R[rank] = [red(F, inv * x) for x in R[rank]]
        for i in range(len(R)):
            if i != rank and R[i][c]:
                f = R[i][c]
                R[i] = [red(F, x - f * y) for x, y in zip(R[i], R[rank])]
        rank += 1
    return rank


def inverse(F, A):
    n = len(A)
    R = [[F(x) for x in row] + [1 if i == j else 0 for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        piv = next((i for i in range(c, n) if R[i][c]), None)
        if piv is None:
            return None
        R[c], R[piv] = R[piv], R[c]
        inv = F.inv(R[c][c])
        R[c] = [red(F, inv * x) for x in R[c]]
        for i in range(n):
            if i != c and R[i][c]:
                f = R[i][c]
                R[i] = [red(F, x - f * y) for x, y in zip(R[i], R[c])]
    return [row[n:] for row in R]


def random_invertible(F, n, rng, height=2):
    while True:
        A = [[F(rng.randint(-height, height)) for _ in range(n)] for _ in range(n)]
        Ainv = inverse(F, A)
        if Ainv is not None:
            return A, Ainv


# --------------------------------------------------------------------------
# standard snt-modules (row convention: t and group elements act on the right)
# --------------------------------------------------------------------------

def standard_module(ks):
    """(T, G) of H_{k_1} ⊕ ... ⊕ H_{k_n} on the basis
    e1, t e1, ..., t^{k-1} e1, e2, ..., t^{k-1} e2 of each plane, with
    <t^i e1, t^j e2> = 1 exactly when i + j = k - 1."""
    n = 2 * sum(ks)
    T, G = zeros(n, n), zeros(n, n)
    off = 0
    for k in ks:
        for s in range(k - 1):
            T[off + s][off + s + 1] = 1
            T[off + k + s][off + k + s + 1] = 1
        for i in range(k):
            G[off + i][off + k + (k - 1 - i)] = 1
            G[off + k + (k - 1 - i)][off + i] = -1
        off += 2 * k
    return T, G


def levels(ks):
    """Distinct parts of a partition with their multiplicities."""
    out = []
    for k in ks:
        if out and out[-1][0] == k:
            out[-1][1] += 1
        else:
            out.append([k, 1])
    return [tuple(x) for x in out]


def generator_rows(ks):
    """For each level, the rows of the e1 and e2 generators of its planes."""
    rows, off = [], 0
    for k, m in levels(ks):
        gens = []
        for _ in range(m):
            gens += [off, off + k]
            off += 2 * k
        rows.append((k, gens))
    return rows


# --------------------------------------------------------------------------
# truncated polynomials and matrices over F[t]/(t^K)
# --------------------------------------------------------------------------

def pmul(F, a, b, K):
    out = [0] * K
    for i, x in enumerate(a[:K]):
        if x:
            for j in range(K - i):
                out[i + j] += x * b[j]
    return [red(F, c) for c in out]


def padd(F, a, b):
    return [red(F, x + y) for x, y in zip(a, b)]


def rmul(F, A, B, K):
    """Product of matrices whose entries are K-coefficient lists."""
    Bt = transpose(B)
    out = []
    for row in A:
        new = []
        for col in Bt:
            acc = [0] * K
            for a, b in zip(row, col):
                acc = padd(F, acc, pmul(F, a, b, K))
            new.append(acc)
        out.append(new)
    return out


def const_poly_matrix(F, A, K):
    return [[[F(x)] + [0] * (K - 1) for x in row] for row in A]


def chain_act(F, ks, coords, g):
    """x · g for x in M_- ⊗ V in chain coordinates (row t^s f_i of chain i)
    and g a ring matrix over F[t]/(t^K) acting on the V side."""
    K, n = ks[0], len(coords[0])
    out = zeros(len(coords), n)
    off = 0
    for k in ks:
        w = [[coords[off + s][l] if s < k else 0 for s in range(K)]
             for l in range(n)]
        img = rmul(F, [w], g, K)[0]
        for l in range(n):
            for s in range(k):
                out[off + s][l] = img[l][s]
        off += k
    return out


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def is_square(x, p):
    x %= p
    return x == 0 or pow(x, (p - 1) // 2, p) == 1


def orthogonal_order(q, gram_det, d, k=1):
    """|O(V)(F_q[t]/(t^k))| for a nondegenerate quadratic space of dimension
    d over F_q, q odd: the residue group order times q^{(k-1) d(d-1)/2}."""
    m = d // 2
    if d % 2:
        order = 2 * q ** (m * m)
        for i in range(1, m + 1):
            order *= q ** (2 * i) - 1
    else:
        eps = 1 if is_square((-1) ** m * gram_det, q) else -1
        order = 2 * q ** (m * (m - 1)) * (q ** m - eps)
        for i in range(1, m):
            order *= q ** (2 * i) - 1
    return order * q ** ((k - 1) * d * (d - 1) // 2)


# --------------------------------------------------------------------------
# reading the program's values and files
# --------------------------------------------------------------------------

def own_scalar(F, x):
    """A program scalar (Fraction or F_p residue object) as an own scalar."""
    if F.p:
        return int(getattr(x, "v", x)) % F.p
    return Fraction(x)


def own_matrix(F, A):
    return [[own_scalar(F, x) for x in row] for row in A]


def own_ring_matrix(F, A, K):
    """A matrix of program truncated polynomials as coefficient lists."""
    return [[[own_scalar(F, c) for c in p.coeffs][:K] for p in row] for row in A]


def parse_scalar(F, s):
    """An exact scalar in the file format: "3/4", "5" or "2 mod 5"."""
    s = str(s).strip()
    if " mod " in s:
        r, p = s.split(" mod ")
        if int(p) != F.p:
            raise ValueError("residue %r is not in %r" % (s, F))
        return int(r) % F.p
    x = Fraction(s)
    return x.numerator * F.inv(x.denominator) % F.p if F.p else x


def scalar_text(F, x):
    if F.p:
        return "%d mod %d" % (x % F.p, F.p)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        "%d/%d" % (x.numerator, x.denominator)


def field_json(F):
    return {"type": "GF", "p": F.p} if F.p else {"type": "Q"}
