"""Numerical verification of explicit Siegel-Weil identities.

The rank-8 setting: L runs over positive definite even unimodular lattices
(E8 is the whole genus), tau = (tau11, tau12, tau22) is a 2x2 complex
symmetric matrix with positive definite imaginary part, and the identity

    1 + 1/2 * sum_{a>=1,(a,b)=1} sum_{(m,n)=1} (a*Q(m,n) + b)^(-N/2)
      = C * sum_j |Aut_j|^{-1} * sum_{u,v in L_j colinear}
            exp(pi*i*(tau11 (u,u) + 2 tau12 (u,v) + tau22 (v,v)))

holds with Q(m,n) = m^2 tau11 + 2mn tau12 + n^2 tau22 and the mass constant
C fixed by 1 = C sum_j |Aut_j|^{-1}.  Both sides are evaluated with
certified truncation tails; lattice shell counts are exact integers from
recursive Cholesky-bounded enumeration.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .sntmodule import EnumerationGuardError, enum_guard_limit


class TruncationError(RuntimeError):
    """Requested tail target unreachable at the configured bound."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


# --------------------------------------------------------------------------
# lattices and exact shell counts
# --------------------------------------------------------------------------

_E8_GRAM = [
    [2, 0, -1, 0, 0, 0, 0, 0],
    [0, 2, 0, -1, 0, 0, 0, 0],
    [-1, 0, 2, -1, 0, 0, 0, 0],
    [0, -1, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, 0, 0, -1, 2],
]

AUT_E8 = 696729600

# the rank-16 genus has two classes; the automorphism orders are the wreath
# product count for the orthogonal double and 2^15 * 16! for the glued
# lattice (even sign changes times coordinate permutations)
AUT_E8E8 = 2 * AUT_E8 ** 2
AUT_D16_PLUS = 2 ** 15 * math.factorial(16)

_D16_PLUS_GRAM = [
    [4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
    [0, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 2, -2],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2, 4],
]


class IntegralLattice:
    """Positive definite integral lattice given by its Gram matrix."""

    def __init__(self, gram, name=""):
        self.gram = [[int(x) for x in row] for row in gram]
        self.rank = len(self.gram)
        self.name = name
        if any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram must be square")
        if self.gram != [list(r) for r in zip(*self.gram)]:
            raise ValueError("gram must be symmetric")
        if not self._positive_definite():
            raise ValueError("gram must be positive definite")
        self._counts = None
        self._counts_upto = -1

    def _pivots(self):
        """Pivots of exact Gaussian elimination without row swaps, up to
        and including the first non-positive one.  All are positive exactly
        when the gram is positive definite, and their product is then det."""
        A = [[Fraction(x) for x in row] for row in self.gram]
        n = self.rank
        out = []
        for i in range(n):
            piv = A[i][i]
            out.append(piv)
            if piv <= 0:
                break
            for r in range(i + 1, n):
                f = A[r][i] / piv
                A[r] = [x - f * y for x, y in zip(A[r], A[i])]
        return out

    def _positive_definite(self):
        return all(p > 0 for p in self._pivots())

    def det(self):
        return int(math.prod(self._pivots()))

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return self.det() == 1

    def min_norm(self):
        c = self.counts_by_norm(4)
        for n in range(1, len(c)):
            if c[n]:
                return n
        return None

    def counts_by_norm(self, B):
        """Exact vector counts c(n) = #{u : (u,u) = n} for n = 0..B."""
        B = int(B)
        if self._counts is None or self._counts_upto < B:
            self._counts = _enumerate_counts(self.gram, B)
            self._counts_upto = B
        return list(self._counts[:B + 1])

    def vectors_by_norm(self, B):
        """All lattice vectors with (u,u) <= B (enumeration-guarded)."""
        return _enumerate_vectors(self.gram, B)

    def __repr__(self):
        return "IntegralLattice(%s, rank=%d)" % (self.name or "?", self.rank)


def e8():
    return IntegralLattice(_E8_GRAM, name="E8")


def e8e8():
    """The orthogonal double of the rank-8 lattice (first rank-16 class)."""
    z = [[0] * 8 for _ in range(8)]
    gram = [ra + rz for ra, rz in zip(_E8_GRAM, z)] + \
           [rz + ra for ra, rz in zip(_E8_GRAM, z)]
    return IntegralLattice(gram, name="E8+E8")


def d16_plus():
    """The glued doubling of D16 (second rank-16 class).

    Basis computed once from the generators e_i - e_{i+1}, e_15 + e_16 and
    the half-sum glue vector; the Gram below has determinant 1 and even
    diagonal.  Its theta series coincides with that of the orthogonal
    double, while the lattices are not isomorphic.
    """
    return IntegralLattice(_D16_PLUS_GRAM, name="D16+")


def rank16_genus():
    """The two rank-16 classes with their automorphism orders."""
    return [e8e8(), d16_plus()], [AUT_E8E8, AUT_D16_PLUS]


def _cholesky_upper(gram):
    G = np.array(gram, dtype=np.float64)
    L = np.linalg.cholesky(G)
    return L.T.copy()  # upper triangular R with RᵀR = G


def _enumerate_vectors(gram, B):
    """All x in Z^N with xᵀGx <= B, by Cholesky-pruned level enumeration.

    Float bounds are inflated and every survivor is re-checked with exact
    integer arithmetic, so the output is exact.  Raises
    EnumerationGuardError before building a level whose candidate count
    exceeds the enumeration guard.
    """
    limit = enum_guard_limit()
    G = np.array(gram, dtype=np.int64)
    N = len(gram)
    R = _cholesky_upper(gram)
    margin = 0.5
    # process coordinates from the last to the first
    X = np.zeros((1, 0), dtype=np.int64)
    pn = np.zeros(1, dtype=np.float64)
    for i in range(N - 1, -1, -1):
        rii = R[i, i]
        if X.shape[1]:
            t = X @ R[i, i + 1:]
        else:
            t = np.zeros(len(pn))
        rem = B + margin - pn
        keep = rem >= 0
        Xk, tk, pnk = X[keep], t[keep], pn[keep]
        remk = rem[keep]
        half = np.sqrt(np.maximum(remk, 0.0)) / rii
        center = -tk / rii
        lo = np.ceil(center - half).astype(np.int64)
        hi = np.floor(center + half).astype(np.int64)
        cnt = np.maximum(hi - lo + 1, 0)
        total = int(cnt.sum())
        if total > limit:
            raise EnumerationGuardError(
                "lattice enumeration level of %d candidates exceeds the guard %d"
                % (total, limit))
        rows = np.repeat(np.arange(len(Xk)), cnt)
        offsets = np.concatenate([np.arange(c) for c in cnt]) if total else \
            np.zeros(0, dtype=np.int64)
        xi = lo[rows] + offsets
        y = rii * xi + tk[rows]
        X = np.column_stack([xi, Xk[rows]]) if Xk.shape[1] else xi.reshape(-1, 1)
        pn = pnk[rows] + y * y
    if X.shape[0] == 0:
        return np.zeros((0, N), dtype=np.int64), np.zeros(0, dtype=np.int64)
    norms = np.einsum("ij,jk,ik->i", X, G, X)
    ok = norms <= B
    return X[ok], norms[ok]


def _enumerate_counts(gram, B):
    _, norms = _enumerate_vectors(gram, B)
    counts = np.bincount(norms, minlength=B + 1)
    return counts[:B + 1].astype(object).tolist()


def primitive_counts(counts):
    """c_prim from c via c(n) = sum_{d^2 | n} c_prim(n / d^2)."""
    B = len(counts) - 1
    cp = [0] * (B + 1)
    for n in range(1, B + 1):
        s = counts[n]
        d = 2
        while d * d <= n:
            if n % (d * d) == 0:
                s -= cp[n // (d * d)]
            d += 1
        cp[n] = s
    return cp


# --------------------------------------------------------------------------
# number theory helpers (exact)
# --------------------------------------------------------------------------

def bernoulli_number(m):
    """B_m as an exact Fraction (B_1 = -1/2 convention)."""
    A = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        A[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            A[i - 1] = i * (A[i - 1] - A[i])
    return A[0]


def sigma_power(n, k):
    s = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            s += d ** k
            if d != n // d:
                s += (n // d) ** k
        d += 1
    return s


# --------------------------------------------------------------------------
# Siegel upper half space points
# --------------------------------------------------------------------------

@dataclass
class SiegelPoint:
    tau11: complex
    tau12: complex
    tau22: complex

    def __post_init__(self):
        y11, y12, y22 = self.tau11.imag, self.tau12.imag, self.tau22.imag
        if not (y11 > 0 and y11 * y22 - y12 * y12 > 0):
            raise ValueError("imaginary part must be positive definite")

    @property
    def is_diagonal(self):
        return self.tau12 == 0

    def qform(self, m, n):
        """Q(m, n) = m^2 tau11 + 2mn tau12 + n^2 tau22 (upper half plane
        for (m, n) != (0, 0))."""
        return m * m * self.tau11 + 2 * m * n * self.tau12 + n * n * self.tau22

    def im_min_eig(self):
        y11, y12, y22 = self.tau11.imag, self.tau12.imag, self.tau22.imag
        tr, det = y11 + y22, y11 * y22 - y12 * y12
        return (tr - math.sqrt(tr * tr - 4 * det)) / 2


# --------------------------------------------------------------------------
# certified tail helpers
# --------------------------------------------------------------------------

def _shell_tail(N, lam, B):
    """Upper bound for sum_{n > B} (2 sqrt(n) + 1)^N exp(-pi lam n).

    (2 sqrt(n) + 1)^N bounds the shell count of any integral PD lattice of
    rank N by a packing argument (nonzero norms are >= 1)."""
    def f(n):
        return (2 * math.sqrt(n) + 1) ** N * math.exp(-math.pi * lam * n)
    n0 = B + 1
    r = math.exp(-math.pi * lam) * ((2 * math.sqrt(n0 + 1) + 1) /
                                    (2 * math.sqrt(n0) + 1)) ** N
    if r >= 1:
        return math.inf
    return f(n0) / (1 - r)


def _square_shell_tail(lam, R):
    """Upper bound for sum over (m,n) in Z^2 with max(|m|,|n|) > R of
    exp(-pi lam (m^2 + n^2))."""
    def f(k):
        return 8 * k * math.exp(-math.pi * lam * k * k)
    k0 = R + 1
    r = (f(k0 + 1) / f(k0)) if f(k0) > 0 else 0.0
    if r >= 1:
        return math.inf
    return f(k0) / (1 - r)


# --------------------------------------------------------------------------
# theta series
# --------------------------------------------------------------------------

def theta_basic(L, tau, tail_target=1e-12, max_norm=64):
    """Sum over u in L of exp(pi i tau (u,u)), with a certified tail bound.

    Returns (value, tail).  Raises TruncationError when the target cannot
    be certified below `max_norm`.
    """
    lam = tau.imag
    if lam <= 0:
        raise ValueError("Im tau must be positive")
    B = 4
    while True:
        tail = _shell_tail(L.rank, lam, B)
        if tail <= tail_target:
            break
        if B >= max_norm:
            raise TruncationError("theta tail %.3g > target %.3g at norm bound %d"
                                  % (tail, tail_target, B), achieved=tail)
        B += 2
    counts = L.counts_by_norm(B)
    value = 0j
    for n in range(B + 1):
        if counts[n]:
            value += counts[n] * cmath.exp(1j * math.pi * tau * n)
    return value, tail


def _binary_theta(s11, s12, s22, tail_target=1e-14):
    """Sum over (m,n) in Z^2 of exp(pi i (m^2 s11 + 2mn s12 + n^2 s22))."""
    y11, y12, y22 = s11.imag, s12.imag, s22.imag
    tr, det = y11 + y22, y11 * y22 - y12 * y12
    lam = (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2
    if lam <= 0:
        raise ValueError("imaginary part must be positive definite")
    R = 1
    while _square_shell_tail(lam, R) > tail_target:
        R += 1
        if R > 200:
            raise TruncationError("binary theta tail not certifiable",
                                  achieved=_square_shell_tail(lam, R))
    ms = np.arange(-R, R + 1)
    M, Nn = np.meshgrid(ms, ms, indexing="ij")
    phase = 1j * math.pi * (M * M * s11 + 2 * M * Nn * s12 + Nn * Nn * s22)
    value = complex(np.exp(phase).sum())
    return value, _square_shell_tail(lam, R)


def theta_colinear(L, pt, tail_target=1e-11, max_norm=64):
    """Sum over colinear pairs (u, v) of exp(pi i (tau11 (u,u) +
    2 tau12 (u,v) + tau22 (v,v))).

    Nonzero colinear pairs are (m w, n w) with w primitive (unique up to
    sign) and (m, n) != (0, 0); the zero pair contributes 1, so the sum is
    1 + 1/2 sum_w [theta_2((w,w) tau) - 1] grouped by primitive shells.
    """
    lam = pt.im_min_eig()
    B = 4
    tail = math.inf   # no certified bound until (B + 1)·lam >= 2
    while True:
        # each discarded shell contributes (c_prim(n)/2) |theta_2(n tau) - 1|
        # with |theta_2(y) - 1| <= 4.1 exp(-pi y min-eig) once y >= 2
        if (B + 1) * lam >= 2:
            tail = 2.05 * _shell_tail(L.rank, lam, B)
            if tail <= tail_target / 2:
                break
        if B >= max_norm:
            raise TruncationError("colinear theta tail %.3g > target %.3g"
                                  % (tail, tail_target), achieved=tail)
        B += 2
    counts = L.counts_by_norm(B)
    cprim = primitive_counts(counts)
    value = 1.0 + 0j
    inner_tail = 0.0
    for n in range(1, B + 1):
        if not cprim[n]:
            continue
        th, tl = _binary_theta(n * pt.tau11, n * pt.tau12, n * pt.tau22)
        value += (cprim[n] / 2) * (th - 1.0)
        inner_tail += cprim[n] * tl / 2
    return value, tail + inner_tail


def theta_colinear_direct(L, pt, B):
    """Truncation-limited direct double loop over enumerated colinear pairs
    with both norms <= B; independent oracle for theta_colinear.

    Colinearity is tested by vanishing of all 2x2 minors of [u; v]; the
    inner loop over v is vectorized per u.
    """
    coords, norms = L.vectors_by_norm(B)
    G = np.array(L.gram, dtype=np.int64)
    pair_idx = [(a, b) for a in range(L.rank) for b in range(a + 1, L.rank)]
    value = 0j
    n_vec = len(coords)
    for i in range(n_vec):
        u = coords[i]
        ok = np.ones(n_vec, dtype=bool)
        for a, b in pair_idx:
            if not ok.any():
                break
            ok &= (u[a] * coords[:, b] - u[b] * coords[:, a]) == 0
        mates = np.nonzero(ok)[0]
        uu = int(norms[i])
        uv = coords[mates] @ (G @ u)
        vv = norms[mates]
        phases = 1j * math.pi * (pt.tau11 * uu + 2 * pt.tau12 * uv
                                 + pt.tau22 * vv)
        value += complex(np.exp(phases).sum())
    return value


# --------------------------------------------------------------------------
# Eisenstein series (weight w = N/2, level one)
# --------------------------------------------------------------------------

def eisenstein_q(tau, w, tail_target=1e-14, max_terms=600):
    """q-expansion path: 1 - (2w / B_w) sum sigma_{w-1}(n) q^n, q = e^{2 pi i tau}."""
    if w < 4 or w % 2:
        raise ValueError("weight must be even and >= 4")
    coef = -Fraction(2 * w) / bernoulli_number(w)
    q = cmath.exp(2j * math.pi * tau)
    x = abs(q)
    if x >= 0.5:
        raise TruncationError("Im tau too small for the q-expansion path "
                              "(|q| = %.3g >= 0.5)" % x)
    value = 1.0 + 0j
    n = 1
    qn = q
    while True:
        term = float(coef) * sigma_power(n, w - 1) * qn
        value += term
        # certified tail: sigma_{w-1}(n) <= zeta(w-1) n^{w-1} <= 1.21 n^{w-1}
        ratio = x * ((n + 1) / n) ** (w - 1)
        if ratio < 1:
            tail = 1.21 * abs(float(coef)) * (n + 1) ** (w - 1) * x ** (n + 1) \
                / (1 - ratio)
            if tail <= tail_target:
                return value, tail
        n += 1
        qn *= q
        if n > max_terms:
            raise TruncationError("q-expansion did not certify its tail",
                                  achieved=tail)


def eisenstein_direct(tau, w, m_max=None, n_max=None):
    """Coprime-pair path: 1/2 sum over (m,n)=1 of (m tau + n)^{-w}.

    The (0, ±1) terms give 1; the rest is summed with numpy per m row and a
    certified tail estimate is returned alongside the value.
    """
    if w < 4 or w % 2:
        raise ValueError("weight must be even and >= 4")
    y = tau.imag
    if m_max is None:
        m_max = max(30, int(12 / y) + 10)
    if n_max is None:
        n_max = 4000
    value = 1.0 + 0j
    ns = np.arange(-n_max, n_max + 1)
    for m in range(1, m_max + 1):
        mask = np.gcd(m, np.abs(ns)) == 1
        zs = m * tau + ns[mask]
        value += complex(np.sum(zs ** (-w)))
    # tails: |m tau + n| >= m y and >= |n| - m |Re tau|
    a = abs(tau.real)
    n_tail = 2 * m_max * ((n_max - m_max * a) ** (1 - w)) / (w - 1)
    m_tail = 0.0
    for m in range(m_max + 1, m_max + 200):
        row = (2 * m * (a + 1) + 1) * (m * y) ** (-w) + \
            2 * ((m * (a + 1)) ** (1 - w)) / (w - 1)
        m_tail += row
        if row < 1e-18:
            break
    return value, n_tail + m_tail


def eisenstein_rank1(tau, w, tail_target=1e-12):
    """Both evaluators of the weight-w coprime Eisenstein sum at tau.

    Returns (q_value, direct_value, q_tail, direct_tail)."""
    qv, qt = eisenstein_q(tau, w, tail_target=tail_target)
    dv, dt = eisenstein_direct(tau, w)
    return qv, dv, qt, dt


# --------------------------------------------------------------------------
# the two sides of the identity
# --------------------------------------------------------------------------

def eisenstein_lhs(pt, N, tail_target=1e-12, direct=False):
    """1 + 1/2 sum_{(m,n)=1} sum_{a>=1, (a,b)=1} (a Q(m,n) + b)^{-N/2}.

    Accelerated path: the inner coprime sum telescopes to E_w(Q(m,n)) - 1
    with E_w evaluated by its q-expansion.  With direct=True a bounded
    triple loop is evaluated instead (truncation-limited; used for
    cross-checking the acceleration).
    """
    w = N // 2
    if 2 * w != N or w < 4 or w % 2:
        raise ValueError("N must be a multiple of 8 at desk scale (w = N/2 even >= 4)")
    lam = pt.im_min_eig()
    if direct:
        return _eisenstein_lhs_direct(pt, w)
    # outer box: |E_w(z) - 1| <= C x with x = exp(-2 pi Im z)
    R = 1
    coefbound = 1.21 * abs(float(-Fraction(2 * w) / bernoulli_number(w)))
    tail = math.inf
    while True:
        x = math.exp(-2 * math.pi * lam * (R + 1) ** 2)
        r = x * 2 ** (w - 1)
        if r < 1:
            # |E_w(z) - 1| <= coefbound * exp(-2 pi Im z) / (1 - r)
            tail = _square_shell_tail(2 * lam, R) * coefbound / (1 - r)
            if tail <= tail_target / 2:
                break
        R += 1
        if R > 60:
            raise TruncationError("outer box for the accelerated sum too large",
                                  achieved=tail)
    value = 1.0 + 0j
    inner_tail = 0.0
    for m in range(-R, R + 1):
        for n in range(-R, R + 1):
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            z = pt.qform(m, n)
            ev, et = eisenstein_q(z, w, tail_target=tail_target / 8)
            value += 0.5 * (ev - 1.0)
            inner_tail += et / 2
    return value, tail + inner_tail


def _eisenstein_lhs_direct(pt, w, box=6, a_max=40, b_max=4000):
    """Bounded triple loop; returns (value, rough tail estimate)."""
    value = 1.0 + 0j
    bs = np.arange(-b_max, b_max + 1)
    tail = 0.0
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            z = pt.qform(m, n)
            for a in range(1, a_max + 1):
                mask = np.gcd(a, np.abs(bs)) == 1
                terms = (a * z + bs[mask]) ** (-w)
                value += 0.5 * complex(terms.sum())
            tail += ((a_max * z.imag) ** (1 - w)) / (w - 1) + \
                2 * ((b_max - a_max * abs(z.real)) ** (1 - w)) / (w - 1)
    # outer truncation: same shell estimate as the accelerated path
    lam = pt.im_min_eig()
    tail += _square_shell_tail(2 * lam, box) * 300
    return value, tail


def mass_constant(aut_orders):
    """C with 1 = C sum_j 1/|Aut_j| (exact rational)."""
    if not aut_orders:
        raise ValueError("need at least one automorphism order")
    s = sum(Fraction(1, int(a)) for a in aut_orders)
    return 1 / s


@dataclass
class IdentityReport:
    lhs: complex
    rhs: complex
    abs_diff: float
    rel_diff: float
    tol: float
    passed: bool
    mass: str
    tails: dict = dc_field(default_factory=dict)
    per_lattice: list = dc_field(default_factory=list)
    specialization: str = ""

    def to_dict(self):
        return {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "abs_diff": self.abs_diff,
            "rel_diff": self.rel_diff,
            "tol": self.tol,
            "passed": self.passed,
            "mass_constant": self.mass,
            "tails": self.tails,
            "per_lattice": self.per_lattice,
            "specialization": self.specialization,
        }


def verify_identity(lattices, aut_orders, pt, N, tol=1e-8, mass=None,
                    tail_target=None):
    """Evaluate both sides of the identity and compare at tolerance `tol`.

    `lattices` is the genus list, `aut_orders` the matching automorphism
    group orders; the mass constant defaults to the one forced by the mass
    relation.  Returns an IdentityReport.
    """
    if len(lattices) != len(aut_orders):
        raise ValueError("one automorphism order per lattice")
    for L in lattices:
        if L.rank != N:
            raise ValueError("lattice rank must equal N")
        if not L.is_even() or not L.is_unimodular():
            raise ValueError("lattices must be even unimodular")
    if tail_target is None:
        tail_target = tol / 100
    # double precision floors the certifiable relative difference well above
    # machine epsilon once a few thousand terms are accumulated
    float_floor = 4096 * 2.220446049250313e-16
    if tol < float_floor:
        raise TruncationError(
            "tolerance %.3g is below the double-precision floor %.3g"
            % (tol, float_floor), achieved=float_floor)
    C = Fraction(mass) if mass is not None else mass_constant(aut_orders)
    lhs, lhs_tail = eisenstein_lhs(pt, N, tail_target=tail_target)
    rhs = 0j
    rhs_tail = 0.0
    per = []
    for L, aut in zip(lattices, aut_orders):
        th, tl = theta_colinear(L, pt, tail_target=tail_target)
        weight = float(C * Fraction(1, int(aut)))
        rhs += weight * th
        rhs_tail += weight * tl
        per.append({"lattice": L.name, "aut": int(aut),
                    "theta_colinear": [th.real, th.imag], "tail": tl})
    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / max(abs(lhs), 1e-300)
    return IdentityReport(
        lhs=lhs, rhs=rhs, abs_diff=abs_diff, rel_diff=rel_diff, tol=tol,
        passed=bool(rel_diff < tol), mass=str(C),
        tails={"lhs": lhs_tail, "rhs": rhs_tail},
        per_lattice=per,
        specialization="diagonal (tau12 = 0)" if pt.is_diagonal else "general",
    )
