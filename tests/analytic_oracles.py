"""Independent oracles for `sntmod.analytic`, used by the tests only.

`lattice_vectors` enumerates lattice vectors by a plain recursive
Fincke-Pohst walk over the exact rational LDLᵀ of the Gram; it shares no
code with the library's float-pruned half walk, whose shell counts it
checks, and `lattice_levels` counts the exact half walk's candidates per
level, which the guard's counts must match.  The direct evaluators are
plain truncated loops over lattice pairs, coprime pairs and coprime
quadruples, checked against the accelerated evaluators
(`theta_colinear`, `eisenstein_q`, `eisenstein_lhs`).  The file is not
named test_*.py, so pytest imports it without collecting it.
"""
import math
from fractions import Fraction

import numpy as np

from sntmod.analytic import _lhs_weight, _square_shell_tail


def _ldl(gram):
    """(d, u) with G = Uᵀ·diag(d)·U over Fractions for a positive definite
    G, U unit upper triangular: xᵀGx = Σ_i d_i (x_i + Σ_{j>i} u[i][j] x_j)²."""
    n = len(gram)
    a = [[Fraction(v) for v in row] for row in gram]
    d, u = [], [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d.append(a[i][i])
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):   # the Schur complement of entry (i, i)
            for j in range(i + 1, n):
                a[k][j] -= a[k][i] * u[i][j]
    return d, u


def _int_ldl(gram):
    """(m, K, w, p): the LDLᵀ terms over one denominator K, with m_i the
    denominator of row i of U: K·d_i (x_i - c_i)² = w_i (m_i x_i + P_i)²
    with P_i = Σ_{j>i} p[i][j] x_j, all ints."""
    d, u = _ldl(gram)
    m = [math.lcm(*(v.denominator for v in row)) for row in u]
    K = math.lcm(*((di / mi ** 2).denominator for di, mi in zip(d, m)))
    w = [int(K * di / mi ** 2) for di, mi in zip(d, m)]
    return m, K, w, [[int(mi * v) for v in row] for mi, row in zip(m, u)]


def lattice_vectors(gram, B):
    """All x in Z^n with xᵀGx <= B, as (x, xᵀGx) pairs of an int tuple and
    an int, in lexicographic order of (x_{n-1}, ..., x_0).

    Fincke and Pohst's walk (Math. Comp. 44, 1985) over the exact LDLᵀ of
    the positive definite Gram, xᵀGx = Σ_i d_i (x_i - c_i)² with center
    c_i = -Σ_{j>i} u[i][j] x_j: once x_{i+1}, ..., x_{n-1} are fixed, so
    are the terms k > i, and x_i runs over the integers with
    d_i (x_i - c_i)² <= B minus them.  Over one denominator K, with m_i
    the denominator of row i of U, the terms are ints,
    K·d_i (x_i - c_i)² = w_i (m_i x_i + P_i)² with P_i = -m_i c_i, so each
    range is read off an integer square root: every x_i tried is kept."""
    n = len(gram)
    m, K, w, p = _int_ldl(gram)
    x = [0] * n
    out = []

    def walk(i, Q):
        # Q = K·(the terms k > i), the norm the fixed coordinates take
        if i < 0:
            assert Q % K == 0             # Q = K·xᵀGx
            out.append((tuple(x), Q // K))
            return
        P = sum(p[i][j] * x[j] for j in range(i + 1, n))
        s = math.isqrt((K * B - Q) // w[i])     # |m_i x_i + P| <= s
        for xi in range(-((s + P) // m[i]), (s - P) // m[i] + 1):
            x[i] = xi
            walk(i - 1, Q + w[i] * (m[i] * xi + P) ** 2)

    if B >= 0:
        walk(n - 1, 0)
    return out


def lattice_levels(gram, B):
    """[n_0, ..., n_{n-1}]: n_i counts the candidates x_i of the exact half
    walk at bound B + ½, the nodes (x_i, ..., x_{n-1}) whose terms k >= i
    of the LDLᵀ sum Σ_k d_k (x_k - c_k)² add up to at most B + ½ and whose
    highest nonzero coordinate, if any, is positive: below a prefix still
    all zero, x_i starts at 0.  The same integer square roots as
    `lattice_vectors`, with K·(B + ½) as the bound."""
    n = len(gram)
    m, K, w, p = _int_ldl(gram)
    x = [0] * n
    levels = [0] * n

    def walk(i, Q, zero):
        # 2·w_i (m_i x_i + P)² <= K (2B + 1) - 2Q
        if i < 0:
            return
        P = sum(p[i][j] * x[j] for j in range(i + 1, n))
        s = math.isqrt((K * (2 * B + 1) - 2 * Q) // (2 * w[i]))
        lo = -((s + P) // m[i])
        for xi in range(max(lo, 0) if zero else lo, (s - P) // m[i] + 1):
            levels[i] += 1
            x[i] = xi
            walk(i - 1, Q + w[i] * (m[i] * xi + P) ** 2, zero and xi == 0)

    if B >= 0:
        walk(n - 1, 0, True)
    return levels


def theta_colinear_direct(L, pt, B):
    """Truncation-limited direct double loop over the colinear pairs of
    `lattice_vectors` with both norms <= B; the oracle for theta_colinear.

    Colinearity is tested by vanishing of all 2x2 minors of [u; v]; the
    inner loop over v is vectorized per u.
    """
    vecs = lattice_vectors(L.gram, B)
    coords = np.array([v for v, _ in vecs], dtype=np.int64).reshape(-1, L.rank)
    norms = np.array([nm for _, nm in vecs], dtype=np.int64)
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


def eisenstein_direct(tau, w):
    """Coprime-pair path: 1/2 sum over (m,n)=1 of (m tau + n)^{-w}; the
    oracle for eisenstein_q.

    The (0, ±1) terms give 1; the rest is summed with numpy per m row over
    |n| <= 4000 and m up to about 12 / Im tau, and a certified tail estimate
    is returned alongside the value.
    """
    if w < 4 or w % 2:
        raise ValueError("weight must be even and >= 4")
    y = tau.imag
    m_max, n_max = max(30, int(12 / y) + 10), 4000
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


def eisenstein_lhs_direct(pt, N):
    """Direct triple loop over |m|, |n| <= 6, 1 <= a <= 40 and |b| <= 4000:
    the oracle for eisenstein_lhs.  Returns (value, rough tail)."""
    w = _lhs_weight(N)
    box, a_max, b_max = 6, 40, 4000
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
