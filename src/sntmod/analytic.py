"""Numerical verification of explicit Siegel-Weil identities.

The rank-8 setting: L runs over positive definite even unimodular lattices
(E8 is the whole genus), tau = (tau11, tau12, tau22) is a 2x2 complex
symmetric matrix with positive definite imaginary part, and the identity

    1 + 1/2 * sum_{a>=1,(a,b)=1} sum_{(m,n)=1} (a*Q(m,n) + b)^(-N/2)
      = C * sum_j |Aut_j|^{-1} * sum_{u,v in L_j colinear}
            exp(pi*i*(tau11 (u,u) + 2 tau12 (u,v) + tau22 (v,v)))

holds with Q(m,n) = m^2 tau11 + 2mn tau12 + n^2 tau22 and the mass constant
C fixed by 1 = C sum_j |Aut_j|^{-1}.  Both sides are evaluated with
certified truncation tails; lattice shell counts are exact integers from a
depth-first Cholesky-pruned walk over one of each pair ±x, whose prefixes
carry shrinking partial sums, not coordinates.  The walk stops k
coordinates short, k = 4 when the Gram's leading 4x4 block has det at most
_TAIL_DET (3 on a rank-3 Gram) and k = 2 otherwise: below each prefix, the
norms of the last k are a quadratic polynomial fixed by the prefix's
residue class modulo the column Hermite form of the leading k x k block,
up to a shift, so each prefix is tallied under one key (class, least norm)
and each class's tally is convolved once with its polynomial's histogram.
A class's pattern is walked by the same level step as the prefixes.  The
guard still counts the candidates of those k levels as the exact walk
would, the last of which are exactly the vectors of norm <= B.  D16+ to
norm 6 counts in about 33 ms, against 54 ms with k = 2 (medians of 7
runs on a 2-core shared host, Python 3.11, numpy 2.4).  A Gram is
checked positive definite by fraction-free elimination on ints.  The
independent oracles (plain truncated loops for both sides, and an exact
rational Fincke-Pohst enumeration of lattice vectors) live with the tests,
in tests/analytic_oracles.py.
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


def _gram_entry(x, i, j):
    """Gram entry (i, j) as an int: an integer (not a bool) or a finite
    float of integer value, such as JSON's 2.0; ValueError otherwise, so
    that no input is rounded into another lattice."""
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, float) and x.is_integer()):
        return int(x)
    raise ValueError("gram entry (%d, %d) must be an integer, got %r"
                     % (i, j, x))


def _leading_minors(gram):
    """The leading principal minors d_1, d_2, ... of an int gram, up to the
    first that is not positive, as the pivots of fraction-free (Bareiss)
    elimination without row swaps.  All are positive exactly when the gram
    is positive definite (Sylvester's criterion), and the last is then det."""
    A = [row[:] for row in gram]
    out, prev = [], 1
    for k, pivot_row in enumerate(A):
        d = pivot_row[k]
        out.append(d)
        if d <= 0:
            break
        for row in A[k + 1:]:
            row[k + 1:] = [(a * d - row[k] * c) // prev
                           for a, c in zip(row[k + 1:], pivot_row[k + 1:])]
        prev = d
    return out


class IntegralLattice:
    """Positive definite integral lattice given by its Gram matrix."""

    def __init__(self, gram, name=""):
        self.gram = [[_gram_entry(x, i, j) for j, x in enumerate(row)]
                     for i, row in enumerate(gram)]
        self.rank = len(self.gram)
        self.name = name
        if any(len(r) != self.rank for r in self.gram):
            raise ValueError("gram must be square")
        if self.gram != [list(r) for r in zip(*self.gram)]:
            raise ValueError("gram must be symmetric")
        minors = _leading_minors(self.gram)
        if not all(d > 0 for d in minors):
            raise ValueError("gram must be positive definite")
        self._det = minors[-1] if minors else 1
        self._counts = None
        self._counts_upto = -1
        self._largest_level = 0

    def det(self):
        return self._det

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self):
        return self.det() == 1

    def counts_by_norm(self, B):
        """Exact vector counts c(n) = #{u : (u,u) = n} for n = 0..B.

        Two exact identities keep the walk small.  The theta series of an
        orthogonal sum is the product of the summands' theta series, so the
        counts are the convolution of the orthogonal summands' counts.
        Within a summand x and -x have the same norm, so the walker visits
        only zero and the vectors whose highest-index nonzero coordinate is
        positive, and c = 2·half - [1, 0, ...]."""
        B = int(B)
        if B < 0:
            return []   # no vector has a negative norm
        if self._counts is None or self._counts_upto < B:
            self._counts, self._largest_level = _shell_counts(self.gram, B)
            self._counts_upto = B
        return list(self._counts[:B + 1])

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


# prefixes expanded by one level step.  The walker holds one expanded step
# per level, at most _CHUNK times the ~2√B / R_ii values one coordinate can
# take, and the tails of at most 2·_CHUNK residue classes, so its memory
# does not follow the number of vectors of norm <= B
_CHUNK = 4096

# the largest det G[:k, :k] at which the walker counts the last k = 4
# coordinates (3 on a rank-3 gram) per residue class; each class walks its
# own pattern, so past it the walk stops k = 2 coordinates short.  Timed on
# rank-14 grams (2-core shared host), k = 4 took 0.5-0.8 of k = 2's time at
# det 36-87 and 1.2-1.9 of it at det 156-295
_TAIL_DET = 100


def _runs(lo, cnt):
    """(rows, x): each row j repeated cnt[j] times, beside the integers
    lo[j], lo[j] + 1, ..., lo[j] + cnt[j] - 1 it runs over."""
    rows = np.repeat(np.arange(len(cnt)), cnt)
    # x's offset in row j's run is its position minus the run's start
    return rows, np.arange(len(rows)) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)


def _candidates(R, i, bound, level):
    """(lo, cnt): the x_i of float norm <= bound below each column of
    level = (pn, en, z, S, E) run over lo, lo + 1, ..., lo + cnt - 1; a
    column still all zero (z) starts at 0."""
    pn, _, z, S, _ = level
    rii = R[i, i]
    width = np.sqrt(np.maximum(bound - pn, 0.0)) / rii
    center = -S[i] / rii
    lo = np.ceil(center - width).astype(np.int64)
    hi = np.floor(center + width).astype(np.int64)
    lo = np.where(z, np.maximum(lo, 0), lo)
    return lo, np.where(pn <= bound, np.maximum(hi - lo + 1, 0), 0)


def _descend(R, G, i, lo, cnt, level):
    """(rows, level'): the level step fixing x_i, one column per candidate,
    rows[c] the column of `level` it extends."""
    pn, en, z, S, E = level
    rows, xi = _runs(lo, cnt)
    # (x + x_i e_i)ᵀG(x + x_i e_i) = xᵀGx + x_i (2 (Gx)_i + G_ii x_i)
    en = en[rows] + xi * (2 * E[i].take(rows) + G[i, i] * xi)
    pn = pn[rows] + (R[i, i] * xi + S[i].take(rows)) ** 2
    S = S[:i].take(rows, axis=1) + np.multiply.outer(R[:i, i], xi)
    E = E[:i].take(rows, axis=1) + np.multiply.outer(G[:i, i], xi)
    return rows, (pn, en, z[rows] & (xi == 0), S, E)


def _hermite(H):
    """(L, U): H·U = L lower triangular with a positive diagonal, U
    unimodular, for a nonsingular int matrix H, by extended-gcd column
    operations: H's column Hermite form without the reduction of L's
    entries below the diagonal.  Each e in Z^k is then L·q + r for exactly
    one residue r in [0, L_00) × ... × [0, L_{k-1,k-1}), read off by
    forward floor divisions, and Π L_ii = |det H|."""
    k = len(H)
    L = [list(row) for row in H]
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            a, b = L[i][i], L[i][j]
            if not b:
                continue
            g, x, y = a, 1, 0                 # a·x + b·y = g = gcd(a, b)
            g1, x1, y1 = b, 0, 1
            while g1:
                t = g // g1
                g, g1, x, x1, y, y1 = g1, g - t * g1, x1, x - t * x1, y1, y - t * y1
            # columns (i, j) times [[x, -b/g], [y, a/g]], of det 1
            for M in (L, U):
                for row in M:
                    ci, cj = row[i], row[j]
                    row[i], row[j] = x * ci + y * cj, (a * cj - b * ci) // g
        if L[i][i] < 0:
            for M in (L, U):
                for row in M:
                    row[i] = -row[i]
    return L, U


def _convolve(a, b):
    """The product of the series a and b cut to their length, exact on
    int64 arrays and on object arrays of Python ints: one shifted copy of
    one side per nonzero entry of the other, the sparser, since both may be
    long and mostly zero when B is large."""
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    out = np.zeros_like(b)
    for n in np.flatnonzero(a).tolist():
        out[n:] += a[n] * b[:len(b) - n]
    return out


class _Tails:
    """The tails y = (x_0, ..., x_{k-1}) of a walk's prefixes, counted per
    residue class.

    A prefix fixing x_k..x_{N-1} has an exact norm en, a float norm pn and
    e = ((Gx)_0, ..., (Gx)_{k-1}), and its tail the norms
    en + yᵀHy + 2eᵀy over y in Z^k, H = G[:k, :k].  Forward floor
    divisions by H's column Hermite form write e = Hv + r with r one of
    det H residues, and then the norms are en - vᵀ(e + r) + p_r(y), with
    p_r(y) = yᵀHy + 2rᵀy, and the tail's float partial norms are those of
    y + v below the column (pn = 0, en = 0, S = R_k·H⁻¹r, E = r) shifted
    by pn.  So a prefix is one key: its class r and the least norm of its
    tail, its start.  Each class's prefixes are tallied by start, and each
    tally is convolved once with p_r's histogram.

    A class gets its pattern when it first occurs: the walker's own level
    steps from that column down to level 0 at the walk's bounds, which give
    p_r's values at the leaves and, for levels 1..k-2, the sorted float
    norms of the nodes, from which a prefix's candidates there are counted
    as a full walk would.  A prefix's float norm is at least 0, so its
    nodes are among its class's.  Past _CHUNK classes the tallies are
    convolved and the classes dropped, so at most 2·_CHUNK tallies and
    patterns are held, whatever det H is."""

    def __init__(self, G, R, k, B, bounds):
        self.G, self.R, self.k, self.B, self.bounds = G, R, k, B, bounds
        self.L, self.U = _hermite(G[:k, :k].tolist())
        self.det = math.prod(self.L[i][i] for i in range(k))
        # r -> [least value of p_r, p_r's histogram above it, prefixes by
        # start, sorted node norms of levels 1..k-2]
        self.classes = {}
        self.half = np.zeros(B + 1, dtype=np.int64)

    def _patterns(self, r):
        """The class rows of the residues r, one per column."""
        k, B = self.k, self.B
        n = r.shape[1]
        level = (np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool),
                 np.linalg.solve(self.R[:k, :k].T, r), r)
        cls = np.arange(n)
        nodes = []
        for i in range(k - 1, -1, -1):
            lo, cnt = _candidates(self.R, i, self.bounds[i], level)
            rows, level = _descend(self.R, self.G, i, lo, cnt, level)
            cls = cls[rows]       # rows ascend, so cls stays sorted
            if 0 < i < k - 1:
                order = np.lexsort((level[0], cls))
                cuts = np.cumsum(np.bincount(cls, minlength=n))[:-1]
                nodes.insert(0, np.split(level[0][order], cuts))
        p = level[1]
        size = np.bincount(cls, minlength=n)
        # a class without leaves gets start B + 1: no prefix of it has any
        least = np.full(n, B + 1, dtype=np.int64)
        least[size > 0] = np.minimum.reduceat(p, (np.cumsum(size) - size)[size > 0])
        p = p - least[cls]
        keep = p <= B
        hist = np.bincount(cls[keep] * (B + 1) + p[keep],
                           minlength=n * (B + 1)).reshape(n, B + 1)
        return [[m, h, np.zeros(B + 1, dtype=np.int64), levels]
                for m, h, *levels in zip(least.tolist(), hist, *nodes)]

    def add(self, level):
        """Tally the prefixes of level = (pn, en, z, S, E) and return the
        candidate counts a full walk would take below them at levels 0, 1,
        ..., k-2; level 0's are the vectors of norm <= B."""
        k, B, L = self.k, self.B, self.L
        pn, en, z, _, E = level
        q, r = [], []
        key = 0
        for i in range(k):
            t = E[i] - sum(L[i][j] * q[j] for j in range(i))
            q.append(t // L[i][i])
            r.append(t - L[i][i] * q[i])
            key = key * L[i][i] + r[i]
        # e = H·U·q + r, so v = U·q
        shift = en - sum(sum(u * qj for u, qj in zip(self.U[i], q)) * (E[i] + r[i])
                         for i in range(k))
        if self.det < 2 ** 15:
            key = key.astype(np.int16)      # which numpy sorts by radix
        keys, first, inv = np.unique(key, return_index=True, return_inverse=True)
        keys = keys.tolist()
        new = [c for c, r_ in enumerate(keys) if r_ not in self.classes]
        if new:
            cols = first[new]
            for c, row in zip(new, self._patterns(np.array([ri[cols] for ri in r]))):
                self.classes[keys[c]] = row
        rows = [self.classes[r_] for r_ in keys]
        start = shift + np.array([m for m, *_ in rows])[inv]
        keep = start <= B
        starts = np.bincount(inv[keep] * (B + 1) + start[keep],
                             minlength=len(rows) * (B + 1)).reshape(-1, B + 1)
        cum = np.cumsum([hist for _, hist, _, _ in rows], axis=1)
        counts = [int((starts * cum[:, ::-1]).sum())]
        for row, n in zip(rows, starts):
            row[2] += n
        if k > 2:
            # a prefix's nodes at level j are its class's with float norm
            # at most the level's bound minus pn
            order = np.argsort(key, kind="stable")
            groups = np.split(pn[order], np.cumsum(np.bincount(inv))[:-1])
            counts += [sum(int(np.searchsorted(row[3][j], self.bounds[j + 1] - g,
                                               side="right").sum())
                           for row, g in zip(rows, groups)) for j in range(k - 2)]
        if z.any():
            # the zero prefix, class 0 from norm 0: its tail holds y and -y
            # for each y != 0 and 0 once, at every level, and the walk keeps
            # one of each pair
            zero = self.classes[0]
            pairs = zero[1] // 2
            self.half -= pairs
            counts[0] -= int(pairs.sum())
            for j, vals in enumerate(zero[3]):
                full = np.searchsorted(vals, self.bounds[j + 1], side="right")
                counts[j + 1] -= int(full) // 2
        if len(self.classes) > _CHUNK:
            self.total()
        return counts

    def total(self):
        """The half counts of every tail tallied so far, the classes'
        tallies convolved with their patterns; drops the classes."""
        for _, hist, starts, _ in self.classes.values():
            self.half += _convolve(starts, hist)
        self.classes.clear()
        return self.half


def _shell_chunks(gram, B):
    """(half, largest): half[n] counts zero and one of each pair ±x of
    nonzero x in Z^N with xᵀGx = n <= B, and largest is the largest level
    candidate count the enumeration guard was compared with.  x and -x
    have the same norm, and x = -x only for x = 0, so the walk visits zero
    and the x whose highest-index nonzero coordinate is positive.

    Depth-first Cholesky-pruned enumeration of x_{N-1}, ..., x_k: a level
    step (`_candidates`, `_descend`) fixes coordinate i below at most
    _CHUNK prefixes that fix coordinates i+1..N-1, and pending prefixes
    wait on a stack.  Below a prefix still all zero, x_i starts at 0.  A
    prefix carries no coordinates, only the partial sums
    S[j] = Σ_l R[j,l] x_l (floats) and E[j] = Σ_l G[j,l] x_l (exact) over
    its fixed l, for the j <= i still free: S[i] centers x_i, E[i] = (Gx)_i
    updates the exact norm en, and the step adds x_i times column i of R
    and G to rows j < i, so level i holds at most _CHUNK × width × i of
    each.  The last k coordinates are not expanded: k = 4 (3 on a rank-3
    gram) when det G[:k, :k] <= _TAIL_DET, else 2, and `_Tails` counts
    each prefix's vectors of norm <= B per residue class, from en, pn and
    E[:k].  A rank-1 gram [[g]] is walked as [[g, 0], [0, B + 1]], whose
    added coordinate no vector of norm <= B uses.

    The guard counts every level as the exact rational walk at bound
    B + ½ would.  Level i's float bound is B + ½, lifted by 1/(2 D_i) when
    D_i = det G[:i, :i] is even, so levels k-1..1 are counted from float
    norms without ties, and level 0's float candidates are exactly the
    leaves, the vectors of norm <= B, since norms are integers.  Raises
    EnumerationGuardError before a step would take a level's candidate
    count, summed over its chunks, past the guard.
    """
    limit = enum_guard_limit()
    if len(gram) == 1:
        gram = [[gram[0][0], 0], [0, B + 1]]
    G = np.array(gram, dtype=np.int64)
    N = len(gram)
    R = np.linalg.cholesky(G.astype(float)).T   # upper triangular, RᵀR = G
    # D_i = det G[:i, :i] times a level-i float norm is an integer, so with
    # D_i even the norm can be B + ½ exactly: the bound is lifted halfway
    # to the next value, where rounding cannot move a candidate across it
    D = [1] + _leading_minors(gram)
    bounds = [B + 0.5 + (0.5 / d if d % 2 == 0 else 0.0) for d in D]
    k = min(N, 4) if D[min(N, 4)] <= _TAIL_DET else 2
    tails = _Tails(G, R, k, B, bounds)
    seen = [0] * N

    def count(i, n):
        seen[i] += n
        if seen[i] > limit:
            raise EnumerationGuardError(
                "lattice enumeration level of %d candidates exceeds the guard %d"
                % (seen[i], limit))

    # (i, pn, en, z, S, E): prefixes fixing x_i..x_{N-1}, one per column,
    # with float and exact norms, z = "prefix is 0", S and E by rows
    stack = [(N, np.zeros(1), np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool),
              np.zeros((N, 1)), np.zeros((N, 1), dtype=np.int64))]
    while stack:
        i, *level = stack.pop()
        if len(level[0]) > _CHUNK:
            stack.append((i, *(a[..., _CHUNK:] for a in level)))
            level = [a[..., :_CHUNK] for a in level]
        i -= 1
        lo, cnt = _candidates(R, i, bounds[i], level)
        total = int(cnt.sum())
        count(i, total)
        if not total:
            continue
        if i == k - 1:
            for j, n in enumerate(tails.add(level)):
                count(j, n)
            continue
        _, level = _descend(R, G, i, lo, cnt, level)
        stack.append((i, *level))
    return tails.total(), max(seen)


def _orthogonal_components(gram):
    """The coordinate index lists of the connected components of the
    gram's nonzero pattern, each ascending, ordered by their least index:
    the lattice is the orthogonal sum of the sublattices they span."""
    n = len(gram)
    seen, comps = set(), []
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for i in comp:   # comp grows while it is read
            new = [j for j in range(n) if gram[i][j] and j not in seen]
            seen.update(new)
            comp += new
        comps.append(sorted(comp))
    return comps


def _shell_counts(gram, B):
    """(counts, largest): counts_by_norm's c(0..B) as Python ints, each
    orthogonal component walked by half, c = 2·half - [1, 0, ...], and
    convolved over them; largest is the largest level candidate count the
    enumeration guard was compared with over the components' walks.

    A component's coordinates are walked stably sorted by their diagonal
    entry, largest last, so that the walker fixes them first: a coordinate
    of large norm takes few values, and fixing it early keeps the inner
    levels narrow.  A permutation of the coordinates keeps every count."""
    counts, largest = None, 0
    for comp in _orthogonal_components(gram):
        comp = sorted(comp, key=lambda i: gram[i][i])
        sub = [[gram[i][j] for j in comp] for i in comp]
        half, level = _shell_chunks(sub, B)
        largest = max(largest, level)
        c = (2 * half).astype(object)     # Python ints, which cannot overflow
        c[0] -= 1
        counts = c if counts is None else _convolve(counts, c)
    return [1] + [0] * B if counts is None else counts.tolist(), largest


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
        return _min_eig(self.tau11.imag, self.tau12.imag, self.tau22.imag)


def _min_eig(y11, y12, y22):
    """Least eigenvalue of the symmetric matrix [[y11, y12], [y12, y22]]."""
    tr, det = y11 + y22, y11 * y22 - y12 * y12
    return (tr - math.sqrt(max(tr * tr - 4 * det, 0.0))) / 2


# --------------------------------------------------------------------------
# certified tail helpers
# --------------------------------------------------------------------------

def _geometric_tail(first, ratio):
    """Bound for a series from `first` on, each term at most `ratio` times
    the last: first / (1 - ratio), or inf when ratio >= 1."""
    return first / (1 - ratio) if ratio < 1 else math.inf


def _certified_bound(tail_at, bounds, target, what):
    """(b, tail_at(b)) for the first b in `bounds` with tail_at(b) <= target,
    else TruncationError naming `what` and the last bound tried, with its
    tail (inf if none) as `achieved`."""
    b, tail = None, math.inf
    for b in bounds:
        tail = tail_at(b)
        if tail <= target:
            return b, tail
    raise TruncationError("%s %s leaves tail %.3g > target %.3g"
                          % (what, b, tail, target), achieved=tail)


def _shell_tail(N, lam, B):
    """Upper bound for sum_{n > B} (2 sqrt(n) + 1)^N exp(-pi lam n).

    (2 sqrt(n) + 1)^N bounds the shell count of any integral PD lattice of
    rank N by a packing argument (nonzero norms are >= 1)."""
    n0 = B + 1
    r = math.exp(-math.pi * lam) * ((2 * math.sqrt(n0 + 1) + 1) /
                                    (2 * math.sqrt(n0) + 1)) ** N
    return _geometric_tail(
        (2 * math.sqrt(n0) + 1) ** N * math.exp(-math.pi * lam * n0), r)


def _square_shell_tail(lam, R):
    """Upper bound for sum over (m,n) in Z^2 with max(|m|,|n|) > R of
    exp(-pi lam (m^2 + n^2))."""
    def f(k):
        return 8 * k * math.exp(-math.pi * lam * k * k)
    k0 = R + 1
    r = (f(k0 + 1) / f(k0)) if f(k0) > 0 else 0.0
    return _geometric_tail(f(k0), r)


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
    B, tail = _certified_bound(lambda B: _shell_tail(L.rank, lam, B),
                               range(4, max_norm + 2, 2), tail_target,
                               "theta norm bound")
    counts = L.counts_by_norm(B)
    value = 0j
    for n in range(B + 1):
        if counts[n]:
            value += counts[n] * cmath.exp(1j * math.pi * tau * n)
    return value, tail


def _binary_theta(s11, s12, s22, tail_target=1e-14):
    """theta_2 - 1: the sum over (m,n) != (0,0) in Z^2 of
    exp(pi i (m^2 s11 + 2mn s12 + n^2 s22)).

    The (0,0) term 1 is left out, not subtracted afterwards: theta_2 - 1 is
    small, and forming it from the rounded theta_2 leaves an absolute error
    of about eps, which theta_colinear multiplies by a shell count."""
    lam = _min_eig(s11.imag, s12.imag, s22.imag)
    if lam <= 0:
        raise ValueError("imaginary part must be positive definite")
    R, tail = _certified_bound(lambda R: _square_shell_tail(lam, R),
                               range(1, 202), tail_target, "binary theta box R")
    ms = np.arange(-R, R + 1)
    M, Nn = np.meshgrid(ms, ms, indexing="ij")
    phase = 1j * math.pi * (M * M * s11 + 2 * M * Nn * s12 + Nn * Nn * s22)
    terms = np.exp(phase)
    terms[R, R] = 0
    return complex(terms.sum()), tail


def _colinear_norm_bound(rank, pt, tail_target=1e-11, max_norm=64):
    """(B, tail): the least even norm bound B >= 4 at which the shells
    theta_colinear discards beyond B sum to at most tail_target / 2, with
    that certified tail.  Raises TruncationError past `max_norm`."""
    lam = pt.im_min_eig()

    def tail_at(B):
        # each discarded shell contributes (c_prim(n)/2) |theta_2(n tau) - 1|
        # with |theta_2(y) - 1| <= 4.1 exp(-pi y min-eig) once y >= 2, so
        # there is no certified bound until (B + 1)·lam >= 2
        return 2.05 * _shell_tail(rank, lam, B) if (B + 1) * lam >= 2 else math.inf
    return _certified_bound(tail_at, range(4, max_norm + 2, 2), tail_target / 2,
                            "colinear theta norm bound")


def theta_colinear(L, pt, tail_target=1e-11, max_norm=64):
    """Sum over colinear pairs (u, v) of exp(pi i (tau11 (u,u) +
    2 tau12 (u,v) + tau22 (v,v))).

    Nonzero colinear pairs are (m w, n w) with w primitive (unique up to
    sign) and (m, n) != (0, 0); the zero pair contributes 1, so the sum is
    1 + 1/2 sum_w [theta_2((w,w) tau) - 1] grouped by primitive shells.
    """
    B, tail = _colinear_norm_bound(L.rank, pt, tail_target, max_norm)
    counts = L.counts_by_norm(B)
    cprim = primitive_counts(counts)
    value = 1.0 + 0j
    inner_tail = 0.0
    for n in range(1, B + 1):
        if not cprim[n]:
            continue
        th1, tl = _binary_theta(n * pt.tau11, n * pt.tau12, n * pt.tau22)
        value += (cprim[n] / 2) * th1
        inner_tail += cprim[n] * tl / 2
    return value, tail + inner_tail


# --------------------------------------------------------------------------
# Eisenstein series (weight w = N/2, level one)
# --------------------------------------------------------------------------

_Q_MAX_TERMS = 600


def eisenstein_q(tau, w, tail_target=1e-14, max_terms=_Q_MAX_TERMS):
    """q-expansion path: 1 - (2w / B_w) sum sigma_{w-1}(n) q^n, q = e^{2 pi i tau}.

    Sums the fewest terms, at most `max_terms`, whose certified tail meets
    `tail_target`, and returns (value, tail).
    """
    if w < 4 or w % 2:
        raise ValueError("weight must be even and >= 4")
    return _q_expansion(tau, w, _q_coefficient(w), tail_target, max_terms)


def _q_coefficient(w):
    """-2w / B_w, the coefficient of the divisor sums in E_w."""
    return float(-Fraction(2 * w) / bernoulli_number(w))


def _q_expansion(tau, w, coef, tail_target, max_terms):
    """eisenstein_q with the coefficient -2w / B_w given."""
    q = cmath.exp(2j * math.pi * tau)
    x = abs(q)
    if x >= 0.5:
        raise TruncationError("Im tau too small for the q-expansion path "
                              "(|q| = %.3g >= 0.5)" % x)

    def tail_at(n):
        # the terms past n: sigma_{w-1}(k) <= zeta(w-1) k^{w-1} <= 1.21 k^{w-1}
        return _geometric_tail(1.21 * abs(coef) * (n + 1) ** (w - 1) * x ** (n + 1),
                               x * ((n + 1) / n) ** (w - 1))
    terms, tail = _certified_bound(tail_at, range(1, max_terms + 1),
                                   tail_target, "q-expansion term count")
    value = 1.0 + 0j
    qn = q
    for n in range(1, terms + 1):
        value += coef * sigma_power(n, w - 1) * qn
        qn *= q
    return value, tail


# --------------------------------------------------------------------------
# the two sides of the identity
# --------------------------------------------------------------------------

def _lhs_weight(N):
    """The weight w = N/2 of the left side, which must be even and >= 4."""
    w = N // 2
    if 2 * w != N or w < 4 or w % 2:
        raise ValueError("N must be a multiple of 8 at desk scale (w = N/2 even >= 4)")
    return w


def eisenstein_lhs(pt, N, tail_target=1e-12):
    """1 + 1/2 sum_{(m,n)=1} sum_{a>=1, (a,b)=1} (a Q(m,n) + b)^{-N/2}.

    The inner coprime sum telescopes to E_w(Q(m,n)) - 1, with E_w evaluated
    by its q-expansion.
    """
    w = _lhs_weight(N)
    lam = pt.im_min_eig()
    coef = _q_coefficient(w)
    coefbound = 1.21 * abs(coef)

    def tail_at(R):
        # outside the box Im Q(m, n) >= lam (R + 1)^2, and |E_w(z) - 1| <=
        # coefbound x / (1 - x 2^(w-1)) with x = exp(-2 pi Im z)
        r = math.exp(-2 * math.pi * lam * (R + 1) ** 2) * 2 ** (w - 1)
        return _geometric_tail(_square_shell_tail(2 * lam, R) * coefbound, r)
    R, tail = _certified_bound(tail_at, range(1, 61), tail_target / 2,
                               "outer box R")
    value = 1.0 + 0j
    inner_tail = 0.0
    for m in range(-R, R + 1):
        for n in range(-R, R + 1):
            if (m, n) == (0, 0) or math.gcd(m, n) != 1:
                continue
            z = pt.qform(m, n)
            ev, et = _q_expansion(z, w, coef, tail_target / 8, _Q_MAX_TERMS)
            value += 0.5 * (ev - 1.0)
            inner_tail += et / 2
    return value, tail + inner_tail


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
    B, _ = _colinear_norm_bound(N, pt, tail_target)   # theta_colinear's bound
    per = []
    for L, aut in zip(lattices, aut_orders):
        th, tl = theta_colinear(L, pt, tail_target=tail_target)
        weight = float(C * Fraction(1, int(aut)))
        rhs += weight * th
        rhs_tail += weight * tl
        # read the shell counts theta_colinear has just cached up to B
        per.append({"lattice": L.name, "aut": int(aut),
                    "theta_colinear": [th.real, th.imag], "tail": tl,
                    "norm_bound": B, "vectors": sum(L._counts[:B + 1]),
                    "largest_level": L._largest_level,
                    "components": [len(c) for c in _orthogonal_components(L.gram)]})
    abs_diff = abs(lhs - rhs)
    rel_diff = abs_diff / max(abs(lhs), 1e-300)
    return IdentityReport(
        lhs=lhs, rhs=rhs, abs_diff=abs_diff, rel_diff=rel_diff, tol=tol,
        passed=bool(rel_diff < tol), mass=str(C),
        tails={"lhs": lhs_tail, "rhs": rhs_tail},
        per_lattice=per,
        specialization="diagonal (tau12 = 0)" if pt.is_diagonal else "general",
    )
