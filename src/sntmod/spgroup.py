"""The automorphism group Sp(M,t) of an snt-module.

Membership is a pair of exact matrix identities (g commutes with t and
preserves the gram under the right action on row vectors).  For a standard
module the group carries a block structure over the homogeneous pieces:
reductions mod t of blocks into a strictly higher level vanish, diagonal
reduced blocks preserve the residue symplectic form <a, t^{k-1} b>, and the
kernel of the full reduction is the unipotent radical.

Sampling uses exact nilpotent exponentials where the characteristic allows
and Cayley transforms otherwise; both land in the group exactly.
"""
from __future__ import annotations

import random
from functools import cache
from itertools import groupby
from math import factorial, lcm
from operator import itemgetter, mul

from . import linalg as la
from . import tpoly
from .fields import FpElement
from .sntmodule import EnumerationGuardError, plane_rows
from .tpoly import TruncPoly, TruncRing


class NotAMemberError(ValueError):
    """Matrix is not an snt-automorphism of the given module."""


def is_member(M, g):
    """Exact test: g·T = T·g and g·G·gᵀ = G.

    Checked on `linalg._to_ints` rows, g over d, T over e and G over f:
    g·T = T·g over d·e on both sides, and g·G·gᵀ = d²·G over d²·f (over
    F_p every denominator is 1)."""
    if len(g) != M.dim or any(len(r) != M.dim for r in g):
        raise ValueError("size mismatch")
    kind = M.field.char
    (gi, d), ((T, _), (G, _), _) = la._to_ints(kind, g), M._ints()
    if la._ints_mul(kind, gi, T) != la._ints_mul(kind, T, gi):
        return False
    return la._ints_mul(kind, la._ints_mul(kind, gi, G), la.transpose(gi)) == \
        [[d * d * x for x in row] for row in G]


class SntAutomorphism:
    """A validated element of Sp(M,t)."""

    def __init__(self, M, matrix):
        if not is_member(M, matrix):
            raise NotAMemberError("matrix fails the Sp(M,t) identities")
        self.M = M
        self.matrix = [list(r) for r in matrix]

    def __mul__(self, other):
        return SntAutomorphism(self.M, la.mat_mul(self.matrix, other.matrix))

    def inv(self):
        return SntAutomorphism(self.M, la.inverse(self.M.field, self.matrix))


# --------------------------------------------------------------------------
# block profiles over homogeneous levels
# --------------------------------------------------------------------------

class BlockProfile:
    """The reductions mod t of g's blocks over the homogeneous levels of a
    standard module, with the levels' residue Gram matrices."""

    def __init__(self, levels, mults, reduced, bar_grams):
        self.levels = tuple(levels)
        self.mults = tuple(mults)
        # reduced[i][j]: generator rows of level i -> generator cols of level j
        self.reduced = reduced
        self.bar_grams = bar_grams

    def upper_triangular_ok(self):
        """Reductions of blocks into a strictly higher level vanish."""
        for i in range(len(self.levels)):
            for j in range(len(self.levels)):
                if self.levels[j] > self.levels[i]:
                    if not la.is_zero_mat(self.reduced[i][j]):
                        return False
        return True

    def diagonal_symplectic_ok(self):
        for i, Gb in enumerate(self.bar_grams):
            s = self.reduced[i][i]
            if not la.mat_eq(la.mat_mul(la.mat_mul(s, Gb), la.transpose(s)), Gb):
                return False
        return True

    def is_levi_trivial(self):
        """True when every diagonal reduced block is the identity."""
        for i, m in enumerate(self.mults):
            s = self.reduced[i][i]
            n = 2 * m
            for a in range(n):
                for b in range(n):
                    want = 1 if a == b else 0
                    if not (s[a][b] == want):
                        return False
        return True


def _level_chains(ks):
    """The chains of each homogeneous level of the standard module of type
    ks, levels by decreasing k: the planes of `plane_rows` with that k,
    wherever they stand in ks (a `direct_sum` need not be sorted), each
    giving its e1 chain and then its e2 chain."""
    planes = sorted(zip(ks, plane_rows(ks)), key=lambda p: -p[0])     # stable
    return [[c for _, plane in group for c in plane]
            for _, group in groupby(planes, key=itemgetter(0))]


def _level_layout(ks):
    """(k, multiplicity, first row, generator rows) per homogeneous level of
    the standard module of type ks, read off the `plane_rows` chains that
    `_level_chains` groups: its generator rows are the chain heads, the e1
    and e2 rows of each of its planes."""
    return [(len(cs[0]), len(cs) // 2, cs[0][0], [c[0] for c in cs])
            for cs in _level_chains(ks)]


def block_profile(M, g):
    """The reduced blocks of a member over the homogeneous levels."""
    ks = M.partition
    if ks is None:
        raise ValueError("block_profile needs a standard module")
    if not is_member(M, g):
        raise NotAMemberError("not an element of Sp(M,t)")
    levels, mults, _, lvl_gens = zip(*_level_layout(ks))
    reduced = [[[[g[r][c] for c in cols] for r in rows] for cols in lvl_gens]
               for rows in lvl_gens]
    # the bar Gram of level lv is <e_a, t^(lv-1) e_b> = (G·(T^(lv-1))ᵀ)[a][b]
    # at the level's generator rows a, b, over f·e^(lv-1)
    kind = M.field.char
    (_, e), (G, f), powers = M._ints()
    bar_grams = []
    for lv, gens in zip(levels, lvl_gens):
        bar = la._ints_mul(kind, [G[r] for r in gens],
                           la.transpose([powers[lv - 1][r] for r in gens]))
        bar_grams.append(la._from_ints(kind, bar, f * e ** (lv - 1)))
    return BlockProfile(levels, mults, reduced, bar_grams)


def unipotent_radical_test(M, g):
    """True iff g reduces to the identity in every diagonal block."""
    return block_profile(M, g).is_levi_trivial()


# --------------------------------------------------------------------------
# Lie algebra and exact sampling
# --------------------------------------------------------------------------

def lie_algebra_basis(M):
    """Basis of {S : S·T = T·S and S·G + G·Sᵀ = 0} as dim x dim matrices."""
    return la.isometry_lie_basis(M.field, M.gram, M.t)


def radical_lie_basis(M):
    """Lie elements whose reduced diagonal blocks vanish (standard M): the
    kernel of the reduction map on the canonical Lie basis, the basis
    `isometry_lie_basis(M.field, M.gram, M.t)` returns, as `_radical_ints`
    reads both off the centraliser of T."""
    n = M.dim
    rad = la._from_ints(M.field.char, *_radical_ints(M))
    return [[row[i * n:(i + 1) * n] for i in range(n)] for row in rad]


def _radical_ints(M):
    """`radical_lie_basis` on ints: its matrices flattened, as (rows, d).

    T shifts the chains c_a of `plane_rows`, of lengths L_a, so its
    centraliser has the basis E_u = E_{a,b,s}: c_a[j] -> c_b[s+j], for
    max(0, L_b − L_a) <= s < L_b, with disjoint supports.  The Lie algebra
    is the kernel X of S·G + G·Sᵀ = 0 (i < j, G alternating) on their
    coefficients.  Its canonical basis, the one `linalg._lie_kernel` reads
    off the full system on n² unknowns, is the identity on that system's
    free columns.  By matroid duality those are the basis of X's columns
    picked greedily from the right, so one `_rref_ints` of X, its columns
    right to left, has them as pivots and the canonical basis as rows.  The
    kernel of the reduction map (generator-to-generator entries within each
    level) is taken in that basis, on coefficients, and expanded once."""
    ks = M.partition
    if ks is None:
        raise ValueError("radical_lie_basis needs a standard module")
    kind, n = M.field.char, M.dim
    (T, (G, _), _), chains = M._ints(), [c for plane in plane_rows(ks) for c in plane]
    shift = [[0] * n for _ in range(n)]
    for c in chains:
        for a, b in zip(c, c[1:]):
            shift[a][b] = 1
    # the closed form holds for the chain shift and an alternating G only
    if T != (shift, 1) or not la._has_symmetry(kind, G, -1):
        raise ValueError("radical_lie_basis needs a standard module")
    maps = [list(zip(ca, cb[s:])) for ca in chains for cb in chains
            for s in range(max(0, len(cb) - len(ca)), len(cb))]
    # column u: the entries (S·G − (S·G)ᵀ)[i][j] of S = E_u, row i·n + j
    eqs = [[0] * len(maps) for _ in range(n * n)]
    for u, pairs in enumerate(maps):
        for r, c in pairs:
            for j, x in enumerate(G[c]):
                if x:
                    eqs[r * n + j][u] += x
                    eqs[j * n + r][u] -= x
    X = la._int_kernel(kind, [row for i in range(n) for row in eqs[i * n + i + 1:(i + 1) * n]
                              if any(row)])[0]
    if not X:
        return [], 1
    # the columns right to left: E_u's last entry is its rightmost one
    order = sorted(range(len(maps)), key=lambda u: maps[u][-1], reverse=True)
    R, piv = la._int_echelon(kind, [[x[u] for u in order] for x in X])
    d = lcm(*(R[i][c] for i, c in enumerate(piv))) if not kind else 1
    # the canonical basis over d, by increasing free column, as {u: x_u}
    basis = [{u: x if kind else x * (d // R[i][piv[i]]) for u, x in zip(order, R[i]) if x}
             for i in reversed(range(len(piv)))]
    at = {rc: u for u, pairs in enumerate(maps) for rc in pairs}
    idx = [at[a, b] for _, _, _, gens in _level_layout(ks) for a in gens for b in gens]
    lam, e = la._int_kernel(kind, [[B.get(u, 0) for B in basis] for u in idx])
    out = []
    for coefs in lam:
        flat = [0] * (n * n)
        for c, B in zip(coefs, basis):
            if c:
                for u, x in B.items():
                    for r, s in maps[u]:
                        flat[r * n + s] += c * x
        out.append([x % kind for x in flat] if kind else flat)
    return out, d * e


def exp_nilpotent(field, S):
    """Exact exp of a nilpotent matrix; None if the factorials are not
    invertible in the field.  Over QQ or GF(p), by `_exp_ints`."""
    kind = field.char
    e = _exp_ints(kind, *la._to_ints(kind, S))
    return None if e is None else la._from_ints(kind, *e)


def _exp_ints(kind, S, d):
    """exp(S/d) as (int rows, denominator) for a nilpotent int matrix S
    (residues and d = 1 for kind p); None when ν−1 ≥ p, ν the nilpotency
    index.  Raises ValueError when S is not nilpotent.

    With the powers Sᵐ, m < ν, exp(S/d) is
    Σ Sᵐ·((ν−1)!/m!)·d^(ν−1−m) over (ν−1)!·d^(ν−1) on Q, and Σ Sᵐ·(m!)⁻¹
    mod p."""
    n = len(S)
    powers = la._int_powers(kind, la._int_identity(n), S)
    top = len(powers) - 1
    if kind:
        if top >= kind:
            return None
        coef = [pow(factorial(m), -1, kind) for m in range(top + 1)]
        den = 1
    else:
        coef = [factorial(top) // factorial(m) * d ** (top - m)
                for m in range(top + 1)]
        den = factorial(top) * d ** top
    out = [[sum(map(mul, coef, col)) for col in zip(*(Pm[i] for Pm in powers))]
           for i in range(n)]
    if kind:
        out = [[x % kind for x in row] for row in out]
    return out, den


def cayley(field, S):
    """(I + S/2)(I - S/2)^{-1} = (2I + S)(2I - S)^{-1}: lands in the group
    for Lie elements with I - S/2 invertible (always, for nilpotent S).
    Char-independent; over F[t]/(t^K) `linalg.inverse` lifts t-adically."""
    two = la.scal_mul(field(2), la.identity(field, len(S)))
    return la.mat_mul(la.mat_add(two, S), la.inverse(field, la.mat_sub(two, S)))


def _transvection_ints(kind, v, lam):
    """The ring matrix I + lam·(J·vᵀ)·v of the transvection
    x -> x + lam·<x, v>^ v on R^{2m} as (int rows, d), for constant v and
    lam; J is the standard symplectic gram on the pairs (2j, 2j+1), so
    (J·vᵀ)[2j] = v[2j+1] and (J·vᵀ)[2j+1] = −v[2j].  Over Q, v and lam are
    int over one denominator e, so the matrix is int over e³."""
    (row,), e = la._to_ints(kind, [list(v) + [lam]])
    *vi, li = row
    d = e ** 3
    Jv = [vi[a + 1] if a % 2 == 0 else -vi[a - 1] for a in range(len(vi))]
    rows = [[li * x * y + (d if a == b else 0) for b, y in enumerate(vi)]
            for a, x in enumerate(Jv)]
    return ([[x % kind for x in row] for row in rows] if kind else rows), d


def _lift_levels(kind, n, blocks):
    """The n x n block-diagonal matrix, as (int rows, d), that acts on each
    listed level by a constant ring matrix and as the identity elsewhere.

    blocks holds (chains, (ring rows, d)) per level, its chains as
    `_level_chains` gives them: ring basis vector a of the level is the
    head of chain a, and its t-layers run down that chain of `plane_rows`,
    so entry (a, b) repeats at (chains[a][s], chains[b][s]) for every s."""
    d = lcm(*(e for _, (_, e) in blocks))
    out = [[d * (i == j) for j in range(n)] for i in range(n)]
    for chains, (ring, e) in blocks:
        c = d // e
        for ca, row in zip(chains, ring):
            for cb, x in zip(chains, row):
                for r, s in zip(ca, cb):
                    out[r][s] = c * x
    return out, d


def random_element(M, seed):
    """Reproducible sampling of Sp(M,t) for a standard module.

    Returns exp(S)·h with S a random radical Lie element (Cayley transform
    when the characteristic is too small for the exact exponential) and h a
    block-diagonal product of lifted residue transvections.  S, exp(S), h
    and the product are computed on ints and boxed once.
    """
    ks = M.partition
    if ks is None:
        raise ValueError("random_element needs a standard module")
    rng = random.Random(seed)
    field, n = M.field, M.dim
    kind = field.char
    if M._radical_cache is None:
        M._radical_cache = _radical_ints(M)
    basis, d = M._radical_cache
    (cs,), e = la._to_ints(kind, [[field.random(rng, 3) for _ in basis]])
    S = [0] * (n * n)
    for c, B in zip(cs, basis):
        if c:
            S = [x + c * y for x, y in zip(S, B)]
    S = [S[i * n:(i + 1) * n] for i in range(n)]
    if kind:
        S = [[x % kind for x in row] for row in S]
    r = _exp_ints(kind, S, d * e)
    if r is None:
        r = la._to_ints(kind, cayley(field, la._from_ints(kind, S, d * e)))
    r, dr = r
    blocks = []
    for chains in _level_chains(ks):
        m = len(chains) // 2
        ghat, dg = [[int(a == b) for b in range(2 * m)] for a in range(2 * m)], 1
        for _ in range(3):
            v = [field.random(rng, 2) for _ in range(2 * m)]
            if not any(bool(c) for c in v):
                v[rng.randrange(2 * m)] = field.one
            lam = field.random_nonzero(rng, 2)
            tau, dt = _transvection_ints(kind, v, lam)
            ghat, dg = la._ints_mul(kind, ghat, tau), dg * dt
        blocks.append((chains, (ghat, dg)))
    h, dh = _lift_levels(kind, n, blocks)
    g = la._from_ints(kind, la._ints_mul(kind, r, h), dr * dh)
    if not is_member(M, g):
        raise RuntimeError("sampled matrix failed the membership identities")
    return g


# --------------------------------------------------------------------------
# generator sets and closures (finite fields)
# --------------------------------------------------------------------------

def sp_group_order(q, n, k=1):
    """|Sp_{2n}(F_q[t]/(t^k))| = |Sp_{2n}(F_q)| * q^{(k-1) dim sp_{2n}}."""
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order * q ** ((k - 1) * (2 * n * n + n))


def sp_ring_generators(field, n, k):
    """Elementary generators of Sp_{2n}(R_k) (enough for closure tests)."""
    gens = []
    R = TruncRing(field, k)
    if n == 1:
        for s in range(k):
            for (i, j) in [(0, 1), (1, 0)]:
                g = la.identity(R, 2)
                g[i][j] = R.one.shift(s)      # the transvection by t^s
                gens.append(g)
        gens.append([[R.zero, R.one], [-R.one, R.zero]])
        return gens
    raise NotImplementedError("ring generators implemented for n = 1")


def group_closure(gens, mul, key, max_size):
    """BFS closure of a generator list under multiplication: the distinct
    generators, then each new layer's products a·b with every generator b,
    in order, told apart by `key`.  EnumerationGuardError as soon as more
    than max_size distinct elements are met, generators included.

    n x n matrices over F_p[t]/(t^K) with `mul` `linalg.mat_mul` (that is
    `tpoly.tmat_mul`) and `key` `tpoly.tmat_key` take the int path of
    `_packed_closure`; any other call runs the BFS on `mul` and `key`, the
    reference for that path: both give the same matrices in the same order."""
    if mul is la.mat_mul and key is tpoly.tmat_key:
        kind, n = la._int_kind(gens), len(gens[0]) if gens else 0
        if type(kind) is tuple and kind[0] and \
                all(len(r) == n for g in gens for r in (g, *g)):
            return _packed_closure(kind, gens, max_size)
    return _bfs(gens, gens, mul, key, max_size)


def _bfs(gens, right, mul, key, max_size):
    """The BFS closure of gens under x -> mul(x, b) for b in right, in the
    order met; key None keys each element by itself."""
    seen, layer = {}, gens
    while True:
        frontier = []
        for c in layer:
            kk = key(c) if key else c
            if kk not in seen:
                seen[kk] = c
                frontier.append(c)
                if len(seen) > max_size:
                    raise EnumerationGuardError(
                        "closure exceeded %d elements" % max_size)
        if not frontier:
            return list(seen.values())
        layer = (mul(a, b) for a in frontier for b in right)


def _packed_closure(kind, gens, max_size):
    """`group_closure` on ints for kind (p, K).  An element is the tuple of
    its n² entries, row by row, packed by `linalg._kronecker` with their
    coefficients in [0, p): a canonical form, so it is its own key.  The
    generators' columns are packed once, each distinct sum of packed
    products is unpacked and packed again once, and the closure is boxed
    once, one TruncPoly per packed value and one FpElement per residue."""
    p, K = kind
    n = len(gens[0])
    pack, unpack = la._kronecker(p, K, n)
    packed = [tuple(pack([c.v for c in x.coeffs]) for row in g for x in row)
              for g in gens]
    cols = [[g[j::n] for j in range(n)] for g in packed]
    reduced = cache(lambda s: pack(unpack(s)))
    starts = range(0, n * n, n)

    def times(a, bcols):
        return tuple([reduced(sum(map(mul, r, c)))
                      for r in [a[i:i + n] for i in starts] for c in bcols])
    field = gens[0][0][0].field
    fps = cache(lambda c: FpElement(p, c))
    polys = cache(lambda x: TruncPoly(field, [fps(c) for c in unpack(x)]))
    return [[[polys(x) for x in e[i:i + n]] for i in starts]
            for e in _bfs(packed, cols, times, None, max_size)]
