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
from fractions import Fraction

from . import linalg as la
from .sntmodule import EnumerationGuardError, standard_module, summand_offsets
from .tpoly import TruncPoly, TruncRing


class NotAMemberError(ValueError):
    """Matrix is not an snt-automorphism of the given module."""


def is_member(M, g):
    """Exact test: g·T = T·g and g·G·gᵀ = G."""
    if len(g) != M.dim or any(len(r) != M.dim for r in g):
        raise ValueError("size mismatch")
    if not la.mat_eq(la.mat_mul(g, M.t), la.mat_mul(M.t, g)):
        return False
    return la.mat_eq(la.mat_mul(la.mat_mul(g, M.gram), la.transpose(g)), M.gram)


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
# homogeneous case: Sp(M,t) <-> Sp_2n(F[t]/(t^k))
# --------------------------------------------------------------------------

class HomogeneousRingIso:
    """Bidirectional maps Sp(M,t) <-> Sp_{2n}(R_k) for M = H_k^{⊕n}.

    The R_k-basis eps_1, ..., eps_2n identifies eps_{2j-1}, eps_{2j} with the
    two generators of the j-th plane; the F-form is the t^{k-1} coefficient
    of the R_k-valued standard symplectic form.
    """

    def __init__(self, M):
        ks = M.partition
        if ks is None or len(set(ks)) != 1:
            raise ValueError("module is not homogeneous standard")
        self.M = M
        self.k = ks[0]
        self.n = len(ks)
        self.field = M.field
        self.R = TruncRing(M.field, self.k)
        offs = summand_offsets(ks)
        # F-basis row index of t^s * eps_a
        self._row = {}
        for j in range(self.n):
            for s in range(self.k):
                self._row[(2 * j, s)] = offs[j] + s
                self._row[(2 * j + 1, s)] = offs[j] + self.k + s

    def ring_gram(self):
        """The R_k-valued symplectic gram on R_k^{2n} (pairs (2j-1, 2j))."""
        R, n = self.R, self.n
        J = la.zeros(R, 2 * n, 2 * n)
        for j in range(n):
            J[2 * j][2 * j + 1] = R.one
            J[2 * j + 1][2 * j] = -R.one
        return J

    def is_ring_member(self, ghat):
        J = self.ring_gram()
        return la.mat_eq(la.mat_mul(la.mat_mul(ghat, J), la.transpose(ghat)), J)

    def from_ring(self, ghat):
        """F-matrix of the R_k-linear right action of ghat."""
        f, k, n = self.field, self.k, self.n
        N = 2 * n * k
        out = la.zeros(f, N, N)
        for a in range(2 * n):
            for s in range(k):
                r = self._row[(a, s)]
                for b in range(2 * n):
                    poly = ghat[a][b]
                    for u, c in enumerate(poly.coeffs):
                        if c and s + u < k:
                            out[r][self._row[(b, s + u)]] = c
        return out

    def to_ring(self, g):
        """R_k-matrix recovered from an F-side member of Sp(M,t)."""
        f, k, n = self.field, self.k, self.n
        ghat = []
        for a in range(2 * n):
            row = []
            for b in range(2 * n):
                coeffs = [g[self._row[(a, 0)]][self._row[(b, u)]] for u in range(k)]
                row.append(TruncPoly(f, coeffs))
            ghat.append(row)
        return ghat


# --------------------------------------------------------------------------
# block profiles over homogeneous levels
# --------------------------------------------------------------------------

class BlockProfile:
    """Blocks of g over the homogeneous levels of a standard module,
    plus their reductions mod t."""

    def __init__(self, levels, mults, blocks, reduced, bar_grams):
        self.levels = tuple(levels)
        self.mults = tuple(mults)
        self.blocks = blocks      # blocks[i][j]: rows level i -> cols level j
        self.reduced = reduced    # same indexing, generator coordinates
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


def _levels(ks):
    levels, mults = [], []
    for k in ks:
        if levels and levels[-1] == k:
            mults[-1] += 1
        else:
            levels.append(k)
            mults.append(1)
    return levels, mults


def _level_layout(ks):
    """(k, multiplicity, first row, generator rows) per homogeneous level of
    the standard module of type ks.  A level owns the 2·k·multiplicity rows
    from its first row on; its generator rows are the e1 and e2 rows of
    each of its planes."""
    levels, mults = _levels(ks)
    offs = summand_offsets(ks)
    out, pos = [], 0
    for lv, m in zip(levels, mults):
        gens = [r for off in offs[pos:pos + m] for r in (off, off + lv)]
        out.append((lv, m, offs[pos], gens))
        pos += m
    return out


def block_profile(M, g):
    """Block decomposition of a member over the homogeneous levels."""
    ks = M.partition
    if ks is None:
        raise ValueError("block_profile needs a standard module")
    if not is_member(M, g):
        raise NotAMemberError("not an element of Sp(M,t)")
    field = M.field
    levels, mults, starts, lvl_gens = zip(*_level_layout(ks))
    lvl_rows = [range(s, s + 2 * lv * m) for lv, m, s in zip(levels, mults, starts)]
    blocks = [[None] * len(levels) for _ in levels]
    reduced = [[None] * len(levels) for _ in levels]
    for i in range(len(levels)):
        for j in range(len(levels)):
            blocks[i][j] = [[g[r][c] for c in lvl_rows[j]] for r in lvl_rows[i]]
            reduced[i][j] = [[g[r][c] for c in lvl_gens[j]] for r in lvl_gens[i]]
    bar_grams = []
    for i, lv in enumerate(levels):
        gens = lvl_gens[i]
        Gb = la.zeros(field, len(gens), len(gens))
        for a, ra in enumerate(gens):
            ea = [field.zero] * M.dim
            ea[ra] = field.one
            for b, rb in enumerate(gens):
                eb = [field.zero] * M.dim
                eb[rb] = field.one
                Gb[a][b] = M.pair(ea, M.apply_t(eb, lv - 1))
        bar_grams.append(Gb)
    return BlockProfile(levels, mults, blocks, reduced, bar_grams)


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
    """Lie elements whose reduced diagonal blocks vanish (standard M)."""
    ks = M.partition
    if ks is None:
        raise ValueError("radical_lie_basis needs a standard module")
    field, n = M.field, M.dim
    lvl_gens = [gens for _, _, _, gens in _level_layout(ks)]
    basis = lie_algebra_basis(M)
    if not basis:
        return []
    # impose vanishing of generator-to-generator entries within each level
    rows = []
    for S in basis:
        row = []
        for g in lvl_gens:
            for a in g:
                for b in g:
                    row.append(S[a][b])
        rows.append(row)
    # kernel of the reduction map, in coordinates of the Lie basis:
    # right_kernel works on the transpose (combinations of basis elements)
    ker = la.right_kernel(field, la.transpose(rows))
    out = []
    for lam in ker:
        S = la.zeros(field, n, n)
        for c, B in zip(lam, basis):
            if c:
                S = la.mat_add(S, la.scal_mul(c, B))
        out.append(S)
    return out


def exp_nilpotent(field, S):
    """Exact exp of a nilpotent matrix; None if the factorials are not
    invertible in the field."""
    powers = la.nilpotent_powers(field, S)
    if field.char and len(powers) - 1 >= field.char:
        return None
    out = la.identity(field, len(S))
    fact = 1
    for m, P in enumerate(powers[1:], 1):
        fact *= m
        if field.char:
            coef = field(1) / field(fact % field.char)
        else:
            coef = Fraction(1, fact)
        out = la.mat_add(out, la.scal_mul(coef, P))
    return out


def cayley(field, S):
    """(I + S/2)(I - S/2)^{-1}: lands in the group for Lie elements with
    I - S/2 invertible (always, for nilpotent S).  Char-independent."""
    n = len(S)
    half = field(1) / field(2)
    A = la.scal_mul(half, S)
    I = la.identity(field, n)
    return la.mat_mul(la.mat_add(I, A), la.inverse(field, la.mat_sub(I, A)))


def _level_submodule(M, level_index):
    ks = M.partition
    levels, mults = _levels(ks)
    lv = levels[level_index]
    return standard_module(M.field, (lv,) * mults[level_index])


def _embed_block(M, level_index, block):
    """Embed a level-block matrix as a block-diagonal member candidate."""
    lv, m, start, _ = _level_layout(M.partition)[level_index]
    g = la.identity(M.field, M.dim)
    size = 2 * lv * m
    for a in range(size):
        for b in range(size):
            g[start + a][start + b] = block[a][b]
    return g


def levi_transvection(M, level_index, v_coeffs, lam):
    """Lift of a residue symplectic transvection on one homogeneous level.

    v_coeffs are F-coordinates in the R-basis of the level; the R-module
    transvection x -> x + lam * <x, v>^ v is R-linear, preserves the
    R-valued form, and reduces to the residue transvection.
    """
    sub = _level_submodule(M, level_index)
    iso = HomogeneousRingIso(sub)
    R, n2 = iso.R, 2 * iso.n
    J = iso.ring_gram()
    v = [R(c) for c in v_coeffs]
    ghat = la.identity(R, n2)
    Jv = la.vec_mat(v, la.transpose(J))     # J·vᵀ
    lam = iso.field(lam)
    for a in range(n2):
        for b in range(n2):
            ghat[a][b] = ghat[a][b] + lam * Jv[a] * v[b]
    block = iso.from_ring(ghat)
    return _embed_block(M, level_index, block)


def random_element(M, seed):
    """Reproducible sampling of Sp(M,t) for a standard module.

    Returns exp(S)·h with S a random radical Lie element (Cayley transform
    when the characteristic is too small for the exact exponential) and h a
    block-diagonal product of lifted residue transvections.
    """
    ks = M.partition
    if ks is None:
        raise ValueError("random_element needs a standard module")
    rng = random.Random(seed)
    field = M.field
    rad = getattr(M, "_radical_cache", None)
    if rad is None:
        rad = radical_lie_basis(M)
        M._radical_cache = rad
    S = la.zeros(field, M.dim, M.dim)
    for B in rad:
        c = field.random(rng, 3)
        if c:
            S = la.mat_add(S, la.scal_mul(c, B))
    r = exp_nilpotent(field, S)
    if r is None:
        r = cayley(field, S)
    levels, mults = _levels(ks)
    h = la.identity(field, M.dim)
    for i, m in enumerate(mults):
        for _ in range(3):
            v = [field.random(rng, 2) for _ in range(2 * m)]
            if not any(bool(c) for c in v):
                v[rng.randrange(2 * m)] = field.one
            lam = field.random_nonzero(rng, 2)
            h = la.mat_mul(h, levi_transvection(M, i, v, lam))
    g = la.mat_mul(r, h)
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
    """BFS closure of a generator list under multiplication."""
    seen = {}
    frontier = []
    for g in gens:
        kk = key(g)
        if kk not in seen:
            seen[kk] = g
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = mul(a, b)
                kk = key(c)
                if kk not in seen:
                    seen[kk] = c
                    nxt.append(c)
                    if len(seen) > max_size:
                        raise EnumerationGuardError(
                            "closure exceeded %d elements" % max_size)
        frontier = nxt
    return list(seen.values())
