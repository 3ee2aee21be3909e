"""Orbits of orthogonal groups over truncated polynomial rings.

Elements x of M_- ⊗ V are classified under the right action of G(F[t]/(t^K))
on the V-side by two invariants: the image submodule of the attached
t-linear map f_x(v) = sum_i (v_i, v) u_i, and the symmetric tensor
T(x) = sum_{i,j} (v_i, v_j) u_i ⊗ u_j read in S_t^2(Im f_x).  Equality of
both invariants is equivalent to lying in one orbit; `transport` produces an
explicit group element by Witt lifting followed by isometry extension.

All computations run at working precision K = max k_i of the type of M_-,
since t^K kills every pairing that matters.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg as la
from .fields import PrimeField
from .sntmodule import (EnumerationGuardError, enum_guard_limit,
                        quasi_basis, module_coords)
from .tpoly import TruncPoly, TruncRing


class HypothesisFailedError(ValueError):
    """Input tuples violate the congruence hypothesis of the Witt lift."""


class IsometryMismatchError(ValueError):
    """Isometry extension was requested for tuples with unequal products."""


class OrthSpace:
    """A vector space with a nondegenerate symmetric bilinear form."""

    def __init__(self, field, gram):
        self.field = field
        self.gram = [list(r) for r in gram]
        self.dim = len(self.gram)
        if any(len(r) != self.dim for r in self.gram):
            raise ValueError("gram must be square")
        if not la.mat_eq(self.gram, la.transpose(self.gram)):
            raise ValueError("gram must be symmetric")
        la.inverse(field, self.gram)  # raises if degenerate

    def pair(self, u, v):
        return la.bilinear(list(u), self.gram, list(v))

    def __repr__(self):
        return "OrthSpace(dim=%d over %r)" % (self.dim, self.field)


def hyperbolic_plane(field):
    return OrthSpace(field, [[field.zero, field.one], [field.one, field.zero]])


def diagonal_space(field, entries):
    n = len(entries)
    G = la.zeros(field, n, n)
    for i, e in enumerate(entries):
        G[i][i] = field(e)
    return OrthSpace(field, G)


# --------------------------------------------------------------------------
# tensor space M_- ⊗ V in chain coordinates
# --------------------------------------------------------------------------

class TensorSpace:
    """M_- ⊗ V for M_- of type k_1 >= ... >= k_n, in chain coordinates.

    Row r of a coordinate matrix corresponds to the F-basis vector t^s f_i
    of M_-; the i-th chain occupies rows offset_i .. offset_i + k_i - 1.
    """

    def __init__(self, field, ks, V):
        ks = tuple(ks)
        if not ks or list(ks) != sorted(ks, reverse=True) or min(ks) < 1:
            raise ValueError("type must be a nonincreasing positive partition")
        if V.field != field:
            raise ValueError("field mismatch between M_- and V")
        self.field = field
        self.ks = ks
        self.V = V
        self.K = ks[0]
        self.R = TruncRing(field, self.K)
        self.d = sum(ks)
        self.offsets = []
        off = 0
        for k in ks:
            self.offsets.append(off)
            off += k
        # t on M_- coordinates: shift along each chain
        T = la.zeros(field, self.d, self.d)
        for o, k in zip(self.offsets, ks):
            for s in range(k - 1):
                T[o + s][o + s + 1] = field.one
        self.t_minus = T
        self.t_powers = la.nilpotent_powers(field, T)   # I, t, ..., t^{K-1}

    @classmethod
    def from_flag(cls, flag, V):
        """Tensor space attached to a Lagrangian flag of an ambient module.

        M_- need not be t-stable; it carries the action induced by
        M_- ≅ M/M_+.  Returns (space, chain_rows) where chain_rows express
        the adapted chain basis in the flag's M_- coordinates, so that an
        element sum_r (minus_r) ⊗ v_r with M_- coordinate matrix X becomes
        space.element(transpose(inverse(chain_rows)) · X).
        """
        from .sntmodule import quasi_basis as _qb
        field = flag.M.field
        Tm = flag.t_on_minus()
        d = flag.M.dim // 2
        sub = _qb(field, Tm, flag.M.K, la.identity(field, d))
        chain_rows = []
        for h, k in zip(sub.quasi, sub.partition):
            v = list(h)
            chain_rows.append(v)
            for _ in range(k - 1):
                v = la.vec_mat(v, Tm)
                chain_rows.append(v)
        space = cls(field, sub.partition, V)
        return space, chain_rows

    def coords_from_flag(self, chain_rows, coords_minus):
        """Convert an M_--coordinate matrix to adapted chain coordinates."""
        Cinv = la.inverse(self.field, chain_rows)
        return la.mat_mul(la.transpose(Cinv), coords_minus)

    # -- elements ------------------------------------------------------------
    def element(self, coords):
        return TensorElement(self, coords)

    def zero(self):
        return TensorElement(self, la.zeros(self.field, self.d, self.V.dim))

    def from_pairs(self, pairs):
        """Element sum_i f_{c_i} ⊗ w_i from (chain index, TruncPoly vector) pairs."""
        coords = la.zeros(self.field, self.d, self.V.dim)
        for ci, w in pairs:
            o, k = self.offsets[ci], self.ks[ci]
            for l, poly in enumerate(w):
                for s in range(min(k, poly.prec)):
                    coords[o + s][l] = coords[o + s][l] + poly.coeffs[s]
        return TensorElement(self, coords)

    def random(self, rng):
        return TensorElement(self, [[self.field.random(rng, 3)
                                     for _ in range(self.V.dim)]
                                    for _ in range(self.d)])

    def all_elements(self, guard=None):
        if not isinstance(self.field, PrimeField):
            raise ValueError("exhaustive element lists need a finite field")
        limit = guard if guard is not None else enum_guard_limit()
        q = self.field.p
        total = q ** (self.d * self.V.dim)
        if total > min(limit, 10 ** 6):
            raise EnumerationGuardError("element space of size %d exceeds guard" % total)
        elems = list(self.field.elements())
        cells = self.d * self.V.dim
        for vals in itertools.product(elems, repeat=cells):
            coords = [list(vals[r * self.V.dim:(r + 1) * self.V.dim])
                      for r in range(self.d)]
            yield TensorElement(self, coords)

    def ring_pair(self, u, v):
        """(u, v) in V[t]/(t^K) for TruncPoly vectors u, v."""
        acc = TruncPoly.zero(self.field, self.K)
        for a in range(self.V.dim):
            if not u[a]:
                continue
            for b in range(self.V.dim):
                q = self.V.gram[a][b]
                if q and v[b]:
                    acc = acc + u[a] * v[b] * q
        return acc


class TensorElement:
    def __init__(self, space, coords):
        self.space = space
        self.coords = [list(r) for r in coords]
        if len(self.coords) != space.d or any(len(r) != space.V.dim for r in self.coords):
            raise ValueError("coordinate matrix has wrong shape")

    def key(self):
        return tuple(tuple(x for x in row) for row in self.coords)

    def chain_vectors(self):
        """The V[t]/(t^K)-vectors w_i with x = sum_i f_i ⊗ w_i."""
        sp = self.space
        out = []
        for o, k in zip(sp.offsets, sp.ks):
            vec = []
            for l in range(sp.V.dim):
                coeffs = [self.coords[o + s][l] if s < k else sp.field.zero
                          for s in range(sp.K)]
                vec.append(TruncPoly(sp.field, coeffs))
            out.append(vec)
        return out

    def is_zero(self):
        return la.is_zero_mat(self.coords)

    def act(self, g_ring):
        """x · g for g over R_K acting on the V side (row convention)."""
        sp = self.space
        out = la.zeros(sp.field, sp.d, sp.V.dim)
        for ci, w in enumerate(self.chain_vectors()):
            o, k = sp.offsets[ci], sp.ks[ci]
            img = [None] * sp.V.dim
            for b in range(sp.V.dim):
                acc = TruncPoly.zero(sp.field, sp.K)
                for a in range(sp.V.dim):
                    if w[a] and g_ring[a][b]:
                        acc = acc + w[a] * g_ring[a][b]
                img[b] = acc
            for l in range(sp.V.dim):
                for s in range(k):
                    out[o + s][l] = out[o + s][l] + img[l].coeffs[s]
        return TensorElement(sp, out)

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.space is other.space \
            and la.mat_eq(self.coords, other.coords)

    def __repr__(self):
        return "TensorElement(%r)" % (self.coords,)


# --------------------------------------------------------------------------
# the invariants
# --------------------------------------------------------------------------

def f_matrix(x):
    """Matrix of f_x : V[t]/(t^K) -> M_-.

    Rows are indexed by the domain F-basis t^s b_l (l major, s minor);
    columns by M_- chain coordinates.
    """
    sp = x.space
    CQ = la.mat_mul(x.coords, sp.V.gram)     # (d x dimV): column l = f-image data
    base = la.transpose(CQ)                  # rows indexed by l
    return [la.vec_mat(base[l], P) for l in range(sp.V.dim) for P in sp.t_powers]


def image_of(x):
    """Im f_x as an SntSubmodule of M_- (canonical span + quasi-basis)."""
    sp = x.space
    span = la.rref_span(sp.field, f_matrix(x))
    return quasi_basis(sp.field, sp.t_minus, sp.K, [list(r) for r in span])


def normal_form(x, W=None):
    """Write x = sum_i e_i ⊗ w_i over the quasi-basis of W = Im f_x.

    Returns (W, [w_i]) with w_i TruncPoly vectors; {w_i} is a basis of a
    primitive submodule of V[t]/(t^K) and the reconstruction is exact.
    Pass a larger W to express x over its quasi-basis instead (the w_i are
    then no longer primitive in general).
    """
    sp = x.space
    R = sp.R
    img = image_of(x)
    if x.is_zero():
        if W is None or not W.quasi:
            return img, []
        return W, [[R.zero] * sp.V.dim for _ in W.quasi]
    e_rows, orders = img.quasi, list(img.partition)
    m = len(e_rows)
    field = sp.field
    fm = f_matrix(x)
    # v_i with f_x(v_i) = e_i
    vs = []
    for e in e_rows:
        sol = la.solve(field, la.transpose(fm), list(e))
        if sol is None:
            raise RuntimeError("quasi-basis row escaped the image of f_x")
        vec = []
        for l in range(sp.V.dim):
            vec.append(TruncPoly(field, sol.particular[l * sp.K:(l + 1) * sp.K]))
        vs.append(vec)
    # complete the mod-t reduction to a basis of V by unit vectors
    vbar = [[v[l].coeffs[0] for l in range(sp.V.dim)] for v in vs]
    piv = la.rref(field, vbar)[1]
    if len(piv) != m:
        raise RuntimeError("lifted vectors are not primitive")
    comp = []
    for c in range(sp.V.dim):
        if c not in piv:
            u = [R.zero] * sp.V.dim
            u[c] = R.one
            comp.append(u)
    # push the complement into ker f_x:  u' = u - l(u) with f_x(l(u)) = f_x(u)
    comp_ker = []
    for u in comp:
        fu = la.vec_mat([c for poly in u for c in poly.coeffs], fm)   # f_x(u)
        coords = module_coords(field, sp.t_minus, sp.K, e_rows, orders, fu)
        if coords is None:
            raise RuntimeError("f_x(u) escaped Im f_x")
        comp_ker.append(la.vec_sub(u, la.vec_mat(coords, vs)))
    basis = vs + comp_ker
    N = len(basis)
    if N != sp.V.dim:
        raise RuntimeError("basis completion failed")
    # dual basis via the ring Gram matrix
    Gamma = [[sp.ring_pair(basis[i], basis[j]) for j in range(N)] for i in range(N)]
    ws = la.mat_mul(la.inverse(R, Gamma)[:m], basis)
    # exact reconstruction check
    rebuilt = sp.from_pairs([]).coords
    for e, w in zip(e_rows, ws):
        for l in range(sp.V.dim):
            for s, c in enumerate(w[l].coeffs):
                if c:
                    ev = la.vec_mat(list(e), sp.t_powers[s])
                    for r in range(sp.d):
                        if ev[r]:
                            rebuilt[r][l] = rebuilt[r][l] + ev[r] * c
    if not la.mat_eq(rebuilt, x.coords):
        raise RuntimeError("normal form failed to reconstruct x")
    if W is None or W == img:
        return img, ws
    # re-express over the quasi-basis of the larger W
    return W, _reexpress(sp, img, ws, W)


def _reexpress(sp, img, ws, W):
    """Coefficients over W's quasi-basis from those over Im f_x ⊆ W."""
    C = []      # row k: coordinates of the k-th quasi-basis vector of Im f_x
    for e_img in img.quasi:
        coords = module_coords(sp.field, sp.t_minus, sp.K, W.quasi, list(W.partition), e_img)
        if coords is None:
            raise ValueError("W does not contain Im f_x")
        C.append(coords)
    return la.mat_mul(la.transpose(C), ws)


@dataclass(frozen=True)
class OrbitInvariant:
    """Canonical (W, i): the image submodule and the symmetric tensor
    coordinates over the quasi-basis pairs (i <= j), reduced mod t^{k_j}."""
    w_span: tuple
    partition: tuple
    coords: tuple


def t_sym(x, W=None):
    """Coordinates of T(x) in S_t^2(W); W defaults to Im f_x."""
    sp = x.space
    W_used, ws = normal_form(x, W)
    ks = list(W_used.partition)
    m = len(ks)
    half = sp.field(1) / sp.field(2)
    coords = []
    for i in range(m):
        for j in range(i, m):
            if i < j:
                c = sp.ring_pair(ws[i], ws[j])
            else:
                c = half * sp.ring_pair(ws[i], ws[i])
            coords.append(tuple(c.coeffs[:ks[j]]))
    return OrbitInvariant(W_used.span, tuple(ks), tuple(coords))


def orbit_invariant(x):
    return t_sym(x, None)


def same_orbit(x, y):
    """Theorem-level test: equal images and equal symmetric tensors."""
    if x.space is not y.space and (x.space.ks != y.space.ks or
                                   x.space.V.gram != y.space.V.gram):
        raise ValueError("elements live in different tensor spaces")
    return orbit_invariant(x) == orbit_invariant(y)


# --------------------------------------------------------------------------
# Witt lifting
# --------------------------------------------------------------------------

def _is_primitive_tuple(V, vecs):
    if not vecs:
        return True
    field = V.field
    vbar = [[v[l].coeffs[0] for l in range(V.dim)] for v in vecs]
    return la.rank(field, vbar) == len(vecs)


def _dual_vectors(space, bvecs):
    """c_j in V[t]/(t^K) with (b_i, c_j) = delta_ij, for a primitive tuple."""
    R = space.R
    # P[i][a] = (b_i, basis_a)
    P = la.mat_mul(bvecs, la.change_ring(R, space.V.gram))
    Pt = la.transpose(P)
    duals = []
    for target in la.identity(R, len(bvecs)):
        # unit-pivot elimination can miss an inconsistency of positive
        # valuation, so the solution is checked
        sol = la.solve(R, P, target)
        if sol is None or la.vec_mat(sol.particular, Pt) != target:
            raise RuntimeError("dual system unsolvable; tuple not primitive?")
        duals.append(sol.particular)
    return duals


def witt_lift(space, avecs, bvecs, ks, check=True):
    """Correct b_1..b_m so its Gram matches a_1..a_m exactly mod t^K.

    Requires (a_i, a_j) = (b_i, b_j) mod t^{min(k_i, k_j)} with
    k_1 >= ... >= k_m >= 1 and both tuples primitive.  The result satisfies
    b~_i = b_i mod t^{k_i}, (b~_i, b~_j) = (a_i, a_j) exactly, and stays a
    primitive basis.
    """
    m = len(avecs)
    if len(bvecs) != m or len(ks) != m:
        raise ValueError("mismatched tuple lengths")
    if m == 0:
        return []
    if list(ks) != sorted(ks, reverse=True) or min(ks) < 1:
        raise ValueError("orders must satisfy k_1 >= ... >= k_m >= 1")
    sp = space
    K = sp.K
    if check:
        if not _is_primitive_tuple(sp.V, avecs) or not _is_primitive_tuple(sp.V, bvecs):
            raise ValueError("tuples must be primitive bases")
        for i in range(m):
            for j in range(m):
                d = sp.ring_pair(avecs[i], avecs[j]) - sp.ring_pair(bvecs[i], bvecs[j])
                if d.valuation() < min(ks[i], ks[j]):
                    raise HypothesisFailedError(
                        "products differ below t^min(k_i,k_j) at (%d,%d)" % (i, j))
    field = sp.field
    b = [list(v) for v in bvecs]
    for i in range(m):
        k = ks[i]
        duals = _dual_vectors(sp, b[:i + 1])
        # linear corrections against the earlier vectors
        hs = []
        for j in range(i):
            delta = sp.ring_pair(avecs[j], avecs[i]) - sp.ring_pair(b[j], b[i])
            hs.append(delta.divide_t(k))
        hs.append(sp.R.zero)  # h_i, solved degree by degree

        def updated():
            return la.vec_add(b[i], la.vec_mat([h.shift(k) for h in hs], duals))
        target = sp.ring_pair(avecs[i], avecs[i])
        for s in range(K - k):
            cur = updated()
            resid = sp.ring_pair(cur, cur) - target
            coef = resid.coeffs[k + s]
            if coef:
                fix = [field.zero] * K
                fix[s] = -coef / field(2)
                hs[i] = hs[i] + TruncPoly(field, fix)
        b[i] = updated()
        resid = sp.ring_pair(b[i], b[i]) - target
        if resid:
            raise RuntimeError("diagonal correction failed to converge")
    # exact postconditions
    for i in range(m):
        for j in range(m):
            if sp.ring_pair(b[i], b[j]) != sp.ring_pair(avecs[i], avecs[j]):
                raise RuntimeError("witt_lift postcondition (products) failed")
        diff = [b[i][l] - bvecs[i][l] for l in range(sp.V.dim)]
        if any(d.valuation() < ks[i] for d in diff if d):
            raise RuntimeError("witt_lift postcondition (congruence) failed")
    if not _is_primitive_tuple(sp.V, b):
        raise RuntimeError("witt_lift postcondition (primitivity) failed")
    return b


# --------------------------------------------------------------------------
# isometry extension: residue Witt theorem plus t-adic layers
# --------------------------------------------------------------------------

def _reflection(field, Q, w):
    """Matrix (row action) of x -> x - 2 (x,w)/(w,w) w."""
    n = len(Q)
    qw = la.bilinear(w, Q, w)
    if not qw:
        raise ValueError("reflection needs an anisotropic vector")
    Qwt = la.vec_mat(w, Q)
    coef = field(2) / qw
    R = la.identity(field, n)
    for r in range(n):
        for c in range(n):
            R[r][c] = R[r][c] - coef * Qwt[r] * w[c]
    return R


def _map_one_vector(field, Q, a, bvec):
    """Product of at most two reflections sending a to bvec.

    Needs (a,a) = (b,b) != 0; reflections are taken in span{a, b}, so any
    vector orthogonal to both stays fixed.
    """
    diff = la.vec_sub(a, bvec)
    if la.bilinear(diff, Q, diff):
        return _reflection(field, Q, diff)
    s = la.vec_add(a, bvec)
    g = _reflection(field, Q, s)
    return la.mat_mul(g, _reflection(field, Q, bvec))


def _match_pairs(field, Q, g, sources, targets):
    """Extend g so source_i (given in current coordinates) lands on target_i.

    Each step applies at most two reflections in span{source, target};
    remaining sources are pushed through every applied factor, so no
    orthogonality assumption is needed for correctness (the construction
    still relies on matched targets staying fixed, which the caller's
    orthogonal arrangement guarantees and the final asserts confirm).
    """
    cur = [list(s) for s in sources]
    for i in range(len(cur)):
        if cur[i] == list(targets[i]):
            continue
        h = _map_one_vector(field, Q, cur[i], list(targets[i]))
        g = la.mat_mul(g, h)
        for j in range(i, len(cur)):
            cur[j] = la.vec_mat(cur[j], h)
        if cur[i] != list(targets[i]):
            raise RuntimeError("vector matching step failed")
    return g


def _congruence_diagonalizer(field, Gamma):
    """C with C·Γ·Cᵀ diagonal, nonzero entries first, zeros trailing."""
    m = len(Gamma)
    D = la.copy_mat(Gamma)
    C = la.identity(field, m)

    def row_col_add(i, j, f):
        D[i] = [x + f * y for x, y in zip(D[i], D[j])]
        for r in range(m):
            D[r][i] = D[r][i] + f * D[r][j]
        C[i] = [x + f * y for x, y in zip(C[i], C[j])]

    def swap(i, j):
        D[i], D[j] = D[j], D[i]
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        C[i], C[j] = C[j], C[i]

    for s in range(m):
        if not D[s][s]:
            pr = next((i for i in range(s + 1, m) if D[i][i]), None)
            if pr is not None:
                swap(s, pr)
            else:
                pair = next(((i, j) for i in range(s, m)
                             for j in range(i + 1, m) if D[i][j]), None)
                if pair is None:
                    break  # remaining block is zero: shared radical
                i, j = pair
                row_col_add(i, j, field.one)  # diagonal becomes 2*D[i][j] != 0
                if i != s:
                    swap(s, i)
        piv = D[s][s]
        for i in range(m):
            if i != s and D[i][s]:
                row_col_add(i, s, -(D[i][s] / piv))
    return C


def _hyperbolic_partners(field, Q, fixed, zs):
    """u_i with (z_i, u_j) = delta_ij, Q(u_i) = 0, u_i orthogonal to `fixed`
    and to each other; zs must be independent isotropic mutually orthogonal."""
    us = []
    for i, z in enumerate(zs):
        rows = [la.vec_mat(list(v), Q) for v in zs] + \
               [la.vec_mat(list(v), Q) for v in fixed] + \
               [la.vec_mat(list(v), Q) for v in us]
        rhs = [field.one if j == i else field.zero for j in range(len(zs))] + \
              [field.zero] * (len(fixed) + len(us))
        sol = la.solve(field, rows, rhs)
        if sol is None:
            raise RuntimeError("hyperbolic completion is unsolvable")
        u = sol.particular
        qu = la.bilinear(u, Q, u)
        if qu:
            u = la.vec_sub(u, la.vec_scale(qu / field(2), list(z)))
        us.append(u)
    return us


def witt_extend_field(field, Q, A, B):
    """Extend the correspondence A[i] -> B[i] to an isometry of (V, Q).

    A and B are tuples of independent row vectors with equal Gram matrices.
    Classical construction: diagonalize the common Gram by a congruence,
    match the anisotropic part by reflections, then complete the shared
    radical vectors to hyperbolic pairs on both sides and match the
    anisotropic combinations z ± u.
    """
    m = len(A)
    n = len(Q)
    if m == 0:
        return la.identity(field, n)
    GramA = la.mat_mul(la.mat_mul(A, Q), la.transpose(A))
    GramB = la.mat_mul(la.mat_mul(B, Q), la.transpose(B))
    if not la.mat_eq(GramA, GramB):
        raise IsometryMismatchError("tuples have different Gram matrices")
    if la.rank(field, A) != m or la.rank(field, B) != m:
        raise IsometryMismatchError("tuples must be linearly independent")
    C = _congruence_diagonalizer(field, GramA)
    A2 = la.mat_mul(C, A)
    B2 = la.mat_mul(C, B)
    D = la.mat_mul(la.mat_mul(C, GramA), la.transpose(C))
    aniso = [i for i in range(m) if D[i][i]]
    radical = [i for i in range(m) if not D[i][i]]
    g = la.identity(field, n)
    g = _match_pairs(field, Q, g,
                     [A2[i] for i in aniso], [B2[i] for i in aniso])
    if radical:
        matched = [B2[i] for i in aniso]
        za = [la.vec_mat(A2[i], g) for i in radical]
        zb = [B2[i] for i in radical]
        ua = _hyperbolic_partners(field, Q, matched, za)
        ub = _hyperbolic_partners(field, Q, matched, zb)
        sources, targets = [], []
        for i in range(len(radical)):
            sources.append(la.vec_add(za[i], ua[i]))
            targets.append(la.vec_add(zb[i], ub[i]))
            sources.append(la.vec_sub(za[i], ua[i]))
            targets.append(la.vec_sub(zb[i], ub[i]))
        g = _match_pairs(field, Q, g, sources, targets)
    if not la.mat_eq(la.mat_mul(A, g), B):
        raise RuntimeError("isometry extension failed to match the tuples")
    if not la.mat_eq(la.mat_mul(la.mat_mul(g, Q), la.transpose(g)), Q):
        raise RuntimeError("isometry extension is not orthogonal")
    return g


def extend_isometry(space, avecs, bvecs):
    """g over R_K with a_i · g = b_i exactly and g·Q·gᵀ = Q over R_K.

    Requires (a_i, a_j) = (b_i, b_j) exactly and both tuples primitive.
    Residue-field Witt extension followed by one linear solve per t-adic
    layer (valid because 2 is invertible and the orthogonal group is smooth
    over the truncated ring).
    """
    sp = space
    field, V, K = sp.field, sp.V, sp.K
    m = len(avecs)
    for i in range(m):
        for j in range(m):
            if sp.ring_pair(avecs[i], avecs[j]) != sp.ring_pair(bvecs[i], bvecs[j]):
                raise IsometryMismatchError("tuples have unequal products")
    if not _is_primitive_tuple(V, avecs) or not _is_primitive_tuple(V, bvecs):
        raise IsometryMismatchError("tuples must be primitive bases")
    Q = V.gram
    abar = [[v[l].coeffs[0] for l in range(V.dim)] for v in avecs]
    bbar = [[v[l].coeffs[0] for l in range(V.dim)] for v in bvecs]
    g0 = witt_extend_field(field, Q, abar, bbar) if m else la.identity(field, V.dim)
    g = la.change_ring(sp.R, g0)
    Qr = la.change_ring(sp.R, Q)
    g0_Qt_inv = la.inverse(field, la.mat_mul(Q, la.transpose(g0)))
    for layer in range(1, K):
        # residuals of the vector conditions
        deltas = []
        for a, b in zip(avecs, bvecs):
            img = la.vec_mat(a, g)
            deltas.append([img[l].coeffs[layer] - b[l].coeffs[layer]
                           for l in range(V.dim)])
        h = _solve_layer(field, Q, g0, g0_Qt_inv, abar,
                         _layer_residual(g, Qr, layer), deltas)
        g = _add_layer(g, h, layer)
    # exact postconditions
    if not _is_ring_orthogonal(g, Qr):
        raise RuntimeError("isometry extension lost orthogonality over the ring")
    for a, b in zip(avecs, bvecs):
        if la.vec_mat(a, g) != list(b):
            raise RuntimeError("isometry extension failed a vector condition")
    return g


def _is_ring_orthogonal(g, Qr):
    return la.mat_eq(la.mat_mul(la.mat_mul(g, Qr), la.transpose(g)), Qr)


# One t-adic layer of lifting g from O(V)(R_layer) to O(V)(R_{layer+1}):
# g + h·t^layer stays orthogonal mod t^{layer+1} exactly when
# h·Q·g0ᵀ + g0·Q·hᵀ = -Delta.  Writing u = h·Q·g0ᵀ, the solutions are
# u = -Delta/2 + (any skew matrix).

def _layer_residual(g, Qr, layer):
    """Delta: the t^layer coefficient of g·Q·gᵀ - Q."""
    gQgT = la.mat_mul(la.mat_mul(g, Qr), la.transpose(g))
    return [[x.coeffs[layer] - q.coeffs[layer] for x, q in zip(rx, rq)]
            for rx, rq in zip(gQgT, Qr)]


def _layer_particular(field, Delta, g0_Qt_inv):
    """h0 = -Delta/2 · (Q·g0ᵀ)⁻¹."""
    return la.mat_mul(la.scal_mul(-(field(1) / field(2)), Delta), g0_Qt_inv)


def _upper_pairs(d):
    return [(r, s) for r in range(d) for s in range(r + 1, d)]


def _add_skew(field, h0, g0_Qt_inv, vals):
    """h0 + u·(Q·g0ᵀ)⁻¹ for the skew u whose upper entries, row by row, are
    `vals`."""
    d = len(h0)
    u = la.zeros(field, d, d)
    for (r, s), v in zip(_upper_pairs(d), vals):
        u[r][s] = v
        u[s][r] = -v
    return la.mat_add(h0, la.mat_mul(u, g0_Qt_inv))


def _add_layer(g, h, layer):
    """g + h·t^layer for g over R_K and h over F, as a new matrix."""
    out = [row[:] for row in g]
    for r, hrow in enumerate(h):
        for c, x in enumerate(hrow):
            if x:
                p = out[r][c]
                add = [p.field.zero] * p.prec
                add[layer] = x
                out[r][c] = p + TruncPoly(p.field, add)
    return out


def _solve_layer(field, Q, g0, g0_Qt_inv, abar, Delta, deltas):
    """One t-adic layer of the lifting: find h over F with

        h·Q·g0ᵀ + g0·Q·hᵀ = -Delta      and      abar_i · h = -delta_i.

    The skew freedom is fixed by the vector conditions, whose compatibility
    is guaranteed by the exact product equalities.
    """
    d = len(Q)
    m = len(abar)
    h0 = _layer_particular(field, Delta, g0_Qt_inv)
    if m == 0:
        return h0
    # skew u with abar_i · u · g0_Qt_inv = eta_i
    g0_Qt = la.mat_mul(Q, la.transpose(g0))
    etas = []
    for i in range(m):
        want = [-(x) for x in deltas[i]]
        rem = la.vec_sub(want, la.vec_mat(abar[i], h0))
        etas.append(la.vec_mat(rem, g0_Qt))
    idx = {pair: j for j, pair in enumerate(_upper_pairs(d))}
    nvar = len(idx)

    def ucoef(r, s):
        if r == s:
            return None, None
        if r < s:
            return idx[(r, s)], field.one
        return idx[(s, r)], -field.one

    rows, rhs = [], []
    for i in range(m):
        for col in range(d):
            row = [field.zero] * nvar
            for r in range(d):
                j, sign = ucoef(r, col)
                if j is not None and abar[i][r]:
                    row[j] = row[j] + sign * abar[i][r]
            rows.append(row)
            rhs.append(etas[i][col])
    sol = la.solve(field, rows, rhs)
    if sol is None:
        raise RuntimeError("layer system inconsistent; inputs not in one orbit?")
    return _add_skew(field, h0, g0_Qt_inv, sol.particular)


def transport(x, y):
    """A ring-orthogonal g with x·g = y, or None when the orbits differ."""
    sp = x.space
    inv_x = orbit_invariant(x)
    inv_y = orbit_invariant(y)
    if inv_x != inv_y:
        return None
    if x.is_zero():
        return la.identity(sp.R, sp.V.dim)
    W, a = normal_form(x)
    _, b = normal_form(y)
    bt = witt_lift(sp, a, b, list(W.partition), check=True)
    g = extend_isometry(sp, a, bt)
    if x.act(g).key() != y.key():
        raise RuntimeError("transport verification failed")
    return g


# --------------------------------------------------------------------------
# tangent map and submersiveness
# --------------------------------------------------------------------------

def _sym_basis_size(ks):
    m = len(ks)
    return sum(ks[j] for i in range(m) for j in range(i, m))


def tangent_matrix(x, W=None):
    """F-matrix of the differential of T at x, on W ⊗ V.

    Rows: directions t^s e_i ⊗ b_l (i over W's quasi-basis, s < k_i,
    l over the V basis).  Columns: coordinates of S_t^2(W) over the pairs
    (i <= j) with coefficients mod t^{k_j}.
    """
    sp = x.space
    W_used, ws = normal_form(x, W if W is not None else image_of(x))
    ks = list(W_used.partition)
    m = len(ks)
    ncols = _sym_basis_size(ks)
    col_off = {}
    c = 0
    for i in range(m):
        for j in range(i, m):
            col_off[(i, j)] = c
            c += ks[j]
    rows = []
    for i in range(m):
        for s in range(ks[i]):
            for l in range(sp.V.dim):
                row = [sp.field.zero] * ncols
                for j in range(m):
                    if not ws:
                        continue
                    pairing = sp.ring_pair(ws[j], _unit_vec(sp, l))
                    a, bb = min(i, j), max(i, j)
                    kb = ks[bb]
                    for u, coef in enumerate(pairing.coeffs):
                        if coef and s + u < kb:
                            row[col_off[(a, bb)] + s + u] = \
                                row[col_off[(a, bb)] + s + u] + coef
                rows.append(row)
    return rows, ncols


def _unit_vec(sp, l):
    out = [sp.R.zero] * sp.V.dim
    out[l] = sp.R.one
    return out


def is_submersive(x, W=None):
    """Rank criterion: dT_x surjective onto S_t^2(W); asserted equivalent to
    Im f_x = W."""
    sp = x.space
    W_used = W if W is not None else image_of(x)
    rows, ncols = tangent_matrix(x, W_used)
    by_rank = (la.rank(sp.field, rows) == ncols) if ncols else True
    by_image = image_of(x).span == W_used.span
    if by_rank != by_image:
        raise RuntimeError("rank and image criteria disagree")
    return by_rank


# --------------------------------------------------------------------------
# brute-force oracle over finite fields
# --------------------------------------------------------------------------

def orthogonal_group_ring(V, k, guard=None):
    """All of O(V)(F_q[t]/(t^k)) by kernel lifting through t-adic layers."""
    field = V.field
    if not isinstance(field, PrimeField):
        raise ValueError("group enumeration needs a finite field")
    limit = guard if guard is not None else enum_guard_limit()
    q, d = field.p, V.dim
    if q ** (d * d) > limit:
        raise EnumerationGuardError("level-0 scan of size %d exceeds guard" % q ** (d * d))
    Q = V.gram
    elems = list(field.elements())
    base = []
    for vals in itertools.product(elems, repeat=d * d):
        g = [list(vals[r * d:(r + 1) * d]) for r in range(d)]
        if la.mat_eq(la.mat_mul(la.mat_mul(g, Q), la.transpose(g)), Q):
            base.append(g)
    skew_dim = d * (d - 1) // 2
    total = len(base) * q ** ((k - 1) * skew_dim)
    if total > min(limit, 10 ** 6):
        raise EnumerationGuardError("group of size %d exceeds guard" % total)
    R = TruncRing(field, k)
    sols = [la.change_ring(R, g) for g in base]
    Qr = la.change_ring(R, Q)
    for layer in range(1, k):
        nxt = []
        for g in sols:
            g0 = [[x.coeffs[0] for x in row] for row in g]
            g0_Qt_inv = la.inverse(field, la.mat_mul(Q, la.transpose(g0)))
            h0 = _layer_particular(field, _layer_residual(g, Qr, layer), g0_Qt_inv)
            for skew_vals in itertools.product(elems, repeat=skew_dim):
                h = _add_skew(field, h0, g0_Qt_inv, skew_vals)
                nxt.append(_add_layer(g, h, layer))
        sols = nxt
    return sols


def brute_force_orbits(space, guard=None):
    """Exact orbit partition of M_- ⊗ V under O(V)(F_q[t]/(t^K)).

    Returns a list of frozensets of coordinate keys.
    """
    sp = space
    group = orthogonal_group_ring(sp.V, sp.K, guard)
    seen = set()
    orbits = []
    for x in sp.all_elements(guard):
        kx = x.key()
        if kx in seen:
            continue
        orb = set()
        for g in group:
            orb.add(x.act(g).key())
        seen |= orb
        orbits.append(frozenset(orb))
    return orbits


def invariant_partition(space, guard=None):
    """Partition of all elements by the orbit invariant (W, i)."""
    sp = space
    classes = {}
    for x in sp.all_elements(guard):
        inv = orbit_invariant(x)
        classes.setdefault(inv, set()).add(x.key())
    return {inv: frozenset(v) for inv, v in classes.items()}


# --------------------------------------------------------------------------
# random orthogonal elements over the ring (for property tests)
# --------------------------------------------------------------------------

def orthogonal_lie_basis(V):
    """Basis of {S : S·Q + Q·Sᵀ = 0} over the base field."""
    return la.isometry_lie_basis(V.field, V.gram)


def random_orthogonal_ring(space, rng):
    """Random element of O(V)(R_K): random reflections at the residue level
    composed with a ring Cayley transform of a t-divisible Lie element."""
    sp = space
    field, V, K, R = sp.field, sp.V, sp.K, sp.R
    d = V.dim
    g0 = la.identity(field, d)
    for _ in range(rng.randint(1, 3)):
        w = _random_anisotropic(field, V, rng)
        g0 = la.mat_mul(g0, _reflection(field, V.gram, w))
    basis = orthogonal_lie_basis(V)
    S = la.zeros(R, d, d)
    for s in range(1, K):
        for B in basis:
            c = field.random(rng, 2)
            if c:
                S = _add_layer(S, la.scal_mul(c, B), s)
    A = la.scal_mul(R(field(1) / field(2)), S)
    I = la.identity(R, d)
    cay = la.mat_mul(la.mat_add(I, A), la.inverse(R, la.mat_sub(I, A)))
    g = la.mat_mul(la.change_ring(R, g0), cay)
    if not _is_ring_orthogonal(g, la.change_ring(R, V.gram)):
        raise RuntimeError("random orthogonal sample failed the form identity")
    return g


def _random_anisotropic(field, V, rng):
    d = V.dim
    for _ in range(100):
        w = [field.random(rng, 3) for _ in range(d)]
        if la.bilinear(w, V.gram, w):
            return w
    # deterministic fallback: basis vectors and pair sums
    for i in range(d):
        w = [field.zero] * d
        w[i] = field.one
        if la.bilinear(w, V.gram, w):
            return w
    for i in range(d):
        for j in range(i + 1, d):
            w = [field.zero] * d
            w[i] = field.one
            w[j] = field.one
            if la.bilinear(w, V.gram, w):
                return w
    raise RuntimeError("no anisotropic vector found (degenerate form?)")
