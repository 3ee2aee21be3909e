"""Orbits of orthogonal groups over truncated polynomial rings.

Elements x of M_- ⊗ V are classified under the right action of G(F[t]/(t^K))
on the V-side by two invariants: the image submodule of the attached
t-linear map f_x(v) = sum_i (v_i, v) u_i, and the symmetric tensor
T(x) = sum_{i,j} (v_i, v_j) u_i ⊗ u_j read in S_t^2(Im f_x).  Equality of
both invariants is equivalent to lying in one orbit; `transport` produces an
explicit group element by Witt lifting the chain residues w_i mod t^{k_i},
from which the invariants are read, followed by isometry extension.

All computations run at working precision K = max k_i of the type of M_-,
since t^K kills every pairing that matters.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from operator import mul

from . import linalg as la
from .fields import FpElement, PrimeField
from .sntmodule import (EnumerationGuardError, enum_guard_limit,
                        module_coords, padded_chain, quasi_basis)
from .spgroup import cayley
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
    `Qr` is the Gram matrix of V over R_K = F[t]/(t^K).

    The space memoises the image submodules of its elements: `image_of`
    keys them by their canonical span and calls `quasi_basis` once per
    span.  The memo lives and dies with the space; nothing is shared
    between spaces.
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
        self.Qr = la.change_ring(self.R, V.gram)
        self._images = {}
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

    @classmethod
    def from_flag(cls, flag, V):
        """Tensor space attached to a Lagrangian flag of an ambient module.

        M_- need not be t-stable; it carries the action induced by
        M_- ≅ M/M_+.  Returns (space, chain_rows) where chain_rows express
        the adapted chain basis in the flag's M_- coordinates, so that an
        element sum_r (minus_r) ⊗ v_r with M_- coordinate matrix X becomes
        space.element(transpose(inverse(chain_rows)) · X).
        """
        field = flag.M.field
        Tm = flag.t_on_minus()
        d = flag.M.dim // 2
        sub = quasi_basis(field, Tm, flag.M.K, la.identity(field, d))
        return cls(field, sub.partition, V), sub.chains

    # -- elements ------------------------------------------------------------
    def element(self, coords):
        return TensorElement(self, coords)

    def zero(self):
        return TensorElement(self, la.zeros(self.field, self.d, self.V.dim))

    def random(self, rng):
        return TensorElement(self, [[self.field.random(rng, 3)
                                     for _ in range(self.V.dim)]
                                    for _ in range(self.d)])

    def all_elements(self):
        residues = self._residues()
        box = self._boxer()
        for x in residues:
            yield TensorElement(self, box(x))

    def _residues(self):
        """Every coordinate matrix over F_p as a tuple of int residue rows,
        in `all_elements`' order; raises EnumerationGuardError first when
        there are more than the guard allows."""
        if not isinstance(self.field, PrimeField):
            raise ValueError("exhaustive element lists need a finite field")
        q = self.field.p
        total = q ** (self.d * self.V.dim)
        if total > enum_guard_limit():
            raise EnumerationGuardError("element space of size %d exceeds guard" % total)
        rows = itertools.product(range(q), repeat=self.V.dim)
        return itertools.product(rows, repeat=self.d)

    def _boxer(self):
        """The map from rows of int residues to tuples of FpElements (an
        element's key from its residue rows), through one FpElement per
        residue."""
        box = list(self.field.elements()).__getitem__
        return lambda rows: tuple(tuple(map(box, row)) for row in rows)

    def ring_pair(self, u, v):
        """(u, v) in V[t]/(t^K) for TruncPoly vectors u, v."""
        return la.bilinear(u, self.Qr, v)


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
        imgs = la.mat_mul(self.chain_vectors(), g_ring)
        return TensorElement(sp, [[w.coeffs[s] for w in img]
                                  for img, k in zip(imgs, sp.ks)
                                  for s in range(k)])

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
    return [row for l in range(sp.V.dim)
            for row in padded_chain(sp.field, sp.t_minus, base[l], sp.K)]


def image_of(x):
    """Im f_x as an SntSubmodule of M_- (canonical span + quasi-basis)."""
    sp = x.space
    span = la.rref_span(sp.field, f_matrix(x))
    img = sp._images.get(span)
    if img is None:
        img = sp._images[span] = quasi_basis(sp.field, sp.t_minus, sp.K,
                                             [list(r) for r in span])
    return img


def _coeffs_over(x, W):
    """[w_i mod t^{k_i}] for x = sum_i e_i ⊗ w_i over W's quasi-basis e_i.

    Column l of x is sum_i w_i[l]·e_i, so its coordinates over the chains
    t^s e_i (s < k_i) are the coefficients of w_i[l] mod t^{k_i}; the chains
    are an F-basis of W, so these residues are unique.
    """
    cols = module_coords(W, x.space.K, la.transpose(x.coords))
    if cols is None:
        raise ValueError("W does not contain Im f_x")
    return [[c[i] for c in cols] for i in range(len(W.partition))]


@dataclass(frozen=True)
class OrbitInvariant:
    """Canonical (W, i): the image submodule and the symmetric tensor
    coordinates over the quasi-basis pairs (i <= j), reduced mod t^{k_j}."""
    w_span: tuple
    partition: tuple
    coords: tuple


def t_sym(x, W=None):
    """Coordinates of T(x) in S_t^2(W); W defaults to Im f_x.

    The (i, j) coordinate of T(x) = sum (w_i, w_j) e_i ⊗ e_j lives mod
    t^{min(k_i, k_j)}, where it depends only on w_i mod t^{k_i} and
    w_j mod t^{k_j}: exactly the chain coordinates that `_coeffs_over`
    reads off x.  Raises ValueError when W does not contain Im f_x.
    """
    return _t_sym(x, W)[0]


def _t_sym(x, W):
    """(`t_sym`'s invariant, the chain residues w_i mod t^{k_i} it is read
    from)."""
    sp = x.space
    W = image_of(x) if W is None else W
    ws = _coeffs_over(x, W)
    ks = list(W.partition)
    m = len(ks)
    half = sp.field(1) / sp.field(2)
    P = la.mat_mul(la.mat_mul(ws, sp.Qr), la.transpose(ws))
    coords = []
    for i in range(m):
        for j in range(i, m):
            c = P[i][j] if i < j else half * P[i][i]
            coords.append(tuple(c.coeffs[:ks[j]]))
    return OrbitInvariant(W.span, tuple(ks), tuple(coords)), ws


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
    # P[i][a] = (b_i, basis_a)
    P = la.mat_mul(bvecs, space.Qr)
    targets = la.identity(space.R, len(bvecs))
    duals = la.solve(space.R, P, targets)
    # unit-pivot elimination can miss an inconsistency of positive
    # valuation, so the solutions are checked
    if duals is None or la.mat_mul(duals, la.transpose(P)) != targets:
        raise RuntimeError("dual system unsolvable; tuple not primitive?")
    return duals


def witt_lift(space, avecs, bvecs, ks):
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
        sol = la.solve(field, rows, [rhs])
        if sol is None:
            raise RuntimeError("hyperbolic completion is unsolvable")
        u = sol[0]
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
    g0_Qt_inv = la.inverse(field, la.mat_mul(Q, la.transpose(g0)))
    for layer in range(1, K):
        # residuals of the vector conditions
        deltas = []
        for a, b in zip(avecs, bvecs):
            img = la.vec_mat(a, g)
            deltas.append([img[l].coeffs[layer] - b[l].coeffs[layer]
                           for l in range(V.dim)])
        h = _solve_layer(field, Q, g0, g0_Qt_inv, abar,
                         _layer_residual(g, sp.Qr, layer), deltas)
        g = _add_layer(g, h, layer)
    # exact postconditions
    if not _is_ring_orthogonal(g, sp.Qr):
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
    h0 = la.mat_mul(la.scal_mul(-(field(1) / field(2)), Delta), g0_Qt_inv)
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
    sol = la.solve(field, rows, [rhs])
    if sol is None:
        raise RuntimeError("layer system inconsistent; inputs not in one orbit?")
    return _add_skew(field, h0, g0_Qt_inv, sol[0])


def transport(x, y):
    """A ring-orthogonal g with x·g = y, or None when the orbits differ.

    The witness lifts the chain residues c_i = w_i mod t^{k_i} that the
    invariants are read from, so x = sum_i e_i ⊗ c_i over W = Im f_x.  As
    v -> ((c_i, v) mod t^{k_i}) maps onto ⊕ R_{k_i}, the c_i(0) are
    independent, and equal invariants give y's residues d_i with
    (c_i, c_j) = (d_i, d_j) mod t^{min(k_i, k_j)}: `witt_lift`'s hypothesis.
    """
    sp = x.space
    inv_x, c = _t_sym(x, None)
    inv_y, d = _t_sym(y, None)
    if inv_x != inv_y:
        return None
    g = extend_isometry(sp, c, witt_lift(sp, c, d, list(inv_x.partition)))
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
    (i <= j) with coefficients mod t^{k_j}.  Raises ValueError when W does
    not contain Im f_x.
    """
    sp = x.space
    W = image_of(x) if W is None else W
    ws = _coeffs_over(x, W)
    ks = list(W.partition)
    m = len(ks)
    WQ = la.mat_mul(ws, sp.Qr)      # WQ[j][l] = (w_j, b_l)
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
                    a, bb = min(i, j), max(i, j)
                    kb = ks[bb]
                    for u, coef in enumerate(WQ[j][l].coeffs):
                        if coef and s + u < kb:
                            row[col_off[(a, bb)] + s + u] = \
                                row[col_off[(a, bb)] + s + u] + coef
                rows.append(row)
    return rows, ncols


def is_submersive(x, W=None):
    """Rank criterion: dT_x surjective onto S_t^2(W); asserted equivalent to
    Im f_x = W."""
    sp = x.space
    img = image_of(x)
    W_used = W if W is not None else img
    rows, ncols = tangent_matrix(x, W_used)
    by_rank = (la.rank(sp.field, rows) == ncols) if ncols else True
    by_image = img.span == W_used.span
    if by_rank != by_image:
        raise RuntimeError("rank and image criteria disagree")
    return by_rank


# --------------------------------------------------------------------------
# brute-force oracle over finite fields
# --------------------------------------------------------------------------

def orthogonal_group_ring(V, k):
    """All of O(V)(F_q[t]/(t^k)) by kernel lifting through t-adic layers:
    `_group_layers`' elements boxed once, one TruncPoly per coefficient
    tuple."""
    fps = cache(lambda c: FpElement(V.field.p, c))
    polys = cache(lambda cs: TruncPoly(V.field, [fps(c) for c in cs]))
    return [[[polys(cs) for cs in zip(*rows)] for rows in zip(*g)]
            for g in _group_layers(V, k)]


def _group_layers(V, k):
    """O(V)(F_q[t]/(t^k)) with each element g = Σ g_s·t^s as its layers
    g_0, …, g_{k−1} of int residues: the lifts of each element of level 0,
    in `_level0_group`'s order, by `_lifts`."""
    field = V.field
    if not isinstance(field, PrimeField):
        raise ValueError("group enumeration needs a finite field")
    limit = enum_guard_limit()
    q, d = field.p, V.dim
    Q = V.gram
    base = _level0_group(field, Q, limit)
    if not all(la.mat_eq(la.mat_mul(la.mat_mul(g, Q), la.transpose(g)), Q)
               for g in base):
        raise RuntimeError("a level-0 element does not preserve the form")
    skew_dim = d * (d - 1) // 2
    total = len(base) * q ** ((k - 1) * skew_dim)
    if total > limit:
        raise EnumerationGuardError("group of size %d exceeds guard" % total)
    Qi = la._to_ints(q, Q)[0]
    return [g for g0 in base for g in _lifts(q, Qi, la._to_ints(q, g0)[0], k)]


def _lifts(p, Q, g0, k):
    """The lifts of g0 in O(V)(F_p) to O(V)(F_p[t]/(t^k)) as lists of k
    int layer matrices, Q the Gram matrix of V as residues.

    A lift g mod t^layer goes on to g + h·t^layer exactly when
    h·Q·g0ᵀ + g0·Q·hᵀ = −Δ, Δ = Σ g_a·Q·g_bᵀ over a + b = layer, a, b ≥ 1
    (the t^layer coefficient of g·Q·gᵀ).  So h·Q·g0ᵀ is −Δ/2 plus a skew
    matrix: h runs over h0 + Σ v_j·S_j, h0 = −Δ/2·(Q·g0ᵀ)⁻¹ and
    S_j = E_j·(Q·g0ᵀ)⁻¹, E_j = e_r·e_sᵀ − e_s·e_rᵀ for the j-th pair (r, s)
    of `_upper_pairs`, v in `itertools.product` order (`_affine_family`).
    Siblings share their lower layers."""
    d = len(Q)
    Qg0t = la._ints_mul(p, Q, la.transpose(g0))
    R, _ = la._rref_ints(p, [row + e for row, e in zip(Qg0t, la._int_identity(d))])
    inv = [row[d:] for row in R]
    # S_j = E_j·(Q·g0ᵀ)⁻¹: row r is row s of the inverse, row s minus row r
    S = [[inv[s] if i == r else [-x for x in inv[r]] if i == s else [0] * d
          for i in range(d)] for r, s in _upper_pairs(d)]
    minus_half = (p - 1) // 2      # −1/2 mod p
    lifts = [[g0]]
    for layer in range(1, k):
        nxt = []
        for g in lifts:
            Delta = [[0] * d for _ in range(d)]
            for a in range(1, layer):
                P = la._ints_mul(p, la._ints_mul(p, g[a], Q),
                                 la.transpose(g[layer - a]))
                Delta = [[x + y for x, y in zip(r, s)] for r, s in zip(Delta, P)]
            h0 = la._ints_mul(p, [[minus_half * x for x in r] for r in Delta], inv)
            nxt += [g + [h] for h in la._affine_family(p, h0, S)]
        lifts = nxt
    return lifts


def _level0_group(field, Q, limit):
    """O(V)(F_q) row by row, in the order of a scan over all q^(d²) matrices.

    Row i of g ranges over the vectors v with B(v, v) = Q_ii and
    B(g_j, v) = Q_ji for every earlier row g_j, where B(u, v) = u·Q·vᵀ;
    the candidates of each row come in `itertools.product` order.  The work
    is done on int residues, with v·Q computed once per vector.  The guard
    counts the partial solutions times q^d, summed over the rows, and is
    checked before each row is searched; row 0's q^d candidates are counted
    before they are built.
    """
    q, d = field.p, len(Q)
    Qv = [[x.v for x in row] for row in Q]
    partial, visited = [()], 0
    for i in range(d):
        visited += len(partial) * q ** d
        if visited > limit:
            raise EnumerationGuardError(
                "level-0 search of %d candidate rows exceeds guard %d" % (visited, limit))
        if i == 0:
            vecs = list(itertools.product(range(q), repeat=d))
            vQ = [[sum(v[l] * Qv[l][c] for l in range(d)) % q for c in range(d)]
                  for v in vecs]
            norms = [sum(a * b for a, b in zip(w, v)) % q for v, w in zip(vecs, vQ)]
        same_norm = [n for n, c in enumerate(norms) if c == Qv[i][i]]
        nxt = []
        for rows in partial:
            earlier = [(vQ[n], Qv[j][i]) for j, n in enumerate(rows)]
            for n in same_norm:
                v = vecs[n]
                if all(sum(a * b for a, b in zip(w, v)) % q == want
                       for w, want in earlier):
                    nxt.append(rows + (n,))
        partial = nxt
    return [[[field(x) for x in vecs[n]] for n in rows] for rows in partial]


def brute_force_orbits(space):
    """Exact orbit partition of M_- ⊗ V under O(V)(F_q[t]/(t^K)).

    Returns a list of frozensets of coordinate keys, in the order of the
    orbits' first elements.  The action runs on int residues, as
    `TensorElement.act` does on TruncPolys: row s of chain i of x·g is the
    sum over b <= s of (row s - b of chain i of x)·g_b, g_b the t^b layer
    of g from `_group_layers`.  The guard counts these products, |group|
    per orbit, as they accrue.
    """
    sp = space
    residues = sp._residues()       # the element guard, before the group
    group = _group_layers(sp.V, sp.K)
    p, n, limit = sp.field.p, sp.V.dim, enum_guard_limit()
    chain_pos = [s for k in sp.ks for s in range(k)]
    acts = []
    for g in group:
        # cols[s][c]: column c of g_0, g_1, ..., g_s stacked, whose product
        # with the history of row s of a chain (below) is entry c of row s
        # of that chain of x·g
        gt = [list(zip(*layer)) for layer in g]
        cols = [[sum((t[c] for t in gt[:s + 1]), ()) for c in range(n)]
                for s in range(sp.K)]
        acts.append([cols[s] for s in chain_pos])
    seen, orbits, products = set(), [], 0
    for x in residues:
        if x in seen:
            continue
        products += len(acts)
        if products > limit:
            raise EnumerationGuardError(
                "orbit products of %d exceed the guard %d" % (products, limit))
        # the history of row s of a chain: rows s, s - 1, ..., 0 of it
        hist = []
        for o, k in zip(sp.offsets, sp.ks):
            h = ()
            for r in x[o:o + k]:
                h = r + h
                hist.append(h)
        orb = {tuple(tuple(sum(map(mul, h, c)) % p for c in cs)
                     for h, cs in zip(hist, act)) for act in acts}
        seen |= orb
        orbits.append(orb)
    box = sp._boxer()
    return [frozenset(map(box, orb)) for orb in orbits]


def invariant_partition(space):
    """Partition of all elements by the orbit invariant (W, i): a dict from
    each `OrbitInvariant` to the frozenset of its members' keys, in the order
    the classes are first met.

    It runs on int residues, step for step as `orbit_invariant`: f_x is x·Q
    followed by its t-chains, t shifting each chain of M_- coordinates by
    one; W = Im f_x is keyed by the reduced echelon form of those rows; each
    new W goes once through `quasi_basis` in a `_ChainSolver`, which reads
    x's chain residues over W and T(x).  FpElements are built only for each
    class's invariant and its members' keys.
    """
    sp = space
    residues = sp._residues()
    p, box = sp.field.p, sp._boxer()
    Qcols = list(zip(*([x.v for x in row] for row in sp.V.gram)))
    # t^s on M_- coordinates: entry j takes entry shifts[s][j] (-1: zero)
    shifts = [[o + a - s if a >= s else -1 for o, k in zip(sp.offsets, sp.ks)
               for a in range(k)] for s in range(sp.K)]
    images, classes = {}, {}
    for x in residues:
        xQ = [[sum(map(mul, row, c)) % p for c in Qcols] for row in x]
        f = [[col[j] for j in idx] for col in (c + (0,) for c in zip(*xQ))
             for idx in shifts]
        R, pivots = la._rref_ints(p, f)
        span = tuple(map(tuple, R[:len(pivots)]))
        W = images.get(span)
        if W is None:
            W = images[span] = _ChainSolver(sp, box(span), Qcols)
        classes.setdefault((span, W.t_sym(x)), []).append(x)
    return {OrbitInvariant(images[span].W.span, images[span].W.partition,
                           box(coords)): frozenset(map(box, members))
            for (span, coords), members in classes.items()}


class _ChainSolver:
    """An image W ⊆ M_- over F_p for `invariant_partition`: its
    `quasi_basis`, with all its self-checks, and the int data that read an
    element's chain residues and T(x) off its residue rows.

    W's chains C are an F_p-basis of W, so each column v of x has unique
    coordinates a over them, a·C = v; these are the residues
    w_i mod t^{k_i} that `_coeffs_over` reads.  With P the pivot columns of
    C and E = C[:, P]⁻¹, both from one reduction of [C | I], a = v_P·E, and
    a·C = v is checked for every column as `_coeffs_over` checks it.
    """

    def __init__(self, sp, span, Qcols):
        """W from its reduced echelon rows `span` (FpElements); Qcols are
        the columns of V's Gram matrix as int residues."""
        p, d = sp.field.p, sp.d
        self.W = quasi_basis(sp.field, sp.t_minus, sp.K, [list(r) for r in span])
        C = [[x.v for x in row] for row in self.W.chains]
        m = len(C)
        self.P, E = [], []
        if m:
            R, self.P = la._rref_ints(p, [row + [int(i == j) for j in range(m)]
                                          for i, row in enumerate(C)])
            if self.P[-1] >= d:
                raise RuntimeError("the chains of W are dependent")
            E = [row[d:] for row in R]
        self.p, self.n, self.Qcols = p, sp.V.dim, Qcols
        self.Et = list(zip(*E))
        self.Ct = list(zip(*C)) if m else [()] * d
        # the (i, j) coordinate of T(x), i <= j, at t^e (e < k_j) is the sum
        # of G[o_i + a][o_j + e - a] over a, G the Gram matrix of the chain
        # coordinates; the diagonal ones are halved
        ks = self.W.partition
        offs = list(itertools.accumulate(ks, initial=0))
        half = (p + 1) // 2
        self.pairs = [(offs[i], offs[j], ks[j], half if i == j else 1)
                      for i in range(len(ks)) for j in range(i, len(ks))]

    def t_sym(self, x):
        """T(x)'s coordinates as int tuples, for the residue rows x."""
        p = self.p
        cols = list(zip(*(x[j] for j in self.P)))
        ws = [[sum(map(mul, e, c)) % p for c in cols] for e in self.Et]
        wcols = list(zip(*ws)) if ws else [()] * self.n
        if [tuple(sum(map(mul, c, w)) % p for w in wcols) for c in self.Ct] != list(x):
            raise ValueError("W does not contain Im f_x")
        U = [[sum(map(mul, w, c)) for c in self.Qcols] for w in ws]
        G = [[sum(map(mul, u, w)) for w in ws] for u in U]
        return tuple(tuple(h * sum(G[oi + a][oj + e - a] for a in range(e + 1)) % p
                           for e in range(kj)) for oi, oj, kj, h in self.pairs)


# --------------------------------------------------------------------------
# random orthogonal elements over the ring (for property tests)
# --------------------------------------------------------------------------

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
    basis = la.isometry_lie_basis(field, V.gram)
    S = la.zeros(R, d, d)
    for s in range(1, K):
        for B in basis:
            c = field.random(rng, 2)
            if c:
                S = _add_layer(S, la.scal_mul(c, B), s)
    g = la.mat_mul(la.change_ring(R, g0), cayley(R, S))
    if not _is_ring_orthogonal(g, sp.Qr):
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
