"""Orbits of orthogonal groups over truncated polynomial rings.

Elements x of M_- ⊗ V are classified under the right action of G(F[t]/(t^K))
on the V-side by two invariants: the image submodule of the attached
t-linear map f_x(v) = sum_i (v_i, v) u_i, and the symmetric tensor
T(x) = sum_{i,j} (v_i, v_j) u_i ⊗ u_j read in S_t^2(Im f_x).  Equality of
both invariants is equivalent to lying in one orbit; `transport` produces an
explicit group element by Witt lifting the chain residues w_i mod t^{k_i},
from which the invariants are read, followed by isometry extension (both
in `witt`, whose public names are re-exported here).

Elements are read one way, on ints over Q and F_p alike: W = Im f_x is
keyed by the canonical int echelon rows of f_x and gets one `_Image` record
in its space's memo, off which the invariants, `transport` and the tangent
map read x's chain residues and T(x); `act` and transport's check x·g = y
share one int action (`_act`).  The census runs the same steps on int64
arrays of `_BLOCK` elements, within the int64 bound `_census_count` checks.

All computations run at working precision K = max k_i of the type of M_-,
since t^K kills every pairing that matters.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import lcm

import numpy as np

from . import linalg as la
from .fields import FpElement, PrimeField
from .sntmodule import EnumerationGuardError, enum_guard_limit, quasi_basis
from .spgroup import cayley
from .tpoly import TruncPoly, TruncRing
from .witt import (HypothesisFailedError, IsometryMismatchError,  # noqa: F401
                   _extend_ints, _reflection, _upper_pairs,
                   _witt_lift_ints, extend_isometry, witt_extend_field,
                   witt_lift)

_BLOCK = 1024       # elements per array in the census


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
    `Qr` is the Gram matrix of V over R_K = F[t]/(t^K), and `_Ql` the same
    as int layers (layers, d), converted once for `transport`; its layer 0
    gives V's Gram as int columns `_Qt` over the denominator `_dq`.

    The space memoises the image submodules of its elements, one `_Image`
    record per W in `_images`: `_image` keys W by its canonical int echelon
    rows and calls `quasi_basis` once per key.  The memo lives and dies
    with the space; nothing is shared between spaces.
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
        self._Ql = la._to_layers((field.char, self.K), self.Qr)
        self._Qt, self._dq = la.transpose(self._Ql[0][0]), self._Ql[1]
        self._images = {}
        self.d = sum(ks)
        self.offsets = list(itertools.accumulate(ks[:-1], initial=0))
        # t^s on M_- coordinates: entry j takes entry shifts[s][j] (-1: zero)
        self._shifts = [[o + a - s if a >= s else -1 for o, k in zip(self.offsets, ks)
                         for a in range(k)] for s in range(self.K)]
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
        self._count()
        for key in itertools.product(self._rows(), repeat=self.d):
            yield TensorElement(self, key)

    def _count(self):
        """The number q^(d·n) of elements, code c's base-q digits being x's
        entries row by row (`all_elements`' order); EnumerationGuardError
        when there are more than the guard allows."""
        if not isinstance(self.field, PrimeField):
            raise ValueError("exhaustive element lists need a finite field")
        total = self.field.p ** (self.d * self.V.dim)
        if total > enum_guard_limit():
            raise EnumerationGuardError("element space of size %d exceeds guard" % total)
        return total

    def _rows(self):
        """The q^n rows as tuples of FpElements, the row of code c at c."""
        return list(itertools.product(self.field.elements(), repeat=self.V.dim))

    def ring_pair(self, u, v):
        """(u, v) in V[t]/(t^K) for TruncPoly vectors u, v."""
        return la.bilinear(u, self.Qr, v)

    def _f_rows(self, X):
        """f_x's rows as ints, in `f_matrix`'s order, for x's coordinate rows
        X as ints over a denominator dx (residues over F_p): over dx·`_dq`,
        row (l, s) is column l of x·Q pushed s steps along each chain of
        M_-."""
        xQ = la._dots(self.field.char, X, self._Qt)
        return [[col[j] for j in idx] for col in (c + (0,) for c in zip(*xQ))
                for idx in self._shifts]

    def _image(self, X):
        """The `_Image` record of W = Im f_x for x's coordinate rows X as
        ints, from the memo.  Its key is the reduced echelon form of f_x's
        rows: residues over F_p, over Q primitive rows with a positive pivot
        (as `LagrangianFlag._fiber` keys W)."""
        p, f = self.field.char, self._f_rows(X)
        R, pivots = la._rref_ints(p, f) if p else la._int_echelon(0, f)
        key = tuple(map(tuple, R[:len(pivots)])) if p else tuple(
            tuple(r if r[c] > 0 else [-v for v in r]) for r, c in zip(R, pivots))
        img = self._images.get(key)
        if img is None:
            img = self._images[key] = _Image(self, quasi_basis(
                self.field, self.t_minus, self.K, la._box_echelon(p, R, pivots)))
        return img


class TensorElement:
    def __init__(self, space, coords):
        self.space = space
        self.coords = [list(r) for r in coords]
        if len(self.coords) != space.d or any(len(r) != space.V.dim for r in self.coords):
            raise ValueError("coordinate matrix has wrong shape")

    def key(self):
        return tuple(tuple(x for x in row) for row in self.coords)

    def is_zero(self):
        return la.is_zero_mat(self.coords)

    def act(self, g_ring):
        """x · g for g over R_K acting on the V side (row convention), by
        `_act` on ints."""
        sp = self.space
        p, kind = sp.field.char, (sp.field.char, sp.K)
        if la._int_kind([g_ring]) != kind:
            raise ValueError("mismatched truncation orders or coefficients: "
                             "g must be a matrix over %r" % (sp.R,))
        rows, e = _act(sp, la._to_ints(p, self.coords), la._to_layers(kind, g_ring))
        return TensorElement(sp, la._from_ints(p, rows, e))

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
    columns by M_- chain coordinates.  The rows are the space's int
    `_f_rows`, boxed once.
    """
    sp = x.space
    X, dx = la._to_ints(sp.field.char, x.coords)
    return la._from_ints(sp.field.char, sp._f_rows(X), dx * sp._dq)


def image_of(x):
    """Im f_x as an SntSubmodule of M_- (canonical span + quasi-basis)."""
    sp = x.space
    return sp._image(la._to_ints(sp.field.char, x.coords)[0]).W


class _Image:
    """W ⊆ M_- with what reads an element's chain data over it: W's
    `quasi_basis`, its chains C as int rows over one denominator, the pivot
    columns P of C with E = C[:, P]⁻¹, and the pairs T(x) sums over.

    W's chains are an F-basis of W, so each column v of x has unique
    coordinates a over them, a·C = v: the residues w_i mod t^{k_i} of
    x = Σ_i e_i ⊗ w_i, the t^s coefficient of w_i at position s of chain i.
    E comes from one reduction of [C | I], a = v_P·E, and a·C = v is checked
    for every column.  Ints are residues over F_p; over Q, for x's rows over
    dx, `coords` gives a over `den`·dx.
    """

    def __init__(self, sp, W):
        p, d = sp.field.char, sp.d
        self.W, self.p, self.n, self.Qt = W, p, sp.V.dim, sp._Qt
        (C, dc), m = la._to_ints(p, W.chains), len(W.chains)
        self.P, piv, Y = [], [], []
        if m:
            R, self.P = la._rref_ints(p, [row + [int(i == j) for j in range(m)]
                                          for i, row in enumerate(C)])
            if self.P[-1] >= d:
                raise RuntimeError("the chains of W are dependent")
            # row r is [a_r at P_r | y_r] with y_r·C[:, P] = a_r·e_r (a_r = 1
            # over F_p), so E = dc·(y_r/a_r)_r, here over den = lcm(a_r)
            piv, Y = [R[r][c] for r, c in enumerate(self.P)], [row[d:] for row in R]
        self.den = lcm(*piv)
        self.scale = self.den * dc
        self.Et = list(zip(*([x * (self.den // a) * dc for x in y] for y, a in zip(Y, piv))))
        self.Ct = list(zip(*C))
        # the (i, j) coordinate of T(x), i <= j, at t^e (e < k_j) is h times
        # the sum of G[o_i + a][o_j + e - a] over a, G = a·Q·aᵀ: h halves the
        # diagonal ones (over Q it doubles the others, all being over 2·D)
        ks, (hd, ho) = W.partition, ((p + 1) // 2, 1) if p else (1, 2)
        self.offs = list(itertools.accumulate(ks, initial=0))
        self.pairs = [(self.offs[i], self.offs[j], ks[j], hd if i == j else ho)
                      for i in range(len(ks)) for j in range(i, len(ks))]

    def coords(self, X):
        """x's chain coordinates a over W, as int rows, for its coordinate
        rows X as ints; ValueError when W does not contain Im f_x."""
        p, s = self.p, self.scale
        A = la._dots(p, self.Et, list(zip(*(X[j] for j in self.P))))
        back = la._dots(p, self.Ct, list(zip(*A))) if A else [[0] * self.n for _ in X]
        if back != (list(map(list, X)) if s == 1 else [[s * v for v in r] for r in X]):
            raise ValueError("W does not contain Im f_x")
        return A

    def t_sym(self, A):
        """T(x)'s coordinates as int tuples from x's chain coordinates A:
        residues over F_p, over Q numerators over 2·D, D = (den·dx)²·dq."""
        G = la._dots(0, la._dots(0, A, self.Qt), A)      # unreduced
        p = self.p
        if p:       # reduced in place: a pass after it costs the census ~5 %
            return tuple(tuple(h * sum(G[oi + a][oj + e - a] for a in range(e + 1)) % p
                               for e in range(kj)) for oi, oj, kj, h in self.pairs)
        return tuple(tuple(h * sum(G[oi + a][oj + e - a] for a in range(e + 1))
                           for e in range(kj)) for oi, oj, kj, h in self.pairs)

    def t_digits(self, X, Q):
        """`coords` and `t_sym` over F_p on int64 arrays: T(x)'s coordinates,
        (B, #coordinates), for x's rows X (B, d, n) and V's Gram Q."""
        p, r, d = self.p, len(self.P), X.shape[1]
        A = np.array(self.Et, np.int64).reshape(r, r) @ X[:, self.P] % p
        if (np.array(self.Ct, np.int64).reshape(d, r) @ A % p != X).any():
            raise ValueError("W does not contain Im f_x")
        G = A @ Q % p @ A.swapaxes(1, 2) % p
        T = [h * sum(G[:, oi + a, oj + e - a] for a in range(e + 1)) % p
             for oi, oj, kj, h in self.pairs for e in range(kj)]
        return np.array(T, np.int64).reshape(-1, len(X)).T

    def tangent(self, A):
        """(rows, ncols) of dT_x on W ⊗ V as ints, unreduced, over
        den·dx·dq over Q, from x's chain coordinates A.  Direction
        t^s e_i ⊗ b_l, paired with chain j, moves coordinate
        (min(i, j), max(i, j)) at t^(s+u) by the t^u coefficient of
        (w_j, b_l), entry (o_j + u, l) of U = a·Q."""
        ks, n = self.W.partition, self.n
        U = la._dots(0, A, self.Qt)
        starts = list(itertools.accumulate((kj for _, _, kj, _ in self.pairs), initial=0))
        col = dict(zip(((i, j) for i in range(len(ks)) for j in range(i, len(ks))), starts))
        rows = []
        for i, ki in enumerate(ks):
            for s in range(ki):
                for l in range(n):
                    row = [0] * starts[-1]
                    for j, oj in enumerate(self.offs[:-1]):
                        c, kb = col[min(i, j), max(i, j)] + s, ks[max(i, j)]
                        for u in range(kb - s):
                            row[c + u] = U[oj + u][l]
                    rows.append(row)
        return rows, starts[-1]


def _read(x, W):
    """(the record of W, x's coordinate rows as ints, their denominator): W
    = Im f_x from the space's memo when W is None, else W as given."""
    sp = x.space
    X, dx = la._to_ints(sp.field.char, x.coords)
    return (sp._image(X) if W is None else _Image(sp, W)), X, dx


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
    w_j mod t^{k_j}: exactly the chain coordinates that W's record reads
    off x.  Raises ValueError when W does not contain Im f_x.
    """
    return _t_sym(x, W)[0]


def _t_sym(x, W):
    """(`t_sym`'s invariant, the chain residues w_i mod t^{k_i} it is read
    from as int layers (layers, d)), from W's record; T(x) is boxed once."""
    sp = x.space
    img, X, dx = _read(x, W)
    A, p, D = img.coords(X), sp.field.char, img.den * dx
    T = la._from_ints(p, img.t_sym(A), 2 * D * D * sp._dq)
    return (OrbitInvariant(img.W.span, img.W.partition, tuple(map(tuple, T))),
            la._lnorm(p, _layers(sp.K, img.W.partition, A, sp.V.dim), D))


def orbit_invariant(x):
    return t_sym(x, None)


def same_orbit(x, y):
    """Theorem-level test: equal images and equal symmetric tensors."""
    if x.space is not y.space and (x.space.ks != y.space.ks or
                                   x.space.V.gram != y.space.V.gram):
        raise ValueError("elements live in different tensor spaces")
    return orbit_invariant(x) == orbit_invariant(y)


def transport(x, y):
    """A ring-orthogonal g with x·g = y, or None when the orbits differ.

    The witness lifts the chain residues c_i = w_i mod t^{k_i} that the
    invariants are read from, so x = sum_i e_i ⊗ c_i over W = Im f_x.  As
    v -> ((c_i, v) mod t^{k_i}) maps onto ⊕ R_{k_i}, the c_i(0) are
    independent, and equal invariants give y's residues d_i with
    (c_i, c_j) = (d_i, d_j) mod t^{min(k_i, k_j)}: `witt_lift`'s hypothesis.
    The residues come as int layers from `_t_sym`; lifting, extension and
    the check x·g = y (`_act`) run on them, and g is boxed once.
    """
    sp = x.space
    inv_x, c = _t_sym(x, None)
    inv_y, d = _t_sym(y, None)
    if inv_x != inv_y:
        return None
    g = _extend_ints(sp, c, _witt_lift_ints(sp, c, d, list(inv_x.partition)))
    p = sp.field.char
    rows, e = _act(sp, la._to_ints(p, x.coords), g)
    Y, dy = la._to_ints(p, y.coords)
    if not la._leq(p, ([rows], e), ([Y], dy)):
        raise RuntimeError("transport verification failed")
    return la._from_layers((p, sp.K), sp.field, *g)


def _layers(K, ks, rows, n):
    """Int rows laid out chain by chain (chain i of length k_i) as K layers
    of n columns: row i of layer s is row s of chain i, zero for s >= k_i,
    so chain i reads as Σ_s (row s of chain i)·t^s."""
    offs = list(itertools.accumulate(ks, initial=0))
    return [[rows[o + s] if s < k else [0] * n for o, k in zip(offs, ks)]
            for s in range(K)]


def _act(sp, X, g):
    """x·g on ints, for x's coordinate rows X and g over R_K as (layers, d)
    pairs: row s of chain i of x·g is the t^s coefficient of w_i·g,
    w_i = Σ_s (row s of chain i of x)·t^s.  Returns x·g's rows as a pair."""
    img, e = la._lmul(sp.field.char, (_layers(sp.K, sp.ks, X[0], sp.V.dim), X[1]), g)
    return [img[s][i] for i, k in enumerate(sp.ks) for s in range(k)], e


# --------------------------------------------------------------------------
# tangent map and submersiveness
# --------------------------------------------------------------------------

def tangent_matrix(x, W=None):
    """F-matrix of the differential of T at x, on W ⊗ V.

    Rows: directions t^s e_i ⊗ b_l (i over W's quasi-basis, s < k_i,
    l over the V basis).  Columns: coordinates of S_t^2(W) over the pairs
    (i <= j) with coefficients mod t^{k_j}.  The rows are W's record's int
    `tangent`, boxed once.  Raises ValueError when W does not contain
    Im f_x.
    """
    img, X, dx = _read(x, W)
    rows, ncols = img.tangent(img.coords(X))
    return la._from_ints(img.p, rows, img.den * dx * x.space._dq), ncols


def is_submersive(x, W=None):
    """Rank criterion: dT_x surjective onto S_t^2(W); asserted equivalent to
    Im f_x = W.  The rank is taken on the record's int rows."""
    img, X, _ = _read(x, None)
    used = img if W is None else _Image(x.space, W)
    rows, ncols = used.tangent(used.coords(X))
    by_rank = len(la._int_echelon(img.p, rows)[1]) == ncols
    by_image = img.W.span == used.W.span
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


def _census_count(sp):
    """The element guard (`TensorSpace._count`), then the int64 bound of the
    census's arrays: codes below q^(d·n), and residues reduced mod p after
    each product, so that a dot of at most d·n terms stays below p²·d·n."""
    total, p, dn = sp._count(), sp.field.p, sp.d * sp.V.dim
    bound = max(p * p * dn, total)
    if bound >= 2 ** 63:
        raise EnumerationGuardError("int64 bound 2^63 <= max(p²·d·n, q^(d·n)) = %d" % bound)
    return total


def _digits(codes, q, m):
    """The m base-q digits of each code, most significant first, (N, m)."""
    return codes[:, None] // q ** np.arange(m - 1, -1, -1, dtype=np.int64) % q


def _inverses(a, p):
    """a^(p-2) mod p, the inverses of the nonzero residues a, by squaring."""
    out, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            out = out * a % p
        a, e = a * a % p, e >> 1
    return out


def _echelon(f, p):
    """The reduced row echelon forms over F_p of the matrices f (B, m, d), as
    (B, min(m, d), d) with the zero rows last: equal forms, equal row spaces.
    One elimination step per column, for all B matrices at once."""
    f = f % p
    B, m, d = f.shape
    rank, at = np.zeros(B, np.int64), np.arange(m)
    for c in range(d):
        pick = (f[:, :, c] != 0) & (at >= rank[:, None])
        bs = np.flatnonzero(pick.any(axis=1))
        if not len(bs):
            continue
        r, pr = rank[bs], pick[bs].argmax(axis=1)       # pivot row pr moves to r
        piv = f[bs, pr]
        piv = piv * _inverses(piv[:, c], p)[:, None] % p
        f[bs, pr] = f[bs, r]
        col = f[bs, :, c]
        col[np.arange(len(bs)), r] = 0
        f[bs] = (f[bs] - col[:, :, None] * piv[:, None, :]) % p
        f[bs, r] = piv
        rank[bs] += 1
    return f[:, :min(m, d)]


def brute_force_orbits(space):
    """Exact orbit partition of M_- ⊗ V under O(V)(F_q[t]/(t^K)): frozensets
    of coordinate keys, in the order of the orbits' first elements.  Row s of
    chain i of x·g is Σ_{b<=s} (row s - b of chain i of x)·g_b (`_act`), one
    int64 product per position s for a wave of orbit representatives and a
    piece of the group, _BLOCK products at most: a large group comes in
    pieces of _BLOCK for one representative, a small one whole for up to
    _BLOCK // |group| unseen elements of a block.  Orbits are marked in a
    `seen` bitmap.  The guard counts |group| products per orbit and is
    checked before each orbit is recorded, once its wave's first piece is
    computed.  Codes and residues stay within `_census_count`'s int64 bound."""
    sp = space
    total, p, d, n = _census_count(sp), sp.field.p, sp.d, sp.V.dim  # the guards first
    group, limit = _group_layers(sp.V, sp.K), enum_guard_limit()
    # stack[s][g]: g_0, ..., g_s stacked; the history of row s of a chain (its rows
    # s, ..., 0, picked by hist[s] for each chain longer than s) times it is x·g's row
    stack = [np.array([g[:s + 1] for g in group], np.int64).reshape(len(group), -1, n)
             for s in range(sp.K)]
    hist = [np.array([[(o + s - b) * n + l for b in range(s + 1) for l in range(n)]
                      for o, k in zip(sp.offsets, sp.ks) if k > s]) for s in range(sp.K)]
    # x·g's entries come position by position; pw[j] is the place value of entry j
    order = np.concatenate([h[:, :n] for h in hist]).ravel()
    pw = (p ** np.arange(d * n - 1, -1, -1))[order]
    rows, seen, orbits, products = sp._rows(), np.zeros(total, bool), [], 0
    # orbit representatives per product: with more than one, per·|group| <= _BLOCK,
    # so the group comes in one piece and each row of codes holds a whole orbit
    per = max(1, _BLOCK // len(group))
    for start in range(0, total, _BLOCK):
        X = _digits(np.arange(start, min(start + _BLOCK, total)), p, d * n)
        todo = np.flatnonzero(~seen[start:start + _BLOCK])
        for w in range(0, len(todo), per):
            cand = todo[w:w + per]
            cand = cand[~seen[start + cand]]
            if not len(cand):
                continue
            Xc, step = X[cand], max(1, _BLOCK // len(cand))
            reps, found, sizes = None, [], 0
            for g in range(0, len(group), step):
                # x·g for each candidate x and group element g of this piece
                xg = np.concatenate([Xc[:, h][:, None] @ st[None, g:g + step]
                                     for h, st in zip(hist, stack)], axis=2) % p
                # the stable sort np.unique uses too: the default one maps in more code
                S = np.sort(xg.reshape(len(cand), -1, d * n) @ pw, axis=1, kind="stable")
                if reps is None:
                    # a candidate in an earlier one's orbit shares its least code
                    reps = np.sort(np.unique(S[:, 0], return_index=True)[1])
                    for _ in reps:
                        products += len(group)
                        if products > limit:
                            raise EnumerationGuardError(
                                "orbit products of %d exceed the guard %d" % (products, limit))
                # each orbit's codes, once, but those of earlier pieces of the group
                S = S[reps]
                keep = ~seen[S]
                keep[:, 1:] &= S[:, 1:] != S[:, :-1]
                seen[S[keep]] = True
                found.append(S[keep])
                sizes = sizes + keep.sum(axis=1)
            digits = iter(_digits(np.concatenate(found), len(rows), d).tolist())
            for size in sizes.tolist():
                orbits.append(frozenset(tuple(map(rows.__getitem__, r))
                                        for r in itertools.islice(digits, size)))
    return orbits


def invariant_partition(space):
    """Partition of all elements by the orbit invariant (W, i): a dict from
    each `OrbitInvariant` to the frozenset of its members' keys, in the order
    the classes are first met.  It runs on int64 arrays of `_BLOCK` elements
    in `all_elements`' order, within `_census_count`'s int64 bound; W = Im f_x
    is keyed by the reduced echelon form of f_x's rows (`_echelon`), and its
    `_Image`, found from its first element, reads T(x) for the block's
    elements of W (`t_digits`)."""
    sp = space
    total, p, d, n = _census_count(sp), sp.field.p, sp.d, sp.V.dim
    Q, shifts = np.array(sp._Qt, np.int64).T, np.array(sp._shifts)
    keys, fps = itertools.product(sp._rows(), repeat=d), list(sp.field.elements())
    # images: echelon bytes -> W's record; classes: (W, T(x)'s code) -> index in
    # members, whose entries are (first element, invariant, keys)
    images, classes, members = {}, {}, []
    for start in range(0, total, _BLOCK):
        X = _digits(np.arange(start, min(start + _BLOCK, total)), p, d * n).reshape(-1, d, n)
        # row (l, s) of f_x: column l of x·Q pushed s steps along each chain
        xQ = np.concatenate([X @ Q % p, np.zeros_like(X[:, :1])], axis=1)
        f = xQ[:, shifts].swapaxes(2, 3).reshape(len(X), -1, d)
        ech = np.ascontiguousarray(_echelon(f, p)).reshape(len(X), -1)
        _, first, inv = np.unique(ech.view(np.dtype((np.void, ech.shape[1] * 8))).ravel(),
                                  return_index=True, return_inverse=True)
        cls = np.empty(len(X), np.int64)
        for u, j in enumerate(first.tolist()):
            key = ech[j].tobytes()
            if key not in images:
                images[key] = sp._image(X[j].tolist())
            W = images[key]
            at = np.flatnonzero(inv == u)
            # W has at most n chains, so T(x) has at most d·n coordinates
            T = W.t_digits(X[at], Q)
            t_codes = T @ p ** np.arange(T.shape[1] - 1, -1, -1)
            codes, t_first, t_inv = np.unique(t_codes, return_index=True, return_inverse=True)
            ids = []
            for c, i in zip(codes.tolist(), t_first.tolist()):
                if (W, c) not in classes:
                    classes[W, c] = len(members)
                    members.append((start + at[i], _census_invariant(W, T[i], fps), []))
                ids.append(classes[W, c])
            cls[at] = np.array(ids)[t_inv]
        for key, c in zip(itertools.islice(keys, len(X)), cls.tolist()):
            members[c][2].append(key)
    members.sort(key=lambda m: m[0])
    return {invariant: frozenset(m) for _, invariant, m in members}


def _census_invariant(img, digits, fps):
    """The `OrbitInvariant` over W's record `img` of T(x)'s coordinates as
    residues in `t_digits`' order, boxed by `fps`."""
    coords = iter(map(fps.__getitem__, digits.tolist()))
    return OrbitInvariant(img.W.span, img.W.partition,
                          tuple(tuple(itertools.islice(coords, kj)) for _, _, kj, _ in img.pairs))


# --------------------------------------------------------------------------
# random orthogonal elements over the ring (for property tests)
# --------------------------------------------------------------------------

def _is_ring_orthogonal(g, Qr):
    return la.mat_eq(la.mat_mul(la.mat_mul(g, Qr), la.transpose(g)), Qr)


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
    S = [la.zeros(field, d, d) for _ in range(K)]       # the layers of S
    for s in range(1, K):
        for B in basis:
            c = field.random(rng, 2)
            if c:
                S[s] = la.mat_add(S[s], la.scal_mul(c, B))
    S = [[TruncPoly(field, cs) for cs in zip(*rows)] for rows in zip(*S)]
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
