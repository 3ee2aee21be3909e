"""Orbits of orthogonal groups over truncated polynomial rings.

Elements x of M_- ⊗ V are classified under the right action of G(F[t]/(t^K))
on the V-side by two invariants: the image submodule of the attached
t-linear map f_x(v) = sum_i (v_i, v) u_i, and the symmetric tensor
T(x) = sum_{i,j} (v_i, v_j) u_i ⊗ u_j read in S_t^2(Im f_x).  Equality of
both invariants is equivalent to lying in one orbit; `transport` produces an
explicit group element by Witt lifting the chain residues w_i mod t^{k_i},
from which the invariants are read, followed by isometry extension (both
in `witt`, whose public names are re-exported here).

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
from .witt import (HypothesisFailedError, IsometryMismatchError,  # noqa: F401
                   _extend_ints, _reflection, _upper_pairs,
                   _witt_lift_ints, extend_isometry, witt_extend_field,
                   witt_lift)


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
    as int layers (layers, d), converted once for `transport`.

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
        self._Ql = la._to_layers((field.char, self.K), self.Qr)
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
    from as int layers (layers, d)).  The residues are converted once and
    T(x) is their Gram matrix over R_K, computed on them and boxed once."""
    sp = x.space
    W = image_of(x) if W is None else W
    p, ks = sp.field.char, W.partition
    ws = la._to_layers((p, sp.K), _coeffs_over(x, W))
    P = la._from_layers((p, sp.K), sp.field, *la._gram(p, ws, sp._Ql, ws))
    half = sp.field(1) / sp.field(2)
    coords = tuple(tuple((P[i][j] if i < j else half * P[i][i]).coeffs[:ks[j]])
                   for i in range(len(ks)) for j in range(i, len(ks)))
    return OrbitInvariant(W.span, tuple(ks), coords), ws


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
    the check x·g = y run on them, and g is boxed once.
    """
    sp = x.space
    inv_x, c = _t_sym(x, None)
    inv_y, d = _t_sym(y, None)
    if inv_x != inv_y:
        return None
    g = _extend_ints(sp, c, _witt_lift_ints(sp, c, d, list(inv_x.partition)))
    if not _acts_to(sp, x, g, y):
        raise RuntimeError("transport verification failed")
    return la._from_layers((sp.field.char, sp.K), sp.field, *g)


def _acts_to(sp, x, g, y):
    """Whether x·g = y for g over R_K as (layers, d): `TensorElement.act`
    on ints.  Row s of chain i of x·g is the t^s coefficient of w_i·g,
    w_i = Σ_s (row s of chain i of x)·t^s."""
    p, n = sp.field.char, sp.V.dim
    (X, dx), (Y, dy) = la._to_ints(p, x.coords), la._to_ints(p, y.coords)
    z = [0] * n
    chains = [[X[o + s] if s < k else z for o, k in zip(sp.offsets, sp.ks)]
              for s in range(sp.K)]
    img, e = la._lmul(p, (chains, dx), g)
    return la._leq(p, ([[img[s][i] for i, k in enumerate(sp.ks) for s in range(k)]], e),
                   ([Y], dy))


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
