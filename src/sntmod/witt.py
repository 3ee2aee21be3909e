"""Witt lifting and isometry extension over R_K = F[t]/(t^K).

`witt_lift` corrects a primitive tuple b_1..b_m of V[t]/(t^K) so that its
products match those of a_1..a_m exactly, given that they agree mod
t^{min(k_i, k_j)}; `extend_isometry` extends a_i -> b_i with equal products
to an element of O(V)(R_K): the residue-field Witt extension
(`witt_extend_field`, by reflections and hyperbolic completion) lifted one
t-adic layer at a time.  Both run on int layers (`linalg._to_layers`, with
V's ring Gram read from `TensorSpace._Ql`); `orbits.transport` calls their
int bodies `_witt_lift_ints` and `_extend_ints` directly.  The public names
are re-exported by `orbits`.
"""
from __future__ import annotations

import itertools

from . import linalg as la


class HypothesisFailedError(ValueError):
    """Input tuples violate the congruence hypothesis of the Witt lift."""


class IsometryMismatchError(ValueError):
    """Isometry extension was requested for tuples with unequal products."""


# --------------------------------------------------------------------------
# Witt lifting
# --------------------------------------------------------------------------

def _dual_vectors(sp, B):
    """c_j in V[t]/(t^K) with (b_i, c_j) = delta_ij, for a primitive tuple B,
    as (layers, d): P·Cᵀ = I for P = B·Q, solved by t-adic lifting
    (`linalg._lift_solve`), and C·Q·Bᵀ = I checked on ints."""
    p, m, K = sp.field.char, len(B[0][0]), sp.K
    eye = [la._int_identity(m)] + [[[0] * m for _ in range(m)]] * (K - 1)
    X = la._lift_solve(p, la._lmul(p, B, sp._Ql), (eye, 1))
    if X is not None:
        C = [la.transpose(L) for L in X[0]], X[1]
        if la._leq(p, la._gram(p, C, sp._Ql, B), (eye, 1)):
            return C
    raise RuntimeError("dual system unsolvable; tuple not primitive?")


def _tuple_layers(sp, *tuples):
    """The tuples of vectors over R_K as int layers (layers, d), converted
    once; ValueError unless every entry is a TruncPoly of precision K over
    the space's field with coefficients in it."""
    kind = (sp.field.char, sp.K)
    if la._int_kind(tuples) != kind and any(row for X in tuples for row in X):
        raise ValueError("mismatched truncation orders or coefficients: "
                         "the tuples must lie in V over %r" % (sp.R,))
    return [la._to_layers(kind, X) for X in tuples]


def _independent(p, *tuples):
    """Whether the rows of each (layers, d) tuple are independent mod t."""
    return all(len(la._int_echelon(p, X[0][0])[1]) == len(X[0][0]) for X in tuples)


def witt_lift(space, avecs, bvecs, ks):
    """Correct b_1..b_m so its Gram matches a_1..a_m exactly mod t^K.

    Requires (a_i, a_j) = (b_i, b_j) mod t^{min(k_i, k_j)} with
    k_1 >= ... >= k_m >= 1 and both tuples primitive.  The result satisfies
    b~_i = b_i mod t^{k_i}, (b~_i, b~_j) = (a_i, a_j) exactly, and stays a
    primitive basis.  The tuples are converted to int layers once and the
    result is boxed once (`_witt_lift_ints`).
    """
    b = _witt_lift_ints(space, *_tuple_layers(space, avecs, bvecs), ks)
    return la._from_layers((space.field.char, space.K), space.field, *b)


def _witt_lift_ints(sp, A, B, ks):
    """`witt_lift` for the tuples A and B as (layers, d) rows; returns b~ the
    same way.  Every check of `witt_lift` is made here, in its order."""
    m = len(A[0][0])
    if len(B[0][0]) != m or len(ks) != m:
        raise ValueError("mismatched tuple lengths")
    if m == 0:
        return B
    if list(ks) != sorted(ks, reverse=True) or min(ks) < 1:
        raise ValueError("orders must satisfy k_1 >= ... >= k_m >= 1")
    p, K, n, Q = sp.field.char, sp.K, sp.V.dim, sp._Ql
    if not _independent(p, A, B):
        raise ValueError("tuples must be primitive bases")
    GA = la._gram(p, A, Q, A)
    D = la._lsum(p, GA, la._gram(p, B, Q, B), -1)[0]
    for i in range(m):
        for j in range(m):
            if any(M[i][j] for M in D[:min(ks[i], ks[j])]):
                raise HypothesisFailedError(
                    "products differ below t^min(k_i,k_j) at (%d,%d)" % (i, j))
    b = B
    for i in range(m):
        k = ks[i]
        C = _dual_vectors(sp, ([M[:i + 1] for M in b[0]], b[1]))
        bi = [M[i:i + 1] for M in b[0]], b[1]
        # b_i + Σ_j h_j·t^k·c_j: h_j·t^k = (a_j, a_i) - (b_j, b_i), which
        # vanishes mod t^k, against the earlier vectors, then h_i·t^k, fixed
        # degree by degree
        delta, dd = la._lsum(p, ([[[M[j][i]] for j in range(i)] for M in GA[0]], GA[1]),
                             la._gram(p, ([M[:i] for M in b[0]], b[1]), Q, bi), -1)
        if any(map(any, itertools.chain(*delta[:k]))):
            raise ValueError("not divisible by t^%d" % k)
        H = [[[r[0] for r in M] + [0]] for M in delta], dd
        target = ([[[M[i][i]]] for M in GA[0]], GA[1])
        for s in range(k, K):
            cur = la._lsum(p, bi, la._lmul(p, H, C))
            resid, e = la._lsum(p, la._gram(p, cur, Q, cur), target, -1)
            if resid[s][0][0]:
                fix = [[[0] * (i + 1)] for _ in range(K)]
                fix[s][0][i] = resid[s][0][0]
                H = la._lsum(p, H, la._lscale(p, (fix, e), -1, 2))
        corr = la._lmul(p, H, C)
        bi = la._lsum(p, bi, corr)
        if not la._leq(p, la._gram(p, bi, Q, bi), target):
            raise RuntimeError("diagonal correction failed to converge")
        # row i of b gains corr: it becomes bi
        b = la._lsum(p, b, ([[c[0] if r == i else [0] * n for r in range(m)]
                             for c in corr[0]], corr[1]))
    # exact postconditions
    GB = la._lsum(p, la._gram(p, b, Q, b), GA, -1)[0]
    E = la._lsum(p, b, B, -1)[0]
    for i in range(m):
        if any(any(M[i]) for M in GB):
            raise RuntimeError("witt_lift postcondition (products) failed")
        if any(any(M[i]) for M in E[:ks[i]]):
            raise RuntimeError("witt_lift postcondition (congruence) failed")
    if not _independent(p, b):
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
    over the truncated ring).  The tuples are converted to int layers once
    and g is boxed once (`_extend_ints`).
    """
    g = _extend_ints(space, *_tuple_layers(space, avecs, bvecs))
    return la._from_layers((space.field.char, space.K), space.field, *g)


def _extend_ints(sp, A, B):
    """`extend_isometry` for the tuples A and B as (layers, d) rows; returns
    g the same way.  Every check of `extend_isometry` is made here, in its
    order.  The residue-field extension g0 runs boxed, once; each layer
    h of g = g0 + Σ h·t^layer is `_solve_layer`'s, on ints."""
    field, V, K, Q = sp.field, sp.V, sp.K, sp._Ql
    p, n, m = field.char, V.dim, len(A[0][0])
    if not la._leq(p, la._gram(p, A, Q, A), la._gram(p, B, Q, B)):
        raise IsometryMismatchError("tuples have unequal products")
    if not _independent(p, A, B):
        raise IsometryMismatchError("tuples must be primitive bases")
    abar, bbar = (la._from_ints(p, X[0][0], X[1]) for X in (A, B))
    g0 = witt_extend_field(field, V.gram, abar, bbar) if m else la.identity(field, n)
    g0i, d0 = la._to_ints(p, g0)
    Qg0t = la._lmul(p, ([Q[0][0]], Q[1]), ([la.transpose(g0i)], d0))
    inv, e = la._to_ints(p, la.inverse(field, la._from_ints(p, Qg0t[0][0], Qg0t[1])))
    zero = [[0] * n for _ in range(n)]
    g = [g0i] + [zero] * (K - 1), d0
    for layer in range(1, K):
        # the t^layer coefficients of g·Q·gᵀ - Q and of a_i·g - b_i
        Delta, dl = la._gram(p, g, Q, g)
        dv, dd = la._lsum(p, la._lmul(p, A, g), B, -1)
        h = _solve_layer(p, ([inv], e), Qg0t, ([A[0][0]], A[1]),
                         ([Delta[layer]], dl), ([dv[layer]], dd))
        g = la._lsum(p, g, ([zero] * layer + h[0] + [zero] * (K - 1 - layer), h[1]))
    # exact postconditions
    if not la._leq(p, la._gram(p, g, Q, g), Q):
        raise RuntimeError("isometry extension lost orthogonality over the ring")
    if not la._leq(p, la._lmul(p, A, g), B):
        raise RuntimeError("isometry extension failed a vector condition")
    return g


# One t-adic layer of lifting g from O(V)(R_layer) to O(V)(R_{layer+1}):
# g + h·t^layer stays orthogonal mod t^{layer+1} exactly when
# h·Q·g0ᵀ + g0·Q·hᵀ = -Delta.  Writing u = h·Q·g0ᵀ, the solutions are
# u = -Delta/2 + (any skew matrix).

def _upper_pairs(d):
    return [(r, s) for r in range(d) for s in range(r + 1, d)]


def _solve_layer(p, inv, Qg0t, abar, Delta, deltas):
    """One t-adic layer of the lifting: find h over F with

        h·Q·g0ᵀ + g0·Q·hᵀ = -Delta      and      abar_i · h = -delta_i,

    for (Q·g0ᵀ)⁻¹ = inv, Q·g0ᵀ, abar, Delta and the deltas as one-layer
    matrices.  The skew freedom is fixed by the vector conditions, whose
    compatibility is guaranteed by the exact product equalities: the skew u
    with abar_i · u = eta_i is the particular solution `linalg.solve` gives
    (free unknowns 0), read on ints off `linalg._int_kernel` of the
    homogeneous system [M | -eta]: its vector for the last unknown, over
    that vector's last entry.
    """
    h0 = la._lmul(p, la._lscale(p, Delta, -1, 2), inv)
    (A,), a = abar
    if not A:
        return h0
    # eta_i = -(delta_i + abar_i·h0)·Q·g0ᵀ = -E_i / e; the equations below
    # are a·e times those of abar_i·u - eta_i = 0
    (E,), e = la._lmul(p, la._lsum(p, deltas, la._lmul(p, abar, h0)), Qg0t)
    d = len(E[0])
    pairs = _upper_pairs(d)
    idx = {pair: j for j, pair in enumerate(pairs)}
    rows = []
    for ai, ei in zip(A, E):
        for c in range(d):
            # column c of abar_i·u is Σ_r abar_i[r]·u[r][c]
            row = [0] * len(pairs) + [ei[c] * a]
            for r, x in enumerate(ai):
                if r != c and x:
                    row[idx[min(r, c), max(r, c)]] += x * e if r < c else -x * e
            rows.append(row)
    ker, f = la._int_kernel(p, rows)
    # the last unknown is free exactly when the system is consistent
    if not ker or not ker[-1][-1]:
        raise RuntimeError("layer system inconsistent; inputs not in one orbit?")
    u = [[0] * d for _ in range(d)]
    for (r, s), v in zip(pairs, ker[-1]):
        u[r][s], u[s][r] = v, -v
    return la._lsum(p, h0, la._lmul(p, ([u], f), inv))
