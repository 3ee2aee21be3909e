"""Independent oracles for the ring layer, used by the tests only.

These are the boxed routes that src replaced by int-layer ones:
- `rref_generic` is elimination through the elements' operators, with
  unit pivots (any nonzero entry over a field, a nonzero constant term over
  F[t]/(t^K)); `boxed_inverse` and `boxed_solve` are `linalg.inverse` and
  `linalg.solve` on it.  Over F[t]/(t^K), `boxed_solve` can return a
  non-solution when the reduction mod t of A lacks full row rank; src
  solves ring systems by t-adic lifting (`linalg._lift_solve`) instead.
- `valuation`, `divide_t` and `poly_inv` are the boxed TruncPoly
  helpers, and `NotAUnitError` is what `poly_inv` raises on a non-unit;
  `ring_pair` is the pairing of V[t]/(t^K) on TruncPoly vectors.
- `smith_form_t` is the full t-local Smith normal form U·A·V = D over
  F[t]/(t^K), with U and V built; `smith_divisors` reads its column orders.
  `boxed_smith_orders` is the trimmed reduction (orders and V⁻¹ only) on
  boxed TruncPolys, which `sntmodule._smith_orders` runs on int layers.
- `boxed_quasi_basis` is the quasi-basis built the long way, from one
  `padded_chain` per generator, the full Smith form and a ring inverse of
  V.  `padded_chain` (the t-chain of one vector cut or padded to k rows)
  also gives the rows of the boxed f_x.

The file is not named test_*.py, so pytest imports it without collecting
it.
"""
from sntmod import linalg as la
from sntmod.tpoly import TruncPoly, TruncRing


class NotAUnitError(ArithmeticError):
    """Inversion of a non-unit (constant term zero) was attempted."""


def valuation(a):
    """The t-adic valuation of a TruncPoly: its first nonzero coefficient,
    its precision K when it is zero."""
    return next((i for i, c in enumerate(a.coeffs) if c), a.prec)


def divide_t(a, s):
    """Exact division by t^s; raises if any low coefficient is nonzero."""
    if any(a.coeffs[:s]):
        raise ValueError("not divisible by t^%d" % s)
    return TruncPoly(a.field, list(a.coeffs[s:]), a.prec)


def poly_inv(a):
    """Multiplicative inverse mod t^K; requires a unit."""
    if not a.coeffs[0]:
        raise NotAUnitError("constant term is zero")
    c0inv = a.field.one / a.coeffs[0]
    out = [c0inv]
    for n in range(1, a.prec):
        acc = a.field.zero
        for i in range(1, n + 1):
            if a.coeffs[i]:
                acc = acc + a.coeffs[i] * out[n - i]
        out.append(-c0inv * acc)
    return TruncPoly(a.field, out)


def ring_pair(space, u, v):
    """(u, v) in V[t]/(t^K) for TruncPoly vectors u, v of a TensorSpace."""
    return la.bilinear(u, space.Qr, v)


def _is_unit(x):
    return bool(x.coeffs[0]) if isinstance(x, TruncPoly) else bool(x)


def rref_generic(field, rows):
    """Reduced row echelon form through the elements' operators: the first
    unit of each column from the current row on is the pivot."""
    R = [row[:] for row in rows]
    nr = len(R)
    nc = len(R[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if _is_unit(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.one / R[r][c] if not isinstance(field, TruncRing) else \
            poly_inv(R[r][c])
        R[r] = [inv * x for x in R[r]]
        for i in range(nr):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return R, pivots


def boxed_inverse(field, A):
    """`linalg.inverse` on `rref_generic`."""
    n = len(A)
    R, pivots = rref_generic(field, [row[:] + e for row, e in zip(A, la.identity(field, n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [R[i][n:] for i in range(n)]


def boxed_solve(field, A, B):
    """`linalg.solve` on `rref_generic`: one particular solution per b in B
    (free unknowns 0), or None when a unit pivot lands in B's columns."""
    nc = len(A[0]) if A else 0
    if any(len(b) != len(A) for b in B):
        raise ValueError("dimension mismatch in solve")
    R, pivots = rref_generic(field, [row + [b[i] for b in B] for i, row in enumerate(A)])
    if pivots and pivots[-1] >= nc:
        return None
    at = dict(zip(pivots, R))
    return [[at[c][nc + j] if c in at else field.zero for c in range(nc)]
            for j in range(len(B))]


def padded_chain(field, T, v, k):
    """The t-chain v, vT, vT², ... cut or zero-padded to exactly k rows."""
    chain = la.t_chain(T, v)[:k]
    return chain + [[field.zero] * len(v)] * (k - len(chain))


def smith_form_t(A):
    """t-local Smith normal form over R_K.

    Returns (U, D, V) with U·A·V = D, U and V invertible over R_K, and D
    diagonal with entries t^{d_1} | t^{d_2} | ... (d_i nondecreasing; the
    zero entry is t^K).  Pivots are chosen by minimal t-valuation with ties
    broken by lowest (row, col), so the output is deterministic.
    """
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if nr == 0 or nc == 0:
        return [], [row[:] for row in A], []
    R = TruncRing(A[0][0].field, A[0][0].prec)
    K = R.K
    D = [row[:] for row in A]
    U = la.identity(R, nr)
    V = la.identity(R, nc)
    for s in range(min(nr, nc)):
        best, bv = None, K
        for i in range(s, nr):
            for j in range(s, nc):
                v = valuation(D[i][j])
                if v < bv:
                    best, bv = (i, j), v
        if best is None or bv >= K:
            break
        bi, bj = best
        if bi != s:
            D[s], D[bi] = D[bi], D[s]
            U[s], U[bi] = U[bi], U[s]
        if bj != s:
            for row in D:
                row[s], row[bj] = row[bj], row[s]
            for row in V:
                row[s], row[bj] = row[bj], row[s]
        uinv = poly_inv(divide_t(D[s][s], bv))
        D[s] = [uinv * x for x in D[s]]
        U[s] = [uinv * x for x in U[s]]
        for i in range(nr):
            if i != s and D[i][s]:
                q = divide_t(D[i][s], bv)
                D[i] = [x - q * y for x, y in zip(D[i], D[s])]
                U[i] = [x - q * y for x, y in zip(U[i], U[s])]
        for j in range(nc):
            if j != s and D[s][j]:
                q = divide_t(D[s][j], bv)
                for row in D:
                    row[j] = row[j] - q * row[s]
                for vrow in V:
                    vrow[j] = vrow[j] - q * vrow[s]
    return U, D, V


def smith_divisors(D, ncols=None):
    """Column orders from a Smith form: d_j = valuation of the diagonal
    entry (K when absent or zero)."""
    if not D:
        return []
    K = D[0][0].prec
    nc = ncols if ncols is not None else len(D[0])
    out = []
    for j in range(nc):
        out.append(valuation(D[j][j]) if j < len(D) else K)
    return out


def boxed_smith_orders(field, lam, r, K):
    """(orders, V⁻¹) of the t-local Smith form U·lam·V = diag(t^d_j) of an
    n x r matrix over R_K, on boxed TruncPolys: d_j is the valuation of the
    j-th pivot, K past the last one.  Pivots have least valuation, ties to
    the lowest (row, col).  U is never built, and V only as its inverse:
    swapping columns s, j of V swaps rows s, j of V⁻¹, and col_j −= q·col_s
    is row_s += q·row_j."""
    R = TruncRing(field, K)
    D = [row[:] for row in lam]
    Vinv = la.identity(R, r)
    orders = []
    for s in range(min(len(D), r)):
        best, bv = None, K
        for i in range(s, len(D)):
            for j in range(s, r):
                v = valuation(D[i][j])
                if v < bv:
                    best, bv = (i, j), v
        if best is None:
            break
        bi, bj = best
        D[s], D[bi] = D[bi], D[s]
        for row in D:
            row[s], row[bj] = row[bj], row[s]
        Vinv[s], Vinv[bj] = Vinv[bj], Vinv[s]
        uinv = poly_inv(divide_t(D[s][s], bv))
        D[s] = [uinv * x for x in D[s]]
        # rows and columns before s are zero off the diagonal; the column
        # operations would clear row s of D, which no later step reads
        for i in range(s + 1, len(D)):
            if D[i][s]:
                q = divide_t(D[i][s], bv)
                D[i] = [x - q * y for x, y in zip(D[i], D[s])]
        for j in range(s + 1, r):
            if D[s][j]:
                q = divide_t(D[s][j], bv)
                Vinv[s] = [x + q * y for x, y in zip(Vinv[s], Vinv[j])]
        orders.append(bv)
    return orders + [K] * (r - len(orders)), Vinv


def boxed_quasi_basis(field, T, K, generators):
    """(span, quasi rows, partition, chains) of the F[t]-span of
    `generators`, read off the full Smith form of its presentation."""
    span = la.rref_span(field, [list(g) for g in generators])
    gens = [list(r) for r in span]
    if not span:
        return (), [], (), []
    r = len(gens)
    dom = [row for v in gens for row in padded_chain(field, T, v, K)]
    rel = la.right_kernel(field, la.transpose(dom))
    if rel:
        lam = [[TruncPoly(field, [vec[i * K + s] for s in range(K)])
                for i in range(r)] for vec in rel]
        _, D, V = smith_form_t(lam)
        orders = smith_divisors(D, ncols=r)
        Vinv = boxed_inverse(TruncRing(field, K), V)
    else:
        orders, Vinv = [K] * r, None
    quasi = []
    for j in range(r):
        if orders[j] == 0:
            continue
        h = gens[j] if Vinv is None else \
            la.vec_mat([c for a in Vinv[j] for c in a.coeffs], dom)
        quasi.append((orders[j], h))
    quasi.sort(key=lambda p: -p[0])
    chains = [v for _, h in quasi for v in la.t_chain(T, h)]
    return span, [h for _, h in quasi], tuple(d for d, _ in quasi), chains
