"""Independent oracles for the ring layer, used by the tests only.

`smith_form_t` is the full t-local Smith normal form U·A·V = D over
F[t]/(t^K), with U and V built; `smith_divisors` reads its column orders.
`sntmodule._smith_orders` keeps the same pivot rule but builds only the
orders and V⁻¹, and `quasi_basis` takes its presentation rows from one
power helper; `boxed_quasi_basis` is the quasi-basis built the long way,
from one `padded_chain` per generator, the full Smith form and a ring
inverse of V.  `padded_chain` (the t-chain of one vector cut or padded to
k rows) also gives the rows of the boxed f_x.  The file is not named
test_*.py, so pytest imports it without collecting it.
"""
from sntmod import linalg as la
from sntmod.tpoly import TruncPoly, TruncRing


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
                v = D[i][j].valuation()
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
        unit = D[s][s].divide_t(bv)
        uinv = unit.inv()
        D[s] = [uinv * x for x in D[s]]
        U[s] = [uinv * x for x in U[s]]
        for i in range(nr):
            if i != s and D[i][s]:
                q = D[i][s].divide_t(bv)
                D[i] = [x - q * y for x, y in zip(D[i], D[s])]
                U[i] = [x - q * y for x, y in zip(U[i], U[s])]
        for j in range(nc):
            if j != s and D[s][j]:
                q = D[s][j].divide_t(bv)
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
        out.append(D[j][j].valuation() if j < len(D) else K)
    return out


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
        Vinv = la.inverse(TruncRing(field, K), V)
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
