"""Exact dense linear algebra over a coefficient ring descriptor.

Matrices are plain lists of lists of ring elements; vectors are lists.  The
descriptor (``QQ``, ``GF(p)`` or ``tpoly.TruncRing(field, K)`` for
F[t]/(t^K)) supplies ``zero``, ``one``, element construction and the pivot
test ``is_unit``; the arithmetic itself goes through the elements' operators.
The row-vector convention is used throughout the package: group elements
act on the right, so ``vec_mat(v, A)`` is the basic action primitive.
Every routine here is exact — no pivoting heuristics beyond "first unit"
(first nonzero entry over a field).  Over F[t]/(t^K) elimination with unit
pivots is complete for square invertible matrices (`inverse`) but not for
general systems: `solve` may then return a vector that does not solve them,
so callers check A·xᵀ = b.
"""
from __future__ import annotations

from dataclasses import dataclass


def zeros(field, r, c):
    z = field.zero
    return [[z for _ in range(c)] for _ in range(r)]


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def change_ring(R, A):
    """A with every entry mapped into the ring R (e.g. field scalars to
    constant polynomials)."""
    return [[R(x) for x in row] for row in A]


def copy_mat(A):
    return [row[:] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)] if A else []


def mat_mul(A, B):
    n, m = len(A), len(B)
    if n and m and len(A[0]) != m:
        raise ValueError("dimension mismatch in mat_mul")
    Bt = transpose(B)
    out = []
    for row in A:
        out.append([_dot(row, col) for col in Bt])
    return out


def _dot(u, v):
    it = iter(range(len(u)))
    i0 = next(it)
    acc = u[i0] * v[i0]
    for i in it:
        acc = acc + u[i] * v[i]
    return acc


def vec_mat(v, A):
    """Row vector times matrix."""
    if len(v) != len(A):
        raise ValueError("dimension mismatch in vec_mat")
    At = transpose(A)
    return [_dot(v, col) for col in At]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in row] for row in A]


def scal_mul(c, A):
    return [[c * a for a in row] for row in A]


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def bilinear(u, G, v):
    """u · G · vᵀ for row vectors u, v."""
    return _dot(vec_mat(u, G), v)


def nilpotent_powers(field, A):
    """[I, A, ..., A^(nu-1)] for a nilpotent A, nu its nilpotency index.

    Stops at the first zero power; raises ValueError when A^n != 0.
    """
    out, P = [], identity(field, len(A))
    while not is_zero_mat(P):
        if len(out) == len(A):
            raise ValueError("matrix is not nilpotent")
        out.append(P)
        P = mat_mul(P, A)
    return out


def is_zero_mat(A):
    return all(not a for row in A for a in row)


def mat_eq(A, B):
    if len(A) != len(B):
        return False
    return all(len(ra) == len(rb) and all(a == b for a, b in zip(ra, rb))
               for ra, rb in zip(A, B))


def rref(field, rows):
    """Reduced row echelon form.  Returns (reduced rows, pivot columns).

    Pivots are the entries that pass ``field.is_unit``: any nonzero one over
    a field, units only over a local ring such as F[t]/(t^K).
    """
    is_pivot = field.is_unit
    R = [row[:] for row in rows]
    nr = len(R)
    nc = len(R[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if is_pivot(R[i][c]):
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = field.one / R[r][c]
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


def rref_span(field, rows):
    """Canonical form of the row span: nonzero RREF rows as a tuple of tuples."""
    if not rows:
        return ()
    R, pivots = rref(field, rows)
    return tuple(tuple(R[i]) for i in range(len(pivots)))


def rank(field, A):
    if not A:
        return 0
    return len(rref(field, A)[1])


@dataclass
class LinearSolution:
    particular: list
    kernel: list
    rank: int


def solve(field, A, b):
    """Solve sum_j A[i][j] x[j] = b[i] exactly.

    Returns a LinearSolution (particular + right-kernel basis of A) or None
    when the system is inconsistent.
    """
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if len(b) != nr:
        raise ValueError("dimension mismatch in solve")
    aug = [A[i][:] + [b[i]] for i in range(nr)]
    R, pivots = rref(field, aug)
    if nc in pivots:
        return None
    z = field.zero
    x = [z for _ in range(nc)]
    for r, c in enumerate(pivots):
        x[c] = R[r][nc]
    ker = _kernel_from_rref(field, R, pivots, nc)
    return LinearSolution(x, ker, len(pivots))


def _kernel_from_rref(field, R, pivots, nc):
    z, o = field.zero, field.one
    free = [c for c in range(nc) if c not in pivots]
    ker = []
    for f in free:
        v = [z for _ in range(nc)]
        v[f] = o
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        ker.append(v)
    return ker


def right_kernel(field, A):
    """Basis of {x : A xᵀ = 0} as row vectors."""
    if not A:
        return []
    R, pivots = rref(field, A)
    return _kernel_from_rref(field, R, pivots, len(A[0]))


def isometry_lie_basis(field, G, T=None):
    """Basis of {S : S·G + G·Sᵀ = 0}, with also S·T = T·S when T is given.

    The unknowns are the entries of S, var(i, j) = i·n + j.  The kernel is
    read off the reduced echelon form of the equations, which is canonical,
    so the basis does not depend on the order the equations are listed in.
    """
    n = len(G)
    eqs = []

    def var(i, j):
        return i * n + j

    if T is not None:
        # commutation: (S T - T S)[i][j] = 0
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for l in range(n):
                    row[var(i, l)] = row[var(i, l)] + T[l][j]
                    row[var(l, j)] = row[var(l, j)] - T[i][l]
                eqs.append(row)
    # infinitesimal form preservation: (S G + G Sᵀ)[i][j] = 0
    for i in range(n):
        for j in range(n):
            row = [field.zero] * (n * n)
            for l in range(n):
                row[var(i, l)] = row[var(i, l)] + G[l][j]
                row[var(j, l)] = row[var(j, l)] + G[i][l]
            eqs.append(row)
    ker = right_kernel(field, eqs)
    return [[vec[i * n:(i + 1) * n] for i in range(n)] for vec in ker]


def inverse(field, A):
    n = len(A)
    aug = [row[:] + e for row, e in zip(A, identity(field, n))]
    R, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [R[i][n:] for i in range(n)]


def block_diag(field, blocks):
    n = sum(len(B) for B in blocks)
    out = zeros(field, n, n)
    off = 0
    for B in blocks:
        m = len(B)
        for i in range(m):
            for j in range(m):
                out[off + i][off + j] = B[i][j]
        off += m
    return out


def in_span(field, span_rows, v):
    """Membership of v in the row span (exact)."""
    if not span_rows:
        return all(not x for x in v)
    sol = solve(field, transpose(list(span_rows)), list(v))
    return sol is not None


def intersect_spans(field, A_rows, B_rows):
    """Basis of the intersection of two row spans."""
    if not A_rows or not B_rows:
        return []
    a, b = len(A_rows), len(B_rows)
    M = [list(A_rows[i]) if i < a else [-x for x in B_rows[i - a]]
         for i in range(a + b)]
    out = [vec_mat(lam[:a], A_rows) for lam in right_kernel(field, transpose(M))]
    return [list(r) for r in rref_span(field, out)] if out else []
