"""Exact dense linear algebra over a coefficient ring descriptor.

Matrices are plain lists of lists of ring elements; vectors are lists.  The
descriptor (``QQ``, ``GF(p)`` or ``tpoly.TruncRing(field, K)`` for
F[t]/(t^K)) supplies ``zero``, ``one`` and element construction.
`mat_mul`, `vec_mat` and `rref` (and so `bilinear`, `inverse`, `solve`,
`rank`, `right_kernel` and `rref_span`) look at every entry first and run
on ints for these kinds of input:
- all `Fraction`s: integer rows over one common denominator per matrix,
  from `_to_ints` (the one way Q rows are scaled), with fraction-free
  elimination;
- all `FpElement`s of one prime p: int residues mod p;
- all `TruncPoly`s of one precision K whose coefficients are all
  `FpElement`s of one p (F_p[t]/(t^K)), or all over Q with `Fraction`
  coefficients (Q[t]/(t^K)): products by `_lmul` on the int layers of
  `_to_layers` (residues, or one common denominator per matrix), and
  `inverse` by t-adic lifting (`_lift_solve`).
Products of any other input (int entries or coefficients, mixed primes,
precisions or kinds) go through the elements' operators in
`_mat_mul_generic`.  There is one elimination, `_rref_ints`, for Q and
F_p; `rref` raises TypeError on every other kind (rows without entries
reduce to themselves), and so do `solve`, `rank`, `right_kernel` and
`rref_span`.  Systems over F[t]/(t^K) are solved by `_lift_solve`: one
`_rref_ints` of the layer-0 matrix P_0, then one update per layer; it is
complete when P_0 has full row rank and returns None otherwise.  Its
callers are `inverse` (so `spgroup.cayley`) and `witt._dual_vectors`; the
t-local Smith reduction of `sntmodule.quasi_basis` runs on int coefficient
layers in `sntmodule._smith_orders`.  The boxed unit-pivot elimination they
replaced is the tests' oracle (`tests/ring_oracles.py`).
The row-vector convention is used throughout the package: group elements
act on the right, so ``vec_mat(v, A)`` is the basic action primitive.
Powers of a nilpotent t come from one helper, `_power_rows`: rows·A^j
for j = 0, 1, … until the product vanishes, with ValueError when
rows·A^n != 0.  `nilpotent_powers` reads it with rows = I (the matrix
powers I, A, A², …).  Over Q and F_p it converts rows and A once,
multiplies on ints in `_int_powers` and boxes each power once; any other
kind multiplies by `mat_mul`.  `sntmodule.quasi_basis` calls `_int_powers`
on its int rows directly.
Code that keeps a Q or F_p matrix on ints between steps uses the int-row
helpers beside the kernels: `_to_ints` (a matrix as int rows over one
common denominator d, or residues with d = 1), `_from_ints` (the way back,
boxing each entry once), `_ints_mul` (a product of int rows; `_dots` when
the second factor is at hand as its columns),
`_int_powers` (the powers above), `_int_echelon` (`_rref_ints` on a copy),
`_box_echelon` (its rows boxed) and `_int_kernel` (a kernel read off it).
`isometry_lie_basis` builds its commutation and form equations on them, as
int rows over the scaled T and G.  An `SntModule` converts its T and G,
and takes T's powers, once (`SntModule._ints`), for `K`, `validate`, the
first plane of `decompose`, `is_t_lagrangian`, `LagrangianFlag`,
`spgroup.is_member`, `spgroup.block_profile` and `spgroup._radical_ints`
(the form equations on the centraliser of T, one `_int_kernel`, then one
`_int_echelon` for the canonical basis).  `sntmodule.quasi_basis`,
`sntmodule.rho_of`, `LagrangianFlag` (its checks, fiber data and
`self_dual_map_basis`) and `orbits` (f_x, Im f_x, the chain residues, T(x) and the tangent map of
each element, read off one `orbits._Image` record per image W, for every
element of the census too, and the orthogonal group over F_q[t]/(t^k))
convert their matrices once and run on them.  Two more serve the
t-Lagrangians: `_affine_family` (the points
A_0 + Σ c_k·A_k mod p of an affine family over F_p, also the layer lifts
of `orbits.orthogonal_group_ring`) and `_isotropy_test` (U·G·Uᵀ ≡ 0 mod p
by Kronecker substitution, or U·G·Uᵀ = 0 over Q).  `_kronecker` packs
polynomials over F_p[t]/(t^K) into ints for `spgroup.group_closure`.  A
matrix over F[t]/(t^K) kept on ints between steps is a pair (K int layer
matrices, one denominator), from `_to_layers` and boxed by `_from_layers`;
the `_l…` helpers (`_lmul`, `_lsum`, `_gram`, …) compute with such pairs,
and `orbits.transport`, `TensorElement.act` and `witt` run on them.
`solve` takes a list of right-hand sides and solves them all from one
elimination; it returns particular solutions only, and `right_kernel`
gives kernels.
Every routine here is exact — no pivoting heuristics beyond "first
nonzero entry" over a field.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import lshift, mul

from .fields import FpElement, PrimeField, RationalField


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
    kind = _int_kind((A, B))
    if kind is None:
        return _mat_mul_generic(A, B)
    return _int_mat_mul(kind, A, B)


def vec_mat(v, A):
    """Row vector times matrix."""
    if len(v) != len(A):
        raise ValueError("dimension mismatch in vec_mat")
    kind = _int_kind(([v], A))
    if kind is None:
        return _mat_mul_generic([v], A)[0]
    return _int_mat_mul(kind, [v], A)[0]


# the operator path: any ring, and the reference for the int kernels below
def _mat_mul_generic(A, B):
    Bt = transpose(B)
    return [[_dot(row, col) for col in Bt] for row in A]


def _dot(u, v):
    it = iter(range(len(u)))
    i0 = next(it)
    acc = u[i0] * v[i0]
    for i in it:
        acc = acc + u[i] * v[i]
    return acc


# --------------------------------------------------------------------------
# int kernels for Q, F_p, Q[t]/(t^K) and F_p[t]/(t^K)
# --------------------------------------------------------------------------

def _int_kind(blocks):
    """The int kernel that can take every entry of these matrices: 0 when
    all are Fractions, p when all are FpElements of F_p, (p, K) when all are
    TruncPolys over F_p of precision K with FpElement coefficients, (0, K)
    when all are TruncPolys over Q of precision K with Fraction
    coefficients, None otherwise (no entries, ints, other rings, mixed
    kinds, primes or precisions).  Stops at the first entry that rules a
    kernel out."""
    kind = None
    for rows in blocks:
        for row in rows:
            for x in row:
                t = type(x)
                if t is FpElement:
                    k = x.p
                elif t is Fraction:
                    k = 0
                elif t is _truncpoly():
                    k = _poly_kind(x)
                    if k is None:
                        return None
                else:
                    return None
                if k != kind:
                    if kind is not None:
                        return None
                    kind = k
    return kind


_TruncPoly = None


def _truncpoly():
    """The TruncPoly class.  tpoly imports this module, so the class is
    looked up when first needed and kept."""
    global _TruncPoly
    if _TruncPoly is None:
        from .tpoly import TruncPoly as _TruncPoly
    return _TruncPoly


def _poly_kind(x):
    """(p, K) for a TruncPoly over F_p whose K coefficients are all
    FpElements of p, (0, K) for one over Q whose K coefficients are all
    Fractions, else None."""
    cs, f = x.coeffs, x.field
    if cs and type(f) is RationalField and all(type(c) is Fraction for c in cs):
        return 0, len(cs)
    if cs and type(f) is PrimeField and \
            all(type(c) is FpElement and c.p == f.p for c in cs):
        return f.p, len(cs)
    return None


def _to_ints(kind, A):
    """A matrix as (int rows, d) with A = rows / d: for kind 0 (Fractions,
    or ints) d is the lcm of every denominator, for kind p (FpElements) the
    rows are residues and d = 1."""
    if kind:
        return [[x.v for x in row] for row in A], 1
    d = lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def _from_ints(kind, rows, d=1):
    """The matrix rows / d boxed once: Fractions for kind 0, FpElements of
    p for kind p (d = 1)."""
    if kind:
        return [[FpElement(kind, x) for x in row] for row in rows]
    return [[Fraction(x, d) for x in row] for row in rows]


def _ints_mul(kind, A, B):
    """A·B for int rows, reduced mod p for kind p.  Over Q the product of
    (A, d) and (B, e) is (A·B, d·e)."""
    return _dots(kind, A, list(zip(*B)))


def _dots(kind, A, Bt):
    """A·B for int rows A and the columns Bt of B, as `_ints_mul`."""
    if kind:
        return [[sum(map(mul, r, c)) % kind for c in Bt] for r in A]
    return [[sum(map(mul, r, c)) for c in Bt] for r in A]


def _int_mat_mul(kind, A, B):
    """A·B for all-Fraction (kind 0), all-F_p (kind p), all-Q[t]/(t^K)
    (kind (0, K)) or all-F_p[t]/(t^K) (kind (p, K)) matrices."""
    if type(kind) is tuple:
        return _ring_mat_mul(kind, A, B)
    if kind:
        Bt = [[x.v for x in col] for col in zip(*B)]
        return [[FpElement(kind, sum(map(mul, r, c))) for c in Bt]
                for r in ([x.v for x in row] for row in A)]
    (Ai, d), (Bi, e) = _to_ints(0, A), _to_ints(0, B)
    return _from_ints(0, _ints_mul(0, Ai, Bi), d * e)


def _ring_mat_mul(kind, A, B):
    """A·B over Q[t]/(t^K) or F_p[t]/(t^K) by `_lmul` on the int layers of A
    and B, boxed once.  The product is left unreduced (`_lmul` with p = 0):
    boxing reduces it."""
    field = next(x for rows in (A, B) for row in rows for x in row).field
    return _from_layers(kind, field, *_lmul(0, _to_layers(kind, A), _to_layers(kind, B)))


def _to_layers(kind, A):
    """A matrix over F[t]/(t^K) of kind (p, K) or (0, K) as (layers, d):
    the K int matrices L_s with A = Σ_s L_s·t^s / d, from `_to_ints` on its
    coefficients (residues and d = 1 over F_p, one common denominator d
    over Q)."""
    p, K = kind
    rows, d = _to_ints(p, [[c for x in row for c in x.coeffs] for row in A])
    return [[r[s::K] for r in rows] for s in range(K)], d


def _from_layers(kind, field, L, d=1):
    """The matrix Σ_s L_s·t^s / d boxed once, as `_from_ints` boxes each
    layer: one TruncPoly per entry, with FpElement coefficients for kind
    (p, K) and Fraction ones for (0, K)."""
    poly = _truncpoly()
    return [[poly(field, cs) for cs in zip(*rows)]
            for rows in zip(*(_from_ints(kind[0], M, d) for M in L))]


# A matrix over F[t]/(t^K) kept on ints is a pair (layers, d): the K int
# matrices L_s of Σ_s L_s·t^s / d, as `_to_layers` gives them.  Over F_p
# (p > 0) the layers hold residues and d = 1; over Q (p = 0) d is a common
# denominator.  A matrix over F is the same with one layer.

def _lmul(p, X, Y):
    """X·Y for pairs (layers, d), truncated at t^K: entry (r, c) of layer s
    is one dot product of row r of A_0, …, A_s, end to end, with column c
    of B_s, …, B_0."""
    (A, d), (B, e) = X, Y
    Bt = [list(zip(*L)) for L in B]
    rows = [sum(r, []) for r in zip(*A)]
    cols = [[sum(c, ()) for c in zip(*Bt[s::-1])] for s in range(len(A))]
    out = [[[sum(map(mul, r, c)) for c in cs] for r in rows] for cs in cols]
    return _lnorm(p, out, d * e) if p else (out, d * e)


def _lnorm(p, L, d):
    """(L, d) with its layers reduced mod p, or over Q in lowest terms."""
    if p:
        return [[[x % p for x in r] for r in M] for M in L], 1
    g = gcd(d, *(x for M in L for r in M for x in r))
    if g > 1:
        return [[[x // g for x in r] for r in M] for M in L], d // g
    return L, d


def _lsum(p, X, Y, sign=1):
    """X + sign·Y."""
    (A, d), (B, e) = X, Y
    f = lcm(d, e)
    a, b = f // d, sign * (f // e)
    return _lnorm(p, [[[x * a + y * b for x, y in zip(r, s)] for r, s in zip(M, N)]
                      for M, N in zip(A, B)], f)


def _lscale(p, X, num, den):
    """X·num/den for ints num and den > 0 (a unit mod p)."""
    L, d = X
    if p:
        num, den = num * pow(den, -1, p), 1
    return _lnorm(p, [[[x * num for x in r] for r in M] for M in L], d * den)


def _leq(p, X, Y):
    return not any(any(map(any, M)) for M in _lsum(p, X, Y, -1)[0])


def _gram(p, U, Q, V):
    """U·Q·Vᵀ."""
    return _lmul(p, _lmul(p, U, Q), ([transpose(M) for M in V[0]], V[1]))


def _kronecker(p, K, m):
    """(pack, unpack): the Kronecker substitution for dot products of length
    m over F_p[t]/(t^K).

    pack maps the K coefficients c_s in [0, p) of a polynomial to the int
    Σ c_s·2^(b·s), with 2^b above every coefficient a dot product of length
    m can reach, so a sum of m products of packed ints carries no bits
    between coefficients.  unpack maps such a sum to its coefficients of
    t^0 … t^(K−1) reduced mod p (those of t^K and above are dropped); on a
    packed polynomial it gives back its coefficients."""
    b = (max(m, 1) * K * (p - 1) ** 2).bit_length()
    shifts = [b * s for s in range(K)]
    mask = (1 << b) - 1

    def pack(cs):
        return sum(map(lshift, cs, shifts))

    def unpack(n):
        return [(n >> s & mask) % p for s in shifts]
    return pack, unpack


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_rref(kind, rows):
    """`rref` for all-Fraction (kind 0) or all-F_p (kind p) rows, by
    `_rref_ints` on their integer rows."""
    if kind:
        R, pivots = _rref_ints(kind, [[x.v for x in row] for row in rows])
    else:
        R, pivots = _rref_ints(0, [_primitive(row) for row in _to_ints(0, rows)[0]])
    zero = FpElement(kind, 0) if kind else Fraction(0)
    return _box_echelon(kind, R, pivots) + [[zero] * len(R[0]) for _ in R[len(pivots):]], \
        pivots


def _box_echelon(kind, R, pivots, cols=None):
    """The pivot rows of R, as `_rref_ints` leaves them, boxed once as the
    reduced echelon rows they stand for (over Q each row over its pivot
    entry), cut to the columns `cols` when given."""
    rows = R[:len(pivots)]
    if cols is not None:
        rows = [[row[c] for c in cols] for row in rows]
    if kind:
        return [[FpElement(kind, x) for x in row] for row in rows]
    return [[Fraction(x, r[c]) for x in row] for row, r, c in zip(rows, R, pivots)]


def _rref_ints(kind, R):
    """The elimination of `_int_rref` on int rows R, in place; returns
    (R, pivot columns).

    For kind p the rows are residues mod p and each pivot row is scaled by
    pow(pivot, -1, p): R is then the reduced echelon form mod p.  For kind 0
    the rows are primitive integer rows, eliminated without fractions
    (a·row_i − b·row_r, then divided by its content); the pivot rows are
    left undivided by their pivots."""
    nr, nc = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if R[i][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        if kind:
            inv = pow(R[r][c], -1, kind)
            R[r] = [x * inv % kind for x in R[r]]
        piv, a = R[r], R[r][c]
        for i in range(nr):
            b = R[i][c]
            if i != r and b:
                if kind:
                    R[i] = [(x - b * y) % kind for x, y in zip(R[i], piv)]
                else:
                    R[i] = _primitive([a * x - b * y for x, y in zip(R[i], piv)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return R, pivots


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


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
    return vec_mat(vec_mat(u, G), [[x] for x in v])[0]


def nilpotent_powers(field, A):
    """[I, A, ..., A^(nu-1)] for a nilpotent A, nu its nilpotency index.

    Stops at the first zero power; raises ValueError when A^n != 0.
    """
    return _power_rows(identity(field, len(A)), A)


def _power_rows(rows, A):
    """[rows, rows·A, rows·A², ...] up to the last nonzero product, rows
    itself first; ValueError when rows·A^n != 0 for n = len(A).

    For Q and F_p (the kinds `_rref_ints` takes) rows and A are converted
    once and each power is boxed once, from `_int_powers`; any other kind
    multiplies by `mat_mul`."""
    kind = _int_kind((rows, A))
    if kind is None or type(kind) is tuple:
        out, P = [], rows
        while not is_zero_mat(P):
            if len(out) == len(A):
                raise ValueError("matrix is not nilpotent")
            out.append(P)
            P = mat_mul(P, A)
        return out
    (R, d), (Ai, e) = _to_ints(kind, rows), _to_ints(kind, A)
    powers = _int_powers(kind, R, Ai)
    if not powers:
        return []
    return [rows] + [_from_ints(kind, P, d * e ** j)
                     for j, P in enumerate(powers[1:], 1)]


def _int_powers(kind, R, A):
    """[R, R·A, R·A², ...] for int rows R and an int matrix A (residues for
    kind p), up to the last nonzero product; over Q, power j is over
    d·e^j when R is over d and A over e.  Raises ValueError when
    R·A^n != 0 for n = len(A)."""
    At, out = list(zip(*A)), []
    while any(map(any, R)):
        if len(out) == len(A):
            raise ValueError("matrix is not nilpotent")
        out.append(R)
        if kind:
            R = [[sum(map(mul, r, c)) % kind for c in At] for r in R]
        else:
            R = [[sum(map(mul, r, c)) for c in At] for r in R]
    return out


def _affine_family(p, A0, As):
    """The int matrices (A0 + Σ c_k·As[k]) mod p, each as fresh rows, for c
    over F_p^len(As) in `itertools.product(range(p), repeat=len(As))`
    order: c_0 varies slowest.  Each point is the one before it plus the
    last step mod p (rows the step leaves unchanged are copied), computed
    before that one is yielded, so callers cannot reach later points."""
    if not As:
        yield [[x % p for x in row] for row in A0]
        return
    *outer, A = As
    A = [[y % p for y in row] if any(y % p for y in row) else None for row in A]
    for cur in _affine_family(p, A0, outer):
        for _ in range(p - 1):
            nxt = [r[:] if s is None else [(x + y) % p for x, y in zip(r, s)]
                   for r, s in zip(cur, A)]
            yield cur
            cur = nxt
        yield cur


def _isotropy_test(p, G):
    """A test of U·G·Uᵀ ≡ 0 mod p for int rows U, G an n x n matrix of
    residues, by Kronecker substitution as in `_kronecker`; for p = 0 (Q,
    G and U int rows over any denominators) a test of U·G·Uᵀ = 0.

    With X = 2^b above n²(p−1)³, row k of G packs, reversed, into
    Σ_c G[k][c]·X^(n−1−c), so u·G packs into the one int Σ_k u_k·(row k);
    times v packed as Σ_c v_c·X^c it carries (u·G)·vᵀ as the coefficient of
    X^(n−1), with no carries between coefficients."""
    if not p:       # over Q (kind 0): the products themselves
        return lambda U: not any(sum(map(mul, a, v))
                                 for a in _ints_mul(0, U, G) for v in U)
    n = len(G)
    b = (n * n * (p - 1) ** 3).bit_length()
    shifts = [b * c for c in range(n)]
    rows = [sum(x << (b * (n - 1 - c)) for c, x in enumerate(row)) for row in G]
    top, mask = b * (n - 1), (1 << b) - 1

    def isotropic(U):
        V = [sum(map(lshift, u, shifts)) for u in U]
        return not any((a * v >> top & mask) % p
                       for a in [sum(map(mul, u, rows)) for u in U] for v in V)
    return isotropic


def is_zero_mat(A):
    return all(not a for row in A for a in row)


def mat_eq(A, B):
    if len(A) != len(B):
        return False
    return all(len(ra) == len(rb) and all(a == b for a, b in zip(ra, rb))
               for ra, rb in zip(A, B))


def rref(field, rows):
    """Reduced row echelon form over Q or F_p, on int rows (`_int_rref`).
    Returns (reduced rows, pivot columns).  Rows with no entries reduce to
    themselves; any other kind of entry (ints, TruncPolys, mixed kinds)
    raises TypeError."""
    kind = _int_kind((rows,))
    if kind is None and not any(rows):
        return [row[:] for row in rows], []
    if kind is None or type(kind) is tuple:
        raise TypeError("rref runs over Q or F_p only, on Fraction or FpElement "
                        "entries of one kind")
    return _int_rref(kind, rows)


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


def solve(field, A, B):
    """Solve sum_j A[i][j] x[j] = b[i] exactly for every right-hand side b
    in B, from one elimination of [A | Bᵀ].

    Returns the particular solutions, one per b, with the free unknowns set
    to 0, or None when any of the systems is inconsistent.  Kernels are
    `right_kernel`'s.  The pivots in A's columns do not depend on B, so each
    solution is the one a single-b elimination returns.
    """
    nc = len(A[0]) if A else 0
    if any(len(b) != len(A) for b in B):
        raise ValueError("dimension mismatch in solve")
    R, pivots = rref(field, [row + [b[i] for b in B] for i, row in enumerate(A)])
    if pivots and pivots[-1] >= nc:
        return None
    at = dict(zip(pivots, R))
    z = field.zero
    return [[at[c][nc + j] if c in at else z for c in range(nc)]
            for j in range(len(B))]


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
    """Basis of {S : S·G + G·Sᵀ = 0}, with also S·T = T·S when T is given,
    for G and T over QQ or GF(p).

    The unknowns are the entries of S, var(i, j) = i·n + j.  The kernel is
    `_lie_kernel`'s, boxed once; it is read off the reduced echelon form of
    the equations, which is canonical, so the basis depends neither on the
    order the equations are listed in nor on their scaling.
    """
    n = len(G)
    kind = field.char
    return [[row[i * n:(i + 1) * n] for i in range(n)]
            for row in _from_ints(kind, *_lie_kernel(kind, G, T))]


def _lie_kernel(kind, G, T=None):
    """`isometry_lie_basis` on ints: its basis as flattened (rows, d).

    G and T are scaled to int matrices by their common denominators (taken
    as residues for kind p), which multiplies each equation by a nonzero
    constant and leaves the kernel as it is.

    When Gᵀ = εG with ε = ±1 (the alternating and symmetric Grams of the
    callers), only the form equations with i ≤ j are built: the transpose
    of S·G + G·Sᵀ is S·Gᵀ + Gᵀ·Sᵀ = ε(S·G + G·Sᵀ), so equation (j, i) is ε
    times equation (i, j).  Dropping them leaves the row space of the
    equations as it is, hence its reduced echelon form, which is canonical,
    and the kernel read off it.  Any other G keeps all n² equations."""
    n = len(G)
    Gi = _to_ints(kind, G)[0]
    half = _has_symmetry(kind, Gi, 1) or _has_symmetry(kind, Gi, -1)
    eqs = []
    if T is not None:
        Ti = _to_ints(kind, T)[0]
        # commutation: (S T - T S)[i][j] = 0
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for l in range(n):
                    row[i * n + l] += Ti[l][j]
                    row[l * n + j] -= Ti[i][l]
                eqs.append(row)
    # infinitesimal form preservation: (S G + G Sᵀ)[i][j] = 0
    for i in range(n):
        for j in range(i if half else 0, n):
            row = [0] * (n * n)
            for l in range(n):
                row[i * n + l] += Gi[l][j]
                row[j * n + l] += Gi[i][l]
            eqs.append(row)
    return _int_kernel(kind, eqs)


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _int_echelon(kind, A):
    """`_rref_ints` on a copy of the int matrix A, its rows reduced mod p
    for kind p or made primitive for kind 0; (A, []) when A has no rows."""
    if not A:
        return A, []
    if kind:
        return _rref_ints(kind, [[x % kind for x in row] for row in A])
    return _rref_ints(0, [_primitive(row) for row in A])


def _has_symmetry(kind, A, sign):
    """Whether Aᵀ = sign·A for an int matrix A (residues for kind p)."""
    return not any((b - sign * a) % kind if kind else b - sign * a
                   for row, col in zip(A, zip(*A)) for a, b in zip(row, col))


def _int_kernel(kind, A):
    """Basis of {x : A xᵀ = 0} for an int matrix A (residues for kind p) as
    (rows, d): the vectors `right_kernel` returns for A, times d.

    Free unknown f gives the vector with 1 at f and −R[r][f] / R[r][c] at
    each pivot (r, c) of the reduced echelon form R; over Q the pivot rows
    of `_rref_ints` are undivided, so d is the lcm of their pivots."""
    if not A:
        return [], 1
    nc = len(A[0])
    R, pivots = _int_echelon(kind, A)
    if kind:
        scale, d = [1] * len(pivots), 1
    else:
        d = lcm(*(R[r][c] for r, c in enumerate(pivots)))
        scale = [d // R[r][c] for r, c in enumerate(pivots)]
    ker = []
    for f in sorted(set(range(nc)).difference(pivots)):
        v = [0] * nc
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -R[r][f] * scale[r]
        ker.append([x % kind for x in v] if kind else v)
    return ker, d


def inverse(field, A):
    """A⁻¹ over Q, F_p (one elimination of [A | I]) or F[t]/(t^K) (t-adic
    lifting, `_lift_solve`); ValueError when A is singular, over F[t]/(t^K)
    when A mod t is."""
    n = len(A)
    kind = _int_kind((A,))
    if type(kind) is tuple:
        eye = [_int_identity(n)] + [[[0] * n for _ in range(n)]] * (kind[1] - 1)
        X = _lift_solve(kind[0], _to_layers(kind, A), (eye, 1))
        if X is None:
            raise ValueError("matrix is singular")
        return _from_layers(kind, A[0][0].field, *X)
    aug = [row[:] + e for row, e in zip(A, identity(field, n))]
    R, pivots = rref(field, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [R[i][n:] for i in range(n)]


def _lift_solve(p, P, B):
    """X with P·X = B over F_p[t]/(t^K) (p > 0) or Q[t]/(t^K) (p = 0), for
    pairs (layers, d) P (n x m) and B (n x r), as a pair; None unless P_0,
    P's layer 0, has full row rank n.

    One `_rref_ints` of [P_0 | I] gives the pivot columns c_i of P_0 and
    S = P_0's right inverse with zero rows off the pivots, over a
    denominator D (the lcm of the undivided pivots over Q).  Then layer k of
    X is S·(B_k − Σ_{j=1..k} P_j·X_{k−j}): the solution whose unknowns off
    the pivot columns are 0, which is unique (P restricted to the pivot
    columns is invertible, since its reduction mod t is)."""
    (Pl, d), (Bl, e) = P, B
    n, K = len(Pl[0]), len(Pl)
    m = len(Pl[0][0]) if n else 0
    R, piv = _int_echelon(p, [row + [int(i == j) for j in range(n)]
                              for i, row in enumerate(Pl[0])])
    if piv and piv[-1] >= m:        # a pivot in I's columns: P_0 rank < n
        return None
    D = 1 if p else lcm(*(R[i][c] for i, c in enumerate(piv)))
    S = [[0] * n for _ in range(m)]
    for i, c in enumerate(piv):
        S[c] = [x * (D // R[i][c]) for x in R[i][m:]]
    # over Q, Pl·X' = Bl with X = X'·d/e; layer k of X' is N_k / D^(k+1)
    N = []
    for k in range(K):
        Y = [[x * D ** k for x in row] for row in Bl[k]]
        for j in range(1, k + 1):
            c = D ** (j - 1)
            Y = [[y - c * z for y, z in zip(r, s)]
                 for r, s in zip(Y, _ints_mul(0, Pl[j], N[k - j]))]
        N.append(_ints_mul(p, S, Y))
    if p:
        return N, 1
    return _lnorm(0, [[[x * d * D ** (K - 1 - k) for x in row] for row in Nk]
                      for k, Nk in enumerate(N)], D ** K * e)


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
