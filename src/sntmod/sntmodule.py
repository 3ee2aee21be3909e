"""Symplectic modules with a nilpotent self-dual t-operator.

An snt-module is a finite-dimensional symplectic space (M, <,>) over a field
of characteristic != 2 together with a nilpotent operator t satisfying
<t x, y> = <x, t y>.  Everything here is exact.  Group elements and t act on
row vectors from the right, so the defining matrix identities are

    T nilpotent,   G alternating and invertible,   T·G = G·Tᵀ.

The standard plane H_k is F[t]/(t^k) ⊕ F[t]/(t^k) with both summands
isotropic and <t^i e1, t^j e2> = 1 exactly when i + j = k - 1; every
snt-module splits (uniquely up to order) as a direct sum of such planes,
and `decompose` computes that splitting constructively.
"""
from __future__ import annotations

import itertools
import os

from . import linalg as la
from .fields import PrimeField
from .tpoly import TruncPoly, TruncRing, smith_form_t, smith_divisors

DEFAULT_ENUM_GUARD = 10 ** 7


class NotTStableError(ValueError):
    """A span that was required to be t-stable is not."""


class EnumerationGuardError(RuntimeError):
    """A brute-force enumeration would exceed the configured size guard."""


def enum_guard_limit():
    v = os.environ.get("SNT_MAX_ENUM")
    return int(v) if v else DEFAULT_ENUM_GUARD


class SntModule:
    """dim x dim data (t_action, gram) over a field descriptor.

    Values are immutable by convention: no method mutates the matrices, so
    instances may be shared freely across threads.
    """

    def __init__(self, field, t_action, gram, partition=None):
        self.field = field
        self.t = [list(r) for r in t_action]
        self.gram = [list(r) for r in gram]
        self.dim = len(self.t)
        if any(len(r) != self.dim for r in self.t) or \
           len(self.gram) != self.dim or any(len(r) != self.dim for r in self.gram):
            raise ValueError("t_action and gram must be square of equal size")
        # set when the module was assembled from standard planes
        self.partition = tuple(partition) if partition is not None else None
        self._K = None

    # -- basic pairing / action --------------------------------------------
    def pair(self, x, y):
        return la.bilinear(x, self.gram, y)

    def apply_t(self, x, times=1):
        for _ in range(times):
            x = la.vec_mat(x, self.t)
        return x

    @property
    def K(self):
        """Nilpotency degree of t (= max element order; t^K = 0 on M)."""
        if self._K is None:
            self._K = max(len(la.nilpotent_powers(self.field, self.t)), 1)
        return self._K

    def element_order(self, x):
        """Least k with x·t^k = 0; the zero vector has order 0."""
        if not any(bool(c) for c in x):
            return 0
        k = 0
        while any(bool(c) for c in x):
            x = self.apply_t(x)
            k += 1
            if k > self.dim:
                raise ValueError("t_action is not nilpotent")
        return k

    def validate(self):
        """Return the list of violated invariants (empty = valid)."""
        bad = []
        G, T, n = self.gram, self.t, self.dim
        if not la.mat_eq(la.transpose(G), la.mat_neg(G)):
            bad.append("not alternating")
        if any(bool(G[i][i]) for i in range(n)):
            bad.append("nonzero diagonal in gram")
        try:
            la.inverse(self.field, G)
        except ValueError:
            bad.append("degenerate gram")
        try:
            la.nilpotent_powers(self.field, T)
        except ValueError:
            bad.append("t_action not nilpotent")
        if not la.mat_eq(la.mat_mul(T, G), la.mat_mul(G, la.transpose(T))):
            bad.append("t not self-dual")
        if n % 2 != 0:
            bad.append("odd dimension")
        return bad

    def basis(self):
        return la.identity(self.field, self.dim)

    def __repr__(self):
        return "SntModule(dim=%d over %r)" % (self.dim, self.field)


# --------------------------------------------------------------------------
# standard planes and sums
# --------------------------------------------------------------------------

def make_H(field, k):
    """The standard plane H_k on basis e1, te1, ..., t^{k-1}e1, e2, ..., t^{k-1}e2."""
    if k <= 0:
        raise ValueError("k must be positive")
    n = 2 * k
    T = la.zeros(field, n, n)
    for s in range(k - 1):
        T[s][s + 1] = field.one
        T[k + s][k + s + 1] = field.one
    G = la.zeros(field, n, n)
    for i in range(k):
        j = k - 1 - i
        G[i][k + j] = field.one
        G[k + j][i] = -field.one
    return SntModule(field, T, G, partition=(k,))


def direct_sum(M1, M2):
    """Orthogonal direct sum; block-diagonal gram and t_action."""
    if M1.field != M2.field:
        raise ValueError("direct_sum over different fields")
    T = la.block_diag(M1.field, [M1.t, M2.t])
    G = la.block_diag(M1.field, [M1.gram, M2.gram])
    part = None
    if M1.partition is not None and M2.partition is not None:
        part = M1.partition + M2.partition
    return SntModule(M1.field, T, G, partition=part)


def standard_module(field, ks):
    """direct sum of H_{k_1} ⊕ ... ⊕ H_{k_n} with k_1 >= ... >= k_n."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("empty partition")
    if list(ks) != sorted(ks, reverse=True):
        raise ValueError("partition must be nonincreasing")
    M = make_H(field, ks[0])
    for k in ks[1:]:
        M = direct_sum(M, make_H(field, k))
    return M


def summand_offsets(ks):
    """Row offset of each H_{k_i} block inside the standard module."""
    out, off = [], 0
    for k in ks:
        out.append(off)
        off += 2 * k
    return out


# --------------------------------------------------------------------------
# structure decomposition
# --------------------------------------------------------------------------

def _max_order_chain(field, T):
    """The t-chain xi, t xi, ..., t^{N-1} xi of the first basis vector xi of
    maximal order N (the nilpotency index of T).

    A basis vector always attains the maximal order: t^{N-1} != 0 has a
    nonzero row, and that row is t^{N-1} e_i.
    """
    powers = la.nilpotent_powers(field, T)
    i = next(i for i, row in enumerate(powers[-1]) if any(bool(c) for c in row))
    return [P[i][:] for P in powers]


def _decompose_rec(field, T, G):
    """List of (N, chain1 rows, chain2 rows) in the current coordinates."""
    n = len(T)
    if n == 0:
        return []
    chain1 = _max_order_chain(field, T)
    N = len(chain1)
    # eta with <t^{N-1} xi, eta> = 1 and <t^j xi, eta> = 0 for j < N-1
    rows = [la.vec_mat(v, G) for v in chain1]
    target = [field.zero] * N
    target[N - 1] = field.one
    sol = la.solve(field, rows, target)
    if sol is None:
        raise ValueError("gram is degenerate on a t-cyclic subspace")
    eta = sol.particular
    chain2 = [eta]
    for _ in range(N - 1):
        chain2.append(la.vec_mat(chain2[-1], T))
    H = chain1 + chain2
    # orthogonal complement of H
    perp = la.right_kernel(field, la.mat_mul(H, G))
    if perp:
        Tr = _restrict(field, T, perp)
        Gr = la.mat_mul(la.mat_mul(perp, G), la.transpose(perp))
        rest = _decompose_rec(field, Tr, Gr)
        lifted = [(k, la.mat_mul(c1, perp), la.mat_mul(c2, perp))
                  for (k, c1, c2) in rest]
    else:
        lifted = []
    return [(N, chain1, chain2)] + lifted


def _restrict(field, T, basis_rows):
    """Matrix of T restricted to the span of basis_rows, in those coordinates."""
    out = []
    Bt = la.transpose(basis_rows)
    for v in basis_rows:
        img = la.vec_mat(v, T)
        sol = la.solve(field, Bt, img)
        if sol is None:
            raise NotTStableError("span is not t-stable")
        out.append(sol.particular)
    return out


def decompose(M, seed=0):
    """Split M into standard planes.

    Returns (partition k_1 >= ... >= k_n, B) where the rows of B are the
    standard basis of ⊕H_{k_i} written in M-coordinates, so that exactly

        B · M.t = T_std · B      and      B · M.gram · Bᵀ = G_std.

    The construction is deterministic; `seed` is accepted for compatibility.
    """
    bad = M.validate()
    if bad:
        raise ValueError("invalid snt-module: " + ", ".join(bad))
    parts = _decompose_rec(M.field, M.t, M.gram)
    parts.sort(key=lambda p: -p[0])
    ks = tuple(p[0] for p in parts)
    B = []
    for _, c1, c2 in parts:
        B.extend(c1)
        B.extend(c2)
    std = standard_module(M.field, ks)
    if not la.mat_eq(la.mat_mul(B, M.t), la.mat_mul(std.t, B)):
        raise RuntimeError("decompose failed to intertwine t")
    if not la.mat_eq(la.mat_mul(la.mat_mul(B, M.gram), la.transpose(B)), std.gram):
        raise RuntimeError("decompose failed to transport the gram")
    return ks, B


def jordan_type(field, T):
    """Jordan block sizes of a nilpotent matrix (independent oracle for
    decompose: the type of an snt-module is half of this doubled partition)."""
    n = len(T)
    powers = la.nilpotent_powers(field, T)
    ranks = [n] + [la.rank(field, P) for P in powers[1:]] + [0]
    blocks = []
    for s in range(1, len(ranks)):
        # number of blocks of size >= s
        ge_s = ranks[s - 1] - ranks[s]
        blocks.append(ge_s)
    sizes = []
    for s in range(len(blocks), 0, -1):
        cnt = blocks[s - 1] - (blocks[s] if s < len(blocks) else 0)
        sizes.extend([s] * cnt)
    return tuple(sorted(sizes, reverse=True))


# --------------------------------------------------------------------------
# submodules and quasi-bases
# --------------------------------------------------------------------------

class SntSubmodule:
    """A t-stable subspace with quasi-basis and type partition.

    `span` is the canonical reduced-echelon basis of the underlying
    subspace; equality of submodules is equality of those tuples.
    """

    def __init__(self, field, span, quasi, partition):
        self.field = field
        self.span = tuple(tuple(r) for r in span)
        self.quasi = [list(r) for r in quasi]
        self.partition = tuple(partition)

    @property
    def dim(self):
        return len(self.span)

    @property
    def rank(self):
        return len(self.partition)

    def __eq__(self, other):
        return isinstance(other, SntSubmodule) and self.span == other.span

    def __hash__(self):
        return hash(self.span)

    def __repr__(self):
        return "SntSubmodule(type=%r, dim=%d)" % (self.partition, self.dim)


def _t_closure(field, T, rows):
    cur = la.rref_span(field, rows)
    while True:
        ext = [list(r) for r in cur] + [la.vec_mat(list(r), T) for r in cur]
        nxt = la.rref_span(field, ext)
        if nxt == cur:
            return cur
        cur = nxt


def quasi_basis(field, T, K, generators, require_stable=True):
    """Extract a quasi-basis of the F[t]-span of `generators`.

    T is the ambient t-action and K a precision with t^K = 0.  Returns an
    SntSubmodule whose `quasi` rows have orders k_1 >= ... >= k_m; its
    cardinality equals dim(span / t·span).  Raises NotTStableError when
    `require_stable` and the plain linear span is not t-stable.
    """
    span = la.rref_span(field, [list(g) for g in generators])
    if require_stable:
        for r in span:
            if not la.in_span(field, span, la.vec_mat(list(r), T)):
                raise NotTStableError("generators span a non-t-stable subspace")
    else:
        span = _t_closure(field, T, span)
    if not span:
        return SntSubmodule(field, (), [], ())
    gens = [list(r) for r in span]
    r = len(gens)
    # presentation R_K^r -> span; F-basis of the domain indexed by (i, s)
    powers = la.nilpotent_powers(field, T)[:K]
    dom = []
    for v in gens:
        dom.append(v)
        dom.extend(la.vec_mat(v, P) for P in powers[1:])
        dom.extend([[field.zero] * len(v)] * (K - len(powers)))
    rel = la.right_kernel(field, la.transpose(dom))
    if rel:
        lam = [[TruncPoly(field, [vec[i * K + s] for s in range(K)])
                for i in range(r)] for vec in rel]
        U, D, V = smith_form_t(lam)
        orders = smith_divisors(D, ncols=r)
        Vinv = la.inverse(TruncRing(field, K), V)
    else:
        orders = [K] * r
        Vinv = None
    quasi, parts = [], []
    for j in range(r):
        d = min(orders[j], K)
        if d == 0:
            continue
        if Vinv is None:
            h = gens[j]
        else:
            # row j of V⁻¹ over R_K, read in the F-basis t^s·gen_i of dom
            h = la.vec_mat([c for a in Vinv[j] for c in a.coeffs], dom)
        quasi.append((d, h))
    quasi.sort(key=lambda p: -p[0])
    parts = [d for d, _ in quasi]
    rows = [h for _, h in quasi]
    sub = SntSubmodule(field, span, rows, parts)
    _check_quasi(field, T, sub)
    return sub


def _check_quasi(field, T, sub):
    span = [list(r) for r in sub.span]
    tspan = la.rref_span(field, [la.vec_mat(r, T) for r in span]) if span else ()
    expect = len(span) - len(tspan)
    if len(sub.quasi) != expect:
        raise RuntimeError("quasi-basis has wrong cardinality")
    # orders are exact
    for k, h in zip(sub.partition, sub.quasi):
        v = list(h)
        for _ in range(k - 1):
            v = la.vec_mat(v, T)
        if not any(bool(c) for c in v):
            raise RuntimeError("quasi-basis order too small")
        v = la.vec_mat(v, T)
        if any(bool(c) for c in v):
            raise RuntimeError("quasi-basis order too large")
    # residues independent mod t·span
    if sub.quasi:
        base = [list(r) for r in tspan]
        if la.rank(field, base + sub.quasi) != len(tspan) + len(sub.quasi):
            raise RuntimeError("quasi-basis residues are dependent")


def module_coords(field, T, K, quasi_rows, orders, v):
    """Coordinates of v in a quasi-basis: v = sum_i a_i(t)·e_i, a_i in R_{k_i}.

    Returns a list of TruncPoly (precision K, reduced mod t^{k_i}), or None
    if v is not in the submodule.
    """
    powers = la.nilpotent_powers(field, T)
    cols = []
    for i, e in enumerate(quasi_rows):
        for s in range(orders[i]):
            cols.append(la.vec_mat(list(e), powers[s]))
    if not cols:
        return None if any(bool(c) for c in v) else []
    sol = la.solve(field, la.transpose(cols), list(v))
    if sol is None:
        return None
    out, pos = [], 0
    for i in range(len(quasi_rows)):
        k = orders[i]
        out.append(TruncPoly(field, sol.particular[pos:pos + k], K))
        pos += k
    return out


# --------------------------------------------------------------------------
# t-Lagrangian subspaces
# --------------------------------------------------------------------------

def is_isotropic(M, rows):
    B = [list(r) for r in rows]
    return la.is_zero_mat(la.mat_mul(la.mat_mul(B, M.gram), la.transpose(B)))


def is_t_stable(M, rows):
    span = la.rref_span(M.field, [list(r) for r in rows])
    return all(la.in_span(M.field, span, la.vec_mat(list(r), M.t)) for r in span)


def is_t_lagrangian(M, rows):
    span = la.rref_span(M.field, [list(r) for r in rows])
    if 2 * len(span) != M.dim:
        return False
    return is_isotropic(M, span) and is_t_stable(M, span)


def standard_t_lagrangian(M, indices):
    """L_{i_1} ⊕ ... ⊕ L_{i_n} inside a standard module.

    In H_k, L_i has basis t^i e1, ..., t^{k-1} e1, t^{k-i} e2, ..., t^{k-1} e2.
    """
    ks = M.partition
    if ks is None:
        raise ValueError("standard_t_lagrangian needs a standard module")
    if len(indices) != len(ks):
        raise ValueError("need one index per summand")
    rows = []
    for off, k, i in zip(summand_offsets(ks), ks, indices):
        if not 0 <= i <= k - 1:
            raise ValueError("index %d out of range for H_%d" % (i, k))
        for s in range(i, k):
            e = [M.field.zero] * M.dim
            e[off + s] = M.field.one
            rows.append(e)
        for s in range(k - i, k):
            e = [M.field.zero] * M.dim
            e[off + k + s] = M.field.one
            rows.append(e)
    return rows


def all_standard_t_lagrangians(M):
    ks = M.partition
    out = []
    for idx in itertools.product(*[range(k) for k in ks]):
        out.append(la.rref_span(M.field, standard_t_lagrangian(M, idx)))
    return out


def _all_rref_subspaces(field, dim, d):
    """All reduced-echelon bases of d-dimensional subspaces of F^dim."""
    elems = list(field.elements())
    for pivots in itertools.combinations(range(dim), d):
        free = []
        for r in range(d):
            for c in range(pivots[r] + 1, dim):
                if c not in pivots:
                    free.append((r, c))
        for vals in itertools.product(elems, repeat=len(free)):
            A = la.zeros(field, d, dim)
            for r in range(d):
                A[r][pivots[r]] = field.one
            for (r, c), v in zip(free, vals):
                A[r][c] = v
            yield A


def enumerate_t_lagrangians(M, guard=None):
    """Exhaustive list of t-Lagrangian subspaces over a finite field.

    Output is canonical (sorted reduced-echelon bases) and duplicate-free.
    """
    if not isinstance(M.field, PrimeField):
        raise ValueError("enumeration needs a finite field")
    limit = guard if guard is not None else enum_guard_limit()
    q = M.field.p
    if q ** M.dim > limit:
        raise EnumerationGuardError(
            "q^dim = %d exceeds the enumeration guard %d" % (q ** M.dim, limit))
    d = M.dim // 2
    found = []
    for A in _all_rref_subspaces(M.field, M.dim, d):
        if is_isotropic(M, A) and is_t_stable(M, A):
            found.append(tuple(tuple(x for x in row) for row in A))
    found.sort(key=lambda rows: [[_scalar_key(x) for x in r] for r in rows])
    return found


def _scalar_key(x):
    v = getattr(x, "v", None)
    if v is not None:
        return v
    return (x.numerator, x.denominator)


# --------------------------------------------------------------------------
# Lagrangian flags and the projection fibration
# --------------------------------------------------------------------------

class LagrangianFlag:
    """A decomposition M = M_- ⊕ M_+ into Lagrangians, M_+ always t-stable.

    M_- need not be t-stable; it then carries the t-action induced by the
    identification M_- ≅ M / M_+.
    """

    def __init__(self, M, minus_rows, plus_rows):
        self.M = M
        self.minus = [list(r) for r in minus_rows]
        self.plus = [list(r) for r in plus_rows]
        d = M.dim // 2
        if len(self.minus) != d or len(self.plus) != d:
            raise ValueError("flag parts must have dimension dim/2")
        if not is_isotropic(M, self.minus) or not is_isotropic(M, self.plus):
            raise ValueError("flag parts must be isotropic")
        if not is_t_stable(M, self.plus):
            raise ValueError("M_+ must be t-stable")
        self.minus_t_stable = is_t_stable(M, self.minus)
        self._full = self.minus + self.plus
        self._full_inv = la.inverse(M.field, self._full)

    @classmethod
    def standard(cls, M):
        ks = M.partition
        if ks is None:
            raise ValueError("standard flag needs a standard module")
        minus, plus = [], []
        for off, k in zip(summand_offsets(ks), ks):
            for s in range(k):
                e = [M.field.zero] * M.dim
                e[off + s] = M.field.one
                minus.append(e)
            for s in range(k):
                e = [M.field.zero] * M.dim
                e[off + k + s] = M.field.one
                plus.append(e)
        return cls(M, minus, plus)

    def split_coords(self, v):
        """(a, b) with v = a·minus + b·plus."""
        c = la.vec_mat(list(v), self._full_inv)
        d = self.M.dim // 2
        return c[:d], c[d:]

    def project_minus(self, v):
        a, _ = self.split_coords(v)
        return a

    def t_on_minus(self):
        """Matrix of the induced t-action on M_- coordinates (via M/M_+)."""
        out = []
        for r in self.minus:
            img = la.vec_mat(r, self.M.t)
            out.append(self.project_minus(img))
        return out

    def t_on_plus(self):
        out = []
        for r in self.plus:
            img = la.vec_mat(r, self.M.t)
            a, b = self.split_coords(img)
            if any(bool(c) for c in a):
                raise NotTStableError("M_+ not t-stable")
            out.append(b)
        return out

    def pairing_minus_plus(self):
        """d x d matrix <minus_i, plus_j> (invertible by nondegeneracy)."""
        return la.mat_mul(la.mat_mul(self.minus, self.M.gram),
                          la.transpose(self.plus))


def rho_of(flag, U_rows):
    """The self-dual map classifying a t-Lagrangian U over W = pi_-(U).

    Returns (W_sub, Wperp_rows, quot_reps, rho) where W_sub is pi_-(U) as an
    SntSubmodule in M_- coordinates, Wperp_rows is a basis of W^⊥ ⊆ M_+ in
    M_+ coordinates, quot_reps are representative basis vectors of M_+/W^⊥
    (M_+ coordinates), and rho is the matrix of the classifying map in the
    bases (W_sub.span) -> (quot_reps).
    """
    M, field = flag.M, flag.M.field
    if not is_t_lagrangian(M, U_rows):
        raise ValueError("U is not a t-Lagrangian subspace")
    d = M.dim // 2
    U = [list(r) for r in la.rref_span(field, [list(r) for r in U_rows])]
    Uc = [flag.split_coords(u) for u in U]
    W_rows = la.rref_span(field, [a for a, _ in Uc])
    Tm = flag.t_on_minus()
    W_sub = quasi_basis(field, Tm, M.K, [list(r) for r in W_rows])
    # W^perp inside M_+ (M_+ coordinates)
    Pi = flag.pairing_minus_plus()
    if W_rows:
        Wperp = la.right_kernel(field, la.mat_mul([list(r) for r in W_rows], Pi))
    else:
        Wperp = la.identity(field, d)
    Wperp = [list(r) for r in la.rref_span(field, Wperp)]
    # quotient representatives: unit vectors away from the pivots of W^perp
    piv = la.rref(field, Wperp)[1] if Wperp else []
    reps = []
    for c in range(d):
        if c not in piv:
            e = [field.zero] * d
            e[c] = field.one
            reps.append(e)
    # rho on the canonical span basis of W
    quot_basis = reps + Wperp
    rho = []
    Umat = [a + b for a, b in Uc]  # U rows in (minus, plus) coordinates
    for w in W_sub.span:
        sol = la.solve(field, la.transpose([r[:d] for r in Umat]), list(w))
        if sol is None:
            raise RuntimeError("projection of U misses W")
        lift_plus = la.vec_mat(sol.particular, [u[d:] for u in Umat])
        qsol = la.solve(field, la.transpose(quot_basis), lift_plus)
        rho.append(qsol.particular[:len(reps)])
    return W_sub, Wperp, reps, rho


def graph_of_rho(flag, W_sub, Wperp, reps, rho):
    """Rebuild the t-Lagrangian {w + rho(w) + W^⊥} in ambient coordinates."""
    field = flag.M.field
    # rows in (M_-, M_+) coordinates: w + rho(w), then 0 + W^⊥
    coords = [list(w) + la.vec_mat(rcoef, reps) for w, rcoef in zip(W_sub.span, rho)]
    coords += [[field.zero] * len(flag.minus) + list(wp) for wp in Wperp]
    return la.rref_span(field, la.mat_mul(coords, flag.minus + flag.plus))


def self_dual_map_space_dim(flag, W_sub, Wperp, reps):
    """dim_F of the space of t-linear self-dual maps W -> M_+/W^⊥.

    Over F_q the fiber of the projection Gr(M,t) -> Gr(M_-,t) over W has
    exactly q^dim points.
    """
    field = flag.M.field
    w = len(W_sub.span)
    r = len(reps)
    if w == 0 or r == 0:
        return 0
    Tm_full = flag.t_on_minus()
    # t-action on W in span coordinates
    TW = _restrict(field, Tm_full, [list(x) for x in W_sub.span])
    # t-action on the quotient in rep coordinates
    Tp = flag.t_on_plus()
    quot_basis = reps + Wperp
    TQ = []
    for rep in reps:
        img = la.vec_mat(rep, Tp)
        sol = la.solve(field, la.transpose(quot_basis), img)
        TQ.append(sol.particular[:r])
    # pairing W x M_+/W^perp
    Pi = flag.pairing_minus_plus()
    P = la.mat_mul(la.mat_mul([list(x) for x in W_sub.span], Pi),
                   la.transpose(reps))
    # unknown R (w x r): t-linear  TW·R = R·TQ ; self-dual  P·Rᵀ symmetric
    eqs, nvar = [], w * r

    def var(i, j):
        return i * r + j

    for i in range(w):
        for j in range(r):
            row = [field.zero] * nvar
            for l in range(w):
                row[var(l, j)] = row[var(l, j)] + TW[i][l]
            for l in range(r):
                row[var(i, l)] = row[var(i, l)] - TQ[l][j]
            eqs.append(row)
    for i in range(w):
        for jj in range(i + 1, w):
            row = [field.zero] * nvar
            for l in range(r):
                row[var(jj, l)] = row[var(jj, l)] + P[i][l]
                row[var(i, l)] = row[var(i, l)] - P[jj][l]
            eqs.append(row)
    ker = la.right_kernel(field, eqs)
    return len(ker)
