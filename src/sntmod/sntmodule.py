"""Symplectic modules with a nilpotent self-dual t-operator.

An snt-module is a finite-dimensional symplectic space (M, <,>) over a field
of characteristic != 2 together with a nilpotent operator t satisfying
<t x, y> = <x, t y>.  Everything here is exact.  Group elements and t act on
row vectors from the right, so the defining matrix identities are

    T nilpotent,   G alternating and invertible,   T·G = G·Tᵀ.

The standard plane H_k is F[t]/(t^k) ⊕ F[t]/(t^k) with both summands
isotropic and <t^i e1, t^j e2> = 1 exactly when i + j = k - 1; every
snt-module splits (uniquely up to order) as a direct sum of such planes,
and `decompose` computes that splitting constructively.  One function,
`plane_rows`, lays out the basis of such a sum: per plane the chain t^s·e1,
then the chain t^s·e2.  The standard module, its standard flag and
t-Lagrangians, the flag read off `decompose` and the levels of Sp(M,t) in
`spgroup` all read their rows from it.
"""
from __future__ import annotations

import itertools
import os
from functools import partial
from math import gcd, lcm
from operator import mul

from . import linalg as la
from .fields import PrimeField

DEFAULT_ENUM_GUARD = 10 ** 7


class NotTStableError(ValueError):
    """A span that was required to be t-stable is not."""


class InvalidModuleError(ValueError):
    """A module that violates the snt-module invariants, listed in
    `violations` as SntModule.validate returns them."""

    def __init__(self, violations):
        super().__init__("invalid snt-module: " + ", ".join(violations))
        self.violations = violations


class EnumerationGuardError(RuntimeError):
    """A brute-force enumeration would exceed the configured size guard."""


def enum_guard_limit():
    """SNT_MAX_ENUM if set, else the default; ValueError unless it is a
    non-negative integer."""
    v = os.environ.get("SNT_MAX_ENUM")
    if not v:
        return DEFAULT_ENUM_GUARD
    if not v.strip().isdecimal():
        raise ValueError("SNT_MAX_ENUM must be a non-negative integer, got %r" % v)
    return int(v)


class SntModule:
    """dim x dim data (t_action, gram) over a field descriptor.

    Values are immutable by convention: no method mutates the matrices, so
    instances may be shared freely across threads.  Two derived values are
    cached on first use: `_ints()`, T and G as int rows with T's powers,
    which `K`, `validate`, `decompose`, `is_t_lagrangian`, `LagrangianFlag`
    and `spgroup` read; and, in `_radical_cache`, the radical Lie basis that
    `spgroup.random_element` samples from, as `spgroup._radical_ints` gives
    it: int rows (each basis matrix flattened) with their common denominator.
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
        self._int_cache = None
        self._radical_cache = None

    # -- basic pairing / action --------------------------------------------
    def pair(self, x, y):
        return la.bilinear(x, self.gram, y)

    def _ints(self):
        """((T, e), (G, g), powers): T and G as `linalg._to_ints` rows and
        [I, T, T², …] up to the last nonzero power (T^j over e^j), or None
        for powers when T is not nilpotent.  Callers must not mutate it."""
        if self._int_cache is None:
            kind = self.field.char
            T, G = la._to_ints(kind, self.t), la._to_ints(kind, self.gram)
            try:
                powers = la._int_powers(kind, la._int_identity(self.dim), T[0])
            except ValueError:
                powers = None
            self._int_cache = T, G, powers
        return self._int_cache

    @property
    def K(self):
        """Nilpotency degree of t (= max element order; t^K = 0 on M): the
        number of cached powers I, T, …, at least 1.  ValueError when T is
        not nilpotent."""
        powers = self._ints()[2]
        if powers is None:
            raise ValueError("matrix is not nilpotent")
        return max(len(powers), 1)

    def validate(self):
        """Return the list of violated invariants (empty = valid), checked
        on T and G as `linalg._to_ints` rows."""
        bad = []
        kind, n = self.field.char, self.dim
        (T, _), (G, _), powers = self._ints()
        if not la._has_symmetry(kind, G, -1):
            bad.append("not alternating")
        if any(G[i][i] for i in range(n)):
            bad.append("nonzero diagonal in gram")
        if len(la._int_echelon(kind, G)[1]) < n:
            bad.append("degenerate gram")
        if powers is None:
            bad.append("t_action not nilpotent")
        # both products are over the same denominator
        if la._ints_mul(kind, T, G) != la._ints_mul(kind, G, la.transpose(T)):
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

def plane_rows(ks):
    """The layout of H_{k_1} ⊕ ... ⊕ H_{k_n}: per summand H_k, the rows of
    its e1 chain and of its e2 chain, as ranges (t^s·e1 at e1[s], t^s·e2 at
    e2[s]); the summands follow one another."""
    out, off = [], 0
    for k in ks:
        out.append((range(off, off + k), range(off + k, off + 2 * k)))
        off += 2 * k
    return out


def standard_module(field, ks):
    """H_{k_1} ⊕ ... ⊕ H_{k_n} with k_1 >= ... >= k_n on the rows of
    `plane_rows`: t shifts each chain, and <e1[i], e2[k-1-i]> = 1."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("empty partition")
    if list(ks) != sorted(ks, reverse=True):
        raise ValueError("partition must be nonincreasing")
    if ks[-1] <= 0:
        raise ValueError("k must be positive")
    n, one = 2 * sum(ks), field.one
    T, G = la.zeros(field, n, n), la.zeros(field, n, n)
    for e1, e2 in plane_rows(ks):
        for chain in (e1, e2):
            for a, b in zip(chain, chain[1:]):
                T[a][b] = one
        for a, b in zip(e1, reversed(e2)):
            G[a][b] = one
            G[b][a] = -one
    return SntModule(field, T, G, partition=ks)


def make_H(field, k):
    """The standard plane H_k on basis e1, te1, ..., t^{k-1}e1, e2, ..., t^{k-1}e2."""
    return standard_module(field, (k,))


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


# --------------------------------------------------------------------------
# structure decomposition
# --------------------------------------------------------------------------

def decompose(M, seed=0):
    """Split M into standard planes.

    Returns (partition k_1 >= ... >= k_n, B) where the rows of B are the
    standard basis of ⊕H_{k_i} written in M-coordinates, so that exactly

        B · M.t = T_std · B      and      B · M.gram · Bᵀ = G_std.

    The construction is deterministic; `seed` is accepted for compatibility.
    It runs on `linalg._to_ints` rows: T over e, G over g, the complement C
    of the planes found so far over c, and each chain row over its own
    denominator; B is boxed once, over the lcm L of those.  Both identities
    are checked on ints, as B·T = e·T_std·B and B·G·Bᵀ = L²·g·G_std.
    """
    bad = M.validate()
    if bad:
        raise InvalidModuleError(bad)
    kind = M.field.char
    (T, e), (G, g), powers = M._ints()
    C, c = la._int_identity(M.dim), 1
    parts = []
    while C:
        # C spans a t-stable subspace, so one of its rows attains the
        # maximal order N there; the order of a row of C is the first power
        # C·T^j (over c·e^j) at which it vanishes; the module caches I's
        if parts:
            powers = la._int_powers(kind, C, T)
        orders = [sum(1 for P in powers if any(P[i])) for i in range(len(C))]
        N = max(orders)
        i = orders.index(N)
        chain1 = [(P[i], c * e ** j) for j, P in enumerate(powers[:N])]
        GCt = la._ints_mul(kind, G, la.transpose(C))        # over g·c
        # eta = x·C with <t^{N-1} xi, eta> = 1, <t^j xi, eta> = 0 for j < N-1;
        # row j of A is over c·e^j·g·c, so the 1 is scaled alike.  x is the
        # kernel vector of [A | −target] whose last entry is nonzero: the
        # solution with the free unknowns 0, as `linalg.solve` returns it
        A = la._ints_mul(kind, [r for r, _ in chain1], GCt)
        target = [0] * (N - 1) + [chain1[-1][1] * g * c]
        ker, dx = la._int_kernel(kind, [row + [-y] for row, y in zip(A, target)])
        if not ker or not ker[-1][-1]:
            raise ValueError("gram is degenerate on a t-cyclic subspace")
        (v,) = la._ints_mul(kind, [ker[-1][:-1]], C)         # over dx·c
        chain2 = [(P[0], dx * c * e ** j)
                  for j, P in enumerate(la._int_powers(kind, [v], T))]
        plane = chain1 + chain2
        # orthogonal complement of the new plane inside span C
        K, dk = la._int_kernel(kind, la._ints_mul(kind, [r for r, _ in plane], GCt))
        C, c = la._ints_mul(kind, K, C), dk * c
        parts.append((N, plane))
    parts.sort(key=lambda p: -p[0])
    ks = tuple(p[0] for p in parts)
    L = lcm(*(d for _, rows in parts for _, d in rows))
    # laid out as `plane_rows`, over L
    B = [[x * (L // d) for x in r] for _, rows in parts for r, d in rows]
    # the two identities over L·e and L²·g (over F_p, e = g = L = 1)
    std = standard_module(M.field, ks)
    (Ts, _), (Gs, _) = la._to_ints(kind, std.t), la._to_ints(kind, std.gram)
    if la._ints_mul(kind, B, T) != \
            [[e * x for x in row] for row in la._ints_mul(kind, Ts, B)]:
        raise RuntimeError("decompose failed to intertwine t")
    if la._ints_mul(kind, la._ints_mul(kind, B, G), la.transpose(B)) != \
            [[L * L * g * x for x in row] for row in Gs]:
        raise RuntimeError("decompose failed to transport the gram")
    return ks, la._from_ints(kind, B, L)


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
    subspace; equality of submodules is equality of those tuples.  `quasi`
    holds the quasi-basis rows e_i, of orders `partition` = (k_i), and
    `chains` the F-basis t^s·e_i (s < k_i) they generate, chain by chain.
    """

    def __init__(self, field, span, quasi, partition, chains):
        self.field = field
        self.span = tuple(tuple(r) for r in span)
        self.quasi = [list(r) for r in quasi]
        self.partition = tuple(partition)
        self.chains = [list(r) for r in chains]

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


def quasi_basis(field, T, K, generators):
    """Extract a quasi-basis of the F[t]-span of `generators`.

    T is the ambient t-action and K a precision with t^K = 0.  Returns an
    SntSubmodule whose `quasi` rows have orders k_1 >= ... >= k_m, with
    their t-chains as `chains`; its cardinality equals dim(span / t·span).
    Raises NotTStableError when the plain linear span is not t-stable.

    The generators and T are converted once (`linalg._to_ints`: residues
    over F_p, one denominator per matrix over Q).  The span, the t-stability
    test, the presentation, its relations, `_smith_orders`, the quasi rows,
    their chains and `_check_quasi` run on int rows, and the submodule is
    boxed once.
    """
    kind = field.char
    (G, _), (Ti, e) = la._to_ints(kind, [list(g) for g in generators]), la._to_ints(kind, T)
    R, piv = la._int_echelon(kind, G)
    # the reduced echelon rows of the span, over one denominator ds
    ds = lcm(*(R[i][c] for i, c in enumerate(piv))) if not kind else 1
    S = [[x * (ds // R[i][c]) for x in R[i]] for i, c in enumerate(piv)]
    ST = la._ints_mul(kind, S, Ti)
    if _rank(kind, S + ST) != len(S):
        raise NotTStableError("generators span a non-t-stable subspace")
    span = la._box_echelon(kind, R, piv)
    if not S:
        return SntSubmodule(field, (), [], (), [])
    r = len(S)
    # presentation R_K^r -> span; F-basis t^s·gen_i of the domain, row i·K + s,
    # power s over ds·e^s, so all over ds·e^(K-1)
    powers = la._int_powers(kind, S, Ti)[:K]
    zero = [0] * len(Ti)
    dom = [[x * e ** (K - 1 - s) for x in powers[s][i]] if s < len(powers) else zero
           for i in range(r) for s in range(K)]
    orders, Vinv = _smith_orders(kind, la._int_kernel(kind, la.transpose(dom))[0], r, K)
    # row j of V⁻¹ over R_K, read in the F-basis of dom, has order orders[j]
    quasi = [(d, la._ints_mul(kind, [vec], dom)[0], den * ds * e ** (K - 1))
             for d, (vec, den) in zip(orders, Vinv) if d]
    quasi.sort(key=lambda q: -q[0])
    chains = [la._int_powers(kind, [h], Ti) for _, h, _ in quasi]
    _check_quasi(kind, ST, r, [h for _, h, _ in quasi], [d for d, _, _ in quasi],
                 list(map(len, chains)))
    return SntSubmodule(field, span, [la._from_ints(kind, [h], den)[0] for _, h, den in quasi],
                        [d for d, _, _ in quasi],
                        [la._from_ints(kind, P, den * e ** j)[0]
                         for (_, _, den), c in zip(quasi, chains) for j, P in enumerate(c)])


def _smith_orders(p, lam, r, K):
    """(orders, V⁻¹) of the t-local Smith form U·Λ·V = diag(t^d_j) of the
    relation rows `lam` over F_p[t]/(t^K) (p > 0) or Q[t]/(t^K) (p = 0):
    entry j of row i of Λ is Σ_s lam[i][j·K + s]·t^s, int coefficients
    (residues over F_p; over Q each row up to a nonzero factor).  d_j is
    the valuation (the index of the first nonzero coefficient) of the j-th
    pivot, K past the last one.  Pivots have least valuation, ties to the
    lowest (row, col).  U is never built, and V only as its inverse, each
    row as (int vector in lam's layout, denominator).

    At step s the pivot is t^v·u, u a unit, and N = (row s)·c·u⁻¹ with
    c·u⁻¹ from `_unit_inverse`: row s normalised, times c.  Row s of V⁻¹ is
    N/t^v over c at the current columns ≥ s: swapping columns s, j of V
    swaps rows s, j of V⁻¹ and col_j −= q·col_s is row_s += q·row_j, and
    the rows of V⁻¹ after s are still unit vectors then.  Each later row
    becomes c·row − (its column-s entry / t^v)·N, which clears column s;
    over Q it is then made primitive.  Both only scale a row by a nonzero
    constant, which changes no valuation and no normalised row, so neither
    the orders nor V⁻¹."""
    D = [[row[j * K:(j + 1) * K] for j in range(r)] for row in lam]
    cols, orders, Vinv = list(range(r)), [], []
    for s in range(min(len(D), r)):
        best, bv = None, K
        for i in range(s, len(D)):
            for j in range(s, r):
                x = D[i][j]
                for a in range(bv):     # only a valuation below bv wins
                    if x[a]:
                        best, bv = (i, j), a
                        break
            if bv == 0:
                break
        if best is None:
            break
        bi, bj = best
        D[s], D[bi] = D[bi], D[s]
        for row in D[s:]:
            row[s], row[bj] = row[bj], row[s]
        cols[s], cols[bj] = cols[bj], cols[s]
        W, c = _unit_inverse(p, D[s][s][bv:] + [0] * bv)
        N = [_pmul(p, W, x) for x in D[s]]
        vec = [0] * (r * K)
        for j in range(s, r):
            vec[cols[j] * K:(cols[j] + 1) * K] = N[j][bv:] + [0] * bv
        Vinv.append((vec, c))
        for i in range(s + 1, len(D)):
            if any(D[i][s]):
                q = D[i][s][bv:] + [0] * bv
                row = [[0] * K] * (s + 1) + [[c * x - y for x, y in zip(a, _pmul(0, q, b))]
                                             for a, b in zip(D[i][s + 1:], N[s + 1:])]
                if p:
                    row = [[x % p for x in a] for a in row]
                elif (g := gcd(*(x for a in row for x in a))) > 1:
                    row = [[x // g for x in a] for a in row]
                D[i] = row
        orders.append(bv)
    for s in range(len(orders), r):
        vec = [0] * (r * K)
        vec[cols[s] * K] = 1
        Vinv.append((vec, 1))
    return orders + [K] * (r - len(orders)), Vinv


def _pmul(p, a, b):
    """a·b mod t^K for coefficient lists of length K, reduced mod p if p."""
    K, rb = len(a), b[::-1]
    out = [sum(map(mul, a[:k + 1], rb[K - 1 - k:])) for k in range(K)]
    return [x % p for x in out] if p else out


def _unit_inverse(p, u):
    """(W, c) with W·u = c mod t^K for the coefficients u of a unit: c = 1
    over F_p, c = u_0^K over Q, where W = c·u⁻¹ is integral (its t^k
    coefficient has denominator u_0^(k+1) before scaling)."""
    K, u0 = len(u), u[0]
    if p:
        inv = pow(u0, -1, p)
        W = [inv]
        for k in range(1, K):
            W.append(-inv * sum(u[i] * W[k - i] for i in range(1, k + 1)) % p)
        return W, 1
    W = [u0 ** (K - 1)]
    for k in range(1, K):
        W.append(-sum(u[i] * W[k - i] for i in range(1, k + 1)) // u0)
    return W, u0 ** K


def _check_quasi(kind, ST, r, quasi, partition, orders):
    """Raise unless the int rows `quasi` of orders `partition` are a
    quasi-basis of an r-dimensional t-stable span whose rows times T are
    the int rows ST; `orders` are the lengths of their t-chains, i.e.
    their exact orders."""
    tspan, tpiv = la._int_echelon(kind, ST)
    if len(quasi) != r - len(tpiv):
        raise RuntimeError("quasi-basis has wrong cardinality")
    if orders != partition:
        raise RuntimeError("quasi-basis row has the wrong order")
    # residues independent mod t·span
    if quasi and _rank(kind, tspan[:len(tpiv)] + quasi) != len(tpiv) + len(quasi):
        raise RuntimeError("quasi-basis residues are dependent")


# --------------------------------------------------------------------------
# t-Lagrangian subspaces
# --------------------------------------------------------------------------

def is_isotropic(M, rows):
    B = [list(r) for r in rows]
    return la.is_zero_mat(la.mat_mul(la.mat_mul(B, M.gram), la.transpose(B)))


def is_t_lagrangian(M, rows):
    """Whether `rows` span a t-Lagrangian subspace of M, on int rows."""
    kind = M.field.char
    (T, _), (G, _), _ = M._ints()
    U = la._to_ints(kind, rows)[0]
    return _spans_t_lagrangian(kind, T, la._isotropy_test(kind, G), U, _rank(kind, U))


def _rank(kind, rows):
    return len(la._int_echelon(kind, rows)[1])


def _spans_t_lagrangian(kind, T, isotropic, U, rank):
    """Whether the int rows U, of rank `rank`, span a t-Lagrangian subspace
    of a module with int t-action T and isotropy test `isotropic`: of
    dimension dim/2, isotropic, and U·T adds nothing to the rank."""
    return 2 * rank == len(T) and isotropic(U) and \
        _rank(kind, U + la._ints_mul(kind, U, T)) == rank


def standard_t_lagrangian(M, indices):
    """L_{i_1} ⊕ ... ⊕ L_{i_n} inside a standard module.

    In H_k, L_i has basis t^i e1, ..., t^{k-1} e1, t^{k-i} e2, ..., t^{k-1} e2.
    """
    ks = M.partition
    if ks is None:
        raise ValueError("standard_t_lagrangian needs a standard module")
    if len(indices) != len(ks):
        raise ValueError("need one index per summand")
    I, rows = M.basis(), []
    for (e1, e2), k, i in zip(plane_rows(ks), ks, indices):
        if not 0 <= i <= k - 1:
            raise ValueError("index %d out of range for H_%d" % (i, k))
        rows += [I[r] for r in e1[i:]] + [I[r] for r in e2[k - i:]]
    return rows


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


def enumerate_t_lagrangians(M):
    """Exhaustive list of t-Lagrangian subspaces over a finite field.

    Output is canonical (sorted reduced-echelon bases) and duplicate-free.
    The list is built through the fibration U -> pi_-(U) of the flag that
    `decompose` gives (M_- the e1 chains, M_+ the e2 chains): the t-stable
    subspaces W of M_- are found by a scan, and the fiber over W is the set
    of graphs of the self-dual t-linear maps W -> M_+/W^⊥, an F_q-space.
    The guard counts the subspaces of M_- scanned plus the subspaces
    emitted, and is checked before the scan and before each fiber.  An
    invalid module raises InvalidModuleError, from `decompose`.

    Each fiber is an affine family on int rows.  In (M_-, M_+) coordinates
    the graph of rho = Σ c_k·R_k, R_k the `self_dual_map_basis`, has rows
    [w_i | (rho·reps)_i] and [0 | W^⊥]; mapped to M through minus + plus
    they are A_0 + Σ c_k·A_k, with A_0 from [w | 0] and [0 | W^⊥] and A_k
    from [0 | R_k·reps] (zero on the W^⊥ rows).  Each point is one int
    combination mod p, in `itertools.product` order, and one int
    reduction; the rows are boxed once, after the sort.  Every point is
    still checked, on ints, to have rank dim/2 and U·G·Uᵀ ≡ 0 mod p: the
    checks look at the subspaces emitted, so a fault in the basis, the
    flag or the int arithmetic shows at the first point it spoils.
    """
    field = M.field
    if not isinstance(field, PrimeField):
        raise ValueError("enumeration needs a finite field")
    limit = enum_guard_limit()
    q, d = field.p, M.dim // 2
    visited = sum(_gaussian_binomial(d, j, q) for j in range(d + 1))
    if visited > limit:
        raise EnumerationGuardError(
            "%d subspaces of M_- exceed the enumeration guard %d" % (visited, limit))
    flag = LagrangianFlag.from_decomposition(M)
    Tm = flag._tm[0]
    full = la._to_ints(q, flag._full)[0]
    zero = [field.zero] * d

    def graph(rows):
        """Rows in (M_-, M_+) coordinates as int rows of M."""
        return la._ints_mul(q, la._to_ints(q, rows)[0], full)
    found = []
    for j in range(d + 1):
        for W in _all_rref_subspaces(field, d, j):
            Wi = la._to_ints(q, W)[0]
            if _rank(q, Wi + la._ints_mul(q, Wi, Tm)) != j:
                continue
            Wperp, reps, basis = flag._fiber(Wi, maps=True)[1:4]
            visited += q ** len(basis)
            if visited > limit:
                raise EnumerationGuardError(
                    "%d subspaces scanned or emitted exceed the enumeration guard %d"
                    % (visited, limit))
            A0 = graph([w + zero for w in W] + [zero + wp for wp in Wperp])
            As = [graph([zero + r for r in la.mat_mul(R, reps)] +
                        [zero + zero] * len(Wperp)) for R in basis]
            for U in la._affine_family(q, A0, As):
                U, pivots = la._rref_ints(q, U)
                if len(pivots) != d or not flag._isotropic(U):
                    raise RuntimeError("a fiber point is not a Lagrangian subspace")
                found.append(U)
    found.sort()
    box = list(field.elements()).__getitem__
    return [tuple(tuple(map(box, r)) for r in U) for U in found]


def _gaussian_binomial(n, d, q):
    """[n, d]_q: the number of d-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


# --------------------------------------------------------------------------
# Lagrangian flags and the projection fibration
# --------------------------------------------------------------------------

class LagrangianFlag:
    """A decomposition M = M_- ⊕ M_+ into Lagrangians, M_+ always t-stable.

    M_- need not be t-stable; it then carries the t-action induced by the
    identification M_- ≅ M / M_+.

    What every fiber reads is computed once, as `linalg._to_ints` rows over
    denominators: T (the module's cached rows), an isotropy test
    (`linalg._isotropy_test`), the inverse `_full_inv` of minus + plus, and
    t on M_- (also boxed, as `_t_minus`, for the fibers' quasi-bases), t on
    M_+ and the pairing.  The flag's checks run on them.

    The flag caches, per t-stable W ⊆ M_-, what the fiber of U -> pi_-(U)
    over W depends on: W's quasi-basis, W^⊥, the reps of M_+/W^⊥ and, once
    the enumeration asks for it, `self_dual_map_basis`.  The key is W's
    canonical echelon basis in M_- coordinates as int rows; the cache lives
    as long as the flag and no longer, and callers hand out copies of it.
    """

    def __init__(self, M, minus_rows, plus_rows):
        self.M = M
        self.minus = [list(r) for r in minus_rows]
        self.plus = [list(r) for r in plus_rows]
        d = M.dim // 2
        if len(self.minus) != d or len(self.plus) != d:
            raise ValueError("flag parts must have dimension dim/2")
        kind = self._kind = M.field.char
        mul = partial(la._ints_mul, kind)
        (T, e), (G, g), _ = M._ints()
        (minus, dm), (plus, dp) = (la._to_ints(kind, A) for A in (self.minus, self.plus))
        self._t, self._isotropic = T, la._isotropy_test(kind, G)
        if not self._isotropic(minus) or not self._isotropic(plus):
            raise ValueError("flag parts must be isotropic")
        if _rank(kind, plus + mul(plus, T)) != _rank(kind, plus):
            raise ValueError("M_+ must be t-stable")
        self.minus_t_stable = _rank(kind, minus + mul(minus, T)) == _rank(kind, minus)
        self._full = self.minus + self.plus
        inv, f = self._full_inv = la._to_ints(kind, la.inverse(M.field, self._full))
        # t on M_- (via M/M_+), t on M_+ and the pairing, over their denominators
        self._tm = [r[:d] for r in mul(mul(minus, T), inv)], dm * e * f
        self._tp = [r[d:] for r in mul(mul(plus, T), inv)], dp * e * f
        self._pair = mul(mul(minus, G), la.transpose(plus)), dm * g * dp
        self._t_minus = la._from_ints(kind, *self._tm)
        self._fibers = {}

    @classmethod
    def standard(cls, M):
        ks = M.partition
        if ks is None:
            raise ValueError("standard flag needs a standard module")
        return cls(M, *_chain_rows(ks, M.basis()))

    @classmethod
    def from_decomposition(cls, M):
        """The flag read off `decompose(M)`: M_- is spanned by the e1 chains
        of the standard basis it finds, M_+ by the e2 chains."""
        return cls(M, *_chain_rows(*decompose(M)))

    def split_coords(self, v):
        """(a, b) with v = a·minus + b·plus."""
        ((v,), dv), (inv, f) = la._to_ints(self._kind, [list(v)]), self._full_inv
        (c,) = la._from_ints(self._kind, la._ints_mul(self._kind, [v], inv), dv * f)
        d = self.M.dim // 2
        return c[:d], c[d:]

    def _fiber(self, W, maps=False):
        """The cache entry [W_sub, Wperp, reps, maps, perp, cols] of W, given
        as reduced echelon int rows (over Q up to row factors); maps is None
        until asked for, perp holds Wperp's pivots and cols the reps'."""
        if not self._kind:      # over Q each row primitive, led by a positive entry
            W = [la._primitive(r if next(filter(None, r)) > 0 else [-x for x in r])
                 for r in W]
        fiber = self._fibers.get(key := tuple(map(tuple, W)))
        if fiber is None:
            span = la._box_echelon(self._kind, W, list(map(_lead, W)))
            Wperp, reps = _perp_and_reps(self, span)
            perp = list(map(_lead, Wperp))
            fiber = self._fibers[key] = [
                quasi_basis(self.M.field, self._t_minus, self.M.K, span), Wperp, reps,
                None, perp, [c for c in range(self.M.dim // 2) if c not in perp]]
        if maps and fiber[3] is None:
            fiber[3] = self_dual_map_basis(self, *fiber[:3])
        return fiber


def _lead(row):
    return next(c for c, x in enumerate(row) if x)


def _chain_rows(ks, B):
    """(e1 chain rows, e2 chain rows) of a matrix B laid out by
    `plane_rows(ks)`."""
    planes = plane_rows(ks)
    return ([B[r] for e1, _ in planes for r in e1],
            [B[r] for _, e2 in planes for r in e2])


def rho_of(flag, U_rows):
    """The self-dual map classifying a t-Lagrangian U over W = pi_-(U).

    Returns (W_sub, Wperp_rows, quot_reps, rho) where W_sub is pi_-(U) as an
    SntSubmodule in M_- coordinates, Wperp_rows is a basis of W^⊥ ⊆ M_+ in
    M_+ coordinates, quot_reps are representative basis vectors of M_+/W^⊥
    (M_+ coordinates), and rho is the matrix of the classifying map in the
    bases (W_sub.span) -> (quot_reps).  What depends on W alone comes from
    the flag's cache, and is returned as copies.

    U runs on int rows, its rank, isotropy and t-stability checked.  The
    echelon form of U·(minus + plus)⁻¹ has rows [w | lift of w], w the
    basis of W, then [0 | W^⊥]: rho is the lifts at the reps' columns.
    """
    kind, d = flag._kind, flag.M.dim // 2
    U = la._to_ints(kind, U_rows)[0]
    R, piv = la._int_echelon(kind, la._ints_mul(kind, U, flag._full_inv[0]))
    if not _spans_t_lagrangian(kind, flag._t, flag._isotropic, U, len(piv)):
        raise ValueError("U is not a t-Lagrangian subspace")
    w = sum(c < d for c in piv)
    W, Wperp, reps, _, perp, cols = flag._fiber([r[:d] for r in R[:w]])
    if [c - d for c in piv[w:]] != perp:
        raise RuntimeError("U ∩ M_+ differs from W^⊥")
    return (SntSubmodule(W.field, W.span, W.quasi, W.partition, W.chains),
            [r[:] for r in Wperp], [r[:] for r in reps],
            la._box_echelon(kind, R, piv[:w], [d + c for c in cols]))


def _perp_and_reps(flag, W_rows):
    """(W^⊥, reps) for W ⊆ M_- given by rows in M_- coordinates: the
    canonical basis of W^⊥ ⊆ M_+, and the unit vectors away from its pivots
    as representatives of a basis of M_+/W^⊥, both in M_+ coordinates.
    W^⊥ is the kernel of W·<minus, plus> on int rows; both are boxed once."""
    kind, d = flag._kind, flag.M.dim // 2
    W = la._to_ints(kind, W_rows)[0]
    Wp, piv = la._int_echelon(kind, la._int_kernel(
        kind, la._ints_mul(kind, W, flag._pair[0]))[0] if W else la._int_identity(d))
    return la._box_echelon(kind, Wp, piv), la._from_ints(
        kind, [[int(c == j) for j in range(d)] for c in range(d) if c not in piv])


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
    return len(self_dual_map_basis(flag, W_sub, Wperp, reps))


def self_dual_map_basis(flag, W_sub, Wperp, reps):
    """A basis of the t-linear self-dual maps W -> M_+/W^⊥, each a w × r
    matrix in the bases (W_sub.span) -> (reps), as `rho_of` returns rho.

    reps must be the unit vectors away from the pivots of the reduced
    echelon Wperp, as `rho_of` gives them (ValueError otherwise), so t on W
    (TW) and on M_+/W^⊥ (TQ) are read at pivots.  The equations for R,
    t-linear and self-dual, are int rows; `linalg._int_kernel` solves them,
    boxed once.
    """
    kind, d = flag._kind, flag.M.dim // 2
    w, r = len(W_sub.span), len(reps)
    if w == 0 or r == 0:
        return []
    (S, s), (Wp, e) = la._to_ints(kind, W_sub.span), la._to_ints(kind, Wperp)
    perp = list(map(_lead, Wp))
    cols = [c for c in range(d) if c not in perp]
    if la._to_ints(kind, reps)[0] != [[int(c == j) for j in range(d)] for c in cols]:
        raise ValueError("reps must be the unit vectors away from the pivots of W^⊥")
    (Tm, tm), (Tp, tp), (P, _) = flag._tm, flag._tp, flag._pair
    # TW over s·tm, TQ over e·tp (W^⊥'s pivot entries are e): both to s·tm·e·tp
    piv = list(map(_lead, S))
    TW = [[x[c] * e * tp for c in piv] for x in la._ints_mul(kind, S, Tm)]
    TQ = [[(e * y[c] - sum(y[k] * row[c] for k, row in zip(perp, Wp))) * s * tm
           for c in cols] for y in (Tp[c] for c in cols)]
    P = [[x[c] for c in cols] for x in la._ints_mul(kind, S, P)]
    # unknown R[a][b] at a·r + b; rows (TW·R − R·TQ)[i][j], (P·Rᵀ)[i][j] − (P·Rᵀ)[j][i]
    eqs = [[TW[i][a] * (b == j) - TQ[b][j] * (a == i) for a in range(w) for b in range(r)]
           for i in range(w) for j in range(r)]
    eqs += [[P[i][b] * (a == j) - P[j][b] * (a == i) for a in range(w) for b in range(r)]
            for i in range(w) for j in range(i + 1, w)]
    return [[vec[i * r:(i + 1) * r] for i in range(w)]
            for vec in la._from_ints(kind, *la._int_kernel(kind, eqs))]
