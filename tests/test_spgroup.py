"""Sp(M,t): membership, ring model, block structure, Lie algebra, sampling.

`isometry_lie_basis`, `exp_nilpotent` and `random_element` run on ints;
their boxed versions, built on field elements, are kept here as references
and compared value for value and type for type.  `group_closure` over
F_p[t]/(t^K) runs on packed ints; its generic BFS, reached through any
other product, is the reference.
"""
import random

import pytest

from sntmod import linalg as la
from sntmod import spgroup
from sntmod.fields import QQ, GF
from sntmod.sntmodule import (EnumerationGuardError, SntModule, direct_sum,
                              make_H, plane_rows, standard_module)
from sntmod.spgroup import (NotAMemberError, SntAutomorphism, _level_chains,
                            _level_layout, _lift_levels, _transvection_ints,
                            block_profile, cayley, exp_nilpotent,
                            group_closure, is_member,
                            lie_algebra_basis, radical_lie_basis,
                            random_element, sp_group_order,
                            sp_ring_generators, unipotent_radical_test)
from sntmod.tpoly import TruncPoly, TruncRing, tmat_key, tmat_mul, tp

from ring_oracles import boxed_inverse, poly_inv

F3 = GF(3)


def _typed(x):
    """Nested lists with every scalar replaced by (type, value)."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    return (type(x), x)


def unit(field, n, i):
    e = [field.zero] * n
    e[i] = field.one
    return e


def apply_t(M, x, times=1):
    for _ in range(times):
        x = la.vec_mat(x, M.t)
    return x


# --------------------------------------------------------------------------
# the ring model of the homogeneous case, Sp(M,t) <-> Sp_2n(F[t]/(t^k)), and
# the level transvections (test helpers: nothing in the package uses them)
# --------------------------------------------------------------------------

class HomogeneousRingIso:
    """Bidirectional maps Sp(M,t) <-> Sp_{2n}(R_k) for M = H_k^{⊕n}.

    The R_k-basis eps_1, ..., eps_2n identifies eps_{2j-1}, eps_{2j} with the
    two generators of the j-th plane; the F-form is the t^{k-1} coefficient
    of the R_k-valued standard symplectic form.
    """

    def __init__(self, M):
        ks = M.partition
        if ks is None or len(set(ks)) != 1:
            raise ValueError("module is not homogeneous standard")
        self.M = M
        self.k = ks[0]
        self.n = len(ks)
        self.field = M.field
        self.R = TruncRing(M.field, self.k)
        # F-basis row index of t^s * eps_a: eps_2j and eps_2j+1 are the e1
        # and e2 of plane j, so t^s * eps_a is row s of the a-th chain
        chains = [c for plane in plane_rows(ks) for c in plane]
        self._row = {(a, s): r for a, c in enumerate(chains) for s, r in enumerate(c)}

    def ring_gram(self):
        """The R_k-valued symplectic gram on R_k^{2n} (pairs (2j-1, 2j))."""
        R, n = self.R, self.n
        J = la.zeros(R, 2 * n, 2 * n)
        for j in range(n):
            J[2 * j][2 * j + 1] = R.one
            J[2 * j + 1][2 * j] = -R.one
        return J

    def from_ring(self, ghat):
        """F-matrix of the R_k-linear right action of ghat."""
        f, k, n = self.field, self.k, self.n
        N = 2 * n * k
        out = la.zeros(f, N, N)
        for a in range(2 * n):
            for s in range(k):
                r = self._row[(a, s)]
                for b in range(2 * n):
                    poly = ghat[a][b]
                    for u, c in enumerate(poly.coeffs):
                        if c and s + u < k:
                            out[r][self._row[(b, s + u)]] = c
        return out

    def to_ring(self, g):
        """R_k-matrix recovered from an F-side member of Sp(M,t)."""
        f, k, n = self.field, self.k, self.n
        ghat = []
        for a in range(2 * n):
            row = []
            for b in range(2 * n):
                coeffs = [g[self._row[(a, 0)]][self._row[(b, u)]] for u in range(k)]
                row.append(TruncPoly(f, coeffs))
            ghat.append(row)
        return ghat


def levi_transvection(M, level_index, v_coeffs, lam):
    """Lift of a residue symplectic transvection on one homogeneous level.

    v_coeffs are F-coordinates in the R-basis of the level; the R-module
    transvection x -> x + lam * <x, v>^ v is R-linear, preserves the
    R-valued form, and reduces to the residue transvection.  It is the
    block that `random_element` lifts, built by the same private helpers.
    """
    field = M.field
    kind = field.char
    chains = _level_chains(M.partition)[level_index]
    if len(v_coeffs) != len(chains):
        raise ValueError("level %d needs %d coordinates" % (level_index, len(chains)))
    tau = _transvection_ints(kind, [field(c) for c in v_coeffs], field(lam))
    return la._from_ints(kind, *_lift_levels(kind, M.dim, [(chains, tau)]))


def is_ring_member(iso, ghat):
    """ghat preserves the ring Gram matrix J: ghat·J·ghatᵀ = J."""
    J = iso.ring_gram()
    return la.mat_eq(la.mat_mul(la.mat_mul(ghat, J), la.transpose(ghat)), J)


# --------------------------------------------------------------------------
# membership
# --------------------------------------------------------------------------

def test_identity_is_member():
    M = direct_sum(make_H(QQ, 2), make_H(QQ, 1))
    assert is_member(M, la.identity(QQ, M.dim))


def test_sp4_when_t_zero():
    # H1 ⊕ H1 carries t = 0, so membership reduces to the symplectic test
    M = direct_sum(make_H(QQ, 1), make_H(QQ, 1))
    rng = random.Random(0)
    found_nonmember = False
    for _ in range(20):
        g = [[QQ(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        symp = la.mat_eq(la.mat_mul(la.mat_mul(g, M.gram), la.transpose(g)),
                         M.gram)
        assert is_member(M, g) == symp
        found_nonmember |= not symp
    assert found_nonmember


def test_swap_of_generators_fails_sign():
    M = make_H(QQ, 2)
    # e1 <-> e2, te1 <-> te2
    g = [unit(QQ, 4, i) for i in (2, 3, 0, 1)]
    assert la.mat_eq(la.mat_mul(g, M.t), la.mat_mul(M.t, g))  # t-linear
    assert not is_member(M, g)                                # sign flips


def test_member_size_mismatch():
    M = make_H(QQ, 2)
    with pytest.raises(ValueError):
        is_member(M, la.identity(QQ, 2))


def boxed_is_member(M, g):
    """`is_member` by boxed products and entrywise comparisons."""
    if not la.mat_eq(la.mat_mul(g, M.t), la.mat_mul(M.t, g)):
        return False
    return la.mat_eq(la.mat_mul(la.mat_mul(g, M.gram), la.transpose(g)), M.gram)


@pytest.mark.parametrize("field,ks", [(QQ, (2, 1)), (QQ, (3, 2, 1)),
                                      (GF(5), (2, 2, 1)), (GF(3), (3, 1))])
def test_is_member_matches_boxed_reference(field, ks):
    # each single-entry perturbation of sampled members, in the standard
    # module and in a basis with denominators in T and G
    rng = random.Random(8)
    M = standard_module(field, ks)
    n = M.dim
    while True:
        P = [[field.random(rng, 2) for _ in range(n)] for _ in range(n)]
        if la.rank(field, P) == n:
            break
    Pinv = la.inverse(field, P)
    Mp = SntModule(field, la.mat_mul(la.mat_mul(P, M.t), Pinv),
                   la.mat_mul(la.mat_mul(P, M.gram), la.transpose(P)))
    seen = set()
    for seed in range(2):
        g = random_element(M, seed)
        for N, h in ((M, g), (Mp, la.mat_mul(la.mat_mul(P, g), Pinv))):
            assert is_member(N, h) and boxed_is_member(N, h)
            for a in range(n):
                for b in range(n):
                    k = [row[:] for row in h]
                    k[a][b] = k[a][b] + field.random_nonzero(rng, 2)
                    got = is_member(N, k)
                    assert got == boxed_is_member(N, k)
                    seen.add(got)
        if field == QQ:
            # 2·g commutes with t and scales G by 4
            scaled = la.scal_mul(field(2), g)
            assert not is_member(M, scaled) and not boxed_is_member(M, scaled)
    assert False in seen


def test_automorphism_wrapper():
    M = make_H(QQ, 2)
    a = SntAutomorphism(M, la.identity(QQ, 4))
    assert la.mat_eq((a * a).matrix, la.identity(QQ, 4))
    with pytest.raises(NotAMemberError):
        SntAutomorphism(M, la.zeros(QQ, 4, 4))


# --------------------------------------------------------------------------
# ring model of the homogeneous case
# --------------------------------------------------------------------------

def test_ring_iso_identity_roundtrip():
    M = standard_module(F3, (2, 2))
    iso = HomogeneousRingIso(M)
    I = la.identity(TruncRing(F3, 2), 4)
    g = iso.from_ring(I)
    assert la.mat_eq(g, la.identity(F3, M.dim))
    back = iso.to_ring(g)
    assert all(back[i][j] == I[i][j] for i in range(4) for j in range(4))


def test_ring_iso_scalar_unit():
    # diag(1+t, (1+t)^{-1}) is a ring symplectic element; both tests pass
    M = make_H(F3, 2)
    iso = HomogeneousRingIso(M)
    a = tp(F3, 2, 1, 1)
    z = TruncRing(F3, 2).zero
    ghat = [[a, z], [z, poly_inv(a)]]
    assert is_ring_member(iso, ghat)
    g = iso.from_ring(ghat)
    assert is_member(M, g)
    back = iso.to_ring(g)
    assert all(back[i][j] == ghat[i][j] for i in range(2) for j in range(2))


def test_ring_members_map_to_members():
    # every element of the closure of Sp_2(F3[t]/t^2) is a module member
    M = make_H(F3, 2)
    iso = HomogeneousRingIso(M)
    gens = sp_ring_generators(F3, 1, 2)
    grp = group_closure(gens, la.mat_mul, tmat_key, 10 ** 4)
    rng = random.Random(1)
    for ghat in rng.sample(grp, 40):
        assert is_ring_member(iso, ghat)
        assert is_member(M, iso.from_ring(ghat))


def test_ring_iso_needs_homogeneous():
    with pytest.raises(ValueError):
        HomogeneousRingIso(standard_module(QQ, (2, 1)))


# --------------------------------------------------------------------------
# block structure over the homogeneous levels
# --------------------------------------------------------------------------

def test_block_profile_identity():
    M = standard_module(QQ, (2, 1))
    bp = block_profile(M, la.identity(QQ, M.dim))
    assert bp.levels == (2, 1) and bp.mults == (1, 1)
    assert bp.is_levi_trivial()
    assert bp.upper_triangular_ok() and bp.diagonal_symplectic_ok()


@pytest.mark.parametrize("field,ks,seeds", [(QQ, (2, 1), range(25)),
                                            (F3, (2,), range(25))])
def test_block_profile_of_samples(field, ks, seeds):
    M = standard_module(field, ks)
    for seed in seeds:
        g = random_element(M, seed)
        bp = block_profile(M, g)
        assert bp.upper_triangular_ok()
        assert bp.diagonal_symplectic_ok()


@pytest.mark.parametrize("field,ks", [(QQ, (2, 1)), (QQ, (3, 2, 1)),
                                      (GF(5), (2, 2, 1))])
def test_bar_grams_match_unit_vector_pairings(field, ks):
    # the bar Gram of level lv pairs generator unit vectors e_a, t^(lv-1) e_b
    M = standard_module(field, ks)
    for seed in range(3):
        bp = block_profile(M, random_element(M, seed))
        for (lv, _, _, gens), Gb in zip(_level_layout(ks), bp.bar_grams):
            want = [[M.pair(unit(field, M.dim, a),
                            apply_t(M, unit(field, M.dim, b), lv - 1))
                     for b in gens] for a in gens]
            assert _typed(Gb) == _typed(want)


def test_levi_element_fails_radical_test():
    M = standard_module(QQ, (2, 1))
    # a nontrivial residue transvection on the level-2 block
    g = levi_transvection(M, 0, [QQ(1), QQ(1)], QQ(1))
    assert is_member(M, g)
    assert not unipotent_radical_test(M, g)


def test_levi_transvection_needs_the_level_rank():
    # level 0 of (2, 1) has one plane, so two coordinates
    M = standard_module(QQ, (2, 1))
    for v in ([1], [1, 2, 3], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="needs 2 coordinates"):
            levi_transvection(M, 0, [QQ(c) for c in v], QQ(1))


def test_radical_closure_under_products():
    M = standard_module(QQ, (2, 1))
    rng = random.Random(7)
    rad = radical_lie_basis(M)
    S = la.zeros(QQ, M.dim, M.dim)
    for B in rad:
        S = la.mat_add(S, la.scal_mul(QQ.random(rng, 2), B))
    r = cayley(QQ, S)
    assert is_member(M, r)
    assert unipotent_radical_test(M, r)
    rinv = la.inverse(QQ, r)
    assert unipotent_radical_test(M, la.mat_mul(r, rinv))


# --------------------------------------------------------------------------
# Lie algebra
# --------------------------------------------------------------------------

def test_lie_dimensions():
    assert len(lie_algebra_basis(make_H(QQ, 1))) == 3
    assert len(lie_algebra_basis(make_H(QQ, 2))) == 6


def test_lie_basis_satisfies_identities():
    M = standard_module(QQ, (2, 1))
    G, T = M.gram, M.t
    for S in lie_algebra_basis(M):
        assert la.mat_eq(la.mat_mul(S, T), la.mat_mul(T, S))
        assert la.is_zero_mat(la.mat_add(la.mat_mul(S, G),
                                         la.mat_mul(G, la.transpose(S))))


def boxed_isometry_lie_basis(field, G, T=None):
    """`isometry_lie_basis` with its equations built entry by entry on field
    elements and solved by `right_kernel`."""
    n = len(G)
    eqs = []

    def var(i, j):
        return i * n + j

    if T is not None:
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for l in range(n):
                    row[var(i, l)] = row[var(i, l)] + T[l][j]
                    row[var(l, j)] = row[var(l, j)] - T[i][l]
                eqs.append(row)
    for i in range(n):
        for j in range(n):
            row = [field.zero] * (n * n)
            for l in range(n):
                row[var(i, l)] = row[var(i, l)] + G[l][j]
                row[var(j, l)] = row[var(j, l)] + G[i][l]
            eqs.append(row)
    ker = la.right_kernel(field, eqs)
    return [[vec[i * n:(i + 1) * n] for i in range(n)] for vec in ker]


def boxed_radical_lie_basis(M):
    """`radical_lie_basis` on field elements over the boxed Lie basis."""
    field, n = M.field, M.dim
    lvl_gens = [gens for _, _, _, gens in _level_layout(M.partition)]
    basis = boxed_isometry_lie_basis(field, M.gram, M.t)
    if not basis:
        return []
    rows = [[S[a][b] for g in lvl_gens for a in g for b in g] for S in basis]
    out = []
    for lam in la.right_kernel(field, la.transpose(rows)):
        S = la.zeros(field, n, n)
        for c, B in zip(lam, basis):
            if c:
                S = la.mat_add(S, la.scal_mul(c, B))
        out.append(S)
    return out


def full_system_radical_lie_basis(M):
    """`radical_lie_basis` by the full system on n² unknowns: the Lie basis
    of `linalg._lie_kernel`, then the kernel of the reduction map (the
    generator-to-generator entries within each level) in that basis, on
    ints.  Fast enough for modules where the boxed route is not."""
    kind, n = M.field.char, M.dim
    basis, d = la._lie_kernel(kind, M.gram, M.t)
    if not basis:
        return []
    idx = [a * n + b for _, _, _, gens in _level_layout(M.partition)
           for a in gens for b in gens]
    lam, e = la._int_kernel(kind, [[B[i] for B in basis] for i in idx])
    rad = la._from_ints(kind, la._ints_mul(kind, lam, basis), d * e)
    return [[row[i * n:(i + 1) * n] for i in range(n)] for row in rad]


def sum_of_planes(field, ks):
    """H_{k_1} ⊕ ... ⊕ H_{k_n} by `direct_sum`, in the order of ks."""
    M = make_H(field, ks[0])
    for k in ks[1:]:
        M = direct_sum(M, make_H(field, k))
    return M


def _conjugated(field, M, rng):
    """(P·T·P⁻¹, P·G·Pᵀ) for a random invertible P: a module with the
    denominators of P, P⁻¹ in its matrices."""
    n = M.dim
    while True:
        P = [[field.random(rng, 2) for _ in range(n)] for _ in range(n)]
        if la.rank(field, P) == n:
            break
    T = la.mat_mul(la.mat_mul(P, M.t), la.inverse(field, P))
    return T, la.mat_mul(la.mat_mul(P, M.gram), la.transpose(P))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(7)])
def test_isometry_lie_basis_matches_boxed_equations(field):
    rng = random.Random(4)
    for ks in [(1,), (2,), (1, 1), (2, 1), (3, 1), (3, 2, 1)]:
        M = standard_module(field, ks)
        cases = [(M.gram, M.t), (M.gram,)]
        if M.dim <= 8:
            T, G = _conjugated(field, M, rng)
            cases += [(G, T), (G,)]
        for args in cases:
            assert _typed(la.isometry_lie_basis(field, *args)) == \
                _typed(boxed_isometry_lie_basis(field, *args))
        assert _typed(radical_lie_basis(M)) == _typed(boxed_radical_lie_basis(M))
    # the closed form beside the boxed equations on more levels, and on
    # direct sums whose equal parts stand apart
    for M in (standard_module(field, (2, 2, 1, 1)), sum_of_planes(field, (1, 2, 1)),
              sum_of_planes(field, (2, 1, 2))):
        assert _typed(radical_lie_basis(M)) == _typed(boxed_radical_lie_basis(M))
    # a symmetric, non-integral Gram: the orthogonal Lie algebra
    entries = ([QQ(1, 2), QQ(3), QQ(-2, 3)] if field == QQ
               else [field.one / field(2), field.one, field(-2)])
    G = [[x if i == j else field.zero for j in range(3)]
         for i, x in enumerate(entries)]
    assert len(la.isometry_lie_basis(field, G)) == 3
    assert _typed(la.isometry_lie_basis(field, G)) == \
        _typed(boxed_isometry_lie_basis(field, G))
    # Grams that are neither symmetric nor skew keep all n² form equations;
    # with only those of i <= j the kernels would have 3 and 6 elements
    for rows, dim in [([[1, 2, 0], [0, 1, 3], [1, 0, 2]], 1),
                      ([[0, 1, 0, 2], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], 2)]:
        G = [[field(x) for x in row] for row in rows]
        assert len(la.isometry_lie_basis(field, G)) == dim
        assert _typed(la.isometry_lie_basis(field, G)) == \
            _typed(boxed_isometry_lie_basis(field, G))


@pytest.mark.parametrize("field,ks", [(GF(3), (3, 3, 2, 1)), (QQ, (4, 2, 2))])
def test_radical_basis_matches_full_system(field, ks, monkeypatch):
    # the closed form on the centraliser of T against the full system on
    # n² unknowns, where the boxed equations would be too slow
    M = standard_module(field, ks)
    want = full_system_radical_lie_basis(M)
    monkeypatch.setattr(la, "_lie_kernel", None)
    assert _typed(radical_lie_basis(M)) == _typed(want)


def test_radical_basis_needs_the_standard_matrices():
    # a partition claimed over other matrices: T not the chain shift, or a
    # Gram that is not alternating
    M = standard_module(QQ, (2, 1))
    T, G = _conjugated(QQ, M, random.Random(5))
    sym = [[abs(x) for x in row] for row in M.gram]
    for N in (SntModule(QQ, T, G, (2, 1)), SntModule(QQ, M.t, sym, (2, 1))):
        with pytest.raises(ValueError, match="needs a standard module"):
            radical_lie_basis(N)


@pytest.mark.parametrize("field", [F3, GF(5), QQ], ids=["F3", "F5", "Q"])
def test_ring_cayley_matches_boxed_inverse(field):
    """`cayley` over F[t]/(t^K) inverts by t-adic lifting: it equals
    (I + S/2)·(I − S/2)⁻¹ with the boxed elimination's inverse, in values
    and coefficient types, for K = 1, ..., 4; an I − S/2 that is singular
    mod t raises the same error on both routes."""
    rng = random.Random(47)

    def typed(A):
        return [[(x.field, [(type(c), c) for c in x.coeffs]) for x in row] for row in A]
    for K in (1, 2, 3, 4):
        R = TruncRing(field, K)
        half = R(field(1) / field(2))
        for n in (1, 2, 3):
            for trial in range(5):
                S = [[TruncPoly(field, [field.random(rng) for _ in range(K)])
                      for _ in range(n)] for _ in range(n)]
                if trial == 0:              # I − S/2 = 0
                    S = la.scal_mul(R(2), la.identity(R, n))
                I, A = la.identity(R, n), la.scal_mul(half, S)
                try:
                    want = la.mat_mul(la.mat_add(I, A), boxed_inverse(R, la.mat_sub(I, A)))
                except ValueError as e:
                    with pytest.raises(ValueError, match=str(e)):
                        cayley(R, S)
                    continue
                assert typed(cayley(R, S)) == typed(want)


def test_exp_and_cayley_land_in_group():
    M = standard_module(QQ, (2, 1))
    rng = random.Random(3)
    rad = radical_lie_basis(M)
    S = la.zeros(QQ, M.dim, M.dim)
    for B in rad:
        S = la.mat_add(S, la.scal_mul(QQ.random(rng, 2), B))
    e = exp_nilpotent(QQ, S)
    assert e is not None and is_member(M, e)
    c = cayley(QQ, S)
    assert is_member(M, c)


def boxed_exp(field, S):
    """The Taylor sum of exp(S) over `nilpotent_powers` on field elements;
    None when a factorial is not invertible."""
    powers = la.nilpotent_powers(field, S)
    if field.char and len(powers) - 1 >= field.char:
        return None
    out, fact = la.identity(field, len(S)), 1
    for m, P in enumerate(powers[1:], 1):
        fact *= m
        out = la.mat_add(out, la.scal_mul(field.one / field(fact), P))
    return out


def _radical_samples(field, ks, rng):
    """Radical Lie elements of the standard module of type ks: zero, each
    basis element times a random scalar, and random combinations."""
    M = standard_module(field, ks)
    rad = radical_lie_basis(M)
    out = [la.zeros(field, M.dim, M.dim)]
    out += [la.scal_mul(field.random_nonzero(rng, 3), B) for B in rad]
    for _ in range(6):
        S = la.zeros(field, M.dim, M.dim)
        for B in rad:
            S = la.mat_add(S, la.scal_mul(field.random(rng, 3), B))
        out.append(S)
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_exp_nilpotent_matches_taylor_sum(field):
    rng = random.Random(8)
    for ks in [(2, 1), (3, 2, 1), (4, 2)]:
        for S in _radical_samples(field, ks, rng):
            e = exp_nilpotent(field, S)
            assert e is not None
            assert _typed(e) == _typed(boxed_exp(field, S))


def test_exp_nilpotent_none_exactly_when_factorials_vanish():
    rng = random.Random(9)
    seen = set()
    for ks in [(2, 1), (3, 2, 1), (4, 2)]:
        for S in _radical_samples(F3, ks, rng):
            nu = len(la.nilpotent_powers(F3, S))
            e = exp_nilpotent(F3, S)
            assert (e is None) == (nu - 1 >= 3)
            assert _typed(e) == _typed(boxed_exp(F3, S))
            seen.add(e is None)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        exp_nilpotent(QQ, la.identity(QQ, 2))


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sampling_deterministic():
    M = standard_module(QQ, (2, 1))
    assert la.mat_eq(random_element(M, 11), random_element(M, 11))


def test_sampling_keeps_module_attributes(monkeypatch):
    # the radical basis is cached in a slot the module declares, once
    from sntmod import spgroup
    calls = []
    basis = spgroup._radical_ints
    monkeypatch.setattr(spgroup, "_radical_ints",
                        lambda M: calls.append(M) or basis(M))
    M = standard_module(QQ, (2, 1))
    names = set(vars(M))
    for seed in range(4):
        random_element(M, seed)
    assert set(vars(M)) == names
    assert len(calls) == 1


@pytest.mark.parametrize("field", [QQ, F3, GF(5)], ids=["Q", "F3", "F5"])
@pytest.mark.parametrize("ks", [(1, 2, 1), (2, 1, 2)])
def test_sampling_groups_equal_parts_that_stand_apart(field, ks):
    # planes of one k form one level wherever they stand in ks, so the
    # radical is nilpotent, every sample a member, and its profile block
    # upper triangular and symplectic on the diagonal
    M = sum_of_planes(field, ks)
    chains = [c for plane in plane_rows(ks) for c in plane]
    assert _level_chains(ks) == [[c for a, c in enumerate(chains) if ks[a // 2] == k]
                                 for k in sorted(set(ks), reverse=True)]
    for seed in range(20):
        bp = block_profile(M, random_element(M, seed))
        assert (bp.levels, bp.mults) == ((2, 1), (ks.count(2), ks.count(1)))
        assert bp.upper_triangular_ok() and bp.diagonal_symplectic_ok()


def test_samples_are_members_and_closed():
    M = standard_module(QQ, (2, 1))
    gs = [random_element(M, seed) for seed in range(12)]
    for g in gs:
        assert is_member(M, g)
    for a, b in zip(gs, gs[1:]):
        assert is_member(M, la.mat_mul(a, b))


def boxed_levi_transvection(M, level_index, v_coeffs, lam):
    """`levi_transvection` through the ring model: the transvection as a
    matrix over R = F[t]/(t^lv) on the level's submodule, mapped by
    `HomogeneousRingIso.from_ring` and embedded block-diagonally."""
    lv, m, start, _ = _level_layout(M.partition)[level_index]
    iso = HomogeneousRingIso(standard_module(M.field, (lv,) * m))
    R, n2 = iso.R, 2 * m
    J = iso.ring_gram()
    v = [R(c) for c in v_coeffs]
    ghat = la.identity(R, n2)
    Jv = la.vec_mat(v, la.transpose(J))
    lam = iso.field(lam)
    for a in range(n2):
        for b in range(n2):
            ghat[a][b] = ghat[a][b] + lam * Jv[a] * v[b]
    block = iso.from_ring(ghat)
    g = la.identity(M.field, M.dim)
    for a in range(len(block)):
        for b in range(len(block)):
            g[start + a][start + b] = block[a][b]
    return g


def boxed_random_element(M, seed, rad):
    """`random_element` on field elements, over the radical basis rad."""
    rng = random.Random(seed)
    field = M.field
    S = la.zeros(field, M.dim, M.dim)
    for B in rad:
        c = field.random(rng, 3)
        if c:
            S = la.mat_add(S, la.scal_mul(c, B))
    r = boxed_exp(field, S)
    if r is None:
        r = cayley(field, S)
    h = la.identity(field, M.dim)
    for i, (_, m, _, _) in enumerate(_level_layout(M.partition)):
        for _ in range(3):
            v = [field.random(rng, 2) for _ in range(2 * m)]
            if not any(bool(c) for c in v):
                v[rng.randrange(2 * m)] = field.one
            lam = field.random_nonzero(rng, 2)
            h = la.mat_mul(h, boxed_levi_transvection(M, i, v, lam))
    return la.mat_mul(r, h)


@pytest.mark.parametrize("field,ks", [
    (QQ, (2, 1)), (QQ, (3, 2, 1)), (QQ, (4, 2)),
    (GF(5), (2, 2, 1)), (GF(5), (3, 1)), (GF(5), (4, 2, 1)),
    (GF(7), (4, 1)),
    (F3, (3, 2, 1)),        # ν reaches 5 > 3: the Cayley fallback
])
def test_random_element_matches_boxed_reference(field, ks):
    M = standard_module(field, ks)
    rad = boxed_radical_lie_basis(M)
    for seed in range(12):
        assert _typed(random_element(M, seed)) == \
            _typed(boxed_random_element(M, seed, rad))


def test_levi_transvection_matches_ring_model():
    rng = random.Random(6)
    for field, ks in [(QQ, (2, 2, 1)), (GF(5), (3, 1, 1)), (F3, (2, 1))]:
        M = standard_module(field, ks)
        for i, (_, m, _, _) in enumerate(_level_layout(ks)):
            v = [field.random(rng, 2) for _ in range(2 * m)]
            lam = field.random_nonzero(rng, 2)
            assert _typed(levi_transvection(M, i, v, lam)) == \
                _typed(boxed_levi_transvection(M, i, v, lam))


# --------------------------------------------------------------------------
# group orders: closure versus the kernel-lifting count
# --------------------------------------------------------------------------

def test_closure_order_648():
    gens = sp_ring_generators(F3, 1, 2)
    grp = group_closure(gens, la.mat_mul, tmat_key, 10 ** 4)
    assert len(grp) == 648
    assert sp_group_order(3, 1, 2) == 648 == 24 * 27


def test_pi0_surjectivity_via_closure():
    gens = sp_ring_generators(F3, 1, 2)
    grp = group_closure(gens, la.mat_mul, tmat_key, 10 ** 4)
    reduced = {tuple(tuple(x.coeffs[0].v for x in row) for row in g) for g in grp}
    assert len(reduced) == sp_group_order(3, 1, 1) == 24


# --------------------------------------------------------------------------
# the packed closure against the generic BFS
# --------------------------------------------------------------------------

def _boxed_mul(a, b):
    # not `la.mat_mul` itself, so the closure takes its generic BFS
    return la.mat_mul(a, b)


def _closure_gens(q, K, which):
    """Generators of Sp_2(F_q[t]/(t^K)) ("all"), of the subgroup of the
    upper transvections by t^s and the lower ones by t^s, s >= 1
    ("iwahori"), or of the upper one by 1 and the lower one by t^(K-1)
    ("top")."""
    gens = sp_ring_generators(GF(q), 1, K)
    upper, lower = gens[0:-1:2], gens[1:-1:2]
    return {"all": gens, "iwahori": upper + lower[1:],
            "top": upper[:1] + lower[-1:]}[which]


def _typed_ring(mats):
    """Ring matrices with every entry as (type, field, its coefficients as
    (type, p, residue))."""
    return [[[(type(x), x.field, [(type(c), c.p, c.v) for c in x.coeffs])
              for x in row] for row in g] for g in mats]


# the closures have 24, 648, 81, 120, 625 and 625 elements
_CLOSURE_CASES = [(3, 1, "all"), (3, 2, "all"), (3, 3, "top"),
                  (5, 1, "all"), (5, 2, "iwahori"), (5, 3, "top")]


@pytest.mark.parametrize("q,K,which", _CLOSURE_CASES)
def test_packed_closure_matches_generic_bfs(q, K, which):
    # element for element, in order and type for type, under several
    # orders of the generators
    for seed in range(3):
        gens = _closure_gens(q, K, which)
        random.Random(seed).shuffle(gens)
        want = group_closure(gens, _boxed_mul, tmat_key, 10 ** 4)
        got = group_closure(gens, tmat_mul, tmat_key, 10 ** 4)
        assert _typed_ring(got) == _typed_ring(want)
    # the guard: the same error one element short, the group at its order
    for mul in (tmat_mul, _boxed_mul):
        with pytest.raises(EnumerationGuardError) as exc:
            group_closure(gens, mul, tmat_key, len(want) - 1)
        assert str(exc.value) == "closure exceeded %d elements" % (len(want) - 1)
        assert group_closure(gens, mul, tmat_key, len(want)) == want


def test_closure_guard_counts_the_generators():
    # a group's elements as generators: the guard is over before a product
    for K, order in ((2, 648), (1, 24)):
        gens = sp_ring_generators(F3, 1, K)
        grp = group_closure(gens, tmat_mul, tmat_key, 10 ** 4)
        assert len(grp) == order
        for mul in (tmat_mul, _boxed_mul):
            with pytest.raises(EnumerationGuardError,
                               match="closure exceeded 10 elements"):
                group_closure(grp, mul, tmat_key, 10)
    # and no element is counted twice
    for mul in (tmat_mul, _boxed_mul):
        assert group_closure(grp + grp, mul, tmat_key, 24) == grp


def test_closure_path_by_ring(monkeypatch):
    calls = []
    packed = spgroup._packed_closure
    monkeypatch.setattr(spgroup, "_packed_closure",
                        lambda *a: calls.append(a[0]) or packed(*a))
    gens = sp_ring_generators(F3, 1, 1)
    assert len(group_closure(gens, tmat_mul, tmat_key, 100)) == 24
    assert calls == [(3, 1)]
    # over Q[t]/(t^2) the closure takes the generic BFS: J has order 4
    R = TruncRing(QQ, 2)
    J = [[R.zero, R.one], [-R.one, R.zero]]
    grp = group_closure([J], tmat_mul, tmat_key, 100)
    assert calls == [(3, 1)]
    assert grp == group_closure([J], _boxed_mul, tmat_key, 100)
    assert len(grp) == 4
