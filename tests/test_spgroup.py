"""Sp(M,t): membership, ring model, block structure, Lie algebra, sampling."""
import random

import pytest

from sntmod import linalg as la
from sntmod.fields import QQ, GF
from sntmod.sntmodule import direct_sum, make_H, standard_module
from sntmod.spgroup import (HomogeneousRingIso, NotAMemberError,
                            SntAutomorphism, block_profile, cayley,
                            exp_nilpotent, group_closure, is_member,
                            lie_algebra_basis, radical_lie_basis,
                            random_element, sp_group_order,
                            sp_ring_generators, unipotent_radical_test)
from sntmod.tpoly import TruncRing, tmat_key, tp

F3 = GF(3)


def unit(field, n, i):
    e = [field.zero] * n
    e[i] = field.one
    return e


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
    ghat = [[a, z], [z, a.inv()]]
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


def test_levi_element_fails_radical_test():
    M = standard_module(QQ, (2, 1))
    # a nontrivial residue transvection on the level-2 block
    from sntmod.spgroup import levi_transvection
    g = levi_transvection(M, 0, [QQ(1), QQ(1)], QQ(1))
    assert is_member(M, g)
    assert not unipotent_radical_test(M, g)


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
    basis = spgroup.radical_lie_basis
    monkeypatch.setattr(spgroup, "radical_lie_basis",
                        lambda M: calls.append(M) or basis(M))
    M = standard_module(QQ, (2, 1))
    names = set(vars(M))
    for seed in range(4):
        random_element(M, seed)
    assert set(vars(M)) == names
    assert len(calls) == 1


def test_samples_are_members_and_closed():
    M = standard_module(QQ, (2, 1))
    gs = [random_element(M, seed) for seed in range(12)]
    for g in gs:
        assert is_member(M, g)
    for a, b in zip(gs, gs[1:]):
        assert is_member(M, la.mat_mul(a, b))


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
