"""Orbit invariants, Witt lifting, isometry extension, transport, and the
brute-force cross-checks over small finite fields."""
import random

import pytest

from sntmod import linalg as la
from sntmod.fields import QQ, GF
from sntmod.orbits import (HypothesisFailedError, IsometryMismatchError,
                           TensorSpace, brute_force_orbits,
                           diagonal_space, extend_isometry, f_matrix,
                           hyperbolic_plane, image_of, invariant_partition,
                           is_submersive, normal_form, orbit_invariant,
                           orthogonal_group_ring, random_orthogonal_ring,
                           same_orbit, t_sym, tangent_matrix, transport,
                           witt_extend_field, witt_lift)
from sntmod.orbits import _is_primitive_tuple
from sntmod.sntmodule import quasi_basis
from sntmod.tpoly import TruncPoly, tp

F3 = GF(3)
F5 = GF(5)


def tvec(field, K, *cols):
    """TruncPoly vector from coefficient lists."""
    return [TruncPoly(field, [field(c) for c in col], K) for col in cols]


def random_primitive_tuple(sp, m, rng):
    while True:
        vecs = [[TruncPoly(sp.field, [sp.field.random(rng, 3) for _ in range(sp.K)])
                 for _ in range(sp.V.dim)] for _ in range(m)]
        if _is_primitive_tuple(sp.V, vecs):
            return vecs


# --------------------------------------------------------------------------
# f_x and its image
# --------------------------------------------------------------------------

def test_f_zero():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    assert la.is_zero_mat(f_matrix(sp.zero()))
    W = image_of(sp.zero())
    assert W.partition == () and W.span == ()


def test_image_of_single_tensor():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (2,), V)
    x = sp.from_pairs([(0, tvec(QQ, 2, [1], [0]))])   # e ⊗ u1, (u1,u1)=1
    assert image_of(x).partition == (2,)
    xt = sp.element([[QQ.zero] * 2, [QQ.one, QQ.zero]])  # te ⊗ u1
    assert image_of(xt).partition == (1,)


def test_image_plus_t_part_gives_full_type():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (2,), V)
    # x = e ⊗ u1 + te ⊗ u2
    x = sp.element([[QQ.one, QQ.zero], [QQ.zero, QQ.one]])
    assert image_of(x).partition == (2,)


def test_image_invariant_under_group():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(2)
    for _ in range(50):
        x = sp.random(rng)
        g = random_orthogonal_ring(sp, rng)
        assert image_of(x.act(g)).span == image_of(x).span


# --------------------------------------------------------------------------
# normal form
# --------------------------------------------------------------------------

def test_normal_form_zero():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    W, ws = normal_form(sp.zero())
    assert ws == [] and W.partition == ()


def test_normal_form_reconstructs_and_is_primitive():
    # reconstruction is asserted inside normal_form; primitivity here
    rng = random.Random(8)
    for field in (QQ, F5):
        sp = TensorSpace(field, (2, 1), diagonal_space(field, [1, 1, 1, 1]))
        for _ in range(15):
            x = sp.random(rng)
            if x.is_zero():
                continue
            W, ws = normal_form(x)
            vbar = [[w[l].coeffs[0] for l in range(sp.V.dim)] for w in ws]
            assert la.rank(field, vbar) == len(ws)


def test_normal_form_single_term_bookkeeping():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (2,), V)
    x = sp.from_pairs([(0, tvec(QQ, 2, [1], [0]))])
    W, ws = normal_form(x)
    assert len(ws) == 1
    assert sp.ring_pair(ws[0], ws[0]) == sp.ring_pair(tvec(QQ, 2, [1], [0]),
                                                      tvec(QQ, 2, [1], [0]))


# --------------------------------------------------------------------------
# the symmetric tensor invariant
# --------------------------------------------------------------------------

def test_t_sym_single_vector_norm2():
    V = diagonal_space(QQ, [2, 1])
    sp = TensorSpace(QQ, (2,), V)
    x = sp.from_pairs([(0, tvec(QQ, 2, [1], [0]))])   # (v,v) = 2
    inv = t_sym(x)
    # T(x) = 2 e⊗e = 1 * e_{11}
    assert inv.coords == ((QQ(1), QQ(0)),)


def test_t_sym_hyperbolic_cross_term():
    V = hyperbolic_plane(QQ)
    sp = TensorSpace(QQ, (1, 1), V)
    x = sp.element([[QQ.one, QQ.zero], [QQ.zero, QQ.one]])  # e1⊗u1 + e2⊗u2
    inv = t_sym(x)
    assert inv.partition == (1, 1)
    # coefficient 1 on e_{12}, zero on the squares
    assert inv.coords == ((QQ(0),), (QQ(1),), (QQ(0),))


def test_t_sym_te_in_full_W_reduces_to_zero():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (2,), V)
    xt = sp.element([[QQ.zero] * 2, [QQ.one, QQ.zero]])  # te ⊗ v, (v,v)=1
    Wfull = quasi_basis(QQ, sp.t_minus, sp.K, la.identity(QQ, 2))
    inv = t_sym(xt, Wfull)
    # T(x) = t^2 (v,v)/2 e_{11} = 0 mod t^2
    assert inv.coords == ((QQ(0), QQ(0)),)


def _direct_t_sym_full(sp, x, W):
    """Definition-level oracle: T(x) = sum over F-basis pairs of
    (v_r, v_s) u_r ⊗ u_s, re-expanded over W's quasi-basis without ever
    touching normal_form or dual vectors."""
    from sntmod.sntmodule import module_coords
    field = sp.field
    ks = list(W.partition)
    m = len(ks)
    # u_r = sum_i a[r][i](t) h_i over the quasi-basis rows h_i
    a = []
    for r in range(sp.d):
        u = [field.zero] * sp.d
        u[r] = field.one
        a.append(module_coords(field, sp.t_minus, sp.K, W.quasi, ks, u))
    # symmetric coefficient matrix M_{ij} = sum_{r,s} (v_r, v_s) a_ri a_sj
    Mco = la.zeros(sp.R, m, m)
    for r in range(sp.d):
        for s in range(sp.d):
            pr = la.bilinear(x.coords[r], sp.V.gram, x.coords[s])
            if not pr:
                continue
            for i in range(m):
                for j in range(m):
                    if a[r][i] and a[s][j]:
                        Mco[i][j] = Mco[i][j] + pr * a[r][i] * a[s][j]
    half = field(1) / field(2)
    out = []
    for i in range(m):
        for j in range(i, m):
            c = Mco[i][j] if i < j else half * Mco[i][i]
            out.append(tuple(c.coeffs[:ks[j]]))
    return tuple(out)


@pytest.mark.parametrize("field,ks,vdiag", [(QQ, (2, 1), [1, 2, 1]),
                                            (F5, (2, 2), [1, 1, 2])])
def test_t_sym_matches_definition_oracle(field, ks, vdiag):
    sp = TensorSpace(field, ks, diagonal_space(field, vdiag))
    Wfull = quasi_basis(field, sp.t_minus, sp.K, la.identity(field, sp.d))
    rng = random.Random(21)
    for _ in range(25):
        x = sp.random(rng)
        inv = t_sym(x, Wfull)
        assert inv.coords == _direct_t_sym_full(sp, x, Wfull)


# --------------------------------------------------------------------------
# same_orbit
# --------------------------------------------------------------------------

def test_same_orbit_under_action():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(3)
    for _ in range(20):
        x = sp.random(rng)
        g = random_orthogonal_ring(sp, rng)
        assert same_orbit(x, x.act(g))


def test_anisotropic_vs_zero():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (1,), V)
    x = sp.from_pairs([(0, tvec(QQ, 1, [1], [0]))])
    assert not same_orbit(x, sp.zero())


def test_ternary_f3_partition_matches_brute_force():
    V = diagonal_space(F3, [1, 1, 1])
    sp = TensorSpace(F3, (1,), V)
    group = orthogonal_group_ring(V, 1)
    assert len(group) == 48
    bf = set(brute_force_orbits(sp))
    inv = set(invariant_partition(sp).values())
    assert inv == bf


# --------------------------------------------------------------------------
# witt_lift
# --------------------------------------------------------------------------

def test_witt_lift_already_equal():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    a = tvec(QQ, 2, [1], [1])
    out = witt_lift(sp, [a], [list(a)], [1])
    assert out[0] == a


def test_witt_lift_hyperbolic_spec_case():
    # K = 2, k1 = 1: a = u1+u2 with (a,a) = 2; b = u1 + (1+t)u2
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    a = tvec(QQ, 2, [1], [1])
    b = tvec(QQ, 2, [1], [1, 1])
    out = witt_lift(sp, [a], [b], [1])
    assert sp.ring_pair(out[0], out[0]) == sp.ring_pair(a, a)
    # congruence mod t^{k_1}
    assert all((out[0][l] - b[l]).valuation() >= 1 for l in range(2))


def test_witt_lift_hypothesis_violation():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    a = tvec(QQ, 2, [1], [1])       # (a,a) = 2
    b = tvec(QQ, 2, [1], [2])       # (b,b) = 4 != 2 mod t
    with pytest.raises(HypothesisFailedError):
        witt_lift(sp, [a], [b], [1])


@pytest.mark.parametrize("field,seed", [(QQ, 5), (F5, 6)])
def test_witt_lift_random_instances(field, seed):
    rng = random.Random(seed)
    V = diagonal_space(field, [1, 1, 2, 1])
    for trial in range(25):
        K = rng.choice([2, 3, 4])
        m = rng.choice([1, 2, 3])
        ks = sorted((rng.randint(1, K) for _ in range(m)), reverse=True)
        sp = TensorSpace(field, (K,) * 1, V) if K else None
        sp = TensorSpace(field, (K,), V)
        avecs = random_primitive_tuple(sp, m, rng)
        # perturb: b_i = a_i + t^{k_i} * (random) keeps the hypothesis
        bvecs = []
        for a, k in zip(avecs, ks):
            pert = [TruncPoly(field, [field.zero] * k +
                              [field.random(rng, 2) for _ in range(K - k)])
                    for _ in range(V.dim)]
            bvecs.append([a[l] + pert[l] for l in range(V.dim)])
        if not _is_primitive_tuple(V, bvecs):
            continue
        out = witt_lift(sp, avecs, bvecs, ks)
        # postconditions are asserted inside; verify independently anyway
        for i in range(m):
            for j in range(m):
                assert sp.ring_pair(out[i], out[j]) == sp.ring_pair(avecs[i], avecs[j])
            assert all((out[i][l] - bvecs[i][l]).valuation() >= ks[i]
                       for l in range(V.dim) if out[i][l] - bvecs[i][l])


# --------------------------------------------------------------------------
# isometry extension
# --------------------------------------------------------------------------

def test_extend_identity_case():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    a = tvec(QQ, 2, [1], [1])
    g = extend_isometry(sp, [a], [list(a)])
    assert la.vec_mat(a, g) == a


def test_extend_reflection_case():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (1,), V)
    a = tvec(QQ, 1, [1], [0])
    b = tvec(QQ, 1, [-1], [0])
    g = extend_isometry(sp, [a], [b])
    g0 = [[c.coeffs[0] for c in row] for row in g]
    assert la.mat_eq(la.mat_mul(la.mat_mul(g0, V.gram), la.transpose(g0)), V.gram)
    assert la.vec_mat(a, g) == b


def test_extend_mismatch_rejected():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (1,), V)
    a = tvec(QQ, 1, [1], [0])
    b = tvec(QQ, 1, [2], [0])
    with pytest.raises(IsometryMismatchError):
        extend_isometry(sp, [a], [b])


def test_extend_composite_f3():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(17)
    for _ in range(15):
        g0 = random_orthogonal_ring(sp, rng)
        m = rng.choice([1, 2])
        avecs = random_primitive_tuple(sp, m, rng)
        bvecs = [la.vec_mat(a, g0) for a in avecs]
        g = extend_isometry(sp, avecs, bvecs)
        for a, b in zip(avecs, bvecs):
            assert la.vec_mat(a, g) == b


def test_witt_extend_field_isotropic_radical():
    # totally isotropic pair in a 4-dim split space: forces the hyperbolic
    # completion branch
    V = diagonal_space(F5, [1, 4, 1, 4])   # x^2 - y^2 twice, isotropic
    field = F5
    a1 = [field(1), field(1), field(0), field(0)]
    a2 = [field(0), field(0), field(1), field(1)]
    b1 = [field(0), field(0), field(1), field(1)]
    b2 = [field(1), field(1), field(0), field(0)]
    g = witt_extend_field(field, V.gram, [a1, a2], [b1, b2])
    assert la.mat_eq(la.mat_mul([a1, a2], g), [b1, b2])
    assert la.mat_eq(la.mat_mul(la.mat_mul(g, V.gram), la.transpose(g)), V.gram)


# --------------------------------------------------------------------------
# transport
# --------------------------------------------------------------------------

def test_transport_identity_and_translates():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(23)
    for _ in range(15):
        x = sp.random(rng)
        g0 = random_orthogonal_ring(sp, rng)
        y = x.act(g0)
        g = transport(x, y)
        assert g is not None
        assert x.act(g).key() == y.key()
    x = sp.random(rng)
    assert transport(x, x) is not None


def test_transport_none_for_distinct_orbits():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (1,), V)
    x = sp.from_pairs([(0, tvec(QQ, 1, [1], [0]))])
    assert transport(x, sp.zero()) is None


def test_transport_roundtrip_on_brute_force_pairs():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    orbits = brute_force_orbits(sp)
    rng = random.Random(29)
    for orb in orbits:
        pts = sorted(orb, key=lambda rows: [[c.v for c in row] for row in rows])
        x = sp.element([[F3(v.v) for v in row] for row in pts[0]])
        y_key = rng.choice(pts)
        y = sp.element([[F3(v.v) for v in row] for row in y_key])
        g = transport(x, y)
        assert g is not None and x.act(g).key() == y.key()


# --------------------------------------------------------------------------
# tangent map and submersiveness
# --------------------------------------------------------------------------

def test_tangent_zero_element():
    sp = TensorSpace(QQ, (2,), hyperbolic_plane(QQ))
    rows, ncols = tangent_matrix(sp.zero(), quasi_basis(
        QQ, sp.t_minus, sp.K, la.identity(QQ, sp.d)))
    assert all(not c for row in rows for c in row)


def _t_of(sp, x, Wfull):
    return t_sym(x, Wfull).coords


def test_tangent_matches_polarization_oracle():
    """dT_x(u) = T(x+u) - T(x) - T(u): an exact polynomial identity."""
    field = QQ
    sp = TensorSpace(field, (2, 1), diagonal_space(field, [1, 2, 1]))
    Wfull = quasi_basis(field, sp.t_minus, sp.K, la.identity(field, sp.d))
    rows, ncols = None, None
    rng = random.Random(31)
    for _ in range(10):
        x = sp.random(rng)
        rows, ncols = tangent_matrix(x, Wfull)
        # try several directions u = t^s e_i ⊗ b_l (the matrix rows) plus sums
        ridx = 0
        for i, k in enumerate(sp.ks):
            for s in range(k):
                for l in range(sp.V.dim):
                    u = sp.from_pairs([]) .coords
                    u[sp.offsets[i] + s][l] = field.one
                    uelt = sp.element(u)
                    lhs = rows[ridx]
                    tx = _t_of(sp, x, Wfull)
                    txu = _t_of(sp, sp.element(la.mat_add(x.coords, u)), Wfull)
                    tu = _t_of(sp, uelt, Wfull)
                    flat = []
                    for a, b, c in zip(txu, tx, tu):
                        flat.extend(p - q - r for p, q, r in zip(a, b, c))
                    assert flat == lhs
                    ridx += 1


def test_submersive_iff_full_image():
    field = F5
    sp = TensorSpace(field, (2,), diagonal_space(field, [1, 1]))
    Wfull = quasi_basis(field, sp.t_minus, sp.K, la.identity(field, sp.d))
    # full image: submersive
    x = sp.element([[field(1), field(0)], [field(0), field(1)]])
    assert image_of(x).span == Wfull.span
    assert is_submersive(x, Wfull)
    # te ⊗ v has a proper image: not submersive in the full W
    xt = sp.element([[field.zero] * 2, [field(1), field(0)]])
    assert not is_submersive(xt, Wfull)


@pytest.mark.parametrize("field,seed", [(F5, 37), (QQ, 38)])
def test_submersive_criteria_agree_random(field, seed):
    sp = TensorSpace(field, (2, 1), diagonal_space(field, [1, 1, 2]))
    Wfull = quasi_basis(field, sp.t_minus, sp.K, la.identity(field, sp.d))
    rng = random.Random(seed)
    for _ in range(50):
        x = sp.random(rng)
        is_submersive(x)             # agreement asserted internally
        is_submersive(x, Wfull)


# --------------------------------------------------------------------------
# brute force equals invariants (the theorem, exhaustively, three setups)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("q,ks,gram", [
    (3, (1,), "diag111"),
    (3, (2,), "hyp"),
    (5, (1,), "diag11"),
])
def test_brute_force_equals_invariant_partition(q, ks, gram):
    field = GF(q)
    V = {"diag111": diagonal_space(field, [1, 1, 1]),
         "hyp": hyperbolic_plane(field),
         "diag11": diagonal_space(field, [1, 1])}[gram]
    sp = TensorSpace(field, ks, V)
    bf = brute_force_orbits(sp)
    inv = invariant_partition(sp)
    assert set(inv.values()) == set(bf)
    # bijection count: distinct (W, i) pairs = number of orbits
    assert len(inv) == len(bf)
    # the orbit of zero is {zero}
    zero_key = sp.zero().key()
    assert frozenset([zero_key]) in set(bf)


def test_invariants_constant_on_brute_orbits():
    field = F3
    sp = TensorSpace(field, (2,), hyperbolic_plane(field))
    for orb in brute_force_orbits(sp):
        invs = set()
        for key in orb:
            x = sp.element([[field(v.v) for v in row] for row in key])
            invs.add(orbit_invariant(x))
        assert len(invs) == 1


# --------------------------------------------------------------------------
# flags with a non-t-stable minus part (induced action through M/M_+)
# --------------------------------------------------------------------------

def test_tensor_space_from_skew_flag():
    from sntmod.sntmodule import LagrangianFlag, make_H
    H2 = make_H(F3, 2)
    minus = [[F3(1), F3(0), F3(0), F3(0)], [F3(0), F3(1), F3(1), F3(0)]]
    plus = [[F3(0), F3(0), F3(1), F3(0)], [F3(0), F3(0), F3(0), F3(1)]]
    flag = LagrangianFlag(H2, minus, plus)
    assert not flag.minus_t_stable
    sp, chains = TensorSpace.from_flag(flag, hyperbolic_plane(F3))
    assert sp.ks == (2,)
    rng = random.Random(41)
    X = [[F3.random(rng) for _ in range(2)] for _ in range(2)]
    x = sp.element(sp.coords_from_flag(chains, X))
    orbit_invariant(x)
    for _ in range(10):
        g = random_orthogonal_ring(sp, rng)
        assert same_orbit(x, x.act(g))


def test_from_flag_matches_standard_on_stable_flags():
    from sntmod.sntmodule import LagrangianFlag, standard_module
    M = standard_module(F3, (2, 1))
    flag = LagrangianFlag.standard(M)
    sp, chains = TensorSpace.from_flag(flag, diagonal_space(F3, [1, 1]))
    assert sp.ks == (2, 1)


def test_f_matrix_is_t_linear():
    # rows for t^{s+1} b_l are the rows for t^s b_l pushed through t
    sp = TensorSpace(F5, (2, 1), diagonal_space(F5, [1, 2, 1]))
    rng = random.Random(43)
    for _ in range(5):
        x = sp.random(rng)
        fm = f_matrix(x)
        for l in range(sp.V.dim):
            for s in range(sp.K - 1):
                pushed = la.vec_mat(fm[l * sp.K + s], sp.t_minus)
                assert pushed == fm[l * sp.K + s + 1]


def test_t_sym_of_zero_in_nontrivial_W():
    sp = TensorSpace(QQ, (2, 1), diagonal_space(QQ, [1, 1]))
    Wfull = quasi_basis(QQ, sp.t_minus, sp.K, la.identity(QQ, sp.d))
    inv = t_sym(sp.zero(), Wfull)
    assert all(not c for comp in inv.coords for c in comp)
    assert is_submersive(sp.zero(), Wfull) is False
