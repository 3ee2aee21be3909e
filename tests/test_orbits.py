"""Orbit invariants, Witt lifting, isometry extension, transport, and the
brute-force cross-checks over small finite fields."""
import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from sntmod import linalg as la
from sntmod import orbits, witt
from sntmod.fields import QQ, GF
from sntmod.orbits import (HypothesisFailedError, IsometryMismatchError,
                           TensorSpace, brute_force_orbits,
                           diagonal_space, extend_isometry, f_matrix,
                           hyperbolic_plane, image_of, invariant_partition,
                           is_submersive, orbit_invariant,
                           orthogonal_group_ring, random_orthogonal_ring,
                           same_orbit, t_sym, tangent_matrix, transport,
                           witt_extend_field, witt_lift)
from sntmod.sntmodule import EnumerationGuardError, padded_chain, quasi_basis
from sntmod.tpoly import TruncPoly, TruncRing

F3 = GF(3)
F5 = GF(5)


def tvec(field, K, *cols):
    """TruncPoly vector from coefficient lists."""
    return [TruncPoly(field, [field(c) for c in col], K) for col in cols]


def from_pairs(sp, pairs):
    """Element sum_i f_{c_i} ⊗ w_i from (chain index, TruncPoly vector) pairs."""
    coords = la.zeros(sp.field, sp.d, sp.V.dim)
    for ci, w in pairs:
        o, k = sp.offsets[ci], sp.ks[ci]
        for l, poly in enumerate(w):
            for s in range(min(k, poly.prec)):
                coords[o + s][l] = coords[o + s][l] + poly.coeffs[s]
    return sp.element(coords)


def _is_primitive_tuple(V, vecs):
    if not vecs:
        return True
    field = V.field
    vbar = [[v[l].coeffs[0] for l in range(V.dim)] for v in vecs]
    return la.rank(field, vbar) == len(vecs)


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
    x = from_pairs(sp, [(0, tvec(QQ, 2, [1], [0]))])   # e ⊗ u1, (u1,u1)=1
    assert image_of(x).partition == (2,)
    xt = sp.element([[QQ.zero] * 2, [QQ.one, QQ.zero]])  # te ⊗ u1
    assert image_of(xt).partition == (1,)


def test_image_plus_t_part_gives_full_type():
    V = diagonal_space(QQ, [1, 1])
    sp = TensorSpace(QQ, (2,), V)
    # x = e ⊗ u1 + te ⊗ u2
    x = sp.element([[QQ.one, QQ.zero], [QQ.zero, QQ.one]])
    assert image_of(x).partition == (2,)


def test_random_orthogonal_ring_outputs_are_pinned():
    # a seeded SHA-256 of the samples, recorded before isometry_lie_basis
    # moved onto int equations: its Lie basis, and so every sample, is the
    # same value for value and type for type
    h = hashlib.sha256()
    for field in (QQ, GF(3), GF(5), GF(7)):
        for ks, entries in (((2, 1), [1, 1, 2]), ((3, 1), [1, 2]),
                            ((3, 2), [2, 1, 1])):
            sp = TensorSpace(field, ks, diagonal_space(field, entries))
            rng = random.Random(17)
            for _ in range(3):
                g = random_orthogonal_ring(sp, rng)
                h.update(repr([[(type(x).__name__,
                                 [(type(c).__name__, str(c)) for c in x.coeffs])
                                for x in row] for row in g]).encode())
    assert h.hexdigest() == \
        "96059941500f52b3d704d5bdbc46aabd13ae9669623b08379a39316b30dfb72f"


def test_image_invariant_under_group():
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(2)
    for _ in range(50):
        x = sp.random(rng)
        g = random_orthogonal_ring(sp, rng)
        assert image_of(x.act(g)).span == image_of(x).span


def test_image_memo_matches_fresh_quasi_basis():
    sp = TensorSpace(F3, (2, 1), diagonal_space(F3, [1, 2]))
    for x in sp.all_elements():
        W = image_of(x)
        span = la.rref_span(F3, f_matrix(x))
        fresh = quasi_basis(F3, sp.t_minus, sp.K, [list(r) for r in span])
        assert W.span == fresh.span == span
        assert W.quasi == fresh.quasi and W.chains == fresh.chains
        assert W.partition == fresh.partition
        assert image_of(x) is W
    # 729 elements, 10 images, one quasi-basis each
    assert len(sp._images) == 10
    # the memo belongs to its space
    assert TensorSpace(F3, (2, 1), diagonal_space(F3, [1, 2]))._images == {}


def test_census_fills_the_image_memo(monkeypatch):
    """The census keeps its records in the space's memo: afterwards
    `image_of` finds every element's image there, with no further
    quasi-basis, and the memo holds one record per distinct W."""
    sp = TensorSpace(F3, (2, 1), diagonal_space(F3, [1, 2]))
    classes = invariant_partition(sp)
    calls = []
    real = orbits.quasi_basis
    monkeypatch.setattr(orbits, "quasi_basis", lambda *a: calls.append(1) or real(*a))
    spans = {image_of(x).span for x in sp.all_elements()}
    assert calls == []
    assert len(sp._images) == len(spans) == len({inv.w_span for inv in classes}) == 10


# --------------------------------------------------------------------------
# the boxed chain data: the oracle for the image records
# --------------------------------------------------------------------------
# f_x, Im f_x, the chain residues over W, T(x)'s tangent map and the action
# x·g as they ran on boxed matrices.  `f_matrix`, `image_of`, `t_sym`,
# `tangent_matrix`, `TensorElement.act` and `invariant_partition` run on
# ints through one record per W, and must give the same values of the same
# types and the same errors.

def boxed_f_matrix(x):
    sp = x.space
    base = la.transpose(la.mat_mul(x.coords, sp.V.gram))
    return [row for l in range(sp.V.dim)
            for row in padded_chain(sp.field, sp.t_minus, base[l], sp.K)]


def boxed_image_of(x, memo=None):
    """Im f_x from the echelon form of the boxed f_x; a `memo` dict keeps
    one quasi-basis per span."""
    sp = x.space
    span = la.rref_span(sp.field, boxed_f_matrix(x))
    memo = {} if memo is None else memo
    if span not in memo:
        memo[span] = quasi_basis(sp.field, sp.t_minus, sp.K, [list(r) for r in span])
    return memo[span]


def module_coords(W, K, vs):
    """Coordinates of each v in vs over W's quasi-basis: v = sum_i a_i(t)·e_i,
    a_i in R_{k_i}, as TruncPolys of precision K reduced mod t^{k_i}, from
    one `la.solve` over the chain basis; None if some v is not in W."""
    if not vs:
        return []
    # the chains as columns, len(v) rows even when W = 0 has no chains
    sols = la.solve(W.field, [[c[r] for c in W.chains] for r in range(len(vs[0]))],
                    vs)
    if sols is None:
        return None
    offs = list(itertools.accumulate(W.partition, initial=0))
    return [[TruncPoly(W.field, x[a:b], K) for a, b in zip(offs, offs[1:])]
            for x in sols]


def boxed_coeffs_over(x, W):
    """[w_i mod t^{k_i}] for x = sum_i e_i ⊗ w_i over W's quasi-basis e_i."""
    cols = module_coords(W, x.space.K, la.transpose(x.coords))
    if cols is None:
        raise ValueError("W does not contain Im f_x")
    return [[c[i] for c in cols] for i in range(len(W.partition))]


def boxed_act(x, g_ring):
    """x·g by a TruncPoly product of x's chain vectors w_i with g."""
    sp = x.space
    ws = [[TruncPoly(sp.field, [x.coords[o + s][l] for s in range(k)], sp.K)
           for l in range(sp.V.dim)] for o, k in zip(sp.offsets, sp.ks)]
    imgs = la.mat_mul(ws, g_ring)
    return sp.element([[w.coeffs[s] for w in img]
                       for img, k in zip(imgs, sp.ks) for s in range(k)])


def boxed_tangent_matrix(x, W):
    sp = x.space
    ws = boxed_coeffs_over(x, W)
    ks = list(W.partition)
    m = len(ks)
    WQ = la.mat_mul(ws, sp.Qr)      # WQ[j][l] = (w_j, b_l)
    col_off = {}
    c = 0
    for i in range(m):
        for j in range(i, m):
            col_off[(i, j)] = c
            c += ks[j]
    rows = []
    for i in range(m):
        for s in range(ks[i]):
            for l in range(sp.V.dim):
                row = [sp.field.zero] * c
                for j in range(m):
                    a, bb = min(i, j), max(i, j)
                    for u, coef in enumerate(WQ[j][l].coeffs):
                        if coef and s + u < ks[bb]:
                            row[col_off[(a, bb)] + s + u] = \
                                row[col_off[(a, bb)] + s + u] + coef
                rows.append(row)
    return rows, c


def test_module_coords_over_the_empty_submodule():
    """The oracle and the record on W = 0, on v outside W and on W = M_-."""
    T = [[F3(0), F3(1)], [F3(0), F3(0)]]
    W = quasi_basis(F3, T, 2, [])
    assert W.chains == []
    assert module_coords(W, 2, []) == []
    assert module_coords(W, 2, [[F3(0), F3(0)]]) == [[]]
    assert module_coords(W, 2, [[F3(0), F3(0)], [F3(0), F3(2)]]) is None
    full = quasi_basis(F3, T, 2, la.identity(F3, 2))
    assert module_coords(full, 2, [[F3(1), F3(2)]]) == \
        [[TruncPoly(F3, [F3(1), F3(2)], 2)]]
    # the same on records, x's columns being the vectors
    sp = TensorSpace(F3, (2,), diagonal_space(F3, [1, 2]))
    assert sp.t_minus == T
    assert orbits._Image(sp, W).coords([[0, 0], [0, 0]]) == []
    with pytest.raises(ValueError, match="does not contain Im f_x"):
        orbits._Image(sp, W).coords([[0, 0], [0, 2]])
    assert orbits._Image(sp, full).coords([[1, 0], [2, 0]]) == [[1, 0], [2, 0]]


RECORD_CASES = [pytest.param(field, ks, id="%s-%s" % (name, "".join(map(str, ks))))
                for name, field in (("QQ", QQ), ("F3", F3), ("F5", F5))
                for ks in ((1,), (2, 1), (3, 1, 1), (3, 2))]


@pytest.mark.parametrize("field,ks", RECORD_CASES)
def test_image_records_match_boxed_oracle(field, ks):
    """f_x, Im f_x, the residues, T(x) and the tangent rows over Im f_x and
    over M_-, and x·g: value for value and type for type."""
    sp = _oracle_space(field, ks, "h2+1")
    Wfull = quasi_basis(field, sp.t_minus, sp.K, la.identity(field, sp.d))
    rng = random.Random(str((field.char, ks)))
    kind = (field.char, sp.K)
    for x in _residue_elements(sp, rng, n=3):
        assert _typed(f_matrix(x)) == _typed(boxed_f_matrix(x))
        W, W0 = image_of(x), boxed_image_of(x)
        assert _typed([W.span, W.quasi, W.chains, W.partition]) == \
            _typed([W0.span, W0.quasi, W0.chains, W0.partition])
        for w in (None, Wfull):
            inv, ws = orbits._t_sym(x, w)
            inv0, ws0 = boxed_t_sym(x, w)
            assert _typed(inv.coords) == _typed(inv0.coords) and inv == inv0
            assert _typed(la._from_layers(kind, field, *ws)) == _typed(ws0)
            assert _typed(tangent_matrix(x, w)) == _typed(boxed_tangent_matrix(x, w or W0))
        g = random_orthogonal_ring(sp, rng)
        assert _typed(x.act(g).coords) == _typed(boxed_act(x, g).coords)


def test_act_rejects_matrices_outside_the_ring():
    sp = TensorSpace(F5, (2,), hyperbolic_plane(F5))
    x = sp.element([[F5(1), F5(2)], [F5(3), F5(4)]])
    for K, field in ((1, F5), (3, F5), (2, F3)):
        g = la.identity(TruncRing(field, K), 2)
        with pytest.raises(ValueError, match="mismatched truncation orders"):
            x.act(g)


# --------------------------------------------------------------------------
# chain residues: the primitive tuple that transport lifts
# --------------------------------------------------------------------------

RESIDUE_CASES = [pytest.param(field, ks, id="%s-%s" % (name, "".join(map(str, ks))))
                 for name, field in (("QQ", QQ), ("F3", F3), ("F5", F5))
                 for ks in ((2, 1), (3, 1, 1), (3, 2))]


def _residue_elements(sp, rng, n=4):
    """Zero, then random x, each also cut to one column (rank 1) and to no
    chain starts (in t·M_-): elements with smaller images."""
    field = sp.field
    yield sp.zero()
    for _ in range(n):
        x = sp.random(rng)
        yield x
        yield sp.element([[c if l == 0 else field.zero for l, c in enumerate(row)]
                          for row in x.coords])
        yield sp.element([[field.zero] * sp.V.dim if r in sp.offsets else row
                          for r, row in enumerate(x.coords)])


@pytest.mark.parametrize("field,ks", RESIDUE_CASES)
def test_chain_residues_over_the_image_are_primitive(field, ks):
    sp = TensorSpace(field, ks, diagonal_space(field, [1, 2, 1]))
    rng = random.Random(8)
    for x in _residue_elements(sp, rng):
        W = image_of(x)
        cs = la._from_layers((field.char, sp.K), field, *orbits._t_sym(x, W)[1])
        assert len(cs) == len(W.partition)
        cbar = [[c[l].coeffs[0] for l in range(sp.V.dim)] for c in cs]
        assert la.rank(field, cbar) == len(cs)


@pytest.mark.parametrize("field,ks", RESIDUE_CASES)
def test_transport_to_translates_of_small_images(field, ks):
    sp = TensorSpace(field, ks, diagonal_space(field, [1, 2, 1]))
    rng = random.Random(9)
    for x in _residue_elements(sp, rng, n=2):
        y = x.act(random_orthogonal_ring(sp, rng))
        g = transport(x, y)
        assert g is not None and x.act(g).key() == y.key()
        assert orbits._is_ring_orthogonal(g, sp.Qr)


# --------------------------------------------------------------------------
# the symmetric tensor invariant
# --------------------------------------------------------------------------

def test_t_sym_single_vector_norm2():
    V = diagonal_space(QQ, [2, 1])
    sp = TensorSpace(QQ, (2,), V)
    x = from_pairs(sp, [(0, tvec(QQ, 2, [1], [0]))])   # (v,v) = 2
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
    touching dual vectors or the chain residues of x.

    The u_r are W's echelon F-basis (the unit vectors when W is all of
    M_-), so x = sum_r u_r ⊗ v_r with v_r the row of x at u_r's pivot.
    """
    field = sp.field
    ks = list(W.partition)
    m = len(ks)
    us = [list(u) for u in W.span]
    vs = [x.coords[next(c for c, e in enumerate(u) if e)] for u in us]
    if us:
        assert la.mat_mul(la.transpose(us), vs) == x.coords   # x in W ⊗ V
    else:
        assert x.is_zero()
    # u_r = sum_i a[r][i](t) h_i over the quasi-basis rows h_i
    a = module_coords(W, sp.K, us)
    # symmetric coefficient matrix M_{ij} = sum_{r,s} (v_r, v_s) a_ri a_sj
    Mco = la.zeros(sp.R, m, m)
    for r in range(len(us)):
        for s in range(len(us)):
            pr = la.bilinear(vs[r], sp.V.gram, vs[s])
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
    for y in _residue_elements(sp, random.Random(21), n=25):
        assert t_sym(y, Wfull).coords == _direct_t_sym_full(sp, y, Wfull)
        W = image_of(y)
        inv = t_sym(y, W)
        assert inv == orbit_invariant(y)
        assert inv.coords == _direct_t_sym_full(sp, y, W)


def test_t_sym_and_tangent_reject_W_missing_the_image():
    sp = TensorSpace(F5, (2, 1), diagonal_space(F5, [1, 1]))
    x = sp.element([[F5(1), F5(0)], [F5(0), F5(0)], [F5(0), F5(1)]])
    assert image_of(x).partition == (2, 1)
    first = quasi_basis(F5, sp.t_minus, sp.K, la.identity(F5, 3)[:2])   # chain 1
    zero = quasi_basis(F5, sp.t_minus, sp.K, [])
    for W in (first, zero):
        for fn in (t_sym, tangent_matrix):
            with pytest.raises(ValueError, match="does not contain Im f_x"):
                fn(x, W)


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
    x = from_pairs(sp, [(0, tvec(QQ, 1, [1], [0]))])
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
        # the boxed oracle gives the same lift, and the same extension
        assert _typed(out) == _typed(boxed_witt_lift(sp, avecs, bvecs, ks))
        assert _typed(extend_isometry(sp, avecs, out)) == \
            _typed(boxed_extend_isometry(sp, avecs, out))
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
    x = from_pairs(sp, [(0, tvec(QQ, 1, [1], [0]))])
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
# boxed transport: the oracle for the int layers
# --------------------------------------------------------------------------
# `transport`, `witt_lift` and `extend_isometry` as they ran on TruncPoly
# matrices, one ring operation at a time: the int-layer path must give the
# same g, value for value and type for type, the same None and the same
# errors.

def boxed_t_sym(x, W, memo=None):
    sp = x.space
    W = boxed_image_of(x, memo) if W is None else W
    ws = boxed_coeffs_over(x, W)
    ks = list(W.partition)
    m = len(ks)
    half = sp.field(1) / sp.field(2)
    P = la.mat_mul(la.mat_mul(ws, sp.Qr), la.transpose(ws))
    coords = []
    for i in range(m):
        for j in range(i, m):
            c = P[i][j] if i < j else half * P[i][i]
            coords.append(tuple(c.coeffs[:ks[j]]))
    return orbits.OrbitInvariant(W.span, tuple(ks), tuple(coords)), ws


def boxed_dual_vectors(space, bvecs):
    P = la.mat_mul(bvecs, space.Qr)
    targets = la.identity(space.R, len(bvecs))
    duals = la.solve(space.R, P, targets)
    if duals is None or la.mat_mul(duals, la.transpose(P)) != targets:
        raise RuntimeError("dual system unsolvable; tuple not primitive?")
    return duals


def boxed_witt_lift(space, avecs, bvecs, ks):
    m = len(avecs)
    if len(bvecs) != m or len(ks) != m:
        raise ValueError("mismatched tuple lengths")
    if m == 0:
        return []
    if list(ks) != sorted(ks, reverse=True) or min(ks) < 1:
        raise ValueError("orders must satisfy k_1 >= ... >= k_m >= 1")
    sp = space
    K = sp.K
    if not _is_primitive_tuple(sp.V, avecs) or not _is_primitive_tuple(sp.V, bvecs):
        raise ValueError("tuples must be primitive bases")
    for i in range(m):
        for j in range(m):
            d = sp.ring_pair(avecs[i], avecs[j]) - sp.ring_pair(bvecs[i], bvecs[j])
            if d.valuation() < min(ks[i], ks[j]):
                raise HypothesisFailedError(
                    "products differ below t^min(k_i,k_j) at (%d,%d)" % (i, j))
    field = sp.field
    b = [list(v) for v in bvecs]
    for i in range(m):
        k = ks[i]
        duals = boxed_dual_vectors(sp, b[:i + 1])
        hs = []
        for j in range(i):
            delta = sp.ring_pair(avecs[j], avecs[i]) - sp.ring_pair(b[j], b[i])
            hs.append(delta.divide_t(k))
        hs.append(sp.R.zero)

        def updated():
            return la.vec_add(b[i], la.vec_mat([h.shift(k) for h in hs], duals))
        target = sp.ring_pair(avecs[i], avecs[i])
        for s in range(K - k):
            cur = updated()
            resid = sp.ring_pair(cur, cur) - target
            coef = resid.coeffs[k + s]
            if coef:
                fix = [field.zero] * K
                fix[s] = -coef / field(2)
                hs[i] = hs[i] + TruncPoly(field, fix)
        b[i] = updated()
        resid = sp.ring_pair(b[i], b[i]) - target
        if resid:
            raise RuntimeError("diagonal correction failed to converge")
    for i in range(m):
        for j in range(m):
            if sp.ring_pair(b[i], b[j]) != sp.ring_pair(avecs[i], avecs[j]):
                raise RuntimeError("witt_lift postcondition (products) failed")
        diff = [b[i][l] - bvecs[i][l] for l in range(sp.V.dim)]
        if any(d.valuation() < ks[i] for d in diff if d):
            raise RuntimeError("witt_lift postcondition (congruence) failed")
    if not _is_primitive_tuple(sp.V, b):
        raise RuntimeError("witt_lift postcondition (primitivity) failed")
    return b


def boxed_extend_isometry(space, avecs, bvecs):
    sp = space
    field, V, K = sp.field, sp.V, sp.K
    m = len(avecs)
    for i in range(m):
        for j in range(m):
            if sp.ring_pair(avecs[i], avecs[j]) != sp.ring_pair(bvecs[i], bvecs[j]):
                raise IsometryMismatchError("tuples have unequal products")
    if not _is_primitive_tuple(V, avecs) or not _is_primitive_tuple(V, bvecs):
        raise IsometryMismatchError("tuples must be primitive bases")
    Q = V.gram
    abar = [[v[l].coeffs[0] for l in range(V.dim)] for v in avecs]
    bbar = [[v[l].coeffs[0] for l in range(V.dim)] for v in bvecs]
    g0 = witt_extend_field(field, Q, abar, bbar) if m else la.identity(field, V.dim)
    g = la.change_ring(sp.R, g0)
    g0_Qt_inv = la.inverse(field, la.mat_mul(Q, la.transpose(g0)))
    for layer in range(1, K):
        deltas = []
        for a, b in zip(avecs, bvecs):
            img = la.vec_mat(a, g)
            deltas.append([img[l].coeffs[layer] - b[l].coeffs[layer]
                           for l in range(V.dim)])
        h = boxed_solve_layer(field, Q, g0, g0_Qt_inv, abar,
                              boxed_layer_residual(g, sp.Qr, layer), deltas)
        g = boxed_add_layer(g, h, layer)
    if not orbits._is_ring_orthogonal(g, sp.Qr):
        raise RuntimeError("isometry extension lost orthogonality over the ring")
    for a, b in zip(avecs, bvecs):
        if la.vec_mat(a, g) != list(b):
            raise RuntimeError("isometry extension failed a vector condition")
    return g


def boxed_layer_residual(g, Qr, layer):
    gQgT = la.mat_mul(la.mat_mul(g, Qr), la.transpose(g))
    return [[x.coeffs[layer] - q.coeffs[layer] for x, q in zip(rx, rq)]
            for rx, rq in zip(gQgT, Qr)]


def boxed_add_layer(g, h, layer):
    out = [row[:] for row in g]
    for r, hrow in enumerate(h):
        for c, x in enumerate(hrow):
            if x:
                p = out[r][c]
                add = [p.field.zero] * p.prec
                add[layer] = x
                out[r][c] = p + TruncPoly(p.field, add)
    return out


def boxed_add_skew(field, h0, g0_Qt_inv, vals):
    d = len(h0)
    u = la.zeros(field, d, d)
    for (r, s), v in zip(witt._upper_pairs(d), vals):
        u[r][s] = v
        u[s][r] = -v
    return la.mat_add(h0, la.mat_mul(u, g0_Qt_inv))


def boxed_solve_layer(field, Q, g0, g0_Qt_inv, abar, Delta, deltas):
    d = len(Q)
    m = len(abar)
    h0 = la.mat_mul(la.scal_mul(-(field(1) / field(2)), Delta), g0_Qt_inv)
    if m == 0:
        return h0
    g0_Qt = la.mat_mul(Q, la.transpose(g0))
    etas = []
    for i in range(m):
        want = [-(x) for x in deltas[i]]
        rem = la.vec_sub(want, la.vec_mat(abar[i], h0))
        etas.append(la.vec_mat(rem, g0_Qt))
    idx = {pair: j for j, pair in enumerate(witt._upper_pairs(d))}
    nvar = len(idx)

    def ucoef(r, s):
        if r == s:
            return None, None
        if r < s:
            return idx[(r, s)], field.one
        return idx[(s, r)], -field.one

    rows, rhs = [], []
    for i in range(m):
        for col in range(d):
            row = [field.zero] * nvar
            for r in range(d):
                j, sign = ucoef(r, col)
                if j is not None and abar[i][r]:
                    row[j] = row[j] + sign * abar[i][r]
            rows.append(row)
            rhs.append(etas[i][col])
    sol = la.solve(field, rows, [rhs])
    if sol is None:
        raise RuntimeError("layer system inconsistent; inputs not in one orbit?")
    return boxed_add_skew(field, h0, g0_Qt_inv, sol[0])


def boxed_transport(x, y):
    sp = x.space
    inv_x, c = boxed_t_sym(x, None)
    inv_y, d = boxed_t_sym(y, None)
    if inv_x != inv_y:
        return None
    g = boxed_extend_isometry(sp, c, boxed_witt_lift(sp, c, d, list(inv_x.partition)))
    if boxed_act(x, g).key() != y.key():
        raise RuntimeError("transport verification failed")
    return g


def _typed(x):
    """Nested lists with every scalar as (type, value) and every TruncPoly as
    (TruncPoly, field, its typed coefficients)."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    if isinstance(x, TruncPoly):
        return (TruncPoly, x.field, _typed(x.coeffs))
    return (type(x), x)


def _outcome(f, *args):
    """f(*args) typed, or the type and message of the error it raised."""
    try:
        return _typed(f(*args))
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


ORACLE_SPACES = [pytest.param(field, ks, form, id="%s-%s-%s" % (
                     name, "".join(map(str, ks)), form))
                 for name, field in (("QQ", QQ), ("F3", F3), ("F5", F5))
                 for ks in ((1,), (2, 1), (3, 1), (2, 2), (3, 2), (3, 2, 1))
                 for form in ("diag112", "h2+1")]


def _oracle_space(field, ks, form):
    if form == "diag112":
        return TensorSpace(field, ks, diagonal_space(field, [1, 1, 2]))
    z, o = field.zero, field.one
    return TensorSpace(field, ks, orbits.OrthSpace(field, [[z, o, z], [o, z, z],
                                                           [z, z, o]]))


@pytest.mark.parametrize("field,ks,form", ORACLE_SPACES)
def test_transport_matches_boxed_oracle(field, ks, form):
    """Seeded pairs x, x·g (also with smaller images) and pairs of random
    elements, mostly in different orbits: the same g, or the same None, and
    the same invariant with the same residues."""
    sp = _oracle_space(field, ks, form)
    rng = random.Random(str((field.char, ks, form)))
    kind = (field.char, sp.K)
    for x in itertools.islice(_residue_elements(sp, rng, n=1), 3):
        inv, ws = orbits._t_sym(x, None)
        inv0, ws0 = boxed_t_sym(x, None)
        assert _typed(inv.coords) == _typed(inv0.coords) and inv == inv0
        assert _typed(la._from_layers(kind, field, *ws)) == _typed(ws0)
        y = x.act(random_orthogonal_ring(sp, rng))
        g = transport(x, y)
        assert g is not None and _typed(g) == _typed(boxed_transport(x, y))
        z = sp.random(rng)
        assert _outcome(transport, x, z) == _outcome(boxed_transport, x, z)


def test_oracle_spaces_reach_the_hyperbolic_completion(monkeypatch):
    """On hyperbolic2 ⊕ <1> some residues have an isotropic part, so
    `witt_extend_field` completes them to hyperbolic pairs."""
    calls = []
    real = witt._hyperbolic_partners
    monkeypatch.setattr(witt, "_hyperbolic_partners",
                        lambda *a: calls.append(1) or real(*a))
    for field in (QQ, F3, F5):
        test_transport_matches_boxed_oracle(field, (2, 1), "h2+1")
    assert calls


def test_lift_and_extension_errors_match_boxed_oracle():
    """The same exception, with the same message, from the int layers and
    from the boxed bodies, for each check that can fail on bad input."""
    for field in (QQ, F5):
        sp = TensorSpace(field, (2,), hyperbolic_plane(field))
        a = tvec(field, 2, [1], [1])            # (a, a) = 2
        a2 = tvec(field, 2, [1], [1, 1])        # (a2, a2) = 2 + 2t
        twice = tvec(field, 2, [2], [2])        # (twice, twice) = 8
        b = tvec(field, 2, [1], [2])            # (b, b) = 4
        flat = tvec(field, 2, [0, 1], [0])      # not primitive
        u1, u2 = tvec(field, 2, [1], [0]), tvec(field, 2, [0], [1])
        lifts = [([a], [b], [1]),                         # hypothesis
                 ([u1, u2], [u1, tvec(field, 2, [0], [2])], [1, 1]),
                 ([a], [a, a], [1]),                      # lengths
                 ([a], [a], [1, 1]),
                 ([a, a2], [a, a2], [1, 2]),               # orders
                 ([a], [a], [0]),
                 ([flat], [a], [1]),                      # primitivity
                 ([a], [flat], [1]),
                 ([a, twice], [a, twice], [2, 2])]
        for avecs, bvecs, ks in lifts:
            out = _outcome(witt_lift, sp, avecs, bvecs, ks)
            assert out == _outcome(boxed_witt_lift, sp, avecs, bvecs, ks)
            assert isinstance(out, tuple)       # an error, not a lift
        extends = [([a], [b]),                                   # products
                   ([a], [a2]),
                   ([flat], [flat]),                             # primitivity
                   ([a, twice], [a, twice])]
        for avecs, bvecs in extends:
            out = _outcome(extend_isometry, sp, avecs, bvecs)
            assert out == _outcome(boxed_extend_isometry, sp, avecs, bvecs)
            assert out[0] is IsometryMismatchError
    with pytest.raises(HypothesisFailedError, match=r"at \(0,1\)"):
        witt_lift(sp, [u1, u2], [u1, tvec(F5, 2, [0], [2])], [1, 1])


def test_layer_system_reads_its_solution_off_the_kernel():
    """One layer with Q·g0ᵀ = I, Delta = 0 and abar = (1, 0, 0): the skew u
    must give abar·u = (0, u01, u02) = -delta.  For delta = (0, 1, 0) that
    is u01 = -1 with u02 = 0 and the free u12 = 0; for delta = (1, 0, 0) it
    is inconsistent although u12 stays free."""
    one = ([la._int_identity(3)], 1)
    zero = ([[[0] * 3 for _ in range(3)]], 1)
    abar = ([[[1, 0, 0]]], 1)
    for p in (0, 5):
        h = witt._solve_layer(p, one, one, abar, zero, ([[[0, 1, 0]]], 1))
        assert la._leq(p, h, ([[[0, -1, 0], [1, 0, 0], [0, 0, 0]]], 1))
        with pytest.raises(RuntimeError, match="layer system inconsistent"):
            witt._solve_layer(p, one, one, abar, zero, ([[[1, 0, 0]]], 1))


def test_lift_and_extension_reject_vectors_outside_the_space():
    """Vectors of another precision, another field or with coefficients
    outside the field raise ValueError before they are read as int layers,
    as TruncPoly arithmetic raises it for mismatched precisions."""
    F3 = GF(3)
    for field, other in ((QQ, F5), (F5, QQ), (F5, F3)):
        sp = TensorSpace(field, (2,), hyperbolic_plane(field))
        a = tvec(field, 2, [1], [1])
        bad = [tvec(field, 1, [1], [1]), tvec(field, 3, [1], [1]),
               tvec(other, 2, [1], [1]),
               [TruncPoly(field, [1, 0]), TruncPoly(field, [1, 0])]]
        for b in bad:
            for avecs, bvecs in (([a], [b]), ([b], [a]), ([b], [b])):
                with pytest.raises(ValueError, match="mismatched truncation orders"):
                    witt_lift(sp, avecs, bvecs, [1])
                with pytest.raises(ValueError, match="mismatched truncation orders"):
                    extend_isometry(sp, avecs, bvecs)
        # empty tuples are vectors of the space
        assert witt_lift(sp, [], [], []) == []
        assert extend_isometry(sp, [], []) == la.identity(sp.R, 2)


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
                    u = sp.zero().coords
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


# --------------------------------------------------------------------------
# O(V)(F_q[t]/(t^k)): the row-by-row level 0 against the full scan
# --------------------------------------------------------------------------

def _scan_level0(field, Q, limit):
    """Oracle for orbits._level0_group: all q^(d²) matrices g, kept when
    g·Q·gᵀ = Q."""
    d = len(Q)
    out = []
    for vals in itertools.product(list(field.elements()), repeat=d * d):
        g = [list(vals[r * d:(r + 1) * d]) for r in range(d)]
        if la.mat_eq(la.mat_mul(la.mat_mul(g, Q), la.transpose(g)), Q):
            out.append(g)
    return out


_GROUP_CASES = [
    (3, [1, 2, 1], 1), (3, [1, 1], 1), (3, [1, 2], 2), (3, [2, 2], 3),
    (5, [1, 2], 1), (5, [1, 1], 2), (5, [3], 3),
    (3, "hyperbolic", 2), (5, "hyperbolic", 1),
]


def _group_space(q, form):
    F = GF(q)
    return hyperbolic_plane(F) if form == "hyperbolic" else diagonal_space(F, form)


@pytest.mark.parametrize("q,form,k", _GROUP_CASES)
def test_group_rows_match_scan(q, form, k, monkeypatch):
    # element for element and in order: the layer lifting after level 0 is
    # the same on both routes
    V = _group_space(q, form)
    rows = orthogonal_group_ring(V, k)
    monkeypatch.setattr(orbits, "_level0_group", _scan_level0)
    assert orthogonal_group_ring(V, k) == rows


def boxed_orthogonal_group_ring(V, k):
    """Oracle for the int layers of `orthogonal_group_ring`: the same
    lifting on boxed matrices over F_q[t]/(t^k), one `boxed_add_skew` and
    `boxed_add_layer` per lift, with (Q·g0ᵀ)⁻¹ and Delta per element."""
    field, Q = V.field, V.gram
    R = TruncRing(field, k)
    sols = [la.change_ring(R, g) for g in orbits._level0_group(field, Q, 10 ** 7)]
    Qr = la.change_ring(R, Q)
    skew_dim = V.dim * (V.dim - 1) // 2
    for layer in range(1, k):
        nxt = []
        for g in sols:
            g0 = [[x.coeffs[0] for x in row] for row in g]
            g0_Qt_inv = la.inverse(field, la.mat_mul(Q, la.transpose(g0)))
            Delta = boxed_layer_residual(g, Qr, layer)
            h0 = la.mat_mul(la.scal_mul(-(field(1) / field(2)), Delta), g0_Qt_inv)
            for vals in itertools.product(list(field.elements()), repeat=skew_dim):
                h = boxed_add_skew(field, h0, g0_Qt_inv, vals)
                nxt.append(boxed_add_layer(g, h, layer))
        sols = nxt
    return sols


def _typed_ring(mats):
    return [[[(type(x), x.field, [(type(c), c.p, c.v) for c in x.coeffs])
              for x in row] for row in g] for g in mats]


@pytest.mark.parametrize("q,form,k", _GROUP_CASES + [(3, [1, 1, 1], 2),
                                                     (5, "hyperbolic", 3)])
def test_group_layers_match_boxed_lifting(q, form, k):
    # element for element, in order and type for type
    V = _group_space(q, form)
    group = orthogonal_group_ring(V, k)
    assert _typed_ring(group) == _typed_ring(boxed_orthogonal_group_ring(V, k))
    # the layers are the coefficients of the boxed group
    assert orbits._group_layers(V, k) == [
        [[[x.coeffs[s].v for x in row] for row in g] for s in range(k)] for g in group]


@pytest.mark.parametrize("q,entries,order", [
    (5, [1, 1, 1], 2 * 5 * (5 ** 2 - 1)),              # |O_3(F_5)| = 240
    (3, [1, 1, 1, 1], 2 * 3 ** 2 * (3 ** 2 - 1) ** 2),  # |O_4^+(F_3)| = 1152
])
def test_group_orders_closed_form(q, entries, order):
    group = orthogonal_group_ring(diagonal_space(GF(q), entries), 1)
    assert len(group) == order
    assert len({tuple(x.coeffs[0].v for r in g for x in r) for g in group}) == order


def test_level0_guard_counts_visited_rows(monkeypatch):
    # diag(1, 1, 1) over F_3: the empty prefix, the 6 first rows of norm 1
    # and the 24 orthonormal pairs, each tried against all 27 vectors:
    # 27·31 = 837
    V = diagonal_space(F3, [1, 1, 1])
    monkeypatch.setenv("SNT_MAX_ENUM", "837")
    assert len(orthogonal_group_ring(V, 1)) == 48
    monkeypatch.setenv("SNT_MAX_ENUM", "836")
    with pytest.raises(EnumerationGuardError):
        orthogonal_group_ring(V, 1)
    # over F_3[t]/(t^2) the lift-size guard binds first: 48·3^3 = 1296
    monkeypatch.setenv("SNT_MAX_ENUM", "1296")
    assert len(orthogonal_group_ring(V, 2)) == 1296
    monkeypatch.setenv("SNT_MAX_ENUM", "1295")
    with pytest.raises(EnumerationGuardError):
        orthogonal_group_ring(V, 2)


def test_level0_guard_before_the_candidates(monkeypatch):
    # diag(1, 1) over F_503: row 0 alone has 503^2 = 253 009 candidates,
    # over the guard of 100, so none of them is built
    V = diagonal_space(GF(503), [1, 1])
    monkeypatch.setenv("SNT_MAX_ENUM", "100")
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationGuardError, match="253009"):
            orthogonal_group_ring(V, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_element_guard_follows_the_limit(monkeypatch):
    # 3^13 = 1 594 323 elements: within the default guard of 10^7
    sp = TensorSpace(F3, (13,), diagonal_space(F3, [1]))
    assert next(sp.all_elements()).is_zero()
    monkeypatch.setenv("SNT_MAX_ENUM", str(3 ** 13 - 1))
    with pytest.raises(EnumerationGuardError):
        next(sp.all_elements())


def test_invariants_constant_on_brute_orbits():
    field = F3
    sp = TensorSpace(field, (2,), hyperbolic_plane(field))
    for orb in brute_force_orbits(sp):
        invs = set()
        for key in orb:
            x = sp.element([[field(v.v) for v in row] for row in key])
            invs.add(orbit_invariant(x))
        assert len(invs) == 1


# the census runs on int residues; the boxed per-element T(x) and action
# are its oracle.  Every space with at most 3^6 elements among these types
# and forms
_DIAGS = {1: [1], 2: [1, 2], 3: [1, 1, 2]}
_CENSUS_CASES = [(q, ks, form) for q in (3, 5)
                 for ks in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]
                 for form in (1, 2, 3, "hyperbolic2")
                 if q ** (sum(ks) * (2 if form == "hyperbolic2" else form)) <= 3 ** 6]


def _census_matches_boxed_oracle(q, ks, form):
    F = GF(q)
    V = hyperbolic_plane(F) if form == "hyperbolic2" else diagonal_space(F, _DIAGS[form])
    sp = TensorSpace(F, ks, V)
    want, images = {}, {}
    for x in sp.all_elements():
        want.setdefault(boxed_t_sym(x, None, images)[0], set()).add(x.key())
    # the same classes, in the order they are first met
    assert list(invariant_partition(sp).items()) == \
        [(inv, frozenset(keys)) for inv, keys in want.items()]
    group = orthogonal_group_ring(V, sp.K)
    seen, orbs = set(), []
    for x in sp.all_elements():
        if x.key() not in seen:
            orbs.append(frozenset(boxed_act(x, g).key() for g in group))
            seen |= orbs[-1]
    assert sum(map(len, orbs)) == q ** (sp.d * V.dim)
    assert brute_force_orbits(sp) == orbs


def _census_id(q, ks, form):
    return "F%d-%s-%s" % (q, "".join(map(str, ks)), form)


@pytest.mark.parametrize("q,ks,form", _CENSUS_CASES,
                         ids=[_census_id(*c) for c in _CENSUS_CASES])
def test_census_matches_boxed_oracle(q, ks, form):
    _census_matches_boxed_oracle(q, ks, form)


_CENSUS_729 = [(q, ks, form) for q, ks, form in _CENSUS_CASES
               if q ** (sum(ks) * (2 if form == "hyperbolic2" else form)) == 729]


@pytest.mark.parametrize("q,ks,form", _CENSUS_729, ids=[_census_id(*c) for c in _CENSUS_729])
def test_census_blocks_that_do_not_divide_the_space(q, ks, form, monkeypatch):
    # blocks of 5 elements (and of 5 group elements): 729 = 145·5 + 4, so
    # classes, orbits and W's first elements cross block boundaries
    monkeypatch.setattr(orbits, "_BLOCK", 5)
    _census_matches_boxed_oracle(q, ks, form)


# (2,1) ⊗ diag(1,1,1): 3^9 = 19 683 elements, 128 classes and a group of 1296;
# (9) ⊗ diag(1): as many elements over a long M_-, 9842 classes, whose W key
# must not grow with the (3^9 - 1)/2 lines of M_-.  The elements' keys alone
# are about 2 and 7 MB.
_MEMORY_CASES = [((2, 1), [1, 1, 1], 128, 8), ((9,), [1], 9842, 16)]


@pytest.mark.parametrize("ks,diag,classes,mb", _MEMORY_CASES, ids=["M21-diag111", "M9-diag1"])
@pytest.mark.parametrize("census", [invariant_partition, brute_force_orbits])
def test_census_memory_is_bounded_by_its_blocks(census, ks, diag, classes, mb):
    sp = TensorSpace(F3, ks, diagonal_space(F3, diag))
    tracemalloc.start()
    try:
        assert len(census(sp)) == classes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mb * 2 ** 20


@pytest.mark.parametrize("census", [invariant_partition, brute_force_orbits])
def test_census_stops_at_the_int64_bound(census, monkeypatch):
    # q = 2^61 - 1 passes an element guard of 10^19, but p² does not fit in
    # an int64: both sides stop before any array or group is built
    monkeypatch.setenv("SNT_MAX_ENUM", str(10 ** 19))
    F = GF(2 ** 61 - 1)
    sp = TensorSpace(F, (1,), diagonal_space(F, [1]))
    start = time.perf_counter()
    with pytest.raises(EnumerationGuardError, match="int64 bound 2\\^63"):
        census(sp)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [2, 7, 2 ** 31 - 1])
def test_census_echelon_matches_rref_ints(p):
    # the census's W key against the int elimination `TensorSpace._image` keys
    # W by: rank-deficient, tall and wide matrices, p² just under 2^63 at most
    rng = random.Random(p)
    for m, d in [(4, 3), (3, 5), (6, 6)]:
        f = [[[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(d)]
              for _ in range(m)] for _ in range(40)]
        for rows in f[::4]:
            rows[-1] = list(rows[0])            # a repeated row
        got = orbits._echelon(np.array(f, np.int64), p).tolist()
        for rows, ech in zip(f, got):
            R, _ = la._rref_ints(p, [list(r) for r in rows])
            assert ech == (R + [[0] * d] * d)[:min(m, d)]


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
    x = sp.element(la.mat_mul(la.transpose(la.inverse(F3, chains)), X))
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
