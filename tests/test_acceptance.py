"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime and asserting the stated budget and tolerance."""
import random
import time
from collections import Counter

from sntmod import linalg as la
from sntmod.fields import QQ, GF
from sntmod.analytic import (AUT_E8, SiegelPoint, e8, eisenstein_lhs,
                             eisenstein_q, sigma_power, theta_basic,
                             verify_identity)
from sntmod.orbits import (TensorSpace, brute_force_orbits, diagonal_space,
                           hyperbolic_plane, invariant_partition, is_submersive,
                           random_orthogonal_ring, same_orbit, transport,
                           witt_lift)
from sntmod.sntmodule import (LagrangianFlag, SntModule, decompose,
                              enumerate_t_lagrangians, jordan_type, rho_of,
                              self_dual_map_space_dim, standard_module)
from sntmod.spgroup import (block_profile, group_closure, random_element,
                            sp_group_order, sp_ring_generators)
from sntmod.tpoly import TruncPoly, tmat_key

from analytic_oracles import eisenstein_lhs_direct
from ring_oracles import ring_pair, valuation

F3, F5 = GF(3), GF(5)


def _is_primitive_tuple(V, vecs):
    """Whether the vectors over F[t]/(t^K) are independent mod t."""
    return la.rank(V.field, [[x.coeffs[0] for x in v] for v in vecs]) == len(vecs) \
        if vecs else True


def _report(name, elapsed, budget, detail=""):
    print("PASS %s: %.2fs (budget %ds) %s" % (name, elapsed, budget, detail))
    assert elapsed < budget


def _random_invertible(field, n, rng):
    while True:
        A = [[field(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            la.inverse(field, A)
            return A
        except ValueError:
            continue


_PARTITIONS = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
               (3, 3), (2, 2, 1), (2, 1, 1), (4, 1), (4, 2), (1, 1, 1),
               (5, 1), (2, 2, 2), (3, 2, 1), (1, 1, 1, 1)]


def test_criterion_1_structure_theorem():
    """200 pseudorandom modules split to their planted type, with the
    doubled-Jordan oracle and exact transport of gram and t."""
    t0 = time.time()
    checked = 0
    for field, seed in ((QQ, 101), (F5, 102)):
        rng = random.Random(seed)
        for trial in range(100):
            ks = _PARTITIONS[rng.randrange(len(_PARTITIONS))]
            M0 = standard_module(field, ks)
            P = _random_invertible(field, M0.dim, rng)
            Pinv = la.inverse(field, P)
            M = SntModule(field, la.mat_mul(la.mat_mul(P, M0.t), Pinv),
                          la.mat_mul(la.mat_mul(P, M0.gram), la.transpose(P)))
            got, B = decompose(M, seed=trial)
            assert got == ks, "planted partition missed"
            doubled = tuple(sorted(ks + ks, reverse=True))
            assert jordan_type(field, M.t) == doubled, "Jordan oracle missed"
            std = standard_module(field, ks)
            assert la.mat_eq(la.mat_mul(B, M.t), la.mat_mul(std.t, B))
            assert la.mat_eq(
                la.mat_mul(la.mat_mul(B, M.gram), la.transpose(B)), std.gram)
            checked += 1
    assert checked == 200
    _report("criterion 1 (structure theorem, 200 modules)", time.time() - t0, 30)


def test_criterion_2_sp_structure():
    """Sampled automorphisms have triangular mod-t reductions with residue
    symplectic diagonal blocks; the homogeneous closure count is 648."""
    t0 = time.time()
    configs = [(standard_module(QQ, (2, 1)), range(250)),
               (standard_module(F3, (2,)), range(250))]
    for M, seeds in configs:
        for seed in seeds:
            g = random_element(M, seed)
            bp = block_profile(M, g)
            assert bp.upper_triangular_ok(), "triangularity failed"
            assert bp.diagonal_symplectic_ok(), "residue symplectic failed"
    gens = sp_ring_generators(F3, 1, 2)
    grp = group_closure(gens, la.mat_mul, tmat_key, 10 ** 4)
    assert len(grp) == 648 == sp_group_order(3, 1, 2) == 24 * 3 ** 3
    _report("criterion 2 (Sp(M,t) structure, 500 samples + closure 648)",
            time.time() - t0, 60)


def test_criterion_3_orbit_classification():
    """Invariant-based partition equals the brute-force partition, every
    class and every element, in all three configurations."""
    t0 = time.time()
    cases = [
        (3, (1,), lambda f: diagonal_space(f, [1, 1, 1])),
        (3, (2,), hyperbolic_plane),
        (5, (1,), lambda f: diagonal_space(f, [1, 1])),
    ]
    sizes = []
    for q, ks, mkV in cases:
        field = GF(q)
        sp = TensorSpace(field, ks, mkV(field))
        bf = set(brute_force_orbits(sp))
        inv = invariant_partition(sp)
        assert set(inv.values()) == bf, "partitions differ at q=%d" % q
        sizes.append(len(bf))
    _report("criterion 3 (orbit classification vs brute force)",
            time.time() - t0, 300, "orbit counts %s" % sizes)


def test_criterion_4_witt_lift_and_transport():
    """100 random lift instances with exact postconditions, plus transport
    round-trips on same-orbit pairs."""
    t0 = time.time()
    done = 0
    for field, seed in ((QQ, 201), (F5, 202)):
        rng = random.Random(seed)
        V = diagonal_space(field, [1, 1, 2, 1])
        while done < (50 if field is QQ else 100):
            K = rng.choice([2, 3, 4])
            m = rng.choice([1, 2, 3])
            ks = sorted((rng.randint(1, K) for _ in range(m)), reverse=True)
            sp = TensorSpace(field, (K,), V)
            while True:
                avecs = [[TruncPoly(field, [field.random(rng, 2) for _ in range(K)])
                          for _ in range(V.dim)] for _ in range(m)]
                if _is_primitive_tuple(V, avecs):
                    break
            bvecs = []
            for a, k in zip(avecs, ks):
                pert = [TruncPoly(field, [field.zero] * k +
                                  [field.random(rng, 2) for _ in range(K - k)])
                        for _ in range(V.dim)]
                bvecs.append([a[l] + pert[l] for l in range(V.dim)])
            if not _is_primitive_tuple(V, bvecs):
                continue
            out = witt_lift(sp, avecs, bvecs, ks)
            for i in range(m):
                for j in range(m):
                    assert ring_pair(sp, out[i], out[j]) == \
                        ring_pair(sp, avecs[i], avecs[j])
                for l in range(V.dim):
                    d = out[i][l] - bvecs[i][l]
                    assert not d or valuation(d) >= ks[i]
            assert _is_primitive_tuple(V, out)
            done += 1
    assert done == 100
    # transport round-trips
    sp = TensorSpace(F3, (2,), hyperbolic_plane(F3))
    rng = random.Random(203)
    for _ in range(20):
        x = sp.random(rng)
        y = x.act(random_orthogonal_ring(sp, rng))
        assert same_orbit(x, y)
        g = transport(x, y)
        assert g is not None and x.act(g).key() == y.key()
    _report("criterion 4 (Witt lift, 100 instances + transport)",
            time.time() - t0, 30)


def test_criterion_5_submersiveness():
    """Rank criterion agrees with the image criterion on 200 random points
    across both fields (agreement asserted inside is_submersive)."""
    t0 = time.time()
    disagreements = 0
    for field, seed in ((QQ, 301), (F5, 302)):
        sp = TensorSpace(field, (2, 1), diagonal_space(field, [1, 1, 2]))
        rng = random.Random(seed)
        for _ in range(100):
            x = sp.random(rng)
            try:
                is_submersive(x)
            except RuntimeError:
                disagreements += 1
    assert disagreements == 0
    _report("criterion 5 (submersiveness, 200 points)", time.time() - t0, 60)


def test_criterion_6_classical_identity():
    """Theta coefficients equal 240 sigma_3(n) exactly; the weight-4 series
    matches the rank-8 theta to 1e-8 at three points."""
    t0 = time.time()
    L = e8()
    c = L.counts_by_norm(20)
    for n in range(1, 11):
        assert c[2 * n] == 240 * sigma_power(n, 3)
    worst = 0.0
    for tau in (1.5j, 2j, 3j):
        ev, _ = eisenstein_q(tau, 4)
        tv, _ = theta_basic(L, tau)
        rel = abs(ev - tv) / abs(ev)
        worst = max(worst, rel)
        assert rel < 1e-8
    _report("criterion 6 (classical identity at N=8)", time.time() - t0, 10,
            "worst rel diff %.2e" % worst)


def test_criterion_7_headline_identity():
    """The rank-8 identity at three Siegel points to 1e-8 with accelerated
    evaluators, and accelerated-vs-direct agreement to 1e-3."""
    t0 = time.time()
    L = e8()
    points = [SiegelPoint(2j, 0j, 2j),
              SiegelPoint(2j, 0.5j, 2j),
              SiegelPoint(3j, 0.3 + 0.5j, 2.5j)]
    worst = 0.0
    for pt in points:
        rep = verify_identity([L], [AUT_E8], pt, 8, tol=1e-8)
        assert rep.passed, "identity failed at %r" % pt
        worst = max(worst, rep.rel_diff)
    acc, _ = eisenstein_lhs(points[0], 8)
    direct, _ = eisenstein_lhs_direct(points[0], 8)
    assert abs(acc - direct) < 1e-3
    _report("criterion 7 (headline identity, C = 696729600)",
            time.time() - t0, 120, "worst rel diff %.2e" % worst)


def test_criterion_8_fibration_count():
    """Sum of fiber sizes q^{dim F_W} over realized W equals the number of
    t-Lagrangian subspaces, exactly, for both modules."""
    t0 = time.time()
    totals = []
    for ks in ((1,), (2,)):
        M = standard_module(F3, ks)
        flag = LagrangianFlag.standard(M)
        lagr = enumerate_t_lagrangians(M)
        fibers = Counter()
        dims = {}
        for U in lagr:
            W, Wperp, reps, _ = rho_of(flag, [list(r) for r in U])
            fibers[W.span] += 1
            dims[W.span] = self_dual_map_space_dim(flag, W, Wperp, reps)
        total = sum(3 ** dims[span] for span in fibers)
        assert total == len(lagr)
        for span, cnt in fibers.items():
            assert cnt == 3 ** dims[span]
        totals.append(total)
    _report("criterion 8 (fibration count)", time.time() - t0, 60,
            "|Gr(M,t)| = %s" % totals)
