"""Lattice enumeration, theta series, Eisenstein evaluators, and the
identity harness."""
import math
from fractions import Fraction

import pytest

from sntmod.analytic import (AUT_E8, IntegralLattice, SiegelPoint,
                             TruncationError, bernoulli_number, e8,
                             eisenstein_direct, eisenstein_lhs, eisenstein_q,
                             eisenstein_rank1, mass_constant,
                             primitive_counts, sigma_power, theta_basic,
                             theta_colinear, theta_colinear_direct,
                             verify_identity)
from sntmod.sntmodule import EnumerationGuardError


@pytest.fixture(scope="module")
def E8():
    L = e8()
    L.counts_by_norm(24)   # warm the shell-count cache once
    return L


# --------------------------------------------------------------------------
# lattices and counts
# --------------------------------------------------------------------------

def test_e8_is_even_unimodular(E8):
    assert E8.det() == 1
    assert E8.is_even()
    assert E8.is_unimodular()
    assert E8.min_norm() == 2


def test_counts_small(E8):
    c = E8.counts_by_norm(4)
    assert c[0] == 1 and c[2] == 240 and c[4] == 2160
    assert all(c[n] == 0 for n in (1, 3))


def test_counts_match_divisor_sums(E8):
    # theta coefficients of the rank-8 genus: 240 sigma_3(m), exact integers
    c = E8.counts_by_norm(20)
    for m in range(1, 11):
        assert c[2 * m] == 240 * sigma_power(m, 3)


def test_counts_zero_bound():
    L = IntegralLattice([[2, 1], [1, 2]], name="A2")
    assert L.counts_by_norm(0) == [1]


def test_rejects_bad_grams():
    with pytest.raises(ValueError):
        IntegralLattice([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1], [1, 0]])   # indefinite


def test_primitive_counts_moebius(E8):
    c = E8.counts_by_norm(16)
    cp = primitive_counts(c)
    # c(n) = sum_{d^2 | n} c_prim(n/d^2) reconstructs
    for n in range(1, 17):
        s = 0
        d = 1
        while d * d <= n:
            if n % (d * d) == 0:
                s += cp[n // (d * d)]
            d += 1
        assert s == c[n]
    assert cp[8] == c[8] - c[2]


def test_vectors_by_norm(E8):
    coords, norms = E8.vectors_by_norm(2)
    assert len(coords) == 241
    assert sorted(set(int(n) for n in norms)) == [0, 2]


def test_enumeration_guard_before_allocation(monkeypatch):
    # 1 + 240 + 2160 = 2401 vectors of norm <= 4; the guard caps each level
    monkeypatch.setenv("SNT_MAX_ENUM", "1000")
    with pytest.raises(EnumerationGuardError):
        e8().counts_by_norm(4)
    monkeypatch.setenv("SNT_MAX_ENUM", "2401")
    assert sum(e8().counts_by_norm(4)) == 2401


# --------------------------------------------------------------------------
# theta series
# --------------------------------------------------------------------------

def test_theta_large_im_limit(E8):
    v, tail = theta_basic(E8, 40j)
    assert abs(v - 1) < 1e-10


def test_theta_positive_on_imaginary_axis(E8):
    v, _ = theta_basic(E8, 2j)
    assert abs(v.imag) < 1e-15 and v.real > 1


def test_theta_truncation_error(E8):
    with pytest.raises(TruncationError):
        theta_basic(E8, 0.001j, tail_target=1e-10, max_norm=16)


def test_colinear_truncation_before_any_tail_bound(E8):
    # Im-min-eig 0.02: the shell tail bound needs (B+1)·0.02 >= 2, which
    # max_norm 64 never reaches, so no tail is ever certified
    with pytest.raises(TruncationError) as info:
        theta_colinear(E8, SiegelPoint(0.02j, 0j, 0.02j))
    assert info.value.achieved == math.inf


# --------------------------------------------------------------------------
# Eisenstein evaluators
# --------------------------------------------------------------------------

def test_bernoulli_values():
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(8) == Fraction(-1, 30)
    assert bernoulli_number(12) == Fraction(-691, 2730)


def test_eisenstein_large_im_limit():
    v, _ = eisenstein_q(50j, 4)
    assert abs(v - 1) < 1e-12
    d, _ = eisenstein_direct(50j, 4)
    assert abs(d - 1) < 1e-8


def test_eisenstein_dual_evaluators_agree():
    qv, dv, qt, dt = eisenstein_rank1(2j, 4)
    assert abs(qv - dv) < 1e-8
    qv, dv, _, _ = eisenstein_rank1(1.5j + 0.3, 4)
    assert abs(qv - dv) < 1e-7


def test_eisenstein_rejects_odd_weight():
    with pytest.raises(ValueError):
        eisenstein_q(2j, 5)


def test_classical_identity_E4_equals_theta_E8(E8):
    for tau in (1.5j, 2j, 3j):
        ev, _ = eisenstein_q(tau, 4)
        tv, _ = theta_basic(E8, tau)
        assert abs(ev - tv) / abs(ev) < 1e-8


# --------------------------------------------------------------------------
# Siegel points and the colinear theta
# --------------------------------------------------------------------------

def test_siegel_point_validation():
    SiegelPoint(2j, 0.5j, 2j)
    with pytest.raises(ValueError):
        SiegelPoint(2j, 3j, 2j)       # imaginary part not PD
    with pytest.raises(ValueError):
        SiegelPoint(-2j, 0j, 2j)


def test_colinear_large_im_limit(E8):
    pt = SiegelPoint(60j, 0j, 60j)
    v, _ = theta_colinear(E8, pt)
    assert abs(v - 1) < 1e-9


def test_colinear_direct_oracle(E8):
    pt = SiegelPoint(3j, 0.5j, 3j)
    v, _ = theta_colinear(E8, pt)
    d = theta_colinear_direct(E8, pt, 4)
    assert abs(v - d) < 1e-6


def test_colinear_diagonal_factorization(E8):
    # at tau12 = 0 the pair sum regroups into the product over (m, n);
    # check against an independent regrouping at equal truncation
    pt = SiegelPoint(2.5j, 0j, 3j)
    v, _ = theta_colinear(E8, pt)
    c = E8.counts_by_norm(16)
    cp = primitive_counts(c)
    regroup = 1.0 + 0j
    for n in range(1, 17):
        if not cp[n]:
            continue
        inner = 0j
        for m in range(-60, 61):
            for nn in range(-60, 61):
                if (m, nn) == (0, 0):
                    continue
                val = -math.pi * n * (m * m * 2.5 + nn * nn * 3.0)
                if val > -60:
                    inner += complex(math.e) ** complex(val)
        regroup += cp[n] / 2 * inner
    assert abs(v - regroup) < 1e-9


# --------------------------------------------------------------------------
# mass constants
# --------------------------------------------------------------------------

def test_mass_single_class():
    assert mass_constant([696729600]) == 696729600


def test_mass_e8_weyl_order():
    # independent recomputation: the reflection group of the rank-8 root
    # system has order prod(degrees) with degrees 2,8,12,14,18,20,24,30
    degrees = [2, 8, 12, 14, 18, 20, 24, 30]
    order = 1
    for d in degrees:
        order *= d
    assert order == AUT_E8 == 696729600
    assert order == 2 ** 14 * 3 ** 5 * 5 ** 2 * 7


def test_mass_two_equal_classes():
    assert mass_constant([10, 10]) == 5


def test_mass_empty_rejected():
    with pytest.raises(ValueError):
        mass_constant([])


# --------------------------------------------------------------------------
# the identity harness
# --------------------------------------------------------------------------

def test_identity_at_diagonal_point(E8):
    rep = verify_identity([E8], [AUT_E8], SiegelPoint(2j, 0j, 2j), 8, tol=1e-8)
    assert rep.passed and rep.rel_diff < 1e-10
    assert rep.specialization.startswith("diagonal")


def test_identity_at_general_point(E8):
    rep = verify_identity([E8], [AUT_E8], SiegelPoint(2j, 0.5j, 2j), 8, tol=1e-8)
    assert rep.passed


def test_accelerated_vs_direct_lhs(E8):
    pt = SiegelPoint(2j, 0j, 2j)
    acc, _ = eisenstein_lhs(pt, 8)
    direct, _ = eisenstein_lhs(pt, 8, direct=True)
    assert abs(acc - direct) < 1e-3


def test_wrong_mass_fails(E8):
    rep = verify_identity([E8], [AUT_E8], SiegelPoint(2j, 0.5j, 2j), 8,
                          tol=1e-8, mass=AUT_E8 // 2)
    assert not rep.passed
    assert rep.rel_diff > 0.2


def test_identity_rejects_odd_lattice():
    odd = IntegralLattice([[1]])
    with pytest.raises(ValueError):
        verify_identity([odd], [2], SiegelPoint(2j, 0j, 2j), 1)


def test_monotone_truncation(E8):
    # tightening the tail budget never worsens the discrepancy beyond the
    # previous budget
    pt = SiegelPoint(2j, 0.3j, 2.5j)
    loose = verify_identity([E8], [AUT_E8], pt, 8, tol=1e-6, tail_target=1e-8)
    tight = verify_identity([E8], [AUT_E8], pt, 8, tol=1e-6, tail_target=1e-12)
    budget = loose.tails["lhs"] + loose.tails["rhs"]
    assert tight.abs_diff <= loose.abs_diff + budget


def test_dual_evaluator_values_bracketed_by_tails(E8):
    # reported value ± tail brackets the dual evaluator's value
    for tau in (2j, 1.5j, 3j, 0.3 + 1.2j):
        qv, dv, qt, dt = eisenstein_rank1(tau, 4)
        assert abs(qv - dv) <= qt + dt
    for tau in (1.5j, 2j):
        tv, tt = theta_basic(E8, tau)
        ev, et = eisenstein_q(tau, 4)
        assert abs(tv - ev) <= tt + et + 1e-12


# --------------------------------------------------------------------------
# the rank-16 genus (optional extension behind the same interface)
# --------------------------------------------------------------------------

def test_rank16_lattices_even_unimodular():
    from sntmod.analytic import d16_plus, e8e8
    for L in (e8e8(), d16_plus()):
        assert L.rank == 16 and L.det() == 1 and L.is_even()


def test_rank16_equal_theta_counts():
    # the two classes are isospectral in one variable (equal shell counts)
    from sntmod.analytic import d16_plus, e8e8
    assert e8e8().counts_by_norm(6) == d16_plus().counts_by_norm(6)


def test_rank16_mass_is_classical():
    from sntmod.analytic import AUT_D16_PLUS, AUT_E8E8, rank16_genus
    _, auts = rank16_genus()
    m = Fraction(1, auts[0]) + Fraction(1, auts[1])
    assert m == Fraction(691, 277667181515243520000)
    assert auts == [AUT_E8E8, AUT_D16_PLUS]


def test_rank16_identity():
    from sntmod.analytic import rank16_genus
    lats, auts = rank16_genus()
    rep = verify_identity(lats, auts, SiegelPoint(3j, 0.3j, 3j), 16, tol=1e-8)
    assert rep.passed and len(rep.per_lattice) == 2
