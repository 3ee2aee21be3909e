"""Exact arithmetic layer: fields, linear algebra, truncated polynomials."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sntmod import linalg as la
from sntmod.fields import QQ, GF, CharacteristicTwoError
from sntmod.tpoly import (NotAUnitError, TruncPoly, TruncRing, smith_divisors,
                          smith_form_t, tp)

F5 = GF(5)
F3 = GF(3)


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------

def test_char_two_rejected():
    with pytest.raises(CharacteristicTwoError):
        GF(2)


def test_non_prime_rejected():
    with pytest.raises(ValueError):
        GF(9)


def test_fp_arithmetic():
    a, b = F5(3), F5(4)
    assert a + b == F5(2)
    assert a * b == F5(2)
    assert a / b == a * F5(4) ** 3
    assert (F5.one / b) * b == F5.one
    assert -a == F5(2)
    with pytest.raises(ZeroDivisionError):
        a / F5(0)


def test_mixed_prime_fields_rejected():
    with pytest.raises(ValueError):
        F5(1) + F3(1)


def test_rationals_lowest_terms():
    x = QQ(6, 4)
    assert x.numerator == 3 and x.denominator == 2


# --------------------------------------------------------------------------
# linear algebra
# --------------------------------------------------------------------------

def _random_matrix(field, rng, r, c):
    return [[field.random(rng, 4) for _ in range(c)] for _ in range(r)]


def test_solve_identity():
    A = la.identity(QQ, 4)
    b = [QQ(i) for i in range(4)]
    sol = la.solve(QQ, A, b)
    assert sol.particular == b and sol.kernel == [] and sol.rank == 4


def test_solve_inconsistent():
    A = la.zeros(QQ, 3, 3)
    b = [QQ(1), QQ(0), QQ(0)]
    assert la.solve(QQ, A, b) is None


@pytest.mark.parametrize("field", [QQ, F5])
def test_solve_substitution_oracle(field):
    rng = random.Random(42)
    for _ in range(20):
        A = _random_matrix(field, rng, 4, 6)
        x0 = [field.random(rng, 4) for _ in range(6)]
        b = [sum((A[i][j] * x0[j] for j in range(6)), field.zero) for i in range(4)]
        sol = la.solve(field, A, b)
        assert sol is not None
        resid = [sum((A[i][j] * sol.particular[j] for j in range(6)), field.zero)
                 - b[i] for i in range(4)]
        assert all(not r for r in resid)
        for k in sol.kernel:
            img = [sum((A[i][j] * k[j] for j in range(6)), field.zero)
                   for i in range(4)]
            assert all(not r for r in img)
        assert len(sol.kernel) == 6 - sol.rank


def test_inverse_roundtrip():
    rng = random.Random(3)
    for field in (QQ, F5):
        while True:
            A = _random_matrix(field, rng, 5, 5)
            try:
                Ainv = la.inverse(field, A)
                break
            except ValueError:
                continue
        assert la.mat_eq(la.mat_mul(A, Ainv), la.identity(field, 5))


def test_rref_span_canonical():
    rng = random.Random(7)
    rows = _random_matrix(QQ, rng, 3, 5)
    span1 = la.rref_span(QQ, rows)
    # shuffle and rescale the generators: same canonical form
    mixed = [la.vec_add(rows[0], rows[1]), la.vec_scale(QQ(7), rows[2]), rows[1]]
    extra = la.vec_add(la.vec_scale(QQ(-2), rows[0]), rows[2])
    span2 = la.rref_span(QQ, mixed + [extra, rows[0]])
    assert span1 == span2


# --------------------------------------------------------------------------
# truncated polynomials
# --------------------------------------------------------------------------

def test_tp_mul_basic_identities():
    a = tp(QQ, 3, 1, 1)
    b = tp(QQ, 3, 1, -1)
    assert (a * b).coeffs == (QQ(1), QQ(0), QQ(-1))
    t = TruncPoly.t(QQ, 4)
    assert not (t ** 3) * t
    with pytest.raises(ValueError):
        a * tp(QQ, 4, 1)


def _poly_mul_oracle(field, ac, bc, K):
    """Full-degree product reduced mod t^K (independent of TruncPoly.mul)."""
    full = [field.zero] * (2 * K)
    for i, x in enumerate(ac):
        for j, y in enumerate(bc):
            full[i + j] = full[i + j] + x * y
    return tuple(full[:K])


def test_tp_mul_against_full_product_oracle():
    rng = random.Random(0)
    for _ in range(50):
        ac = [F5.random(rng) for _ in range(4)]
        bc = [F5.random(rng) for _ in range(4)]
        a, b = TruncPoly(F5, ac), TruncPoly(F5, bc)
        assert (a * b).coeffs == _poly_mul_oracle(F5, ac, bc, 4)


def test_tp_inv():
    a = tp(QQ, 3, 1, 1)
    assert a.inv().coeffs == (QQ(1), QQ(-1), QQ(1))
    c = tp(QQ, 3, 5)
    assert c.inv().coeffs == (Fraction(1, 5), QQ(0), QQ(0))
    with pytest.raises(NotAUnitError):
        TruncPoly.t(QQ, 3).inv()


def test_tp_inv_multiply_back():
    rng = random.Random(1)
    for _ in range(20):
        coeffs = [QQ.random(rng) for _ in range(5)]
        if not coeffs[0]:
            coeffs[0] = QQ(1)
        a = TruncPoly(QQ, coeffs)
        assert a * a.inv() == TruncPoly.one(QQ, 5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4),
       st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_tp_ring_axioms(ac, bc, cc):
    a = tp(QQ, 4, *ac)
    b = tp(QQ, 4, *bc)
    c = tp(QQ, 4, *cc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


# --------------------------------------------------------------------------
# smith normal form over F[t]/(t^K)
# --------------------------------------------------------------------------

def test_smith_diag_reorder():
    A = [[tp(QQ, 3, 0, 1), tp(QQ, 3)], [tp(QQ, 3), tp(QQ, 3, 1)]]
    U, D, V = smith_form_t(A)
    assert smith_divisors(D) == [0, 1]


def test_smith_antidiagonal():
    A = [[tp(QQ, 3), tp(QQ, 3, 0, 1)], [tp(QQ, 3, 0, 0, 1), tp(QQ, 3)]]
    U, D, V = smith_form_t(A)
    assert smith_divisors(D) == [1, 2]


def _random_tmat(field, rng, r, c, K):
    return [[TruncPoly(field, [field.random(rng) for _ in range(K)])
             for _ in range(c)] for _ in range(r)]


def _random_invertible_tmat(field, rng, n, K):
    while True:
        A = _random_tmat(field, rng, n, n, K)
        try:
            la.inverse(TruncRing(field, K), A)
            return A
        except ValueError:
            continue


def test_smith_multiply_back_oracle():
    rng = random.Random(9)
    for _ in range(25):
        A = _random_tmat(F3, rng, 3, 3, 3)
        U, D, V = smith_form_t(A)
        assert la.mat_eq(la.mat_mul(la.mat_mul(U, A), V), D)
        # U, V invertible over the ring
        la.inverse(TruncRing(F3, 3), U)
        la.inverse(TruncRing(F3, 3), V)
        divs = smith_divisors(D)
        assert divs == sorted(divs)
        # off-diagonal zero
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert not D[i][j]


def test_smith_divisors_invariant_under_units():
    rng = random.Random(11)
    for _ in range(10):
        A = _random_tmat(F3, rng, 3, 4, 3)
        _, D, _ = smith_form_t(A)
        base = smith_divisors(D, 4)
        L = _random_invertible_tmat(F3, rng, 3, 3)
        R = _random_invertible_tmat(F3, rng, 4, 3)
        _, D2, _ = smith_form_t(la.mat_mul(la.mat_mul(L, A), R))
        assert smith_divisors(D2, 4) == base


def test_tmat_inverse_roundtrip():
    rng = random.Random(13)
    R = TruncRing(F5, 3)
    A = _random_invertible_tmat(F5, rng, 4, 3)
    assert la.mat_eq(la.mat_mul(A, la.inverse(R, A)), la.identity(R, 4))


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "QQ"])
def test_ring_inverse_rejects_singular_reduction(field):
    # t·I and a unit matrix with one row a multiple of t are invertible over
    # F but not over F[t]/(t^3): their reductions mod t are singular
    R = TruncRing(field, 3)
    t = TruncPoly.t(field, 3)
    with pytest.raises(ValueError):
        la.inverse(R, la.scal_mul(t, la.identity(R, 3)))
    A = la.identity(R, 3)
    A[2] = [t, t * t, t + t]
    with pytest.raises(ValueError):
        la.inverse(R, A)


def _random_full_row_rank_tmat(field, rng, r, c, K):
    """Random r x c matrix over R_K whose reduction mod t has rank r."""
    while True:
        A = _random_tmat(field, rng, r, c, K)
        if la.rank(field, [[x.constant() for x in row] for row in A]) == r:
            return A


@pytest.mark.parametrize("field", [F5, QQ], ids=["F5", "QQ"])
def test_tmat_solve_right_unit_pivots(field):
    rng = random.Random(21)
    R = TruncRing(field, 3)
    t = TruncPoly.t(field, 3)
    for _ in range(8):
        r = rng.randint(1, 3)
        c = r + rng.randint(0, 2)
        A = _random_full_row_rank_tmat(field, rng, r, c, 3)
        b = [TruncPoly(field, [field.random(rng) for _ in range(3)])
             for _ in range(r)]
        sol = la.solve(R, A, b)
        assert sol is not None
        y = sol.particular
        assert la.mat_eq(la.mat_mul(A, [[v] for v in y]), [[v] for v in b])
        # t·(row 0) · yᵀ lies in (t), so it never equals the unit t·b_0 + 1
        A_bad = A + [[t * x for x in A[0]]]
        b_bad = b + [t * b[0] + 1]
        assert la.solve(R, A_bad, b_bad) is None
        # an inconsistency of positive valuation is no unit pivot: the
        # returned vector fails A·yᵀ = b, which callers must check
        b_bad = b + [t * b[0] + t * t]
        y = la.solve(R, A_bad, b_bad).particular
        assert not la.mat_eq(la.mat_mul(A_bad, [[v] for v in y]),
                             [[v] for v in b_bad])


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        la.solve(QQ, la.identity(QQ, 3), [QQ(1)] * 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_tp_unit_inverse_property(coeffs):
    from hypothesis import assume
    assume(coeffs[0] != 0)
    a = tp(QQ, 5, *coeffs)
    assert a * a.inv() == TruncPoly.one(QQ, 5)
    assert (a * a).valuation() == 0
