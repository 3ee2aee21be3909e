"""Exact arithmetic layer: fields, linear algebra, truncated polynomials."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sntmod import linalg as la
from sntmod.fields import QQ, GF, CharacteristicTwoError
from sntmod.sntmodule import _smith_orders
from sntmod.tpoly import TruncPoly, TruncRing, tp

from ring_oracles import (NotAUnitError, boxed_inverse, boxed_smith_orders, boxed_solve,
                          poly_inv, smith_divisors, smith_form_t, valuation)

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


def test_gf_agrees_with_trial_division():
    def is_prime(p):
        return p > 1 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    for p in range(-3, 2000):
        if p == 2:
            continue
        if is_prime(p):
            assert GF(p).p == p
        else:
            with pytest.raises(ValueError, match="not prime"):
                GF(p)


def test_gf_decides_large_p_below_the_bound():
    from sntmod.fields import _MR_BOUND
    for p in (2 ** 19 - 1, 2 ** 31 - 1, 2 ** 61 - 1):     # Mersenne primes
        assert GF(p).p == p
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; and 2, ..., 23
    for n in (2047, 3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="not prime"):
            GF(n)
    # at and above the bound the bases no longer decide
    for n in (_MR_BOUND, _MR_BOUND + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="too large"):
            GF(n)


def test_fp_arithmetic():
    a, b = F5(3), F5(4)
    assert a + b == F5(2)
    assert a * b == F5(2)
    assert a / b == a * F5(4) ** 3
    assert (F5.one / b) * b == F5.one
    assert -a == F5(2)
    with pytest.raises(ZeroDivisionError):
        a / F5(0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fp_hash_agrees_with_int_equality(p):
    """Residues in [0, p) equal their ints, so they hash alike (and the
    residues of other primes stay distinct set members)."""
    F = GF(p)
    for a in range(p):
        assert F(a) == a and hash(F(a)) == hash(a)
        assert a in {F(a)} and F(a) in {a}
        assert F(a + p) in {F(a)}
    assert len({F(1), GF(11)(1)}) == 2


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
    assert la.solve(QQ, A, [b]) == [b]
    assert la.right_kernel(QQ, A) == [] and la.rank(QQ, A) == 4


def test_solve_inconsistent():
    A = la.zeros(QQ, 3, 3)
    b = [QQ(1), QQ(0), QQ(0)]
    assert la.solve(QQ, A, [b]) is None


@pytest.mark.parametrize("field", [QQ, F5])
def test_solve_substitution_oracle(field):
    rng = random.Random(42)
    for _ in range(20):
        A = _random_matrix(field, rng, 4, 6)
        x0 = [field.random(rng, 4) for _ in range(6)]
        b = [sum((A[i][j] * x0[j] for j in range(6)), field.zero) for i in range(4)]
        sol = la.solve(field, A, [b])
        assert sol is not None
        resid = [sum((A[i][j] * sol[0][j] for j in range(6)), field.zero)
                 - b[i] for i in range(4)]
        assert all(not r for r in resid)
        ker = la.right_kernel(field, A)
        for k in ker:
            img = [sum((A[i][j] * k[j] for j in range(6)), field.zero)
                   for i in range(4)]
            assert all(not r for r in img)
        assert len(ker) == 6 - la.rank(field, A)


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
    t = tp(QQ, 4, 0, 1)
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
    assert poly_inv(a).coeffs == (QQ(1), QQ(-1), QQ(1))
    c = tp(QQ, 3, 5)
    assert poly_inv(c).coeffs == (Fraction(1, 5), QQ(0), QQ(0))
    with pytest.raises(NotAUnitError):
        poly_inv(tp(QQ, 3, 0, 1))


def test_tp_inv_multiply_back():
    rng = random.Random(1)
    for _ in range(20):
        coeffs = [QQ.random(rng) for _ in range(5)]
        if not coeffs[0]:
            coeffs[0] = QQ(1)
        a = TruncPoly(QQ, coeffs)
        assert a * poly_inv(a) == TruncPoly.one(QQ, 5)


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


def _typed(x):
    """Nested lists with every TruncPoly as its typed coefficients."""
    if isinstance(x, list):
        return [_typed(y) for y in x]
    return x.field, [(type(c), c) for c in x.coeffs]


def _relation_rows(field, A, rng):
    """The coefficient rows of A as ints, the input of `_smith_orders`; over
    Q each row times a random nonzero int, which must not matter."""
    kind = field.char
    rows = la._to_ints(kind, [[c for a in row for c in a.coeffs] for row in A])[0]
    if not kind:
        rows = [[x * c for x in row] for row, c in
                zip(rows, (rng.choice([-3, -1, 2, 5]) for _ in rows))]
    return rows


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=["F3", "F5", "Q"])
def test_smith_orders_match_full_smith_form(field):
    """`_smith_orders` on int layers against its boxed copy and the full
    Smith form: the orders are its divisors and V⁻¹ the ring inverse of its
    V, in values and entry types, for K = 1, ..., 4; no rows (no
    relations) give [K]*r and the identity."""
    rng = random.Random(17)
    shapes = [(0, 3, 2), (1, 3, 1), (2, 4, 3), (3, 3, 3), (4, 2, 2), (2, 2, 1),
              (3, 5, 4), (3, 3, 2)]
    for nr, r, K in shapes:
        R = TruncRing(field, K)
        for trial in range(8):
            A = _random_tmat(field, rng, nr, r, K)
            if trial == 0:
                A = [[R.zero] * r for _ in range(nr)]
            elif trial % 3 == 0:   # sparse: valuation ties and zero entries
                A = [[a if rng.random() < 0.4 else R.zero for a in row] for row in A]
            elif trial % 3 == 1:   # no unit entries
                A = [[a.shift(1) for a in row] for row in A]
            orders, Vinv = _smith_orders(field.char, _relation_rows(field, A, rng), r, K)
            Vinv = [[TruncPoly(field, cs[i * K:(i + 1) * K]) for i in range(r)]
                    for cs in (la._from_ints(field.char, [vec], den)[0] for vec, den in Vinv)]
            want_orders, want_Vinv = boxed_smith_orders(field, A, r, K)
            assert orders == want_orders and _typed(Vinv) == _typed(want_Vinv)
            if nr == 0:
                assert orders == [K] * r
                assert _typed(Vinv) == _typed(la.identity(R, r))
                continue
            _, D, V = smith_form_t(A)
            assert orders == smith_divisors(D, r)
            assert _typed(Vinv) == _typed(boxed_inverse(R, V))


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
    t = tp(field, 3, 0, 1)
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
    """Ring systems solve by t-adic lifting (`linalg._lift_solve`): when A
    mod t has full row rank it returns what the boxed unit-pivot
    elimination returns, and A·yᵀ = b; otherwise None, where the boxed
    route returns None or a non-solution."""
    rng = random.Random(21)
    R = TruncRing(field, 3)
    t = tp(field, 3, 0, 1)
    kind = (field.char, 3)

    def lift(A, b):
        X = la._lift_solve(field.char, la._to_layers(kind, A),
                           la._to_layers(kind, [[v] for v in b]))
        return None if X is None else [row[0] for row in la._from_layers(kind, field, *X)]
    for _ in range(8):
        r = rng.randint(1, 3)
        c = r + rng.randint(0, 2)
        A = _random_full_row_rank_tmat(field, rng, r, c, 3)
        b = [TruncPoly(field, [field.random(rng) for _ in range(3)])
             for _ in range(r)]
        y = lift(A, b)
        assert _typed([y]) == _typed(boxed_solve(R, A, [b]))
        assert la.mat_eq(la.mat_mul(A, [[v] for v in y]), [[v] for v in b])
        # t·(row 0) · yᵀ lies in (t), so it never equals the unit t·b_0 + 1
        A_bad = A + [[t * x for x in A[0]]]
        b_bad = b + [t * b[0] + 1]
        assert boxed_solve(R, A_bad, [b_bad]) is None
        assert lift(A_bad, b_bad) is None
        # an inconsistency of positive valuation is no unit pivot: the boxed
        # route returns a vector that fails A·yᵀ = b, the lift none
        b_bad = b + [t * b[0] + t * t]
        y = boxed_solve(R, A_bad, [b_bad])[0]
        assert not la.mat_eq(la.mat_mul(A_bad, [[v] for v in y]),
                             [[v] for v in b_bad])
        assert lift(A_bad, b_bad) is None


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=["F3", "F5", "Q"])
def test_ring_inverse_lift_matches_boxed_elimination(field):
    """`linalg.inverse` over F[t]/(t^K) by t-adic lifting against the boxed
    unit-pivot elimination, in values and entry types, for K = 1, ..., 4;
    a matrix singular mod t raises the same error on both routes."""
    rng = random.Random(31)
    for K in (1, 2, 3, 4):
        R = TruncRing(field, K)
        for n in (1, 2, 3, 4):
            for trial in range(6):
                A = _random_tmat(field, rng, n, n, K)
                if trial == 0:      # singular mod t: row 0 a multiple of t
                    A[0] = [a.shift(1) for a in A[0]]
                try:
                    want = boxed_inverse(R, A)
                except ValueError as e:
                    with pytest.raises(ValueError, match=str(e)):
                        la.inverse(R, A)
                    continue
                assert _typed(la.inverse(R, A)) == _typed(want)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        la.solve(QQ, la.identity(QQ, 3), [[QQ(1)] * 4])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_tp_unit_inverse_property(coeffs):
    from hypothesis import assume
    assume(coeffs[0] != 0)
    a = tp(QQ, 5, *coeffs)
    assert a * poly_inv(a) == TruncPoly.one(QQ, 5)
    assert valuation(a * a) == 0
