"""The int kernels of `linalg` against the generic operator path.

Over QQ and GF(p), `mat_mul`, `vec_mat` and `rref` (so also `inverse`,
`solve`, `rank` and `right_kernel`) run on ints; over GF(p)[t]/(t^K) and
QQ[t]/(t^K) `mat_mul` and `vec_mat` do, and `inverse` lifts t-adically,
while elimination raises TypeError.  `_mat_mul_generic` and the tests'
`ring_oracles.rref_generic` are the reference.  Every comparison checks
values and element types, entry by entry, down to the coefficients of a
TruncPoly.
A many-right-hand-side `solve` is also checked against single-right-hand-side
solves, and `nilpotent_powers` and `t_chain` against loops of boxed
`mat_mul` and `vec_mat` products.
"""
import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sntmod import linalg as la
from sntmod.fields import QQ, GF
from sntmod.tpoly import TruncPoly, TruncRing

from ring_oracles import boxed_inverse, rref_generic

FIELDS = [QQ, GF(3), GF(5)]


def _typed(x):
    """Nested structure with every scalar replaced by (type, value), and
    every TruncPoly by its field and typed coefficients."""
    if isinstance(x, (list, tuple)):
        return [_typed(y) for y in x]
    if isinstance(x, TruncPoly):
        return (TruncPoly, x.field, _typed(x.coeffs))
    return (type(x), x)


@contextmanager
def _generic_rref():
    """Route `inverse`, `solve`, `rank`, `right_kernel` and the rest through
    the generic rref."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "rref", rref_generic)
        yield


@st.composite
def scalars(draw, field):
    if field == QQ:
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return field(draw(st.integers(0, field.p - 1)))


@st.composite
def matrices(draw, field, n, m):
    """An n x m matrix: random, sparse, zero, or of rank r < min(n, m)
    (singular when square)."""
    shape = draw(st.sampled_from(["random", "sparse", "zero", "low-rank"]))
    if shape == "zero":
        return la.zeros(field, n, m)
    if shape == "low-rank":
        r = draw(st.integers(0, min(n, m) - 1))
        if r == 0:
            return la.zeros(field, n, m)
        X = draw(matrices(field, n, r))
        Y = draw(matrices(field, r, m))
        return la._mat_mul_generic(X, Y)
    entry = scalars(field)
    if shape == "sparse":
        entry = st.one_of(st.just(field.zero), entry)
    return [[draw(entry) for _ in range(m)] for _ in range(n)]


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS + Q_RINGS))
    n, m, k = (draw(st.integers(1, 5)) for _ in range(3))
    matrix = ring_matrices if isinstance(field, TruncRing) else matrices
    return field, draw(matrix(field, n, m)), draw(matrix(field, m, k))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_kernels_match_generic_path(case):
    field, A, B = case
    assert _typed(la.mat_mul(A, B)) == _typed(la._mat_mul_generic(A, B))
    for v in A:
        assert _typed(la.vec_mat(v, B)) == \
            _typed(la._mat_mul_generic([v], B)[0])
    for M in (A, B):
        if isinstance(field, TruncRing):
            with pytest.raises(TypeError):
                la.rref(field, M)
            continue
        R, piv = la.rref(field, M)
        R0, piv0 = rref_generic(field, M)
        assert piv == piv0
        assert _typed(R) == _typed(R0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_inverse_and_solve_match_generic_path(data):
    field = data.draw(st.sampled_from(FIELDS))
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    S = data.draw(matrices(field, n, n))
    A = data.draw(matrices(field, n, m))
    b = [data.draw(scalars(field)) for _ in range(n)]

    def run():
        try:
            inv = la.inverse(field, S)
        except ValueError:
            inv = "singular"
        return (inv, la.solve(field, A, [b]), la.right_kernel(field, A),
                la.rank(field, A))
    inv, sol, ker, rk = run()
    with _generic_rref():
        inv0, sol0, ker0, rk0 = run()
    assert _typed(inv) == _typed(inv0)
    if sol is None or sol0 is None:
        assert sol is sol0
    else:
        assert _typed(sol) == _typed(sol0)
    assert _typed(ker) == _typed(ker0)
    assert rk == rk0
    if inv != "singular":
        assert la.mat_eq(la._mat_mul_generic(S, inv), la.identity(field, n))


Q_RINGS = [TruncRing(QQ, K) for K in (1, 2, 3, 4)]
RINGS = [TruncRing(GF(p), K) for p in (3, 5) for K in (1, 2, 3, 4)] + Q_RINGS


@st.composite
def ring_elements(draw, R, multiple_of_t=False):
    """A TruncPoly of R, a multiple of t (so not a unit) if asked; over QQ
    its coefficients have signed small or large numerators and mixed
    denominators."""
    if R.field == QQ:
        num = st.one_of(st.integers(-6, 6), st.integers(-10 ** 30, 10 ** 30))
        cs = [Fraction(draw(num), draw(st.integers(1, 12))) for _ in range(R.K)]
    else:
        cs = [draw(st.integers(0, R.field.p - 1)) for _ in range(R.K)]
    if multiple_of_t:
        cs[0] = 0
    return TruncPoly(R.field, [R.field(c) for c in cs], R.K)


@st.composite
def ring_matrices(draw, R, n, m):
    """An n x m matrix over R: random, sparse, zero, of rank r < min(n, m),
    or with no unit in its first column."""
    shape = draw(st.sampled_from(["random", "sparse", "zero", "low-rank", "no-unit"]))
    if shape == "zero":
        return la.zeros(R, n, m)
    if shape == "low-rank":
        r = draw(st.integers(0, min(n, m) - 1))
        if r == 0:
            return la.zeros(R, n, m)
        return la._mat_mul_generic(draw(ring_matrices(R, n, r)),
                                   draw(ring_matrices(R, r, m)))
    entry = ring_elements(R)
    if shape == "sparse":
        entry = st.one_of(st.just(R.zero), entry)
    A = [[draw(entry) for _ in range(m)] for _ in range(n)]
    if shape == "no-unit":
        for row in A:
            row[0] = draw(ring_elements(R, multiple_of_t=True))
    return A


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_kernel_matches_generic_path(data):
    """Products over GF(p)[t]/(t^K) and QQ[t]/(t^K) run on ints; `inverse`
    lifts t-adically: S is invertible exactly when S mod t is, and then
    S·S⁻¹ = I and S⁻¹ is what the boxed elimination gives."""
    R = data.draw(st.sampled_from(RINGS))
    n, m, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    A = data.draw(ring_matrices(R, n, m))
    B = data.draw(ring_matrices(R, m, k))
    S = data.draw(ring_matrices(R, n, n))
    assert la._int_kind((A, B)) == (R.field.char, R.K)
    assert _typed(la.mat_mul(A, B)) == _typed(la._mat_mul_generic(A, B))
    for v in A:
        assert _typed(la.vec_mat(v, B)) == \
            _typed(la._mat_mul_generic([v], B)[0])
    if la.rank(R.field, [[x.coeffs[0] for x in row] for row in S]) < n:
        with pytest.raises(ValueError, match="singular"):
            la.inverse(R, S)
        return
    inv = la.inverse(R, S)
    assert la.mat_eq(la._mat_mul_generic(S, inv), la.identity(R, n))
    assert _typed(inv) == _typed(boxed_inverse(R, S))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solve_many_matches_single_solves(data):
    """One elimination for every right-hand side gives what one generic
    elimination per right-hand side gives, and None exactly when one of the
    systems is inconsistent.  (Systems over F[t]/(t^K) are `_lift_solve`'s,
    checked in test_ring.py.)"""
    R = data.draw(st.sampled_from(FIELDS))
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    A = data.draw(matrices(R, n, m))
    entry, matrix = scalars(R), matrices
    B = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):      # consistent: b = A·xᵀ
            x = data.draw(matrix(R, m, 1))
            B.append([row[0] for row in la._mat_mul_generic(A, x)])
        else:
            B.append([data.draw(entry) for _ in range(n)])
    sols = la.solve(R, A, B)
    with _generic_rref():
        singles = [la.solve(R, A, [b]) for b in B]
    if None in singles:
        assert sols is None
    else:
        assert _typed(sols) == _typed([s[0] for s in singles])


def test_solve_edge_cases():
    F5 = GF(5)
    A = [[F5(1), F5(2)], [F5(2), F5(4)]]
    assert la.solve(F5, A, []) == []                 # no right-hand sides
    assert la.solve(F5, [], [[], []]) == [[], []]    # zero rows
    assert la.solve(F5, [], []) == []
    # no unknowns: only the zero vector is solvable
    assert la.solve(F5, [[], []], [[F5(0), F5(0)]]) == [[]]
    assert la.solve(F5, [[], []], [[F5(0), F5(0)], [F5(0), F5(1)]]) is None
    # one inconsistent system among consistent ones
    good, bad = [F5(1), F5(2)], [F5(1), F5(0)]
    assert la.solve(F5, A, [good, good]) == [[F5(1), F5(0)]] * 2
    assert la.solve(F5, A, [good, bad]) is None
    assert la.solve(F5, A, [bad, good]) is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        la.solve(F5, A, [good, [F5(1)]])


def test_kernel_chosen_from_every_entry():
    F3, F5 = GF(3), GF(5)
    q = [[Fraction(1, 2), Fraction(3)], [Fraction(0), Fraction(-1, 3)]]
    assert la._int_kind((q,)) == 0
    assert la._int_kind(([[F5(1), F5(2)]], [[F5(0)]])) == 5
    # one odd entry, last in the last block, sends the input to the generic
    # path
    assert la._int_kind((q, [[Fraction(1), 1]])) is None
    assert la._int_kind(([[F5(1), F5(2)]], [[F3(0)]])) is None
    assert la._int_kind(([[F5(1), Fraction(2)]],)) is None
    assert la._int_kind(([[TruncPoly(F5, [1], 2)]],)) is None
    assert la._int_kind(([], [[]])) is None


def test_ring_kernel_needs_one_prime_and_one_precision():
    F3, F5 = GF(3), GF(5)
    a = TruncPoly(F5, [F5(1), F5(2)], 2)
    assert la._int_kind(([[a, a]],)) == (5, 2)
    q = TruncPoly(QQ, [Fraction(1), Fraction(-2, 3)])
    assert la._int_kind(([[q, q]], [[TruncPoly(QQ, [Fraction(0)] * 2)]])) == (0, 2)
    # with mixed precisions, primes or kinds, or a coefficient over Q that
    # is not a Fraction: the generic path
    assert la._int_kind(([[q]], [[a]])) is None
    assert la._int_kind(([[a, q]],)) is None
    assert la._int_kind(([[q]], [[TruncPoly(QQ, [Fraction(1)] * 3)]])) is None
    assert la._int_kind(([[q, TruncPoly(QQ, [Fraction(1), 2])]],)) is None
    assert la._int_kind(([[TruncPoly(QQ, [1.5, Fraction(1)])]],)) is None
    assert la._int_kind(([[q, Fraction(1)]],)) is None
    assert la._int_kind(([[a]], [[TruncPoly(F5, [F5(1)] * 3)]])) is None
    assert la._int_kind(([[a]], [[TruncPoly(F3, [F3(1), F3(2)])]])) is None
    assert la._int_kind(([[a, F5(1)]],)) is None
    assert la._int_kind(([[a, TruncPoly(F5, [F5(1), F3(1)])]],)) is None


def test_fraction_int_mix_takes_generic_path():
    # row 0 of A and column 0 of B are ints: the generic path keeps an int
    A = [[1, 2], [Fraction(1, 2), 3]]
    B = [[1, Fraction(1, 3)], [4, 5]]
    out = la.mat_mul(A, B)
    assert type(out[0][0]) is int
    assert _typed(out) == _typed(la._mat_mul_generic(A, B))
    assert _typed(la.vec_mat(A[0], B)) == \
        _typed(la._mat_mul_generic([A[0]], B)[0])
    # elimination runs on one kind only
    M = [[2, 4, 0], [0, 0, 0], [Fraction(1, 2), 1, 3]]
    with pytest.raises(TypeError):
        la.rref(QQ, M)


def test_mixed_primes_still_rejected():
    with pytest.raises(ValueError, match="mixed prime fields"):
        la.mat_mul([[GF(3)(1)]], [[GF(5)(1)]])


def test_truncring_matrix_takes_generic_path():
    F5 = GF(5)
    R = TruncRing(F5, 3)
    A = [[TruncPoly(F5, [1, 2], 3), TruncPoly(F5, [0, 1], 3)],
         [TruncPoly(F5, [3], 3), TruncPoly(F5, [2, 0, 4], 3)]]
    B = [[TruncPoly(F5, [4, 1, 1], 3), R.zero],
         [R.one, TruncPoly(F5, [0, 0, 2], 3)]]
    assert _typed(la.mat_mul(A, B)) == _typed(la._mat_mul_generic(A, B))
    assert _typed(la.vec_mat(A[0], B)) == \
        _typed(la._mat_mul_generic([A[0]], B)[0])
    # no elimination over the ring, nor an inverse of int coefficients
    for run in (lambda: la.rref(R, A), lambda: la.solve(R, A, [A[0]]),
                lambda: la.inverse(R, A)):
        with pytest.raises(TypeError):
            run()
    # boxed coefficients: the lifted inverse is the boxed elimination's
    Ab = [[TruncPoly(F5, [F5(c) for c in x.coeffs]) for x in row] for row in A]
    inv = la.inverse(R, Ab)
    assert _typed(inv) == _typed(boxed_inverse(R, Ab)) == _typed(boxed_inverse(R, A))
    assert la.mat_eq(la.mat_mul(A, inv), la.identity(R, 2))


# --------------------------------------------------------------------------
# powers of a nilpotent matrix
# --------------------------------------------------------------------------

def boxed_nilpotent_powers(field, A):
    out, P = [], la.identity(field, len(A))
    while not la.is_zero_mat(P):
        if len(out) == len(A):
            raise ValueError("matrix is not nilpotent")
        out.append(P)
        P = la.mat_mul(P, A)
    return out


def boxed_t_chain(A, v):
    out, v = [], list(v)
    while any(v):
        if len(out) == len(A):
            raise ValueError("matrix is not nilpotent")
        out.append(v)
        v = la.vec_mat(v, A)
    return out


def _nilpotent(field, n, rng):
    """P·N·P⁻¹ for a random strictly upper triangular N and invertible P."""
    N = [[field(rng.randint(-2, 2)) if j > i else field.zero for j in range(n)]
         for i in range(n)]
    while True:
        P = [[field(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if la.rank(field, P) == n:
            return la.mat_mul(la.mat_mul(P, N), la.inverse(field, P))


@pytest.mark.parametrize("field", FIELDS)
def test_powers_match_boxed_loops(field):
    rng = random.Random(12)
    for n in (1, 2, 4, 7):
        A = _nilpotent(field, n, rng)
        assert _typed(la.nilpotent_powers(field, A)) == \
            _typed(boxed_nilpotent_powers(field, A))
        for _ in range(5):
            v = [field(rng.randint(-2, 2)) for _ in range(n)]
            chain = la.t_chain(A, v)
            assert _typed(chain) == _typed(boxed_t_chain(A, v))
            # the first row is v's own entries, not copies of them
            assert all(a is b for a, b in zip(chain[0] if chain else [], v))
        assert la.t_chain(A, [field.zero] * n) == []
    A = la.identity(field, 3)
    A[0][1] = field.one
    for run in (lambda: la.nilpotent_powers(field, A),
                lambda: la.t_chain(A, [field.zero, field.zero, field.one])):
        with pytest.raises(ValueError, match="not nilpotent"):
            run()
    assert la.nilpotent_powers(field, []) == []


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_powers_of_ring_matrices_match_boxed_loops(field):
    # TruncPoly entries (F_p[t]/(t^K) or Q[t]/(t^K)) take the operator path
    R = TruncRing(field, 2)
    t = R.one.shift(1)
    A = [[R.zero, R.one + t, t], [R.zero, R.zero, R(2)], [R.zero, R.zero, R.zero]]
    assert _typed(la.nilpotent_powers(R, A)) == _typed(boxed_nilpotent_powers(R, A))
    assert len(la.nilpotent_powers(R, A)) == 3
    for v in ([R.one, R.zero, t], [R.zero, t, R.one], [R.zero] * 3):
        assert _typed(la.t_chain(A, v)) == _typed(boxed_t_chain(A, v))
    with pytest.raises(ValueError, match="not nilpotent"):
        la.t_chain([[R.one]], [t])


# --------------------------------------------------------------------------
# int helpers of the t-Lagrangian enumeration
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5])
def test_affine_family_runs_in_product_order(p):
    rng = random.Random(p)
    for b in range(4):
        A0, *As = [[[rng.randrange(-9, 9) for _ in range(4)] for _ in range(3)]
                   for _ in range(b + 1)]
        for A in As[::2]:
            A[1] = [p, -2 * p, 0, p]        # a step row that is 0 mod p
        expect = [[[(x + sum(c * A[i][j] for c, A in zip(cs, As))) % p
                    for j, x in enumerate(row)] for i, row in enumerate(A0)]
                  for cs in itertools.product(range(p), repeat=b)]
        inputs, points = repr((A0, As)), []
        for P in la._affine_family(p, A0, As):
            points.append([r[:] for r in P])
            P[0][0] = P[-1].pop()       # each point is fresh
        assert points == expect and repr((A0, As)) == inputs
    assert list(la._affine_family(p, [], [[], []])) == [[]] * p * p


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_isotropy_test_matches_boxed_product(data):
    """The packed test of U·G·Uᵀ ≡ 0 mod p against the boxed product, on
    random U and on U inside the left kernel of G (where it must hold)."""
    p = data.draw(st.sampled_from([3, 5, 7, 101]))
    F = GF(p)
    n = data.draw(st.integers(1, 6))
    residues = st.integers(0, p - 1)
    G = data.draw(st.lists(st.lists(residues, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    U = data.draw(st.lists(st.lists(residues, min_size=n, max_size=n), max_size=4))
    isotropic = la._isotropy_test(p, G)
    for rows in (U, [[x.v for x in v]
                     for v in la.right_kernel(F, la.transpose(la.change_ring(F, G)))]):
        boxed = la.change_ring(F, rows)
        expect = not rows or la.is_zero_mat(
            la.mat_mul(la.mat_mul(boxed, la.change_ring(F, G)), la.transpose(boxed)))
        assert isotropic(rows) == expect
