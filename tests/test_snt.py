"""Structure theory: standard planes, decomposition, submodules,
t-Lagrangian subspaces and the projection fibration."""
import functools
import itertools
import random
from collections import Counter

import pytest

from sntmod import linalg as la
from sntmod.fields import QQ, GF, CharacteristicTwoError
from sntmod.sntmodule import (InvalidModuleError, LagrangianFlag,
                              NotTStableError, SntModule,
                              decompose, direct_sum, enumerate_t_lagrangians,
                              graph_of_rho, is_isotropic, is_t_lagrangian,
                              jordan_type, make_H, quasi_basis,
                              rho_of, self_dual_map_basis,
                              self_dual_map_space_dim, standard_module,
                              standard_t_lagrangian)
from sntmod.sntmodule import _all_rref_subspaces, _perp_and_reps
from sntmod.spgroup import block_profile, random_element
from sntmod.tpoly import TruncPoly

from ring_oracles import boxed_quasi_basis, t_chain

F3 = GF(3)
F5 = GF(5)


def unit(field, n, i):
    e = [field.zero] * n
    e[i] = field.one
    return e


def apply_t(M, x, times=1):
    for _ in range(times):
        x = la.vec_mat(x, M.t)
    return x


def t_on_minus(flag):
    """t on M_- coordinates (via M/M_+), as the flag boxes it."""
    return flag._t_minus


def t_on_plus(flag):
    """t on M_+ coordinates, boxed from the flag's int rows."""
    return la._from_ints(flag._kind, *flag._tp)


def pairing_minus_plus(flag):
    """The d x d matrix <minus_i, plus_j>, boxed from the flag's int rows."""
    return la._from_ints(flag._kind, *flag._pair)


def random_invertible(field, n, rng):
    while True:
        A = [[field(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            la.inverse(field, A)
            return A
        except ValueError:
            continue


def is_t_stable(M, rows):
    """The boxed stability check: the span of `rows` is t-stable exactly
    when its basis times T adds nothing to its rank."""
    span = [list(r) for r in la.rref_span(M.field, [list(r) for r in rows])]
    return la.rank(M.field, span + la.mat_mul(span, M.t)) == len(span)


def base_change(M, P):
    Pinv = la.inverse(M.field, P)
    return SntModule(M.field,
                     la.mat_mul(la.mat_mul(P, M.t), Pinv),
                     la.mat_mul(la.mat_mul(P, M.gram), la.transpose(P)))


# --------------------------------------------------------------------------
# standard planes
# --------------------------------------------------------------------------

def test_make_H1_is_symplectic_plane():
    H = make_H(QQ, 1)
    assert H.dim == 2
    assert la.is_zero_mat(H.t)
    assert H.validate() == []


def test_make_H2_gram_support():
    H = make_H(QQ, 2)
    nz = [(i, j) for i in range(4) for j in range(4) if H.gram[i][j]]
    assert len(nz) == 4
    assert all(H.gram[i][j] in (QQ(1), QQ(-1)) for i, j in nz)
    T2 = la.mat_mul(H.t, H.t)
    assert la.is_zero_mat(T2) and not la.is_zero_mat(H.t)


@pytest.mark.parametrize("k", range(1, 7))
def test_make_H_validates(k):
    assert make_H(QQ, k).validate() == []


def test_make_H_rejects_bad_k():
    with pytest.raises(ValueError):
        make_H(QQ, 0)


def test_direct_sum_shapes():
    M = direct_sum(make_H(QQ, 1), make_H(QQ, 1))
    assert M.dim == 4 and la.is_zero_mat(M.t)
    M2 = direct_sum(make_H(QQ, 3), make_H(QQ, 1))
    assert M2.dim == 8 and M2.K == 3
    assert M2.validate() == []


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(make_H(QQ, 1), make_H(F3, 1))


@pytest.mark.parametrize("ks", [(1, 1, 1), (2, 1), (3, 2, 2, 1)])
def test_standard_module_is_the_sum_of_its_planes(ks):
    # built on the plane rows directly, it is the block sum of its planes
    M = make_H(F3, ks[0])
    for k in ks[1:]:
        M = direct_sum(M, make_H(F3, k))
    S = standard_module(F3, ks)
    assert (S.t, S.gram, S.partition) == (M.t, M.gram, M.partition)


@pytest.mark.parametrize("ks,message", [
    ((), "empty partition"), ((1, 2), "partition must be nonincreasing"),
    ((0,), "k must be positive"), ((2, 0), "k must be positive"),
    ((-1,), "k must be positive"),
])
def test_standard_module_rejects_bad_partitions(ks, message):
    with pytest.raises(ValueError, match=message):
        standard_module(QQ, ks)


def _one_block_transposed(H):
    """H_2 with the t-action transposed on the e1 chain only."""
    T = [row[:] for row in H.t]
    T[0][1], T[1][0] = T[1][0], T[0][1]
    return SntModule(QQ, T, H.gram)


def test_validate_reports_problems():
    H = make_H(QQ, 2)
    sym = [row[:] for row in H.gram]
    sym[3][0] = sym[0][3]
    bad = SntModule(QQ, H.t, sym)
    assert "not alternating" in bad.validate()
    assert "t not self-dual" in _one_block_transposed(H).validate()
    not_nilpotent = SntModule(QQ, la.identity(QQ, 4), H.gram)
    assert "t_action not nilpotent" in not_nilpotent.validate()
    with pytest.raises(ValueError):
        not_nilpotent.K


def test_module_caches_agree_in_any_call_order():
    # T and G are converted, and T's powers taken, once per module by
    # whichever reader comes first; the others read the same cache
    G = make_H(QQ, 2).gram
    for order in itertools.permutations(("K", "validate", "decompose")):
        M = SntModule(QQ, la.identity(QQ, 4), G)
        for name in order:
            if name == "K":
                with pytest.raises(ValueError, match="not nilpotent"):
                    M.K
            elif name == "validate":
                assert "t_action not nilpotent" in M.validate()
            else:
                with pytest.raises(InvalidModuleError, match="t_action not nilpotent"):
                    decompose(M)
    readers = {"K": lambda M, g: M.K,
               "validate": lambda M, g: M.validate(),
               "decompose": lambda M, g: _typed(decompose(M))}
    rng = random.Random(12)
    for field, ks in [(QQ, (3, 2, 1)), (F5, (2, 2, 1)), (GF(3), (2, 1, 2))]:
        std = functools.reduce(direct_sum, (make_H(field, k) for k in ks))
        P, g = random_invertible(field, std.dim, rng), random_element(std, 0)
        for make, names in ((lambda: SntModule(field, std.t, std.gram, ks),
                             dict(readers, profile=_profile)),
                            (lambda: base_change(std, P), readers)):
            want = {name: f(make(), g) for name, f in names.items()}
            for order in itertools.permutations(names):
                M = make()
                for name in order:
                    assert names[name](M, g) == want[name]


def _profile(M, g):
    bp = block_profile(M, g)
    return _typed((bp.levels, bp.mults, bp.reduced, bp.bar_grams))


def boxed_validate(M):
    """`SntModule.validate` by boxed products and entrywise comparisons."""
    bad = []
    G, T, n = M.gram, M.t, M.dim
    if not la.mat_eq(la.transpose(G), [[-a for a in row] for row in G]):
        bad.append("not alternating")
    if any(bool(G[i][i]) for i in range(n)):
        bad.append("nonzero diagonal in gram")
    if la.rank(M.field, G) < n:
        bad.append("degenerate gram")
    try:
        la.nilpotent_powers(M.field, T)
    except ValueError:
        bad.append("t_action not nilpotent")
    if not la.mat_eq(la.mat_mul(T, G), la.mat_mul(G, la.transpose(T))):
        bad.append("t not self-dual")
    if n % 2 != 0:
        bad.append("odd dimension")
    return bad


@pytest.mark.parametrize("field", [QQ, F5])
def test_validate_matches_boxed_reference(field):
    # every single-entry perturbation of t and of the gram of a scrambled
    # module (about half of the gram ones mirrored, so that G stays
    # alternating), and a degenerate, an odd and an empty module: the same
    # violations in the same order
    rng = random.Random(5)
    M = base_change(standard_module(field, (2, 1)), random_invertible(field, 6, rng))
    z, o = field.zero, field.one
    modules = [SntModule(field, M.t, la.zeros(field, 6, 6)),    # degenerate
               SntModule(field, [[z]], [[o]]), SntModule(field, [], [])]
    for which in range(2):
        for a in range(6):
            for b in range(6):
                T, G = [r[:] for r in M.t], [r[:] for r in M.gram]
                X = (T, G)[which]
                X[a][b] = X[a][b] + field.random_nonzero(rng, 2)
                if which and a != b and rng.random() < 0.5:
                    G[b][a] = -G[a][b]                  # keep G alternating
                modules.append(SntModule(field, T, G))
    seen = set()
    for N in modules:
        assert N.validate() == boxed_validate(N)
        seen.update(N.validate())
    assert len(seen) == 6


def element_order(M, x):
    """Least k with x·t^k = 0; the zero vector has order 0."""
    return len(t_chain(M.t, x))


def test_element_order():
    H = make_H(QQ, 3)
    assert element_order(H, unit(QQ, 6, 0)) == 3
    assert element_order(H, unit(QQ, 6, 2)) == 1   # t^2 e1
    assert element_order(H, [QQ.zero] * 6) == 0


@pytest.mark.parametrize("field", [QQ, F5])
def test_t_chain_against_nilpotent_powers(field):
    rng = random.Random(31)
    for ks in ((3, 1), (2, 2, 1), (4, 2)):
        M = base_change(standard_module(field, ks),
                        random_invertible(field, 2 * sum(ks), rng))
        powers = la.nilpotent_powers(field, M.t)
        for _ in range(6):
            v = [field(rng.randint(-2, 2)) for _ in range(M.dim)]
            v = la.vec_mat(v, powers[rng.randrange(len(powers))])
            chain = t_chain(M.t, v)
            assert all(c == la.vec_mat(v, P) for c, P in zip(chain, powers))
            # the length is the least k with v·T^k = 0
            orders = [k for k, P in enumerate(powers) if not any(la.vec_mat(v, P))]
            assert len(chain) == (orders[0] if orders else len(powers))
        assert t_chain(M.t, [field.zero] * M.dim) == []
    with pytest.raises(ValueError):
        t_chain(la.identity(field, 3), [field.one, field.zero, field.zero])


@pytest.mark.parametrize("field", [QQ, F3, F5])
def test_K_counts_the_powers_of_t(field):
    # K is counted on int rows; it is the number of nonzero powers of T
    rng = random.Random(17)
    for ks in ((1,), (2,), (2, 1), (3, 1, 1), (4, 2)):
        M = standard_module(field, ks)
        for N in (M, base_change(M, random_invertible(field, M.dim, rng))):
            assert N.K == len(la.nilpotent_powers(field, N.t)) == ks[0]
    with pytest.raises(ValueError, match="not nilpotent"):
        SntModule(field, la.identity(field, 2), make_H(field, 1).gram).K


def test_self_duality_pairing_form():
    # <t xi, eta> = <xi, t eta> on random vectors
    rng = random.Random(0)
    M = direct_sum(make_H(QQ, 2), make_H(QQ, 1))
    for _ in range(20):
        x = [QQ.random(rng) for _ in range(6)]
        y = [QQ.random(rng) for _ in range(6)]
        assert M.pair(apply_t(M, x), y) == M.pair(x, apply_t(M, y))


def test_isotropy_of_t_powers():
    # <xi, t^k xi> = 0 for every xi and k >= 1
    rng = random.Random(4)
    M = direct_sum(make_H(QQ, 3), make_H(QQ, 2))
    for _ in range(20):
        x = [QQ.random(rng) for _ in range(M.dim)]
        for k in range(1, M.K + 1):
            assert not M.pair(x, apply_t(M, x, k))


# --------------------------------------------------------------------------
# decomposition
# --------------------------------------------------------------------------

def test_decompose_standard_H2_identity_iso():
    H = make_H(QQ, 2)
    ks, B = decompose(H)
    assert ks == (2,)
    assert la.mat_eq(B, la.identity(QQ, 4))


def test_decompose_permuted_H1H1():
    M = direct_sum(make_H(QQ, 1), make_H(QQ, 1))
    perm = [unit(QQ, 4, i) for i in (2, 0, 3, 1)]
    ks, _ = decompose(base_change(M, perm))
    assert ks == (1, 1)


def test_decompose_roundtrip_direct_sums():
    for a, b in [(3, 1), (2, 2), (4, 1)]:
        M = direct_sum(make_H(QQ, a), make_H(QQ, b))
        ks, _ = decompose(M)
        assert ks == tuple(sorted((a, b), reverse=True))


@pytest.mark.parametrize("field,seed", [(QQ, 1), (F5, 2)])
def test_decompose_base_changed_vs_jordan_oracle(field, seed):
    rng = random.Random(seed)
    for ks in [(3, 1), (2, 1), (2, 2, 1)]:
        M0 = standard_module(field, ks)
        M = base_change(M0, random_invertible(field, M0.dim, rng))
        got, B = decompose(M, seed=seed)
        assert got == ks
        # independent oracle: Jordan type of the nilpotent t is the doubled type
        doubled = tuple(sorted(ks + ks, reverse=True))
        assert jordan_type(field, M.t) == doubled
        # exact transport identities are asserted inside decompose; check again
        std = standard_module(field, ks)
        assert la.mat_eq(la.mat_mul(B, M.t), la.mat_mul(std.t, B))
        assert la.mat_eq(la.mat_mul(la.mat_mul(B, M.gram), la.transpose(B)),
                         std.gram)


def boxed_t_chain(T, v):
    out = []
    while any(v):
        out.append(v)
        v = la.vec_mat(v, T)
    return out


def boxed_decompose(M):
    """`decompose` on field elements: each pass builds a boxed chain for
    every row of C and solves by `solve` and `right_kernel`."""
    field, T, G = M.field, M.t, M.gram
    C = M.basis()
    parts = []
    while C:
        chain1 = max((boxed_t_chain(T, c) for c in C), key=len)
        N = len(chain1)
        GCt = la.mat_mul(G, la.transpose(C))
        target = [field.zero] * N
        target[N - 1] = field.one
        sol = la.solve(field, la.mat_mul(chain1, GCt), [target])
        chain2 = boxed_t_chain(T, la.vec_mat(sol[0], C))
        C = la.mat_mul(la.right_kernel(field, la.mat_mul(chain1 + chain2, GCt)), C)
        parts.append((N, chain1, chain2))
    parts.sort(key=lambda p: -p[0])
    return (tuple(p[0] for p in parts),
            [row for _, c1, c2 in parts for row in c1 + c2])


def _seeded_partition(n, rng):
    """A partition of n into at most three parts."""
    parts = []
    while sum(parts) < n and len(parts) < 2:
        parts.append(rng.randint(1, n - sum(parts)))
    if sum(parts) < n:
        parts.append(n - sum(parts))
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("field", [QQ, F5])
def test_decompose_matches_boxed_reference(field):
    # 30 scrambled modules per field, dims 6-16: (ks, B) value for value and
    # entry type for entry type
    rng = random.Random(97)
    for i in range(30):
        ks = _seeded_partition(3 + i % 6, rng)
        M = base_change(standard_module(field, ks),
                        random_invertible(field, 2 * sum(ks), rng))
        got_ks, got_B = decompose(M)
        ref_ks, ref_B = boxed_decompose(M)
        assert got_ks == ref_ks == ks
        assert _typed(got_B) == _typed(ref_B)


def test_decompose_rejects_invalid():
    M = _one_block_transposed(make_H(QQ, 2))
    with pytest.raises(ValueError) as info:
        decompose(M)
    assert isinstance(info.value, InvalidModuleError)
    assert info.value.violations == M.validate() != []
    assert str(info.value) == "invalid snt-module: " + ", ".join(M.validate())


# --------------------------------------------------------------------------
# quasi-bases
# --------------------------------------------------------------------------

def test_quasi_basis_H2_examples():
    H = make_H(QQ, 2)
    sub = quasi_basis(QQ, H.t, H.K, [unit(QQ, 4, 0), unit(QQ, 4, 1)])
    assert sub.partition == (2,)
    sub2 = quasi_basis(QQ, H.t, H.K, [unit(QQ, 4, 1)])
    assert sub2.partition == (1,)


def test_quasi_basis_requires_t_stability():
    H = make_H(QQ, 2)
    with pytest.raises(NotTStableError):
        quasi_basis(QQ, H.t, H.K, [unit(QQ, 4, 0)])


def test_quasi_basis_type_independent_of_generators():
    rng = random.Random(5)
    M = direct_sum(make_H(F3, 3), make_H(F3, 2))
    # a random t-stable span: t-closure of random vectors
    for _ in range(10):
        vecs = [[F3.random(rng) for _ in range(M.dim)] for _ in range(2)]
        closure = list(vecs)
        for v in vecs:
            w = v
            for _ in range(M.K):
                w = apply_t(M, w)
                closure.append(w)
        span = [list(r) for r in la.rref_span(F3, closure)]
        t1 = quasi_basis(F3, M.t, M.K, span).partition
        # different generating set for the same span
        mixer = random_invertible(F3, len(span), rng)
        gens2 = la.mat_mul(mixer, span)
        t2 = quasi_basis(F3, M.t, M.K, gens2).partition
        assert t1 == t2


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=["F3", "F5", "Q"])
def test_quasi_basis_matches_full_smith_form(field):
    """The quasi-basis from the trimmed Smith reduction equals the one read
    off the full Smith form and the ring inverse of V, in values, order and
    entry types, and takes no elimination over F[t]/(t^K)."""
    rng = random.Random(23)
    for ks in [(1,), (1, 1), (2,), (2, 1), (3, 1), (2, 2, 1), (3, 3, 2)]:
        M = standard_module(field, ks)
        for _ in range(6):
            vecs = [[field.random(rng) if rng.random() < 0.6 else field.zero
                     for _ in range(M.dim)] for _ in range(rng.randint(0, 3))]
            gens = [w for v in vecs for w in t_chain(M.t, v)]
            sub = quasi_basis(field, M.t, M.K, gens)
            assert _typed((sub.span, sub.quasi, sub.partition, sub.chains)) == \
                _typed(boxed_quasi_basis(field, M.t, M.K, gens))


@pytest.mark.parametrize("field", [F3, F5, QQ], ids=["F3", "F5", "Q"])
def test_quasi_basis_on_int_rows_matches_boxed_route(field):
    """The int route against the boxed one for K = 1, ..., 4 (and a
    precision above the nilpotency index): equal span, quasi rows, type and
    chains in values and entry types on t-stable generator sets, and
    NotTStableError on sets whose span t does not keep."""
    rng = random.Random(37)
    stable = unstable = 0
    for ks in [(1,), (1, 1), (2, 1), (3, 1), (2, 2, 1), (4, 2), (4, 3, 1)]:
        M = standard_module(field, ks)
        for K in (M.K, M.K + 1):
            for trial in range(6):
                vecs = [[field.random(rng) if rng.random() < 0.6 else field.zero
                         for _ in range(M.dim)] for _ in range(rng.randint(1, 3))]
                gens = vecs if trial % 2 else \
                    [w for v in vecs for w in t_chain(M.t, v)]
                if not is_t_stable(M, gens):
                    unstable += 1
                    with pytest.raises(NotTStableError):
                        quasi_basis(field, M.t, K, gens)
                    continue
                stable += 1
                sub = quasi_basis(field, M.t, K, gens)
                assert _typed((sub.span, sub.quasi, sub.partition, sub.chains)) == \
                    _typed(boxed_quasi_basis(field, M.t, K, gens))
    assert stable > 20 and unstable > 20


def test_quasi_basis_runs_no_ring_elimination(monkeypatch):
    """The relations, the Smith reduction and the rest run on int rows:
    quasi_basis builds no TruncPoly at all."""
    calls = []
    real = TruncPoly.__init__

    def counted(self, *args, **kw):
        calls.append(args)
        real(self, *args, **kw)
    monkeypatch.setattr(TruncPoly, "__init__", counted)
    rng = random.Random(29)
    subs = []
    for field, M in ((F3, direct_sum(make_H(F3, 3), make_H(F3, 2))),
                     (QQ, standard_module(QQ, (3, 2)))):
        for _ in range(10):
            vecs = [[field.random(rng) for _ in range(M.dim)] for _ in range(2)]
            subs.append(quasi_basis(field, M.t, M.K,
                                    [w for v in vecs for w in t_chain(M.t, v)]))
    assert calls == []
    assert any(len(sub.partition) > 1 for sub in subs)
    # the counter sees a TruncPoly when one is built
    TruncPoly.one(F3, 2)
    assert len(calls) == 1


def test_quasi_basis_chains_are_an_F_basis():
    rng = random.Random(8)
    M = direct_sum(make_H(F3, 3), make_H(F3, 2))
    assert quasi_basis(F3, M.t, M.K, []).chains == []
    for _ in range(10):
        vecs = [[F3.random(rng) for _ in range(M.dim)] for _ in range(2)]
        span = la.rref_span(F3, [w for v in vecs for w in t_chain(M.t, v)])
        sub = quasi_basis(F3, M.t, M.K, span)
        # the t-chains of the quasi-basis rows, of lengths k_i, chain by chain
        assert sub.chains == [w for h in sub.quasi for w in t_chain(M.t, h)]
        assert [len(t_chain(M.t, h)) for h in sub.quasi] == list(sub.partition)
        assert len(sub.chains) == sub.dim
        assert la.rref_span(F3, sub.chains) == sub.span


# --------------------------------------------------------------------------
# t-Lagrangian subspaces
# --------------------------------------------------------------------------

def test_standard_lagrangians_pass_validator():
    for ks in [(2,), (3, 1), (2, 1)]:
        M = standard_module(QQ, ks)
        import itertools
        for idx in itertools.product(*[range(k) for k in ks]):
            L = standard_t_lagrangian(M, idx)
            assert is_t_lagrangian(M, L)


def test_standard_lagrangian_H2_index1():
    M = make_H(QQ, 2)
    L = la.rref_span(QQ, standard_t_lagrangian(M, (1,)))
    expect = la.rref_span(QQ, [unit(QQ, 4, 1), unit(QQ, 4, 3)])  # te1, te2
    assert L == expect


def test_wrong_dimension_is_not_lagrangian():
    M = make_H(QQ, 2)
    assert not is_t_lagrangian(M, [unit(QQ, 4, 0)])


def test_plus_side_is_lagrangian():
    for k in range(1, 5):
        M = make_H(QQ, k)
        plus = [unit(QQ, 2 * k, k + s) for s in range(k)]
        assert is_t_lagrangian(M, plus)


def test_enumerate_H1_F3():
    ls = enumerate_t_lagrangians(make_H(F3, 1))
    assert len(ls) == 4            # the projective line over F_3
    assert len(set(ls)) == 4


def test_enumerate_char2_rejected():
    with pytest.raises(CharacteristicTwoError):
        make_H(GF(2), 2)


def test_enumerate_members_are_lagrangian():
    M = make_H(F3, 2)
    ls = enumerate_t_lagrangians(M)
    assert len(ls) == len(set(ls))
    for L in ls:
        assert is_t_lagrangian(M, [list(r) for r in L])


def test_enumeration_guard(monkeypatch):
    from sntmod.sntmodule import EnumerationGuardError
    monkeypatch.setenv("SNT_MAX_ENUM", "10000")
    with pytest.raises(EnumerationGuardError):
        enumerate_t_lagrangians(standard_module(F5, (2, 2, 2)))


def test_enumeration_guard_counts_scanned_subspaces(monkeypatch):
    # the guard counts the subspaces of M_- scanned plus the subspaces
    # emitted: 1 + 4 + 1 + 40 = 46 for (1, 1) and 1 + 13 + 13 + 1 + 148 = 176
    # for (2, 1) over F_3
    from sntmod.sntmodule import EnumerationGuardError
    for ks, n, found in (((1, 1), 46, 40), ((2, 1), 176, 148)):
        M = standard_module(F3, ks)
        monkeypatch.setenv("SNT_MAX_ENUM", str(n))
        assert len(enumerate_t_lagrangians(M)) == found
        monkeypatch.setenv("SNT_MAX_ENUM", str(n - 1))
        with pytest.raises(EnumerationGuardError):
            enumerate_t_lagrangians(M)


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_enumeration_guard_rejects_bad_limit(value, monkeypatch):
    monkeypatch.setenv("SNT_MAX_ENUM", value)
    with pytest.raises(ValueError):
        enumerate_t_lagrangians(standard_module(F3, (1, 1)))


# --------------------------------------------------------------------------
# the fibration enumerator against the full scan
# --------------------------------------------------------------------------

def _lagrangian_key(rows):
    return [[x.v for x in r] for r in rows]


@functools.lru_cache(maxsize=None)
def _scan_t_lagrangians(q, ks):
    """Oracle: every (dim/2)-dimensional subspace of F_q^dim of the standard
    module, kept when it is isotropic and t-stable, sorted as the
    enumerator sorts."""
    M = standard_module(GF(q), ks)
    found = [tuple(tuple(r) for r in A)
             for A in _all_rref_subspaces(M.field, M.dim, M.dim // 2)
             if is_isotropic(M, A) and is_t_stable(M, A)]
    return sorted(found, key=_lagrangian_key)


# scans of at most a few seconds each
SCANNED_TYPES = [(3, (1,)), (3, (1, 1)), (3, (2,)), (5, (1,)), (5, (1, 1)),
                 (5, (2,)), (3, (2, 1)), (3, (3,)), (3, (1, 1, 1))]


@pytest.mark.parametrize("q,ks", SCANNED_TYPES)
def test_fibration_enumeration_matches_scan(q, ks):
    F = GF(q)
    assert enumerate_t_lagrangians(standard_module(F, ks)) == \
        _scan_t_lagrangians(q, ks)


@pytest.mark.parametrize("q,ks", SCANNED_TYPES)
def test_fibration_enumeration_matches_scan_scrambled(q, ks):
    # U is a t-Lagrangian of M exactly when U·P⁻¹ is one of P·M·P⁻¹
    F = GF(q)
    M = standard_module(F, ks)
    P = random_invertible(F, M.dim, random.Random(sum(ks) * q))
    Pinv = la.inverse(F, P)
    expect = sorted((la.rref_span(F, la.mat_mul([list(r) for r in U], Pinv))
                     for U in _scan_t_lagrangians(q, ks)), key=_lagrangian_key)
    assert enumerate_t_lagrangians(base_change(M, P)) == expect


def _module(q, ks, scrambled):
    """The standard module of type ks over F_q, or its base change by the
    matrix the scrambled scan test uses."""
    F = GF(q)
    M = standard_module(F, ks)
    if not scrambled:
        return M
    return base_change(M, random_invertible(F, M.dim, random.Random(sum(ks) * q)))


def _typed(x):
    """Nested structure with container and entry types kept."""
    if isinstance(x, (list, tuple)):
        return type(x), [_typed(y) for y in x]
    return type(x), x


# --------------------------------------------------------------------------
# the boxed reference of the fibration: `LagrangianFlag`'s data, `rho_of`,
# `_perp_and_reps` and `self_dual_map_basis` on boxed matrices
# --------------------------------------------------------------------------

class BoxedFlag:
    """The checks and data of `LagrangianFlag` on boxed matrices, with the
    same ValueErrors: t on M_- through M/M_+, t on M_+ and the pairing."""

    def __init__(self, M, minus, plus):
        self.M = M
        self.minus, self.plus = [list(r) for r in minus], [list(r) for r in plus]
        d = M.dim // 2
        if len(self.minus) != d or len(self.plus) != d:
            raise ValueError("flag parts must have dimension dim/2")
        if not is_isotropic(M, self.minus) or not is_isotropic(M, self.plus):
            raise ValueError("flag parts must be isotropic")
        if not is_t_stable(M, self.plus):
            raise ValueError("M_+ must be t-stable")
        self.minus_t_stable = is_t_stable(M, self.minus)
        self.full_inv = la.inverse(M.field, self.minus + self.plus)
        self.t_minus = [self.split_coords(la.vec_mat(r, M.t))[0] for r in self.minus]
        self.t_plus = [self.split_coords(la.vec_mat(r, M.t))[1] for r in self.plus]
        self.pairing = la.mat_mul(la.mat_mul(self.minus, M.gram),
                                  la.transpose(self.plus))

    def split_coords(self, v):
        c = la.vec_mat(list(v), self.full_inv)
        d = self.M.dim // 2
        return c[:d], c[d:]


def boxed_lagrangian_span(M, rows):
    """The canonical basis of the span of `rows` when it is a t-Lagrangian
    subspace of M, else None: rank, `is_isotropic` and t-stability."""
    span = [list(r) for r in la.rref_span(M.field, [list(r) for r in rows])]
    if 2 * len(span) == M.dim and is_isotropic(M, span) and is_t_stable(M, span):
        return span
    return None


def boxed_rho_of(ref, U_rows):
    """`rho_of` on boxed matrices and without a cache: lift each w of W's
    canonical basis to U, then read the M_+ part of the lift in the basis
    reps + W^⊥ of M_+."""
    field = ref.M.field
    U = boxed_lagrangian_span(ref.M, U_rows)
    if U is None:
        raise ValueError("U is not a t-Lagrangian subspace")
    d = len(U)
    Uc = la.mat_mul(U, ref.full_inv)
    Ua, Ub = [c[:d] for c in Uc], [c[d:] for c in Uc]
    W = quasi_basis(field, ref.t_minus, ref.M.K, la.rref_span(field, Ua))
    Wperp, reps = boxed_perp_and_reps(ref, W.span)
    lifts = la.solve(field, la.transpose(Ua), W.span)
    coords = la.solve(field, la.transpose(reps + Wperp), la.mat_mul(lifts, Ub))
    return W, Wperp, reps, [c[:len(reps)] for c in coords]


def boxed_perp_and_reps(ref, W_rows):
    field, d = ref.M.field, ref.M.dim // 2
    if W_rows:
        Wperp = la.right_kernel(field, la.mat_mul([list(r) for r in W_rows], ref.pairing))
    else:
        Wperp = la.identity(field, d)
    Wperp = [list(r) for r in la.rref_span(field, Wperp)]
    piv = {next(c for c, x in enumerate(r) if x) for r in Wperp}
    return Wperp, [unit(field, d, c) for c in range(d) if c not in piv]


def boxed_self_dual_map_basis(ref, W_sub, Wperp, reps):
    """The equations TW·R = R·TQ and P·Rᵀ symmetric built entry by entry
    on boxed scalars, TW and TQ from `solve`, the kernel from
    `right_kernel`."""
    field = ref.M.field
    w, r = len(W_sub.span), len(reps)
    if w == 0 or r == 0:
        return []
    span = [list(x) for x in W_sub.span]
    TW = la.solve(field, la.transpose(span), la.mat_mul(span, ref.t_minus))
    TQ = [c[:r] for c in la.solve(field, la.transpose(reps + Wperp),
                                   la.mat_mul(reps, ref.t_plus))]
    P = la.mat_mul(la.mat_mul(span, ref.pairing), la.transpose(reps))
    eqs = []
    for i in range(w):
        for j in range(r):
            row = [field.zero] * (w * r)
            for l in range(w):
                row[l * r + j] = row[l * r + j] + TW[i][l]
            for l in range(r):
                row[i * r + l] = row[i * r + l] - TQ[l][j]
            eqs.append(row)
    for i in range(w):
        for jj in range(i + 1, w):
            row = [field.zero] * (w * r)
            for l in range(r):
                row[jj * r + l] = row[jj * r + l] + P[i][l]
                row[i * r + l] = row[i * r + l] - P[jj][l]
            eqs.append(row)
    return [[vec[i * r:(i + 1) * r] for i in range(w)]
            for vec in la.right_kernel(field, eqs)]


def _flag_data(flag):
    """What a flag computes once, by the public accessors of either kind."""
    split = [flag.split_coords(r) for r in flag.M.basis()]
    if isinstance(flag, BoxedFlag):
        return _typed((flag.t_minus, flag.t_plus, flag.pairing, flag.minus_t_stable, split))
    return _typed((t_on_minus(flag), t_on_plus(flag), pairing_minus_plus(flag),
                   flag.minus_t_stable, split))


def _check_fibration(flag, ref, points):
    """The int flag against the boxed one: its data, and at each point U
    `rho_of`, then once per W `_perp_and_reps` and `self_dual_map_basis`,
    values and entry types.  The flag's cache, empty at the start, ends
    with one entry per W.  Returns the W's seen."""
    assert _flag_data(flag) == _flag_data(ref)
    seen = set()
    for U in points:
        W, Wperp, reps, rho = rho_of(flag, U)
        eW, eWperp, ereps, erho = boxed_rho_of(ref, U)
        assert _typed((W.span, W.quasi, W.partition, W.chains, Wperp, reps, rho)) == \
            _typed((eW.span, eW.quasi, eW.partition, eW.chains, eWperp, ereps, erho))
        if W.span not in seen:
            seen.add(W.span)
            assert _typed(_perp_and_reps(flag, W.span)) == _typed((eWperp, ereps))
            assert _typed(self_dual_map_basis(flag, W, Wperp, reps)) == \
                _typed(boxed_self_dual_map_basis(ref, eW, eWperp, ereps))
    assert len(flag._fibers) == len(seen)
    return seen


@functools.lru_cache(maxsize=None)
def _lagrangians(q, ks, scrambled):
    M = _module(q, ks, scrambled)
    return M, [[list(r) for r in U] for U in enumerate_t_lagrangians(M)]


@pytest.mark.parametrize("scrambled", [False, True])
@pytest.mark.parametrize("q,ks", [(3, (1, 1)), (3, (2, 1)), (3, (2, 2)), (5, (2, 1))])
def test_int_fibration_matches_boxed_reference(q, ks, scrambled):
    # every t-Lagrangian, through the standard flag or the one `decompose`
    # reads off the scrambled module
    M, points = _lagrangians(q, ks, scrambled)
    flag = (LagrangianFlag.from_decomposition if scrambled
            else LagrangianFlag.standard)(M)
    _check_fibration(flag, BoxedFlag(M, flag.minus, flag.plus), points)


def test_int_fibration_matches_boxed_reference_on_a_skew_flag():
    # H_2 = <e1, te1, e2, te2> with M_- = <e1, te1 + e2>, which t does not keep
    M = make_H(F3, 2)
    minus, plus = ([[F3(x) for x in r] for r in A] for A in (
        [[1, 0, 0, 0], [0, 1, 1, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]))
    flag = LagrangianFlag(M, minus, plus)
    assert not flag.minus_t_stable
    _check_fibration(flag, BoxedFlag(M, minus, plus),
                     [[list(r) for r in U] for U in enumerate_t_lagrangians(M)])


@pytest.mark.parametrize("field", [QQ, F5])
def test_flag_checks_match_boxed_reference(field):
    # in (2, 1) the e1 chains are rows 0, 1, 4 and the e2 chains 2, 3, 5;
    # a part is a list of rows, each the sum of the basis rows named.  Both
    # flags accept the same parts with the same data (M_- t-stable or not),
    # or raise the same ValueError (dimension, isotropy, M_+ not t-stable,
    # singular)
    M = standard_module(field, (2, 1))
    I = M.basis()
    parts = [("0 1 4", "2 3 5"), ("2 3 5", "0 1 4"), ("0 12 4", "2 3 5"),
             ("0 1", "2 3 5"), ("0 1 4", "0 3 5"), ("1 3 5", "0 2 4"),
             ("2 3 5", "2 3 5")]
    for minus, plus in parts:
        minus, plus = ([functools.reduce(la.vec_add, (I[int(i)] for i in r))
                        for r in part.split()] for part in (minus, plus))
        out = []
        for cls in (LagrangianFlag, BoxedFlag):
            try:
                out.append(_flag_data(cls(M, minus, plus)))
            except ValueError as e:
                out.append(str(e))
        assert out[0] == out[1]


def _graph_points(flag, ref, rng):
    """t-Lagrangians over Q as graphs: for t-stable W ⊆ M_- spanned by the
    t-chains of random vectors, U = `graph_of_rho` of random rational
    combinations R of the boxed self-dual map basis, three per W, each
    basis of U mixed by a random invertible matrix; pairs (U, R)."""
    field, d = flag.M.field, flag.M.dim // 2
    points = []
    for n in (0, 1, 1, 1, 2, 2, d):
        gens = [[field(rng.randint(-2, 2)) for _ in range(d)] for _ in range(n)]
        span = la.rref_span(field, [v for g in gens for v in t_chain(ref.t_minus, g)])
        W = quasi_basis(field, ref.t_minus, flag.M.K, [list(r) for r in span])
        Wperp, reps = boxed_perp_and_reps(ref, W.span)
        for _ in range(3):
            R = la.zeros(field, len(W.span), len(reps))
            for B in boxed_self_dual_map_basis(ref, W, Wperp, reps):
                R = la.mat_add(R, la.scal_mul(field(rng.randint(-3, 3)) / rng.randint(1, 3), B))
            U = [list(r) for r in graph_of_rho(flag, W, Wperp, reps, R)]
            points.append((la.mat_mul(random_invertible(field, d, rng), U), R))
    return points


@pytest.mark.parametrize("scrambled", [False, True])
def test_int_fibration_over_q_matches_boxed_reference(scrambled):
    # graphs are t-Lagrangians when M_- is t-stable, as both flags' are
    rng = random.Random(11)
    M = standard_module(QQ, (2, 1))
    if scrambled:
        M = base_change(M, random_invertible(QQ, 6, rng))
    flag = (LagrangianFlag.from_decomposition if scrambled
            else LagrangianFlag.standard)(M)
    ref = BoxedFlag(M, flag.minus, flag.plus)
    points = _graph_points(flag, ref, rng)
    assert len(_check_fibration(flag, ref, [U for U, _ in points])) >= 3
    for U, R in points:
        assert _typed(rho_of(flag, U)[3]) == _typed(R)


def _polarization_point(coeffs):
    """Whether c is 0, ±e_k or e_k + e_l.  A map of degree <= 2 on F_q^m,
    q odd, that vanishes there vanishes everywhere: f(0) = 0 kills the
    constant, f(±e_k) = 0 the linear and square terms in c_k (char ≠ 2),
    and f(e_k + e_l) = 0 then the c_k·c_l terms."""
    nz = [c for c in coeffs if c]
    return (len(nz) <= 1 and all(c == 1 or c == -1 for c in nz)
            or len(nz) == 2 and nz[0] == nz[1] == 1)


def boxed_enumerate_t_lagrangians(M):
    """`enumerate_t_lagrangians` point by point on boxed matrices, with the
    boxed flag data and fiber bases: rho = Σ c_k·R_k, its graph by
    `graph_of_rho` and its dimension on every point; the guard is left out.
    The graph is spanned by rows affine in c, so the pairing on them is of
    degree 2 in c: `is_isotropic` on the polarization points (q odd) shows
    every graph of the fiber isotropic.
    Each rho is the one before it in product order plus one boxed matrix:
    where c_k goes up by one and every later c wraps from q - 1 to 0, rho
    gains R_k + R_{k+1} + … (since −(q − 1) = 1)."""
    field, d = M.field, M.dim // 2
    flag = LagrangianFlag.from_decomposition(M)
    ref = BoxedFlag(M, flag.minus, flag.plus)
    Tm = ref.t_minus
    found = []
    for j in range(d + 1):
        for W in _all_rref_subspaces(field, d, j):
            if la.rank(field, W + la.mat_mul(W, Tm)) != j:
                continue
            W_sub = quasi_basis(field, Tm, M.K, W)
            Wperp, reps = boxed_perp_and_reps(ref, W)
            basis = boxed_self_dual_map_basis(ref, W_sub, Wperp, reps)
            steps = [functools.reduce(la.mat_add, basis[k:]) for k in range(len(basis))]
            rho = la.zeros(field, j, len(reps))
            for n, coeffs in enumerate(itertools.product(field.elements(),
                                                         repeat=len(basis))):
                if n:
                    rho = la.mat_add(rho, steps[max(k for k, c in enumerate(coeffs) if c)])
                U = graph_of_rho(flag, W_sub, Wperp, reps, rho)
                assert len(U) == d
                assert not _polarization_point(coeffs) or is_isotropic(M, U)
                found.append(U)
    return sorted(found, key=_lagrangian_key)


@pytest.mark.parametrize("scrambled", [False, True])
@pytest.mark.parametrize("q,ks", [(q, ks) for q in (3, 5)
                                  for ks in ((1,), (1, 1), (2,), (2, 1), (2, 2))])
def test_affine_emission_matches_boxed_reference(q, ks, scrambled):
    M = _module(q, ks, scrambled)
    assert _typed(enumerate_t_lagrangians(M)) == \
        _typed(boxed_enumerate_t_lagrangians(M))


@pytest.mark.parametrize("q,ks,scrambled", [(5, (2, 1), False), (3, (2, 2), False),
                                            (3, (2, 1), True)])
def test_fiber_cache_matches_fresh_flag(q, ks, scrambled):
    # rho_of on one flag, whose cache fills as it goes, against rho_of on a
    # flag with an empty cache; what it returns is the caller's to mutate
    M = _module(q, ks, scrambled)
    flag = (LagrangianFlag.from_decomposition if scrambled
            else LagrangianFlag.standard)(M)

    def run(flag, U):
        W, Wperp, reps, rho = rho_of(flag, U)
        return _typed((W.span, W.quasi, W.partition, W.chains, Wperp, reps, rho))
    for U in enumerate_t_lagrangians(M):
        U = [list(r) for r in U]
        expect = run(LagrangianFlag(M, flag.minus, flag.plus), U)
        assert run(flag, U) == expect
        W, Wperp, reps, _ = rho_of(flag, U)
        for rows in (Wperp, reps, W.quasi, W.chains):
            if rows:
                rows[0][0] = rows[0][0] + 1
            rows.append([])
        assert run(flag, U) == expect


def test_fiber_sizes_sum_to_gr_21_over_f5():
    # beyond the scan: Σ_W q^dim F_W over the projections W to M_- of the
    # standard flag equals the number of subspaces found
    M = standard_module(F5, (2, 1))
    lagr = enumerate_t_lagrangians(M)
    assert len(lagr) == len(set(lagr)) == 906
    assert all(is_t_lagrangian(M, [list(r) for r in U]) for U in lagr)
    flag = LagrangianFlag.standard(M)
    fibers = Counter(la.rref_span(F5, [flag.split_coords(u)[0] for u in U])
                     for U in lagr)
    dims = {}
    for U in lagr:
        W, Wperp, reps, _ = rho_of(flag, [list(r) for r in U])
        dims.setdefault(W.span, self_dual_map_space_dim(flag, W, Wperp, reps))
        if len(dims) == len(fibers):
            break
    assert set(dims) == set(fibers)
    assert all(fibers[W] == 5 ** dims[W] for W in fibers)
    assert sum(5 ** d for d in dims.values()) == 906


def test_self_dual_map_basis_spans_the_fiber():
    # each basis map is t-linear and self-dual: its graph is a t-Lagrangian
    # that rho_of maps back to the same matrix
    M = standard_module(F3, (2, 1))
    flag = LagrangianFlag.standard(M)
    W, Wperp, reps, _ = rho_of(flag, flag.minus)
    basis = self_dual_map_basis(flag, W, Wperp, reps)
    assert len(basis) == self_dual_map_space_dim(flag, W, Wperp, reps) == 4
    for R in basis:
        U = graph_of_rho(flag, W, Wperp, reps, R)
        assert is_t_lagrangian(M, [list(r) for r in U])
        assert la.mat_eq(rho_of(flag, [list(r) for r in U])[3], R)


# --------------------------------------------------------------------------
# the fibration U -> pi_-(U) and its fibers
# --------------------------------------------------------------------------

def test_rho_of_minus_side_is_zero():
    M = make_H(F3, 2)
    flag = LagrangianFlag.standard(M)
    W, Wperp, reps, rho = rho_of(flag, flag.minus)
    assert len(W.span) == 2 and not Wperp
    assert all(not c for row in rho for c in row)


def test_rho_of_rejects_non_lagrangians():
    # in (2, 1): rows 0, 1 are e1, te1 and rows 2, 3 are e2, te2 of H_2;
    # rows 4, 5 are e1, e2 of H_1.  Over F_5 the module is scrambled to
    # P·M·P⁻¹, with the flag `decompose` reads off it, and each row set is
    # moved to its rows times P⁻¹
    for field, scrambled in ((F3, False), (F5, True), (QQ, False)):
        M = standard_module(field, (2, 1))
        move = la.identity(field, 6)
        if scrambled:
            P = random_invertible(field, 6, random.Random(5))
            M, move = base_change(M, P), la.inverse(field, P)
        flag = (LagrangianFlag.from_decomposition if scrambled
                else LagrangianFlag.standard)(M)
        wrong_dim, not_stable, not_isotropic = (
            la.mat_mul([unit(field, 6, i) for i in rows], move)
            for rows in ((1,), (0, 2, 4), (1, 4, 5)))
        assert is_isotropic(M, not_stable) and not is_t_stable(M, not_stable)
        assert is_t_stable(M, not_isotropic) and not is_isotropic(M, not_isotropic)
        for U in (wrong_dim, not_stable, not_isotropic):
            assert not is_t_lagrangian(M, U)
            with pytest.raises(ValueError, match="not a t-Lagrangian"):
                rho_of(flag, U)


def test_rho_graph_roundtrip():
    M = standard_module(F3, (2, 1))
    flag = LagrangianFlag.standard(M)
    for U in enumerate_t_lagrangians(M):
        W, Wperp, reps, rho = rho_of(flag, [list(r) for r in U])
        back = graph_of_rho(flag, W, Wperp, reps, rho)
        assert back == la.rref_span(F3, [list(r) for r in U])


def _fiber_counts(M):
    flag = LagrangianFlag.standard(M)
    fibers = Counter()
    dims = {}
    for U in enumerate_t_lagrangians(M):
        W, Wperp, reps, _ = rho_of(flag, [list(r) for r in U])
        fibers[W.span] += 1
        dims[W.span] = self_dual_map_space_dim(flag, W, Wperp, reps)
    return fibers, dims


@pytest.mark.parametrize("ks,total", [((1,), 4), ((2,), 13)])
def test_fiber_sizes_match_self_dual_map_counts(ks, total):
    M = standard_module(F3, ks)
    fibers, dims = _fiber_counts(M)
    q = 3
    for span, cnt in fibers.items():
        assert cnt == q ** dims[span]
    assert sum(fibers.values()) == total


def test_H1_fiber_sizes_are_1_and_3():
    fibers, _ = _fiber_counts(make_H(F3, 1))
    assert sorted(fibers.values()) == [1, 3]


def test_rho_is_t_linear_and_self_dual():
    M = standard_module(F3, (2, 1))
    flag = LagrangianFlag.standard(M)
    Pi = pairing_minus_plus(flag)
    Tp = t_on_plus(flag)
    Tm = t_on_minus(flag)
    for U in enumerate_t_lagrangians(M):
        W, Wperp, reps, rho = rho_of(flag, [list(r) for r in U])
        if not W.span or not reps:
            continue
        quot_basis = reps + Wperp
        # pairing of W-span basis against the representatives
        P = la.mat_mul(la.mat_mul([list(r) for r in W.span], Pi),
                       la.transpose(reps))
        PRt = la.mat_mul(P, la.transpose(rho))
        assert la.mat_eq(PRt, la.transpose(PRt)), "self-duality failed"
        # t-linearity: rho(t w) = t rho(w) in the quotient
        for wi, w in enumerate(W.span):
            tw = la.vec_mat(list(w), Tm)
            [sol] = la.solve(F3, la.transpose([list(r) for r in W.span]), [tw])
            lhs = [F3.zero] * len(reps)
            for c, row in zip(sol, rho):
                lhs = la.vec_add(lhs, la.vec_scale(c, row))
            rho_w_plus = [F3.zero] * (M.dim // 2)
            for c, rep in zip(rho[wi], reps):
                rho_w_plus = la.vec_add(rho_w_plus, la.vec_scale(c, rep))
            t_rho_w = la.vec_mat(rho_w_plus, Tp)
            [qsol] = la.solve(F3, la.transpose(quot_basis), [t_rho_w])
            assert qsol[:len(reps)] == lhs


# --------------------------------------------------------------------------
# transitivity of Sp(M,t) on t-Lagrangians (empirical, small fields)
# --------------------------------------------------------------------------

def _orbit_closure(field, M, gens, seeds):
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for span in frontier:
            for g in gens:
                img = la.rref_span(field, la.mat_mul([list(r) for r in span], g))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def _sp_generators(M, count=24):
    from sntmod.spgroup import random_element, cayley, radical_lie_basis
    gens = [random_element(M, seed) for seed in range(count)]
    for S in radical_lie_basis(M):
        try:
            gens.append(cayley(M.field, S))
        except ValueError:
            pass
    return gens


@pytest.mark.parametrize("ks", [(2,), (1, 1), (2, 1)])
def test_every_lagrangian_meets_a_standard_orbit(ks):
    import itertools
    M = standard_module(F3, ks)
    all_lagr = set(enumerate_t_lagrangians(M))
    seeds = [la.rref_span(F3, standard_t_lagrangian(M, idx))
             for idx in itertools.product(*[range(k) for k in ks])]
    covered = _orbit_closure(F3, M, _sp_generators(M), seeds)
    assert covered == all_lagr


def _intersect_spans(field, A_rows, B_rows):
    """Basis of the intersection of two row spans."""
    a = len(A_rows)
    M = [list(r) for r in A_rows] + [[-x for x in r] for r in B_rows]
    out = [la.vec_mat(lam[:a], A_rows)
           for lam in la.right_kernel(field, la.transpose(M))]
    return [list(r) for r in la.rref_span(field, out)] if out else []


def test_wperp_equals_plus_intersect_U():
    # the orthogonal complement of W in M_+ equals M_+ ∩ U, computed two ways
    M = standard_module(F3, (2, 1))
    flag = LagrangianFlag.standard(M)
    for U in enumerate_t_lagrangians(M):
        W, Wperp, reps, rho = rho_of(flag, [list(r) for r in U])
        # ambient coordinates of W^perp
        amb = []
        for wp in Wperp:
            v = [F3.zero] * M.dim
            for c, p in zip(wp, flag.plus):
                v = la.vec_add(v, la.vec_scale(c, p))
            amb.append(v)
        inter = _intersect_spans(F3, flag.plus, [list(r) for r in U])
        assert la.rref_span(F3, amb) == la.rref_span(F3, inter)


from hypothesis import given, settings, strategies as st


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
       st.lists(st.integers(-5, 5), min_size=6, max_size=6))
def test_self_duality_property(xs, ys):
    M = direct_sum(make_H(QQ, 2), make_H(QQ, 1))
    x = [QQ(v) for v in xs]
    y = [QQ(v) for v in ys]
    assert M.pair(apply_t(M, x), y) == M.pair(x, apply_t(M, y))
    assert not M.pair(x, apply_t(M, x))       # <xi, t xi> = 0


def test_graph_of_given_self_dual_map_returns_same_rho():
    # start from an explicit t-linear self-dual map on W = M_-, build its
    # graph, and recover the same matrix
    M = make_H(F3, 2)
    flag = LagrangianFlag.standard(M)
    Wfull = quasi_basis(F3, t_on_minus(flag), M.K, la.identity(F3, 2))
    for a, b in [(F3(1), F3(2)), (F3(0), F3(1)), (F3(2), F3(0))]:
        rho = [[a, b], [F3.zero, a]]       # commutes with the chain shift
        U = graph_of_rho(flag, Wfull, [], la.identity(F3, 2), rho)
        assert is_t_lagrangian(M, [list(r) for r in U])
        W2, Wp2, reps2, rho2 = rho_of(flag, [list(r) for r in U])
        assert W2.span == Wfull.span and not Wp2
        assert la.mat_eq(rho2, rho)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_t_lagrangian_matches_boxed_checks(data):
    """`is_t_lagrangian` on int rows against the boxed rank, `is_isotropic`
    and `is_t_stable`: rows are random combinations of a t-Lagrangian's
    rows or of random rows, sometimes with one random row added."""
    q = data.draw(st.sampled_from([3, 5]))
    ks = data.draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1)]))
    M, lagr = _lagrangians(q, ks, data.draw(st.booleans()))
    n, field = M.dim, M.field
    vec = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    base = data.draw(st.one_of(st.sampled_from(lagr),
                               st.lists(vec.map(lambda v: [field(x) for x in v]),
                                        min_size=1, max_size=n)))
    coeffs = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(base),
                                         max_size=len(base)), max_size=n))
    U = la.mat_mul([[field(c) for c in row] for row in coeffs], base) if coeffs else []
    U += [[field(x) for x in v] for v in data.draw(st.lists(vec, max_size=1))]
    expect = 2 * la.rank(field, U) == n and is_isotropic(M, U) and is_t_stable(M, U)
    assert is_t_lagrangian(M, U) == expect
