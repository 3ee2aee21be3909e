"""The four workloads: seeded inputs, the fixed operation list of one round,
and the independent check of every operation's output.

`SETUPS[name](api, seed, workdir, small)` generates a workload's inputs
from the seed, writes its fixture files and returns `make_round`.  Each call
of `make_round()` builds fresh program objects from those inputs and returns
the round's list of `Op`s, so that every round does the same work.  `api`
holds the program's layer modules; operations look functions up through it
when they run, so a traced run sees every call.

An op's `run()` is the timed call into the program.  Its `check(output)` is
the benchmark's own code; it runs outside the timed region and raises
`CheckFailed` when the output is wrong.  Checks use the arithmetic of
`exact.py`, closed forms and agreement between two routes, never a stored
copy of an earlier output.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import exact as ex


class CheckFailed(AssertionError):
    """An operation returned a wrong result."""


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def cli_call(api, argv):
    """`sntmod <argv> --json` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(list(argv) + ["--json"])
    return code, buf.getvalue()


def cli_report(output):
    """Requires exit code 0 and a parseable report; returns its checks by
    name."""
    code, text = output
    require(code == 0, "exit code %r" % (code,))
    return {c["name"]: c for c in json.loads(text)["checks"]}


def write_json(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def program_field(api, F):
    return api.fields.GF(F.p) if F.p else api.fields.QQ


def program_matrix(api, F, A):
    field = program_field(api, F)
    return [[field(x) for x in row] for row in A]


def _scrambled(F, ks, rng):
    """The standard module of type ks in a seeded basis: returns
    (T, G, T_std, G_std, P^-1) with T = P T_std P^-1 and G = P G_std Pᵀ, so
    that a row v in standard coordinates is v·P^-1 in the new ones."""
    T0, G0 = ex.standard_module(ks)
    P, Pinv = ex.random_invertible(F, len(T0), rng)
    T = ex.mul(F, ex.mul(F, P, T0), Pinv)
    G = ex.mul(F, ex.mul(F, P, G0), ex.transpose(P))
    return T, G, T0, G0, Pinv


def _text_matrix(F, A):
    return [[ex.scalar_text(F, x) for x in row] for row in A]


# --------------------------------------------------------------------------
# constructive: exact algebra over Q and F_5
# --------------------------------------------------------------------------

F5 = ex.Zp(5)
V_DIAG = (1, 1, 2)


def _partition(n, rng, max_parts=3):
    """A seeded partition of n with at most max_parts parts."""
    while True:
        parts = sorted((rng.randint(1, n) for _ in range(rng.randint(1, max_parts))),
                       reverse=True)
        if sum(parts) == n:
            return tuple(parts)
        if sum(parts) < n and len(parts) < max_parts:
            return tuple(sorted(parts + [n - sum(parts)], reverse=True))


def _v_gram(F):
    n = len(V_DIAG)
    return [[F(V_DIAG[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


def _check_intertwiner(F, ks, planted, T, G, T0, G0, B):
    require(tuple(ks) == planted, "partition %r, planted %r" % (ks, planted))
    require(ex.eq(F, ex.mul(F, B, T), ex.mul(F, T0, B)), "B·T != T_std·B")
    require(ex.eq(F, ex.mul(F, ex.mul(F, B, G), ex.transpose(B)), G0),
            "B·G·Bᵀ != G_std")


def _check_sample(F, ks, out):
    """g·T = T·g, g·G·gᵀ = G, and the mod-t reductions of blocks into a
    strictly higher homogeneous level vanish."""
    g, profile = out
    g = ex.own_matrix(F, g)
    T0, G0 = ex.standard_module(ks)
    require(ex.eq(F, ex.mul(F, g, T0), ex.mul(F, T0, g)), "g·T != T·g")
    require(ex.eq(F, ex.mul(F, ex.mul(F, g, G0), ex.transpose(g)), G0),
            "g·G·gᵀ != G")
    lv = ex.generator_rows(ks)
    require(tuple(profile.levels) == tuple(k for k, _ in lv), "block levels")
    for ki, rows in lv:
        for kj, cols in lv:
            if kj > ki:
                require(all(g[r][c] == 0 for r in rows for c in cols),
                        "reduction into a higher level is nonzero")


def _check_transport(F, ks, x, y, g):
    """g·Q·gᵀ = Q over F[t]/(t^K) and x·g = y."""
    K = ks[0]
    Qr = ex.const_poly_matrix(F, _v_gram(F), K)
    require(ex.rmul(F, ex.rmul(F, g, Qr, K), ex.transpose(g), K) == Qr,
            "g·Q·gᵀ != Q over F[t]/(t^K)")
    require(ex.eq(F, ex.chain_act(F, ks, x, g), y), "x·g != y")


def _decompose_op(api, F, planted, T, G, T0, G0, path, via_cli, seed):
    def check(ks, B):
        _check_intertwiner(F, ks, planted, T, G, T0, G0, B)

    if via_cli:
        def check_cli(out):
            d = cli_report(out)["decompose"]["details"]
            check(d["partition"], [[ex.parse_scalar(F, s) for s in r] for r in d["iso"]])
        return Op("decompose-cli",
                  lambda: cli_call(api, ["decompose", path, "--seed", str(seed)]),
                  check_cli)
    M = api.sntmodule.SntModule(program_field(api, F), program_matrix(api, F, T),
                                program_matrix(api, F, G))
    return Op("decompose", lambda: api.sntmodule.decompose(M, seed=seed),
              lambda out: check(out[0], ex.own_matrix(F, out[1])))


def _sample_op(api, F, ks, M, seed):
    def run():
        g = api.spgroup.random_element(M, seed)
        return g, api.spgroup.block_profile(M, g)
    return Op("sample+profile", run, lambda out: _check_sample(F, ks, out))


def _orbit_ops(api, F, ks, x, y, px, py, via_cli):
    field = program_field(api, F)
    sp = api.orbits.TensorSpace(field, ks, api.orbits.diagonal_space(field, V_DIAG))
    xe = sp.element(program_matrix(api, F, x))
    ye = sp.element(program_matrix(api, F, y))
    if via_cli:
        def check_cli(out):
            checks = cli_report(out)
            require(checks["invariant"]["status"] == "ok", "invariant check")
            d = checks["compare"]["details"]
            require(d["same_orbit"] is True, "x and x·g not in one orbit")
            _check_transport(F, ks, x, y, [[[ex.parse_scalar(F, c) for c in p]
                                            for p in row] for row in d["transport"]])
        first = Op("orbit-cli", lambda: cli_call(api, ["orbit", px, py]), check_cli)
    else:
        first = Op("transport", lambda: api.orbits.transport(xe, ye),
                   lambda out: _check_transport(F, ks, x, y,
                                                ex.own_ring_matrix(F, out, ks[0])))
    # with W = Im f_x the rank criterion must hold; the program raises when
    # its two criteria disagree
    submersive = Op("submersive", lambda: api.orbits.is_submersive(xe),
                    lambda out: require(out is True, "is_submersive(x) returned %r"
                                        % (out,)))
    return [first, submersive]


def setup_constructive(api, seed, workdir, small=False):
    rng = random.Random(seed)
    fields = (ex.Q, F5)
    # decomposition: one scrambled module per dimension, its type seeded
    dims = (6, 8) if small else (6, 8, 10, 12, 14, 16)
    decomp = []
    for F in fields:
        for i, dim in enumerate(dims):
            ks = _partition(dim // 2, rng)
            T, G, T0, G0, _ = _scrambled(F, ks, rng)
            path = write_json(workdir, "module-%r-%d.json" % (F, dim), {
                "field": ex.field_json(F), "dim": dim,
                "t_action": _text_matrix(F, T), "gram": _text_matrix(F, G)})
            decomp.append((F, ks, T, G, T0, G0, path, i % 2 == 1, rng.randrange(1000)))
    # Sp(M,t) sampling: several samples from each standard module
    sample_types = [(ex.Q, (2, 1)), (F5, (2, 2, 1))] if small else \
        [(ex.Q, (2, 1)), (ex.Q, (3, 2, 1)), (F5, (2, 2, 1)), (F5, (3, 1))]
    per_module = 2 if small else 4
    samples = [(F, ks, [rng.randrange(10 ** 6) for _ in range(per_module)])
               for F, ks in sample_types]
    # transport of x to x·g on M_- ⊗ V, g a seeded ring-orthogonal element
    orbit_types = ((2, 1),) if small else ((2, 1), (3, 1), (2, 2), (3, 2))
    orbit = []
    for F in fields:
        field = program_field(api, F)
        for j, ks in enumerate(orbit_types):
            sp = api.orbits.TensorSpace(field, ks,
                                        api.orbits.diagonal_space(field, V_DIAG))
            x = [[F(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) if not F.p
                  else F(rng.randrange(F.p)) for _ in V_DIAG] for _ in range(sum(ks))]
            g = ex.own_ring_matrix(F, api.orbits.random_orthogonal_ring(sp, rng), ks[0])
            y = ex.chain_act(F, ks, x, g)
            paths = [write_json(workdir, "%s-%r-%d.json" % (name, F, j), {
                "field": ex.field_json(F), "partition": list(ks),
                "v_gram": _text_matrix(F, _v_gram(F)), "coords": _text_matrix(F, z)})
                for name, z in (("x", x), ("y", y))]
            orbit.append((F, ks, x, y, paths[0], paths[1], j % 2 == 1))

    def make_round():
        ops = [_decompose_op(api, *d) for d in decomp]
        for F, ks, seeds in samples:
            # one module per round: its first sample builds the radical Lie
            # basis that random_element caches on the module
            M = api.sntmodule.standard_module(program_field(api, F), ks)
            ops += [_sample_op(api, F, ks, M, s) for s in seeds]
        for o in orbit:
            ops += _orbit_ops(api, *o)
        return ops

    return make_round


# --------------------------------------------------------------------------
# finite-census: exhaustive enumeration over F_3 and F_5
# --------------------------------------------------------------------------

def _diag_entries(q, d, rng, split=None):
    """Seeded nonzero diagonal entries; for d = 2 the square class of
    -det is fixed by `split`, which fixes the size of the orthogonal group."""
    while True:
        e = [rng.randrange(1, q) for _ in range(d)]
        if split is None or ex.is_square(-e[0] * e[1], q) == split:
            return e


def _check_orbit_sizes(q, ks, entries, sizes):
    """Orbit sizes sum to q^(d·dim V) and each divides |O(V)(F_q[t]/(t^k))|."""
    require(sum(sizes) == q ** (sum(ks) * len(entries)),
            "orbit sizes do not sum to q^(d·dim V)")
    order = ex.orthogonal_order(q, math.prod(entries), len(entries), ks[0])
    require(all(order % s == 0 for s in sizes), "an orbit size does not divide |O(V)|")


def _census_ops(api, q, ks, entries, via_cli):
    if via_cli:
        argv = ["census", "--q", str(q), "--M", ",".join(map(str, ks)),
                "--V", "diag:" + ",".join(map(str, entries)), "--k", str(ks[0])]

        def check_cli(out):
            checks = cli_report(out)
            table = checks["orbit-table"]["details"]["table"]
            agree = checks["invariant-vs-brute-force"]
            require(agree["status"] == "ok" and agree["details"]["invariant_classes"]
                    == agree["details"]["brute_force_orbits"] == len(table),
                    "invariant classes differ from brute-force orbits")
            _check_orbit_sizes(q, ks, entries, [row["orbit_size"] for row in table])
        return [Op("census-cli", lambda: cli_call(api, argv), check_cli)]

    field = api.fields.GF(q)
    sp = api.orbits.TensorSpace(field, ks, api.orbits.diagonal_space(field, entries))
    classes = {}

    def check_invariant(out):
        _check_orbit_sizes(q, ks, entries, [len(c) for c in out.values()])
        classes["invariant"] = set(out.values())

    def check_brute(out):
        _check_orbit_sizes(q, ks, entries, [len(o) for o in out])
        require(set(out) == classes.get("invariant"),
                "invariant partition differs from the brute-force partition")

    return [Op("invariant-partition", lambda: api.orbits.invariant_partition(sp),
               check_invariant),
            Op("brute-force-orbits", lambda: api.orbits.brute_force_orbits(sp),
               check_brute)]


def _lagrangian_ops(api, F, ks, T, G, minus, plus):
    """Enumerate Gr(M,t), then count it again through the projection to M_-:
    Σ_W q^{dim F_W} over the projections W of the subspaces found."""
    q, sm = F.p, api.sntmodule
    M = sm.SntModule(api.fields.GF(q), program_matrix(api, F, T),
                     program_matrix(api, F, G))
    pminus, pplus = program_matrix(api, F, minus), program_matrix(api, F, plus)
    closed = math.prod(q ** i + 1 for i in range(1, len(ks) + 1)) \
        if set(ks) == {1} else None
    found = []

    def check_lagrangians(out):
        n = len(T)
        require(len(set(out)) == len(out), "duplicate subspaces")
        for U in out:
            U = ex.own_matrix(F, U)
            require(len(U) == n // 2 and ex.rref_rank(F, U) == n // 2, "dimension")
            require(ex.is_zero(F, ex.mul(F, ex.mul(F, U, G), ex.transpose(U))),
                    "subspace is not isotropic")
            require(ex.rref_rank(F, U + ex.mul(F, U, T)) == n // 2,
                    "subspace is not t-stable")
        # |Gr(M,t)| = prod (q^i + 1) when t = 0
        require(closed is None or len(out) == closed,
                "|Gr(M,t)| = %d, expected %s" % (len(out), closed))
        found[:] = out

    def fibration():
        flag = sm.LagrangianFlag(M, pminus, pplus)
        fibers = {}
        for U in found:
            W, Wperp, reps, _ = sm.rho_of(flag, [list(r) for r in U])
            if W.span not in fibers:
                fibers[W.span] = [sm.self_dual_map_space_dim(flag, W, Wperp, reps), 0]
            fibers[W.span][1] += 1
        return list(fibers.values())

    def check_fibration(fibers):
        require(all(count == q ** d for d, count in fibers),
                "a fiber count differs from q^dim F_W")
        require(sum(q ** d for d, _ in fibers) == len(found),
                "Σ_W q^dim F_W differs from |Gr(M,t)|")

    return [Op("t-lagrangians", lambda: sm.enumerate_t_lagrangians(M), check_lagrangians),
            Op("fibration-count", fibration, check_fibration)]


def _closure_op(api, order_seed):
    """The closure of the elementary generators of Sp_2(F_3[t]/(t^2)),
    taken in a seeded order: 24·3³ = 648 symplectic elements."""
    F3, K = ex.Zp(3), 2

    def run():
        gens = api.spgroup.sp_ring_generators(api.fields.GF(3), 1, 2)
        random.Random(order_seed).shuffle(gens)
        return api.spgroup.group_closure(gens, api.tpoly.tmat_mul,
                                         api.tpoly.tmat_key, 10 ** 4)

    def check(elems):
        J = [[[0, 0], [1, 0]], [[F3(-1), 0], [0, 0]]]
        keys = set()
        for g in elems:
            g = ex.own_ring_matrix(F3, g, K)
            require(ex.rmul(F3, ex.rmul(F3, g, J, K), ex.transpose(g), K) == J,
                    "closure element is not symplectic over F_3[t]/(t^2)")
            keys.add(str(g))
        require(len(keys) == len(elems) == 648 == 24 * 3 ** 3,
                "closure has %d distinct elements, expected 648" % len(keys))

    return Op("sp-closure-648", run, check)


def setup_finite_census(api, seed, workdir, small=False):
    rng = random.Random(seed)
    # (q, type of M_-, dim V, square class of -det V when dim V = 2, CLI route)
    census = [(3, (1,), 2, False, True), (3, (2,), 1, None, False)] if small else [
        (3, (1,), 3, None, False),
        (3, (2,), 2, True, True),
        (3, (1, 1), 2, False, False),
        (3, (2, 1), 1, None, True),
        (3, (2, 1), 2, False, False),
        (3, (3,), 1, None, True),
        (5, (1,), 2, True, False),
        (5, (1,), 2, False, True),
        (5, (2, 1), 1, None, False),
        (3, (2, 2), 1, None, False),
        (3, (1, 1), 3, None, True),
    ]
    census = [(q, ks, _diag_entries(q, d, rng, split), via_cli)
              for q, ks, d, split, via_cli in census]
    # t-Lagrangians of scrambled standard modules, with the standard flag
    # (M_- = e1 chains, M_+ = e2 chains) moved along
    lagr_types = [(3, (1, 1)), (5, (1,))] if small else \
        [(3, (1,)), (3, (1, 1)), (3, (2,)), (5, (1,)), (5, (1, 1)), (5, (2,))]
    lagr = []
    for q, ks in lagr_types:
        F = ex.Zp(q)
        T, G, _, _, Pinv = _scrambled(F, ks, rng)
        minus, plus, off = [], [], 0
        for k in ks:
            minus += Pinv[off:off + k]
            plus += Pinv[off + k:off + 2 * k]
            off += 2 * k
        lagr.append((F, ks, T, G, minus, plus))
    order_seed = rng.randrange(10 ** 6)

    def make_round():
        ops = []
        for c in census:
            ops += _census_ops(api, *c)
        for args in lagr:
            ops += _lagrangian_ops(api, *args)
        ops.append(_closure_op(api, order_seed))
        return ops

    return make_round


# --------------------------------------------------------------------------
# siegel-weil: the rank-8 identity at a seeded sweep of Siegel points
# --------------------------------------------------------------------------

# Im-min-eig targets, one inside each norm-bound step of theta_colinear at
# tol 1e-8 (B = 16, 14, 12, 10, 8, 6, 4); the +-2% jitter keeps the bound
SW_LAMBDAS = (0.84, 0.95, 1.1, 1.3, 1.6, 2.1, 2.8)
TOL = 1e-8


def _siegel_point(rng, lam, general):
    """tau = X + iY with Y of least eigenvalue lam (jittered by +-2%) and
    second eigenvalue 1.25 lam, rotated when general; X seeded in
    [-1/2, 1/2], with tau12 = 0 exactly when not general."""
    lam *= 1 + rng.uniform(-0.02, 0.02)
    theta = rng.uniform(0.3, 1.2) if general else 0.0
    c, s = math.cos(theta), math.sin(theta)
    l1, l2 = lam, 1.25 * lam
    y11, y12, y22 = c * c * l1 + s * s * l2, c * s * (l2 - l1), s * s * l1 + c * c * l2
    x11, x22 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    x12 = rng.uniform(-0.5, 0.5) if general else 0.0
    return complex(x11, y11), complex(x12, y12), complex(x22, y22)


def _cx(z):
    """A complex number as the command line takes it, e.g. 0.25-1.5i."""
    return "%r%s%ri" % (z.real, "+" if z.imag >= 0 else "", z.imag)


def _check_identity(lhs, rhs, mass, want_mass):
    """Both sides agree to TOL, recomputed from the reported values, and
    the mass constant is the one forced by 1 = C Σ 1/|Aut_j|."""
    rel = abs(lhs - rhs) / abs(lhs)
    require(rel < TOL, "identity misses: relative difference %.3g" % rel)
    require(Fraction(mass) == want_mass, "mass constant %s" % mass)


def _check_shells(L, B, rank):
    """Shell counts of the even unimodular genus of rank 8 (16) up to norm
    B: 240 σ_3(n) (480 σ_7(n)) vectors of norm 2n, none of odd norm."""
    coef, k = (240, 3) if rank == 8 else (480, 7)
    want = [1] + [coef * ex.sigma(n // 2, k) if n % 2 == 0 else 0
                  for n in range(1, B + 1)]
    require(list(L.counts_by_norm(B)) == want,
            "%s shell counts differ from the closed form" % L.name)


AUT_E8 = 696729600


def _identity8_op(api, tau, via_cli):
    if via_cli:
        argv = ["verify-sw", "--lattice", "e8", "--N", "8", "--tol", repr(TOL)] + \
            ["--%s=%s" % (k, _cx(z)) for k, z in zip(("tau11", "tau12", "tau22"), tau)]

        def check_cli(out):
            d = cli_report(out)["identity"]["details"]
            _check_identity(complex(*d["lhs"]), complex(*d["rhs"]),
                            d["mass_constant"], AUT_E8)
        return Op("verify-sw-cli", lambda: cli_call(api, argv), check_cli)

    def run():
        an = api.analytic
        L = an.e8()
        return L, an.verify_identity([L], [an.AUT_E8], an.SiegelPoint(*tau), 8, tol=TOL)

    def check(out):
        L, rep = out
        _check_identity(rep.lhs, rep.rhs, rep.mass, AUT_E8)
        _check_shells(L, 8, 8)

    return Op("verify-identity", run, check)


def setup_siegel_weil(api, seed, workdir, small=False):
    rng = random.Random(seed)
    reps = 1 if small else 2
    lambdas = SW_LAMBDAS[-3:] if small else SW_LAMBDAS
    points = [(_siegel_point(rng, lam, general), (i + r + general) % 2 == 1)
              for r in range(reps) for i, lam in enumerate(lambdas)
              for general in (False, True)]

    def make_round():
        # a fresh E8 in every operation, as a command-line call builds one
        return [_identity8_op(api, tau, via_cli) for tau, via_cli in points]

    return make_round


# --------------------------------------------------------------------------
# genus16: the N = 16 identity over the two-class genus
# --------------------------------------------------------------------------

# Im-min-eig inside [2.45, 3.29), where verify_identity picks norm bound 6;
# the smallest size uses [3.29, ...), where it picks norm bound 4
G16_LAMBDA = {False: (2.6, 3.1, 6), True: (3.5, 3.8, 4)}


def setup_genus16(api, seed, workdir, small=False):
    rng = random.Random(seed)
    lo, hi, bound = G16_LAMBDA[small]
    tau = _siegel_point(rng, rng.uniform(lo, hi), general=rng.random() < 0.5)
    mass = 1 / (Fraction(1, 2 * AUT_E8 ** 2) + Fraction(1, 2 ** 15 * math.factorial(16)))

    def run():
        # fresh lattices, so every operation enumerates both classes
        an = api.analytic
        lats, auts = an.rank16_genus()
        return lats, an.verify_identity(lats, auts, an.SiegelPoint(*tau), 16, tol=TOL)

    def check(out):
        lats, rep = out
        _check_identity(rep.lhs, rep.rhs, rep.mass, mass)
        for L in lats:
            _check_shells(L, bound, 16)

    def make_round():
        return [Op("verify-identity-16", run, check)]

    return make_round


SETUPS = {
    "constructive": setup_constructive,
    "finite-census": setup_finite_census,
    "siegel-weil": setup_siegel_weil,
    "genus16": setup_genus16,
}
