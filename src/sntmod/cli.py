"""Command-line front end.

Subcommands: decompose, orbit, census, verify-sw, gen-fixtures.
Exit codes form a stable contract:

    0  success / identity within tolerance
    1  genuine check failure at achievable precision
    2  input or validation error
    3  enumeration guard exceeded
    4  truncation target unreachable

`--json` switches to machine-readable reports; SNT_MAX_ENUM overrides the
enumeration guards, and a value that is not a non-negative integer is an
input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from . import serialize as ser
from . import linalg as la
from .analytic import (AUT_E8, IntegralLattice, SiegelPoint, TruncationError,
                       _lhs_weight, e8, verify_identity)
from .fields import QQ, GF
from .orbits import (EnumerationGuardError, OrthSpace, TensorSpace,
                     brute_force_orbits, invariant_partition, orbit_invariant,
                     transport)
from .sntmodule import (InvalidModuleError, decompose, enum_guard_limit,
                        standard_module)


@dataclass
class RunReport:
    command: str
    config: dict
    checks: list = dc_field(default_factory=list)
    wall_time: float = 0.0

    def add(self, name, status, **details):
        self.checks.append({"name": name, "status": status, "details": details})

    @property
    def ok(self):
        return all(c["status"] == "ok" for c in self.checks)

    def to_dict(self):
        return {
            "command": self.command,
            "config": self.config,
            "checks": self.checks,
            "totals": {"checks": len(self.checks),
                       "failed": sum(1 for c in self.checks if c["status"] != "ok")},
            "wall_time": self.wall_time,
        }

    def emit(self, as_json):
        if as_json:
            print(json.dumps(_finite_or_null(self.to_dict()), indent=2,
                             default=str, allow_nan=False))
            return
        print("# %s" % self.command)
        for c in self.checks:
            mark = "ok " if c["status"] == "ok" else "FAIL"
            print("  [%s] %s" % (mark, c["name"]))
            for k, v in c["details"].items():
                print("        %s: %s" % (k, v))
        print("  (%d checks, %.2fs)" % (len(self.checks), self.wall_time))


def _finite_or_null(x):
    """x with every non-finite float (inf, nan) replaced by None, which
    JSON writes as null: strict JSON has no Infinity or NaN."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return x


class InputError(ValueError):
    """Rejected input, reported as the failed check `check` with exit code 2."""

    def __init__(self, check, **details):
        super().__init__(details.get("message", check))
        self.check = check
        self.details = details


@contextmanager
def _input_stage(check):
    """Turn a malformed input met inside the block into an InputError."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:
        raise InputError(check, message=str(exc)) from exc


def _parse_complex(s):
    return complex(str(s).replace("i", "j").replace(" ", ""))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_decompose(args, report):
    report.config = {"file": args.module_file}
    with _input_stage("parse"):
        M = ser.module_from_json(_load_json(args.module_file))
    try:
        ks, iso = decompose(M, seed=args.seed)
    except InvalidModuleError as exc:
        raise InputError("validate", violations=exc.violations) from exc
    report.add("decompose", "ok", partition=list(ks),
               iso=ser.matrix_to_json(iso))
    return 0


def cmd_orbit(args, report):
    report.config = {"x": args.x_file, "y": args.y_file}
    with _input_stage("parse"):
        x = ser.tensor_element_from_json(_load_json(args.x_file))
        y = ser.tensor_element_from_json(_load_json(args.y_file)) \
            if args.y_file is not None else None
    inv = orbit_invariant(x)
    report.add("invariant", "ok",
               W_type=list(inv.partition),
               W_span=[[str(v) for v in row] for row in inv.w_span],
               i_coords=[[str(c) for c in comp] for comp in inv.coords])
    if y is not None:
        if y.space.ks != x.space.ks or y.space.V.gram != x.space.V.gram:
            raise InputError("compare", message="mismatched ambient data")
        # in x's space, Im f_y is looked up in the images memo of x's
        y = x.space.element(y.coords)
        g = transport(x, y)     # None exactly when the invariants differ
        detail = {"same_orbit": g is not None}
        if g is not None:
            detail["transport"] = [[ser.tpoly_to_json(p) for p in row] for row in g]
        report.add("compare", "ok", **detail)
    return 0


def _parse_vgram(field, spec):
    spec = spec.strip()
    if spec.startswith("diag:"):
        entries = [int(v) for v in spec[len("diag:"):].split(",")]
        rows = [[field(0)] * len(entries) for _ in entries]
        for i, e in enumerate(entries):
            rows[i][i] = field(e)
        return rows
    if spec == "hyperbolic2":
        return [[field(0), field(1)], [field(1), field(0)]]
    return ser.matrix_from_json(field, json.loads(spec))


def cmd_census(args, report):
    report.config = {"q": args.q, "M": args.M, "V": args.V, "k": args.k}
    with _input_stage("setup"):
        field = GF(args.q)
        ks = tuple(int(v) for v in args.M.replace("H", "").split(","))
        V = OrthSpace(field, _parse_vgram(field, args.V))
        if args.k != max(ks):
            raise ValueError("k must equal the largest part of the type of M")
        sp = TensorSpace(field, ks, V)
    # the brute-force side first: its guard counts products as they accrue,
    # so an oversized census stops before any invariant is computed
    bf = brute_force_orbits(sp)
    inv_classes = invariant_partition(sp)
    table = []
    for inv, members in sorted(inv_classes.items(),
                               key=lambda kv: (-len(kv[1]), kv[0].partition)):
        table.append({"W_type": list(inv.partition),
                      "i_coords": [[str(c) for c in comp] for comp in inv.coords],
                      "orbit_size": len(members)})
    agree = set(inv_classes.values()) == set(bf)
    report.add("orbit-table", "ok", classes=len(table), table=table)
    report.add("invariant-vs-brute-force", "ok" if agree else "fail",
               invariant_classes=len(inv_classes), brute_force_orbits=len(bf))
    return 0 if agree else 1


def cmd_verify_sw(args, report):
    report.config = {k: str(v) for k, v in vars(args).items() if k != "func"}
    with _input_stage("setup"):
        if args.aut is not None and args.aut <= 0:
            raise ValueError("--aut must be a positive integer, got %d" % args.aut)
        if args.gram_file is not None:
            lat = IntegralLattice(_load_json(args.gram_file), name=args.gram_file)
            if not (lat.is_even() and lat.is_unimodular()):
                raise ValueError("the lattice must be even unimodular")
            aut = args.aut
            if aut is None:
                raise ValueError("--aut is required with --gram-file")
        elif args.lattice.lower() == "e8":
            lat, aut = e8(), (args.aut or AUT_E8)
        else:
            raise ValueError("unknown lattice %r" % args.lattice)
        if lat.rank != args.N:
            raise ValueError("lattice rank %d does not match --N %d"
                             % (lat.rank, args.N))
        # N must give the left side a weight: the rank-0 lattice passes
        # the checks above vacuously, with N = 0
        _lhs_weight(args.N)
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError("--tol must be positive and finite, got %r" % args.tol)
        tau = [_parse_complex(getattr(args, name))
               for name in ("tau11", "tau12", "tau22")]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in tau):
            raise ValueError("tau entries must be finite, got %r" % tau)
        pt = SiegelPoint(*tau)
    rep = verify_identity([lat], [aut], pt, args.N, tol=args.tol)
    detail = rep.to_dict()
    if pt.is_diagonal:
        detail["note"] = "diagonal specialization (tau12 = 0)"
    report.add("identity", "ok" if rep.passed else "fail", **detail)
    return 0 if rep.passed else 1


def cmd_gen_fixtures(args, report):
    import random as _random

    from .serialize import module_to_json, tensor_element_to_json
    report.config = {"out": args.out}
    with _input_stage("setup"):
        os.makedirs(args.out, exist_ok=True)
    rng = _random.Random(args.seed)

    def dump(name, obj):
        path = os.path.join(args.out, name)
        with _input_stage("write"), open(path, "w") as fh:
            json.dump(obj, fh, indent=1)
        report.add(name, "ok", path=path)

    M = standard_module(QQ, (2, 1))
    dump("h2h1_module.json", module_to_json(M))
    corrupted = module_to_json(M)
    corrupted["gram"][0][0] = "1"
    del corrupted["partition"]   # no longer the standard module's gram
    dump("corrupted_gram.json", corrupted)
    # base-changed module with planted partition recorded in the metadata
    ks = (3, 1)
    M0 = standard_module(QQ, ks)
    n = M0.dim
    while True:
        P = [[QQ(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        try:
            Pinv = la.inverse(QQ, P)
            break
        except ValueError:
            continue
    from .sntmodule import SntModule
    Mb = SntModule(QQ, la.mat_mul(la.mat_mul(P, M0.t), Pinv),
                   la.mat_mul(la.mat_mul(P, M0.gram), la.transpose(P)))
    dump("basechange_module.json",
         module_to_json(Mb, meta={"planted_partition": list(ks)}))
    # orbit fixtures over F3: an element, a translate, and zero
    F3 = GF(3)
    V = OrthSpace(F3, _parse_vgram(F3, "hyperbolic2"))
    sp = TensorSpace(F3, (2,), V)
    x = sp.element([[F3(1), F3(0)], [F3(0), F3(1)]])
    from .orbits import random_orthogonal_ring
    g = random_orthogonal_ring(sp, rng)
    dump("orbit_x.json", tensor_element_to_json(x))
    dump("orbit_xg.json", tensor_element_to_json(x.act(g)))
    dump("orbit_zero.json", tensor_element_to_json(sp.zero()))
    return 0


class HelpRequested(Exception):
    """-h/--help was given; the argument is the text argparse would print."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as an InputError and a help request as
    HelpRequested, so that both reach the one report path in `main` instead
    of exiting from inside argparse."""

    def error(self, message):
        usage = self.format_usage().replace("usage: ", "", 1).strip()
        raise InputError("usage", message=message, usage=usage)

    def print_help(self, file=None):
        raise HelpRequested(self.format_help())


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process: parsing reads it
    and leaves it as it was, and each parse gets a fresh namespace."""
    p = _Parser(
        prog="sntmod",
        description="Exact structure theory of symplectic t-modules and "
                    "numerical Siegel-Weil verification.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="split a module file into standard planes")
    d.add_argument("module_file")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_decompose)

    o = sub.add_parser("orbit", help="orbit invariants and transport")
    o.add_argument("x_file")
    o.add_argument("y_file", nargs="?", default=None)
    o.add_argument("--json", action="store_true")
    o.set_defaults(func=cmd_orbit)

    c = sub.add_parser("census", help="orbit census vs brute force over F_q")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--M", required=True, help="type partition, e.g. '2' or '2,1'")
    c.add_argument("--V", required=True,
                   help="'diag:1,1,1', 'hyperbolic2', or a JSON gram")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_census)

    v = sub.add_parser("verify-sw", help="verify the Siegel-Weil identity")
    v.add_argument("--lattice", default="e8")
    v.add_argument("--gram-file", default=None)
    v.add_argument("--aut", type=int, default=None)
    v.add_argument("--tau11", default="2i")
    v.add_argument("--tau12", default="0")
    v.add_argument("--tau22", default="2i")
    v.add_argument("--N", type=int, default=8)
    v.add_argument("--tol", type=float, default=1e-8)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify_sw)

    g = sub.add_parser("gen-fixtures", help="write sample input files")
    g.add_argument("--out", default="fixtures")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_gen_fixtures)
    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    report = RunReport(next((a for a in argv if not a.startswith("-")), ""), {})
    as_json = "--json" in argv
    help_text = None
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
        as_json = args.json
        with _input_stage("environment"):
            enum_guard_limit()
        code = args.func(args, report)
    except HelpRequested as exc:
        help_text = exc.args[0]
        report.add("help", "ok", text=help_text)
        code = 0
    except InputError as exc:
        report.add(exc.check, "error", **exc.details)
        code = 2
    except EnumerationGuardError as exc:
        report.add("guard", "error", message=str(exc))
        code = 3
    except TruncationError as exc:     # only the identity check truncates
        report.add("identity", "error", message=str(exc),
                   achieved_tail=exc.achieved)
        code = 4
    report.wall_time = time.time() - t0
    try:
        if help_text is None or as_json:
            report.emit(as_json)
        else:           # plain --help prints argparse's text alone
            sys.stdout.write(help_text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: the rest of the output, and the flush at exit,
        # go to devnull instead of ending in a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def verify_sw_main(argv=None):
    """Entry point for the `verify-sw` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    return main(["verify-sw"] + argv)


if __name__ == "__main__":
    sys.exit(main())
