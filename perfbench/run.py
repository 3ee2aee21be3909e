#!/usr/bin/env python3
"""Fixed-work benchmark for sntmod.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding `src/sntmod`.  One process runs
one workload as a closed loop: a single caller issues each operation when
the previous one has returned; no other thread or process is started.

A round is the workload's fixed list of operations, generated from the seed.
The run repeats whole rounds while the next one is expected to end within S
seconds (always at least one), so every round does the same work and the
share of failed operations does not depend on S.  Every output is checked by
the benchmark's own code outside the timed region.

Times are reported in reference seconds: each timed span is divided by the
host's slowness just around and during it, as measured by a fixed
calibration kernel (see `HostSpeed` and `HostSampler`), so that a shared
host's drift does not read as a change of the program.

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1` (see README.md).
"""
from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single closed-loop caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy  # noqa: F401  third-party import, paid once before any timing

import workloads
from layertrace import LAYERS, Tracer, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# a calibration measurement is the median of CAL_REPEATS kernel runs
CAL_REPEATS = 3
# how often the host is sampled while a long operation runs
SAMPLE_EVERY_S = 0.5
END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def load_api():
    """Import the program afresh: every `sntmod` module is dropped from the
    module cache first, so each set-up pays the program's own import."""
    for name in [n for n in sys.modules if n == "sntmod" or n.startswith("sntmod.")]:
        del sys.modules[name]
    package = importlib.import_module("sntmod")
    api = SimpleNamespace(**{layer: importlib.import_module("sntmod." + layer)
                             for layer in LAYERS})
    return package, api


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _own_fraction_class():
    """`Fraction` from a copy of the `fractions` module of the benchmark's
    own: a traced run patches `fractions.Fraction` to count constructions,
    and the calibration kernel must neither feed nor pay that counter."""
    spec = importlib.util.find_spec("fractions")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Fraction


_CalFraction = _own_fraction_class()


def _int_kernel():
    # small-int arithmetic
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _fraction_kernel():
    # rational arithmetic with small denominators, as in exact linear
    # algebra over Q; the denominators stay bounded, so the work is fixed
    F = _CalFraction
    s = F(0)
    for i in range(1, 300):
        s += F(i % 13 - 6, i % 7 + 1) * F(3, i % 5 + 1)
    return s


# calibration kernels: (kernel, median time of one run on the reference host)
KERNELS = {"int": (_int_kernel, 0.0018), "fraction": (_fraction_kernel, 0.00225)}
# the kernel whose slowness follows each workload's own: `constructive` is
# bound by Fraction arithmetic, the others by small-int, F_p and numpy work
CALIBRATION = {"constructive": "fraction", "finite-census": "int",
               "siegel-weil": "int", "genus16": "int"}


class HostSpeed:
    """The host's current slowness: the median time of a calibration
    kernel over its reference time (1.0 on the reference host, 1.3 on a
    host 30 % slower).  A span's wall time divided by the mean slowness
    measured around and during it is its time in reference seconds.  The
    garbage collector is off while the kernel runs, so the program's heap
    cannot slow it."""

    def __init__(self, kernel):
        self.kernel, self.reference_s = KERNELS[kernel]

    def __call__(self):
        ts, collecting = [], gc.isenabled()
        gc.disable()
        try:
            for _ in range(CAL_REPEATS):
                t0 = time.perf_counter()
                self.kernel()
                ts.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        return statistics.median(ts) / self.reference_s


class HostSampler:
    """Samples the host's slowness every SAMPLE_EVERY_S seconds while an
    operation runs, from a SIGALRM handler in the calling thread, and adds
    up the time the samples took, which the caller takes off the
    operation's time.  An operation shorter than the period gets none."""

    def __init__(self, host_speed):
        self.host_speed = host_speed
        self.samples, self.spent = [], 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.host_speed())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def log(message):
    print("perfbench: " + message, file=sys.stderr)


def run_round(ops, tracer, host_speed):
    """Run one round's operations in order; returns its record: `times`
    in wall seconds and `ref_times` in reference seconds."""
    times, ref_times, failed, wrong, cpu = [], [], 0, False, 0.0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        before = host_speed()
        sampler = HostSampler(host_speed)
        c0, t0 = cpu_seconds(), time.perf_counter()
        frame = tracer.open_op(op.kind) if tracer else None
        try:
            with sampler:
                out = op.run()
        except (Exception, SystemExit) as exc:
            out = exc
        finally:
            if tracer:
                tracer.close_op(frame)
        times.append(time.perf_counter() - t0 - sampler.spent)
        cpu += cpu_seconds() - c0 - sampler.spent
        slowness = [before] + sampler.samples + [host_speed()]
        ref_times.append(times[-1] / statistics.mean(slowness))
        if isinstance(out, BaseException):
            failed += 1
            log("op %d (%s) raised %s: %s" % (i, op.kind, type(out).__name__, out))
            continue
        try:
            op.check(out)
        except Exception as exc:
            failed += 1
            wrong = True
            log("op %d (%s) failed its check: %s: %s"
                % (i, op.kind, type(exc).__name__, exc))
    return {"times": times, "ref_times": ref_times, "failed": failed,
            "wrong": wrong, "cpu_s": cpu, "wall_s": time.perf_counter() - start}


def run_workload(name, seed, seconds, trace, small=False):
    """Set up and run one workload; returns the result object."""
    if not (ROOT / "src" / "sntmod" / "__init__.py").is_file():
        raise FileNotFoundError("no program sources at %s" % (ROOT / "src" / "sntmod"))
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "_work" / ("%s-%d-%d" % (name, seed, os.getpid()))
    host_speed = HostSpeed(CALIBRATION[name])
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            gc.collect()
            before = host_speed()
            t0 = time.perf_counter()
            package, api = load_api()
            workdir.mkdir(parents=True)
            make_round = workloads.SETUPS[name](api, seed, str(workdir), small)
            wall = time.perf_counter() - t0
            setup_times.append(wall / ((before + host_speed()) / 2))
        if Path(api.cli.__file__).resolve().parent != ROOT / "src" / "sntmod":
            raise ImportError("sntmod was imported from %s" % api.cli.__file__)
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(api, package)

        rounds, per_layer = [], []
        start = time.perf_counter()
        while True:
            ops = make_round()
            gc.collect()
            if tracer is not None:
                tracer.reset()
            rounds.append(run_round(ops, tracer, host_speed))
            if tracer is not None:
                per_layer.append(tracer.metrics())
            if time.perf_counter() - start + statistics.median(
                    r["wall_s"] for r in rounds) > seconds:
                break
        log("%d rounds; median round %.4f s wall, %.4f reference s" % (
            len(rounds), statistics.median(sum(r["times"]) for r in rounds),
            statistics.median(sum(r["ref_times"]) for r in rounds)))
        attempted = sum(len(r["times"]) for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        correct = not any(r["wrong"] for r in rounds)
        if trace:
            metrics = _layer_metrics(per_layer, rounds)
            if metrics is None:
                correct = False
                metrics = per_layer[0]
            _write_spans(tracer, name, seed)
            tracer.uninstall()
            units = {k: unit_of(k) for k in metrics}
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": statistics.median(sum(r["ref_times"]) for r in rounds),
                "op_p50_ms": 1000 * statistics.median(
                    t for r in rounds for t in r["ref_times"]),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(per_layer, rounds):
    """Times as medians over rounds; counts from the first traced round,
    which every later round must repeat exactly.  Peak-memory growth is
    taken from the first round, since later rounds start at that peak."""
    first = per_layer[0]
    for other in per_layer[1:]:
        for k, v in first.items():
            if not k.endswith(("_s", "_mb")) and other[k] != v:
                log("count %s differs between rounds: %r vs %r" % (k, v, other[k]))
                return None
    out = {k: statistics.median(m[k] for m in per_layer) if k.endswith("_s")
           else v for k, v in first.items()}
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in rounds)
    out["trace.run_s"] = statistics.median(sum(r["ref_times"]) for r in rounds)
    return out


def _write_spans(tracer, name, seed):
    path = HERE / "_work" / ("spans-%s-%d.json" % (name, seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["constructive", "finite-census", "siegel-weil", "genus16"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
