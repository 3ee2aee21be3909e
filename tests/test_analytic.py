"""Lattice enumeration, theta series, Eisenstein evaluators, and the
identity harness."""
import functools
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sntmod
from sntmod import analytic
from sntmod.analytic import (AUT_E8, IntegralLattice, SiegelPoint,
                             TruncationError, bernoulli_number, e8,
                             eisenstein_lhs, eisenstein_q, mass_constant,
                             primitive_counts, sigma_power, theta_basic,
                             theta_colinear, verify_identity)
from sntmod.sntmodule import EnumerationGuardError

from analytic_oracles import (eisenstein_direct, eisenstein_lhs_direct,
                              lattice_levels, lattice_vectors,
                              theta_colinear_direct)


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
    c = E8.counts_by_norm(4)
    assert next(n for n in range(1, 5) if c[n]) == 2     # the minimal norm


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


def test_lattice_eliminates_once(monkeypatch):
    # the positive-definite check and det() share one exact elimination
    calls = []
    minors = analytic._leading_minors
    monkeypatch.setattr(analytic, "_leading_minors",
                        lambda gram: calls.append(1) or minors(gram))
    L = IntegralLattice([[2, 1], [1, 2]], name="A2")
    assert L.det() == 3 and not L.is_unimodular()
    assert len(calls) == 1


def _fraction_pivots(gram):
    """Reference for _leading_minors: the pivots of exact Gaussian
    elimination over Fractions without row swaps, up to and including the
    first non-positive one.  All are positive exactly when the gram is
    positive definite, and their product is then det."""
    A = [[Fraction(x) for x in row] for row in gram]
    n = len(A)
    out = []
    for i in range(n):
        piv = A[i][i]
        out.append(piv)
        if piv <= 0:
            break
        for r in range(i + 1, n):
            f = A[r][i] / piv
            A[r] = [x - f * y for x, y in zip(A[r], A[i])]
    return out


def _oracle_gram(rng, kind, n):
    """A seeded symmetric int gram of rank n: positive definite (MᵀM + I),
    singular (MᵀM with a dependent row in M) or indefinite (MᵀM + I with one
    diagonal entry pushed below 0, or a random symmetric matrix)."""
    M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        coeffs = [rng.choice((-1, 1)) for _ in range(n - 1)]
        M[-1] = [sum(c * row[j] for c, row in zip(coeffs, M)) for j in range(n)]
    shift = kind != "singular"
    gram = [[sum(M[k][i] * M[k][j] for k in range(n)) + shift * (i == j)
             for j in range(n)] for i in range(n)]
    if kind == "indefinite":
        if rng.random() < 0.5:
            k = rng.randrange(n)
            gram[k][k] -= gram[k][k] + rng.randint(1, 5)
        else:
            for i in range(n):
                for j in range(i + 1):
                    gram[i][j] = gram[j][i] = rng.randint(-4, 4)
    return gram


@pytest.mark.parametrize("kind", ["definite", "singular", "indefinite"])
@pytest.mark.parametrize("n", range(1, 9))
def test_leading_minors_match_fraction_pivots(kind, n):
    # 3 kinds x 8 ranks x 8 seeds: 192 grams against the Fraction reference
    rng = random.Random("%s-%d" % (kind, n))
    for _ in range(8):
        gram = _oracle_gram(rng, kind, n)
        pivots = _fraction_pivots(gram)
        minors = analytic._leading_minors(gram)
        assert minors == [math.prod(pivots[:k + 1]) for k in range(len(pivots))]
        definite = all(p > 0 for p in pivots)
        assert kind != "definite" or definite
        assert kind != "singular" or not definite
        if definite:
            assert IntegralLattice(gram).det() == math.prod(pivots)
        else:
            with pytest.raises(ValueError, match="positive definite"):
                IntegralLattice(gram)


def test_gram_entries_must_be_integers():
    # an entry is never rounded into another lattice: E8 with one 2 read as
    # 2.9 or "2" is not E8.  Integer-valued floats, as JSON may write them,
    # and numpy integers are read as the integers they are
    for bad in (2.9, 2.5, "2", True, None, math.inf, math.nan, Fraction(2)):
        gram = [row[:] for row in analytic._E8_GRAM]
        gram[3][3] = bad
        with pytest.raises(ValueError, match=r"gram entry \(3, 3\)"):
            IntegralLattice(gram)
    for good in ([[float(x) for x in row] for row in analytic._E8_GRAM],
                 np.array(analytic._E8_GRAM)):
        L = IntegralLattice(good)
        assert L.gram == analytic._E8_GRAM and L.det() == 1


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


def test_rank_zero_lattice_holds_the_zero_vector():
    L = IntegralLattice([])
    assert L.counts_by_norm(3) == [1, 0, 0, 0]
    assert lattice_vectors([], 3) == [((), 0)]
    assert lattice_vectors([], -1) == []


def test_negative_norm_bound_counts_nothing():
    # no vector has a negative norm, at any rank
    for gram in ([], analytic._E8_GRAM, _random_gram(random.Random(5), 4)):
        L = IntegralLattice(gram)
        assert L.counts_by_norm(-1) == [] and L.counts_by_norm(-3) == []
        assert lattice_vectors(gram, -1) == []
        assert L.counts_by_norm(2)[0] == 1


def test_enumeration_guard_before_allocation(monkeypatch):
    # 1 + 240 + 2160 = 2401 vectors of norm <= 4; the guard caps each level
    monkeypatch.setenv("SNT_MAX_ENUM", "1000")
    with pytest.raises(EnumerationGuardError):
        e8().counts_by_norm(4)
    monkeypatch.setenv("SNT_MAX_ENUM", "2401")
    assert sum(e8().counts_by_norm(4)) == 2401


def _random_gram(rng, n):
    # MᵀM + I is a positive definite integer gram for any integer M
    M = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[sum(M[k][i] * M[k][j] for k in range(n)) + (i == j)
             for j in range(n)] for i in range(n)]


def _brute_force_shell(gram, B):
    """All x with xᵀGx <= B in the walker's order (lexicographic in
    (x_{N-1}, ..., x_0)), by scanning the box |x_i| <= sqrt(B (G⁻¹)_ii),
    which holds every such x by Cauchy-Schwarz."""
    n = len(gram)
    ginv = np.linalg.inv(np.array(gram, dtype=float))
    # one extra layer absorbs rounding in the float inverse
    r = [math.isqrt(int(B * ginv[i, i])) + 1 for i in range(n)]
    found = []
    for rev in itertools.product(*(range(-k, k + 1) for k in reversed(r))):
        x = rev[::-1]
        norm = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm <= B:
            found.append((x, norm))
    return found


def _walk_in_chunks(monkeypatch, chunk):
    """Walk in chunks of `chunk` prefixes at the tail depths the walker
    takes at its own _CHUNK, which caps the depth's class patterns: these
    cases cross chunk boundaries at the depth the counts take in use."""
    depth, full = analytic._tail_depth, analytic._CHUNK
    monkeypatch.setattr(analytic, "_tail_depth", lambda D, B, _: depth(D, B, full))
    monkeypatch.setattr(analytic, "_CHUNK", chunk)


@pytest.mark.parametrize("chunk", [analytic._CHUNK, 1, 3])
@pytest.mark.parametrize("seed", range(8))
def test_shell_walker_matches_box_scan(seed, chunk, monkeypatch):
    _walk_in_chunks(monkeypatch, chunk)
    rng = random.Random(seed)
    gram = _random_gram(rng, 2 + seed % 3)
    B = rng.randint(3, 12)
    want = _brute_force_shell(gram, B)
    # the counts oracle against the box scan, vector by vector
    assert lattice_vectors(gram, B) == want
    counts = [0] * (B + 1)
    for _, nm in want:
        counts[nm] += 1
    assert IntegralLattice(gram).counts_by_norm(B) == counts


def test_enumeration_guard_sums_chunks(monkeypatch):
    # one-prefix chunks: no single step nears the guard, only their sum
    _walk_in_chunks(monkeypatch, 1)
    monkeypatch.setenv("SNT_MAX_ENUM", "1000")
    with pytest.raises(EnumerationGuardError):
        e8().counts_by_norm(4)
    monkeypatch.setenv("SNT_MAX_ENUM", "2401")
    assert sum(e8().counts_by_norm(4)) == 2401


def test_enumeration_guard_counts_half_walk(monkeypatch):
    # the shell counts walk one of each pair ±x: E8's largest level to norm
    # 4 is its last, 1 + 2400/2 = 1201 candidates.  One below, the guard
    # raises before any step builds more rows than the limit
    built = []
    repeat = np.repeat
    monkeypatch.setattr(np, "repeat",
                        lambda a, r, *args: built.append(int(np.sum(r)))
                        or repeat(a, r, *args))
    monkeypatch.setenv("SNT_MAX_ENUM", "1200")
    with pytest.raises(EnumerationGuardError):
        e8().counts_by_norm(4)
    assert built and max(built) <= 1200
    monkeypatch.setenv("SNT_MAX_ENUM", "1201")
    assert sum(e8().counts_by_norm(4)) == 2401


def _orthogonal_sum(grams, rng):
    """The block-diagonal sum of `grams` with its coordinates shuffled."""
    n = sum(len(g) for g in grams)
    big = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            big[off + i][off:off + len(g)] = row
        off += len(g)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[big[p][q] for q in perm] for p in perm]


def _count_cases():
    """(id, gram, B): E8 for B <= 10, both rank-16 classes at B = 4, seeded
    random grams of rank 2-6, and shuffled orthogonal sums of small ones."""
    rng = random.Random(2024)
    cases = [("E8-%d" % B, analytic._E8_GRAM, B) for B in range(11)]
    cases += [("E8+E8-4", analytic.e8e8().gram, 4),
              ("D16+-4", analytic._D16_PLUS_GRAM, 4)]
    grams = [("rank%d-%d" % (n, k), _random_gram(rng, n))
             for n in range(2, 7) for k in range(2)]
    grams += [("sum-%d" % k, _orthogonal_sum(
        [_random_gram(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))],
        rng)) for k in range(6)]
    for name, gram in grams:
        cases.append((name, gram, max(gram[i][i] for i in range(len(gram)))
                      + rng.randint(0, 8)))
    return cases


_COUNT_CASES = {name: (gram, B) for name, gram, B in _count_cases()}


def _oracle_counts(gram, B):
    """c(0..B) from every vector the exact full walk `lattice_vectors`
    enumerates."""
    counts = [0] * (B + 1)
    for _, norm in lattice_vectors(gram, B):
        counts[norm] += 1
    return counts


@functools.lru_cache(maxsize=None)
def _full_walk_counts(name):
    return _oracle_counts(*_COUNT_CASES[name])


# chunks of one and three prefixes on the rank <= 8 cases; the rank-16
# walks cross chunk boundaries at 64 (30 splits for E8+E8, 672 for D16+)
# at under a tenth of the cost of chunks of three
_CHUNK_CASES = [(name, chunk) for name, (gram, _) in _COUNT_CASES.items()
                for chunk in ([analytic._CHUNK, 1, 3] if len(gram) <= 8
                              else [analytic._CHUNK, 64])]


@pytest.mark.parametrize("name,chunk", _CHUNK_CASES)
def test_counts_match_full_walk(name, chunk, monkeypatch):
    # the split-and-half-walk counts against the bincount of every vector
    # the independent full walk enumerates
    want = _full_walk_counts(name)
    _walk_in_chunks(monkeypatch, chunk)
    gram, B = _COUNT_CASES[name]
    assert IntegralLattice(gram).counts_by_norm(B) == want


# the least SNT_MAX_ENUM at which the counts pass: the largest level of the
# half walk, in each case its leaves (1 + half the nonzero vectors)
_GUARD_PINS = {"E8-4": (analytic._E8_GRAM, 4, 1201),
               "E8-16": (analytic._E8_GRAM, 16, 170161),
               "D16+-4": (analytic._D16_PLUS_GRAM, 4, 31201)}


@pytest.mark.parametrize("name", list(_GUARD_PINS))
def test_enumeration_guard_least_limit(name, monkeypatch):
    gram, B, least = _GUARD_PINS[name]
    monkeypatch.setenv("SNT_MAX_ENUM", str(least - 1))
    with pytest.raises(EnumerationGuardError, match="level of %d candidates" % least):
        IntegralLattice(gram).counts_by_norm(B)
    monkeypatch.setenv("SNT_MAX_ENUM", str(least))
    L = IntegralLattice(gram)
    assert sum(L.counts_by_norm(B)) == 2 * least - 1
    assert L._largest_level == least


_TAIL_TRIES = 1000


def _with_tail(H, rest, rng):
    """A positive definite gram whose walk ends in the k x k block H: H,
    then `rest` coordinates of diagonal above H's, so that the stable sort
    by diagonal keeps H's k first, coupled to H by entries in {-1, 0, 1}.
    Draws at most `_TAIL_TRIES` couplings (the cases here need at most 8),
    then raises RuntimeError."""
    k = len(H)
    n = k + rest
    top = max(H[i][i] for i in range(k))
    for _ in range(_TAIL_TRIES):
        gram = [[0] * n for _ in range(n)]
        for i in range(k):
            gram[i][:k] = H[i]
        for i in range(k, n):
            gram[i][i] = top + rng.randint(1, 3)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-1, 1)
        minors = analytic._leading_minors(gram)     # up to the first <= 0
        if len(minors) == n and minors[-1] > 0:
            return gram
    raise RuntimeError("no positive definite coupling of %d more coordinates in %d tries"
                       % (rest, _TAIL_TRIES))


def test_with_tail_stops_after_its_tries():
    # I_4 below 8 more coordinates is almost never positive definite
    with pytest.raises(RuntimeError, match="1000 tries"):
        _with_tail([[int(i == j) for j in range(4)] for i in range(4)], 8,
                   random.Random(0))


# 2 x 2 tail blocks H = G[:2, :2]: diagonal and not, with det 1 to 28, gcd of the
# first row 1 to 3, and one reduced basis of Z² that is not ([[2, 3], [3, 5]])
_TAIL_BLOCKS = [[[1, 0], [0, 1]], [[1, 0], [0, 2]], [[2, 0], [0, 3]],
                [[3, 0], [0, 5]], [[4, 0], [0, 7]], [[2, 1], [1, 2]],
                [[2, -1], [-1, 3]], [[3, 1], [1, 4]], [[4, -2], [-2, 5]],
                [[4, 2], [2, 4]], [[5, 2], [2, 6]], [[6, -3], [-3, 6]],
                [[2, 3], [3, 5]]]


def _tail_cases():
    """(id, gram, B): each tail block below 1 or 4 more coordinates, whose
    prefixes fall in up to 12 classes, each alone as a rank-2 component, a
    skewed block below 3 more, and rank-1 components beside others."""
    rng = random.Random(31)
    cases = []
    for H in _TAIL_BLOCKS:
        (a, b), (_, c) = H
        name = "H%d,%d,%d-" % (a, b, c)
        for rest in (1, 4):
            gram = _with_tail(H, rest, rng)
            cases.append((name + "rank%d" % (2 + rest), gram,
                          2 * max(gram[i][i] for i in range(len(gram)))))
        cases.append((name + "alone", H, 12 + rng.randint(0, 8)))
    # det H = 999 999, of which 13 classes occur
    cases.append(("H1000,1,1000-rank5", [[1000, 1, 0, 0, 1], [1, 1000, 1, 0, 0],
                                         [0, 1, 1001, 1, 0], [0, 0, 1, 1002, 1],
                                         [1, 0, 0, 1, 1003]], 6100))
    cases += [("rank1-%d" % g, _orthogonal_sum([[[g]], [[2, 1], [1, 3]], [[1]]], rng), 11)
              for g in (1, 2, 5)]
    return cases


_TAIL_CASES = {name: (gram, B) for name, gram, B in _tail_cases()}


@functools.lru_cache(maxsize=None)
def _cached_oracle_counts(name):
    return _oracle_counts(*{**_TAIL_CASES, **_SKEWED}[name])


@pytest.mark.parametrize("chunk", [analytic._CHUNK, 1, 3])
@pytest.mark.parametrize("name", list(_TAIL_CASES))
def test_tail_blocks_match_full_walk(name, chunk, monkeypatch):
    # the closed-form tail against every vector the exact full walk lists
    gram, B = _TAIL_CASES[name]
    want = _cached_oracle_counts(name)
    _walk_in_chunks(monkeypatch, chunk)
    assert IntegralLattice(gram).counts_by_norm(B) == want


# skewed tail blocks, det H = 999 999: the rank-2 block beside E8 (its
# walk is the zero prefix's tail alone), and a rank-4 gram whose prefixes
# fall in many of the 999 999 classes
_SKEWED = {"beside-E8": (_orthogonal_sum([[[1000, 1], [1, 1000]], analytic._E8_GRAM],
                                         random.Random(4)), 4),
           "rank4": ([[1000, 1, 0, 0], [1, 1000, 1, 0], [0, 1, 1001, 1],
                      [0, 0, 1, 1002]], 4100)}


@pytest.mark.parametrize("chunk", [analytic._CHUNK, 1, 3])
@pytest.mark.parametrize("name", list(_SKEWED))
def test_skewed_tail_block_stays_small(name, chunk, monkeypatch):
    gram, B = _SKEWED[name]
    want = _cached_oracle_counts(name)
    _walk_in_chunks(monkeypatch, chunk)
    tracemalloc.start()
    try:
        got = IntegralLattice(gram).counts_by_norm(B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    # one int64 per class would be 8 MB
    assert peak < 2 << 20, peak


# 3 x 3 and 4 x 4 leading blocks, diagonal and not, of det 4 to 37, and
# one of det 101, walked at each tail size k they allow
_K_BLOCKS = [[[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]],
             [[2, -1, 1], [-1, 3, 0], [1, 0, 4]], [[3, 1, 1], [1, 3, 1], [1, 1, 3]],
             [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
             [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
             [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
             [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 3, 1], [1, 0, 1, 4]],
             [[2, 1, 0, -1], [1, 3, 1, 0], [0, 1, 5, 0], [-1, 0, 0, 5]]]


def _walked_ranks(gram):
    """The rank each orthogonal component is walked at (a rank-1
    component is walked at rank 2)."""
    return [max(2, len(c)) for c in analytic._orthogonal_components(gram)]


def _k_cases():
    """(id, gram, B): each block below 1 or 3 more coordinates and, if
    3 x 3, alone."""
    rng = random.Random(32)
    cases = []
    for H in _K_BLOCKS:
        name = "K%s-" % ",".join(str(H[i][j]) for i in range(len(H))
                                 for j in range(i, len(H)))
        for rest in (1, 3):
            gram = _with_tail(H, rest, rng)
            cases.append((name + "rank%d" % (len(H) + rest), gram,
                          2 * max(gram[i][i] for i in range(len(gram)))))
        if len(H) == 3:
            cases.append((name + "alone", H, 14 + rng.randint(0, 6)))
    return cases


_K_CASES = {name: (gram, B) for name, gram, B in _k_cases()}
_K_CASES["D16+-4"] = _COUNT_CASES["D16+-4"]


def _forced_depths(name):
    """The tail sizes each case is walked at: every k in 2..min(N, 8), N
    its largest component's walked rank; a component of rank n < k is
    walked at k = n."""
    return range(2, min(max(_walked_ranks(_K_CASES[name][0])), 8) + 1)


def test_k_cases_cover_each_tail_size():
    # every k from 2 to 8 below more coordinates, and every k from 3 to 7
    # as a whole component, whose zero prefix's pattern is the full walk
    below, whole = set(), set()
    for name, (gram, _) in _K_CASES.items():
        top = max(_walked_ranks(gram))
        below.update(k for k in _forced_depths(name) if k < top)
        whole.update(k for k in _forced_depths(name) if k == top)
    assert below == set(range(2, 9)) and whole >= set(range(3, 8))
    # the leading blocks have det 4 to 101, diagonal and not
    dets = {analytic._leading_minors(H)[-1] for H in _K_BLOCKS}
    assert min(dets) == 4 and max(dets) == 101


@functools.lru_cache(maxsize=None)
def _k_oracle(name):
    gram, B = _K_CASES[name]
    if name in _COUNT_CASES:
        return _full_walk_counts(name), _GUARD_PINS[name][2]
    return _oracle_counts(gram, B), _exact_largest_level(gram, B)


# chunks of one and three prefixes below the small cases; D16+ crosses
# chunk boundaries at 64, as in the count cases
_K_CHUNKS = [(name, chunk) for name in _K_CASES
             for chunk in ([analytic._CHUNK, 64] if name in _COUNT_CASES
                           else [analytic._CHUNK, 1, 3])]


@pytest.mark.parametrize("name,chunk", _K_CHUNKS)
def test_k_blocks_match_full_walk(name, chunk, monkeypatch):
    # the per-class tails of the last k coordinates against every vector
    # the exact full walk lists, and the guard's counts against the exact
    # half walk's, at every tail size, not only the one the estimate picks
    gram, B = _K_CASES[name]
    want = _k_oracle(name)
    monkeypatch.setattr(analytic, "_CHUNK", chunk)
    for k in _forced_depths(name):
        monkeypatch.setattr(analytic, "_tail_depth",
                            lambda D, B, chunk: min(k, len(D) - 1))
        L = IntegralLattice(gram)
        assert (L.counts_by_norm(B), L._largest_level) == want, k
        assert L._tail_depths == [min(k, n) for n in _walked_ranks(gram)]


def test_tail_depth_follows_the_estimate():
    # D16+ to norm 6 stops deep, E8 at verify-sw's bounds at k = 4
    L = analytic.d16_plus()
    L.counts_by_norm(6)
    assert L._tail_depths[0] >= 7
    for B in range(4, 17):
        L = e8()
        L.counts_by_norm(B)
        assert L._tail_depths == [4], B
    # E8 to norm 16 at k = 8 would hold its whole walk at once (26 MB);
    # at the depth taken it stays small
    tracemalloc.start()
    try:
        e8().counts_by_norm(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak
    # the patterns of a k > 2 must fit the walker's own level bound,
    # chunk prefixes times a coordinate's range: with one-prefix chunks
    # none of E8's does
    D = [1] + analytic._leading_minors(analytic._E8_GRAM)
    assert analytic._tail_depth(D, 16, analytic._CHUNK) == 4
    assert analytic._tail_depth(D, 16, 1) == 2


def _tridiagonal(n, d, c):
    return [[d if i == j else c if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


# connected grams of large det: at bound 2d the estimate alone would stop
# all 16 coordinates short, with det past 2^63 (diagonal 16) and a Hermite
# diagonal split by the common factor 2 (all entries even)
_LARGE_DET = {"tri16": (_tridiagonal(16, 16, 1), 32),
              "tri16-even": (_tridiagonal(16, 32, 2), 64)}


@pytest.mark.parametrize("name", list(_LARGE_DET))
def test_tail_depth_keeps_class_keys_inside_int64(name, monkeypatch):
    gram, B = _LARGE_DET[name]
    D = [1] + analytic._leading_minors(gram)
    assert D[-1] >= 2 ** 63
    want = _oracle_counts(gram, B), _exact_largest_level(gram, B)
    L = IntegralLattice(gram)
    assert (L.counts_by_norm(B), L._largest_level) == want
    assert D[L._tail_depths[0]] < analytic._KEY_LIMIT
    # forced to each depth the limit allows: up to 7 and 6, det 2^28 and
    # 2^30 or so
    top = max(k for k in range(2, 17) if D[k] < analytic._KEY_LIMIT)
    assert top >= 6
    for k in range(2, top + 1):
        monkeypatch.setattr(analytic, "_tail_depth", lambda D, B, chunk: k)
        L = IntegralLattice(gram)
        assert (L.counts_by_norm(B), L._largest_level) == want, k
    # the limit is what keeps the estimate from k = 16
    monkeypatch.undo()
    monkeypatch.setattr(analytic, "_KEY_LIMIT", 2 ** 200)
    assert analytic._tail_depth(D, B, analytic._CHUNK) == 16


# connected grams whose leading blocks' unreduced Hermite forms reach 2^50
# to 2^90 at det below 2^31: the first overflowed at its estimated depth
# 9, and the second counted wrongly, with no error, when walked at k = 9
_WIDE_HERMITE = {
    "rank9": ([[8, -1, -1, 0, -1, 0, 0, 0, 0], [-1, 10, -1, 0, 0, 1, 0, -3, 0],
               [-1, -1, 9, 2, 2, -3, 0, 0, 2], [0, 0, 2, 9, -1, -3, -3, 0, -2],
               [-1, 0, 2, -1, 16, -2, 0, -3, 2], [0, 1, -3, -3, -2, 11, -1, 0, -2],
               [0, 0, 0, -3, 0, -1, 14, 0, 0], [0, -3, 0, 0, -3, 0, 0, 13, 0],
               [0, 0, 2, -2, 2, -2, 0, 0, 13]], 32),
    "rank10": ([[4, -2, 0, 0, 0, 1, 0, 1, 0, -2], [-2, 8, 0, 0, -2, -2, -1, 0, 1, 0],
                [0, 0, 8, -2, 0, 1, -2, 0, 0, 0], [0, 0, -2, 8, -2, -2, -1, -2, 0, -2],
                [0, -2, 0, -2, 8, 0, 1, 0, 0, -1], [1, -2, 1, -2, 0, 8, -1, -1, -2, 0],
                [0, -1, -2, -1, 1, -1, 8, -2, -1, 0], [1, 0, 0, -2, 0, -1, -2, 6, 0, 1],
                [0, 1, 0, 0, 0, -2, -1, 0, 6, 0], [-2, 0, 0, -2, -1, 0, 0, 1, 0, 4]], 16)}


@pytest.mark.parametrize("name", list(_WIDE_HERMITE))
def test_reduced_hermite_form_counts_at_every_depth(name, monkeypatch):
    gram, B = _WIDE_HERMITE[name]
    comp = sorted(range(len(gram)), key=lambda i: gram[i][i])
    sub = [[gram[i][j] for j in comp] for i in comp]
    D = [1] + analytic._leading_minors(sub)
    for k in range(2, len(gram) + 1):
        H = [row[:k] for row in sub[:k]]
        L, U = analytic._hermite(H)
        assert (np.array(H, dtype=object).dot(np.array(U, dtype=object)) == L).all()
        assert abs(round(np.linalg.det(np.array(U, dtype=float)))) == 1
        assert all(0 <= L[i][j] < L[i][i] for i in range(k) for j in range(i))
        assert all(L[i][j] == 0 for i in range(k) for j in range(i + 1, k))
        assert math.prod(L[i][i] for i in range(k)) == D[k]
    want = _oracle_counts(gram, B), _exact_largest_level(gram, B)
    L = IntegralLattice(gram)
    assert (L.counts_by_norm(B), L._largest_level) == want
    for k in range(2, len(gram) + 1):
        monkeypatch.setattr(analytic, "_tail_depth", lambda D, B, chunk: k)
        L = IntegralLattice(gram)
        assert (L.counts_by_norm(B), L._largest_level) == want, k


def test_residue_step_on_python_ints(monkeypatch):
    # the residue step's int64 bound holds on the built-in lattices; where
    # it would not, the step runs on Python ints and counts the same
    fits, seen = analytic._Tails._fits, []

    def spy(self, E, en):
        seen.append(fits(self, E, en))
        return seen[-1]

    monkeypatch.setattr(analytic._Tails, "_fits", spy)
    analytic.d16_plus().counts_by_norm(6)
    e8().counts_by_norm(16)
    assert seen and all(seen)
    G = np.array(analytic._E8_GRAM)
    tails = analytic._Tails(G, np.linalg.cholesky(G.astype(float)).T, 4, 16,
                            [16.5] * 9)
    E, en = np.zeros((8, 3), dtype=np.int64), np.zeros(3, dtype=np.int64)
    assert tails._fits(E, en)
    E[2, 1] = 2 ** 61
    assert not tails._fits(E, en)
    monkeypatch.setattr(analytic._Tails, "_fits", lambda self, E, en: False)
    cases = [(_COUNT_CASES["E8-6"], _full_walk_counts("E8-6")),
             (_COUNT_CASES["D16+-4"], _full_walk_counts("D16+-4")),
             (_SKEWED["rank4"], _cached_oracle_counts("rank4")),
             (_WIDE_HERMITE["rank10"], _oracle_counts(*_WIDE_HERMITE["rank10"]))]
    for (gram, B), want in cases:
        assert IntegralLattice(gram).counts_by_norm(B) == want


def _exact_largest_level(gram, B):
    """The largest level count of the exact half walks of the gram's
    orthogonal components, each in the walker's order (stably sorted by
    diagonal)."""
    largest = 0
    for comp in analytic._orthogonal_components(gram):
        comp = sorted(comp, key=lambda i: gram[i][i])
        sub = [[gram[i][j] for j in comp] for i in comp]
        largest = max(largest, max(lattice_levels(sub, B)))
    return largest


_LEVEL_CASES = {**_COUNT_CASES, **_TAIL_CASES, **_K_CASES}


@pytest.mark.parametrize("name", list(_LEVEL_CASES))
def test_largest_level_matches_exact_half_walk(name):
    # the guard's counts, those of the tail levels included, are the exact
    # rational walk's at bound B + ½, ties at B + ½ too (E8 at odd B)
    gram, B = _LEVEL_CASES[name]
    L = IntegralLattice(gram)
    L.counts_by_norm(B)
    assert L._largest_level == _exact_largest_level(gram, B)


def test_exact_levels_of_e8():
    # E8 to norm 1 holds only 0, but its partial norms reach B + ½ = 3/2
    # exactly: level 1 of the exact half walk has 29 candidates
    assert lattice_levels(analytic._E8_GRAM, 1) == [1, 29, 39, 32, 16, 8, 4, 2]
    assert lattice_levels(analytic._E8_GRAM, 4)[0] == 1201
    assert lattice_levels([], 3) == [] and lattice_levels([[2]], -1) == [0]


def test_orthogonal_sum_convolved_exactly_at_a_large_bound():
    # the components' counts are convolved as Python ints, one shifted
    # copy per nonzero count of the sparser side
    gram = _orthogonal_sum([[[2]], [[2, 1], [1, 2]]], random.Random(81))
    got = IntegralLattice(gram).counts_by_norm(2000)
    assert got == _oracle_counts(gram, 2000)
    assert all(type(c) is int for c in got)
    a, b = np.array([1, 0, 2, 0], dtype=object), np.array([3, 1, 0, 5], dtype=object)
    assert analytic._convolve(a, b).tolist() == [3, 1, 6, 7]


def test_identical_components_walked_once(monkeypatch):
    # a component whose sorted gram was walked earlier in the same call
    # reuses that walk: E8+E8's second E8, Z^6's [[1]]s, and in a shuffled
    # sum A2 twice, [[2]] twice and [[3, 1], [1, 2]], which sorts to
    # [[2, 1], [1, 3]]
    walked = []
    shell_chunks = analytic._shell_chunks
    monkeypatch.setattr(analytic, "_shell_chunks",
                        lambda gram, B: walked.append(gram) or shell_chunks(gram, B))
    a2, b = [[2, 1], [1, 2]], [[2, 1], [1, 3]]
    mixed = _orthogonal_sum([a2, [[2]], b, a2, [[3, 1], [1, 2]], [[2]], [[5]]],
                            random.Random(35))
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    for gram, B, walks, want in [
            (analytic.e8e8().gram, 4, 1, _full_walk_counts("E8+E8-4")),
            (identity, 9, 1, _oracle_counts(identity, 9)),
            (mixed, 8, 4, _oracle_counts(mixed, 8))]:
        walked.clear()
        L = IntegralLattice(gram)
        assert L.counts_by_norm(B) == want
        assert len(walked) == walks
        # against each component walked on its own, in a call of its own
        parts = [IntegralLattice([[gram[i][j] for j in c] for i in c])
                 for c in analytic._orthogonal_components(gram)]
        per = [1] + [0] * B
        for P in parts:
            c = P.counts_by_norm(B)
            per = [sum(per[m] * c[n - m] for m in range(n + 1)) for n in range(B + 1)]
        assert per == want
        assert L._largest_level == max(P._largest_level for P in parts)
        assert L._tail_depths == [d for P in parts for d in P._tail_depths]


def test_orthogonal_components_interleaved():
    # a summand's coordinates need not be adjacent
    gram = [[2, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 0], [1, 0, 0, 2]]
    assert analytic._orthogonal_components(gram) == [[0, 3], [1, 2]]


def _rank16_closed_form(B):
    # the theta series of the rank-16 genus is the weight-8 Eisenstein
    # series: 480 sigma_7(m) vectors of norm 2m
    return [1] + [480 * sigma_power(n // 2, 7) if n % 2 == 0 else 0
                  for n in range(1, B + 1)]


def test_d16_counts_in_any_coordinate_order():
    # each component is walked in its coordinates sorted by diagonal, so a
    # shuffled copy of D16+ is walked in another order, to the same counts
    shuffled = _orthogonal_sum([analytic._D16_PLUS_GRAM], random.Random(16))
    assert shuffled != analytic._D16_PLUS_GRAM
    for gram in (analytic._D16_PLUS_GRAM, shuffled):
        assert IntegralLattice(gram).counts_by_norm(6) == _rank16_closed_form(6)


def _scrambled(gram, seed, steps):
    """P·G·Pᵀ for a seeded unimodular P, a product of `steps` elementary
    row operations row_r += ±row_c: the same lattice in a basis with mixed
    diagonals and dense off-diagonal entries."""
    rng = random.Random(seed)
    n = len(gram)
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        r, c = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        P[r] = [a + s * b for a, b in zip(P[r], P[c])]
    PG = [[sum(P[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(PG[i][k] * P[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _e8_closed_form(B):
    return [1] + [240 * sigma_power(n // 2, 3) if n % 2 == 0 else 0
                  for n in range(1, B + 1)]


# (gram, B of the closed-form check, B of the full-walk check): the full
# walk `lattice_vectors` runs in the given coordinate order, which a
# scrambled basis makes wide, so it is compared at a smaller bound
_SCRAMBLED = {"E8-%d" % seed: (_scrambled(analytic._E8_GRAM, seed, 16), 12, 6)
              for seed in (0, 1)}
_SCRAMBLED.update({"D16+-%d" % seed: (
    _scrambled(analytic._D16_PLUS_GRAM, seed, 24), 4, 2) for seed in (0, 1)})


@pytest.mark.parametrize("name", list(_SCRAMBLED))
def test_scrambled_basis_counts_match_closed_form(name):
    gram, B, _ = _SCRAMBLED[name]
    L = IntegralLattice(gram)
    assert L.det() == 1 and L.is_even()
    assert len({gram[i][i] for i in range(L.rank)}) > 2
    closed = _e8_closed_form if L.rank == 8 else _rank16_closed_form
    assert L.counts_by_norm(B) == closed(B)


@functools.lru_cache(maxsize=None)
def _scrambled_full_walk_counts(name):
    gram, _, B = _SCRAMBLED[name]
    return _oracle_counts(gram, B)


@pytest.mark.parametrize("chunk", [analytic._CHUNK, 1, 3])
@pytest.mark.parametrize("name", list(_SCRAMBLED))
def test_scrambled_basis_half_walk_matches_full_walk(name, chunk, monkeypatch):
    want = _scrambled_full_walk_counts(name)
    _walk_in_chunks(monkeypatch, chunk)
    gram, _, B = _SCRAMBLED[name]
    assert IntegralLattice(gram).counts_by_norm(B) == want


def test_scrambled_e8_fixture():
    # the Gram file that CI runs through `verify-sw` to norm bound 16
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "e8_scrambled_gram.json")
    with open(path) as fh:
        gram = json.load(fh)
    assert gram != analytic._E8_GRAM
    L = IntegralLattice(gram)
    assert L.det() == 1 and L.is_even()
    assert L.counts_by_norm(16) == _e8_closed_form(16)


def test_d16_plus_fixture():
    # the Gram file that CI runs through `verify-sw` at norm bound 6
    path = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "d16plus_gram.json")
    with open(path) as fh:
        assert json.load(fh) == analytic._D16_PLUS_GRAM


def test_rank16_counts_in_bounded_memory():
    # holding all 1.1M vectors of norm <= 6 at once took ~740 MB of address
    # space; counting chunk by chunk fits in 400 MB with room to spare
    limit = 400 * 2 ** 20
    # both classes: E8+E8 splits into two equal rank-8 summands, walked
    # once, D16+ is one rank-16 walk
    code = ("from sntmod.analytic import d16_plus, e8e8\n"
            "print(e8e8().counts_by_norm(6))\n"
            "print(d16_plus().counts_by_norm(6))\n")
    src = os.path.dirname(os.path.dirname(sntmod.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str(_rank16_closed_form(6))] * 2


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
    with pytest.raises(TruncationError) as info:
        theta_basic(E8, 0.001j, tail_target=1e-10, max_norm=16)
    assert "norm bound 16" in str(info.value)


def test_colinear_truncation_before_any_tail_bound(E8):
    # Im-min-eig 0.02: the shell tail bound needs (B+1)·0.02 >= 2, which
    # max_norm 64 never reaches, so no tail is ever certified
    with pytest.raises(TruncationError) as info:
        theta_colinear(E8, SiegelPoint(0.02j, 0j, 0.02j))
    assert info.value.achieved == math.inf


def test_q_expansion_truncation_before_any_tail_bound():
    # |q| = exp(-2 pi 0.26) ≈ 0.195: after one term the ratio 2^3 |q| is
    # still >= 1, so no tail is certified
    with pytest.raises(TruncationError) as info:
        eisenstein_q(0.26j, 4, max_terms=1)
    assert info.value.achieved == math.inf
    assert "term count 1" in str(info.value)


def test_lhs_outer_box_truncation_reports_last_tail():
    with pytest.raises(TruncationError) as info:
        eisenstein_lhs(SiegelPoint(0.001j, 0j, 0.001j), 8)
    assert info.value.achieved == pytest.approx(1.874e-05, rel=1e-3)
    assert "box R 60" in str(info.value)


def test_certified_bound_takes_first_qualifying_bound():
    assert analytic._certified_bound(lambda b: 1.0 / b, range(1, 10), 0.3,
                                     "bound") == (4, 0.25)
    with pytest.raises(TruncationError) as info:
        analytic._certified_bound(lambda b: 1.0 / b, range(1, 3), 0.3, "bound")
    assert info.value.achieved == 0.5 and "bound 2" in str(info.value)
    with pytest.raises(TruncationError) as info:
        analytic._certified_bound(lambda b: 0.0, [], 0.3, "bound")
    assert info.value.achieved == math.inf


def test_geometric_tail():
    assert analytic._geometric_tail(1.0, 0.5) == 2.0
    assert analytic._geometric_tail(1.0, 1.0) == math.inf
    assert analytic._geometric_tail(0.0, 2.0) == math.inf


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
    qv, _ = eisenstein_q(2j, 4, tail_target=1e-12)
    dv, _ = eisenstein_direct(2j, 4)
    assert abs(qv - dv) < 1e-8
    qv, _ = eisenstein_q(1.5j + 0.3, 4, tail_target=1e-12)
    dv, _ = eisenstein_direct(1.5j + 0.3, 4)
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
    direct, _ = eisenstein_lhs_direct(pt, 8)
    assert abs(acc - direct) < 1e-3


@pytest.mark.parametrize("N", [6, 9, 10])
def test_lhs_evaluators_reject_bad_rank(N):
    pt = SiegelPoint(2j, 0j, 2j)
    for evaluate in (eisenstein_lhs, eisenstein_lhs_direct):
        with pytest.raises(ValueError):
            evaluate(pt, N)


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
        qv, qt = eisenstein_q(tau, 4, tail_target=1e-12)
        dv, dt = eisenstein_direct(tau, 4)
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
    # both equal the closed form, and the double's theta series is the
    # square of the rank-8 one
    assert d16_plus().counts_by_norm(6) == _rank16_closed_form(6)
    c8 = e8().counts_by_norm(6)
    assert e8e8().counts_by_norm(6) == [
        sum(c8[k] * c8[n - k] for k in range(n + 1)) for n in range(7)]


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
    assert [e["components"] for e in rep.per_lattice] == [[8, 8], [16]]
    # the tail size each component was walked with, at norm bound 6
    assert [e["norm_bound"] for e in rep.per_lattice] == [6, 6]
    assert [e["tail_depths"] for e in rep.per_lattice] == [[4, 4], [8]]
