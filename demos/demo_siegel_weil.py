"""Siegel-Weil verification demo at rank 8.

The genus of positive definite even unimodular rank-8 lattices has a single
class, so the identity pits a two-parameter Eisenstein-type sum against the
colinear-pair theta series of that lattice, with the mass constant equal to
the automorphism count 696729600.
"""
from sntmod.analytic import (AUT_E8, SiegelPoint, e8, eisenstein_lhs,
                             eisenstein_q, mass_constant, sigma_power,
                             theta_basic, theta_colinear, verify_identity)

L = e8()
print("lattice:", L, "| det =", L.det(), "| even =", L.is_even())

c = L.counts_by_norm(12)
print("shell counts:", [c[2 * m] for m in range(7)])
print("divisor sums:", [1] + [240 * sigma_power(m, 3) for m in range(1, 7)])
print()

print("classical weight-4 check at tau = 2i:")
ev, _ = eisenstein_q(2j, 4)
tv, _ = theta_basic(L, 2j)
print("  eisenstein:", ev)
print("  theta:     ", tv)
print()

print("mass constant for the one-class genus:", mass_constant([AUT_E8]))
print()

for t11, t12, t22 in [(2j, 0j, 2j), (2j, 0.5j, 2j), (3j, 0.3 + 0.5j, 2.5j)]:
    pt = SiegelPoint(t11, t12, t22)
    rep = verify_identity([L], [AUT_E8], pt, 8, tol=1e-8)
    print("tau = (%s, %s, %s): rel diff %.2e, passed %s"
          % (t11, t12, t22, rep.rel_diff, rep.passed))

print()
print("the two sides of the identity at (2i, 0, 2i):")
pt = SiegelPoint(2j, 0j, 2j)
lhs, lhs_tail = eisenstein_lhs(pt, 8)
th, th_tail = theta_colinear(L, pt)
rhs = float(mass_constant([AUT_E8]) / AUT_E8) * th
print("  eisenstein_lhs:            ", lhs)
print("  C / |Aut| * theta_colinear:", rhs)
print("  |difference| = %.2e, certified tails %.1e and %.1e"
      % (abs(lhs - rhs), lhs_tail, th_tail))
