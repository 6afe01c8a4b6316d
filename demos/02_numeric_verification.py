#!/usr/bin/env python3
"""Verify the exact expansion against independent high-precision numerics.

Three independent routes confirm the exact coefficients:
  1. direct summation of F(e^-s) at the policy's digits, normalized, and
     compared  with the truncated expansion on a shrinking grid of s;
  2. b_0..b_3 from direct sums alone: one Vandermonde solve fits
     b_0 + b_1 s + ... + b_8 s**8 through nine s, with no exact
     coefficient as input, and each estimate's spread is its distance to
     the fit through the eight smallest s;
  3. the exact constant-term identity for the q-expansion of F itself.
"""

import mpmath as mp

from unclosed.expansion import compute_expansion
from unclosed.qseries import coefficient_ladder, constant_term_check, eval_report

print("=== normalized remainder vs truncated expansion ===")
print(f"{'s':>6} {'remainder':>22} {'order-2 expansion':>22} {'rel err':>12}")
for s in ("0.2", "0.1", "0.05", "0.02"):
    r = eval_report(s, order=2)
    print(
        f"{s:>6} {mp.nstr(r.remainder, 16):>22} {mp.nstr(r.asymptotic, 16):>22}"
        f" {mp.nstr(r.rel_err, 4):>12}   ({r.terms_used} terms at {r.digits} digits)"
    )
print("rel err falls ~8x per halving of s: the residual is O(s^3)\n")

print("=== b_0..b_3 fitted to direct sums at s = 0.005, 0.01, ..., 0.045 ===")
exact = compute_expansion(3)
ladder = coefficient_ladder([f"{k * 0.005:.3f}" for k in range(1, 10)])
for j, (estimate, spread) in enumerate(ladder[:4]):
    target = exact.b[j].embed(30)
    print(
        f"  b_{j}: fitted {mp.nstr(estimate, 16)}  exact {mp.nstr(target, 16)}"
        f"  error {mp.nstr(abs(estimate - target), 2)}  spread {mp.nstr(spread, 2)}"
    )
print()

print("=== exact constant-term identity through q^20 ===")
rep = constant_term_check(20)
print(f"  coefficients agree: {rep.ok}; half-integer powers cancelled: {rep.half_powers_cancelled}")
print(f"  q-expansion of F: {list(rep.direct[:11])} ...")
