#!/usr/bin/env python3
"""Quantify why the expansion cannot converge.

The coefficients of the exponent series grow factorially: the values
polylog_delta(n) behave like n!/log(phi)^(n+1), and after normalization
by the factorial the truncated exponent approaches a cosh profile that no
convergent power series can absorb.  This demo prints the three numeric
witnesses the package measures.
"""

import mpmath as mp

from unclosed.divergence import (
    b_growth,
    cosh_limit_check,
    normalized_polylog_delta,
    partial_exp_max_error,
)
from unclosed.expansion import compute_expansion

print("=== factorially scaled delta values approach 1 geometrically ===")
print(f"{'n':>3} {'scaled value':>24} {'|err|':>12}")
for n in (1, 2, 4, 8, 12, 16, 20):
    v = normalized_polylog_delta(n)
    print(f"{n:>3} {mp.nstr(v, 18):>24} {mp.nstr(abs(v - 1), 4):>12}")
print()

print("=== partial exponentials converge to exp on [-2, 2] ===")
for k in (10, 20, 40):
    print(f"  k={k:<3} max error {partial_exp_max_error(k):.3e}")
print()

print("=== normalized truncation edge approaches -cosh(2 pi v)/pi ===")
rows = cosh_limit_check()  # l = 2..5, v = 0, 0.5 and 1
print(f"{'l':>3} {'v':>5} {'normalized value':>24} {'target':>12} {'abs err':>12}")
for r in rows:
    print(f"{r.level:>3} {r.v:>5} {r.ratio_re:>17.6f}{r.ratio_im:+.4f}i {r.target:>12.6f} {r.abs_err:>12.4g}")
print()

print("=== coefficient growth: |b_j|^(1/j) keeps climbing ===")
result = compute_expansion(12)
section = b_growth(result)
print("  roots:", " ".join(f"{x:.4f}" for x in result.growth))
print(f"  strictly increasing on the last four orders: {section.tail_increasing}")
print(f"  ratio test |b_j+1/b_j| exceeds 1 from j = {section.ratio_cross_index}")
