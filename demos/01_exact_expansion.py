#!/usr/bin/env python3
"""Walk through the exact expansion of the normalized remainder.

The target function F(q) = sum_m q^(m(m+1)/2)/(q;q)_m^2 satisfies, as
s -> 0 with q = exp(-s),

    F(e^-s) = sqrt(s / (2 pi sqrt5)) * exp(pi^2/(5s)) * R(s),

and this demo computes the series R(s) ~ 1 + sum_j b_j s^j exactly: every
b_j is an element of Q(sqrt5), produced by Gaussian-moment integration of
an exact rational series in t' = 5^(1/4) sqrt(s) and w' = i v.
"""

import mpmath as mp

from unclosed.expansion import compute_expansion
from unclosed.series import exponent_series

J = 8

print("=== the exponent series, leading terms ===")
# entry m of the tuple is the t'^m coefficient; only the t'^0 entry is zero.
# the damping -sqrt5/24 * s = -t'^2/24 sits in the t'^2 line, as its w'^0 term
ser = exponent_series(4)
for m, p in enumerate(ser):
    if not p.is_zero():
        print(f"  t'^{m}: {p!r}")
print()

print(f"=== exact coefficients through order {J} ===")
result = compute_expansion(J)
for j, exact in enumerate(result.b):
    print(f"  b_{j:<2} = {exact.render():<28} ~ {mp.nstr(exact.embed(30), 30)}")
print()

print("=== exponential form (formal log of the same series) ===")
for j, exact in enumerate(result.c, start=1):
    print(f"  c_{j:<2} = {exact.render():<28} ~ {mp.nstr(exact.embed(30), 30)}")
print()

print("=== growth of |b_j|^(1/j): a convergent series would level off ===")
for j, root in enumerate(result.growth, start=1):
    bar = "#" * int(root * 60)
    print(f"  j={j:<2} {root:8.5f} {bar}")
