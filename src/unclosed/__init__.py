"""Exact-plus-numeric toolkit for a divergent q-series expansion at q -> 1.

Modules:
  field       exact values p + q*sqrt5 in Q(sqrt5): compare, embed, render
  sequences   Fibonacci, Eulerian and Bernoulli numbers, delta values
  series      truncated formal series in t' = 5**(1/4)*sqrt(s) with rational
              coefficients polynomial in the Gaussian variable w' = i*v
  expansion   exact expansion coefficients b_j / c_j of the normalized remainder
  qseries     arbitrary-precision evaluation and numeric verification
  divergence  growth diagnostics quantifying why the expansion diverges
  suites      named verification suites shared by the CLI and the test suite
  cli         batch command-line interface
"""

__version__ = "0.1.0"
