"""Fit-free resurgence: the mirror series predicts the late b_j.

The hypotheses are stated, never fitted: the Borel transform of
R(s) = sum_j b_j s**j has its nearest singularity at A = 2 pi**2/5, with
Stokes constant S = 1/pi, and the series behind it is the mirror series
R(-s), whose coefficients are (-1)**k b_k.  The late coefficients then
follow from the early ones,

    b_j ~ S sum_{k<=K} (-1)**k b_k Gamma(j - k) A**(k - j),

and the error of the truncated sum falls like 2**-j, as a next singularity
at 2A would make it.  With the rule K = j // 2 - 1, the relative error at
j = 20..40 is 0.126 to 0.187 times 2**-j, at 60 digits from the exact b_j
of one compute_expansion(40).  The rule is the best K at even j; at odd j,
K = j // 2 gives up to 9% less.  The bound is 0.25 * 2**-j at every j.

Each wrong hypothesis breaks the bound by far: A = pi**2/5 reads 1e6
relative at j = 20, S = 1/(2 pi) reads 0.5, and dropping the sign (-1)**k
reads at least 2.5e4 times 2**-j.  A b_35 perturbed by 1e-10 relative reads
3.3 times 2**-35.  A perturbation of 1e-12 relative reads 0.106 times
2**-35, inside the band, so no bound per j can see it.
"""

import mpmath as mp
import pytest

from unclosed.expansion import compute_expansion

DIGITS = 60
J_RANGE = range(20, 41)


@pytest.fixture(scope="module")
def b():
    return [x.embed(DIGITS) for x in compute_expansion(max(J_RANGE)).b]


def scaled_errors(b, A, S, sign=-1):
    """|prediction / b_j - 1| * 2**j for j in J_RANGE, with K = j // 2 - 1."""
    with mp.workdps(DIGITS):
        errors = []
        for j in J_RANGE:
            K = j // 2 - 1
            terms = (sign ** k * b[k] * mp.gamma(j - k) * A ** (k - j) for k in range(K + 1))
            errors.append(abs(S * mp.fsum(terms) / b[j] - 1) * 2 ** j)
        return errors


def hypotheses():
    with mp.workdps(DIGITS):
        return 2 * mp.pi ** 2 / 5, 1 / mp.pi


def test_mirror_series_predicts_the_late_b_j(b):
    A, S = hypotheses()
    for j, err in zip(J_RANGE, scaled_errors(b, A, S)):
        assert err <= 0.25, (j, float(err))


@pytest.mark.parametrize("wrong", ["A-halved", "S-halved", "sign-dropped", "b35-perturbed"])
def test_mirror_relation_fails_on_a_wrong_hypothesis(b, wrong):
    A, S = hypotheses()
    sign = -1
    with mp.workdps(DIGITS):
        if wrong == "A-halved":  # A = pi**2/5
            A /= 2
        elif wrong == "S-halved":  # S = 1/(2 pi)
            S /= 2
        elif wrong == "sign-dropped":
            sign = 1
        else:  # b_35 off by 1e-10 relative
            b = list(b)
            b[35] *= 1 + mp.mpf("1e-10")
    assert max(scaled_errors(b, A, S, sign)) > 1
