"""Fit-free resurgence: the mirror series predicts the late b_j and c_j.

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

The same holds for the c_j of log R(s) = sum_j c_j s**j, since a mirror
term e**(-A/s) R(-s) added to R(s) adds e**(-A/s) R(-s)/R(s) to its log, up
to O(e**(-2A/s)).  With sum_k e_k s**k = R(-s)/R(s), divided as series at
60 digits from the embedded b_k,

    c_j ~ S sum_{k<=K} e_k Gamma(j - k) A**(k - j),

with the same K rule.  The relative error at j = 20..40 is 0.012 to 0.489
times 2**-j.  It repeats with period 4 in j: its maxima are 0.037, 0.123,
0.32 and 0.489 at j = 0, 1, 2 and 3 mod 4.  The bound is 0.6 * 2**-j at
every j.  The controls break it by far (largest error times 2**j):
A = pi**2/5 reads 1.2e24, S = 1/(2 pi) reads 5.5e11, R(s) in place of
R(-s) reads 1.3e10, and c_35 off by 1e-10 relative reads 3.0 at j = 35.
A perturbation of 1e-12 relative reads 0.37 at j = 35, inside the band.

The truncated sum is the start of a dispersion relation, and resumming the
whole mirror series closes the 2**-j gap.  Let B_m(z) = sum_{k>=1} (-1)**k
b_k z**(k-1)/(k-1)! be its Borel transform, summed by the diagonal [14/14]
Pade from b_1..b_29, at 40 digits.  Then

    pred_j = (1/pi) Gamma(j) (A**-j + int_0^14 B_m(z) (A + z)**-j dz)

gives b_j to 1.046 to 1.102 times 4**-j relative at j = 20..30, and
b_j - pred_j has the sign (-1)**j: the next singularity of the Borel
transform of R sits at -4A, not at 2A.  The bound is 1.5 times 4**-j.  The
Pade of the mirror has a pole string from 15.48, next to 4A = 15.79, so the
Laplace integral cannot run along the whole positive axis.  Of the two ways
round, summing both lateral paths past 4A and taking their median, or
stopping below 4A and bounding the rest, this takes the second: it stops at
z = 14, and the band bounds what is left.  The tail it drops is of order
Gamma(j) (A + 14)**-j, so the cut must stay above 3A = 11.84: the scaled
errors read 1.05 to 1.10 at 14, 1.00 to 1.17 at 12, and 5.3 to 51 at 8.
Whether abs((b_j - pred_j) / (Gamma(j) (4A)**-j / pi)) tends to 1, and
which series rides at -4A, stay open.  The controls read, at j = 25 and in
units of 4**-25: 2.1e13 for a Pade built from b_k without the sign, 3.8e22
for A = pi**2/5, and 1,125 for b_25 off by 1e-12 relative, which the
truncated sum's band cannot see.
"""

import mpmath as mp
import pytest

from unclosed.expansion import compute_expansion

DIGITS = 60
J_RANGE = range(20, 41)


@pytest.fixture(scope="module")
def b():
    return [x.embed(DIGITS) for x in compute_expansion(max(J_RANGE)).b]


@pytest.fixture(scope="module")
def c():
    # c[0] is a placeholder, so that c[j] is c_j
    return [None] + [x.embed(DIGITS) for x in compute_expansion(max(J_RANGE)).c]


def mirror_terms(b, sign=-1):
    """(sign)**k b_k: the coefficients of R(-s), or of R(s) at sign = 1."""
    return [sign ** k * x for k, x in enumerate(b)]


def series_quotient(num, den):
    """Coefficients of num(s) / den(s), for den_0 = 1, at DIGITS."""
    with mp.workdps(DIGITS):
        out = []
        for n, x in enumerate(num):
            out.append(x - mp.fsum(out[k] * den[n - k] for k in range(n)))
        return out


def relation_errors(mirror, target, A, S):
    """|S sum_{k<=K} mirror[k] Gamma(j - k) A**(k - j) / target[j] - 1| * 2**j
    for j in J_RANGE, with K = j // 2 - 1."""
    with mp.workdps(DIGITS):
        errors = []
        for j in J_RANGE:
            K = j // 2 - 1
            terms = (mirror[k] * mp.gamma(j - k) * A ** (k - j) for k in range(K + 1))
            errors.append(abs(S * mp.fsum(terms) / target[j] - 1) * 2 ** j)
        return errors


def scaled_errors(b, A, S, sign=-1):
    """The b_j relation's scaled errors, with the mirror coefficients sign**k b_k."""
    return relation_errors(mirror_terms(b, sign), b, A, S)


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


def test_mirror_quotient_predicts_the_late_c_j(b, c):
    A, S = hypotheses()
    e = series_quotient(mirror_terms(b), b)
    for j, err in zip(J_RANGE, relation_errors(e, c, A, S)):
        assert err <= 0.6, (j, float(err))


@pytest.mark.parametrize("wrong", ["A-halved", "S-halved", "R(s)-for-R(-s)", "c35-perturbed"])
def test_c_j_relation_fails_on_a_wrong_hypothesis(b, c, wrong):
    A, S = hypotheses()
    sign = -1
    with mp.workdps(DIGITS):
        if wrong == "A-halved":  # A = pi**2/5
            A /= 2
        elif wrong == "S-halved":  # S = 1/(2 pi)
            S /= 2
        elif wrong == "R(s)-for-R(-s)":
            sign = 1
        else:  # c_35 off by 1e-10 relative
            c = list(c)
            c[35] *= 1 + mp.mpf("1e-10")
    e = series_quotient(mirror_terms(b, sign), b)
    assert max(relation_errors(e, c, A, S)) > 1


BOREL_DIGITS = 40
BOREL_RANGE = range(20, 31)
CUT = 14  # where the Laplace integral stops: above 3A = 11.84, below 4A = 15.79


@pytest.fixture(scope="module")
def b40():
    return [x.embed(BOREL_DIGITS) for x in compute_expansion(40).b]


def borel_pade(b, sign=-1):
    """(p, q), ascending, of the [14/14] Pade of sum_{k=1..29} sign**k b_k z**(k-1)/(k-1)!."""
    with mp.workdps(BOREL_DIGITS):
        mirror = mirror_terms(b, sign)
        return mp.pade([mirror[k] / mp.factorial(k - 1) for k in range(1, 30)], 14, 14)


def resummed_errors(b, A, js, sign=-1):
    """(b_j - pred_j) / b_j * 4**j for j in js, with the Laplace integral stopped at CUT."""
    p, q = borel_pade(b, sign)
    with mp.workdps(BOREL_DIGITS):
        def borel(z):
            return mp.polyval(p[::-1], z) / mp.polyval(q[::-1], z)

        errors = []
        for j in js:
            laplace = mp.quad(lambda z: borel(z) * (A + z) ** -j, [0, 2, 8, CUT])
            pred = mp.gamma(j) / mp.pi * (A ** -j + laplace)
            errors.append((b[j] - pred) / b[j] * 4 ** j)
        return errors


def test_resummed_mirror_predicts_the_late_b_j_to_4_to_the_minus_j(b40):
    A, _ = hypotheses()
    for j, err in zip(BOREL_RANGE, resummed_errors(b40, A, BOREL_RANGE)):
        assert abs(err) <= 1.5, (j, float(err))
        # b_j > 0, so the error has the sign of b_j - pred_j: the pull of -4A
        assert mp.sign(err) == (-1) ** j, (j, float(err))


def test_no_pade_pole_on_the_laplace_path(b40):
    # the nearest pole, at 15.48, lies 1.48 past the path [0, CUT]
    _, q = borel_pade(b40)
    with mp.workdps(BOREL_DIGITS):
        poles = mp.polyroots(q[::-1], maxsteps=200, extraprec=100)
        assert min(abs(x - min(max(mp.re(x), 0), CUT)) for x in poles) > 1


@pytest.mark.parametrize("wrong", ["sign-dropped", "A-halved", "b25-perturbed"])
def test_resummed_relation_fails_on_a_wrong_hypothesis(b40, wrong):
    A, _ = hypotheses()
    sign = -1
    with mp.workdps(BOREL_DIGITS):
        if wrong == "sign-dropped":  # the Borel transform of R(s), not of R(-s)
            sign = 1
        elif wrong == "A-halved":  # A = pi**2/5
            A /= 2
        else:  # b_25 off by 1e-12 relative
            b40 = list(b40)
            b40[25] *= 1 + mp.mpf("1e-12")
    assert abs(resummed_errors(b40, A, [25], sign)[0]) > 1.5
