"""The exact operator norm of an affine map phi(x) = a x + b in the lab's own
norm ||f||_p + |f|_{B^s_{p,q}}, with the seminorm's h-integral over |h| <= 1,
and the record fields that affine rows must read exactly.

|a| <= 1, any p and q: ||C_phi|| = |a|^(-1/p). Delta^m_h (f o phi) is
(Delta^m_{ah} f) o phi, so |f o phi| is |a|^(s - 1/p) times f's seminorm
over |h| <= |a|, at most |a|^(s - 1/p) |f|, and ||f o phi||_p is
|a|^(-1/p) ||f||_p; wide witnesses approach the bound.

|a| > 1, p = q = 2: by Plancherel |f|^2 = (1/2pi) int W(xi) |f^(xi)|^2 dxi
with W(xi) = int_{|h| <= 1} (2 sin(xi h / 2))^(2m) |h|^(-1-2s) dh, and f o phi
moves f's spectrum from xi to a xi, so a witness concentrated at frequency
eta has the ratio |a|^(-1/2) (1 + sqrt W(a eta)) / (1 + sqrt W(eta)); the
norm is its sup over eta, which one frequency attains. The |h| <= 1
truncation lifts it above a^(s - 1/2).

Every Gaussian witness composed with an affine map is again a Gaussian, so
its ratio is exact by one Plancherel quadrature too (as in
test_norm_oracle.py).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from besovlab.grid import SpaceParams
from besovlab.maps import named_map
from besovlab.theorems import MapOnGrid, Resolution, classify_maps

SP = SpaceParams(2.1, 2.0, 2.0, 3)
# the default suite's affine maps, by their slope a
DEFAULT_AFFINE = {"identity": 1.0, "shift:c=1": 1.0, "scale:k=2": 2.0, "scale:k=0.5": 0.5, "scale:k=3": 3.0,
                  "affine:a=0.5,b=2": 0.5}


def weight(xi: float, s: float, m: int) -> float:
    """W(xi) = 2 |xi|^(2s) int_0^|xi| u^(-2s-1) (2 sin(u/2))^(2m) du (u = |xi| h)."""
    x = abs(xi)
    g, _ = quad(lambda u: u ** (-2.0 * s - 1.0) * (2.0 * math.sin(u / 2.0)) ** (2 * m), 0.0, x,
                epsabs=0.0, epsrel=1e-12, limit=400)
    return 2.0 * x ** (2.0 * s) * g


def frequency_ratio(a: float, eta: float, s: float, m: int) -> float:
    """||C_phi f|| / ||f|| at p = q = 2 for f concentrated at frequency eta."""
    return abs(a) ** -0.5 * (1.0 + math.sqrt(weight(a * eta, s, m))) / (1.0 + math.sqrt(weight(eta, s, m)))


def frequency_sup(a: float, s: float, m: int) -> tuple[float, float]:
    """(sup over eta of frequency_ratio, the eta that attains it): the best of
    a log-spaced scan, refined by a bounded search around it."""
    etas = np.geomspace(1e-3, 20.0, 121)
    k = int(np.argmax([frequency_ratio(a, eta, s, m) for eta in etas]))
    lo, hi = etas[max(k - 1, 0)], etas[min(k + 1, etas.size - 1)]
    best = minimize_scalar(lambda eta: -frequency_ratio(a, eta, s, m), bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-10})
    return -best.fun, best.x


def exact_opnorm(a: float, sp: SpaceParams) -> float:
    """||C_phi|| for phi(x) = a x + b in the lab's norm (see the module docstring)."""
    if abs(a) <= 1.0:
        return abs(a) ** (-1.0 / sp.p)
    if not (sp.p == sp.q == 2.0):
        raise NotImplementedError("|a| > 1 has a closed form at p = q = 2 only")
    return frequency_sup(a, sp.s, sp.m)[0]


def gaussian_ratio(w: float, a: float, sp: SpaceParams) -> float:
    """The exact ||f o phi|| / ||f|| at p = q = 2 for f = exp(-(x/w)^2) and
    phi(x) = a x + b: f o phi is a translate of exp(-(x/(w/|a|))^2)."""

    def norm(width):
        # (1/2pi) int |f^|^2 weight over R, |f^(xi)|^2 = pi w^2 exp(-w^2 xi^2 / 2), folded onto xi >= 0
        def spectral(fn):
            return quad(lambda xi: fn(xi) * width * width * math.exp(-width * width * xi * xi / 2.0),
                        0.0, 40.0 / width, epsabs=0.0, epsrel=1e-11, limit=400)[0]

        return math.sqrt(spectral(lambda xi: 1.0)) + math.sqrt(spectral(lambda xi: weight(xi, sp.s, sp.m)))

    return norm(w / abs(a)) / norm(w)


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [1.0, -1.0])
def test_a_unit_slope_has_norm_one(a):
    assert exact_opnorm(a, SP) == 1.0
    # the p = q = 2 formula agrees: every frequency keeps its ratio of 1
    assert frequency_sup(a, SP.s, SP.m)[0] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, -0.5, 0.25])
def test_a_contraction_reaches_its_closed_form_at_low_frequency(a):
    # |a|^(-1/2) is approached as eta -> 0, where W vanishes, and no
    # frequency exceeds it
    assert exact_opnorm(a, SP) == abs(a) ** -0.5
    assert frequency_sup(a, SP.s, SP.m)[0] == pytest.approx(abs(a) ** -0.5, rel=1e-6)
    assert frequency_sup(a, SP.s, SP.m)[0] <= abs(a) ** -0.5 * (1.0 + 1e-12)


@pytest.mark.parametrize("a, want, eta_star", [(2.0, 3.30313, 1.5904), (3.0, 6.30391, 1.4636), (-2.0, 3.30313, 1.5904)])
def test_the_expanding_norm_at_the_default_space(a, want, eta_star):
    value, eta = frequency_sup(a, SP.s, SP.m)
    assert value == pytest.approx(want, abs=1e-5)
    assert eta == pytest.approx(eta_star, abs=1e-3)
    assert value > abs(a) ** (SP.s - 0.5)  # the |h| <= 1 truncation lifts it above a^(s - 1/2)


@pytest.mark.parametrize("a", [2.0, 3.0])
def test_the_sup_agrees_with_a_dense_scan(a):
    # an independent quadrature: W from a cumulative trapezoid on a fine u
    # grid, the ratio scanned over 24000 frequencies
    s, m = SP.s, SP.m
    u = np.linspace(0.0, 40.0, 400_001)
    integrand = np.zeros_like(u)
    integrand[1:] = u[1:] ** (-2.0 * s - 1.0) * (2.0 * np.sin(u[1:] / 2.0)) ** (2 * m)
    g = np.concatenate(([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(u))))

    def w(xi):
        return 2.0 * xi ** (2.0 * s) * np.interp(xi, u, g)

    eta = np.linspace(1e-3, 12.0, 24_000)
    scan = (abs(a) ** -0.5 * (1.0 + np.sqrt(w(abs(a) * eta))) / (1.0 + np.sqrt(w(eta)))).max()
    assert scan == pytest.approx(exact_opnorm(a, SP), rel=1e-6)


def test_a_gaussian_ratio_is_one_at_unit_slope_and_below_the_norm():
    assert gaussian_ratio(2.0, 1.0, SP) == pytest.approx(1.0, rel=1e-12)
    assert gaussian_ratio(2.0, 0.5, SP) == pytest.approx(1.02665, abs=5e-6)
    assert gaussian_ratio(2.0, 0.5, SP) < exact_opnorm(0.5, SP)


# ---------------------------------------------------------------------------
# the lab against the oracle, where it holds today
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def affine_reports():
    specs = sorted(DEFAULT_AFFINE)
    return dict(zip(specs, classify_maps([named_map(spec) for spec in specs], SP)))


@pytest.mark.parametrize("spec", sorted(DEFAULT_AFFINE))
def test_affine_rows_read_their_exact_fields(affine_reports, spec):
    a, computed = DEFAULT_AFFINE[spec], affine_reports[spec].computed
    # U sums window preimage lengths, each a difference of bisected roots:
    # measured within 1.3e-14 of 1/|a|
    assert computed["U"] == pytest.approx(1.0 / abs(a), rel=1e-13)
    assert computed["lip"] == abs(a)
    assert computed["max_preimage"] == 1
    assert computed["phiprime_mult_lower"] == abs(a)


def test_a_contraction_reads_its_gaussian_ratio():
    # the lab's gaussian_wide ratio under scale(0.5): 1.026869 against the
    # exact 1.02665, 2.1e-4 apart (sampling, the h-quadrature and the
    # window's zero extension)
    res = Resolution()
    f = res.family["gaussian_wide"]
    lab = res.norm(MapOnGrid.read(named_map("scale:k=0.5"), res).compose(f), SP) / res.norm(f, SP)
    assert lab == pytest.approx(gaussian_ratio(2.0, 0.5, SP), rel=3e-4)
