"""Same operator, same numbers: pairs of maps that compose to one operator,
up to a translation or a reflection of R, must read the same fields.

- Translation: identity, shift(1) and affine(1, 3) are x -> x + b. Every
  norm of the lab is translation invariant, and so are U, Lip, the preimage
  count and phi'.
- Reflection: affine(-a, 0) is scale(a) followed by x -> -x, which keeps
  every norm, U, Lip and the count. phi' changes sign, and the multiplier
  norms read |phi'| alike.

Each field is compared: the opnorm bound, U, lip, the maximal preimage
count, phi''s uniform profile and multiplier bound, the verdict, and each
fragment's flags and statistic. Measured at the default space and count
(largest relative gap; the tolerances give each 5x headroom or more):

- U: 3.6e-15. It sums bisected roots at other targets.
- opnorm_lower: 2.2e-16, identity against affine(1, 3).
- nec_U's kappa_required: 1.7e-15, through U and the opnorm bound.
- nec_lipschitz's ratio: 7.1e-6 for a = 2, 6.8e-7 for a = 1 and 1.7e-8 for
  a = 0.5 under the reflection, 0 under the translations. Its witness sits
  at the steepest point, which the reflection moves to another place on
  the grid.
- sufficiency_chain's residual: 0 against at most 5.3e-74, rounding under
  a gate of 1e-4.

Every other compared field is equal bit for bit. nec_U's witness margin is
not compared: its targets are laid out from the edge of phi's range and
cut by the window, so a translation changes them (0.80 for identity, 0.41
for shift(1)). The opnorm argmax is not compared either: on the
translations every witness ratio is 1 to rounding.

affine(0.5, 2) against scale(0.5) does not hold today: the composed
witness gaussian_wide leaks past the window's edge under the translation
and reads 1.5712 against 1.0269.
"""

import pytest

from besovlab.grid import SpaceParams
from besovlab.maps import named_map
from besovlab.theorems import classify_maps

SP = SpaceParams(2.1, 2.0, 2.0, 3)
TRANSLATES = [("identity", "shift:c=1"), ("identity", "affine:a=1,b=3"), ("shift:c=1", "affine:a=1,b=3")]
REFLECTIONS = [(f"affine:a=-{a},b=0", f"scale:k={a}") for a in ("1", "2", "0.5")]
COMPUTED = ("opnorm_lower", "U", "lip", "max_preimage", "phiprime_unif", "phiprime_mult_lower")
STATISTICS = {"nec_U": ("kappa_required",), "nec_lipschitz": ("ratio",), "sufficiency_chain": ("ratio", "residual")}
# field -> (relative, absolute) tolerance; every other field is compared exactly
TOLERANCE = {
    "computed.U": (2e-14, 0.0),
    "computed.opnorm_lower": (2e-15, 0.0),
    "nec_U.kappa_required": (1e-14, 0.0),
    "nec_lipschitz.ratio": (5e-5, 0.0),
    "sufficiency_chain.residual": (0.0, 1e-12),
}


@pytest.fixture(scope="module")
def reports():
    specs = sorted({spec for pair in TRANSLATES + REFLECTIONS for spec in pair})
    return dict(zip(specs, classify_maps([named_map(spec) for spec in specs], SP)))


def fields(report) -> dict:
    """The compared fields of one report, flattened to one level."""
    out = {f"computed.{key}": report.computed[key] for key in COMPUTED}
    out["verdict"] = report.verdict
    for fr in report.fragments:
        out[f"{fr.name}.passed"], out[f"{fr.name}.vacuous"] = fr.passed, fr.vacuous
        out.update({f"{fr.name}.{key}": fr.values[key] for key in STATISTICS[fr.name]})
    return out


@pytest.mark.parametrize("one, other", TRANSLATES + REFLECTIONS, ids=lambda spec: spec)
def test_one_operator_reads_the_same_fields(reports, one, other):
    got, want = fields(reports[one]), fields(reports[other])
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key in TOLERANCE:
            rel, abs_ = TOLERANCE[key]
            assert got[key] == pytest.approx(value, rel=rel, abs=abs_), key
        else:
            assert got[key] == value, key
