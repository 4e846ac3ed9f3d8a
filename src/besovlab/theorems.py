"""Executable consistency checks for the boundedness theorems.

Every check is desk-scale honest: operator norms are certified lower
bounds over documented witness families, so verdicts are phrased as
"consistent with" boundedness or unboundedness, never as proofs. Each
fragment reproduces one proof mechanism (unit-bump mass transport for the
unit-interval distortion, scaled ramp bumps at the steepest point for the
Lipschitz necessity, the chain-rule decomposition for sufficiency, linear
cutoffs and the zigzag witness for p = infinity).

Every fragment samples on one grid that stands in for R, and every norm
goes through one cache; both live in a ``Resolution``. It holds the
window (``DEFAULT_WINDOW``, the only place this module reads it), the
sample count, the spacing and sample points derived from them, the witness
family sampled on them (``Resolution.family``, built on first use), and the
norm values keyed by content: (kind, the first 16 bytes of the samples'
sha256 digest, spacing, extension values, (s, p, q, m), h-grid). The grid
origin is left out because every norm is translation invariant. The opnorm
sweep reads the whole family, nec_U its unit_bump(0) and the chain fragment
its gaussian, so each witness is sampled and hashed once per grid.
``classify_maps`` makes a ``Resolution`` for its call unless it is handed
one; ``besovlab suite`` classifies all its maps in one such call, so the
family, its denominators and the bump norm are computed once per run, and
so is the phi' half of maps that share phi' (affine(0.5, 2) and
scale(0.5)). A hit returns the stored float, so the arithmetic, and every
output, is the same with or without sharing.

``classify`` reads phi once, into a ``MapOnGrid``: phi's values at the
grid points, its Lipschitz constant, its largest preimage count and phi'
sampled at the grid's count over the hull of the grid's window and phi's
own. Every fragment takes that reading, so phi is evaluated on the grid
once per ``classify``; ``MapOnGrid.compose`` composes a witness sampled on
any grid with phi by reading it at those values.

``classify_maps`` computes the two conditions the paper reduces
boundedness to at once. The phi' half (``_multiplier_half``: the uniform
profile, the tester lower bound of the multiplier norm and, for p < inf,
the msq search) reads phi' alone, so the call keeps its record entries by
value, keyed by phi''s content (``Resolution.content``) and origin; the
space, kind and seed are the call's. Once every map is read, one
``worker.Worker`` computes each distinct half, in order of first need, and
streams back its entries only, while the caller computes U, M, the opnorm
lower bound and the fragments map by map. Only then does it read the
halves and make the verdicts, so a half that is slow in the worker delays
no map's own work. ``classify`` is the one-map case. A norm is a function
of its key, so the report is the same bit for bit whichever process
computed it, and a half the worker does not answer clean runs in the
caller (see ``worker``).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .gadgets import eta_eps, eta_resolved, linear_cutoff, plateau, unit_bump, zigzag_g, zigzag_window_length
from .grid import (
    DEFAULT_COUNT,
    DEFAULT_WINDOW,
    Extension,
    FAMILY_NAMES,
    GridFunction,
    SpaceParams,
    _plateau,
    grid_derivative,
    linf_on_interval,
    lp_norm,
    sample,
)
from .maps import (
    LineMap,
    M_functional,
    U_functional,
    UnboundedPreimageError,
    derivative,
    lipschitz_constant,
    max_preimage_count,
    preimage_intervals,
    preimage_lengths,
    steepest_point,
)
from .multipliers import (
    make_psi,
    msq_norm_lower_detailed,
    multiplier_norm_lower_detailed,
    unif_profile,
)
from .norms import DEFAULT_HGRID, METHODS, DyadicHGrid, besov_seminorm_diff
from .worker import Worker

SCHEMA_VERSION = 1

# gate constants of the fragments
A_STEP = 0.25  # spacing of the unit-interval targets [a, a+1]
KAPPA_MAX = 3.0  # nec_U: U^(1/p) <= KAPPA_MAX * opnorm * ||bump||
LIP_DELTAS = (1.0 / 3.0, 0.2, 0.1, 0.05)  # nec_lipschitz witness scales
LIP_FACTOR_TOL = 2.0  # nec_lipschitz: implied slope within this factor of Lip
LIP_MARGIN = 2.0  # nec_lipschitz: the steepest point's least distance from the grid's edges
CHAIN_RESIDUAL = 1e-4  # chain-rule residual gate, times max(1, Lip)^3
KAPPA_CHAIN = 10.0  # chain: ||C_phi f|| <= KAPPA_CHAIN * (chain-rule bound)
LIP_RECON_TOL = 0.02  # infinity witness: relative error of the Lip reconstruction
ZIGZAG_TOL = 0.1  # infinity witness: relative slack over the zigzag bound
WINDOW_RUN = 4  # window-limited: profile steps that must grow toward the edge
ETA_EPS = 0.1  # ramp width of the witness family's eta, its narrowest feature
TOLERANCES = {
    "kappa_max": KAPPA_MAX,
    "chain_residual": CHAIN_RESIDUAL,
    "lip_reconstruction": LIP_RECON_TOL,
    "zigzag": ZIGZAG_TOL,
}


class RangeGateError(ValueError):
    """Space parameters fall outside every theorem handled by the lab."""


def gate_space(sp: SpaceParams, kind: str = "besov"):
    """Refuse parameter ranges the theorems do not cover, by name."""
    if kind == "sobolev":
        if not (1.0 < sp.p < math.inf):
            raise RangeGateError("Sobolev route requires 1 < p < inf")
        if not (sp.s > 1.0 + 1.0 / sp.p):
            raise RangeGateError(
                f"Sobolev route requires s > 1 + 1/p = {1.0 + 1.0 / sp.p}"
            )
        return
    if kind != "besov":
        raise RangeGateError(f"unknown space kind {kind!r}")
    if sp.p <= 1.0:
        raise RangeGateError(
            "0 < p <= 1: necessity is known but sufficiency is open; refused"
        )
    if math.isinf(sp.p):
        if not (sp.s > 1.0):
            raise RangeGateError("p = inf requires s > 1")
        return
    edge = 1.0 + 1.0 / sp.p
    if sp.s > edge:
        return
    if sp.s >= 1.0:
        raise RangeGateError(f"open case: 1 <= s <= 1 + 1/p = {edge} (s = {sp.s})")
    raise RangeGateError(
        f"s = {sp.s} < 1 is the low-order regime; this lab covers s > 1 + 1/p"
    )


class Resolution:
    """The grid every fragment samples on, ``count`` points over
    ``window``, the witness family sampled on it, and the content-keyed norm
    cache (see the module docstring for the key and the scope), and nothing
    else. Only digests are stored, never sample bytes. A count too coarse to
    resolve the family's eta(ETA_EPS) is refused up front."""

    window = DEFAULT_WINDOW
    # kind -> norm of (f, sp, hg), looked up when called as in norms.METHODS;
    # besov_seminorm is the Lipschitz witness's
    NORMS = {
        "besov": METHODS["diff"],
        "sobolev": METHODS["sobolev_diff"],
        "besov_seminorm": lambda f, sp, hg: besov_seminorm_diff(f, sp, hg),
    }

    def __init__(self, count: int = DEFAULT_COUNT):
        if count < 2:
            raise ValueError("count must be >= 2")
        if not eta_resolved(ETA_EPS, self.window, count):
            least = next(n for n in itertools.count(count) if eta_resolved(ETA_EPS, self.window, n))
            raise ValueError(f"count = {count} is too coarse for the witness eta({ETA_EPS}): "
                             f"the smallest count that resolves it is {least}")
        self.count = count
        self.spacing = (self.window[1] - self.window[0]) / (count - 1)
        self.x = self.window[0] + self.spacing * np.arange(count)
        self._values: dict = {}

    def __len__(self) -> int:
        return len(self._values)

    @functools.cached_property
    def family(self) -> dict[str, GridFunction]:
        """name -> witness, sampled once per grid: the catalog functions but
        ``plateau``, the same function as unit_bump(0), plus the proof gadgets."""
        grid = (self.window, self.count)
        fam = {name: sample(name, *grid) for name in FAMILY_NAMES if name != "plateau"}
        fam["unit_bump(-2)"] = unit_bump(-2.0, *grid)
        fam["unit_bump(0)"] = unit_bump(0.0, *grid)
        fam[f"eta({ETA_EPS})"] = eta_eps(ETA_EPS, *grid)
        fam["cutoff(0,2)"] = linear_cutoff(0.0, 2.0, *grid)
        return fam

    @staticmethod
    def content(f: GridFunction) -> tuple:
        """f's samples as the caches key them, its origin aside: the first 16
        bytes of their sha256 digest, the spacing and the extension values."""
        return (hashlib.sha256(f.samples).digest()[:16], f.spacing, f.ext_values())

    def norm(self, f: GridFunction, sp: SpaceParams, hg: DyadicHGrid = DEFAULT_HGRID, kind: str = "besov") -> float:
        key = (kind, *self.content(f), (sp.s, sp.p, sp.q, sp.m), hg)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = self.NORMS[kind](f, sp, hg)
        return value


@dataclass(frozen=True)
class MapOnGrid:
    """phi read once on ``res``. ``phi_prime`` is phi' at res.count points
    over the hull of phi's window and res.window: a map file may give a
    window too short to hold one multiplier translate, and beyond phi's
    window phi' is the tail slope, so those samples are exact."""

    phi: LineMap
    res: Resolution
    ys: np.ndarray  # phi(res.x)
    lip: float
    npre: int
    phi_prime: GridFunction

    @classmethod
    def read(cls, phi: LineMap, res: Resolution) -> "MapOnGrid":
        hull = (min(phi.window[0], res.window[0]), max(phi.window[1], res.window[1]))
        phi_prime = derivative(phi).sample(res.count, hull)
        return cls(phi, res, phi(res.x), lipschitz_constant(phi), max_preimage_count(phi), phi_prime)

    def compose(self, f: GridFunction) -> GridFunction:
        """C_phi f on the grid of ``res``, for f sampled on any grid: f's
        descriptor at ``ys`` when it has one, else f interpolated there."""
        vals = f(self.ys) if f.descriptor is None else np.asarray(f.descriptor(self.ys), dtype=np.float64)
        return GridFunction(vals, self.res.spacing, self.res.window[0], f.extension)


@dataclass
class Fragment:
    name: str
    passed: bool
    vacuous: bool = False
    values: dict = field(default_factory=dict)
    note: str = ""


@dataclass
class CheckReport:
    map_name: str
    space: dict
    kind: str
    computed: dict
    fragments: list
    verdict: str
    tolerances: dict
    runtime_s: float
    grid: dict
    seed: int
    worker: Optional[dict] = None  # timing of the phi' half in the worker (None: shared or in the caller); not in to_json

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "map": self.map_name,
            "space": self.space,
            "kind": self.kind,
            "computed": self.computed,
            "fragments": [asdict(fr) for fr in self.fragments],
            "verdict": self.verdict,
            "tolerances": self.tolerances,
            "grid": self.grid,
            "seed": self.seed,
        }

    # summary.csv columns, in order; the rest come from space and computed
    CSV_COLUMNS = (
        "schema_version", "map", "kind", "s", "p", "q", "m", "U", "M_value", "M_infinite", "lip",
        "max_preimage", "opnorm_lower", "phiprime_unif", "phiprime_mult_lower", "verdict",
        "failed_fragments", "count", "seed",
    )
    CSV_HEADER = ",".join(CSV_COLUMNS)

    def to_csv_row(self) -> str:
        values = dict(
            self.computed,
            **self.space,
            schema_version=SCHEMA_VERSION,
            map=self.map_name,
            kind=self.kind,
            M_infinite=int(bool(self.computed.get("M_infinite"))),
            verdict=self.verdict,
            failed_fragments=sum(1 for fr in self.fragments if not fr.passed),
            count=self.grid["count"],
            seed=self.seed,
        )
        fields = [values.get(column) for column in self.CSV_COLUMNS]
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(["" if v is None else str(v) for v in fields])
        return out.getvalue()


# ---------------------------------------------------------------------------
# operator-norm lower bound
# ---------------------------------------------------------------------------

def opnorm_lower_detailed(mg: MapOnGrid, sp: SpaceParams, kind: str = "besov") -> tuple[float, str]:
    """(value, argmax): the max over the witness family of ||C_phi f|| / ||f||,
    a certified lower bound, and the witness that reaches it."""
    res = mg.res
    ratios = []
    for name, f in res.family.items():
        denom = res.norm(f, sp, kind=kind)
        if denom == 0.0:  # |f|^p underflows at a large enough finite p
            continue
        num = res.norm(mg.compose(f), sp, kind=kind)
        ratios.append((num / denom, name))
    if not ratios:
        raise ValueError("degenerate witness family")
    return max(ratios)


# ---------------------------------------------------------------------------
# necessity of the unit-interval distortion bound
# ---------------------------------------------------------------------------

def _unit_targets(lo: float, hi: float) -> np.ndarray:
    """The left ends a of the unit targets [a, a + 1] of both unit-target
    fragments: lo, lo + A_STEP, ... up to hi. arange's last point passes hi
    when lo is off the step lattice, so it is dropped."""
    a_grid = np.arange(lo, hi + A_STEP, A_STEP)
    return a_grid[a_grid <= hi]


def composed_bump_masses(mg: MapOnGrid, targets, p: float) -> list[float]:
    """||C_phi f_a||_p^p for the unit bump f_a of every target a. Each bump's
    samples are interpolated at phi's grid values; ``MapOnGrid.compose`` would
    instead evaluate the bump's descriptor there. f_a is sampled only on the
    cells of its support [a-1, a+2] and two more on each side, and read only
    at the values within a cell of those; every other sample and value is
    exactly 0, as on the whole grid, and lp_norm sums the whole array, so
    each mass keeps the whole-grid bits."""
    x, dx, n = mg.res.x, mg.res.spacing, mg.res.count
    masses = []
    for a in targets:
        samples, vals = np.zeros(n), np.zeros(n)
        i0 = max(math.floor((a - 1.0 - x[0]) / dx) - 2, 0)
        i1 = min(math.ceil((a + 2.0 - x[0]) / dx) + 3, n)
        samples[i0:i1] = _plateau(a, a + 1.0, 1.0)(x[i0:i1])
        near = (mg.ys >= x[i0] - dx) & (mg.ys <= x[i1 - 1] + dx)
        vals[near] = GridFunction(samples, dx, x[0])(mg.ys[near])
        masses.append(lp_norm(GridFunction(vals, dx, x[0], Extension.ZERO), p) ** p)
    return masses


def check_nec_U(mg: MapOnGrid, sp: SpaceParams, opnorm: float, uval: float, kind: str = "besov") -> Fragment:
    """Unit-bump mass transport: ||C_phi f_a||_p^p recovers the preimage
    length of [a, a+1], and U^(1/p) stays below kappa * opnorm * ||bump||."""
    if math.isinf(sp.p):
        raise ValueError("unit-interval necessity check requires p < inf")
    res, window = mg.res, mg.res.window
    ymin, ymax = mg.phi.value_range()
    # keep witness targets away from the range edges so their preimages stay
    # inside the window (truncated composed mass would fake a violation)
    a_grid = _unit_targets(max(ymin + 1.0, window[0]), min(ymax - 2.0, window[1] - 1.0))
    lengths = preimage_lengths(mg.phi, a_grid, a_grid + 1.0)
    slack = 2.0 * (mg.npre + 1) * res.spacing
    resolved = lengths > 4.0 * res.spacing
    masses = composed_bump_masses(mg, a_grid[resolved], sp.p)
    worst_margin = min(
        (lhs - (length - slack) for lhs, length in zip(masses, lengths[resolved])), default=math.inf
    )
    witness_ok = worst_margin >= -1e-9 or not math.isfinite(worst_margin)
    bump_norm = res.norm(res.family["unit_bump(0)"], sp, kind=kind)
    if math.isinf(uval):
        return Fragment(
            "nec_U",
            passed=False,
            values={"U": uval, "opnorm_lower": opnorm, "bump_norm": bump_norm},
            note="U is infinite (flat tail); necessity violated",
        )
    kappa_req = uval ** (1.0 / sp.p) / (opnorm * bump_norm)
    passed = witness_ok and kappa_req <= KAPPA_MAX
    return Fragment(
        "nec_U",
        passed=passed,
        values={
            "U": uval,
            "opnorm_lower": opnorm,
            "bump_norm": bump_norm,
            "kappa_required": kappa_req,
            "witness_worst_margin": worst_margin,
        },
    )


# ---------------------------------------------------------------------------
# necessity of the Lipschitz bound (scaled ramp witness)
# ---------------------------------------------------------------------------

def _witness_oracle_lower(delta: float, sp: SpaceParams) -> float:
    """Direct quadrature of the proof's lower-bound integral
    int_delta^{3 delta} (h - delta)^{q/p} h^{-1-sq} dh (sup form for q=inf)."""
    hs = np.linspace(delta, 3.0 * delta, 4001)
    vals = (hs - delta) ** (1.0 / sp.p) * hs ** (-sp.s)
    if math.isinf(sp.q):
        return float(vals.max())
    integrand = (hs - delta) ** (sp.q / sp.p) * hs ** (-1.0 - sp.s * sp.q)
    return float(np.trapezoid(integrand, hs)) ** (1.0 / sp.q)


def check_nec_lipschitz(mg: MapOnGrid, sp: SpaceParams) -> Fragment:
    """Build the proof's ramp witness at the steepest point and read the
    implied slope bound off the composed seminorm."""
    phi, res, lip = mg.phi, mg.res, mg.lip

    def refused(note: str) -> Fragment:
        return Fragment("nec_lipschitz", passed=True, vacuous=True, note=note)

    if lip < 1e-12:
        return refused("flat map; vacuous")
    # b's witness ramps must lie on the grid, untruncated; phi's tails count
    b = steepest_point(phi, res.window[0] + LIP_MARGIN, res.window[1] - LIP_MARGIN)[1]
    slope_b = phi.derivative_values(b)
    if abs(slope_b) < 1e-12:
        return refused("derivative vanishes at the steepest sample; vacuous")
    direction = math.copysign(1.0, slope_b)
    expo = 1.0 / (sp.s - 1.0 / sp.p)
    oracle_ok = True
    details = []
    spacing = res.spacing
    for delta in LIP_DELTAS:
        c = b + direction * delta
        a = b - 2.0 * direction * delta
        phib, phic, phia = phi(b), phi(c), phi(a)
        r = (phib - phia) / 2.0
        eps = (phic - phib) / 2.0
        if r <= 0.0 or eps <= 0.0 or r > 1.0 or eps > 1.0:
            continue
        # admissible only when both the witness ramps and their composed
        # images are resolved; sub-cell ramps read as fake roughness
        if r * eps < 3.0 * spacing or r * eps / abs(slope_b) < 3.0 * spacing:
            continue
        # the witness lives in value space: sample it on the window moved
        # to its own plateau (the map image may leave the domain window);
        # this is eta_eps((x - x0) / r) with ramps of width r * eps
        x0 = (phib + phia) / 2.0
        shifted = (x0 + res.window[0], x0 + res.window[1])
        f = plateau(x0 - r, x0 + r, max(r * eps, 2.0 * spacing), shifted, res.count)
        lhs = res.norm(mg.compose(f), sp, kind="besov_seminorm")
        fsemi = res.norm(f, sp, kind="besov_seminorm")
        if fsemi == 0.0:
            continue
        implied = (lhs / fsemi) ** expo
        oracle = _witness_oracle_lower(delta, sp)
        if lhs < 0.25 * oracle:
            oracle_ok = False
        details.append({"delta": delta, "implied_lip": implied, "oracle_lower": oracle, "lhs": lhs})
    if not details:
        return refused("no admissible witness geometry at this scale")
    # the widest admissible witness is the best resolved; narrower ones are
    # kept as diagnostics (they drift up as ramps approach the cell scale)
    implied_read = details[0]["implied_lip"]
    ratio = implied_read / lip
    passed = oracle_ok and (1.0 / LIP_FACTOR_TOL <= ratio <= LIP_FACTOR_TOL)
    return Fragment(
        "nec_lipschitz",
        passed=passed,
        values={
            "lip": lip,
            "implied_lip": implied_read,
            "ratio": ratio,
            "oracle_ok": oracle_ok,
            "sweep": details,
        },
    )


# ---------------------------------------------------------------------------
# chain-rule sufficiency machinery
# ---------------------------------------------------------------------------

def check_sufficiency_chain(mg: MapOnGrid, f: GridFunction, sp: SpaceParams) -> Fragment:
    """Compare ||C_phi f||_{B^s} with ||C_phi f||_p + ||phi' . C_phi f'||_{B^{s-1}}
    and measure the pointwise chain-rule residual computed two ways.

    The residual gate scales with Lip(phi)^3: the central-difference
    truncation of (f o phi)''' grows with the cubed slope.
    """
    if not mg.phi.c1:
        raise ValueError("chain-rule check requires a C1 map")
    if not (sp.s > max(1.0, 1.0 / sp.p)):
        raise ValueError("chain-rule check requires s > max(1, 1/p)")
    residual_tol = CHAIN_RESIDUAL * max(1.0, mg.lip) ** 3
    composed = mg.compose(f)
    d_direct = grid_derivative(composed)
    fprime = grid_derivative(f)
    phip = mg.phi.derivative_values(f.x)
    d_chain = GridFunction(
        phip * mg.compose(fprime).samples, f.spacing, f.origin, Extension.ZERO
    )
    residual = float(np.max(np.abs(d_direct.samples - d_chain.samples)))
    lhs = mg.res.norm(composed, sp)
    rhs = lp_norm(composed, sp.p) + mg.res.norm(d_chain, sp.shifted_down())
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
    passed = residual <= residual_tol and ratio <= KAPPA_CHAIN
    return Fragment(
        "sufficiency_chain",
        passed=passed,
        values={"residual": residual, "lhs": lhs, "rhs": rhs, "ratio": ratio},
    )


# ---------------------------------------------------------------------------
# p = infinity witness pair
# ---------------------------------------------------------------------------

def check_infinity_witness(mg: MapOnGrid, sp: SpaceParams, opnorm: float) -> Fragment:
    """Two-stage p = inf witness: linear cutoffs reconstruct ||phi'||_inf on
    preimages, then the zigzag bound dominates the direct B^{s-1} seminorm
    of phi' through the four translated index-set covers."""
    if not math.isinf(sp.p):
        raise ValueError("this witness requires p = inf")
    if not (sp.s > 1.0):
        raise ValueError("requires s > 1")
    phi, res, lip = mg.phi, mg.res, mg.lip
    window = res.window
    ymin, ymax = phi.value_range()
    recon = 0.0
    for a in _unit_targets(max(ymin, window[0] + 2.0), min(ymax, window[1] - 2.0)):
        try:
            intervals = preimage_intervals(phi, (float(a), float(a) + 1.0))
        except UnboundedPreimageError:
            continue  # [a, a+1] holds a flat tail's value, where phi' = 0 adds nothing to the sup
        d = grid_derivative(mg.compose(linear_cutoff(float(a), 1.0, window, res.count)))
        for interval in intervals:
            recon = max(recon, linf_on_interval(d, interval))
    down = sp.shifted_down()
    direct = res.norm(mg.phi_prime, down, kind="besov_seminorm")
    need = zigzag_window_length(down.m)
    if window[1] - window[0] < need:
        # the zigzag stage could not run, so the fragment does not pass on the
        # Lipschitz reconstruction alone; classify reads it as Inconclusive
        return Fragment(
            "infinity_witness",
            passed=False,
            vacuous=True,
            values={"lip": lip, "lip_reconstructed": recon, "phiprime_seminorm_direct": direct, "opnorm_lower": opnorm},
            note=f"zigzag stage not evaluated: the window is shorter than two 16m-periods of the m = {down.m} "
            f"zigzag (length {need})",
        )
    g_norm = res.norm(zigzag_g(down.m, window, res.count), sp)
    # one l^q term for each of the four translated covers I_m + 2*l*m, l = 0..3
    qroot = 1.0 if math.isinf(sp.q) else 4.0 ** (1.0 / sp.q)
    bound = qroot * opnorm * g_norm
    lip_ok = abs(recon - lip) <= LIP_RECON_TOL * max(lip, 1e-12) or lip < 1e-12
    zig_ok = direct <= bound * (1.0 + ZIGZAG_TOL)
    return Fragment(
        "infinity_witness",
        passed=lip_ok and zig_ok,
        values={
            "lip": lip,
            "lip_reconstructed": recon,
            "phiprime_seminorm_direct": direct,
            "zigzag_bound": bound,
            "opnorm_lower": opnorm,
            "g_norm": g_norm,
        },
    )


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def _window_limited(zs: np.ndarray, vals: np.ndarray) -> bool:
    """Multiplier profile still growing at the window edge: the sup sits at
    an extreme translate and the last WINDOW_RUN steps toward it increase
    monotonically."""
    if zs.size < WINDOW_RUN + 1:
        return False
    k = int(np.argmax(vals))
    rising = k == zs.size - 1 and np.all(np.diff(vals[-WINDOW_RUN - 1 :]) > 0.0)
    falling = k == 0 and np.all(np.diff(vals[: WINDOW_RUN + 1]) < 0.0)
    return bool(rising or falling)


def _multiplier_half(mg: MapOnGrid, sp: SpaceParams, kind: str, seed: int) -> dict:
    """classify's phi' half, phi' read as a multiplier of B^{s-1}_{p,q}: the
    phiprime_* and window_limited entries of the record's ``computed``. It
    reads only phi', its grid and the norm cache, and no fragment reads it,
    so it runs beside the rest of classify."""
    res, phi_prime, down = mg.res, mg.phi_prime, sp.shifted_down()
    psi = make_psi("mollifier")
    norm_fn = functools.partial(res.norm, kind=kind)
    profile = unif_profile(phi_prime, down, psi, norm_fn=norm_fn, with_rows=True)
    zs, zvals, _ = profile
    testers = [(f"psi(z={z})", GridFunction(psi(phi_prime.x - z), phi_prime.spacing, phi_prime.origin))
               for z in (-2, 0, 3)]
    testers.append(("gaussian", sample("gaussian", phi_prime.window, res.count)))
    mult = multiplier_norm_lower_detailed(phi_prime, down, testers, norm_fn=norm_fn)
    msq = None if math.isinf(sp.p) else msq_norm_lower_detailed(
        phi_prime, down, psi, n_random=16, seed=seed, norm_fn=norm_fn, profile=profile).value
    return {
        "phiprime_unif": float(zvals.max()),
        "phiprime_mult_lower": mult.value,
        "phiprime_mult_argmax": mult.argmax,
        "phiprime_msq_lower": msq,
        "window_limited": _window_limited(zs, zvals),
    }


def classify_maps(
    phis: list, sp: SpaceParams, kind: str = "besov", seed: int = 1234, res: Optional[Resolution] = None
) -> list[CheckReport]:
    """The report of each of one map or more, in turn, on one ``res``
    (without one, made at the default count); see the module docstring."""
    res = Resolution() if res is None else res
    gate_space(sp, kind)
    if not phis:
        return []
    if kind == "sobolev" and not all(phi.strictly_monotone for phi in phis):
        raise RangeGateError("Sobolev route requires a homeomorphism (strictly monotone map)")
    reads, jobs = [], {}  # jobs: the key of each distinct half -> the args of its first map's call
    for phi in phis:
        t0 = time.perf_counter()
        mg = MapOnGrid.read(phi, res)
        key = (res.content(mg.phi_prime), mg.phi_prime.origin)  # the space, kind and seed are the call's
        reads.append([mg, key, time.perf_counter() - t0])  # the read's seconds count to its map's runtime_s
        jobs.setdefault(key, (mg, sp, kind, seed))
    job_of, halves = {key: i for i, key in enumerate(jobs)}, {}
    t0 = time.perf_counter()
    with Worker(_multiplier_half, list(jobs.values())) as worker:
        reads[0][2] += time.perf_counter() - t0  # and the fork's to the first map's

        def half(key) -> tuple[dict, Optional[dict]]:
            """The half's entries, and the worker's timing at the map that first needs them."""
            if key in halves:
                return halves[key], None
            halves[key] = worker.result(job_of[key])
            return halves[key], worker.timings[job_of[key]]

        # every map's own work comes first, so a half slow in the worker holds up only the verdicts at the end
        reports = [_classify_read(mg, sp, kind, seed, pre) for mg, key, pre in reads]
        return [report(functools.partial(half, key)) for report, (_, key, _) in zip(reports, reads)]


def classify(
    phi: LineMap, sp: SpaceParams, kind: str = "besov", seed: int = 1234, res: Optional[Resolution] = None
) -> CheckReport:
    """The verdict of one (map, space) pair: the one-map case of ``classify_maps``."""
    return classify_maps([phi], sp, kind, seed, res)[0]


def _classify_read(mg: MapOnGrid, sp: SpaceParams, kind: str, seed: int, pre_s: float) -> Callable:
    """The caller's own work on one map from its reading; returns the function that makes the map's
    report from ``half()`` (the phi' half, its timing). ``runtime_s`` is both calls and the ``pre_s``
    seconds spent on the map before them."""
    t0 = time.perf_counter()
    phi, res = mg.phi, mg.res
    uval = U_functional(phi)
    mest = M_functional(phi, uval)
    op_val, op_arg = opnorm_lower_detailed(mg, sp, kind)
    fragments = []
    if math.isinf(sp.p):
        fragments.append(check_infinity_witness(mg, sp, op_val))
    else:
        fragments.append(check_nec_U(mg, sp, op_val, uval, kind))
        if kind == "besov":
            fragments.append(check_nec_lipschitz(mg, sp))
    if phi.c1 and 0.0 not in (phi.left_slope, phi.right_slope):  # past a flat tail f o phi is f(edge), not 0
        fragments.append(check_sufficiency_chain(mg, res.family["gaussian"], sp))
    pre_s += time.perf_counter() - t0

    def report(half) -> CheckReport:
        t0 = time.perf_counter()
        entries, timing = half()

        if math.isinf(uval) and not math.isinf(sp.p):
            # U < inf is necessary for p < inf only; at p = inf no fragment reads U
            verdict = "ConsistentUnbounded"
            note = "U(phi) infinite: the necessary unit-interval distortion bound fails"
        elif entries["window_limited"]:
            verdict = "Inconclusive"
            note = (
                "window-limited: multiplier profile of phi' still growing at the "
                "window edge; the truncated window cannot witness the supremum on R"
            )
        elif all(fr.passed for fr in fragments):
            verdict = "ConsistentBounded"
            note = ""
        else:
            verdict = "Inconclusive"
            note = "failed fragments: " + ",".join(fr.name for fr in fragments if not fr.passed)

        computed = {
            "U": uval,
            "M_value": mest.value if not mest.infinite else None,
            "M_infinite": mest.infinite,
            "M_ladder": [list(pair) for pair in zip(mest.widths, mest.sups)],
            "lip": mg.lip,
            "max_preimage": mg.npre,
            "opnorm_lower": op_val,
            "opnorm_argmax": op_arg,
            **entries,
            "note": note,
        }
        return CheckReport(
            map_name=phi.name,
            space=sp.as_dict(),
            kind=kind,
            computed=computed,
            fragments=fragments,
            verdict=verdict,
            tolerances=dict(TOLERANCES),
            runtime_s=pre_s + time.perf_counter() - t0,
            grid={"count": res.count, "window": list(res.window), "hgrid_levels": DEFAULT_HGRID.levels},
            seed=seed,
            worker=timing,
        )

    return report
