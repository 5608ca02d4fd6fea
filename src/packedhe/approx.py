"""Composite-polynomial approximation of sign, abs, max and ReLU.

Two odd polynomial families of degree 2d+1 build the sign approximation.  The
sharpening family g_d (Cheon et al.'s f_n) is

    g_d(m) = sum_{i=0..d} (1/4^i) * C(2i, i) * m * (1 - m^2)^i,

whose k-fold composition converges to the sign function on [-1,1] outside a
shrinking dead zone around zero.  The escape family esc_d
(Cheon-Kim-Kim-Lee-Lee, ASIACRYPT 2020, section 3.5; their g_n, tabulated for
d = 1..4) has a far steeper slope at zero but only lifts [x0, 1] into
[0.748, 1).  A ``CompositePolySpec`` is one schedule: ``k_escape`` esc_d
stages that carry the delta-neighbourhood of zero out to about 3/4, then
``k_sharpen`` g_d stages that sharpen toward 1.

One grid search finds every schedule.  ``for_closeness`` asks it for the
shortest schedule reaching a 2**-sigma error outside [-delta, delta];
``min_depth`` asks it for the shortest g_d-only one, so a schedule never
exceeds ``min_depth``.  Without an escape table (d > 4) the two agree.  The
closed-form depth bound

    ceil(log2(1/delta) / log2(p_d)) + ceil(log2(sigma - 1) / log2(d + 1)) + C

caps the search with C = 2 (p_d is g_d's linear coefficient).  The escape
stages are safe only on [-1, 1], so every sign evaluation refuses inputs
beyond 1 + 2**-sigma.

Every approximation is evaluable both on plain arrays and on slot-engine
ciphertexts; the two paths walk one schedule with one arithmetic order per
stage, so the exact backend reproduces the plain evaluation bit for bit.  On
ciphertexts a stage is one ``CryptoContext.odd_poly_stage`` call, which
meters the stage's chain of products, rescales and adds.  A stage
``m * sum_j c_j * u**j`` with ``u = m*m`` is evaluated as ``m * (A(u) + u**k
* B(u))``, ``k = ceil(d/2)``, A holding c_0 .. c_(k-1) and B the rest: k + 2
ciphertext products (2 at d = 1) instead of d + 1 for every power of u, at
``stage_depth(d)`` levels (3, 4, 4, 5, 5, 6, 6, 6 for d = 1..8).  A
Chebyshev-interpolation fit is provided for smooth activations (sigmoid and
friends), where a low-degree single polynomial is the cheaper tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .engine import CryptoContext, LevelExhaustedError, SlotVector

MAX_DEGREE_PARAM = 8  # coefficient growth keeps float64 exact through d = 8

BootstrapFn = Callable[[SlotVector], SlotVector]


@lru_cache(maxsize=None)
def gd_coefficient_fractions(d: int) -> tuple:
    """Exact odd-power monomial coefficients (c_1, c_3, ..., c_{2d+1}) of g_d."""
    if not 1 <= d <= MAX_DEGREE_PARAM:
        raise ValueError(f"degree parameter must be in 1..{MAX_DEGREE_PARAM}, got {d}")
    # coeffs[j] multiplies m^(2j+1)
    coeffs = [Fraction(0)] * (d + 1)
    for i in range(d + 1):
        lead = Fraction(math.comb(2 * i, i), 4 ** i)
        # (1 - m^2)^i contributes (-1)^j C(i, j) m^(2j)
        for j in range(i + 1):
            coeffs[j] += lead * (-1) ** j * math.comb(i, j)
    return tuple(coeffs)


def gd_coefficients(d: int) -> tuple:
    """Float odd-power coefficients of g_d; every value is dyadic and exact."""
    return tuple(float(c) for c in gd_coefficient_fractions(d))


def pd_constant(d: int) -> float:
    """Linear coefficient of g_d: (2d+1)/4^d * C(2d, d)."""
    if d < 1:
        raise ValueError(f"degree parameter must be >= 1, got {d}")
    return float(Fraction((2 * d + 1) * math.comb(2 * d, d), 4 ** d))


# Numerators over 2**10 of esc_d's odd-power coefficients (x, x^3, ...), from
# Cheon-Kim-Kim-Lee-Lee section 3.5.  Dyadic, so every stage is exact in float64.
_ESCAPE_NUMERATORS = {
    1: (2126, -1359),
    2: (3334, -6108, 3796),
    3: (4589, -16577, 25614, -12860),
    4: (5850, -34974, 97015, -113492, 46623),
}


def escape_coefficients(d: int) -> tuple:
    """Float odd-power coefficients of the escape stage esc_d (d = 1..4)."""
    if d not in _ESCAPE_NUMERATORS:
        raise ValueError(f"no escape polynomial for degree parameter {d}; "
                         f"tabulated: {sorted(_ESCAPE_NUMERATORS)}")
    return tuple(n / 1024 for n in _ESCAPE_NUMERATORS[d])


def eval_gd(m, d: int):
    """Evaluate one g_d stage on a float or array (same schedule as ciphertexts)."""
    return _stage_plain(np.asarray(m, dtype=np.float64), gd_coefficients(d))


def _stage_plain(m: np.ndarray, coeffs: tuple) -> np.ndarray:
    """``CryptoContext.odd_poly_stage``'s chain on a plain array, in its order."""
    d = len(coeffs) - 1
    k = (d + 1) // 2
    powers = [None, m * m]
    for j in range(2, k + 1):
        powers.append(powers[j // 2] * powers[j - j // 2])

    def series(first: int, last: int) -> np.ndarray:
        acc = np.full_like(m, coeffs[first])
        for j in range(1, last - first + 1):
            acc = acc + powers[j] * coeffs[first + j]
        return acc
    if d == 1:
        return m * series(0, 1)
    return m * (series(0, k - 1) + powers[k] * series(k, d))


def stage_depth(d: int) -> int:
    """Multiplicative levels one stage of degree 2d+1 consumes under ciphertext."""
    return 3 if d == 1 else 4 + math.ceil(math.log2(d // 2))


@dataclass(frozen=True)
class CompositePolySpec:
    """A k-stage sign schedule targeting (sigma, delta)-closeness.

    The schedule is ``k_escape`` esc_d stages followed by ``k_sharpen`` g_d
    stages.
    """

    d: int
    k: int
    sigma: float
    delta: float
    k_escape: int = 0

    @property
    def k_sharpen(self) -> int:
        return self.k - self.k_escape

    @property
    def schedule(self) -> tuple:
        """Odd-power coefficients of every stage, in evaluation order."""
        escape = (escape_coefficients(self.d),) if self.k_escape else ()
        sharpen = (gd_coefficients(self.d),)
        return escape * self.k_escape + sharpen * self.k_sharpen

    @classmethod
    def with_depth(cls, d: int, k: int) -> "CompositePolySpec":
        """k stages of g_d alone."""
        if k < 1:
            raise ValueError(f"composition depth must be >= 1, got {k}")
        return cls(d, k, float("nan"), float("nan"))

    @classmethod
    def for_closeness(cls, d: int, sigma: float,
                      delta: float) -> "CompositePolySpec":
        """The shortest escape-then-sharpen schedule passing the grid check."""
        k_escape, k = _shortest_schedule(d, sigma, delta, escape=True)
        return cls(d, k, sigma, delta, k_escape)


def _check_sign_domain(values, spec: CompositePolySpec) -> None:
    """Raise ValueError, naming the worst slot, if any |value| > 1 + 2**-sigma.

    The escape stages diverge just outside [-1, 1]; a spec without a sigma
    (``with_depth``) allows 1e-12 of rounding instead.
    """
    flat = np.ravel(values)
    if flat.size == 0:
        return
    limit = 1.0 + (1e-12 if math.isnan(spec.sigma) else 2.0 ** -spec.sigma)
    worst = int(np.argmax(np.abs(flat)))
    if not abs(flat[worst]) <= limit:
        raise ValueError(
            f"sign input out of domain: slot {worst} holds "
            f"{float(flat[worst])!r}, beyond the bound {limit!r} on |m|")


def _sign_plain(m: np.ndarray, spec: CompositePolySpec) -> np.ndarray:
    """Every stage of ``spec`` on a plain array, after the domain check."""
    _check_sign_domain(m, spec)
    for coeffs in spec.schedule:
        m = _stage_plain(m, coeffs)
    return m


def eval_composite(m, spec: CompositePolySpec):
    """The composite sign approximation on plain values in [-1, 1]."""
    out = _sign_plain(np.asarray(m, dtype=np.float64), spec)
    if np.isscalar(m) or np.ndim(m) == 0:
        return float(out)
    return out


def closeness_grid(delta: float, points: int = 100_000) -> np.ndarray:
    """Evaluation grid on [delta, 1]: geometric in [delta, 2*delta], uniform above."""
    geo = np.geomspace(delta, min(2 * delta, 1.0), max(points // 10, 16))
    uni = np.linspace(min(2 * delta, 1.0), 1.0, points)
    return np.unique(np.concatenate([geo, uni]))


def depth_bound_formula(d: int, sigma: float, delta: float, slack: int = 2) -> int:
    """Closed-form ceiling on the minimal composition depth (see module docs)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    escape = math.ceil(math.log2(1.0 / delta) / math.log2(pd_constant(d)))
    sharpen = 0
    if sigma > 1:
        sharpen = max(0, math.ceil(math.log2(sigma - 1) / math.log2(d + 1)))
    return escape + sharpen + slack


def min_depth(d: int, sigma: float, delta: float) -> int:
    """Smallest k >= 1 with max_{grid of [delta,1]} |g_d^(k) - 1| <= 2**-sigma.

    The grid check is the definition; this is the schedule search without
    escape stages, capped by the closed-form bound.
    """
    return _shortest_schedule(d, sigma, delta, escape=False)[1]


@lru_cache(maxsize=None)
def _shortest_schedule(d: int, sigma: float, delta: float, *,
                       escape: bool) -> tuple:
    """(k_escape, k) of the shortest esc_d-then-g_d schedule on the grid.

    g_d is monotone on [0, 1] with g_d(1) = 1, so the sharpening count after
    each escape prefix follows from the image's minimum alone; with no prefix
    that minimum is delta.  When ``escape`` holds and esc_d is tabulated,
    escape stages step the grid one at a time.  Stepping stops once no
    longer prefix can win, since no minimum exceeds esc_d's maximum on
    [0, 1].  The chosen schedule, of at least one stage, is then checked once
    on the full grid, continuing from the stepped grid when it holds the
    chosen prefix.
    """
    bound = depth_bound_formula(d, sigma, delta)
    tol = 2.0 ** (-sigma)
    coeffs = gd_coefficients(d)

    def sharpen_stages(low: float) -> int:
        v = np.array([low])
        for k in range(bound + 1):
            if 1.0 - v[0] <= tol:
                return k
            v = _stage_plain(v, coeffs)
        return bound + 1

    vals = closeness_grid(delta)
    best = (0, max(1, sharpen_stages(vals[0])))
    stepped = 0
    if escape and d in _ESCAPE_NUMERATORS:
        esc = escape_coefficients(d)
        fewest = sharpen_stages(
            np.max(_stage_plain(np.linspace(0.0, 1.0, 10_001), esc)))
        while stepped + 1 + fewest < best[1]:
            vals = _stage_plain(vals, esc)
            stepped += 1
            k = stepped + sharpen_stages(vals.min())
            if k < best[1]:
                best = (stepped, k)
    if best[1] > bound:
        raise RuntimeError(
            f"grid search did not reach 2**-{sigma} within the depth bound {bound}")
    if stepped != best[0]:
        del vals
        vals, stepped = closeness_grid(delta), 0
    spec = CompositePolySpec(d, best[1], sigma, delta, best[0])
    for stage in spec.schedule[stepped:]:
        vals = _stage_plain(vals, stage)
    err = np.max(np.abs(vals - 1.0))
    if not err <= tol:
        raise RuntimeError(
            f"schedule {best} misses 2**-{sigma} on the grid (error {err:.3e})")
    return best


# ------------------------------------------------------------ ciphertext path


def _ensure_level(ctx: CryptoContext, ct: SlotVector, need: int,
                  bootstrap: BootstrapFn | None) -> SlotVector:
    if ct.level >= need:
        return ct
    if bootstrap is None:
        raise LevelExhaustedError(
            f"{need} multiplicative levels needed but only {ct.level} remain "
            f"and no bootstrap path was provided")
    return bootstrap(ct)


def make_local_bootstrapper(ctx: CryptoContext) -> BootstrapFn:
    """Bootstrap callback that invokes the collective refresh directly."""

    def _refresh(ct: SlotVector) -> SlotVector:
        return ctx.dbootstrap(ct, ctx.parties)

    return _refresh


def _stage_ct(ctx: CryptoContext, m: SlotVector, coeff_pts: tuple,
              bootstrap: BootstrapFn | None) -> SlotVector:
    """One stage; ``coeff_pts[j]`` is coefficient j encoded in every slot."""
    m = _ensure_level(ctx, m, stage_depth(len(coeff_pts) - 1), bootstrap)
    return ctx.odd_poly_stage(m, coeff_pts)


def app_sign(ct: SlotVector, spec: CompositePolySpec, ctx: CryptoContext,
             bootstrap: BootstrapFn | None = None) -> SlotVector:
    """Slot-wise sign schedule of a ciphertext whose values lie in [-1, 1].

    Raises ValueError if a slot lies outside the domain.  Bootstraps between
    stages whenever the remaining level is short of the stage depth; without
    a bootstrap path that condition raises.  Each family's coefficients, the
    constant one included, are encoded once per call.
    """
    _check_sign_domain(ct.slots, spec)
    schedule = spec.schedule
    coeff_pts = {coeffs: tuple(ctx.encode(np.full(ctx.slot_count, c))
                               for c in coeffs)
                 for coeffs in dict.fromkeys(schedule)}
    out = ct
    for coeffs in schedule:
        out = _stage_ct(ctx, out, coeff_pts[coeffs], bootstrap)
    return out


def _half_scale(ctx: CryptoContext, ct: SlotVector,
                bootstrap: BootstrapFn | None) -> SlotVector:
    ct = _ensure_level(ctx, ct, 1, bootstrap)
    return ctx.rescale(ctx.mul_pt(ct, ctx.encode(np.full(ctx.slot_count, 0.5))))


def app_abs(ct: SlotVector, spec: CompositePolySpec, ctx: CryptoContext,
            bootstrap: BootstrapFn | None = None) -> SlotVector:
    """m * sign(m): slot-wise absolute value on normalized inputs."""
    s = app_sign(ct, spec, ctx, bootstrap)
    ct = _ensure_level(ctx, ct, 1, bootstrap)
    return ctx.rescale(ctx.mul_ct(ct, s))


def app_max(a: SlotVector, b: SlotVector, spec: CompositePolySpec,
            ctx: CryptoContext, bootstrap: BootstrapFn | None = None) -> SlotVector:
    """(a+b)/2 + (a-b)/2 * sign(a-b); exact on ties: every stage maps 0 to 0."""
    diff = ctx.sub(a, b)
    s = app_sign(diff, spec, ctx, bootstrap)
    half_sum = _half_scale(ctx, ctx.add(a, b), bootstrap)
    half_diff = _half_scale(ctx, diff, bootstrap)
    half_diff = _ensure_level(ctx, half_diff, 1, bootstrap)
    s = _ensure_level(ctx, s, 1, bootstrap)
    return ctx.add(half_sum, ctx.rescale(ctx.mul_ct(half_diff, s)))


def app_relu(ct: SlotVector, spec: CompositePolySpec, ctx: CryptoContext,
             bootstrap: BootstrapFn | None = None) -> SlotVector:
    """max(0, m) as (m + m * sign(m)) / 2 on normalized inputs."""
    s = app_sign(ct, spec, ctx, bootstrap)
    ct = _ensure_level(ctx, ct, 1, bootstrap)
    prod = ctx.rescale(ctx.mul_ct(ct, s))
    return _half_scale(ctx, ctx.add(ct, prod), bootstrap)


def plain_max(a, b, spec: CompositePolySpec):
    """Plain mirror of app_max, same arithmetic schedule."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    s = _sign_plain(diff, spec)
    return (a + b) * 0.5 + (diff * 0.5) * s


# ------------------------------------------------------------- interval maps


@dataclass(frozen=True)
class IntervalMap:
    """Affine source interval [lo, hi] mapped onto [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"degenerate interval [{self.lo}, {self.hi}]")

    @property
    def span(self) -> float:
        return self.hi - self.lo


def interval_normalize(ct: SlotVector, imap: IntervalMap,
                       ctx: CryptoContext) -> SlotVector:
    """m -> (m - lo) / (hi - lo) with one mul_pt and one add."""
    scaled = ctx.rescale(ctx.mul_pt(ct, ctx.encode(
        np.full(ctx.slot_count, 1.0 / imap.span))))
    offset = ctx.constant(-imap.lo / imap.span, ct.key_tag)
    return ctx.add(scaled, offset)


def interval_denormalize(ct: SlotVector, imap: IntervalMap,
                         ctx: CryptoContext) -> SlotVector:
    scaled = ctx.rescale(ctx.mul_pt(ct, ctx.encode(
        np.full(ctx.slot_count, imap.span))))
    return ctx.add(scaled, ctx.constant(imap.lo, ct.key_tag))


# ---------------------------------------------------------------- smooth fits


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_derivative(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _softplus(x):
    return np.logaddexp(0.0, x)


SMOOTH_TARGETS = {
    "sigmoid": _sigmoid,
    "sigmoid_derivative": _sigmoid_derivative,
    "softplus": _softplus,
}

MAX_SMOOTH_DEGREE = 15


@dataclass(frozen=True)
class SmoothFit:
    """Chebyshev-interpolation fit of a smooth activation on an interval."""

    target: str
    degree: int
    lo: float
    hi: float
    coeffs: tuple       # monomial coefficients in x, ascending
    max_error: float    # measured on a dense grid of the interval

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=np.float64),
                                                np.array(self.coeffs))


def smooth_fit(target: str, degree: int, interval) -> SmoothFit:
    """Fit ``target`` by Chebyshev interpolation of the given degree.

    Returns monomial coefficients plus the max abs error over a 10^4-point
    grid of the interval.
    """
    if target not in SMOOTH_TARGETS:
        raise ValueError(
            f"unsupported target {target!r}; choose from {sorted(SMOOTH_TARGETS)}")
    if not 1 <= degree <= MAX_SMOOTH_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_SMOOTH_DEGREE}, got {degree}")
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    return _smooth_fit_cached(target, degree, lo, hi)


@lru_cache(maxsize=None)
def _smooth_fit_cached(target: str, degree: int, lo: float, hi: float) -> SmoothFit:
    fn = SMOOTH_TARGETS[target]
    cheb = np.polynomial.chebyshev.Chebyshev.interpolate(fn, degree, domain=[lo, hi])
    mono = cheb.convert(kind=np.polynomial.polynomial.Polynomial)
    coeffs = np.zeros(degree + 1)
    coeffs[: len(mono.coef)] = mono.coef
    grid = np.linspace(lo, hi, 10_000)
    max_error = float(np.max(np.abs(
        np.polynomial.polynomial.polyval(grid, coeffs) - fn(grid))))
    return SmoothFit(target, degree, lo, hi, tuple(coeffs), max_error)


def polyval_ct(ct: SlotVector, coeffs, ctx: CryptoContext,
               bootstrap: BootstrapFn | None = None) -> SlotVector:
    """Horner evaluation of an arbitrary monomial polynomial on a ciphertext."""
    coeffs = list(coeffs)
    x = _ensure_level(ctx, ct, 2, bootstrap)
    acc = ctx.constant(coeffs[-1], ct.key_tag)
    for c in reversed(coeffs[:-1]):
        acc = _ensure_level(ctx, acc, 2, bootstrap)
        x = _ensure_level(ctx, x, 2, bootstrap)
        acc = ctx.add(ctx.rescale(ctx.mul_ct(acc, x)),
                      ctx.constant(c, ct.key_tag))
    return acc


def polyval_plain(x, coeffs):
    """Plain mirror of polyval_ct (identical Horner recurrence)."""
    arr = np.asarray(x, dtype=np.float64)
    acc = np.full_like(arr, coeffs[-1])
    for c in reversed(list(coeffs)[:-1]):
        acc = acc * arr + c
    return acc
