"""Composite sign approximation: coefficients, convergence, ciphertext paths."""

import math
from fractions import Fraction

import numpy as np
import pytest

from packedhe import engine
from packedhe.approx import (CompositePolySpec, IntervalMap, app_abs, app_max,
                             app_relu, app_sign, closeness_grid,
                             escape_coefficients, eval_composite, eval_gd,
                             gd_coefficient_fractions,
                             gd_coefficients, interval_denormalize,
                             interval_normalize, make_local_bootstrapper,
                             min_depth, pd_constant, plain_max, polyval_ct,
                             polyval_plain, smooth_fit, stage_depth,
                             depth_bound_formula)
from packedhe.engine import LevelExhaustedError
from packedhe.federated.config import ActivationConfig
from packedhe.federated.mirror import PlainActivation


def make_ctx(parties=2, slots=256, level=6):
    return engine.new_context(2 * slots, level, 2.0 ** 40, parties)


# ----------------------------------------------------------- coefficients

def test_base_polynomial_d1():
    assert gd_coefficients(1) == (1.5, -0.5)


def test_base_polynomial_d2():
    assert gd_coefficients(2) == (15 / 8, -10 / 8, 3 / 8)


def test_base_polynomial_d3():
    assert gd_coefficients(3) == (35 / 16, -35 / 16, 21 / 16, -5 / 16)


def test_base_polynomial_d4():
    coeffs = gd_coefficients(4)
    assert coeffs[0] == 315 / 128
    assert coeffs[4] == 35 / 128
    assert coeffs == (315 / 128, -420 / 128, 378 / 128, -180 / 128, 35 / 128)


@pytest.mark.parametrize("d", range(1, 9))
def test_coefficients_are_dyadic(d):
    denom = 2 ** (2 * d - 1)
    for frac in gd_coefficient_fractions(d):
        scaled = frac * denom
        assert scaled.denominator == 1, (d, frac)


@pytest.mark.parametrize("d", range(1, 9))
def test_unit_fixed_point(d):
    assert math.isclose(sum(gd_coefficients(d)), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("d,expected", [(1, 1.5), (2, 1.875), (4, 315 / 128)])
def test_linear_coefficient_values(d, expected):
    assert pd_constant(d) == expected


@pytest.mark.parametrize("d", range(1, 9))
def test_linear_coefficient_matches_expansion(d):
    assert pd_constant(d) == gd_coefficients(d)[0]


# --------------------------------------------------------------- evaluation

def test_composite_zero_and_one():
    for d in (1, 2, 4):
        for k in (1, 3, 7):
            spec = CompositePolySpec.with_depth(d, k)
            assert eval_composite(0.0, spec) == 0.0
            assert abs(eval_composite(1.0, spec) - 1.0) < 1e-12


def test_composite_example_value():
    assert eval_composite(0.5, CompositePolySpec.with_depth(2, 1)) == 0.79296875


def test_composite_domain_check():
    spec = CompositePolySpec.with_depth(1, 1)
    with pytest.raises(ValueError):
        eval_composite(1.5, spec)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_odd_symmetry(d):
    spec = CompositePolySpec.with_depth(d, 3)
    grid = np.linspace(0, 1, 1001)
    assert np.max(np.abs(eval_composite(-grid, spec) +
                         eval_composite(grid, spec))) < 1e-12


# ------------------------------------------------------------- depth search

def test_min_depth_small_case():
    k = min_depth(1, 1.0, 0.5)
    assert 1 <= k <= 4


def test_min_depth_large_case_within_bound():
    bound = depth_bound_formula(4, 20.0, 2.0 ** -20)
    assert bound == 20  # 16 + 2 + 2
    k = min_depth(4, 20.0, 2.0 ** -20)
    assert k <= bound


def test_min_depth_monotone_in_sigma():
    for sigma in range(2, 12):
        k1 = min_depth(2, sigma, 2.0 ** -10)
        k2 = min_depth(2, sigma + 1, 2.0 ** -10)
        assert k2 >= k1


def test_min_depth_achieves_closeness():
    for d, sigma, delta in [(4, 20.0, 2.0 ** -20), (2, 10.0, 2.0 ** -10)]:
        spec = CompositePolySpec.for_closeness(d, sigma, delta)
        grid = closeness_grid(delta)
        assert grid[0] == delta and grid[-1] == 1.0
        err = np.max(np.abs(eval_composite(grid, spec) - 1.0))
        assert err <= 2.0 ** -sigma


def test_depth_bound_requires_valid_domain():
    with pytest.raises(ValueError):
        depth_bound_formula(2, 10.0, 1.5)
    with pytest.raises(ValueError):
        depth_bound_formula(2, 0.5, 0.5)


# ------------------------------------------------------ convergence lemmas

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gap_bounded_by_power_of_linear_coefficient(d):
    # 0 <= 1 - g_d(m) <= (1 - m)^(p_d) on [0, 1]
    m = np.linspace(0.0, 1.0, 10_000)
    gap = 1.0 - eval_gd(m, d)
    assert np.min(gap) >= -1e-12
    assert np.all(gap <= (1.0 - m) ** pd_constant(d) + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_gap_bounded_near_one(d):
    # 0 <= 1 - g_d(m) <= 2^d (1 - m)^(d+1) on [0.5, 1]
    m = np.linspace(0.5, 1.0, 10_000)
    gap = 1.0 - eval_gd(m, d)
    assert np.min(gap) >= -1e-12
    assert np.all(gap <= 2.0 ** d * (1.0 - m) ** (d + 1) + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monotone_on_unit_interval(d):
    m = np.linspace(-1.0, 1.0, 20_000)
    vals = eval_gd(m, d)
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_derivative_flatness_at_edge(d):
    # centred finite difference at m = 1 - 1e-4 in exact rational arithmetic
    coeffs = gd_coefficient_fractions(d)

    def g(m: Fraction) -> Fraction:
        u = m * m
        acc = Fraction(0)
        for j, c in enumerate(coeffs):
            acc += c * u ** j
        return m * acc

    m0 = Fraction(9999, 10000)
    step = Fraction(1, 10 ** 6)
    fd = (g(m0 + step) - g(m0 - step)) / (2 * step)
    bound = pd_constant(d) * (2e-4) ** d * 1.1
    assert 0 <= float(fd) <= bound


# --------------------------------------------------------- ciphertext paths

def test_app_sign_matches_plain_composite():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, ctx.slot_count)
    values[:3] = (0.0, 1.0, -1.0)
    ct = ctx.encrypt(ctx.encode(values))
    out = app_sign(ct, spec, ctx, make_local_bootstrapper(ctx))
    got = ctx.decode(ctx.ddec(out, ctx.parties))
    assert spec.k_escape > 0
    assert got.tobytes() == eval_composite(values, spec).tobytes()


def test_app_sign_sign_accuracy():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    values = np.array([0.3, -0.7, 1.0, -1.0, 0.0])
    ct = ctx.encrypt(ctx.encode(values))
    out = app_sign(ct, spec, ctx, make_local_bootstrapper(ctx))
    got = ctx.decode(ctx.ddec(out, ctx.parties))[:5]
    assert abs(got[0] - 1.0) <= 2.0 ** -20
    assert abs(got[1] + 1.0) <= 2.0 ** -20
    assert got[4] == 0.0
    assert abs(got[2] - 1.0) < 1e-12 and abs(got[3] + 1.0) < 1e-12


def test_app_sign_requires_bootstrap_path():
    ctx = make_ctx(level=3)
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    ct = ctx.encrypt(ctx.encode([0.5]))
    with pytest.raises(LevelExhaustedError):
        app_sign(ct, spec, ctx, bootstrap=None)


def test_app_max_pair_and_tie():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    assert spec.k_escape > 0    # ties pass through the escape stages too
    refresh = make_local_bootstrapper(ctx)
    a = ctx.encrypt(ctx.encode([0.8, 0.25, 0.5]))
    b = ctx.encrypt(ctx.encode([0.3, 0.9, 0.5]))
    out = ctx.decode(ctx.ddec(app_max(a, b, spec, ctx, refresh), ctx.parties))
    assert abs(out[0] - 0.8) <= 2.0 ** -20
    assert abs(out[1] - 0.9) <= 2.0 ** -20
    assert out[2] == 0.5  # tie is exact: the sign term multiplies zero


def test_app_abs_value():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    values = np.array([-0.6, 0.45, -1.0, 1.0])
    ct = ctx.encrypt(ctx.encode(values))
    out = ctx.decode(ctx.ddec(
        app_abs(ct, spec, ctx, make_local_bootstrapper(ctx)), ctx.parties))[:4]
    assert np.max(np.abs(out - np.abs(values))) <= 2.0 ** -20


def test_app_relu_matches_plain():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    rng = np.random.default_rng(2)
    values = rng.uniform(-1, 1, ctx.slot_count)
    ct = ctx.encrypt(ctx.encode(values))
    out = ctx.decode(ctx.ddec(
        app_relu(ct, spec, ctx, make_local_bootstrapper(ctx)), ctx.parties))
    assert np.max(np.abs(out - np.maximum(values, 0))) <= 2.0 ** -20


def test_plain_max_oracle_agrees():
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, 1000)
    b = rng.uniform(0, 1, 1000)
    assert np.max(np.abs(plain_max(a, b, spec) - np.maximum(a, b))) <= 2.0 ** -20


def _app_sign_encoding_coeffs(ct, spec, ctx, bootstrap):
    """app_sign with each coefficient plaintext encoded on the spot."""
    out = ct
    for coeffs in spec.schedule:
        m = out if out.level >= stage_depth(spec.d) else bootstrap(out)
        powers = {1: ctx.rescale(ctx.mul_ct(m, m))}
        for j in range(2, spec.d + 1):
            powers[j] = ctx.rescale(ctx.mul_ct(powers[j // 2], powers[j - j // 2]))
        psum = ctx.constant(coeffs[0], m.key_tag)
        for j in range(1, spec.d + 1):
            pt = ctx.encode(np.full(ctx.slot_count, coeffs[j]))
            psum = ctx.add(psum, ctx.rescale(ctx.mul_pt(powers[j], pt)))
        out = ctx.rescale(ctx.mul_ct(m, psum))
    return out


@pytest.mark.parametrize("d, k", [(1, 3), (3, 4), (4, 17), (4, None)])
def test_app_sign_encodes_coefficients_once(d, k, monkeypatch):
    # k = None: the escape-then-sharpen schedule, whose two families are
    # each encoded once.
    ctx = make_ctx()
    spec = (CompositePolySpec.with_depth(d, k) if k else
            CompositePolySpec.for_closeness(d, 20.0, 2.0 ** -20))
    families = len(set(spec.schedule))
    ct = ctx.encrypt(ctx.encode(np.random.default_rng(d).uniform(
        -1, 1, ctx.slot_count)))
    calls = []
    real = engine.CryptoContext.encode
    monkeypatch.setattr(engine.CryptoContext, "encode",
                        lambda self, values: calls.append(1) or real(self, values))
    boot = make_local_bootstrapper(ctx)
    with ctx.meter_scope() as once:
        out = app_sign(ct, spec, ctx, boot)
    assert len(calls) == (d + 1) * families   # the constant c_0 included
    with ctx.meter_scope() as chain:
        want = _app_sign_encoding_coeffs(ct, spec, ctx, boot)
    assert out.slots.tobytes() == want.slots.tobytes()
    assert (out.level, out.scale) == (want.level, want.scale)
    assert once.snapshot() == chain.snapshot()


FAMILIES = ([pytest.param(gd_coefficients(d), id=f"g{d}") for d in range(1, 9)]
            + [pytest.param(escape_coefficients(d), id=f"esc{d}")
               for d in range(1, 5)])


def _stage_chain(ctx, m, pts):
    """The per-op chain that ``odd_poly_stage`` fuses."""
    d = len(pts) - 1
    powers = {1: ctx.rescale(ctx.mul_ct(m, m))}
    for j in range(2, d + 1):
        powers[j] = ctx.rescale(ctx.mul_ct(powers[j // 2], powers[j - j // 2]))
    psum = ctx.encrypt(pts[0], m.key_tag)
    for j in range(1, d + 1):
        psum = ctx.add(psum, ctx.rescale(ctx.mul_pt(powers[j], pts[j])))
    return ctx.rescale(ctx.mul_ct(m, psum))


def _stage_operands(ctx, coeffs, scale):
    values = np.random.default_rng(len(coeffs)).uniform(-1, 1, ctx.slot_count)
    values[:4] = (0.0, -0.0, 1.0, -1.0)
    m = engine.SlotVector(values, stage_depth(len(coeffs) - 1), scale,
                          ctx.context_id, ctx.DEFAULT_KEY)
    return m, tuple(ctx.encode(np.full(ctx.slot_count, c)) for c in coeffs)


@pytest.mark.parametrize("coeffs", FAMILIES)
@pytest.mark.parametrize("mode", ["exact", "gaussian"])
def test_odd_poly_stage_equals_its_chain(coeffs, mode):
    # Half the context scale leaves c_0's scale the largest in the sum;
    # twice it makes the top power's term the largest.
    noise = dict(noise_mode=mode, noise_sigma=1e-3 if mode == "gaussian" else 0.0,
                 noise_seed=11)
    fused_ctx = engine.new_context(512, 6, 2.0 ** 40, 2, **noise)
    chain_ctx = engine.new_context(512, 6, 2.0 ** 40, 2, **noise)
    for scale in (2.0 ** 39, 2.0 ** 41):
        m, pts = _stage_operands(fused_ctx, coeffs, scale)
        with fused_ctx.meter_scope() as fused:
            got = fused_ctx.odd_poly_stage(m, pts)
        m, pts = _stage_operands(chain_ctx, coeffs, scale)
        with chain_ctx.meter_scope() as chain:
            want = _stage_chain(chain_ctx, m, pts)
        assert got.slots.tobytes() == want.slots.tobytes()
        assert (got.level, got.scale, got.key_tag) == (want.level, want.scale,
                                                       want.key_tag)
        assert got.level == 0
        assert fused.snapshot() == chain.snapshot()
        assert not got.slots.flags.writeable
    assert (fused_ctx._rng.bit_generator.state
            == chain_ctx._rng.bit_generator.state)


@pytest.mark.parametrize("case, error", [
    ("level", LevelExhaustedError),
    ("other context", engine.EngineError),
    ("coefficient of another context", engine.EngineError),
    ("unknown key", engine.KeyMismatchError),
    ("slot shape", engine.CapacityError),
    ("no c_1", engine.EngineError),
    ("scale overflow", engine.EngineError),
])
def test_odd_poly_stage_refusal_meters_nothing(case, error):
    ctx = make_ctx()
    m, pts = _stage_operands(ctx, gd_coefficients(4), ctx.initial_scale)
    fields = (m.slots, m.level, m.scale, m.context_id, m.key_tag)
    if case == "level":
        fields = (m.slots, m.level - 1) + fields[2:]
    elif case == "other context":
        fields = fields[:3] + (make_ctx().context_id, m.key_tag)
    elif case == "coefficient of another context":
        pts = pts[:-1] + (make_ctx().encode([1.0]),)
    elif case == "unknown key":
        fields = fields[:4] + ("nobody",)
    elif case == "slot shape":
        fields = (m.slots[:-1],) + fields[1:]
    elif case == "no c_1":
        pts = pts[:1]
    elif case == "scale overflow":
        fields = fields[:2] + (2.0 ** 600,) + fields[3:]
    m = engine.SlotVector(*fields)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.odd_poly_stage(m, pts)
    assert ctx.meter.snapshot() == before


def test_odd_poly_stage_memo_hit_equals_first_call_and_chain():
    ctx = make_ctx()
    m, pts = _stage_operands(ctx, gd_coefficients(4), ctx.initial_scale)
    calls = []
    for _ in range(2):
        with ctx.meter_scope() as scope:
            calls.append((ctx.odd_poly_stage(m, pts), scope.snapshot()))
        assert len(ctx._chains) == 1
    with ctx.meter_scope() as chain:
        want = _stage_chain(ctx, m, pts)
    for got, tally in calls:
        assert got.slots.tobytes() == want.slots.tobytes()
        assert (got.level, got.scale) == (want.level, want.scale)
        assert tally == chain.snapshot()


@pytest.mark.parametrize("case, error", [
    ("level one short", LevelExhaustedError),
    ("scale overflow", engine.EngineError),
])
def test_rejected_odd_poly_stage_stores_and_meters_nothing(case, error):
    ctx = make_ctx()
    m, pts = _stage_operands(ctx, gd_coefficients(4), ctx.initial_scale)
    level, scale = ((m.level - 1, m.scale) if case == "level one short"
                    else (m.level, 2.0 ** 600))
    bad = engine.SlotVector(m.slots, level, scale, m.context_id, m.key_tag)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.odd_poly_stage(bad, pts)
    assert ctx._chains == {}
    assert ctx.meter.snapshot() == before
    assert ctx.odd_poly_stage(m, pts).level == 0
    assert len(ctx._chains) == 1
    assert ctx.meter.mul_ct - before["mul_ct"] == 5


# ------------------------------------------------------ escape-then-sharpen

@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_escape_stage_properties(d):
    x = np.linspace(0.0, 1.0, 1_000_001)
    one_stage = CompositePolySpec(d, 1, float("nan"), float("nan"),
                                  gd_coefficients(d), pd_constant(d), k_escape=1)
    g = eval_composite(x, one_stage)
    assert np.all(g >= 0.0) and np.all(g < 1.0)
    first = int(np.argmax(g >= 0.75))          # x0: the first point reaching 3/4
    assert first > 0
    assert np.all(g[1:first] > x[1:first])
    assert np.all((g[first:] >= 0.748) & (g[first:] < 1.0))
    assert escape_coefficients(d)[0] > pd_constant(d)


def test_escape_table_stops_at_four():
    with pytest.raises(ValueError):
        escape_coefficients(5)
    spec = CompositePolySpec.for_closeness(5, 20.0, 2.0 ** -20)
    assert spec.k_escape == 0 and spec.k == min_depth(5, 20.0, 2.0 ** -20)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("sigma, delta", [(20.0, 2.0 ** -20), (10.0, 2.0 ** -10),
                                          (12.0, 2.0 ** -6)])
def test_schedule_meets_closeness_within_min_depth(d, sigma, delta):
    spec = CompositePolySpec.for_closeness(d, sigma, delta)
    assert spec.k_escape + spec.k_sharpen == spec.k == len(spec.schedule)
    err = np.max(np.abs(eval_composite(closeness_grid(delta), spec) - 1.0))
    assert err <= 2.0 ** -sigma
    assert spec.k <= min_depth(d, sigma, delta)


@pytest.mark.parametrize("d, k", [(1, 23), (2, 15), (3, 12), (4, 10)])
def test_schedule_lengths_at_sigma_20(d, k):
    spec = CompositePolySpec.for_closeness(d, 20.0, 2.0 ** -20)
    assert spec.k == k and spec.k_escape > 0


def test_with_depth_stays_sharpen_only():
    spec = CompositePolySpec.with_depth(4, 17)
    assert (spec.k_escape, spec.k_sharpen) == (0, 17)
    assert spec.schedule == (gd_coefficients(4),) * 17


def test_sign_input_out_of_domain_raises():
    ctx = make_ctx()
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    values = np.zeros(ctx.slot_count)
    values[7] = -1.001
    values[9] = 1.0 + 2.0 ** -21        # inside the 2**-sigma allowance
    ct = ctx.encrypt(ctx.encode(values))
    with pytest.raises(ValueError, match="slot 7"):
        app_sign(ct, spec, ctx, make_local_bootstrapper(ctx))
    with pytest.raises(ValueError, match="slot 7"):
        eval_composite(values, spec)
    with pytest.raises(ValueError, match="slot 7"):
        plain_max(values, np.zeros_like(values), spec)
    with pytest.raises(ValueError, match="slot 0"):
        eval_composite([np.nan], spec)
    relu = PlainActivation(ActivationConfig(kind="approx_relu", input_range=2.0))
    with pytest.raises(ValueError, match="slot 3"):
        relu(np.array([[0.5, -1.0], [1.5, -2.5]]))
    values[7] = 0.0
    assert np.all(np.isfinite(eval_composite(values, spec)))


# -------------------------------------------------------------- interval map

def test_interval_normalize_value():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([2.0]))
    out = interval_normalize(ct, IntervalMap(-4.0, 4.0), ctx)
    assert ctx.decode(ctx.ddec(out, ctx.parties))[0] == 0.75


def test_interval_round_trip():
    ctx = make_ctx()
    rng = np.random.default_rng(4)
    values = rng.uniform(-7, 9, ctx.slot_count)
    imap = IntervalMap(-7.0, 9.0)
    ct = ctx.encrypt(ctx.encode(values))
    back = interval_denormalize(interval_normalize(ct, imap, ctx), imap, ctx)
    got = ctx.decode(ctx.ddec(back, ctx.parties))
    assert np.max(np.abs(got - values)) < 1e-12


def test_interval_unit_is_identity():
    ctx = make_ctx()
    values = np.array([0.1, 0.9, 0.5])
    ct = ctx.encrypt(ctx.encode(values))
    out = interval_normalize(ct, IntervalMap(0.0, 1.0), ctx)
    assert np.allclose(ctx.decode(ctx.ddec(out, ctx.parties))[:3], values,
                       atol=1e-15)


def test_interval_degenerate():
    with pytest.raises(ValueError):
        IntervalMap(1.0, 1.0)


def test_interval_normalize_counts_one_mul_one_add():
    ctx = make_ctx()
    ct = ctx.encrypt(ctx.encode([1.0]))
    with ctx.meter_scope() as scope:
        interval_normalize(ct, IntervalMap(-4.0, 4.0), ctx)
    assert scope.mul_pt == 1 and scope.adds == 1


# --------------------------------------------------------------- smooth fits

def test_sigmoid_fit_center():
    fit = smooth_fit("sigmoid", 7, (-8, 8))
    assert abs(fit(0.0) - 0.5) <= 1e-3
    # the degree-7 minimax floor on [-8, 8] is ~1.9e-2; interpolation lands
    # within a factor ~1.6 of it
    assert fit.max_error <= 3e-2


def test_sigmoid_fit_reaches_centi_precision():
    assert smooth_fit("sigmoid", 11, (-8, 8)).max_error <= 1e-2
    assert smooth_fit("sigmoid", 9, (-6, 6)).max_error <= 1e-2


def test_fit_error_bound_holds_on_fresh_grid():
    fit = smooth_fit("sigmoid", 9, (-6, 6))
    rng = np.random.default_rng(6)
    xs = rng.uniform(-6, 6, 5000)
    err = np.max(np.abs(fit(xs) - 1.0 / (1.0 + np.exp(-xs))))
    assert err <= fit.max_error * 1.01 + 1e-12


def test_degree_one_sigmoid_is_near_linear():
    fit = smooth_fit("sigmoid", 1, (-1, 1))
    assert abs(fit.coeffs[0] - 0.5) <= 0.05
    assert abs(fit.coeffs[1] - 0.25) <= 0.05


def test_unsupported_target():
    with pytest.raises(ValueError):
        smooth_fit("tanh", 5, (-1, 1))


def test_fit_ciphertext_evaluation_matches_plain():
    ctx = make_ctx()
    fit = smooth_fit("sigmoid", 7, (-8, 8))
    rng = np.random.default_rng(7)
    values = rng.uniform(-8, 8, ctx.slot_count)
    ct = ctx.encrypt(ctx.encode(values))
    out = polyval_ct(ct, fit.coeffs, ctx, make_local_bootstrapper(ctx))
    got = ctx.decode(ctx.ddec(out, ctx.parties))
    assert np.max(np.abs(got - polyval_plain(values, fit.coeffs))) < 1e-9
