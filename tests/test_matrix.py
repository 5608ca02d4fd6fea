"""Packed matrix algebra: masks, permutation identity, products, tallies."""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from packedhe import engine, matrix, references
from packedhe.engine import CapacityError, LevelExhaustedError
from packedhe.federated.config import next_pow2
from packedhe.matrix import (apply_permutation, build_permutation, bsgs_split,
                             decode_matrix, encode_matrix, encode_rect_matrix,
                             he_align, he_lin_trans_bsgs, he_mat_mult,
                             he_rect_mat_mult, he_refresh, he_transpose,
                             matmul_rotation_formula, pack_matrices)


def exact_ctx(h, beta=1, level=6, parties=1):
    return engine.new_context(2 * beta * h * h, level, 2.0 ** 40, parties)


def diagonal_lin_trans(ct, spec, beta=1):
    """``spec`` evaluated by one rotation per nonzero diagonal, whatever
    its kind: the second homomorphic reference beside the plans that
    ``he_lin_trans_bsgs`` picks."""
    ctx = engine.context_of(ct.context_id)
    return ctx.lin_trans(ct, matrix._diagonal_plan(spec, beta, ctx.slot_count))


# ----------------------------------------------------- permutation structure

@pytest.mark.parametrize("h", range(2, 17))
def test_diagonal_counts(h):
    assert len(build_permutation("sigma_mu", h).diagonals) == 2 * h - 1
    assert len(build_permutation("tau_zeta", h).diagonals) == h
    assert len(build_permutation("transpose", h).diagonals) == 2 * h - 1
    assert len(build_permutation("tau_transpose", h).diagonals) == 2 * h - 1
    assert len(build_permutation("sigma_transpose", h).diagonals) == h
    for k in range(1, h):
        n_col = len(build_permutation("col_shift", h, k).diagonals)
        assert n_col == 2
        assert len(build_permutation("row_shift", h, k).diagonals) == 1


@pytest.mark.parametrize("kind", ["sigma_mu", "tau_zeta", "transpose"])
@pytest.mark.parametrize("h", [2, 3, 4, 8])
def test_masks_are_binary(kind, h):
    spec = build_permutation(kind, h)
    for mask in spec.diagonals.values():
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert mask.any()


def test_build_permutation_validates_shift():
    with pytest.raises(ValueError):
        build_permutation("col_shift", 4)
    with pytest.raises(ValueError):
        build_permutation("col_shift", 4, 4)
    with pytest.raises(ValueError):
        build_permutation("sigma_mu", 4, 1)
    for period in (0, 3, 8):
        with pytest.raises(ValueError, match="row period"):
            build_permutation("tau_zeta", 4, period)


# --------------------------------------------- worked 3x3 symbolic pipeline

def tokens(h):
    return np.arange(h * h, dtype=np.float64)


def test_worked_example_row_alignment():
    out = apply_permutation(build_permutation("sigma_mu", 3), tokens(3))
    assert out.astype(int).tolist() == [0, 1, 2, 4, 5, 3, 8, 6, 7]


def test_worked_example_col_alignment():
    out = apply_permutation(build_permutation("tau_zeta", 3), tokens(3))
    assert out.astype(int).tolist() == [0, 4, 8, 3, 7, 2, 6, 1, 5]


def test_worked_example_row_alignment_masks():
    diag = build_permutation("sigma_mu", 3).diagonals
    assert diag[-2].astype(int).tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0]
    assert diag[-1].astype(int).tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 1]
    assert diag[0].astype(int).tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0]
    assert diag[1].astype(int).tolist() == [0, 0, 0, 1, 1, 0, 0, 0, 0]
    assert diag[2].astype(int).tolist() == [0, 0, 0, 0, 0, 0, 1, 0, 0]


def test_worked_example_col_alignment_masks():
    diag = build_permutation("tau_zeta", 3).diagonals
    assert diag[0].astype(int).tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0]
    assert diag[3].astype(int).tolist() == [0, 1, 0, 0, 1, 0, 0, 1, 0]
    assert diag[6].astype(int).tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1]


def test_worked_example_shift_masks():
    v1 = build_permutation("col_shift", 3, 1).diagonals
    assert v1[1].astype(int).tolist() == [1, 1, 0, 1, 1, 0, 1, 1, 0]
    assert v1[-2].astype(int).tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1]
    v2 = build_permutation("col_shift", 3, 2).diagonals
    assert v2[2].astype(int).tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0]
    assert v2[-1].astype(int).tolist() == [0, 1, 1, 0, 1, 1, 0, 1, 1]
    p1 = build_permutation("row_shift", 3, 1).diagonals
    assert p1[3].astype(int).tolist() == [1] * 9
    p2 = build_permutation("row_shift", 3, 2).diagonals
    assert p2[6].astype(int).tolist() == [1] * 9


def test_worked_example_shifted_matrices():
    sigma = apply_permutation(build_permutation("sigma_mu", 3), tokens(3))
    tau = apply_permutation(build_permutation("tau_zeta", 3), tokens(3))
    shift_a1 = apply_permutation(build_permutation("col_shift", 3, 1), sigma)
    shift_a2 = apply_permutation(build_permutation("col_shift", 3, 2), sigma)
    shift_b1 = apply_permutation(build_permutation("row_shift", 3, 1), tau)
    shift_b2 = apply_permutation(build_permutation("row_shift", 3, 2), tau)
    assert shift_a1.astype(int).tolist() == [1, 2, 0, 5, 3, 4, 6, 7, 8]
    assert shift_a2.astype(int).tolist() == [2, 0, 1, 3, 4, 5, 7, 8, 6]
    assert shift_b1.astype(int).tolist() == [3, 7, 2, 6, 1, 5, 0, 4, 8]
    assert shift_b2.astype(int).tolist() == [6, 1, 5, 0, 4, 8, 3, 7, 2]


def test_worked_example_on_engine_row_alignment():
    # The row-diagonal alignment never wraps the window, so it also runs on a
    # 16-slot engine vector for the 3x3 example.
    ctx = engine.new_context(32)
    ct = ctx.encrypt(ctx.encode(tokens(3)))
    out = diagonal_lin_trans(ct, build_permutation("sigma_mu", 3))
    got = ctx.decode(ctx.ddec(out, ctx.parties))[:9]
    assert got.astype(int).tolist() == [0, 1, 2, 4, 5, 3, 8, 6, 7]


# --------------------------------------------------- permutation identity

def mu(a):
    h = a.shape[0]
    return np.array([[a[i, (i + j) % h] for j in range(h)] for i in range(h)])


def zeta(a):
    h = a.shape[0]
    return np.array([[a[(i + j) % h, j] for j in range(h)] for i in range(h)])


def phi(a, k):
    return np.roll(a, -k, axis=1)


def pi(a, k):
    return np.roll(a, -k, axis=0)


@pytest.mark.parametrize("h", [2, 3, 4, 5, 8])
def test_product_as_masked_permutations(h):
    rng = np.random.default_rng(h)
    for _ in range(5):
        a = rng.integers(-5, 6, size=(h, h)).astype(float)
        b = rng.integers(-5, 6, size=(h, h)).astype(float)
        total = np.zeros((h, h))
        for k in range(h):
            total += phi(mu(a), k) * pi(zeta(b), k)
        assert np.array_equal(total, a @ b)


@pytest.mark.parametrize("h", [2, 3, 4, 8])
def test_permutation_specs_match_dense_maps(h):
    rng = np.random.default_rng(h + 100)
    a = rng.standard_normal((h, h))
    vec = a.ravel()
    assert np.allclose(
        apply_permutation(build_permutation("sigma_mu", h), vec),
        mu(a).ravel())
    assert np.allclose(
        apply_permutation(build_permutation("tau_zeta", h), vec),
        zeta(a).ravel())
    assert np.allclose(
        apply_permutation(build_permutation("transpose", h), vec),
        a.T.ravel())
    for k in range(1, h):
        assert np.allclose(
            apply_permutation(build_permutation("col_shift", h, k), vec),
            phi(a, k).ravel())
        assert np.allclose(
            apply_permutation(build_permutation("row_shift", h, k), vec),
            pi(a, k).ravel())


@pytest.mark.parametrize("h", range(2, 17))
def test_offsets_follow_the_index_maps(h):
    # Output slot t reads input slot src[t]: the offset is src[t] - t, taken
    # mod h*h for the two kinds that wrap the window.
    n = h * h
    a = np.arange(n).reshape(h, h)
    i, j = np.divmod(np.arange(n), h)
    dense = {("sigma_mu", None): mu(a), ("tau_zeta", None): zeta(a),
             ("transpose", None): a.T,
             ("tau_transpose", None): a[-i % h, (i + j) % h].reshape(h, h),
             ("sigma_transpose", None): a[(i + j) % h, -j % h].reshape(h, h)}
    for k in range(1, h):
        dense[("col_shift", k)] = phi(a, k)
        dense[("row_shift", k)] = pi(a, k)
    for (kind, k), image in dense.items():
        spec = build_permutation(kind, h, k)
        want = image.ravel() - np.arange(n)
        if spec.wraps_window:
            want %= n
        assert np.array_equal(spec.offsets, want), (kind, k)
        assert spec.offsets.shape == (n,) and not spec.offsets.flags.writeable


# ----------------------------------------------------------- linear transform

@pytest.mark.parametrize("kind", ["sigma_mu", "tau_zeta", "transpose"])
def test_lin_trans_matches_plain_and_rotation_count(kind):
    h = 8
    ctx = exact_ctx(h)
    rng = np.random.default_rng(17)
    spec = build_permutation(kind, h)
    vec = rng.standard_normal(h * h)
    ct = ctx.encrypt(ctx.encode(vec))
    with ctx.meter_scope() as scope:
        out = diagonal_lin_trans(ct, spec)
    got = ctx.decode(ctx.ddec(out, ctx.parties))[: h * h]
    assert np.allclose(got, apply_permutation(spec, vec), atol=1e-9)
    expected_rot = len(spec.diagonals) - (1 if 0 in spec.diagonals else 0)
    assert scope.rotations == expected_rot


def test_lin_trans_identity_spec():
    h = 4
    ctx = exact_ctx(h)
    vec = np.arange(h * h, dtype=float)
    ct = ctx.encrypt(ctx.encode(vec))
    spec = matrix.PermutationSpec("sigma_mu", h, None,
                                  np.zeros(h * h, dtype=int))
    out = diagonal_lin_trans(ct, spec)
    got = ctx.decode(ctx.ddec(out, ctx.parties))[: h * h]
    assert np.array_equal(got, vec)


def test_lin_trans_wrapping_requires_exact_fit():
    ctx = engine.new_context(2 ** 8)  # 128 slots
    ct = ctx.encrypt(ctx.encode(np.arange(16.0)))
    with pytest.raises(CapacityError):
        he_lin_trans_bsgs(ct, build_permutation("tau_zeta", 4))


@pytest.mark.parametrize("kind,h", [("sigma_mu", 16), ("tau_zeta", 16),
                                    ("transpose", 16), ("sigma_mu", 4),
                                    ("tau_zeta", 64), ("transpose", 8),
                                    ("tau_transpose", 16),
                                    ("tau_transpose", 64),
                                    ("sigma_transpose", 16),
                                    ("sigma_transpose", 64)])
def test_bsgs_equals_plain_path(kind, h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h * 7)
    spec = build_permutation(kind, h)
    repeats = 200 if h <= 16 else 10
    for _ in range(repeats):
        vec = rng.standard_normal(h * h)
        ct = ctx.encrypt(ctx.encode(vec))
        a = diagonal_lin_trans(ct, spec)
        b = he_lin_trans_bsgs(ct, spec)
        assert np.array_equal(a.slots, b.slots)


def test_bsgs_rotation_ceilings():
    cases = {
        ("sigma_mu", 16): 12,
        ("tau_zeta", 16): 8,
        ("transpose", 16): 12,
        ("tau_zeta", 64): 16,
        ("sigma_mu", 64): 24,
        ("transpose", 64): 24,
        ("tau_transpose", 16): 12,
        ("tau_transpose", 64): 24,
        ("sigma_transpose", 16): 8,
        ("sigma_transpose", 64): 16,
    }
    for (kind, h), ceiling in cases.items():
        ctx = exact_ctx(h)
        ct = ctx.encrypt(ctx.encode(np.arange(h * h, dtype=float)))
        spec = build_permutation(kind, h)
        with ctx.meter_scope() as scope:
            he_lin_trans_bsgs(ct, spec)
        assert scope.rotations <= ceiling, (kind, h, scope.rotations)


@pytest.mark.parametrize("h", [2, 3, 4, 8, 16, 64])
def test_tau_transpose_takes_tau_of_w_to_tau_of_its_transpose(h):
    w = np.random.default_rng(h).standard_normal((h, h))
    tau = build_permutation("tau_zeta", h)
    got = apply_permutation(build_permutation("tau_transpose", h),
                            apply_permutation(tau, w))
    assert got.tobytes() == apply_permutation(tau, w.T).tobytes()


@pytest.mark.parametrize("h", [2, 3, 4, 8, 16, 64])
def test_sigma_transpose_takes_sigma_of_x_to_sigma_of_its_transpose(h):
    # sigma_transpose(sigma_mu(X)) = sigma_mu(X.T), bit for bit, in the clear
    # and, where h*h slots make a context, on a ciphertext: one level, h
    # diagonals as bsgs_split(h) baby offsets (h-2)*b, one giant step per
    # giant and one unrotated step for column 0.
    rng = np.random.default_rng(h)
    sigma, st = (build_permutation(kind, h) for kind in
                 ("sigma_mu", "sigma_transpose"))
    for x in (rng.standard_normal((h, h)), np.eye(h),
              np.arange(h * h, dtype=float).reshape(h, h)):
        want = apply_permutation(sigma, x.T)
        assert apply_permutation(st, apply_permutation(sigma, x)).tobytes() \
            == want.tobytes()
        if h & (h - 1) == 0:
            ctx = exact_ctx(h)
            formed = encode_matrix(x, ctx, form="sigma_mu")
            with ctx.meter_scope() as scope:
                ct = ctx.rescale(he_lin_trans_bsgs(formed.ct, st))
            assert ctx.decode(ctx.ddec(ct, ctx.parties)).tobytes() == \
                want.tobytes()
            assert ct.level == formed.ct.level - 1
            baby, giant = bsgs_split(h)
            assert (scope.rotations, scope.mul_pt) == \
                (baby + giant, baby * (giant + 1))
    if h in (16, 64):
        assert (scope.rotations, scope.mul_pt) == {16: (8, 20),
                                                   64: (16, 72)}[h]


@pytest.mark.parametrize("h", [2, 4, 8, 16, 64])
def test_row_periodic_tau_is_the_tau_of_a_stacked_image(h):
    # A stacked image repeats its t rows h/t times, so the t-diagonal
    # tau_zeta gives the bytes of the h-diagonal one, in the clear and on a
    # ciphertext, where he_align takes it for bsgs_split(t) rotations and t
    # mul_pt (the full plan at t = h).
    tau = build_permutation("tau_zeta", h)
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    for t in _divisors(h):
        rows = rng.standard_normal((t, h))
        stacked = np.tile(rows, (h // t, 1))
        want = apply_permutation(tau, stacked)
        periodic = build_permutation("tau_zeta", h, t)
        assert len(periodic.diagonals) == t
        assert apply_permutation(periodic, stacked).tobytes() == want.tobytes()
        ct = encode_rect_matrix(rows, ctx).ct
        for transform in (diagonal_lin_trans, he_lin_trans_bsgs):
            got = ctx.decode(ctx.ddec(transform(ct, periodic), ctx.parties))
            assert got.tobytes() == want.tobytes()
        with ctx.meter_scope() as scope:
            aligned = he_align(encode_rect_matrix(rows, ctx), "tau_zeta")
        assert ctx.decode(ctx.ddec(aligned.ct, ctx.parties)).tobytes() == \
            want.tobytes()
        baby, giant = bsgs_split(t)
        assert (scope.rotations, scope.mul_pt) == (baby + giant, t)


@pytest.mark.parametrize("h", [2, 3, 4, 8, 16, 64])
def test_transpose_of_tau_is_sigma_of_the_transpose(h):
    # sigma_mu(X.T) = T(tau_zeta(X)), bit for bit, in the clear and, where
    # h*h slots make a context, on a ciphertext: a left factor of
    # he_mat_mult's transposed left factor can be built so.
    rng = np.random.default_rng(h)
    tau, sigma, transpose = (build_permutation(kind, h) for kind in
                             ("tau_zeta", "sigma_mu", "transpose"))
    for x in (rng.standard_normal((h, h)), np.eye(h),
              np.arange(h * h, dtype=float).reshape(h, h)):
        want = apply_permutation(sigma, x.T)
        got = apply_permutation(transpose, apply_permutation(tau, x))
        assert got.tobytes() == want.tobytes()
        if h & (h - 1) == 0:
            ctx = exact_ctx(h)
            ct = he_lin_trans_bsgs(he_align(encode_matrix(x, ctx),
                                            "tau_zeta").ct, transpose)
            assert ctx.decode(ctx.ddec(ct, ctx.parties)).tobytes() == \
                want.tobytes()


def test_square_operands_keep_the_full_tau_plan():
    # Only a stacked image takes the row-periodic plan: a square one, an
    # h x h rectangular image included, keeps h diagonals, and so does
    # he_rect_mat_mult's square right factor (he_mat_mult's 232 rotations
    # at h = 64 are test_matmul_rotations_identity_h64's).
    h, t = 64, 16
    ctx = exact_ctx(h)
    square = encode_matrix(np.eye(h), ctx)
    for pm in (square, encode_rect_matrix(np.eye(h), ctx)):
        with ctx.meter_scope() as scope:
            he_align(pm, "tau_zeta")
        assert (scope.rotations, scope.mul_pt) == (16, 64)
    rows = np.random.default_rng(3).standard_normal((t, h))
    with ctx.meter_scope() as formed:
        he_rect_mat_mult(encode_rect_matrix(rows, ctx, form="sigma_mu"),
                         square)
    assert (formed.rotations, formed.mul_pt) == (16 + 3 * t + 2, 64 + t)


def test_packed_matrix_refuses_a_row_count_that_does_not_divide_h():
    ctx = exact_ctx(8)
    ct = encode_matrix(np.eye(8), ctx).ct
    for rows in (0, -2, 3, 16):
        with pytest.raises(CapacityError, match="must divide"):
            matrix.PackedMatrix(ct, 8, rows, 1)
    assert matrix.PackedMatrix(ct, 8, 2, 1).rows_t == 2


def test_bsgs_beats_plain_rotations_h16():
    h = 16
    ctx = exact_ctx(h)
    ct = ctx.encrypt(ctx.encode(np.arange(h * h, dtype=float)))
    spec = build_permutation("sigma_mu", h)
    with ctx.meter_scope() as plain:
        diagonal_lin_trans(ct, spec)
    with ctx.meter_scope() as fast:
        he_lin_trans_bsgs(ct, spec)
    assert fast.rotations <= 12 < plain.rotations


# ------------------------------------------------------------ cached masks

def _spec_cases(h):
    for kind in matrix.PERMUTATION_KINDS:
        if kind in ("col_shift", "row_shift"):
            for k in (1, h - 1):
                yield build_permutation(kind, h, k)
        else:
            yield build_permutation(kind, h)
        if kind == "tau_zeta":
            for t in _divisors(h)[:-1]:
                yield build_permutation(kind, h, t)


def _divisors(h):
    return [t for t in range(1, h + 1) if h % t == 0]


def _expected_tallies(spec, bsgs):
    # A row-periodic tau_zeta splits its period, every other kind h.
    # sigma_transpose adds an unrotated step for its column 0.
    if bsgs and spec.kind in ("sigma_mu", "tau_zeta", "transpose",
                              "tau_transpose", "sigma_transpose"):
        baby, giant = bsgs_split(spec.shift or spec.dim_h)
        if spec.kind == "sigma_transpose":
            return baby + giant, baby * (giant + 1)
        giants = giant if spec.kind == "tau_zeta" else 2 * giant
        return baby + giants, baby * giants
    n_diag = len(spec.diagonals)
    return n_diag - (1 if 0 in spec.diagonals else 0), n_diag


def _check_transforms(ctx, spec, beta, rng):
    n_win = spec.dim_h * spec.dim_h
    vecs = rng.standard_normal((beta, n_win))
    window = np.zeros(beta * n_win)
    for b in range(beta):
        window[b::beta] = vecs[b]
    ct = ctx.encrypt(ctx.encode(window))
    for bsgs, fn in ((False, diagonal_lin_trans), (True, he_lin_trans_bsgs)):
        with ctx.meter_scope() as scope:
            out = fn(ct, spec, beta)
        got = ctx.decode(ctx.ddec(out, ctx.parties))
        for b in range(beta):
            expect = apply_permutation(spec, vecs[b])
            assert np.array_equal(got[: beta * n_win][b::beta], expect)
        assert np.all(got[beta * n_win:] == 0)
        assert (scope.rotations, scope.mul_pt) == _expected_tallies(spec, bsgs)


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("h", [4, 16, 64])
def test_cached_transforms_match_plain_oracle(h, beta):
    ctx = exact_ctx(h, beta=beta)
    rng = np.random.default_rng(h * 10 + beta)
    for spec in _spec_cases(h):
        _check_transforms(ctx, spec, beta, rng)


def test_cached_transpose_in_larger_context():
    ctx = engine.new_context(2 * 4 * 64)  # 256 slots
    rng = np.random.default_rng(21)
    for beta in (1, 2):
        _check_transforms(ctx, build_permutation("transpose", 4), beta, rng)


def test_cached_masks_take_each_context_scale(monkeypatch):
    h = 4
    spec = build_permutation("sigma_mu", h)
    a = np.arange(h * h, dtype=float).reshape(h, h)
    built = []
    for scale in (2.0 ** 40, 2.0 ** 30):
        ctx = engine.new_context(2 * h * h, 6, scale)
        ct = ctx.encrypt(ctx.encode(a.ravel()))
        out = he_lin_trans_bsgs(ct, spec)
        assert out.scale == scale * scale
        prod = he_mat_mult(encode_matrix(a, ctx), encode_matrix(a, ctx))
        assert prod.ct.scale == scale
        assert np.allclose(decode_matrix(prod), a @ a, atol=1e-9)
        # From here on, every label vector must come from a plan the first
        # context built.
        real = matrix._expand
        monkeypatch.setattr(matrix, "_expand", lambda *args:
                            built.append(args) or real(*args))
    assert built == []


def test_cached_masks_live_with_their_spec():
    h = 4
    ctx = exact_ctx(h)
    ct = ctx.encrypt(ctx.encode(np.arange(h * h, dtype=float)))
    spec = matrix.PermutationSpec("sigma_mu", h, None,
                                  np.zeros(h * h, dtype=int))
    diagonal_lin_trans(ct, spec)
    assert len(spec.tables) == 1
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_malformed_specs_are_refused_before_any_tally():
    h = 4
    with pytest.raises(engine.EngineError, match="ints"):
        matrix.PermutationSpec("sigma_mu", h, None, np.zeros(h * h))
    with pytest.raises(engine.EngineError, match="ints"):
        matrix.PermutationSpec("sigma_mu", h, None, np.zeros(h * h, dtype=bool))
    for shape in ((h * h - 1,), (h, h), ()):
        with pytest.raises(engine.EngineError, match="shape"):
            matrix.PermutationSpec("sigma_mu", h, None,
                                   np.zeros(shape, dtype=int))
    ctx = exact_ctx(h)
    ct = ctx.encrypt(ctx.encode(np.arange(h * h, dtype=float)))
    before = ctx.meter.snapshot()
    # Offsets the giant steps of each kind cannot reach, and a tau_zeta
    # offset that is not a multiple of its unit h.
    for kind, bad in (("sigma_mu", 2 * h), ("sigma_mu", -2 * h - 1),
                      ("transpose", (h - 1) * 2 * h), ("transpose", 1),
                      ("tau_zeta", 1), ("tau_zeta", -h),
                      ("sigma_transpose", 1), ("sigma_transpose", h - 2)):
        offsets = np.zeros(h * h, dtype=int)
        offsets[5] = bad
        spec = matrix.PermutationSpec(kind, h, None, offsets)
        with pytest.raises(engine.EngineError, match="offsets must be"):
            he_lin_trans_bsgs(ct, spec)
        assert spec.tables == {}
    assert ctx.meter.snapshot() == before


def test_spec_keeps_a_read_only_copy_of_its_offsets():
    h = 4
    offsets = np.zeros(h * h, dtype=int)
    spec = matrix.PermutationSpec("sigma_mu", h, None, offsets)
    offsets[0] = 1
    assert not spec.offsets.any()
    with pytest.raises(ValueError):
        spec.offsets[0] = 1
    twin = matrix.PermutationSpec("sigma_mu", h, None, spec.offsets)
    assert spec == spec and spec != twin and len({spec, twin}) == 2


def test_labels_name_the_mask_of_each_slot():
    assert matrix._expand(np.array([0, -1, 1, 0]), 2, 10).tolist() == \
        [0, 0, -1, -1, 1, 1, 0, 0, -1, -1]
    # Both plans send window slot w of batch position b to the input slot
    # that the offset of w names, and select nothing past the window.  A
    # tau_transpose plan holds its offsets only mod the window, in the
    # exact-fit packing that its transform demands.
    h = 4
    for beta in (1, 2):
        for spec in _spec_cases(h):
            n = beta * h * h * (1 if spec.kind == "tau_transpose" else 2)
            s = np.arange(beta * h * h)
            want = (s + beta * spec.offsets[s // beta]) % n
            plans = [matrix._diagonal_plan(spec, beta, n)]
            if spec.kind in ("sigma_mu", "tau_zeta", "transpose",
                             "tau_transpose", "sigma_transpose"):
                plans.append(matrix._bsgs_plan(spec, beta, n))
            for plan in plans:
                assert plan.selected.tolist() == [True] * s.size + \
                    [False] * (n - s.size)
                assert np.array_equal(plan.idx[s], want)


def test_matrix_ops_do_not_keep_their_context_alive():
    ctx = exact_ctx(4)
    pm = encode_matrix(np.eye(4), ctx)
    assert matrix._ctx_of(pm) is ctx
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None
    with pytest.raises(engine.EngineError, match="not alive"):
        matrix._ctx_of(pm)
    with pytest.raises(engine.EngineError):
        he_transpose(pm)


def test_cached_masks_are_read_only():
    h, n = 4, 16
    spec = build_permutation("transpose", h)
    shift = build_permutation("col_shift", h, 1)
    plans = [matrix._bsgs_plan(spec, 1, n), matrix._diagonal_plan(spec, 1, n),
             matrix._diagonal_plan(shift, 1, n)]
    for arr in [spec.offsets] + [plan.selected for plan in plans]:
        with pytest.raises(ValueError):
            arr[0] = 1
    assert all(plan.selected.dtype == bool for plan in plans)
    for plan in plans:
        with pytest.raises(ValueError):
            plan.idx[0] = 1
        with pytest.raises(AttributeError):
            plan.idx = None


# ----------------------------------------------------------- fused transform

def _expand(mask, beta, slot_count):
    """The bool slot row of one window mask: each window slot repeated
    ``beta`` times, padded with False to ``slot_count``."""
    row = np.zeros(slot_count, dtype=bool)
    row[: mask.size * beta] = np.repeat(mask, beta)
    return row


def _masked_sum(ctx, terms, rows):
    """Sum of ``mul_pt(terms[j], encode(rows[j]))``, one engine op each.

    The chain is metered as it runs, but the slots come by masked copy: a
    slot that row j selects holds ``terms[j]``'s value bit for bit and every
    other slot is +0.0.  The chain gives +-0.0 there, or NaN for an inf term.
    """
    acc = None
    with np.errstate(invalid="ignore"):  # inf * 0 in the unselected slots
        for ct, row in zip(terms, rows):
            part = ctx.mul_pt(ct, ctx.encode(row))
            acc = part if acc is None else ctx.add(acc, part)
    slots = np.zeros(ctx.slot_count)
    for ct, row in zip(terms, rows):
        np.copyto(slots, ct.slots, where=row)
    return engine.SlotVector(slots, acc.level, acc.scale, acc.context_id,
                             acc.key_tag)


def _bsgs_chain(ctx, ct, spec, beta):
    """The BSGS transform one engine call per op, as it ran before fusion:
    shared baby rotations, then per giant step a masked sum and a rotation."""
    n, h = ctx.slot_count, spec.dim_h
    baby, giant = bsgs_split(h)
    unit = {"tau_zeta": h, "transpose": h - 1,
            "tau_transpose": (h - 1) ** 2}.get(spec.kind, 1)
    giants = range(giant) if spec.kind == "tau_zeta" else range(-giant, giant)
    baby_rots = [ctx.rot(ct, k) for k in range(0, beta * unit * baby, beta * unit)]

    def term(m):  # a tau_transpose offset is unit * m mod the window only
        return m * unit % (h * h) if spec.kind == "tau_transpose" else m * unit
    acc = None
    for i in giants:
        gshift = beta * unit * baby * i
        rows = [np.roll(_expand(spec.offsets == term(baby * i + j), beta, n),
                        gshift % n)
                for j in range(baby)]
        part = _masked_sum(ctx, baby_rots, rows)
        shifted = ctx.rot(part, gshift)
        acc = shifted if acc is None else ctx.add(acc, shifted)
    return acc


def _diagonal_chain(ctx, ct, spec, beta):
    """One rotation per nonzero diagonal and one masked sum."""
    offsets = sorted(spec.diagonals)
    rows = [_expand(spec.diagonals[offset], beta, ctx.slot_count)
            for offset in offsets]
    rotated = [ct if offset == 0 else ctx.rot(ct, beta * offset)
               for offset in offsets]
    return _masked_sum(ctx, rotated, rows)


def _transform_operand(h, beta, mode, slot_count):
    """Context and a packed input with a -0.0 row, a zero column and one inf.

    The ciphertext is built by hand so that gaussian encryption noise does
    not wash out the signed zeros.
    """
    ctx = engine.new_context(
        2 * slot_count, 6, 2.0 ** 40, 1, mode,
        noise_sigma=1e-6 if mode == "gaussian" else 0.0, noise_seed=h)
    rng = np.random.default_rng(h + beta)
    slots = np.zeros(slot_count)
    for b in range(beta):
        m = rng.uniform(-3, 3, (h, h))
        m[1, :] = -0.0
        m[:, 0] = 0.0
        m[0, h - 1] = np.inf
        slots[b:beta * h * h:beta] = m.ravel()
    slots.setflags(write=False)
    return ctx, engine.SlotVector(slots, 6, ctx.initial_scale, ctx.context_id,
                                  ctx.DEFAULT_KEY)


def _assert_same_as_chain(ctx, ct, fused_fn, chain_fn):
    noise = ctx._rng.bit_generator.state
    with ctx.meter_scope() as fused:
        got = fused_fn()
    assert ctx._rng.bit_generator.state == noise
    with ctx.meter_scope() as chain:
        want = chain_fn()
    assert got.slots.tobytes() == want.slots.tobytes()
    assert (got.level, got.scale, got.key_tag) == (want.level, want.scale,
                                                   want.key_tag)
    assert fused.snapshot() == chain.snapshot()
    return fused


_LARGER = "transpose-in-larger-context"


@pytest.mark.parametrize("mode", ["exact", "gaussian"])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("h", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["sigma_mu", "tau_zeta", "transpose",
                                  "tau_transpose", _LARGER])
def test_lin_trans_equals_bsgs_chain(kind, h, beta, mode):
    slot_count = beta * h * h * (2 if kind == _LARGER else 1)
    kind = "transpose" if kind == _LARGER else kind
    ctx, ct = _transform_operand(h, beta, mode, slot_count)
    spec = build_permutation(kind, h)
    fused = _assert_same_as_chain(
        ctx, ct, lambda: he_lin_trans_bsgs(ct, spec, beta),
        lambda: _bsgs_chain(ctx, ct, spec, beta))
    if h == 64 and kind == "sigma_mu":
        assert (fused.rotations, fused.mul_pt, fused.adds) == (24, 128, 127)


@pytest.mark.parametrize("mode", ["exact", "gaussian"])
@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("h", [2, 4, 16, 64])
@pytest.mark.parametrize("kind", ["col_shift", "row_shift", "sigma_mu",
                                  "transpose"])
def test_lin_trans_equals_diagonal_chain(kind, h, beta, mode):
    ctx, ct = _transform_operand(h, beta, mode, beta * h * h)
    ks = (1, h - 1) if kind in ("col_shift", "row_shift") else (None,)
    for k in ks:
        spec = build_permutation(kind, h, k)
        _assert_same_as_chain(ctx, ct, lambda: diagonal_lin_trans(ct, spec, beta),
                              lambda: _diagonal_chain(ctx, ct, spec, beta))


# ------------------------------------------------------------ encode/decode

def test_encode_matrix_layout():
    ctx = exact_ctx(2)
    pm = encode_matrix([[1, 2], [3, 4]], ctx)
    slots = ctx.decode(ctx.ddec(pm.ct, ctx.parties))
    assert slots.tolist() == [1, 2, 3, 4]


def test_encode_matrix_trailing_zeros_in_larger_context():
    ctx = engine.new_context(64)
    pm = encode_matrix([[1, 2], [3, 4]], ctx)
    slots = ctx.decode(ctx.ddec(pm.ct, ctx.parties))
    assert slots[:4].tolist() == [1, 2, 3, 4]
    assert np.all(slots[4:] == 0)


def test_encode_decode_round_trip_random():
    ctx = exact_ctx(8)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    assert np.array_equal(decode_matrix(encode_matrix(a, ctx)), a)


def test_encode_matrix_capacity():
    ctx = exact_ctx(8)  # 128 slots
    with pytest.raises(CapacityError):
        encode_matrix(np.zeros((16, 16)), ctx)
    with pytest.raises(CapacityError):
        encode_matrix(np.zeros((3, 4)), ctx)


def test_h64_exact_fit_in_4096_slots():
    ctx = exact_ctx(64)
    assert ctx.slot_count == 4096
    pm = encode_matrix(np.eye(64), ctx)
    assert pm.window == ctx.slot_count and pm.batch_beta == 1


# ------------------------------------------------------------ matrix product

def test_matmul_two_by_two():
    ctx = exact_ctx(2)
    pa = encode_matrix([[1, 2], [3, 4]], ctx)
    pb = encode_matrix([[5, 6], [7, 8]], ctx)
    out = decode_matrix(he_mat_mult(pa, pb))
    assert np.allclose(out, [[19, 22], [43, 50]])


@pytest.mark.parametrize("h", [2, 4, 8])
def test_matmul_identity(h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    b = rng.standard_normal((h, h))
    out = decode_matrix(he_mat_mult(encode_matrix(np.eye(h), ctx),
                                    encode_matrix(b, ctx)))
    assert np.allclose(out, b, atol=1e-9)


@pytest.mark.parametrize("h", [2, 4, 8, 16])
def test_matmul_random_oracle(h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h * 3)
    for _ in range(20):
        a = rng.uniform(-10, 10, (h, h))
        b = rng.uniform(-10, 10, (h, h))
        got = decode_matrix(he_mat_mult(encode_matrix(a, ctx),
                                        encode_matrix(b, ctx)))
        tol = 1e-9 * h * max(np.max(np.abs(a)), np.max(np.abs(b))) ** 2
        assert np.max(np.abs(got - a @ b)) <= tol


@pytest.mark.parametrize("h", [4, 16, 64])
def test_matmul_op_count_ceilings(h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(1)
    pa = encode_matrix(rng.standard_normal((h, h)), ctx)
    pb = encode_matrix(rng.standard_normal((h, h)), ctx)
    with ctx.meter_scope() as scope:
        he_mat_mult(pa, pb)
    root = int(np.sqrt(h))
    assert scope.rotations <= 3 * h + 5 * root
    assert scope.mul_pt <= 4 * h
    assert scope.adds + scope.subs <= 6 * h
    assert scope.mul_ct == h
    assert scope.rotations == matmul_rotation_formula(h)


def test_matmul_rotations_identity_h64():
    ctx = exact_ctx(64)
    pa = encode_matrix(np.eye(64), ctx)
    with ctx.meter_scope() as scope:
        he_mat_mult(pa, pa)
    assert scope.rotations == 232


def test_matmul_level_and_scale_contract():
    ctx = exact_ctx(4)
    pa = encode_matrix(np.eye(4), ctx)
    out = he_mat_mult(pa, pa)
    assert out.ct.level == ctx.initial_level - 3
    assert out.ct.scale == ctx.initial_scale


def test_matmul_insufficient_level():
    ctx = exact_ctx(4, level=2)
    pa = encode_matrix(np.eye(4), ctx)
    with pytest.raises(LevelExhaustedError):
        he_mat_mult(pa, pa)


def test_matmul_requires_exact_fit():
    ctx = engine.new_context(256)  # 128 slots
    pa = encode_matrix(np.eye(4), ctx)
    with pytest.raises(CapacityError):
        he_mat_mult(pa, pa)


def test_matmul_dimension_mismatch():
    ctx = exact_ctx(4)
    pa = encode_matrix(np.eye(4), ctx)
    ctx2 = exact_ctx(8)
    pb = encode_matrix(np.eye(8), ctx2)
    with pytest.raises(CapacityError):
        he_mat_mult(pa, pb)


def _he_mat_mult_encoding_masks(a, b):
    """he_mat_mult with each stage mask built and encoded on the spot."""
    ctx = matrix._ctx_of(a)
    h, beta = a.dim_h, a.batch_beta
    a0 = ctx.rescale(he_lin_trans_bsgs(a.ct, build_permutation("sigma_mu", h), beta))
    b0 = ctx.rescale(he_lin_trans_bsgs(b.ct, build_permutation("tau_zeta", h), beta))
    acc = None
    for k in range(h):
        pre = np.repeat(np.arange(h * h) % h >= k, beta).astype(np.float64)
        masked = ctx.rescale(ctx.mul_pt(a0, ctx.encode(pre)))
        a_k = ctx.add(ctx.rot(masked, beta * k),
                      ctx.rot(ctx.sub(a0, masked), beta * (k - h)))
        prod = ctx.mul_ct(a_k, ctx.rot(b0, beta * h * k))
        acc = prod if acc is None else ctx.add(acc, prod)
    return ctx.rescale(acc)


@pytest.mark.parametrize("h, beta", [(4, 1), (4, 2), (8, 1), (16, 1)])
def test_matmul_encodes_nothing_and_matches_encoding_chain(h, beta, monkeypatch):
    ctx = exact_ctx(h, beta)
    rng = np.random.default_rng(h + beta)
    pa = pack_matrices([rng.uniform(-10, 10, (h, h)) for _ in range(beta)], ctx)
    pb = pack_matrices([rng.uniform(-10, 10, (h, h)) for _ in range(beta)], ctx)
    calls = []
    real = engine.CryptoContext.encode
    monkeypatch.setattr(engine.CryptoContext, "encode",
                        lambda self, values: calls.append(1) or real(self, values))
    with ctx.meter_scope() as fused:
        out = he_mat_mult(pa, pb).ct
    assert len(calls) == 0
    with ctx.meter_scope() as chain:
        want = _he_mat_mult_encoding_masks(pa, pb)
    assert len(calls) == h
    assert out.slots.tobytes() == want.slots.tobytes()
    assert (out.level, out.scale, out.key_tag) == (want.level, want.scale,
                                                   want.key_tag)
    assert fused.snapshot() == chain.snapshot()


def _stage_chain(ctx, a0, b0, h, beta, t):
    """The column-shift stages one engine call per op, as products ran them:
    stage k masks the columns >= k of ``a0``."""
    col = np.arange(h * h) % h
    acc = None
    for k in range(t):
        mask = _expand(col >= k, beta, ctx.slot_count)
        masked = ctx.rescale(_masked_sum(ctx, [a0], [mask]))
        a_k = ctx.add(ctx.rot(masked, beta * k),
                      ctx.rot(ctx.sub(a0, masked), beta * (k - h)))
        prod = ctx.mul_ct(a_k, ctx.rot(b0, beta * h * k))
        acc = prod if acc is None else ctx.add(acc, prod)
    return acc


def _stage_operands(h, beta, mode, level=6):
    """Context and two packed operands, each with a zero row and a -0.0 column."""
    ctx = engine.new_context(
        2 * beta * h * h, level, 2.0 ** 40, 1, mode,
        noise_sigma=1e-6 if mode == "gaussian" else 0.0, noise_seed=h)
    rng = np.random.default_rng(h + beta)
    mats = [rng.uniform(-3, 3, (h, h)) for _ in range(2 * beta)]
    for m in mats:
        m[1, :] = 0.0
        m[:, 2] = -0.0
    return ctx, pack_matrices(mats[:beta], ctx).ct, pack_matrices(mats[beta:], ctx).ct


def _non_finite(ct, h, beta):
    """``ct`` by hand with inf, -inf and NaN of both signs in its first and
    last rows and columns, some stacked so that stage sums add NaN to NaN
    and the wrapped row h - 1 meets row 0 as two NaNs of opposite sign.

    inf - inf is a NaN whose sign differs from ``np.nan``'s, so a fused
    call that swaps the operands of a chain add changes a NaN's sign bit.
    """
    slots = ct.slots.copy().reshape(h, h, beta)
    slots[0, 0] = np.inf
    slots[1, 0] = np.nan
    slots[h - 1, h - 1] = -np.inf
    slots[0, h - 1] = -np.nan
    slots[h - 1, 0] = np.nan
    slots[h // 2, 1] = np.inf
    slots[h // 2 + 1, 1] = -np.inf
    slots[0, 1] = np.nan
    slots[h - 1, 1] = -np.inf
    return engine.SlotVector(slots.ravel(), ct.level, ct.scale, ct.context_id,
                             ct.key_tag)


def _check_stage_chain(h, beta, t, mode):
    ctx, a0, b0 = _stage_operands(h, beta, mode)
    for a, b in ((a0, b0), (_non_finite(a0, h, beta), _non_finite(b0, h, beta))):
        noise = ctx._rng.bit_generator.state
        with ctx.meter_scope() as fused, np.errstate(invalid="ignore"):
            got = ctx.shift_mul_sum(a, b, h, beta, t)
        ctx._rng.bit_generator.state = noise
        with ctx.meter_scope() as chain, np.errstate(invalid="ignore"):
            want = _stage_chain(ctx, a, b, h, beta, t)
        assert got.slots.tobytes() == want.slots.tobytes()
        assert (got.level, got.scale, got.key_tag) == (want.level, want.scale,
                                                       want.key_tag)
        assert fused.snapshot() == chain.snapshot()
        assert fused.rotations == 3 * t and fused.adds == 2 * t - 1


# Stage counts past one chunk of 16 that leave a partial last chunk, counts
# that pad rows by other amounts, and beta 1 and 4 as well as 2.  At beta 1,
# h = 4 or 8, the padded rows are rounded up to keep every slot out of
# numpy's scalar tail, which picks the other NaN of a NaN * NaN.
_STAGE_CASES = ([(h, t, 2) for h in (4, 8, 16, 32, 64)
                 for t in (1, 2, 4, 8, 16, 32, 64) if t <= h]
                + [(64, t, 2) for t in (17, 31, 33, 63)]
                + [(8, 3, 2), (8, 5, 2)]
                + [(h, t, 1) for h in (4, 8) for t in range(1, h + 1)]
                + [(h, t, 4) for h, t in ((4, 1), (4, 3), (8, 5),
                                          (16, 16), (32, 17), (32, 32))])


@pytest.mark.parametrize("mode", ["exact", "gaussian"])
@pytest.mark.parametrize("h, t, beta", [
    pytest.param(h, t, beta, id=f"{h}-{t}" + (f"-beta{beta}" if beta != 2 else ""))
    for h, t, beta in _STAGE_CASES])
def test_shift_mul_sum_equals_stage_chain(h, t, beta, mode):
    _check_stage_chain(h, beta, t, mode)


@pytest.mark.parametrize("h, t", [(4, 1), (4, 3), (4, 4), (64, 64)])
def test_shift_mul_sum_of_one_image_equals_stage_chain(h, t):
    _check_stage_chain(h, 1, t, "gaussian")


@pytest.mark.parametrize("shapes", [((32, 2), (32, 2)), ((32, 2), (16, 8))],
                         ids=["one shape", "two shapes"])
def test_shift_mul_sum_work_arrays_are_per_thread(shapes):
    """Threads running products on one context at once each get the per-op
    chain byte for byte, and a result returned earlier on a thread keeps its
    slots while that thread goes on at the same shape."""
    ctx = engine.new_context(2 * 2048, 6, 2.0 ** 40, 1)
    jobs = []
    for i, (h, beta) in enumerate(shapes):
        rng = np.random.default_rng(i)
        pa, pb = (pack_matrices([rng.uniform(-3, 3, (h, h)) for _ in range(beta)],
                                ctx) for _ in range(2))
        t = h - 1   # a partial last chunk
        calls = []
        for x, y in ((pa, pb), (pb, pa)):
            want = (_stage_chain(ctx, x.ct, y.ct, h, beta, t).slots.tobytes(),
                    _he_mat_mult_encoding_masks(x, y).slots.tobytes())
            calls.append((x, y, want))
        jobs.append((h, beta, t, calls))
    errors = []
    start = threading.Barrier(len(jobs))

    def run(h, beta, t, calls):
        try:
            start.wait(10.0)
            (x, y, (first_want, _)), _ = calls
            first = ctx.shift_mul_sum(x.ct, y.ct, h, beta, t)
            for _ in range(40):
                for x, y, (stages, product) in calls:
                    got = ctx.shift_mul_sum(x.ct, y.ct, h, beta, t)
                    assert got.slots.tobytes() == stages
                    assert he_mat_mult(x, y).ct.slots.tobytes() == product
            assert first.slots.tobytes() == first_want
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=job, daemon=True)
                   for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _stage_misuse(case):
    ctx, a0, b0 = _stage_operands(4, 1, "exact")
    h, beta, t = 4, 1, 4
    ones = ctx.encode(np.ones(ctx.slot_count))
    if case == "a0 level 1":
        for _ in range(5):
            a0 = ctx.rescale(ctx.mul_pt(a0, ones))
    elif case == "b0 level 0":
        for _ in range(6):
            b0 = ctx.rescale(ctx.mul_pt(b0, ones))
    elif case == "key tags":
        b0 = ctx.dkey_switch(b0, ctx.SERVER_KEY, ctx.parties)
    elif case == "other context":
        _, _, b0 = _stage_operands(4, 1, "exact")
    elif case == "geometry":
        h, t = 2, 2
    elif case == "negative h":
        h = -4
    elif case == "operand width":
        a0, b0 = (engine.SlotVector(ct.slots[:-1], ct.level, ct.scale,
                                    ct.context_id, ct.key_tag) for ct in (a0, b0))
    elif case == "no stages":
        t = 0
    elif case == "t above h":
        t = 5
    return ctx, (a0, b0, h, beta, t)


@pytest.mark.parametrize("case, error", [
    ("a0 level 1", LevelExhaustedError),
    ("b0 level 0", LevelExhaustedError),
    ("key tags", engine.KeyMismatchError),
    ("other context", engine.EngineError),
    ("geometry", CapacityError),
    ("negative h", CapacityError),
    ("operand width", CapacityError),
    ("no stages", CapacityError),
    ("t above h", CapacityError),
])
def test_shift_mul_sum_rejects_misuse_before_any_tally(case, error):
    ctx, args = _stage_misuse(case)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.shift_mul_sum(*args)
    assert ctx.meter.snapshot() == before


def test_shift_mul_sum_memo_hit_equals_first_call_and_chain():
    h, beta, t = 8, 2, 8
    ctx, a0, b0 = _stage_operands(h, beta, "exact")
    calls = []
    for _ in range(2):
        with ctx.meter_scope() as scope:
            calls.append((ctx.shift_mul_sum(a0, b0, h, beta, t), scope.snapshot()))
        assert len(ctx._chains) == 1
    with ctx.meter_scope() as chain:
        want = _stage_chain(ctx, a0, b0, h, beta, t)
    for got, tally in calls:
        assert got.slots.tobytes() == want.slots.tobytes()
        assert (got.level, got.scale) == (want.level, want.scale)
        assert tally == chain.snapshot()


@pytest.mark.parametrize("case, error", [
    ("a0 level one short", LevelExhaustedError),
    ("scale overflow", engine.EngineError),
])
def test_rejected_shift_mul_sum_stores_and_meters_nothing(case, error):
    ctx, a0, b0 = _stage_operands(4, 1, "exact")
    level, scale = (1, a0.scale) if case == "a0 level one short" else (2, 2.0 ** 1000)
    bad = engine.SlotVector(a0.slots, level, scale, a0.context_id, a0.key_tag)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        ctx.shift_mul_sum(bad, b0, 4, 1, 4)
    assert ctx._chains == {}
    assert ctx.meter.snapshot() == before
    good = engine.SlotVector(a0.slots, 2, a0.scale, a0.context_id, a0.key_tag)
    assert ctx.shift_mul_sum(good, b0, 4, 1, 4).level == 1
    assert len(ctx._chains) == 1
    assert ctx.meter.mul_ct - before["mul_ct"] == 4


# ---------------------------------------------------------------- transpose

def test_transpose_symmetric_fixed_point():
    ctx = exact_ctx(4)
    a = np.arange(16.0).reshape(4, 4)
    sym = a + a.T
    out = decode_matrix(he_transpose(encode_matrix(sym, ctx)))
    assert np.allclose(out, sym)


def test_transpose_small_example():
    ctx = exact_ctx(2)
    out = decode_matrix(he_transpose(encode_matrix([[1, 2], [3, 4]], ctx)))
    assert np.allclose(out, [[1, 3], [2, 4]])


def test_transpose_random_oracle():
    ctx = exact_ctx(8)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.standard_normal((8, 8))
        out = decode_matrix(he_transpose(encode_matrix(a, ctx)))
        assert np.allclose(out, a.T, atol=1e-9)


def test_transpose_diagonal_count_h4():
    assert len(build_permutation("transpose", 4).diagonals) == 7


def _transpose_cases():
    """(form, h, t, beta): square images at beta 1 and 2, and each stacked
    t | h, unbatched."""
    for form in matrix.FORMS:
        for h in (4, 8, 16):
            yield form, h, h, 2
            for t in (d for d in range(1, h + 1) if h % d == 0):
                yield form, h, t, 1


def _images(ctx, h, t, beta, form, rng):
    """The plain h x h images and their encryption in ``form``."""
    rows = [rng.standard_normal((t, h)) for _ in range(beta)]
    images = [np.tile(r, (h // t, 1)) for r in rows]
    if beta == 1:
        return images, encode_rect_matrix(rows[0], ctx, form=form)
    pm = pack_matrices(images, ctx)
    return images, (pm if form is None else he_align(pm, form))


@pytest.mark.parametrize("form, h, t, beta", list(_transpose_cases()))
def test_transpose_keeps_every_form(form, h, t, beta):
    # The form picks transpose, sigma_transpose or tau_transpose; a stacked
    # image comes out as the square image of its transpose, in form.
    ctx = exact_ctx(h, beta=beta)
    images, pm = _images(ctx, h, t, beta, form, np.random.default_rng(h + t))
    with ctx.meter_scope() as scope:
        out = he_transpose(pm)
    assert (out.dim_h, out.rows_t, out.batch_beta, out.form) == \
        (h, h, beta, form)
    assert (out.ct.level, out.ct.scale) == (pm.ct.level - 1, ctx.initial_scale)
    for b, image in enumerate(images):
        assert decode_matrix(out, b).tobytes() == image.T.tobytes()
    spec = build_permutation(matrix._TRANSPOSES[form], h)
    rotations, mul_pt = _expected_tallies(spec, bsgs=True)
    assert (scope.rotations, scope.mul_pt, scope.rescales) == \
        (rotations, mul_pt, 1)


@pytest.mark.parametrize("form, t, level, error", [
    ("sigma_mu", 8, 6, CapacityError),
    ("tau_zeta", 8, 6, CapacityError),
    ("sigma_mu", 2, 6, CapacityError),
    (None, 8, 0, LevelExhaustedError),
    ("sigma_mu", 8, 0, LevelExhaustedError),
    ("tau_zeta", 2, 0, LevelExhaustedError),
], ids=["sigma_mu not exact fit", "tau_zeta not exact fit",
        "stacked sigma_mu not exact fit", "plain at level 0",
        "sigma_mu at level 0", "stacked tau_zeta at level 0"])
def test_transpose_refuses_before_any_tally(form, t, level, error):
    # A context of two windows' worth of slots is no exact fit, which the
    # formed kinds need: they wrap the window.
    h = 8
    ctx = exact_ctx(h, beta=1 if level == 0 else 2)
    pm = _images(ctx, h, t, 1, form, np.random.default_rng(4))[1]
    pm = _at_level(pm, level)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        he_transpose(pm)
    assert ctx.meter.snapshot() == before


def test_plain_transpose_needs_no_exact_fit():
    ctx = exact_ctx(8, beta=2)
    a = np.random.default_rng(6).standard_normal((8, 8))
    assert decode_matrix(he_transpose(encode_matrix(a, ctx))).tobytes() == \
        a.T.tobytes()


def test_a_batched_stacked_image_is_refused():
    # Square images stay batched, in the rectangular products too, where
    # t = h makes them the square product.
    ctx = exact_ctx(8, beta=2)
    rng = np.random.default_rng(8)
    pa, pb = (pack_matrices(rng.standard_normal((2, 8, 8)), ctx)
              for _ in range(2))
    want = he_mat_mult(pa, pb)
    for product in (he_rect_mat_mult, he_mat_mult):
        out = product(pa, pb)
        assert out.batch_beta == 2
        assert out.ct.slots.tobytes() == want.ct.slots.tobytes()
    for t in (1, 2, 4):
        with pytest.raises(CapacityError, match="not batched"):
            matrix.PackedMatrix(pa.ct, 8, t, 2)


# -------------------------------------------------------------- rectangular

def test_rect_row_vector_times_matrix():
    ctx = exact_ctx(2)
    pa = encode_rect_matrix([[1, 2]], ctx)
    pb = encode_matrix([[5, 6], [7, 8]], ctx)
    out = he_rect_mat_mult(pa, pb)
    assert out.rows_t == 1
    img = decode_matrix(matrix.PackedMatrix(out.ct, 2, 2, 1))
    assert np.allclose(img[0], [19, 22])
    assert np.allclose(img[1], [19, 22])  # replicated copy


@pytest.mark.parametrize("t,h", [(1, 4), (2, 8), (4, 8), (2, 4)])
def test_rect_matches_plain_product(t, h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(t * 10 + h)
    a = rng.uniform(-3, 3, (t, h))
    b = rng.uniform(-3, 3, (h, h))
    with ctx.meter_scope() as scope:
        out = he_rect_mat_mult(encode_rect_matrix(a, ctx),
                               encode_matrix(b, ctx))
    img = decode_matrix(matrix.PackedMatrix(out.ct, h, h, 1))
    expect = a @ b
    for copy in range(h // t):
        assert np.allclose(img[copy * t:(copy + 1) * t], expect, atol=1e-9)
    assert scope.mul_ct == t
    assert scope.mul_pt == 3 * h + t
    assert scope.subs == t


def test_rect_degenerates_to_square():
    # both products run one stage core, so at t = h (no fold) the rectangular
    # product reproduces the square one bit for bit, tallies included
    h = 4
    ctx = exact_ctx(h)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((h, h))
    b = rng.standard_normal((h, h))
    with ctx.meter_scope() as rect_scope:
        rect = he_rect_mat_mult(encode_rect_matrix(a, ctx), encode_matrix(b, ctx))
    with ctx.meter_scope() as square_scope:
        square = he_mat_mult(encode_matrix(a, ctx), encode_matrix(b, ctx))
    assert np.array_equal(rect.ct.slots, square.ct.slots)
    assert rect_scope.snapshot() == square_scope.snapshot()


def test_bsgs_falls_back_for_shift_kinds():
    h = 4
    ctx = exact_ctx(h)
    vec = np.arange(h * h, dtype=float)
    ct = ctx.encrypt(ctx.encode(vec))
    spec = build_permutation("col_shift", h, 1)
    out = he_lin_trans_bsgs(ct, spec)
    expect = apply_permutation(spec, vec)
    got = ctx.decode(ctx.ddec(out, ctx.parties))[: h * h]
    assert np.allclose(got, expect, atol=1e-12)


def test_rect_fold_rotation_count():
    t, h = 2, 8
    ctx = exact_ctx(h)
    a = encode_rect_matrix(np.ones((t, h)), ctx)
    b = encode_matrix(np.eye(h), ctx)
    baby, giant = bsgs_split(h)
    with ctx.meter_scope() as scope:
        he_rect_mat_mult(a, b)
    fold = int(np.log2(h // t))
    expected = (baby + 2 * giant) + (baby + giant) + 3 * t + fold
    assert scope.rotations == expected


def test_rect_requires_divisible_rows():
    ctx = exact_ctx(8)
    with pytest.raises(CapacityError):
        encode_rect_matrix(np.ones((3, 8)), ctx)


# --------------------------------------------------- transposed rectangular

_TN_SHAPES = [(4, 1), (4, 2), (4, 4), (8, 2), (16, 4), (16, 8), (32, 8),
              (64, 16), (64, 64)]


def _tn_operands(h, t):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h * 100 + t)
    a, b = rng.standard_normal((t, h)), rng.standard_normal((t, h))
    return ctx, a, b, encode_rect_matrix(a, ctx), encode_rect_matrix(b, ctx)


def _tn(a, b):
    """``A.T @ B`` for two stacked t x h images."""
    return he_mat_mult(he_transpose(a), b)


@pytest.mark.parametrize("h, t", _TN_SHAPES)
def test_rect_tn_mult_equals_plain_product(h, t):
    ctx, a, b, pa, pb = _tn_operands(h, t)
    out = _tn(pa, pb)
    assert (out.dim_h, out.rows_t, out.batch_beta) == (h, h, 1)
    assert out.ct.level == ctx.initial_level - matrix.PRODUCT_DEPTH - 1
    assert out.ct.scale == ctx.initial_scale
    assert np.max(np.abs(decode_matrix(out) - a.T @ b)) <= 1e-12


@pytest.mark.parametrize("h, t", _TN_SHAPES)
def test_rect_tn_mult_tallies(h, t):
    # A plain A: one plain transpose, the sigma_mu of its square result,
    # b's row-periodic tau_zeta (bsgs_split(t) rotations and t mul_pt) and
    # t stages (3 rotations and one mul_pt each).
    ctx, _, _, pa, pb = _tn_operands(h, t)
    with ctx.meter_scope() as scope:
        _tn(pa, pb)
    transpose, sigma = (_expected_tallies(build_permutation(kind, h), True)
                        for kind in ("transpose", "sigma_mu"))
    baby, giant = bsgs_split(t)
    assert (scope.mul_ct, scope.subs) == (t, t)
    assert scope.rotations == \
        transpose[0] + sigma[0] + baby + giant + 3 * t
    assert scope.mul_pt == transpose[1] + sigma[1] + t + t


@pytest.mark.parametrize("h, t", [(4, 2), (16, 4), (64, 16)])
def test_rect_tn_mult_agrees_with_scaled_square_product(h, t):
    # the h-stage square product of the transposed stacked image counts each
    # batch row h/t times; t/h scales the copies away
    ctx, _, _, pa, pb = _tn_operands(h, t)
    square = [matrix.PackedMatrix(pm.ct, h, h, 1) for pm in (pa, pb)]
    old = decode_matrix(he_mat_mult(he_transpose(square[0]), square[1]))
    new = decode_matrix(_tn(pa, pb))
    assert np.allclose(new, old * t / h, rtol=0, atol=1e-12)


def _at_level(pm, level):
    ct = engine.SlotVector(pm.ct.slots, level, pm.ct.scale, pm.ct.context_id,
                           pm.ct.key_tag)
    return dataclasses.replace(pm, ct=ct)


def _tn_misuse(case):
    """The context of a refused call and a thunk building its operands."""
    h, t = 8, 2
    ctx, a, _, pa, pb = _tn_operands(h, t)
    if case == "rows do not divide h":
        # refused as the operands are built, before any product
        return ctx, lambda: tuple(matrix.PackedMatrix(pm.ct, h, 3, 1)
                                  for pm in (pa, pb))
    if case == "batched":
        # refused as the operands are built, before any product
        return ctx, lambda: tuple(matrix.PackedMatrix(pm.ct, 4, 2, 2)
                                  for pm in (pa, pb))
    if case == "not exact fit":
        ctx = engine.new_context(4 * h * h, 6, 2.0 ** 40, 1)
        a = np.ones((t, h))
        pa, pb = encode_rect_matrix(a, ctx), encode_rect_matrix(a, ctx)
    elif case == "sides differ":
        pb = matrix.PackedMatrix(pb.ct, 4, 2, 1)
    elif case == "a one level short":
        pa = _at_level(pa, matrix.PRODUCT_DEPTH)
    elif case == "b one level short":
        pb = _at_level(pb, matrix.PRODUCT_DEPTH - 1)
    elif case == "sigma a one level short":
        pa = _at_level(encode_rect_matrix(a, ctx, form="sigma_mu"),
                       matrix.PRODUCT_DEPTH - 1)
    return ctx, lambda: (pa, pb)


@pytest.mark.parametrize("case, error", [
    ("rows do not divide h", CapacityError),
    ("batched", CapacityError),
    ("not exact fit", CapacityError),
    ("sides differ", CapacityError),
    ("a one level short", LevelExhaustedError),
    ("b one level short", LevelExhaustedError),
    ("sigma a one level short", LevelExhaustedError),
])
def test_rect_tn_mult_refuses_before_any_tally(case, error):
    # The call that refuses, the transpose or the product, meters nothing.
    ctx, operands = _tn_misuse(case)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        a, b = operands()
        at = he_transpose(a)
        before = ctx.meter.snapshot()
        he_mat_mult(at, b)
    assert ctx.meter.snapshot() == before


def test_rect_tn_mult_runs_at_the_lowest_levels_it_accepts():
    ctx, a, b, pa, pb = _tn_operands(8, 2)
    sigma = encode_rect_matrix(a, ctx, form="sigma_mu")
    for left, level in ((pa, matrix.PRODUCT_DEPTH + 1),
                        (sigma, matrix.PRODUCT_DEPTH)):
        out = _tn(_at_level(left, level), _at_level(pb, matrix.PRODUCT_DEPTH))
        assert out.ct.level == 0
        assert np.max(np.abs(decode_matrix(out) - a.T @ b)) <= 1e-12


@pytest.mark.parametrize("h, t", _TN_SHAPES)
def test_rect_tn_mult_of_a_sigma_image_equals_the_plain_path(h, t):
    # The transpose of a sigma_mu-aligned left factor is one
    # sigma_transpose, which the product takes as formed: the bytes, level
    # and scale of transposing the plain factor and aligning the result,
    # for bsgs_split(h) baby + giant rotations and baby * (giant + 1)
    # mul_pt, beside b's periodic tau_zeta and the stages.
    ctx, a, b, pa, pb = _tn_operands(h, t)
    want = _tn(pa, pb)
    sigma = he_align(pa, "sigma_mu")
    with ctx.meter_scope() as scope:
        out = _tn(sigma, pb)
    assert out.ct.slots.tobytes() == want.ct.slots.tobytes()
    assert (out.ct.level, out.ct.scale, out.form) == \
        (want.ct.level, want.ct.scale, None)
    assert np.max(np.abs(decode_matrix(out) - a.T @ b)) <= 1e-12
    baby, giant = bsgs_split(h)
    t_baby, t_giant = bsgs_split(t)
    assert (scope.mul_ct, scope.subs) == (t, t)
    assert scope.rotations == baby + giant + t_baby + t_giant + 3 * t
    assert scope.mul_pt == baby * (giant + 1) + 2 * t
    pinned = {(16, 8): (38, 36), (64, 16): (72, 104)}
    if (h, t) in pinned:
        assert (scope.rotations, scope.mul_pt) == pinned[h, t]


def _at_operand(a, ctx, form=None):
    """The encrypted h x h image of the transpose of ``a``'s stacked image,
    in ``form``."""
    t, h = a.shape
    return encode_matrix(np.tile(a, (h // t, 1)).T, ctx, form=form)


@pytest.mark.parametrize("h, t", _TN_SHAPES)
def test_rect_at_mult_equals_plain_product(h, t):
    ctx, a, b, _, pb = _tn_operands(h, t)
    out = he_mat_mult(_at_operand(a, ctx), pb)
    assert (out.dim_h, out.rows_t, out.batch_beta) == (h, h, 1)
    assert out.ct.level == ctx.initial_level - matrix.PRODUCT_DEPTH
    assert out.ct.scale == ctx.initial_scale
    assert np.max(np.abs(decode_matrix(out) - a.T @ b)) <= 1e-12


@pytest.mark.parametrize("h, t", _TN_SHAPES)
def test_rect_at_mult_is_rect_tn_mult_without_the_transpose(h, t):
    # The transpose of sigma_mu(A) is sigma_mu(A.T) = T(tau_zeta(A)).
    # Given that left factor, built as either or encrypted in form from
    # the plaintext at its level, he_mat_mult gives the same
    # ciphertext, and costs the whole tn product less the transpose.
    ctx, a, _, pa, pb = _tn_operands(h, t)
    sigma = he_align(pa, "sigma_mu")
    with ctx.meter_scope() as tn:
        want = _tn(sigma, pb)
    with ctx.meter_scope() as transforms:
        he_transpose(sigma)
    tau = he_align(pa, "tau_zeta")
    at = matrix.PackedMatrix(ctx.rescale(he_lin_trans_bsgs(
        tau.ct, build_permutation("transpose", h))), h, h, 1, "sigma_mu")
    level = ctx.initial_level - 2
    for left in (at, _at_level(_at_operand(a, ctx, "sigma_mu"), level)):
        assert left.ct.level == level
        with ctx.meter_scope() as scope:
            out = he_mat_mult(left, pb)
        assert out.ct.slots.tobytes() == want.ct.slots.tobytes()
        assert (out.ct.level, out.ct.scale) == (want.ct.level, want.ct.scale)
        assert {k: getattr(scope, k) + getattr(transforms, k)
                for k in ctx.meter.snapshot()} == \
            {k: getattr(tn, k) for k in ctx.meter.snapshot()}


def _at_misuse(case):
    """The contexts of a refused call and a thunk building its operands."""
    h, t = 8, 2
    ctx, a, _, _, pb = _tn_operands(h, t)
    contexts = [ctx]
    at = _at_operand(a, ctx)
    if case == "left factor not square":
        at = matrix.PackedMatrix(at.ct, h, t, 1)
    elif case == "rows do not divide h":
        # refused as the operand is built, before any product
        return contexts, lambda: (at, matrix.PackedMatrix(pb.ct, h, 3, 1))
    elif case == "batched":
        # refused as the operand is built, before any product
        return contexts, lambda: (at, matrix.PackedMatrix(pb.ct, 4, 2, 2))
    elif case == "another context":
        contexts.append(exact_ctx(h))
        pb = encode_rect_matrix(np.ones((t, h)), contexts[-1])
    elif case == "left one level short":
        at = _at_level(at, matrix.PRODUCT_DEPTH - 1)
    elif case == "right one level short":
        pb = _at_level(pb, matrix.PRODUCT_DEPTH - 1)
    return contexts, lambda: (at, pb)


@pytest.mark.parametrize("case, error", [
    ("left factor not square", CapacityError),
    ("rows do not divide h", CapacityError),
    ("batched", CapacityError),
    ("another context", CapacityError),
    ("left one level short", LevelExhaustedError),
    ("right one level short", LevelExhaustedError),
])
def test_rect_at_mult_refuses_before_any_tally(case, error):
    contexts, operands = _at_misuse(case)
    before = [c.meter.snapshot() for c in contexts]
    with pytest.raises(error):
        he_mat_mult(*operands())
    assert [c.meter.snapshot() for c in contexts] == before


def test_rect_at_mult_runs_at_the_lowest_levels_it_accepts():
    ctx, a, b, _, pb = _tn_operands(8, 2)
    out = he_mat_mult(_at_level(_at_operand(a, ctx), matrix.PRODUCT_DEPTH),
                          _at_level(pb, matrix.PRODUCT_DEPTH))
    assert out.ct.level == 0
    assert np.max(np.abs(decode_matrix(out) - a.T @ b)) <= 1e-12


# ------------------------------------------------------------ formed images

# Each product job by its label in the test ids: the square product, a
# stacked left factor by a square one, and ``A.T @ B``, which is
# he_mat_mult of A's transposed stack by a stacked right factor.
_PRODUCTS = {"he_mat_mult": he_mat_mult, "he_rect_mat_mult": he_rect_mat_mult,
             "he_rect_at_mult": he_mat_mult}


def _product_operands(name, h):
    """A context, the product's plain operands and their logical product."""
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    a, b = rng.standard_normal((h, h)), rng.standard_normal((h, h))
    if name == "he_mat_mult":
        return ctx, encode_matrix(a, ctx), encode_matrix(b, ctx), a @ b
    r = rng.standard_normal((h // 4, h))
    if name == "he_rect_mat_mult":
        return (ctx, encode_rect_matrix(r, ctx), encode_matrix(b, ctx),
                np.tile(r @ b, (4, 1)))
    s = rng.standard_normal((h // 4, h))
    return ctx, _at_operand(r, ctx), encode_rect_matrix(s, ctx), r.T @ s


@pytest.mark.parametrize("formed", ["left", "right", "both"])
@pytest.mark.parametrize("h", [4, 16, 64])
@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_formed_product_skips_exactly_the_alignment(name, h, formed):
    # An operand aligned once by he_align gives the product the bytes, the
    # level and the scale of aligning it inside the product, and the
    # product's tallies fall by exactly that alignment's.
    ctx, pa, pb, want = _product_operands(name, h)
    with ctx.meter_scope() as plain:
        ref = _PRODUCTS[name](pa, pb)
    with ctx.meter_scope() as align:
        if formed != "right":
            pa = he_align(pa, "sigma_mu")
        if formed != "left":
            pb = he_align(pb, "tau_zeta")
    with ctx.meter_scope() as scope:
        out = _PRODUCTS[name](pa, pb)
    assert out.ct.slots.tobytes() == ref.ct.slots.tobytes()
    assert (out.ct.level, out.ct.scale, out.form) == \
        (ref.ct.level, ref.ct.scale, None)
    fields = ctx.meter.snapshot()
    assert {k: getattr(scope, k) + getattr(align, k) for k in fields} == \
        {k: getattr(plain, k) for k in fields}
    assert align.rotations > 0
    assert np.max(np.abs(decode_matrix(out) - want)) <= 1e-9 * h


@pytest.mark.parametrize("h", [4, 16, 64])
@pytest.mark.parametrize("name", sorted(_PRODUCTS))
def test_formed_product_of_fresh_images_runs_the_stages_alone(name, h):
    # A data owner encrypts its images in form: the stages of the product
    # see the bytes that aligning the plain images gives, a level higher.
    ctx, pa, pb, want = _product_operands(name, h)

    def fresh_in(pm, form):
        image = decode_matrix(pm)[: pm.rows_t]
        encode = encode_matrix if pm.rows_t == h else encode_rect_matrix
        return encode(image, ctx, form=form)
    fresh = [fresh_in(pa, "sigma_mu"), fresh_in(pb, "tau_zeta")]
    aligned = [he_align(pa, "sigma_mu"), he_align(pb, "tau_zeta")]
    for f, al in zip(fresh, aligned):
        assert f.ct.slots.tobytes() == al.ct.slots.tobytes()
        assert (f.ct.level, f.form) == (al.ct.level + 1, al.form)
    ref = _PRODUCTS[name](*aligned)
    with ctx.meter_scope() as scope:
        out = _PRODUCTS[name](*fresh)
    assert out.ct.slots.tobytes() == ref.ct.slots.tobytes()
    assert out.ct.level == ref.ct.level + 1
    t = pa.rows_t if name == "he_rect_mat_mult" else pb.rows_t
    assert (scope.mul_ct, scope.mul_pt) == (t, t)
    assert np.max(np.abs(decode_matrix(out) - want)) <= 1e-9 * h


@pytest.mark.parametrize("h", [4, 16])
def test_decode_matrix_of_a_formed_image_is_the_logical_matrix(h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    a, r = rng.standard_normal((h, h)), rng.standard_normal((h // 2, h))
    for form in matrix.FORMS:
        assert decode_matrix(encode_matrix(a, ctx, form=form)).tobytes() == \
            a.tobytes()
        assert decode_matrix(encode_rect_matrix(r, ctx, form=form)).tobytes() \
            == np.tile(r, (2, 1)).tobytes()
        if form is not None:
            aligned = he_align(encode_matrix(a, ctx), form)
            assert decode_matrix(aligned).tobytes() == a.tobytes()
    tau_t = he_transpose(encode_matrix(a, ctx, form="tau_zeta"))
    assert tau_t.form == "tau_zeta"
    assert decode_matrix(tau_t).tobytes() == a.T.tobytes()


@pytest.mark.parametrize("h", [4, 16, 64])
def test_transpose_keeps_the_tau_form(h):
    # tau_transpose takes tau(W) to tau(W.T), at the cost and level of a
    # plain transpose, with the bytes of aligning the plain transpose.
    ctx = exact_ctx(h)
    w = encode_matrix(np.random.default_rng(h).standard_normal((h, h)), ctx)
    with ctx.meter_scope() as plain:
        want = he_align(he_transpose(w), "tau_zeta")
    tau_w = he_align(w, "tau_zeta")
    with ctx.meter_scope() as scope:
        got = he_transpose(tau_w)
    assert got.ct.slots.tobytes() == want.ct.slots.tobytes()
    assert (got.form, got.ct.level, got.ct.scale) == \
        ("tau_zeta", tau_w.ct.level - 1, ctx.initial_scale)
    with ctx.meter_scope() as transpose:
        he_transpose(w)
    assert scope.snapshot() == transpose.snapshot()
    assert (scope.rotations, scope.mul_pt) == \
        {4: (6, 8), 16: (12, 32), 64: (24, 128)}[h]


@pytest.mark.parametrize("h, beta", [(4, 1), (4, 2), (16, 1), (64, 1)])
def test_refresh_aligns_an_image_at_no_rotation(h, beta):
    # he_refresh gives the bytes of he_align, at the initial level, for one
    # bootstrap and nothing else; an image already in the form, or a plain
    # one with no form named, is refreshed as it is.
    ctx = exact_ctx(h, beta=beta)
    rng = np.random.default_rng(h + beta)
    mats = [rng.standard_normal((h, h)) for _ in range(beta)]
    pm = pack_matrices(mats, ctx)
    low = _at_level(pm, 1)
    fields = ctx.meter.snapshot()
    for form in ("sigma_mu", "tau_zeta"):
        want = he_align(pm, form)
        with ctx.meter_scope() as scope:
            got = he_refresh(low, ctx.parties, form)
        assert got.ct.slots.tobytes() == want.ct.slots.tobytes()
        assert (got.form, got.ct.level, got.ct.scale) == \
            (form, ctx.initial_level, ctx.initial_scale)
        assert scope.snapshot() == {k: int(k == "bootstraps") for k in fields}
        for b, m in enumerate(mats):
            assert decode_matrix(got, b).tobytes() == m.tobytes()
        again = he_refresh(_at_level(got, 0), ctx.parties, form)
        assert again.ct.slots.tobytes() == got.ct.slots.tobytes()
        assert (again.form, again.ct.level) == (form, ctx.initial_level)
    plain = he_refresh(low, ctx.parties)
    assert plain.ct.slots.tobytes() == pm.ct.slots.tobytes()
    assert (plain.form, plain.ct.level) == (None, ctx.initial_level)


def _form_misuse(case):
    """The context of a refused call and the call."""
    h = 8
    ctx = exact_ctx(h)
    a = np.random.default_rng(1).standard_normal((h, h))
    plain = encode_matrix(a, ctx)
    sigma = encode_matrix(a, ctx, form="sigma_mu")
    tau = encode_matrix(a, ctx, form="tau_zeta")
    rect = encode_rect_matrix(a[:2], ctx)
    tau_t = he_transpose(encode_rect_matrix(a[:2], ctx, form="tau_zeta"))
    calls = {
        "left factor in tau form": lambda: he_mat_mult(tau, plain),
        "right factor in sigma form": lambda: he_mat_mult(plain, sigma),
        "rect left factor in tau form": lambda: he_rect_mat_mult(
            encode_rect_matrix(a[:2], ctx, form="tau_zeta"), plain),
        "at left factor in tau form": lambda: he_mat_mult(tau, rect),
        "tn left factor in tau form": lambda: he_mat_mult(tau_t, rect),
        "stacked left factor of he_mat_mult": lambda: he_mat_mult(rect, plain),
        "stacked right factor of he_rect_mat_mult": lambda: he_rect_mat_mult(
            rect, rect),
        "align to another form": lambda: he_align(sigma, "tau_zeta"),
        "align to a kind that is no form": lambda: he_align(plain, "transpose"),
        "refresh a sigma image into tau form": lambda: he_refresh(
            sigma, ctx.parties, "tau_zeta"),
        "refresh into a kind that is no form": lambda: he_refresh(
            plain, ctx.parties, "transpose"),
        "refresh with a partial roster": lambda: he_refresh(
            plain, ctx.parties[1:], "tau_zeta"),
        "encode in an unknown form": lambda: encode_matrix(a, ctx,
                                                           form="transpose"),
        "naive baseline of a sigma image": lambda: references.naive_mat_mult(
            sigma, plain),
        "diagonal baseline of a tau image":
            lambda: references.diagonal_mat_mult(plain, tau),
        "formed left factor one level short": lambda: he_mat_mult(
            _at_level(sigma, matrix.PRODUCT_DEPTH - 2), plain),
        "formed right factor one level short": lambda: he_mat_mult(
            plain, _at_level(tau, matrix.PRODUCT_DEPTH - 2)),
    }
    return ctx, calls[case]


@pytest.mark.parametrize("case, error", [
    ("left factor in tau form", CapacityError),
    ("right factor in sigma form", CapacityError),
    ("rect left factor in tau form", CapacityError),
    ("at left factor in tau form", CapacityError),
    ("tn left factor in tau form", CapacityError),
    ("stacked left factor of he_mat_mult", CapacityError),
    ("stacked right factor of he_rect_mat_mult", CapacityError),
    ("align to another form", CapacityError),
    ("align to a kind that is no form", CapacityError),
    ("refresh a sigma image into tau form", CapacityError),
    ("refresh into a kind that is no form", CapacityError),
    ("refresh with a partial roster", engine.MissingPartyError),
    ("encode in an unknown form", CapacityError),
    ("naive baseline of a sigma image", CapacityError),
    ("diagonal baseline of a tau image", CapacityError),
    ("formed left factor one level short", LevelExhaustedError),
    ("formed right factor one level short", LevelExhaustedError),
])
def test_formed_product_misuse_meters_nothing(case, error):
    ctx, call = _form_misuse(case)
    before = ctx.meter.snapshot()
    with pytest.raises(error):
        call()
    assert ctx.meter.snapshot() == before


def test_formed_product_runs_at_the_lowest_levels_it_accepts():
    h = 8
    ctx = exact_ctx(h)
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((h, h)), rng.standard_normal((h, h))
    sigma = encode_matrix(a, ctx, form="sigma_mu")
    tau = encode_matrix(b, ctx, form="tau_zeta")
    assert sigma.product_depth == tau.product_depth == matrix.PRODUCT_DEPTH - 1
    out = he_mat_mult(_at_level(sigma, matrix.PRODUCT_DEPTH - 1),
                      _at_level(tau, matrix.PRODUCT_DEPTH - 1))
    assert out.ct.level == 0
    assert np.max(np.abs(decode_matrix(out) - a @ b)) <= 1e-9 * h
    with pytest.raises(CapacityError, match="unknown form"):
        matrix.PackedMatrix(sigma.ct, h, h, 1, "transpose")


# ------------------------------------------------------------------- batched

def test_batched_two_pairs():
    h, beta = 2, 2
    ctx = exact_ctx(h, beta=beta)
    rng = np.random.default_rng(3)
    mats_a = [rng.standard_normal((h, h)) for _ in range(beta)]
    mats_b = [rng.standard_normal((h, h)) for _ in range(beta)]
    out = he_mat_mult(pack_matrices(mats_a, ctx),
                      pack_matrices(mats_b, ctx))
    for slot in range(beta):
        assert np.allclose(decode_matrix(out, slot),
                           mats_a[slot] @ mats_b[slot], atol=1e-9)


def test_batched_four_in_64_slots():
    h, beta = 4, 4
    ctx = exact_ctx(h, beta=beta)
    assert ctx.slot_count == 64
    rng = np.random.default_rng(4)
    mats_a = [rng.standard_normal((h, h)) for _ in range(beta)]
    mats_b = [rng.standard_normal((h, h)) for _ in range(beta)]
    with ctx.meter_scope() as scope:
        out = he_mat_mult(pack_matrices(mats_a, ctx),
                          pack_matrices(mats_b, ctx))
    for slot in range(beta):
        assert np.allclose(decode_matrix(out, slot),
                           mats_a[slot] @ mats_b[slot], atol=1e-9)
    assert scope.rotations == matmul_rotation_formula(h)
    assert scope.mul_ct == h


def test_batched_tallies_equal_single_call():
    h = 4
    rng = np.random.default_rng(6)
    a = rng.standard_normal((h, h))
    b = rng.standard_normal((h, h))

    ctx1 = exact_ctx(h)
    with ctx1.meter_scope() as single:
        he_mat_mult(encode_matrix(a, ctx1), encode_matrix(b, ctx1))

    ctx2 = exact_ctx(h, beta=4)
    with ctx2.meter_scope() as batched:
        he_mat_mult(pack_matrices([a] * 4, ctx2),
                    pack_matrices([b] * 4, ctx2))
    assert single.snapshot() == batched.snapshot()


def test_batched_beta_mismatch():
    ctx = exact_ctx(4, beta=2)
    pa = pack_matrices([np.eye(4)] * 2, ctx)
    ctx_b = exact_ctx(4)
    pb = encode_matrix(np.eye(4), ctx_b)
    with pytest.raises(CapacityError):
        he_mat_mult(pa, pb)


# ----------------------------------------------------------------- baselines

@pytest.mark.parametrize("h", [4, 8, 16])
def test_reference_paths_correct_and_dominated(h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    a = rng.standard_normal((h, h))
    b = rng.standard_normal((h, h))
    pa, pb = encode_matrix(a, ctx), encode_matrix(b, ctx)
    with ctx.meter_scope() as fast:
        he_mat_mult(pa, pb)
    with ctx.meter_scope() as naive:
        out_naive = references.naive_mat_mult(pa, pb)
    with ctx.meter_scope() as diag:
        out_diag = references.diagonal_mat_mult(pa, pb)
    assert np.allclose(decode_matrix(out_naive), a @ b, atol=1e-8)
    assert np.allclose(decode_matrix(out_diag), a @ b, atol=1e-8)
    assert naive.rotations > fast.rotations
    assert diag.rotations > fast.rotations


# adds / mul_pt / mul_ct / rotations / rescales of one product.
_REFERENCE_TALLIES = {
    "naive_mat_mult": {4: (123, 128, 4, 120, 9),
                       8: (1015, 1024, 8, 1008, 17),
                       16: (8175, 8192, 16, 8160, 33),
                       64: (524223, 524288, 64, 524160, 129)},
    "diagonal_mat_mult": {4: (55, 48, 16, 68, 13),
                          8: (239, 192, 64, 264, 25),
                          16: (991, 768, 256, 1040, 49),
                          64: (16255, 12288, 4096, 16448, 193)},
}


@pytest.mark.parametrize("h", [4, 8, 16, 64])
@pytest.mark.parametrize("name", sorted(_REFERENCE_TALLIES))
def test_reference_tallies_are_pinned(name, h):
    ctx = exact_ctx(h)
    rng = np.random.default_rng(h)
    a = rng.uniform(-3, 3, (h, h))
    b = rng.uniform(-3, 3, (h, h))
    a[1, :] = -0.0
    b[:, 0] = 0.0
    with ctx.meter_scope() as scope:
        out = getattr(references, name)(encode_matrix(a, ctx),
                                        encode_matrix(b, ctx))
    fields = ("adds", "mul_pt", "mul_ct", "rotations", "rescales")
    assert tuple(getattr(scope, f) for f in fields) == _REFERENCE_TALLIES[name][h]
    assert (scope.subs, scope.bootstraps, scope.keyswitches) == (0, 0, 0)
    assert np.allclose(decode_matrix(out), a @ b, atol=1e-8)


@pytest.mark.parametrize("name", sorted(_REFERENCE_TALLIES))
def test_repeated_reference_products_do_not_grow_the_chain_memo(name):
    # Each call builds fresh gather plans; the memo keys on their counts.
    ctx = exact_ctx(4)
    rng = np.random.default_rng(4)
    pa, pb = (encode_matrix(rng.uniform(-3, 3, (4, 4)), ctx) for _ in range(2))
    getattr(references, name)(pa, pb)
    size = len(ctx._chains)
    for _ in range(3):
        getattr(references, name)(pa, pb)
    assert len(ctx._chains) == size


def test_alternating_packing_analytic_values():
    assert references.alternating_packing_rotations(64, 64) == 768


def test_matmul_under_gaussian_noise_stays_close():
    h, sigma = 4, 1e-9
    ctx = engine.new_context(
        2 * h * h, 6, 2.0 ** 40, 1, noise_mode="gaussian", noise_sigma=sigma,
        noise_seed=7)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((h, h))
    b = rng.standard_normal((h, h))
    got = decode_matrix(he_mat_mult(encode_matrix(a, ctx),
                                    encode_matrix(b, ctx)))
    # h mul_ct noise injections plus encryption noise, all O(sigma)
    assert np.max(np.abs(got - a @ b)) < 1e-5


# ----------------------------------------------------------------- CSV forms

def _pad_pow2(values):
    side = next_pow2(max(np.shape(values)))
    return matrix.pad_matrix(values, side, side)


def test_pad_matrix_pow2():
    out = _pad_pow2(np.ones((3, 3)))
    assert out.shape == (4, 4)
    assert np.all(out[:3, :3] == 1) and np.all(out[3:, :] == 0)
    assert _pad_pow2(np.ones((4, 4))).shape == (4, 4)
    assert _pad_pow2(np.ones((1, 5))).shape == (8, 8)
    assert matrix.pad_matrix(np.ones((2, 3)), 2, 5).tolist() == \
        [[1, 1, 1, 0, 0], [1, 1, 1, 0, 0]]
    for bad in (np.ones((3, 3)), np.ones((2, 6)), np.ones(4)):
        with pytest.raises(CapacityError, match="does not fit"):
            matrix.pad_matrix(bad, 2, 5)


def test_padded_odd_dims_product_round_trip():
    a = np.arange(9.0).reshape(3, 3)
    b = np.arange(9.0, 18.0).reshape(3, 3)
    pa, pb = _pad_pow2(a), _pad_pow2(b)
    ctx = exact_ctx(4)
    got = decode_matrix(he_mat_mult(encode_matrix(pa, ctx),
                                    encode_matrix(pb, ctx)))[:3, :3]
    assert np.allclose(got, a @ b, atol=1e-9)


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 5))
    text = matrix.matrix_to_csv(a)
    back = matrix.matrix_from_csv(text)
    assert np.array_equal(a, back)


def test_matrix_csv_malformed():
    with pytest.raises(ValueError):
        matrix.matrix_from_csv("1.0,2.0\n3.0,oops\n")
