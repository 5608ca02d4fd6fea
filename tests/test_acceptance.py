"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
verdict lines as they complete.
"""

import itertools
import json
import time

import numpy as np

from packedhe import engine, matrix, references
from packedhe.approx import (CompositePolySpec, app_abs, app_max,
                             closeness_grid, depth_bound_formula,
                             eval_composite, eval_gd,
                             make_local_bootstrapper, min_depth, pd_constant)
from packedhe.engine import MissingPartyError
from packedhe.federated.config import (ActivationConfig, TrainingConfig,
                                       make_synthetic_classification,
                                       split_parties)
from packedhe.federated.protocol import (GradientMsg, aggregate, prepare,
                                         run_training)
from packedhe.matrix import (apply_permutation, build_permutation,
                             decode_matrix, encode_matrix, encode_rect_matrix,
                             he_mat_mult, he_rect_mat_mult, he_transpose,
                             pack_matrices)


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num}: {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def exact_ctx(h, beta=1, parties=1):
    return engine.new_context(2 * beta * h * h, 6, 2.0 ** 40, parties)


def test_criterion_1_matmul_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst_ratio = 0.0
    for h in (2, 4, 8, 16):
        ctx = exact_ctx(h)
        for _ in range(1000):
            a = rng.uniform(-10, 10, (h, h))
            b = rng.uniform(-10, 10, (h, h))
            got = decode_matrix(he_mat_mult(encode_matrix(a, ctx),
                                            encode_matrix(b, ctx)))
            err = np.max(np.abs(got - a @ b))
            tol = 1e-9 * h * max(np.max(np.abs(a)), np.max(np.abs(b))) ** 2
            worst_ratio = max(worst_ratio, err / tol)
            if err > tol:
                _verdict(1, "matrix product matches the plain oracle", False,
                         f"h={h} err={err:.3e} tol={tol:.3e}")
    elapsed = time.monotonic() - start
    _verdict(1, "1000 random products per h in {2,4,8,16} within tolerance",
             worst_ratio <= 1.0 and elapsed <= 60.0,
             f"worst err/tol={worst_ratio:.3e}, {elapsed:.1f}s")


def test_criterion_2_op_count_reproduction():
    rng = np.random.default_rng(1002)
    ok = True
    details = []
    for h in (4, 16, 64):
        ctx = exact_ctx(h)
        pa = encode_matrix(rng.standard_normal((h, h)), ctx)
        pb = encode_matrix(rng.standard_normal((h, h)), ctx)
        with ctx.meter_scope() as scope:
            he_mat_mult(pa, pb)
        root = int(np.sqrt(h))
        ok &= scope.adds + scope.subs <= 6 * h
        ok &= scope.mul_pt <= 4 * h
        ok &= scope.rotations <= 3 * h + 5 * root
        ok &= scope.mul_ct == h
        details.append(f"h={h}: rot={scope.rotations}")
        if h == 64:
            ok &= scope.rotations == 232
    analytic = references.alternating_packing_rotations(64, 64)
    ok &= analytic == 768
    details.append(f"replication-packing analytic={analytic}")
    _verdict(2, "op-count table holds; 232 rotations at h=64; analytic row 768",
             ok, "; ".join(details))


def test_criterion_3_baseline_dominance():
    rng = np.random.default_rng(1003)
    ok = True
    details = []
    for h in (4, 8, 16, 64):
        ctx = exact_ctx(h)
        pa = encode_matrix(rng.standard_normal((h, h)), ctx)
        pb = encode_matrix(rng.standard_normal((h, h)), ctx)
        with ctx.meter_scope() as fast:
            he_mat_mult(pa, pb)
        with ctx.meter_scope() as naive:
            references.naive_mat_mult(pa, pb)
        with ctx.meter_scope() as diag:
            references.diagonal_mat_mult(pa, pb)
        ok &= naive.rotations > fast.rotations
        ok &= diag.rotations > fast.rotations
        details.append(f"h={h}: {fast.rotations} < "
                       f"{diag.rotations}/{naive.rotations}")
    _verdict(3, "naive and diagonal reference rotations strictly larger", ok,
             "; ".join(details))


def test_criterion_4_worked_example_fidelity():
    tokens = np.arange(9, dtype=np.float64)
    sigma = build_permutation("sigma_mu", 3)
    tau = build_permutation("tau_zeta", 3)
    checks = []

    step11 = apply_permutation(sigma, tokens).astype(int).tolist()
    checks.append(step11 == [0, 1, 2, 4, 5, 3, 8, 6, 7])
    step12 = apply_permutation(tau, tokens).astype(int).tolist()
    checks.append(step12 == [0, 4, 8, 3, 7, 2, 6, 1, 5])

    d = {k: v.astype(int).tolist() for k, v in sigma.diagonals.items()}
    checks.append(d[-2] == [0, 0, 0, 0, 0, 1, 0, 0, 0])
    checks.append(d[-1] == [0, 0, 0, 0, 0, 0, 0, 1, 1])
    checks.append(d[0] == [1, 1, 1, 0, 0, 0, 0, 0, 0])
    checks.append(d[1] == [0, 0, 0, 1, 1, 0, 0, 0, 0])
    checks.append(d[2] == [0, 0, 0, 0, 0, 0, 1, 0, 0])
    z = {k: v.astype(int).tolist() for k, v in tau.diagonals.items()}
    checks.append(z[0] == [1, 0, 0, 1, 0, 0, 1, 0, 0])
    checks.append(z[3] == [0, 1, 0, 0, 1, 0, 0, 1, 0])
    checks.append(z[6] == [0, 0, 1, 0, 0, 1, 0, 0, 1])

    v1 = build_permutation("col_shift", 3, 1).diagonals
    v2 = build_permutation("col_shift", 3, 2).diagonals
    checks.append(v1[1].astype(int).tolist() == [1, 1, 0, 1, 1, 0, 1, 1, 0])
    checks.append(v1[-2].astype(int).tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1])
    checks.append(v2[2].astype(int).tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0])
    checks.append(v2[-1].astype(int).tolist() == [0, 1, 1, 0, 1, 1, 0, 1, 1])
    p1 = build_permutation("row_shift", 3, 1).diagonals
    p2 = build_permutation("row_shift", 3, 2).diagonals
    checks.append(p1[3].astype(int).tolist() == [1] * 9)
    checks.append(p2[6].astype(int).tolist() == [1] * 9)

    shift_a1 = apply_permutation(build_permutation("col_shift", 3, 1), step11)
    shift_a2 = apply_permutation(build_permutation("col_shift", 3, 2), step11)
    shift_b1 = apply_permutation(build_permutation("row_shift", 3, 1), step12)
    shift_b2 = apply_permutation(build_permutation("row_shift", 3, 2), step12)
    checks.append(shift_a1.astype(int).tolist() == [1, 2, 0, 5, 3, 4, 6, 7, 8])
    checks.append(shift_a2.astype(int).tolist() == [2, 0, 1, 3, 4, 5, 7, 8, 6])
    checks.append(shift_b1.astype(int).tolist() == [3, 7, 2, 6, 1, 5, 0, 4, 8])
    checks.append(shift_b2.astype(int).tolist() == [6, 1, 5, 0, 4, 8, 3, 7, 2])

    # the full masked-product pipeline reproduces the 3x3 product
    rng = np.random.default_rng(1004)
    a = rng.integers(-4, 5, (3, 3)).astype(float)
    b = rng.integers(-4, 5, (3, 3)).astype(float)
    sa = apply_permutation(sigma, a.ravel())
    sb = apply_permutation(tau, b.ravel())
    total = sa * sb
    for k in (1, 2):
        pa = apply_permutation(build_permutation("col_shift", 3, k), sa)
        pb = apply_permutation(build_permutation("row_shift", 3, k), sb)
        total = total + pa * pb
    checks.append(np.array_equal(total.reshape(3, 3), a @ b))

    _verdict(4, "3x3 symbolic pipeline reproduces every printed intermediate",
             all(checks), f"{sum(checks)}/{len(checks)} intermediates exact")


def test_criterion_5_transpose_and_rectangular():
    rng = np.random.default_rng(1005)
    ok = True
    for h in (2, 4, 8, 16):
        ctx = exact_ctx(h)
        for _ in range(50):
            a = rng.standard_normal((h, h))
            got = decode_matrix(he_transpose(encode_matrix(a, ctx)))
            ok &= bool(np.allclose(got, a.T, atol=1e-9))
    details = ["transpose 200 matrices"]

    for t, h in ((1, 4), (2, 8), (4, 8)):
        ctx = exact_ctx(h)
        a = rng.uniform(-3, 3, (t, h))
        b = rng.uniform(-3, 3, (h, h))
        with ctx.meter_scope() as scope:
            out = he_rect_mat_mult(encode_rect_matrix(a, ctx),
                                   encode_matrix(b, ctx))
        img = decode_matrix(matrix.PackedMatrix(out.ct, h, h, 1))
        expect = a @ b
        for copy in range(h // t):
            ok &= bool(np.allclose(img[copy * t:(copy + 1) * t], expect,
                                   atol=1e-9))
        ok &= scope.mul_ct == t
        details.append(f"rect t={t},h={h} mul_ct={scope.mul_ct}")

    beta, h = 4, 4
    ctx = exact_ctx(h, beta=beta)
    mats_a = [rng.standard_normal((h, h)) for _ in range(beta)]
    mats_b = [rng.standard_normal((h, h)) for _ in range(beta)]
    with ctx.meter_scope() as batched:
        out = he_mat_mult(pack_matrices(mats_a, ctx),
                          pack_matrices(mats_b, ctx))
    for slot in range(beta):
        ok &= bool(np.allclose(decode_matrix(out, slot),
                               mats_a[slot] @ mats_b[slot], atol=1e-9))
    ctx_single = exact_ctx(h)
    with ctx_single.meter_scope() as single:
        he_mat_mult(encode_matrix(mats_a[0], ctx_single),
                    encode_matrix(mats_b[0], ctx_single))
    ok &= batched.snapshot() == single.snapshot()
    details.append("batched beta=4 single-call tallies")
    _verdict(5, "transpose, rectangular and batched products verified", ok,
             "; ".join(details))


def test_criterion_6_sign_approximation():
    start = time.monotonic()
    d, sigma, delta = 4, 20.0, 2.0 ** -20
    k = min_depth(d, sigma, delta)
    bound = depth_bound_formula(d, sigma, delta, slack=2)
    spec = CompositePolySpec.with_depth(d, k)
    grid = closeness_grid(delta)
    err = float(np.max(np.abs(eval_composite(grid, spec) - 1.0)))
    ok = err <= 2.0 ** -sigma and k <= bound

    lemma_ok = True
    m_full = np.linspace(0.0, 1.0, 10_000)
    m_edge = np.linspace(0.5, 1.0, 10_000)
    for dd in (1, 2, 3, 4):
        gap = 1.0 - eval_gd(m_full, dd)
        lemma_ok &= bool(np.min(gap) >= -1e-12)
        lemma_ok &= bool(np.all(gap <= (1.0 - m_full) ** pd_constant(dd) + 1e-12))
        gap_edge = 1.0 - eval_gd(m_edge, dd)
        lemma_ok &= bool(np.all(
            gap_edge <= 2.0 ** dd * (1.0 - m_edge) ** (dd + 1) + 1e-12))
    elapsed = time.monotonic() - start
    _verdict(6, "closeness within 2**-20, depth within bound, gap lemmas hold",
             ok and lemma_ok and elapsed <= 120.0,
             f"k={k} bound={bound} err={err:.3e} {elapsed:.1f}s")


def test_criterion_7_max_relu_abs():
    rng = np.random.default_rng(1007)
    spec = CompositePolySpec.for_closeness(4, 20.0, 2.0 ** -20)
    tol = 2.0 ** -20
    n_pairs = 10_000
    a = rng.uniform(0, 1, n_pairs)
    b = rng.uniform(0, 1, n_pairs)

    ctx = engine.new_context(2 ** 13, 6, 2.0 ** 40, 2)
    refresh = make_local_bootstrapper(ctx)
    worst_max = worst_abs = 0.0
    for lo in range(0, n_pairs, ctx.slot_count):
        hi = min(lo + ctx.slot_count, n_pairs)
        ct_a = ctx.encrypt(ctx.encode(a[lo:hi]))
        ct_b = ctx.encrypt(ctx.encode(b[lo:hi]))
        got = ctx.decode(ctx.ddec(app_max(ct_a, ct_b, spec, ctx, refresh),
                                  ctx.parties))[: hi - lo]
        worst_max = max(worst_max,
                        float(np.max(np.abs(got - np.maximum(a[lo:hi],
                                                             b[lo:hi])))))
        diff = a[lo:hi] - b[lo:hi]
        ct_d = ctx.encrypt(ctx.encode(diff))
        got_abs = ctx.decode(ctx.ddec(app_abs(ct_d, spec, ctx, refresh),
                                      ctx.parties))[: hi - lo]
        worst_abs = max(worst_abs,
                        float(np.max(np.abs(got_abs - np.abs(diff)))))

    ties = rng.uniform(0, 1, 64)
    ct_t = ctx.encrypt(ctx.encode(ties))
    tie_out = ctx.decode(ctx.ddec(app_max(ct_t, ct_t, spec, ctx, refresh),
                                  ctx.parties))[:64]
    ties_exact = bool(np.array_equal(tie_out, ties))

    ok = worst_max <= tol and worst_abs <= tol and ties_exact
    _verdict(7, "10^4 normalized max/abs pairs within 2**-20; ties exact", ok,
             f"max_err={worst_max:.3e} abs_err={worst_abs:.3e}")


def test_criterion_8_mirror_oracle_training():
    start = time.monotonic()
    x, y = make_synthetic_classification(samples=699, features=9, classes=2,
                                         seed=42, separation=3.0)
    shards = split_parties(x, y, 3, seed=0)
    act = ActivationConfig(kind="approx_relu", d=4, sigma=20.0,
                           delta=2.0 ** -20, input_range=32.0)
    config = TrainingConfig(neurons=(16, 2), learning_rate=0.1,
                            global_iters=100, batch_size=8, party_count=3,
                            activation=act, seed=1)
    result = run_training(config, shards)

    worst_rel = 0.0
    for round_ct, round_pl in zip(result.ct_trajectory,
                                  result.mirror_trajectory):
        for a, b in zip(round_ct, round_pl):
            rel = np.max(np.abs(a - b) / (np.abs(b) + 1e-9))
            worst_rel = max(worst_rel, float(rel))
    delta = result.accuracy_delta
    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-6 and delta <= 0.02 and elapsed <= 600.0
    _verdict(8, "100-round encrypted run tracks the plaintext mirror", ok,
             f"worst_rel={worst_rel:.2e} acc_delta={delta:.4f} "
             f"acc={result.metrics['final']['accuracy']:.4f} {elapsed:.0f}s")


def test_criterion_9_protocol_contracts():
    ok = True
    ctx = engine.new_context(64, 6, 2.0 ** 40, 3)
    ct = ctx.encrypt(ctx.encode([1.0, 2.0]))
    parties = list(ctx.parties)
    for r in range(3):
        for subset in itertools.combinations(parties, r):
            for op in (lambda s: ctx.ddec(ct, s),
                       lambda s: ctx.dbootstrap(ct, s),
                       lambda s: ctx.dkey_switch(ct, ctx.SERVER_KEY, s)):
                try:
                    op(list(subset))
                    ok = False
                except MissingPartyError:
                    pass

    config = TrainingConfig(neurons=(2,), learning_rate=0.1, global_iters=1,
                            batch_size=2, party_count=3, seed=3)
    server, _ = prepare(config, feature_dim=2)
    zero = np.zeros((server.plan.h, server.plan.h))
    msgs = [GradientMsg(p, 0, [encode_matrix(zero, server.ctx)])
            for p in range(2)]
    try:
        aggregate(server, msgs)
        ok = False
    except MissingPartyError:
        pass

    x, y = make_synthetic_classification(samples=24, features=3, classes=2,
                                         seed=9)
    shards = split_parties(x, y, 2, seed=1)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    cfg = TrainingConfig(neurons=(4, 2), learning_rate=0.1, global_iters=2,
                         batch_size=4, party_count=2, activation=act, seed=5)
    res_q = run_training(cfg, shards, transport="in_process")
    res_t = run_training(cfg, shards, transport="tcp")
    for a_round, b_round in zip(res_q.ct_trajectory, res_t.ct_trajectory):
        for a, b in zip(a_round, b_round):
            ok &= bool(np.array_equal(a, b))
    ok &= res_q.metrics["final"]["bytes_tx_total"] == \
        res_t.metrics["final"]["bytes_tx_total"]
    ok &= res_q.metrics["final"]["bytes_rx_total"] == \
        res_t.metrics["final"]["bytes_rx_total"]
    ok &= res_q.metrics["final"]["bytes_tx_total"] == \
        res_q.metrics["final"]["bytes_rx_total"]
    _verdict(9, "N-of-N rejections; transports agree on trajectory and bytes",
             ok, f"bytes={res_q.metrics['final']['bytes_tx_total']}")


def test_criterion_10_determinism():
    x, y = make_synthetic_classification(samples=30, features=4, classes=2,
                                         seed=12)
    shards = split_parties(x, y, 2, seed=2)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    cfg = TrainingConfig(neurons=(4, 2), learning_rate=0.1, global_iters=3,
                         batch_size=4, party_count=2, activation=act, seed=21)
    blob_a = json.dumps(run_training(cfg, shards).metrics,
                        sort_keys=True).encode()
    blob_b = json.dumps(run_training(cfg, shards).metrics,
                        sort_keys=True).encode()
    _verdict(10, "fixed-seed metrics JSON byte-identical across runs",
             blob_a == blob_b, f"{len(blob_a)} bytes")
