"""Federated protocol: preparation, local passes, aggregation, training runs."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from packedhe import matrix
from packedhe.engine import MissingPartyError
from packedhe.estimator import FederatedPolyMLP, NotFittedError
from packedhe.federated.config import (ActivationConfig, TrainingConfig,
                                       config_from_dict, load_dataset_csv,
                                       make_synthetic_classification,
                                       save_dataset_csv, split_parties)
from packedhe.federated import protocol
from packedhe.federated.mirror import PlainPipeline
from packedhe.federated.protocol import (GradientMsg, ProtocolError, aggregate,
                                         build_schedule, decode_model,
                                         finalize, local_backward,
                                         local_forward, prepare, run_training)


def small_config(**kw):
    params = dict(neurons=(2,), learning_rate=0.1, global_iters=3,
                  batch_size=4, party_count=2, seed=5)
    params.update(kw)
    return TrainingConfig(**params)


def blob_data(samples=48, features=4, seed=0):
    return make_synthetic_classification(samples=samples, features=features,
                                         classes=2, seed=seed)


# -------------------------------------------------------------- preparation

def test_prepare_identical_models_across_parties():
    config = small_config(party_count=3, neurons=(4, 2))
    server, parties = prepare(config, feature_dim=4)
    assert len(parties) == 3
    for p in parties:
        assert len(p.model.weights) == 2
        for w_p, w_s in zip(p.model.weights, server.model.weights):
            assert np.array_equal(w_p.ct.slots, w_s.ct.slots)
            assert w_p.ct.key_tag == server.ctx.DEFAULT_KEY


def test_prepare_deterministic_under_seed():
    config = small_config()
    s1, _ = prepare(config, feature_dim=4)
    s2, _ = prepare(config, feature_dim=4)
    for a, b in zip(decode_model(s1), decode_model(s2)):
        assert np.array_equal(a, b)


def test_prepare_rejects_zero_parties():
    with pytest.raises(ValueError):
        small_config(party_count=0)


def test_weight_init_bounds():
    config = small_config(neurons=(8, 2), seed=11)
    server, _ = prepare(config, feature_dim=9)
    decoded = decode_model(server)
    first = decoded[0][:9, :8]
    assert np.max(np.abs(first)) <= 1.0 / 3.0  # 1/sqrt(9)
    assert np.max(np.abs(decoded[0][9:, :])) == 0  # padding stays zero


# ------------------------------------------------------------- local passes

def test_identity_network_forward_is_input():
    config = small_config(neurons=(4,), party_count=1, batch_size=4)
    server, (party,) = prepare(config, feature_dim=4)
    eye = np.eye(4)
    plan = server.plan
    server.model.weights[0] = matrix.encode_matrix(
        np.pad(eye, (0, plan.h - 4)), server.ctx)
    party.model = server.model.clone()
    batch = np.arange(16.0).reshape(4, 4) / 16.0
    trace = local_forward(party, batch)
    out = matrix.decode_matrix(
        matrix.PackedMatrix(trace.activations[-1].ct, plan.h, plan.h, 1))
    assert np.allclose(out[:4, :4], batch, atol=1e-9)


def test_forward_level_schedule():
    config = small_config(neurons=(4,), party_count=1)
    server, (party,) = prepare(config, feature_dim=4)
    with server.ctx.meter_scope() as scope:
        trace = local_forward(party, np.zeros((4, 4)))
    # rectangular product: 1 alignment rescale (the weight's tau_zeta; the
    # batch is encrypted sigma_mu-aligned) + one per shift stage + the final
    # sum; column mask adds one more; then the scheduled refresh restores
    # the full budget
    assert scope.rescales == 1 + server.plan.t + 1 + 1
    assert scope.bootstraps == 1
    assert trace.activations[-1].ct.level == server.ctx.initial_level


def test_backward_refreshes_an_error_image_once_for_its_two_products():
    # In the middle layer the error arrives from he_rect_mat_mult short of a
    # product's levels: one refresh serves its gradient and the error below.
    config = small_config(neurons=(6, 4, 2), party_count=1, seed=3)
    server, (party,) = prepare(config, feature_dim=5)
    x, y = blob_data(samples=4, features=5, seed=3)
    trace = local_forward(party, x)
    with server.ctx.meter_scope() as scope:
        local_backward(party, trace, y)
    assert scope.bootstraps == 1


def test_backward_zero_loss_zero_gradient():
    config = small_config(neurons=(2,), party_count=1, batch_size=2)
    server, (party,) = prepare(config, feature_dim=2)
    plan = server.plan
    # weights = identity so prediction == input; feed one-hot rows
    server.model.weights[0] = matrix.encode_matrix(
        np.pad(np.eye(2), (0, plan.h - 2)), server.ctx)
    party.model = server.model.clone()
    batch = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 1])
    trace = local_forward(party, batch)
    msg = local_backward(party, trace, labels)
    for g in msg.grads:
        img = matrix.decode_matrix(g)
        assert np.max(np.abs(img)) <= 1e-9


def test_backward_least_squares_gradient_oracle():
    config = small_config(neurons=(2,), party_count=1, batch_size=4, seed=3)
    server, (party,) = prepare(config, feature_dim=3)
    plan = server.plan
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 3))
    labels = np.array([0, 1, 1, 0])
    w_logical = decode_model(server)[0][:3, :2]
    trace = local_forward(party, x)
    msg = local_backward(party, trace, labels)
    got = matrix.decode_matrix(msg.grads[0])[:3, :2]

    y = np.zeros((4, 2))
    y[np.arange(4), labels] = 1.0
    expect = 2.0 * x.T @ (x @ w_logical - y)
    assert np.allclose(got, expect, atol=1e-6 * max(1.0, np.max(np.abs(expect))))


def test_backward_matches_mirror_two_layer():
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    config = small_config(neurons=(4, 2), party_count=1, batch_size=4,
                          activation=act)
    server, (party,) = prepare(config, feature_dim=3)
    x, y = blob_data(samples=4, features=3, seed=2)
    shards = [(x, y)]
    schedule = [[np.arange(4)]]
    mirror = PlainPipeline(config, server.plan, decode_model(server), shards,
                           schedule)
    trace = local_forward(party, x)
    msg = local_backward(party, trace, y)
    expected = mirror.party_gradients(0, np.arange(4))
    for g_ct, g_pl in zip(msg.grads, expected):
        got = matrix.decode_matrix(g_ct)
        assert np.allclose(got, g_pl, rtol=1e-6, atol=1e-9)


def test_forward_rejects_oversized_batch():
    config = small_config(neurons=(2,), party_count=1, batch_size=2)
    _, (party,) = prepare(config, feature_dim=2)
    with pytest.raises(ProtocolError):
        local_forward(party, np.zeros((5, 2)))
    # The padded side is 4 here, so a row of 1 or 3 values would fit it.
    _, (party,) = prepare(small_config(neurons=(4,), party_count=1,
                                       batch_size=2), feature_dim=2)
    for batch in (np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(2)):
        with pytest.raises(ProtocolError, match="features"):
            local_forward(party, batch)


# -------------------------------------------------------------- aggregation

def test_aggregate_update_rule_scalar_example():
    # one weight slot: w=1.0, sum grad=0.5, eta=0.1, batch=10, N=2
    config = small_config(neurons=(2,), party_count=2, batch_size=10,
                          learning_rate=0.1)
    server, parties = prepare(config, feature_dim=2)
    plan = server.plan
    ctx = server.ctx
    w = np.zeros((plan.h, plan.h))
    w[0, 0] = 1.0
    server.model.weights[0] = matrix.encode_matrix(w, ctx)
    g = np.zeros((plan.h, plan.h))
    g[0, 0] = 0.25
    msgs = [GradientMsg(p, 0, [matrix.encode_matrix(g, ctx)])
            for p in range(2)]
    aggregate(server, msgs)
    out = decode_model(server)[0]
    assert abs(out[0, 0] - (1.0 - 0.1 / (10 * 2) * 0.5)) < 1e-12
    assert out[0, 0] == 0.9975


def test_aggregate_zero_gradient_fixed_point():
    config = small_config(party_count=2)
    server, _ = prepare(config, feature_dim=2)
    before = decode_model(server)
    zero = np.zeros((server.plan.h, server.plan.h))
    msgs = [GradientMsg(p, 0, [matrix.encode_matrix(zero, server.ctx)])
            for p in range(2)]
    aggregate(server, msgs)
    for a, b in zip(before, decode_model(server)):
        assert np.allclose(a, b, atol=1e-12)


def test_aggregate_missing_party_stalls():
    config = small_config(party_count=3)
    server, _ = prepare(config, feature_dim=2)
    zero = np.zeros((server.plan.h, server.plan.h))
    msgs = [GradientMsg(p, 0, [matrix.encode_matrix(zero, server.ctx)])
            for p in range(2)]
    with pytest.raises(MissingPartyError):
        aggregate(server, msgs)


def test_aggregate_refuses_a_duplicate_message():
    # Accepted, the second copy would replace the first in the sum.
    config = small_config(party_count=2)
    server, _ = prepare(config, feature_dim=2)
    zero = np.zeros((server.plan.h, server.plan.h))
    msgs = [GradientMsg(p, 0, [matrix.encode_matrix(zero, server.ctx)])
            for p in range(2)]
    before = server.ctx.meter.snapshot()
    with pytest.raises(ProtocolError, match="party 1 sent more than one "
                       "gradient message in aggregation round 0"):
        aggregate(server, msgs + [msgs[1]])
    assert server.model.iteration == 0
    assert server.ctx.meter.snapshot() == before


def test_aggregate_iteration_mismatch():
    config = small_config(party_count=1)
    server, _ = prepare(config, feature_dim=2)
    zero = np.zeros((server.plan.h, server.plan.h))
    with pytest.raises(ProtocolError):
        aggregate(server, [GradientMsg(0, 3, [matrix.encode_matrix(
            zero, server.ctx)])])


# ----------------------------------------------------------------- finalize

def test_finalize_before_last_round_rejected():
    config = small_config(global_iters=5)
    server, _ = prepare(config, feature_dim=2)
    with pytest.raises(ProtocolError):
        finalize(server)


def test_finalize_preserves_values_and_unpads():
    config = small_config(global_iters=1, party_count=2, neurons=(3,))
    server, _ = prepare(config, feature_dim=5)
    before = decode_model(server)[0][:5, :3]
    zero = np.zeros((server.plan.h, server.plan.h))
    aggregate(server, [GradientMsg(p, 0, [matrix.encode_matrix(
        zero, server.ctx)]) for p in range(2)])
    out = finalize(server)
    assert out[0].shape == (5, 3)
    assert np.allclose(out[0], before, atol=1e-12)


def test_finalize_partial_roster_rejected():
    config = small_config(global_iters=0 + 1, party_count=3)
    server, _ = prepare(config, feature_dim=2)
    zero = np.zeros((server.plan.h, server.plan.h))
    aggregate(server, [GradientMsg(p, 0, [matrix.encode_matrix(
        zero, server.ctx)]) for p in range(3)])
    with pytest.raises(MissingPartyError):
        finalize(server, roster=server.ctx.parties[:2])


def test_key_hygiene_before_finalize():
    config = small_config(global_iters=1, party_count=2)
    server, parties = prepare(config, feature_dim=2)
    for w in server.model.weights:
        assert w.ct.key_tag == server.ctx.DEFAULT_KEY
    for p in parties:
        for w in p.model.weights:
            assert w.ct.key_tag == server.ctx.DEFAULT_KEY


# ------------------------------------------------------------ training runs

def test_single_party_separable_data_high_accuracy():
    rng = np.random.default_rng(21)
    n = 120
    labels = rng.integers(0, 2, n)
    x = np.where(labels[:, None] == 1, 2.0, -2.0) + rng.standard_normal((n, 2)) * 0.4
    config = TrainingConfig(neurons=(2,), learning_rate=0.05, global_iters=200,
                            batch_size=10, party_count=1, seed=2)
    result = run_training(config, [(x, labels)])
    assert result.metrics["final"]["train_acc"] >= 0.99


def test_three_parties_match_single_party_full_batch():
    x, y = blob_data(samples=24, features=4, seed=9)
    shards = split_parties(x, y, 3, seed=0)
    config3 = TrainingConfig(neurons=(2,), learning_rate=0.2, global_iters=6,
                             batch_size=8, party_count=3, seed=4)
    res3 = run_training(config3, shards)

    merged_x = np.concatenate([sx for sx, _ in shards])
    merged_y = np.concatenate([sy for _, sy in shards])
    config1 = TrainingConfig(neurons=(2,), learning_rate=0.2, global_iters=6,
                             batch_size=24, party_count=1, seed=4)
    res1 = run_training(config1, [(merged_x, merged_y)])
    for w3, w1 in zip(res3.final_weights, res1.final_weights):
        assert np.allclose(w3, w1, rtol=1e-6, atol=1e-9)


def test_training_rejects_a_test_set_of_another_width():
    x, y = blob_data(samples=16, features=3, seed=1)
    config = small_config(party_count=1)
    for bad in (x[:, :1], np.hstack([x, x[:, :1]])):
        with pytest.raises(ProtocolError, match="test set"):
            run_training(config, [(x, y)], test_set=(bad, y))


def test_fixed_seed_identical_metrics():
    x, y = blob_data(samples=30, features=3, seed=1)
    config = small_config(party_count=2, global_iters=3)
    shards = split_parties(x, y, 2, seed=0)
    m1 = run_training(config, shards).metrics
    m2 = run_training(config, shards).metrics
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def test_final_metrics_reuse_last_round_decode(monkeypatch):
    x, y = blob_data(samples=30, features=3, seed=1)
    config = small_config(party_count=2, global_iters=3)
    shards = split_parties(x, y, 2, seed=0)
    decoded = []
    real = protocol.decode_model
    monkeypatch.setattr(protocol, "decode_model",
                        lambda server: decoded.append(1) or real(server))
    result = run_training(config, shards, test_set=(x[:10], y[:10]))
    assert len(decoded) == config.global_iters + 1
    final, last = result.metrics["final"], result.metrics["rounds"][-1]
    assert final["train_acc"] == last["train_acc"]
    assert final["test_acc"] == final["accuracy"] == last["test_acc"]


def test_mirror_equivalence_short_relu_run():
    x, y = blob_data(samples=36, features=5, seed=6)
    act = ActivationConfig(kind="approx_relu", d=4, sigma=20.0,
                           delta=2.0 ** -20, input_range=32.0)
    config = TrainingConfig(neurons=(8, 2), learning_rate=0.1, global_iters=3,
                            batch_size=6, party_count=2, activation=act, seed=8)
    result = run_training(config, split_parties(x, y, 2, seed=3))
    for round_ct, round_pl in zip(result.ct_trajectory,
                                  result.mirror_trajectory):
        for a, b in zip(round_ct, round_pl):
            assert np.allclose(a, b, rtol=1e-6, atol=1e-9)


def _full_width_scores(weights, plan, activation, x):
    """The accuracy pass with the activation on every padded column."""
    m = matrix.pad_matrix(x, len(x), plan.h)
    for j, w in enumerate(weights):
        m, _ = activation(m @ w)
        m = m * plan.col_masks[j]
    return m[:, : plan.classes]


@pytest.mark.parametrize("kind", ["identity", "approx_relu", "approx_sigmoid"])
@pytest.mark.parametrize("exact", [False, True])
def test_scores_equal_the_full_width_pass(kind, exact):
    from packedhe.federated.mirror import PlainActivation, scores_with_weights
    from packedhe.federated.protocol import build_plan, init_weights
    config = small_config(neurons=(6, 5, 3),
                          activation=ActivationConfig(kind=kind, input_range=4.0))
    x, _ = blob_data(samples=50, features=5, seed=9)
    plan = build_plan(config, 5)
    logical, _ = init_weights(config, 5)
    weights = [matrix.pad_matrix(w, plan.h, plan.h) for w in logical]
    activation = PlainActivation(config.activation, exact)
    got = scores_with_weights(weights, plan, activation, x)
    want = _full_width_scores(weights, plan, activation, x)
    assert got.shape == (50, 3)
    assert got.tobytes() == want.tobytes()


def _one_product_scores(weights, plan, activation, x):
    """The accuracy pass with each layer's product as one ``@``."""
    m = matrix.pad_matrix(x, len(x), plan.h)
    for w, n in zip(weights, plan.neurons):
        e = m @ w
        m = np.zeros_like(e)
        m[:, :n], _ = activation(e[:, :n])
    return m[:, : plan.classes]


def test_blocked_scores_equal_one_product_per_layer():
    from packedhe.federated import mirror
    x, y = make_synthetic_classification(600, 60, 2, seed=7)
    est = FederatedPolyMLP(hidden_neurons=(32,), activation="identity",
                           rounds=1, parties=2, batch_size=16, seed=7).fit(x, y)
    assert est.plan_.h == 64
    # The pass is blocked: 600 rows of a 64 x 64 product exceed the budget.
    assert 600 * 64 * 64 > mirror._MATMUL_BUDGET
    want = _one_product_scores(est.weights_, est.plan_, est._activation, x)
    assert est.decision_function(x).tobytes() == want.tobytes()
    for kind in ("approx_relu", "approx_sigmoid"):
        activation = mirror.PlainActivation(ActivationConfig(kind=kind))
        got = mirror.scores_with_weights(est.weights_, est.plan_, activation, x)
        want = _one_product_scores(est.weights_, est.plan_, activation, x)
        assert got.tobytes() == want.tobytes()


_IDLE_WORKER_JOB = """
import os, threading, time
from packedhe.federated import config as fc, protocol

def cpu_ns(tids):
    out = {}
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/schedstat") as fh:
                out[tid] = int(fh.read().split()[0])
        except FileNotFoundError:   # the thread has ended
            pass
    return out

x, y = fc.make_synthetic_classification(600, 60, 2, seed=3)
shards = fc.split_parties(x, y, 2, seed=3)
config = fc.TrainingConfig(neurons=(32, 2), learning_rate=0.1, global_iters=3,
                           batch_size=16, party_count=2, seed=3,
                           activation=fc.ActivationConfig(kind="identity"))
time.sleep(0.5)
main = threading.get_native_id()
before = cpu_ns(t for t in os.listdir("/proc/self/task") if int(t) != main)
protocol.run_training(config, shards)
time.sleep(0.3)     # a spinning worker goes on after the job's last product
after = cpu_ns(before)
print(sum(after[t] - before[t] for t in after) / 1e6)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/task/%d/schedstat"
                                       % threading.get_native_id()),
                    reason="needs per-thread CPU times in /proc")
def test_no_blas_worker_runs_during_a_wide_job():
    # The threads that exist before the job, the main thread aside, are
    # the BLAS library's workers.  A product large enough for OpenBLAS to
    # thread leaves one spinning: about 140 ms of CPU on a 2-vCPU VM.
    import packedhe
    src = os.path.dirname(os.path.dirname(packedhe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IDLE_WORKER_JOB], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert float(out.stdout) < 10.0


@pytest.fixture(scope="module")
def benchmark_runs():
    """The ``TrainingResult`` of one run per shape, transport and seed at a
    benchmark shape; the seed seeds the data, the split and the config."""
    # relu: two parties, h = 16, t = 8, two approx_relu layers of 8 + 2
    # stages each.  wide: two parties, h = 64, t = 16, identity activation.
    shapes = {
        "relu": (699, 9, (16, 2), 8, ActivationConfig(
            kind="approx_relu", d=4, sigma=20.0, delta=2.0 ** -20)),
        "wide": (600, 60, (32, 2), 16, ActivationConfig(kind="identity")),
    }
    runs = {}

    def result(shape, transport, seed=1):
        if (shape, transport, seed) not in runs:
            samples, features, neurons, batch, act = shapes[shape]
            x, y = make_synthetic_classification(samples, features,
                                                 neurons[-1], seed=seed)
            config = TrainingConfig(neurons=neurons, learning_rate=0.1,
                                    global_iters=2, batch_size=batch,
                                    party_count=2, activation=act, seed=seed)
            runs[shape, transport, seed] = run_training(
                config, split_parties(x, y, 2, seed=seed),
                transport=transport)
        return runs[shape, transport, seed]
    return result


@pytest.fixture(scope="module")
def benchmark_metrics(benchmark_runs):
    """``metrics`` of the seed-1 run of a shape and transport."""
    return lambda shape, transport: benchmark_runs(shape, transport).metrics


def _assert_round_counts(metrics, other, expected):
    """Every round books ``expected`` (bootstraps, mul_ct, mul_pt, rotations,
    rescales), and ``other``, the same job over the other transport, books the same."""
    rounds = metrics["rounds"]
    prev = dict.fromkeys(rounds[0]["ops"], 0)
    for r in rounds:
        per_round = {k: r["ops"][k] - prev[k] for k in prev}
        prev = r["ops"]
        assert (per_round["bootstraps"], per_round["mul_ct"],
                per_round["mul_pt"], per_round["rotations"],
                per_round["rescales"]) == expected
    # TCP parties meter in their own processes and report to the server,
    # and only the server end of a TCP link counts bytes: every node's ops
    # and every frame still land in the same round.
    assert [(r["ops"], r["bytes_tx"], r["bytes_rx"]) for r in rounds] == \
        [(r["ops"], r["bytes_tx"], r["bytes_rx"]) for r in other["rounds"]]
    assert json.dumps({**metrics, "transport": None}, sort_keys=True) == \
        json.dumps({**other, "transport": None}, sort_keys=True)


def _other(transport):
    return "tcp" if transport == "in_process" else "in_process"


# Per round, each of 2 parties takes 2 weight gradients, each t stages of
# the product core, t ct products and 3t stage rotations: layer 1's is a
# he_rect_tn_mult, layer 0's a he_rect_at_mult of the batch's transposed
# image, with no homomorphic transpose.  Each approx_relu activation
# refreshes its sign once and the layer output once, besides its sign
# stages.  The server tau_zeta-aligns each of the 2 weights once a round;
# the parties encrypt their batch images sigma_mu-aligned and align no
# weight, so their products take 2 sigma alignments and 3 tau alignments
# fewer each: 80 rotations, 192 pt mults and 8 rescales fewer than with
# every alignment in the products at h = 16, and 160, 768 and 8 at h = 64.
# The stacked right factor of each gradient (the error image, t x h) takes
# the row-periodic tau_zeta, t diagonals instead of h, and layer 1's left
# factor is T(tau_zeta) of the activation instead of sigma_mu(T): per
# party, 10 rotations and 40 pt mults fewer at h = 16, t = 8, and 32 and
# 208 at h = 64, t = 16.
@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_relu_round_counts_at_benchmark_shape(transport, benchmark_metrics):
    _assert_round_counts(benchmark_metrics("relu", transport),
                         benchmark_metrics("relu", _other(transport)),
                         (52, 248, 480, 358, 406))


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_wide_round_counts_at_benchmark_shape(transport, benchmark_metrics):
    _assert_round_counts(benchmark_metrics("wide", transport),
                         benchmark_metrics("wide", _other(transport)),
                         (8, 160, 1144, 700, 190))


def test_relu_rotations_per_round_grow_by_one_party_s_work():
    # No party aligns a weight, and the server's refresh aligns each weight
    # at no rotation, so per-round rotations are one party's times the
    # party count: a round with no party would cost none.
    act = ActivationConfig(kind="approx_relu", d=4, sigma=20.0,
                           delta=2.0 ** -20)
    rotations = []
    for parties in (1, 2, 3):
        x, y = make_synthetic_classification(16 * parties, 9, 2, seed=1)
        config = TrainingConfig(neurons=(16, 2), learning_rate=0.1,
                                global_iters=1, batch_size=8,
                                party_count=parties, activation=act, seed=1)
        result = run_training(config, split_parties(x, y, parties, seed=1))
        rotations.append(result.metrics["rounds"][0]["ops"]["rotations"])
    per_party = rotations[1] - rotations[0]
    assert rotations[2] - rotations[1] == per_party
    assert rotations[0] == per_party == 179
    assert rotations[1] == 358


def test_a_twelve_round_job_keeps_its_weight_levels(monkeypatch):
    # The server keeps each weight as w - update, unrefreshed: a sub takes
    # no level, so from round 1 on a weight stays at its update's level.
    # Every weight on the wire is a refresh's, or round 0's encryption, in
    # tau_zeta form at the initial level and the context scale.
    from packedhe.federated.protocol import ServerRuntime
    real = ServerRuntime.broadcast_model
    seen = []

    def broadcast_model(runtime, round_no):
        server = runtime.server
        seen.append(([w.ct.level for w in server.model.weights],
                     {(w.ct.level, w.ct.scale, w.form)
                      for w in server.broadcast}))
        real(runtime, round_no)
    monkeypatch.setattr(ServerRuntime, "broadcast_model", broadcast_model)
    x, y = blob_data(samples=40, features=3, seed=4)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    config = small_config(party_count=2, global_iters=12, neurons=(4, 2),
                          activation=act)
    result = run_training(config, split_parties(x, y, 2, seed=4))
    ctx = result.context
    assert len(seen) == 12
    assert seen[0][0] == [ctx.initial_level] * 2
    for _, broadcast in seen:
        assert broadcast == {(ctx.initial_level, ctx.initial_scale,
                              "tau_zeta")}
    levels = seen[1][0]
    assert [lv for lv, _ in seen[1:]] == [levels] * 11
    assert max(levels) < ctx.initial_level
    for round_ct, round_pl in zip(result.ct_trajectory,
                                  result.mirror_trajectory):
        for a, b in zip(round_ct, round_pl):
            assert np.allclose(a, b, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("seed, correct", [(1, 360), (2, 459)])
def test_relu_trajectory_is_one_on_both_transports(seed, correct,
                                                   benchmark_runs):
    # The 1/2 and the 2 folded into the masks are powers of two and the
    # masks hold 0 and 1, so each value equals that of two separate
    # multiplies, and the final accuracy, correct / 699 samples, is the one
    # a pass with separate multiplies gives.
    runs = [benchmark_runs("relu", transport, seed)
            for transport in ("in_process", "tcp")]
    for res in runs:
        assert res.metrics["final"]["accuracy"] == correct / 699
        for round_ct, round_pl in zip(res.ct_trajectory,
                                      res.mirror_trajectory):
            for a, b in zip(round_ct, round_pl):
                assert np.allclose(a, b, rtol=1e-6, atol=1e-9)
    for round_q, round_t in zip(*(res.ct_trajectory for res in runs)):
        for a, b in zip(round_q, round_t):
            assert a.tobytes() == b.tobytes()


def test_one_relu_activation_refreshes_its_sign_once():
    # Besides its sign stages, the activation refreshes s once, for both
    # the product e*s and the gate; m leaves it masked, its 1/2 folded into
    # the mask, and equals the mirror's activation times the mask bit for
    # bit.
    from packedhe.approx import app_sign, make_local_bootstrapper
    from packedhe.engine import SlotVector
    from packedhe.federated.mirror import PlainActivation
    act = ActivationConfig(kind="approx_relu", d=4, sigma=20.0,
                           delta=2.0 ** -20)
    config = small_config(neurons=(16, 2), batch_size=8, activation=act)
    server, (party, _) = prepare(config, feature_dim=9)
    ctx, plan = server.ctx, server.plan
    values = np.random.default_rng(3).uniform(
        -act.input_range, act.input_range, ctx.slot_count)
    # at the level a layer's product leaves
    e = SlotVector(values, ctx.initial_level - matrix.PRODUCT_DEPTH,
                   ctx.initial_scale, ctx.context_id, ctx.DEFAULT_KEY)
    refreshed = []
    local = make_local_bootstrapper(ctx)

    def bootstrap(ct):
        refreshed.append(ct)
        return local(ct)
    comp = protocol._Compute(ctx, bootstrap)
    activation = protocol.CipherActivation(config, party.consts)
    with ctx.meter_scope() as scope:
        m, gate = activation(comp, e, 0)
    booked = len(refreshed)
    refreshed.clear()
    app_sign(comp.mul_const(e, party.consts.relu_range), activation.spec,
             ctx, bootstrap)
    assert booked == scope.bootstraps == len(refreshed) + 1
    want_m, want_gate = PlainActivation(act)(values)
    assert m.slots.tobytes() == \
        (want_m * np.tile(plan.col_masks[0], plan.h)).tobytes()
    assert gate.slots.tobytes() == want_gate.tobytes()


@pytest.mark.parametrize("neurons, per_round", [((6, 2), 44),
                                               ((8, 6, 2), 67)])
def test_a_layer_output_is_refreshed_only_when_short(neurons, per_round,
                                                     monkeypatch):
    # With a d = 2 sign, m leaves its activation at level 5, more than any
    # consumer takes (PRODUCT_DEPTH + 1), so no layer refreshes it: one
    # refresh fewer per party and layer than a refresh of every layer
    # output (48 and 73).
    x, y = blob_data(samples=20, features=3, seed=15)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    config = small_config(party_count=2, global_iters=3, neurons=neurons,
                          activation=act)
    refreshed = []
    real = protocol._ensure_level

    def ensure_level(ctx, ct, need, bootstrap):
        out = real(ctx, ct, need, bootstrap)
        if need == matrix.PRODUCT_DEPTH + 1:
            refreshed.append((ct.level, out is not ct))
        return out
    monkeypatch.setattr(protocol, "_ensure_level", ensure_level)
    local_forward(prepare(config, feature_dim=3)[1][0], x[:4])
    assert refreshed == [(5, False)] * len(neurons)
    result = run_training(config, split_parties(x, y, 2, seed=5))
    ops = [r["ops"]["bootstraps"] for r in result.metrics["rounds"]]
    assert [b - a for a, b in zip([0] + ops, ops)] == [per_round] * 3


def test_sigmoid_activation_run_and_mirror():
    x, y = blob_data(samples=24, features=3, seed=12)
    act = ActivationConfig(kind="approx_sigmoid", degree=5, input_range=8.0)
    config = TrainingConfig(neurons=(4, 2), learning_rate=0.2, global_iters=2,
                            batch_size=6, party_count=2, activation=act,
                            seed=13)
    result = run_training(config, split_parties(x, y, 2, seed=1))
    for round_ct, round_pl in zip(result.ct_trajectory,
                                  result.mirror_trajectory):
        for a, b in zip(round_ct, round_pl):
            assert np.allclose(a, b, rtol=1e-6, atol=1e-9)


def test_fig5_loss_variant_tracks_its_mirror():
    x, y = blob_data(samples=16, features=3, seed=19)
    shards = split_parties(x, y, 2, seed=4)
    config = small_config(party_count=2, global_iters=2, fig5_squared_loss=True,
                          learning_rate=0.05)
    result = run_training(config, shards)
    for round_ct, round_pl in zip(result.ct_trajectory,
                                  result.mirror_trajectory):
        for a, b in zip(round_ct, round_pl):
            assert np.allclose(a, b, rtol=1e-6, atol=1e-9)


def test_fig5_variant_differs_from_standard_gradient():
    x, y = blob_data(samples=16, features=3, seed=19)
    shards = split_parties(x, y, 2, seed=4)
    std = run_training(small_config(party_count=2, global_iters=1), shards)
    fig5 = run_training(small_config(party_count=2, global_iters=1,
                                     fig5_squared_loss=True), shards)
    assert not np.allclose(std.final_weights[0], fig5.final_weights[0])


def test_transports_identical_trajectories_and_bytes():
    x, y = blob_data(samples=20, features=3, seed=15)
    shards = split_parties(x, y, 2, seed=5)
    config = small_config(party_count=2, global_iters=2)
    res_q = run_training(config, shards, transport="in_process")
    res_t = run_training(config, shards, transport="tcp")
    for a, b in zip(res_q.ct_trajectory, res_t.ct_trajectory):
        for wa, wb in zip(a, b):
            assert np.array_equal(wa, wb)
    assert res_q.metrics["final"]["bytes_tx_total"] == \
        res_t.metrics["final"]["bytes_tx_total"]
    assert res_q.metrics["final"]["bytes_rx_total"] == \
        res_t.metrics["final"]["bytes_rx_total"]
    rounds_q = [r["bytes_tx"] for r in res_q.metrics["rounds"]]
    rounds_t = [r["bytes_tx"] for r in res_t.metrics["rounds"]]
    assert rounds_q == rounds_t
    assert_no_party_outlives_the_job()


def assert_no_party_outlives_the_job():
    # waitpid first: active_children() would reap a child left unjoined.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def _fail_party_1_at_its_5th_refresh(monkeypatch, fail):
    from packedhe.federated.protocol import PartyRuntime
    real = PartyRuntime._bootstrap
    calls = []

    def bootstrap(runtime, ct):
        if runtime.state.party_id == 1:
            calls.append(ct)
            if len(calls) == 5:
                fail()
        return real(runtime, ct)
    monkeypatch.setattr(PartyRuntime, "_bootstrap", bootstrap)


def _crash():
    raise RuntimeError("party 1 crashed in a refresh")


@pytest.mark.parametrize("transport, fail, cause", [
    ("tcp", lambda: os._exit(1), "exited with code 1"),
    ("in_process", _crash, "crashed in a refresh"),
], ids=["tcp process exits", "in-process thread raises"])
def test_a_party_that_dies_in_a_refresh_fails_the_job_fast(
        transport, fail, cause, monkeypatch):
    # Over TCP the fork inherits the patch; the kill leaves no error report.
    x, y = blob_data(samples=20, features=3, seed=15)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    config = small_config(party_count=2, global_iters=2, neurons=(4, 2),
                          activation=act)
    _fail_party_1_at_its_5th_refresh(monkeypatch, fail)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 1 failed") as err:
        run_training(config, split_parties(x, y, 2, seed=5),
                     transport=transport, timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert cause in str(err.value.__cause__)
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_party_that_fails_after_the_others_reported_wakes_the_server(
        transport, monkeypatch):
    # Nothing else wakes a server waiting for the last gradients: without
    # the party's failure it would wait out the timeout, TransportError.
    from packedhe.federated.protocol import PartyRuntime
    reported = multiprocessing.get_context("fork").Event()
    real = PartyRuntime._run_round

    def run_round(runtime, round_no, weight_cts):
        if runtime.state.party_id == 0:
            real(runtime, round_no, weight_cts)
            reported.set()
            return
        reported.wait(10.0)
        raise RuntimeError(f"party 1 gave up, party 0 reported: "
                           f"{reported.is_set()}")
    monkeypatch.setattr(PartyRuntime, "_run_round", run_round)
    x, y = blob_data(samples=20, features=3, seed=15)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 1 failed") as err:
        run_training(small_config(party_count=2, global_iters=2),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert isinstance(err.value.__cause__, RuntimeError)
    assert "party 0 reported: True" in str(err.value.__cause__)
    assert_no_party_outlives_the_job()


def test_an_in_process_job_runs_every_party_on_the_calling_thread(
        monkeypatch):
    # The server runs each party in turn where it would wait for it.
    from packedhe.federated.protocol import PartyRuntime
    before = set(threading.enumerate())
    seen, rounds = set(), []
    real = PartyRuntime._run_round

    def run_round(runtime, round_no, weight_cts):
        seen.update(threading.enumerate())
        rounds.append((runtime.state.party_id, round_no,
                       threading.current_thread()))
        real(runtime, round_no, weight_cts)
    monkeypatch.setattr(PartyRuntime, "_run_round", run_round)
    x, y = blob_data(samples=20, features=3, seed=15)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    run_training(small_config(party_count=2, global_iters=2, activation=act),
                 split_parties(x, y, 2, seed=5), transport="in_process",
                 timeout=30.0)
    me = threading.current_thread()
    assert rounds == [(0, 0, me), (1, 0, me), (0, 1, me), (1, 1, me)]
    assert seen == before
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_job_leaves_no_cycle_that_holds_its_server(transport, monkeypatch):
    # A link that kept the server's handler would hold the runtime, and
    # through it the context, until the cycle collector ran.
    import gc
    import weakref
    from packedhe.federated.protocol import ServerRuntime
    refs = []
    real_init = ServerRuntime.__init__

    def init(runtime, server, *args, **kwargs):
        real_init(runtime, server, *args, **kwargs)
        refs.extend([weakref.ref(runtime), weakref.ref(server.ctx)])
    monkeypatch.setattr(ServerRuntime, "__init__", init)
    x, y = blob_data(samples=20, features=3, seed=15)
    gc.disable()
    try:
        run_training(small_config(party_count=2, global_iters=2),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
        assert len(refs) == 2 and [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_gradient_behind_a_refused_frame_is_not_filed():
    from packedhe.federated.wire import MsgType, encode_ciphertext, encode_frame
    config = small_config(party_count=2, global_iters=1)
    server, _ = prepare(config, feature_dim=2)
    payload = encode_ciphertext(server.model.weights[0].ct)
    srv, party_links, close = _open_server("in_process", server, 30.0)
    try:
        party_links[0].send(encode_frame(MsgType.GRADIENT, 0, 0, payload))
        # Party 1's first frame claims party 0; its send must not raise.
        party_links[1].send(encode_frame(MsgType.GRADIENT, 0, 0, payload))
        party_links[1].send(encode_frame(MsgType.GRADIENT, 0, 1, payload))
        with pytest.raises(ProtocolError, match="claims party 0"):
            srv.collect_gradients(0)
        assert list(srv._gradients) == [(0, 0)]
    finally:
        close()


def test_round_timeout_names_missing_parties():
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.transport import (TransportError,
                                              open_in_process_links)
    config = small_config(party_count=2)
    server, _ = prepare(config, feature_dim=2)
    links, _, _ = open_in_process_links(2)
    srv = ServerRuntime(server, links, timeout=0.05)
    srv.start()
    try:
        with pytest.raises(TransportError) as err:
            srv.collect_gradients(0)
    finally:
        srv.close()
    assert "0" in str(err.value) and "1" in str(err.value)


@pytest.mark.parametrize("msg_type", ["GRADIENT", "BOOTSTRAP_REQ",
                                      "KEYSWITCH_SHARE"])
def test_frame_claiming_another_party_is_rejected(msg_type):
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.transport import open_in_process_links
    from packedhe.federated.wire import MsgType, encode_ciphertext, encode_frame
    config = small_config(party_count=2, global_iters=1)
    server, _ = prepare(config, feature_dim=2)
    links, _, _ = open_in_process_links(2)
    # Long enough that a wait for the missing frames would be noticed; a
    # timeout surfaces as TransportError, not ProtocolError.
    srv = ServerRuntime(server, links, timeout=30.0)
    srv.start()
    payload = encode_ciphertext(server.model.weights[0].ct)
    # Party 1's link sends a frame that names party 0.
    links[1].send(encode_frame(MsgType[msg_type], 0, 0, payload))
    if msg_type == "KEYSWITCH_SHARE":
        server.model.iteration = config.global_iters
        wait = srv.finalize_over_wire
    else:
        def wait():
            return srv.collect_gradients(0)
    with pytest.raises(ProtocolError, match="claims party 0"):
        wait()
    for link in links:
        link.close()


def test_tcp_frame_with_a_nan_slot_fails_fast():
    from packedhe.engine import SlotVector
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.transport import open_tcp_links
    from packedhe.federated.wire import (MsgType, WireError, encode_ciphertext,
                                         encode_frame, max_frame_body)
    config = small_config(party_count=2, global_iters=1)
    server, _ = prepare(config, feature_dim=2)
    ctx = server.ctx
    server_links, party_links, _ = open_tcp_links(
        2, max_frame_body(ctx.slot_count))
    srv = ServerRuntime(server, server_links, timeout=30.0)
    srv.start()
    try:
        slots = np.zeros(ctx.slot_count)
        slots[3] = np.nan
        spoofed = SlotVector(slots, ctx.initial_level, ctx.initial_scale,
                             ctx.context_id, ctx.DEFAULT_KEY)
        party_links[0].send(encode_frame(MsgType.GRADIENT, 0, 0,
                                         encode_ciphertext(spoofed)))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="non-finite") as err:
            srv.collect_gradients(0)
        assert time.monotonic() - start < 10.0
        assert isinstance(err.value.__cause__, WireError)
    finally:
        for link in server_links + party_links:
            link.close()


def _open_links(transport, count, slot_count):
    """(server-side links, party-side links, closer) of one transport."""
    from packedhe.federated.transport import (open_in_process_links,
                                              open_tcp_links)
    from packedhe.federated.wire import max_frame_body
    server_links, party_links, _ = (
        open_tcp_links(count, max_frame_body(slot_count)) if transport == "tcp"
        else open_in_process_links(count))

    def close():
        for link in set(server_links) | set(party_links):
            link.close()
    return server_links, party_links, close


def _open_server(transport, server, timeout):
    """(runtime, party-side links, closer) for a started ServerRuntime."""
    from packedhe.federated.protocol import ServerRuntime
    server_links, party_links, close = _open_links(
        transport, server.config.party_count, server.ctx.slot_count)
    srv = ServerRuntime(server, server_links, timeout=timeout)
    srv.start()
    return srv, party_links, close


def _share(round_no, party_id, index):
    """A KEYSWITCH_SHARE frame answering request ``index``."""
    from packedhe.federated.wire import (MsgType, encode_frame,
                                         encode_share_index)
    return encode_frame(MsgType.KEYSWITCH_SHARE, round_no, party_id,
                        encode_share_index(index))


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_finalize_rekeys_with_the_acked_roster(transport, monkeypatch):
    config = small_config(party_count=2, global_iters=1, neurons=(4, 2))
    server, _ = prepare(config, feature_dim=2)
    server.model.iteration = config.global_iters
    rosters = []
    monkeypatch.setattr(protocol, "finalize",
                        lambda srv_state, roster=None: rosters.append(roster))
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        # Shares may answer the requests in any order.
        for p in (1, 0):
            for index in (1, 0):
                party_links[p].send(_share(config.global_iters, p, index))
        srv.finalize_over_wire()
    finally:
        close()
    assert rosters == [list(server.ctx.parties)]


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_keyswitch_share_for_another_round_fails_fast(transport):
    config = small_config(party_count=2, global_iters=2)
    server, _ = prepare(config, feature_dim=2)
    server.model.iteration = config.global_iters
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        party_links[0].send(_share(config.global_iters, 0, 0))
        party_links[1].send(_share(0, 1, 0))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="round 0"):
            srv.finalize_over_wire()
        assert time.monotonic() - start < 10.0
    finally:
        close()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("share_round, want", [
    (2, "KEYSWITCH_SHARE for round 2 while the server is at round 0"),
    (0, "party 1 sent a key-switch share during round 0"),
], ids=["names the last round", "names round 0"])
def test_a_keyswitch_share_during_round_0_fails_fast(transport, share_round,
                                                     want):
    # Filed, the share would leave the server waiting out its timeout for
    # the round's gradients.
    config = small_config(party_count=2, global_iters=2)
    server, _ = prepare(config, feature_dim=2)
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        party_links[1].send(_share(share_round, 1, 0))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=want):
            srv.collect_gradients(0)
        assert time.monotonic() - start < 10.0
        assert srv._ks_shares == {}
    finally:
        close()


def _party_0_shares_fail_fast(transport, indices, want):
    """Party 0 answers the requests ``indices`` at ``layers`` = 2 and party 1
    not at all: the server must refuse a share when it arrives."""
    config = small_config(party_count=2, global_iters=1, neurons=(4, 2))
    server, _ = prepare(config, feature_dim=2)
    server.model.iteration = config.global_iters
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        for index in indices:
            party_links[0].send(_share(config.global_iters, 0, index))
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=want):
            srv.finalize_over_wire()
        assert time.monotonic() - start < 10.0
    finally:
        close()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_duplicated_keyswitch_share_fails_fast(transport):
    _party_0_shares_fail_fast(transport, (0, 0), "request 0 of round 1 twice")


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_keyswitch_share_beyond_the_weights_fails_fast(transport):
    _party_0_shares_fail_fast(transport, (0, 2),
                              "request 2, but the model has 2 weights")


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_surplus_keyswitch_share_after_done_fails_the_job(transport,
                                                          monkeypatch):
    # Party 1 answers key-switch request 0 again once it has read DONE.  The
    # server reads every link to its end as the job ends, refuses the
    # share there, and the job fails rather than return.  The server's
    # reader lingers a second over party 1's last due share, so over TCP the
    # party has sent the surplus one and ended before the reader reads on.
    from packedhe.federated.protocol import PartyRuntime, ServerRuntime
    from packedhe.federated.wire import MsgType, decode_frame
    real = PartyRuntime.handle
    real_serve = ServerRuntime._handle

    def handle(runtime, data):
        done = real(runtime, data)
        if done and runtime.state.party_id == 1:
            runtime.link.send(_share(runtime.state.config.global_iters, 1, 0))
        return done

    def serve(runtime, pid, data):
        real_serve(runtime, pid, data)
        if (pid == 1 and decode_frame(data).msg_type == MsgType.KEYSWITCH_SHARE
                and len(runtime._ks_shares[1]) == runtime.server.config.layers):
            time.sleep(1.0)
    monkeypatch.setattr(PartyRuntime, "handle", handle)
    monkeypatch.setattr(ServerRuntime, "_handle", serve)
    x, y = blob_data(samples=20, features=3, seed=15)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 1's link failed as the "
                       "job ended: party 1 answered key-switch request 0 "
                       "of round 2 twice"):
        run_training(small_config(party_count=2, global_iters=2),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert_no_party_outlives_the_job()


class _OneShareThenClose:
    """A party's link that, once the party has sent one key-switch share,
    stays silent for half a second, closes and hands the party DONE, so
    the party ends without an error."""

    def __init__(self, link):
        self.link = link
        self.closed = False

    def send(self, frame):
        from packedhe.federated.wire import MsgType, decode_frame
        self.link.send(frame)
        if decode_frame(frame).msg_type == MsgType.KEYSWITCH_SHARE:
            # Over TCP, time enough for a server that counts one share as
            # consent to every weight to re-key before the close wakes it.
            time.sleep(0.5)
            self.link.close()
            self.closed = True

    def recv(self, timeout=None):
        from packedhe.federated.wire import SERVER_ID, MsgType, encode_frame
        if self.closed:
            # The round the server ends a 1-round job at.
            return encode_frame(MsgType.DONE, 1, SERVER_ID)
        return self.link.recv(timeout)

    def pending(self):
        return self.link.pending()

    def close(self):
        self.link.close()


def _party_1_consents_to_one_weight_of_two(transport, monkeypatch):
    # Injected at the link the party is built with, which both hosts use.
    from packedhe.federated.protocol import PartyRuntime
    real_init = PartyRuntime.__init__

    def init(runtime, state, link, *args, **kwargs):
        if state.party_id == 1:
            link = _OneShareThenClose(link)
        real_init(runtime, state, link, *args, **kwargs)
    monkeypatch.setattr(PartyRuntime, "__init__", init)
    finalized = []
    monkeypatch.setattr(protocol, "finalize",
                        lambda *args, **kw: finalized.append(1))
    x, y = blob_data(samples=20, features=3, seed=15)
    config = small_config(party_count=2, global_iters=1, neurons=(4, 2))
    assert config.layers == 2
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 1 link failed"):
        run_training(config, split_parties(x, y, 2, seed=5),
                     transport=transport, timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert finalized == []
    assert_no_party_outlives_the_job()


def test_a_party_that_consents_to_one_weight_of_two_fails_the_job(
        monkeypatch):
    _party_1_consents_to_one_weight_of_two("in_process", monkeypatch)


def test_a_tcp_party_that_consents_to_one_weight_of_two_fails_the_job(
        monkeypatch):
    # Here the server waits on another process, so the half second before
    # the close would let a server that took one share for both re-key.
    _party_1_consents_to_one_weight_of_two("tcp", monkeypatch)


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_refused_refresh_fails_the_job_fast(transport, monkeypatch):
    # In process, party 1 reads its share on the server's thread, where
    # nothing queues one once the server has refused the request: the read
    # must fail at once rather than wait out the timeout.
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.wire import MsgType, decode_frame
    real = ServerRuntime._handle
    requests = []

    def handle(runtime, pid, data):
        if pid == 1 and decode_frame(data).msg_type == MsgType.BOOTSTRAP_REQ:
            requests.append(data)
            if len(requests) == 3:
                raise ProtocolError("refused party 1's third refresh")
        real(runtime, pid, data)
    monkeypatch.setattr(ServerRuntime, "_handle", handle)
    x, y = blob_data(samples=20, features=3, seed=15)
    threads = set(threading.enumerate())
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 1 failed") as err:
        run_training(small_config(party_count=2, global_iters=2,
                                  neurons=(4, 2)),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert "refused party 1's third refresh" in str(err.value)
    assert len(requests) == 3
    assert set(threading.enumerate()) == threads
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_a_gradient_with_a_spoofed_scale_fails_the_job_fast(transport,
                                                            monkeypatch):
    # The scale field (after the 4-byte length, the 7-byte header and the
    # level) of party 0's first gradient is doubled where the server reads
    # it; the aggregate's add then meets two scales.
    import struct
    from packedhe.engine import EngineError
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.wire import MsgType, decode_frame
    real = ServerRuntime._handle
    spoofed = []

    def handle(runtime, pid, data):
        if (pid == 0 and not spoofed
                and decode_frame(data).msg_type == MsgType.GRADIENT):
            (scale,) = struct.unpack_from(">d", data, 19)
            data = data[:19] + struct.pack(">d", 2 * scale) + data[27:]
            spoofed.append(scale)
        real(runtime, pid, data)
    monkeypatch.setattr(ServerRuntime, "_handle", handle)
    x, y = blob_data(samples=20, features=3, seed=15)
    start = time.monotonic()
    with pytest.raises(EngineError, match="adds operands at scales"):
        run_training(small_config(party_count=2, global_iters=2),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert spoofed == [2.0 ** 40]
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("spoof", ["level + 1", "level - 1", "scale * 2"])
def test_a_broadcast_weight_off_its_level_or_scale_fails_the_job_fast(
        transport, spoof, monkeypatch):
    # A weight arrives where a refresh, or the first round's encryption,
    # leaves it: at the initial level and the context scale.  Above the
    # initial level, the wire itself refuses it.
    from dataclasses import replace
    from packedhe.engine import SlotVector
    from packedhe.federated.protocol import ServerRuntime
    real = ServerRuntime.broadcast_model

    def spoofed(w):
        ct = w.ct
        level = ct.level + {"level + 1": 1, "level - 1": -1}.get(spoof, 0)
        scale = ct.scale * (2 if spoof == "scale * 2" else 1)
        return replace(w, ct=SlotVector(ct.slots, level, scale,
                                        ct.context_id, ct.key_tag))

    def broadcast_model(runtime, round_no):
        runtime.server.broadcast = [spoofed(w)
                                    for w in runtime.server.broadcast]
        real(runtime, round_no)
    monkeypatch.setattr(ServerRuntime, "broadcast_model", broadcast_model)
    x, y = blob_data(samples=20, features=3, seed=15)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=r"party \d failed") as err:
        run_training(small_config(party_count=2, global_iters=2),
                     split_parties(x, y, 2, seed=5), transport=transport,
                     timeout=30.0)
    assert time.monotonic() - start < 10.0
    want = ("ciphertext level 7.0 is not an integer in [0, 6]"
            if spoof == "level + 1" else "received a weight at level")
    assert want in str(err.value)
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("spoof", ["level - 1", "scale * 2"])
def test_a_refresh_share_off_its_level_or_scale_fails_the_job_fast(
        transport, spoof, monkeypatch):
    # The server answers party 0's first refresh request with a share one
    # level below a fresh ciphertext's, or at twice the context scale; the
    # party refuses it as it arrives.
    from packedhe.engine import SlotVector
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.wire import (MsgType, decode_ciphertext,
                                         decode_frame, encode_ciphertext,
                                         encode_frame)
    real = ServerRuntime._handle
    spoofed = []

    def handle(runtime, pid, data):
        link = runtime.links[pid]
        if (pid != 0 or spoofed
                or decode_frame(data).msg_type != MsgType.BOOTSTRAP_REQ):
            return real(runtime, pid, data)
        send = link.server_send

        def server_send(share):
            frame = decode_frame(share)
            ct = decode_ciphertext(frame.payload, runtime.server.ctx)
            spoofed.append((ct.level, ct.scale))
            level = ct.level - (spoof == "level - 1")
            scale = ct.scale * (2 if spoof == "scale * 2" else 1)
            send(encode_frame(frame.msg_type, frame.round, frame.party_id,
                              encode_ciphertext(SlotVector(
                                  ct.slots, level, scale, ct.context_id,
                                  ct.key_tag))))
        link.server_send = server_send
        try:
            real(runtime, pid, data)
        finally:
            del link.server_send
    monkeypatch.setattr(ServerRuntime, "_handle", handle)
    x, y = blob_data(samples=20, features=3, seed=15)
    act = ActivationConfig(kind="approx_relu", d=2, sigma=10.0,
                           delta=2.0 ** -10, input_range=16.0)
    config = small_config(party_count=2, global_iters=2, neurons=(4, 2),
                          activation=act)
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="party 0 failed") as err:
        run_training(config, split_parties(x, y, 2, seed=5),
                     transport=transport, timeout=30.0)
    assert time.monotonic() - start < 10.0
    assert "received a refresh share at level" in str(err.value)
    assert len(spoofed) == 1
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("msg_type", ["BOOTSTRAP_REQ", "GRADIENT"])
def test_server_refuses_a_frame_for_another_round(transport, msg_type):
    from packedhe.federated.wire import MsgType, encode_ciphertext, encode_frame
    config = small_config(party_count=2, global_iters=2)
    server, _ = prepare(config, feature_dim=2)
    server.model.iteration = 1
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        # Unchecked, the stale request would be answered and the stale
        # gradient filed under round 0: either way a 30 s wait.
        party_links[1].send(encode_frame(
            MsgType[msg_type], 0, 1,
            encode_ciphertext(server.model.weights[0].ct)))
        start = time.monotonic()
        with pytest.raises(ProtocolError,
                           match="round 0 while the server is at round 1"):
            srv.collect_gradients(1)
        assert time.monotonic() - start < 10.0
    finally:
        close()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("msg_type", ["BOOTSTRAP_REQ", "GRADIENT"])
def test_server_refuses_a_training_frame_after_the_last_round(transport,
                                                             msg_type):
    from packedhe.federated.wire import MsgType, encode_ciphertext, encode_frame
    config = small_config(party_count=2, global_iters=1)
    server, _ = prepare(config, feature_dim=2)
    server.model.iteration = config.global_iters
    before = server.ctx.meter.bootstraps
    srv, party_links, close = _open_server(transport, server, 30.0)
    try:
        # The frame names the server's round, the key switch's: answered,
        # a request would meter a refresh; filed, a gradient is never read.
        party_links[1].send(encode_frame(
            MsgType[msg_type], config.global_iters, 1,
            encode_ciphertext(server.model.weights[0].ct)))
        start = time.monotonic()
        with pytest.raises(ProtocolError,
                           match=f"party 1 sent {msg_type} after the last"):
            srv.finalize_over_wire()
        assert time.monotonic() - start < 10.0
        assert server.ctx.meter.bootstraps == before
        assert srv._gradients == {}
    finally:
        close()


def _broadcast_cts(server):
    """The weight ciphertexts the server broadcasts in a round."""
    return [w.ct for w in server.broadcast]


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
def test_party_refuses_a_bootstrap_share_for_another_round(transport):
    from packedhe.federated.protocol import PartyRuntime
    from packedhe.federated.wire import (SERVER_ID, MsgType, decode_frame,
                                         encode_ciphertext, encode_frame)
    x, y = blob_data(samples=8, features=2, seed=3)
    config = small_config(party_count=1, global_iters=1)
    server, (party,) = prepare(config, feature_dim=2)
    party.shard = (x, y)
    party.schedule = build_schedule(config, [len(x)])
    server_links, party_links, close = _open_links(transport, 1,
                                                   server.ctx.slot_count)
    runtime = PartyRuntime(party, party_links[0], timeout=30.0)
    thread = threading.Thread(target=runtime.run, daemon=True)
    thread.start()
    try:
        for ct in _broadcast_cts(server):
            server_links[0].server_send(encode_frame(
                MsgType.MODEL_BCAST, 0, SERVER_ID, encode_ciphertext(ct)))
        req = decode_frame(server_links[0].server_recv(30.0))
        assert (req.msg_type, req.round) == (MsgType.BOOTSTRAP_REQ, 0)
        start = time.monotonic()
        server_links[0].server_send(encode_frame(
            MsgType.BOOTSTRAP_SHARE, 1, SERVER_ID, req.payload))
        thread.join(30.0)
        assert not thread.is_alive()
        assert time.monotonic() - start < 10.0
        assert isinstance(runtime.error, ProtocolError)
        assert "round 1 during round 0" in str(runtime.error)
    finally:
        close()
        thread.join(10.0)


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("case, want", [
    ("model of a later round", "MODEL_BCAST for round 1 during round 0"),
    ("model of mixed rounds", "MODEL_BCAST for round 1 during round 0"),
    ("key switch before the last round", "KEYSWITCH_REQ for round 1 during round 2"),
    ("done of another round", "DONE for round 2 during round 0"),
], ids=["later round", "mixed rounds", "early key switch", "done of another round"])
def test_party_refuses_a_frame_for_another_round(transport, case, want):
    from packedhe.federated.protocol import PartyRuntime
    from packedhe.federated.wire import (SERVER_ID, MsgType, encode_ciphertext,
                                         encode_frame)
    x, y = blob_data(samples=8, features=2, seed=3)
    config = small_config(party_count=1, global_iters=2, neurons=(2, 2))
    server, (party,) = prepare(config, feature_dim=2)
    party.shard = (x, y)
    party.schedule = build_schedule(config, [len(x)])
    weights = [encode_ciphertext(ct) for ct in _broadcast_cts(server)]
    # Unchecked, the party would run round 1 first, assemble one model from
    # two rounds, consent to re-key a model still in training, or end
    # before the rounds it was to run.
    if case == "model of a later round":
        frames = [(MsgType.MODEL_BCAST, 1, ct) for ct in weights]
    elif case == "model of mixed rounds":
        frames = [(MsgType.MODEL_BCAST, r, ct) for r, ct in enumerate(weights)]
    elif case == "key switch before the last round":
        frames = [(MsgType.KEYSWITCH_REQ, 1, weights[0])]
    else:
        frames = [(MsgType.DONE, 2, b"")]
    server_links, party_links, close = _open_links(transport, 1,
                                                   server.ctx.slot_count)
    runtime = PartyRuntime(party, party_links[0], timeout=30.0)
    thread = threading.Thread(target=runtime.run, daemon=True)
    thread.start()
    try:
        start = time.monotonic()
        for msg_type, round_no, payload in frames:
            server_links[0].server_send(encode_frame(msg_type, round_no,
                                                     SERVER_ID, payload))
        thread.join(30.0)
        assert not thread.is_alive()
        assert time.monotonic() - start < 10.0
        assert isinstance(runtime.error, ProtocolError)
        assert want in str(runtime.error)
    finally:
        close()
        thread.join(10.0)


def test_dataset_count_must_match_parties():
    x, y = blob_data(samples=10, features=2, seed=16)
    config = small_config(party_count=3)
    with pytest.raises(ProtocolError):
        run_training(config, [(x, y)])


@pytest.mark.parametrize("where", ["shard", "test set"])
@pytest.mark.parametrize("label, want", [
    (1.7, "integer class labels"),
    (-1, "non-negative class labels"),
    (2, "holds label 2, but the model has 2 classes"),
], ids=["fraction", "negative", "beyond the classes"])
def test_bad_labels_are_refused_before_any_party_starts(where, label, want):
    # Unchecked, 1.7 would train as 1, -1 as the last class, and 2 would
    # fail inside a party with IndexError.
    x, y = blob_data(samples=20, features=3, seed=15)
    shards = split_parties(x, y.astype(np.float64), 2, seed=5)
    test_set = (x[:6], y[:6].astype(np.float64))
    if where == "shard":
        shards[1][1][3] = label
    else:
        test_set[1][2] = label
    threads = set(threading.enumerate())
    with pytest.raises(ProtocolError, match=want):
        run_training(small_config(party_count=2, global_iters=1), shards,
                     transport="tcp", test_set=test_set, timeout=30.0)
    assert set(threading.enumerate()) == threads
    assert_no_party_outlives_the_job()


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("where, value, want", [
    ("unsampled row", np.nan, "party 1's x contains NaN or infinite"),
    ("sampled row", np.nan, "party 1's x contains NaN or infinite"),
    ("test set", np.inf, "the test set's x contains NaN or infinite"),
], ids=["nan in an unsampled row", "nan in a sampled row", "inf in the test set"])
def test_non_finite_features_are_refused_before_any_party_starts(
        transport, where, value, want, monkeypatch):
    # Unchecked, the unsampled NaN would count in the accuracy pass, the
    # sampled one would fail mid-job as party 1's link, and the inf would
    # score a test accuracy.
    x, y = blob_data(samples=20, features=3, seed=15)
    shards = split_parties(x, y, 2, seed=5)
    test_set = (x[:6].copy(), y[:6])
    config = small_config(party_count=2, global_iters=1)
    sampled = build_schedule(config, [len(sx) for sx, _ in shards])[0][1]
    if where == "test set":
        test_set[0][2, 1] = value
    elif where == "sampled row":
        shards[1][0][sampled[0], 0] = value
    else:
        unsampled = set(range(len(shards[1][0]))) - set(sampled.tolist())
        shards[1][0][min(unsampled), 0] = value
    prepared = []
    monkeypatch.setattr(protocol, "prepare",
                        lambda *args: prepared.append(args))
    threads = set(threading.enumerate())
    with pytest.raises(ProtocolError, match=want):
        run_training(config, shards, transport=transport, test_set=test_set,
                     timeout=30.0)
    assert prepared == []
    assert set(threading.enumerate()) == threads
    assert_no_party_outlives_the_job()


_RELU = dict(kind="approx_relu", sigma=20.0, delta=2.0 ** -20)


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("activation, neurons, need", [
    (ActivationConfig(kind="identity"), (6, 4, 2), 3),
    (ActivationConfig(kind="approx_sigmoid"), (4, 2), 3),
    (ActivationConfig(d=1, **_RELU), (4, 2), 3),
    (ActivationConfig(d=2, **_RELU), (4, 2), 4),
    (ActivationConfig(d=3, **_RELU), (4, 2), 4),
    (ActivationConfig(d=4, **_RELU), (4, 2), 5),
], ids=["identity", "sigmoid", "relu d=1", "relu d=2", "relu d=3",
        "relu d=4"])
def test_an_initial_level_below_the_job_s_need_is_refused_before_any_party(
        transport, activation, neurons, need, monkeypatch):
    # The need is a packed product's depth, or the deepest sign stage's:
    # one level less would fail inside a party, after the parties started.
    x, y = blob_data(samples=16, features=3, seed=3)
    shards = split_parties(x, y, 2, seed=3)
    config = small_config(neurons=neurons, global_iters=1, activation=activation,
                          fig5_squared_loss=True, initial_level=need - 1)
    started = []
    monkeypatch.setattr(protocol, "prepare",
                        lambda *args: started.append(args))
    with pytest.raises(ProtocolError, match=f"initial_level {need - 1} is "
                       f"below the {need} levels"):
        run_training(config, shards, transport=transport, timeout=30.0)
    assert started == []
    assert_no_party_outlives_the_job()
    monkeypatch.undo()
    result = run_training(dataclasses.replace(config, initial_level=need),
                          shards, transport=transport, timeout=30.0)
    assert len(result.metrics["rounds"]) == 1


def test_schedule_is_deterministic_and_cyclic():
    config = small_config(batch_size=3, global_iters=4, party_count=2)
    s1 = build_schedule(config, [5, 7])
    s2 = build_schedule(config, [5, 7])
    for r1, r2 in zip(s1, s2):
        for a, b in zip(r1, r2):
            assert np.array_equal(a, b)
    seen = np.concatenate([r[0] for r in s1])
    assert set(seen) <= set(range(5))


# ------------------------------------------------------------ CSV and config

def test_dataset_csv_round_trip(tmp_path):
    x, y = blob_data(samples=12, features=3, seed=17)
    path = tmp_path / "shard.csv"
    save_dataset_csv(path, x, y)
    x2, y2 = load_dataset_csv(path)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


def test_dataset_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        load_dataset_csv(tmp_path / "nope.csv")
    assert "nope.csv" in str(err.value)


def test_dataset_csv_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,zero\n")
    with pytest.raises(ValueError) as err:
        load_dataset_csv(path)
    assert ":2" in str(err.value)


def test_config_rejects_missing_keys_and_a_non_object():
    with pytest.raises(ValueError, match=r"missing config keys: \['party_count'\]"):
        config_from_dict({"neurons": [2], "learning_rate": 0.1,
                          "global_iters": 1, "batch_size": 1})
    with pytest.raises(ValueError, match="JSON object"):
        config_from_dict([["neurons", [2]]])


@pytest.mark.parametrize("key, value", [
    ("party_count", 2.5), ("party_count", True), ("party_count", "2"),
    ("global_iters", 1.0), ("batch_size", None), ("seed", -1),
    ("seed", 1.5), ("initial_level", 0), ("scale_bits", "40"),
    ("scale_bits", 512),
    ("neurons", [2.5]), ("neurons", [True]), ("neurons", 2),
    ("neurons", "2"), ("neurons", []),
    ("learning_rate", "0.1"), ("learning_rate", True),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("fig5_squared_loss", 1), ("fig5_squared_loss", "true"),
    ("activation", "identity"),
])
def test_config_refuses_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=key):
        small_config(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("d", 4.0), ("d", True), ("d", 0), ("degree", "7"),
    ("sigma", "20"), ("sigma", False), ("delta", 0.0),
    ("input_range", None), ("input_range", -1.0),
])
def test_activation_config_refuses_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=key):
        ActivationConfig(kind="approx_relu", **{key: value})


def test_config_takes_numpy_counts_and_rates():
    config = small_config(neurons=(np.int64(3), 2), party_count=np.int32(2),
                          learning_rate=np.float32(0.5))
    assert config.neurons == (3, 2)
    assert type(config.neurons[0]) is int


def test_config_rejects_unknown_keys():
    # rescale_every_r is gone: every product is rescaled once.
    for key in ("typo_key", "rescale_every_r"):
        with pytest.raises(ValueError) as err:
            config_from_dict({"neurons": [2], "learning_rate": 0.1,
                              "global_iters": 1, "batch_size": 1,
                              "party_count": 1, key: 3})
        assert key in str(err.value)
    with pytest.raises(ValueError):
        config_from_dict({"neurons": [2], "learning_rate": 0.1,
                          "global_iters": 1, "batch_size": 1,
                          "party_count": 1,
                          "activation": {"kind": "identity", "oops": 1}})


# ----------------------------------------------------------------- estimator

def test_estimator_fit_predict_score():
    x, y = make_synthetic_classification(samples=150, features=6, classes=2,
                                         seed=18, separation=3.0)
    est = FederatedPolyMLP(hidden_neurons=(8,), rounds=30, parties=2,
                           batch_size=8, learning_rate=0.2, seed=3)
    assert est.fit(x, y) is est
    preds = est.predict(x)
    assert preds.shape == (150,)
    assert est.score(x, y) >= 0.9


def test_estimator_get_set_params_round_trip():
    est = FederatedPolyMLP()
    params = est.get_params()
    est2 = FederatedPolyMLP(**params)
    assert est2.get_params() == params
    est.set_params(rounds=5, parties=2)
    assert est.get_params()["rounds"] == 5
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_estimator_requires_fit_before_predict():
    est = FederatedPolyMLP()
    with pytest.raises(NotFittedError):
        est.predict(np.zeros((2, 2)))


def test_estimator_validates_inputs():
    est = FederatedPolyMLP(rounds=1, parties=1)
    with pytest.raises(ValueError):
        est.fit(np.full((4, 2), np.nan), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        est.fit(np.zeros((4, 2)), np.zeros(3, dtype=int))
