"""Federated protocol: preparation, local passes, aggregation, training runs."""

import json

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


def test_prepare_rejects_duplicate_ids():
    config = small_config(party_count=2)
    with pytest.raises(ProtocolError):
        prepare(config, 4, party_ids=["a", "a"])


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
    # rectangular product: 2 alignment rescales + one per shift stage + the
    # final sum; column mask adds one more; then the scheduled refresh
    # restores the full budget
    assert scope.rescales == 2 + server.plan.t + 1 + 1
    assert scope.bootstraps == 1
    assert trace.activations[-1].ct.level == server.ctx.initial_level


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


def test_rescale_relaxation_same_values():
    x, y = blob_data(samples=16, features=3, seed=14)
    shards = split_parties(x, y, 2, seed=2)
    base = small_config(party_count=2, global_iters=2)
    relaxed = small_config(party_count=2, global_iters=2, rescale_every_r=2)
    res_a = run_training(base, shards)
    res_b = run_training(relaxed, shards)
    for a, b in zip(res_a.final_weights, res_b.final_weights):
        assert np.allclose(a, b, atol=1e-12)
    ops_a = res_a.metrics["final"]["ops_total"]
    ops_b = res_b.metrics["final"]["ops_total"]
    assert ops_b["rescales"] < ops_a["rescales"]


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


def test_round_timeout_names_missing_parties():
    from packedhe.federated.protocol import ServerRuntime
    from packedhe.federated.transport import (TransportError,
                                              open_in_process_links)
    config = small_config(party_count=2)
    server, _ = prepare(config, feature_dim=2)
    links, _, _ = open_in_process_links(2)
    srv = ServerRuntime(server, links, timeout=0.05)
    srv.start()
    with pytest.raises(TransportError) as err:
        srv.collect_gradients(0, lambda: [])
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
            return srv.collect_gradients(0, lambda: [])
    with pytest.raises(ProtocolError, match="claims party 0"):
        wait()
    for link in links:
        link.close()


def test_dataset_count_must_match_parties():
    x, y = blob_data(samples=10, features=2, seed=16)
    config = small_config(party_count=3)
    with pytest.raises(ProtocolError):
        run_training(config, [(x, y)])


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


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError) as err:
        config_from_dict({"neurons": [2], "learning_rate": 0.1,
                          "global_iters": 1, "batch_size": 1,
                          "party_count": 1, "typo_key": 3})
    assert "typo_key" in str(err.value)
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
