"""Scale discipline: every add and sub sees operands at one scale.

Real CKKS adds two ciphertexts only when their scales agree (Cheon-Kim-Kim-
Song, ASIACRYPT 2017), and so does the engine, which refuses the rest
(``CryptoContext._rule``).  These tests record the operand scales of every
``add`` and ``sub`` that the products and a training job book, so they also
show that each one was seen and at one scale.
"""

import math

import numpy as np
import pytest

from packedhe import engine
from packedhe.federated.config import (ActivationConfig, TrainingConfig,
                                       make_synthetic_classification,
                                       split_parties)
from packedhe.federated.protocol import run_training
from packedhe.matrix import (encode_matrix, encode_rect_matrix, he_mat_mult,
                             he_rect_mat_mult, pack_matrices)


@pytest.fixture
def scales(monkeypatch):
    """(op, scale_a, scale_b) of every add and sub, fused ones included.

    Every engine op books its rule's meter rows ``(field, x, y, times)``,
    with ``x`` and ``y`` the operands' ``(level, scale)``; a fused call books
    the rows of the chain it describes, also when they come from the
    context's memo.  So the recorder reads the add and sub rows there.
    """
    seen = []
    names = {"adds": "add", "subs": "sub"}
    book = engine.CryptoContext._book

    def recording(self, rows):
        for field, x, y, times in rows:
            if field in names:
                seen.extend([(names[field], x[1], y[1])] * times)
        return book(self, rows)
    monkeypatch.setattr(engine.CryptoContext, "_book", recording)
    return seen


def _mismatched(seen):
    return [s for s in seen if not math.isclose(s[1], s[2], rel_tol=1e-9)]


def _ctx(h, beta=1):
    return engine.new_context(2 * beta * h * h, 6, 2.0 ** 40, 1)


@pytest.mark.parametrize("h, beta", [(4, 1), (8, 1), (16, 1), (4, 2)])
def test_square_product_adds_at_one_scale(h, beta, scales):
    ctx = _ctx(h, beta)
    rng = np.random.default_rng(h + beta)
    pa = pack_matrices([rng.uniform(-3, 3, (h, h)) for _ in range(beta)], ctx)
    pb = pack_matrices([rng.uniform(-3, 3, (h, h)) for _ in range(beta)], ctx)
    with ctx.meter_scope() as scope:
        he_mat_mult(pa, pb)
    assert scope.subs == h
    assert [op for op, _, _ in scales].count("sub") == h
    assert [op for op, _, _ in scales].count("add") == scope.adds
    assert _mismatched(scales) == []


@pytest.mark.parametrize("t, h", [(1, 4), (2, 8), (4, 16)])
def test_rect_product_adds_at_one_scale(t, h, scales):
    ctx = _ctx(h)
    rng = np.random.default_rng(t + h)
    a = encode_rect_matrix(rng.uniform(-3, 3, (t, h)), ctx)
    with ctx.meter_scope() as scope:
        he_rect_mat_mult(a, encode_matrix(rng.uniform(-3, 3, (h, h)), ctx))
    assert scope.subs == t
    assert [op for op, _, _ in scales].count("sub") == t
    assert [op for op, _, _ in scales].count("add") == scope.adds
    assert _mismatched(scales) == []


def test_memo_hits_are_recorded(scales):
    ctx = _ctx(8)
    rng = np.random.default_rng(8)
    pa, pb = (pack_matrices([rng.uniform(-3, 3, (8, 8))], ctx) for _ in range(2))
    he_mat_mult(pa, pb)
    first, chains = len(scales), dict(ctx._chains)
    with ctx.meter_scope() as scope:
        he_mat_mult(pa, pb)
    assert ctx._chains == chains  # every fused call was a memo hit
    assert scales[first:] == scales[:first]
    assert [op for op, _, _ in scales[first:]].count("add") == scope.adds
    assert [op for op, _, _ in scales[first:]].count("sub") == scope.subs


def test_training_adds_at_one_scale(scales):
    x, y = make_synthetic_classification(samples=16, features=3, classes=2,
                                         seed=14)
    config = TrainingConfig(neurons=(2,), learning_rate=0.1, global_iters=2,
                            batch_size=4, party_count=2, seed=5,
                            activation=ActivationConfig(kind="approx_relu"))
    run_training(config, split_parties(x, y, 2, seed=2))
    assert scales and _mismatched(scales) == []
