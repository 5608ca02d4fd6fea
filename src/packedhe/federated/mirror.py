"""Plaintext twin of the encrypted training pipeline.

Runs the identical padded arithmetic (same polynomial activations, same
gradient algebra, same RNG stream and batch schedule) on bare numpy arrays.
The exact ciphertext backend must reproduce this trajectory to float
accumulation error, which makes the twin the ground-truth oracle for the
protocol.  Setting ``exact_activation=True`` swaps the polynomial activations
for their ideal counterparts (true ReLU / sigmoid), giving the reference run
used for accuracy-gap reporting.
"""

from __future__ import annotations

import numpy as np

from ..approx import (CompositePolySpec, _sign_plain, polyval_plain,
                      smooth_fit)
from ..matrix import pad_matrix
from .config import ActivationConfig, TrainingConfig, one_hot


class PlainActivation:
    """Plain forward value and derivative gate for one activation config."""

    def __init__(self, act: ActivationConfig, exact: bool = False):
        self.act = act
        self.exact = exact
        if act.kind == "approx_relu":
            self.spec = CompositePolySpec.for_closeness(act.d, act.sigma, act.delta)
        elif act.kind == "approx_sigmoid":
            r = act.input_range
            self.fit = smooth_fit("sigmoid", act.degree, (-r, r))
            d = np.polynomial.polynomial.polyder(np.array(self.fit.coeffs))
            self.deriv_coeffs = tuple(d)

    def __call__(self, e: np.ndarray):
        """Return (activation, gate); gate is None for the identity."""
        kind = self.act.kind
        if kind == "identity":
            return e, None
        if kind == "approx_relu":
            if self.exact:
                return np.maximum(e, 0.0), (e > 0).astype(np.float64)
            s = _sign_plain(e * (1.0 / self.act.input_range), self.spec)
            prod = e * s
            return (e + prod) * 0.5, (s + 1.0) * 0.5
        if self.exact:
            sig = 1.0 / (1.0 + np.exp(-e))
            return sig, sig * (1.0 - sig)
        return (polyval_plain(e, self.fit.coeffs),
                polyval_plain(e, self.deriv_coeffs))


class PlainPipeline:
    """Round-by-round plaintext execution of the federated SGD loop."""

    def __init__(self, config: TrainingConfig, plan, weights, shards,
                 schedule, exact_activation: bool = False):
        self.config = config
        self.plan = plan
        self.weights = [w.copy() for w in weights]  # padded h x h arrays
        self.shards = shards
        self.schedule = schedule
        self.activation = PlainActivation(config.activation, exact_activation)
        self.iteration = 0

    def party_gradients(self, party: int, rows: np.ndarray) -> list:
        plan = self.plan
        x, y = self.shards[party]
        xb = pad_matrix(x[rows], plan.t, plan.h)
        yb = pad_matrix(one_hot(y[rows], plan.classes), plan.t, plan.h)

        acts = [xb]
        gates = []
        for j, w in enumerate(self.weights):
            e = acts[-1] @ w
            m, gate = self.activation(e)
            m = m * plan.col_masks[j]
            acts.append(m)
            gates.append(gate)

        delta = (acts[-1] - yb) * 2.0
        if self.config.fig5_squared_loss:
            err = yb - acts[-1]
            delta = err * err
        if gates[-1] is not None:
            delta = delta * gates[-1]
        delta = delta * plan.rowcol_mask

        grads = [None] * len(self.weights)
        for j in reversed(range(len(self.weights))):
            grads[j] = acts[j].T @ delta
            if j > 0:
                delta = delta @ self.weights[j].T
                if gates[j - 1] is not None:
                    delta = delta * gates[j - 1]
        return grads

    def step(self) -> None:
        batches = self.schedule[self.iteration]
        per_layer = [np.zeros_like(w) for w in self.weights]
        for party in range(self.config.party_count):
            for j, g in enumerate(self.party_gradients(party, batches[party])):
                per_layer[j] = per_layer[j] + g
        lr = self.config.learning_rate / (self.config.batch_size *
                                          self.config.party_count)
        for j in range(len(self.weights)):
            self.weights[j] = self.weights[j] - per_layer[j] * lr
        self.iteration += 1

    def accuracy(self, x: np.ndarray, y: np.ndarray):
        return accuracy_with_weights(self.weights, self.plan, self.activation,
                                     x, y)


def scores_with_weights(weights, plan, activation: PlainActivation,
                        x: np.ndarray) -> np.ndarray:
    """Forward pass with explicit padded weights (decoded ciphertext model).

    The activation runs on each layer's logical columns (``plan.neurons``)
    only; the padded columns, which the column mask would zero, stay +0.0.
    """
    m = pad_matrix(x, len(x), plan.h)
    for w, n in zip(weights, plan.neurons):
        e = m @ w
        m = np.zeros_like(e)
        m[:, :n], _ = activation(e[:, :n])
    return m[:, : plan.classes]


def accuracy_with_weights(weights, plan, activation: PlainActivation,
                          x: np.ndarray, y: np.ndarray):
    if len(x) == 0:
        return None
    preds = np.argmax(scores_with_weights(weights, plan, activation, x), axis=1)
    return float(np.mean(preds == y))
