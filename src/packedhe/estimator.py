"""Estimator-style wrapper over the encrypted federated trainer.

``FederatedPolyMLP`` follows the scikit-learn estimator conventions
(constructor stores hyperparameters untouched, ``fit``/``predict``/``score``,
``get_params``/``set_params``) without depending on scikit-learn itself, so it
drops into pipelines and grid searches that only rely on the protocol.
"""

from __future__ import annotations

import inspect

import numpy as np

from .federated.config import (ActivationConfig, TrainingConfig,
                               split_parties)
from .federated.mirror import PlainActivation, scores_with_weights
from .federated.protocol import build_plan, run_training
from .matrix import pad_matrix
from .validation import check_array, check_x_y


class NotFittedError(ValueError):
    pass


class FederatedPolyMLP:
    """Multi-layer perceptron trained under encryption across N parties.

    Rows of the training set are sharded round-robin over the configured
    parties; the model itself never exists in the clear until fitting ends
    with the collective hand-over.  Prediction runs the same polynomial
    activations on the decrypted weights.
    """

    def __init__(self, hidden_neurons=(16,), activation="approx_relu",
                 degree_param=4, sigma=20.0, delta=2.0 ** -20,
                 input_range=32.0, learning_rate=0.1, rounds=100,
                 batch_size=8, parties=3, transport="in_process", seed=0):
        self.hidden_neurons = hidden_neurons
        self.activation = activation
        self.degree_param = degree_param
        self.sigma = sigma
        self.delta = delta
        self.input_range = input_range
        self.learning_rate = learning_rate
        self.rounds = rounds
        self.batch_size = batch_size
        self.parties = parties
        self.transport = transport
        self.seed = seed

    # ----------------------------------------------------------- sklearn API

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "FederatedPolyMLP":
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for "
                                 f"{type(self).__name__}")
            setattr(self, key, value)
        return self

    # -------------------------------------------------------------- training

    def _config(self, n_classes: int) -> TrainingConfig:
        act = ActivationConfig(kind=self.activation, d=self.degree_param,
                               sigma=self.sigma, delta=self.delta,
                               input_range=self.input_range)
        neurons = tuple(self.hidden_neurons) + (n_classes,)
        return TrainingConfig(neurons=neurons, learning_rate=self.learning_rate,
                              global_iters=self.rounds,
                              batch_size=self.batch_size,
                              party_count=self.parties, activation=act,
                              seed=self.seed)

    def fit(self, X, y) -> "FederatedPolyMLP":
        X, y = check_x_y(X, y)
        self.classes_ = np.unique(y)
        config = self._config(len(self.classes_))
        shards = [(sx, np.searchsorted(self.classes_, sy))
                  for sx, sy in split_parties(X, y, self.parties, self.seed)]
        for sx, _ in shards:
            if len(sx) == 0:
                raise ValueError(
                    f"{self.parties} parties but only {len(X)} samples")
        result = run_training(config, shards, transport=self.transport)
        self.n_features_in_ = X.shape[1]
        self.result_ = result
        self.metrics_ = result.metrics
        plan = build_plan(config, X.shape[1])
        self.plan_ = plan
        self.weights_ = [pad_matrix(w, plan.h, plan.h)
                         for w in result.final_weights]
        self._activation = PlainActivation(config.activation)
        return self

    def _require_fitted(self):
        if not hasattr(self, "weights_"):
            raise NotFittedError(
                f"{type(self).__name__} must be fitted before prediction")

    def decision_function(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(f"X has {X.shape[1]} features; the model was "
                             f"fitted with {self.n_features_in_}")
        return scores_with_weights(self.weights_, self.plan_,
                                   self._activation, X)

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        X, y = check_x_y(X, y)
        return float(np.mean(self.predict(X) == y))
