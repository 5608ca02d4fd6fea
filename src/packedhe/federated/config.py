"""Training configuration, dataset CSV schema, and synthetic data helpers."""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACTIVATION_KINDS = ("identity", "approx_relu", "approx_sigmoid")


@dataclass(frozen=True)
class ActivationConfig:
    """Activation choice for every hidden/output layer.

    ``approx_relu`` evaluates a composite-polynomial sign gate with the given
    (d, sigma, delta) targets after scaling inputs by 1/input_range;
    ``approx_sigmoid`` uses a Chebyshev fit of the given degree on
    [-input_range, input_range].
    """

    kind: str = "identity"
    d: int = 4
    sigma: float = 20.0
    delta: float = 2.0 ** -20
    input_range: float = 32.0
    degree: int = 7

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}; "
                             f"choose from {ACTIVATION_KINDS}")
        _check_ints(self, 1, "d", "degree")
        _check_positive(self, "sigma", "delta", "input_range")


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters every participant agrees on before training starts."""

    neurons: tuple            # per-layer output sizes; last entry = classes
    learning_rate: float
    global_iters: int
    batch_size: int
    party_count: int
    activation: ActivationConfig = field(default_factory=ActivationConfig)
    seed: int = 0
    initial_level: int = 6
    scale_bits: int = 40
    fig5_squared_loss: bool = False

    def __post_init__(self):
        if (not isinstance(self.neurons, (list, tuple)) or not self.neurons
                or not all(_is_int(n) and n >= 1 for n in self.neurons)):
            raise ValueError(f"neurons must list at least one positive "
                             f"integer layer size, got {self.neurons!r}")
        object.__setattr__(self, "neurons", tuple(int(n) for n in self.neurons))
        _check_positive(self, "learning_rate")
        _check_ints(self, 1, "global_iters", "batch_size", "party_count",
                    "initial_level", "scale_bits")
        _check_ints(self, 0, "seed")
        if self.scale_bits > 511:  # a product's scale must stay finite
            raise ValueError(f"scale_bits must be <= 511, got {self.scale_bits}")
        if not isinstance(self.activation, ActivationConfig):
            raise ValueError(f"activation must be an ActivationConfig, got "
                             f"{self.activation!r}")
        if not isinstance(self.fig5_squared_loss, bool):
            raise ValueError(f"fig5_squared_loss must be true or false, got "
                             f"{self.fig5_squared_loss!r}")

    @property
    def layers(self) -> int:
        return len(self.neurons)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_ints(config, low: int, *names) -> None:
    """Refuse a field of ``config`` that is not an integer >= ``low``."""
    for name in names:
        value = getattr(config, name)
        if not _is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_positive(config, *names) -> None:
    """Refuse a field of ``config`` that is not a finite real number > 0."""
    for name in names:
        value = getattr(config, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not 0 < value < math.inf):
            raise ValueError(f"{name} must be a finite number > 0, got "
                             f"{value!r}")


_REQUIRED_KEYS = {"neurons", "learning_rate", "global_iters", "batch_size",
                  "party_count"}
_CONFIG_KEYS = _REQUIRED_KEYS | {"activation", "seed", "initial_level",
                                 "scale_bits", "fig5_squared_loss"}
_ACTIVATION_KEYS = {"kind", "d", "sigma", "delta", "input_range", "degree"}


def config_from_dict(data: dict) -> TrainingConfig:
    """Build a TrainingConfig from parsed JSON, rejecting unknown and missing
    keys and values of the wrong type with ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    data = dict(data)
    act = data.pop("activation", None)
    if act is not None:
        if not isinstance(act, dict):
            raise ValueError("activation must be an object")
        bad = set(act) - _ACTIVATION_KEYS
        if bad:
            raise ValueError(f"unknown activation keys: {sorted(bad)}")
        data["activation"] = ActivationConfig(**act)
    return TrainingConfig(**data)


def next_pow2(x: int) -> int:
    return 1 << max(int(x) - 1, 1).bit_length()


# ------------------------------------------------------------------ datasets


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset CSV: header row, float feature columns, int label last.

    Malformed cells raise with the offending line and field named.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    rows = []
    labels = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or len(header) < 2:
            raise ValueError(f"{path}: expected a header with >= 2 columns")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(x) for x in row[:-1]])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric feature field") from None
            try:
                labels.append(int(row[-1]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: label column must be an integer") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def save_dataset_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    path = Path(path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"f{i}" for i in range(features.shape[1])] + ["label"])
    for x, y in zip(features, labels):
        writer.writerow([repr(float(v)) for v in x] + [int(y)])
    path.write_text(buf.getvalue())


def make_synthetic_classification(samples: int = 699, features: int = 9,
                                  classes: int = 2, seed: int = 0,
                                  separation: float = 2.5):
    """Well-separated gaussian blobs, one per class, standardized features."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features))
    centers *= separation / np.linalg.norm(centers, axis=1, keepdims=True)
    labels = rng.integers(0, classes, size=samples)
    x = centers[labels] + rng.standard_normal((samples, features))
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-12)
    return x, labels


def split_parties(x: np.ndarray, y: np.ndarray, parties: int, seed: int = 0):
    """Deterministic round-robin shard assignment after a seeded shuffle."""
    order = np.random.default_rng(seed).permutation(len(x))
    shards = []
    for p in range(parties):
        idx = order[p::parties]
        shards.append((x[idx], y[idx]))
    return shards


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out
