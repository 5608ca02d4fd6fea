"""The three benchmark workloads, driven through the public packedhe API.

Each workload is a closed loop with one outstanding unit: ``run_unit`` runs
one training job (several rounds) or one linalg step and returns its timed
wall time, the steps it completed and what ``check`` needs; ``check`` then
verifies the outputs outside the timed region and returns the problems found.
All inputs come from the seed; ``setup`` builds them and runs one warm-up
unit, whose tallies every later unit must reproduce exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from packedhe import engine, matrix
from packedhe.federated import config as fconfig
from packedhe.federated import protocol

GAP_LIMIT = 1e-6            # worst relative gap, encrypted vs mirror trajectory
COUNT_KEYS = (("rotations", "rotations"), ("mul_ct", "ct_mults"),
              ("mul_pt", "pt_mults"), ("bootstraps", "bootstraps"))


@dataclass
class Unit:
    wall_s: float           # timed wall time
    steps: int              # rounds of a training job, or 1 linalg step
    result: object          # handed to ``check``
    counts: dict = field(default_factory=dict)   # per-step metered counts


def per_round(rounds: list) -> list:
    """Per-round tallies and bytes from a ``metrics["rounds"]`` list.

    ``ops`` is a cumulative snapshot across all nodes, so it is differenced;
    ``bytes_tx``/``bytes_rx`` are already per-round deltas.
    """
    prev = dict.fromkeys(rounds[0]["ops"], 0)
    out = []
    for r in rounds:
        row = {k: r["ops"][k] - prev[k] for k in prev}
        row["bytes_tx"] = r["bytes_tx"]
        row["bytes_rx"] = r["bytes_rx"]
        out.append(row)
        prev = r["ops"]
    return out


def mean_counts(rows: list) -> dict:
    counts = {out: sum(r[key] for r in rows) / len(rows) for key, out in COUNT_KEYS}
    counts["wire_bytes"] = sum(r.get("bytes_tx", 0) for r in rows) / len(rows)
    return counts


class Training:
    """Repeated ``run_training`` jobs on one seeded dataset and config."""

    def __init__(self, seed: int, transport: str, samples: int, features: int,
                 neurons: tuple, batch: int, activation, rounds: int):
        self.seed = seed
        self.transport = transport
        self.party_count = 2
        self.shape = (samples, features)
        self.config = fconfig.TrainingConfig(
            neurons=neurons, learning_rate=0.1, global_iters=rounds,
            batch_size=batch, party_count=self.party_count,
            activation=activation, seed=seed)
        self.reference = None

    def setup(self) -> Unit:
        samples, features = self.shape
        x, y = fconfig.make_synthetic_classification(
            samples, features, self.config.neurons[-1], seed=self.seed)
        self.shards = fconfig.split_parties(x, y, self.party_count, seed=self.seed)
        warm = self.run_unit()
        self.reference = warm.result
        problems = self.check(warm)
        if problems:
            raise RuntimeError(f"warm-up job failed its checks: {problems}")
        return warm

    def run_unit(self) -> Unit:
        t0 = time.perf_counter()
        res = protocol.run_training(self.config, self.shards,
                                    transport=self.transport)
        wall = time.perf_counter() - t0
        rows = per_round(res.metrics["rounds"])
        summary = {"rows": rows, "accuracy": res.metrics["final"]["accuracy"],
                   "gap": worst_gap(res.ct_trajectory, res.mirror_trajectory)}
        return Unit(wall, len(rows), summary, mean_counts(rows))

    def check(self, unit: Unit) -> list:
        got, ref = unit.result, self.reference
        problems = []
        if not got["gap"] <= GAP_LIMIT:
            problems.append(f"mirror gap {got['gap']:.3e} > {GAP_LIMIT}")
        if got["rows"] != ref["rows"]:
            problems.append("per-round tallies or bytes differ from the warm-up job")
        if got["accuracy"] != ref["accuracy"]:
            problems.append(f"final accuracy {got['accuracy']} != warm-up "
                            f"{ref['accuracy']}")
        return problems


def worst_gap(ct_traj: list, mirror_traj: list) -> float:
    worst = 0.0
    for round_ct, round_pl in zip(ct_traj, mirror_traj):
        for a, b in zip(round_ct, round_pl):
            worst = max(worst, float(np.max(np.abs(a - b) / (np.abs(b) + 1e-9))))
    return worst


class LinalgMix:
    """One he_mat_mult, he_transpose and he_rect_mat_mult (t = h/4) per side."""

    SIDES = (16, 32, 64)
    POOL = 4                # input sets per side, used in turn

    def __init__(self, seed: int):
        self.seed = seed
        self.party_count = 0
        self.next = 0
        self.reference = None

    def setup(self) -> Unit:
        rng = np.random.default_rng(self.seed)
        self.inputs = {}
        for h in self.SIDES:
            ctx = matrix.register_context(engine.new_context(2 * h * h, 6, 2.0 ** 40, 1))
            pool = []
            for _ in range(self.POOL):
                a = rng.uniform(-10, 10, (h, h))
                b = rng.uniform(-10, 10, (h, h))
                r = rng.uniform(-10, 10, (h // 4, h))
                pool.append({
                    "ct": (matrix.encode_matrix(a, ctx), matrix.encode_matrix(b, ctx),
                           matrix.encode_rect_matrix(r, ctx)),
                    "want": (a @ b, a.T, np.tile(r @ b, (4, 1))),
                    "tol": (1e-9 * h * max(abs(a).max(), abs(b).max()) ** 2,
                            1e-12 * abs(a).max(),
                            1e-9 * h * max(abs(r).max(), abs(b).max()) ** 2)})
            self.inputs[h] = (ctx, pool)
        warm = self.run_unit()
        self.reference = warm.result["tallies"]
        problems = self.check(warm)
        if problems:
            raise RuntimeError(f"warm-up step failed its checks: {problems}")
        return warm

    def run_unit(self) -> Unit:
        pick = self.next % self.POOL
        self.next += 1
        wall = 0.0
        outputs, tallies = [], []
        for h in self.SIDES:
            ctx, pool = self.inputs[h]
            a, b, r = pool[pick]["ct"]
            for call, args in ((matrix.he_mat_mult, (a, b)),
                               (matrix.he_transpose, (a,)),
                               (matrix.he_rect_mat_mult, (r, b))):
                before = ctx.meter.snapshot()
                t0 = time.perf_counter()
                out = call(*args)
                wall += time.perf_counter() - t0
                after = ctx.meter.snapshot()
                outputs.append(out)
                tallies.append({k: after[k] - before[k] for k in after})
        total = {k: sum(t[k] for t in tallies) for k in tallies[0]}
        return Unit(wall, 1, {"pick": pick, "outputs": outputs, "tallies": tallies},
                    mean_counts([total]))

    def check(self, unit: Unit) -> list:
        problems = []
        outputs, tallies = unit.result["outputs"], unit.result["tallies"]
        for i, h in enumerate(self.SIDES):
            entry = self.inputs[h][1][unit.result["pick"]]
            for j, name in enumerate(("he_mat_mult", "he_transpose",
                                      "he_rect_mat_mult")):
                err = np.max(np.abs(matrix.decode_matrix(outputs[3 * i + j])
                                    - entry["want"][j]))
                if not err <= entry["tol"][j]:
                    problems.append(f"{name} h={h}: error {err:.3e} > "
                                    f"{entry['tol'][j]:.3e}")
            prod, rect = tallies[3 * i], tallies[3 * i + 2]
            if prod["rotations"] != matrix.matmul_rotation_formula(h):
                problems.append(f"he_mat_mult h={h}: {prod['rotations']} rotations, "
                                f"expected {matrix.matmul_rotation_formula(h)}")
            if prod["mul_ct"] != h or prod["mul_pt"] > 4 * h:
                problems.append(f"he_mat_mult h={h}: {prod['mul_ct']} ct mults "
                                f"(expected {h}), {prod['mul_pt']} pt mults "
                                f"(at most {4 * h})")
            if rect["mul_ct"] != h // 4:
                problems.append(f"he_rect_mat_mult h={h}: {rect['mul_ct']} ct "
                                f"mults, expected t={h // 4}")
        if self.reference is not None and tallies != self.reference:
            problems.append("per-call tallies differ from the warm-up step")
        return problems


def make(name: str, seed: int):
    if name == "train-relu-tcp":
        act = fconfig.ActivationConfig(kind="approx_relu", d=4, sigma=20.0,
                                       delta=2.0 ** -20)
        return Training(seed, "tcp", 699, 9, (16, 2), 8, act, rounds=5)
    if name == "train-wide-inproc":
        act = fconfig.ActivationConfig(kind="identity")
        return Training(seed, "in_process", 600, 60, (32, 2), 16, act, rounds=3)
    if name == "linalg-mix":
        return LinalgMix(seed)
    raise ValueError(f"unknown workload {name!r}")
