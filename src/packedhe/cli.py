"""Command line front end: operation-count benchmarks and training runs.

Subcommands:

* ``matmul-bench``  packed matrix product vs. the naive and diagonal reference
                    paths, plus the analytic replication-packing cost row
* ``sign-bench``    composite sign approximation: shortest escape-then-sharpen
                    schedule, depth bound, grid error, one stage's products
                    and rescales, CSV error profile
* ``train``         end-to-end encrypted federated training from a JSON config
                    and per-party CSV datasets

Exit status is 0 iff every assertion embedded in the produced reports passed;
input the program refuses, and a training job that a party's failure or a
timeout ends, print an ``error:`` line and exit with 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import matrix, references
from .approx import (CompositePolySpec, closeness_grid, depth_bound_formula,
                     eval_composite, stage_depth)
from .bench import BenchReport, write_report
from .engine import new_context
from .federated.config import config_from_dict, load_dataset_csv
from .federated.protocol import ProtocolError, run_training
from .federated.transport import TransportError
from .matrix import matmul_rotation_formula


def cmd_matmul_bench(args) -> list:
    rng = np.random.default_rng(args.seed)
    sizes = [int(s) for s in args.sizes.split(",")]
    reports = []
    for h in sizes:
        ctx = new_context(2 * args.beta * h * h, 6, 2.0 ** 40, 1)
        report = BenchReport("matmul-bench-h%d" % h,
                            {"h": h, "beta": args.beta, "repeat": args.repeat,
                             "seed": args.seed})
        start = time.perf_counter()
        packed = naive = diag = None
        drift = 0.0
        for _ in range(args.repeat):
            mats_a = [rng.standard_normal((h, h)) for _ in range(args.beta)]
            mats_b = [rng.standard_normal((h, h)) for _ in range(args.beta)]
            pa = matrix.pack_matrices(mats_a, ctx)
            pb = matrix.pack_matrices(mats_b, ctx)
            with ctx.meter_scope() as packed:
                pc = matrix.he_mat_mult(pa, pb)
            for slot, (ma, mb) in enumerate(zip(mats_a, mats_b)):
                got = matrix.decode_matrix(pc, slot)
                err = np.max(np.abs(got - ma @ mb))
                tol = 1e-9 * h * max(np.max(np.abs(ma)), np.max(np.abs(mb))) ** 2
                drift = max(drift, float(err / tol))
            if args.beta == 1:
                with ctx.meter_scope() as naive:
                    references.naive_mat_mult(pa, pb)
                with ctx.meter_scope() as diag:
                    references.diagonal_mat_mult(pa, pb)
        report.wall_time_ms = (time.perf_counter() - start) * 1e3
        report.meter = packed.snapshot()
        report.add_row("packed", rotations=packed.rotations, adds=packed.adds,
                       mul_pt=packed.mul_pt, mul_ct=packed.mul_ct)
        if naive is not None:
            report.add_row("naive_lintrans", rotations=naive.rotations,
                           adds=naive.adds, mul_pt=naive.mul_pt,
                           mul_ct=naive.mul_ct)
            report.add_row("diagonal_vectors", rotations=diag.rotations,
                           adds=diag.adds, mul_pt=diag.mul_pt,
                           mul_ct=diag.mul_ct)
        ap = references.alternating_packing_rotations(h, h)
        report.add_row("alternating_packing", analytic=True, rotations=ap)

        # ``packed`` meters the last call only; the counts are per call.
        report.check("correctness",
                     "max |decode(C) - A@B| / (1e-9*h*max(|A|,|B|)**2) <= 1 "
                     "over every repeat and beta slot", 1.0, drift)
        report.check("rotation ceiling", "rotations <= (3h + 5*sqrt(h)) per call",
                     matmul_rotation_formula(h), packed.rotations)
        report.check("ciphertext products", "mul_ct == h per call",
                     h, packed.mul_ct, mode="eq")
        report.check("plaintext products", "mul_pt <= 4h per call",
                     4 * h, packed.mul_pt)
        report.check("additions", "adds + subs <= 6h per call",
                     6 * h, packed.adds + packed.subs)
        if naive is not None:
            report.check("naive dominance", "packed rotations < naive rotations",
                         naive.rotations, packed.rotations, mode="lt")
            report.check("diagonal dominance",
                         "packed rotations < diagonal rotations",
                         diag.rotations, packed.rotations, mode="lt")
        if h == 64:
            report.check("rotation identity at h=64", "rotations == 232 per call",
                         232, packed.rotations, mode="eq")
            report.check("analytic replication-packing rotations",
                         "omega*log2(h*omega) == 768 at h=omega=64", 768, ap,
                         mode="eq")
        reports.append(report)
    return reports


def _stage_tallies(coeffs: tuple):
    """Meter of one ``odd_poly_stage`` call with the given coefficients."""
    ctx = new_context(16, stage_depth(len(coeffs) - 1))
    pts = tuple(ctx.encode(np.full(ctx.slot_count, c)) for c in coeffs)
    m = ctx.encrypt(ctx.encode(np.linspace(-1.0, 1.0, ctx.slot_count)))
    with ctx.meter_scope() as stage:
        ctx.odd_poly_stage(m, pts)
    return stage


def cmd_sign_bench(args) -> list:
    spec = CompositePolySpec.for_closeness(args.d, args.sigma, args.delta)
    bound = depth_bound_formula(args.d, args.sigma, args.delta)
    start = time.perf_counter()
    grid = closeness_grid(args.delta, args.grid_size)
    vals = eval_composite(grid, spec)
    errors = np.abs(vals - 1.0)
    max_err = float(np.max(errors))

    report = BenchReport("sign-bench",
                         {"d": args.d, "sigma": args.sigma, "delta": args.delta,
                          "grid_size": args.grid_size, "seed": args.seed})
    stage = _stage_tallies(spec.schedule[0])
    report.add_row("composite", depth_k=spec.k, k_escape=spec.k_escape,
                   k_sharpen=spec.k_sharpen, bound=bound,
                   stage_levels=stage_depth(args.d), max_error=max_err,
                   stage_ct_mults=stage.mul_ct, stage_pt_mults=stage.mul_pt,
                   stage_rescales=stage.rescales)
    report.check("closeness", "max grid error <= 2**-sigma",
                 2.0 ** -args.sigma, max_err)
    report.check("depth bound", "minimal k <= closed-form bound + slack",
                 bound, spec.k)
    report.check("stage ciphertext products",
                 "mul_ct == ceil(d/2) + 2 per stage (2 at d = 1)",
                 2 if args.d == 1 else (args.d + 1) // 2 + 2, stage.mul_ct,
                 mode="eq")
    report.wall_time_ms = (time.perf_counter() - start) * 1e3

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["m,composite_value,abs_error"]
        stride = max(1, len(grid) // 10_000)
        for m, v, e in zip(grid[::stride], vals[::stride], errors[::stride]):
            lines.append(f"{float(m)!r},{float(v)!r},{float(e)!r}")
        (out / "sign_error_profile.csv").write_text("\n".join(lines) + "\n")
    return [report]


def cmd_train(args) -> list:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise FileNotFoundError(f"config file not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{cfg_path}: invalid JSON ({exc})") from None
    config = config_from_dict(raw)

    data_dir = Path(args.data_dir)
    shards = [load_dataset_csv(data_dir / f"party_{p}.csv")
              for p in range(config.party_count)]
    test_path = data_dir / "test.csv"
    test_set = load_dataset_csv(test_path) if test_path.exists() else None

    result = run_training(config, shards, transport=args.transport,
                          test_set=test_set)

    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    metrics_text = json.dumps(result.metrics, sort_keys=True, indent=2)
    (out / "metrics.json").write_text(metrics_text + "\n")
    for j, w in enumerate(result.final_weights):
        (out / f"model_layer_{j}.csv").write_text(matrix.matrix_to_csv(w))

    final = result.metrics["final"]
    print(f"final accuracy {final['accuracy']:.4f} | ideal-activation "
          f"reference {final['exact_activation_accuracy']:.4f} | "
          f"delta {final['accuracy_delta']:.4f}")
    report = BenchReport("train", {"config": str(cfg_path),
                                   "transport": args.transport,
                                   "seed": config.seed})
    report.meter = final["ops_total"]
    report.add_row("encrypted_training",
                   accuracy=final["accuracy"],
                   reference=final["exact_activation_accuracy"])
    return [report]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packedhe",
        description="Packed-ciphertext matrix algebra and encrypted training "
                    "benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None,
                        help="directory for JSON/CSV outputs")
    common.add_argument("--json", action="store_true",
                        help="print reports as JSON instead of tables")

    p = sub.add_parser("matmul-bench", parents=[common],
                       help="matrix product op-count comparison")
    p.add_argument("--sizes", type=str, default="4,16,64",
                   help="comma-separated matrix sides")
    p.add_argument("--beta", type=int, default=1, help="matrices per ciphertext")
    p.add_argument("--repeat", type=int, default=1)
    p.set_defaults(fn=cmd_matmul_bench)

    p = sub.add_parser("sign-bench", parents=[common],
                       help="composite sign approximation profile")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--sigma", type=float, default=20.0)
    p.add_argument("--delta", type=float, default=2.0 ** -20)
    p.add_argument("--grid-size", type=int, default=100_000)
    p.set_defaults(fn=cmd_sign_bench)

    p = sub.add_parser("train", parents=[common],
                       help="encrypted federated training run")
    p.add_argument("--config", type=str, required=True, help="JSON config file")
    p.add_argument("--data-dir", type=str, required=True,
                   help="directory with party_<i>.csv shards (and optional "
                        "test.csv)")
    p.add_argument("--transport", choices=("in_process", "tcp"),
                   default="in_process")
    p.set_defaults(fn=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        reports = args.fn(args)
    except (ValueError, FileNotFoundError, ProtocolError,
            TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ok = True
    for report in reports:
        if args.json:
            print(report.to_json())
        else:
            print(report.render_text())
            print()
        if args.out:
            write_report(report, args.out, args.json)
        ok = ok and report.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
