"""packedhe benchmark: three closed-loop workloads against the public library API.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads:

* ``train-relu-tcp``    run_training, 2 parties over TCP, approx_relu at h=16
* ``train-wide-inproc`` run_training, 2 parties in-process, identity at h=64
* ``linalg-mix``        he_mat_mult, he_transpose, he_rect_mat_mult at h=16/32/64

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer table, taken
from a traced second half of the run, and the spans are written under
``.perfbench_out/``.  Every output is checked; a failed check makes
``correct`` false and the exit code 1.  Without an importable ``src/packedhe``
the script exits with code 2 and prints no result.  ``--workload all`` runs
each workload in its own process and prints one combined result.
"""

import time

T_START = time.perf_counter()   # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import JOB, Tracer, layer_table, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("train-relu-tcp", "train-wide-inproc", "linalg-mix")
MIN_UNITS = 3           # jobs or steps measured even when the time is up
SETUP_PROBES = 2        # extra fresh processes timed for setup_s
CHILD_TIMEOUT = 170.0
CHECKING = -1           # tracer job id while outputs are checked
SPAN_CAP = 300_000      # the traced phase stops early once it holds this many


def load_library():
    """Import packedhe from this checkout's ``src`` or exit with code 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import packedhe
    except ImportError as exc:
        problem = f"cannot import packedhe from {src}: {exc}"
    else:
        if Path(packedhe.__file__).resolve().parent.parent == src.resolve():
            return
        problem = f"packedhe was imported from {packedhe.__file__}, not from {src}"
    print(f"perfbench: {problem}", file=sys.stderr)
    sys.exit(2)


class Phase:
    """Closed-loop measurement: one unit outstanding, checks outside the clock."""

    def __init__(self):
        self.samples = []       # ms per step, one per unit
        self.wall_s = 0.0
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, wl, seconds: float, tracer=None) -> "Phase":
        deadline = time.perf_counter() + seconds
        while self.attempted < MIN_UNITS or (
                time.perf_counter() < deadline
                and (tracer is None or len(tracer.spans) < SPAN_CAP)):
            self.attempted += 1
            if tracer is not None:
                tracer.job = self.attempted
            try:
                unit = wl.run_unit()
                if tracer is not None:
                    tracer.job = CHECKING
                problems = wl.check(unit)
            except Exception as exc:  # a failed unit counts toward error_rate
                problems = [f"{type(exc).__name__}: {exc}"]
                unit = None
            if problems:
                self.failed += 1
                self.problems.extend(problems)
                continue
            self.samples.append(1000.0 * unit.wall_s / unit.steps)
            self.wall_s += unit.wall_s
            self.steps += unit.steps
        return self


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def probe_setup(args) -> float:
    """Set-up seconds of a fresh process running the same workload and seed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> str:
    load = os.getloadavg()
    return (f"nproc={os.cpu_count()} usable_cpus={len(os.sched_getaffinity(0))} "
            f"loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}")


def end_to_end(args, wl, warm) -> dict:
    setup_main = time.perf_counter() - T_START
    phase = Phase().run(wl, args.seconds)
    problems = list(phase.problems)
    setups = [setup_main]
    try:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        problems.append(f"set-up probe: {exc}")
    counts = warm.counts
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "step_ms_p50": metric(statistics.median(phase.samples)
                              if phase.samples else 0.0, "ms"),
        "steps_per_s": metric(phase.steps / phase.wall_s if phase.wall_s else 0.0,
                              "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rotations_per_step": metric(counts["rotations"], "count"),
        "ct_mults_per_step": metric(counts["ct_mults"], "count"),
        "pt_mults_per_step": metric(counts["pt_mults"], "count"),
    }
    # Reported for reading only: zero on some workload, or too few samples.
    extra = {
        "bootstraps_per_step": metric(counts["bootstraps"], "count"),
        "wire_bytes_per_step": metric(counts["wire_bytes"], "B"),
        "error_rate": metric(phase.failed / phase.attempted, "ratio"),
        "samples": metric(len(phase.samples), "count"),
        "setup_samples_s": metric(setups, "s"),
    }
    if len(phase.samples) >= 100:
        extra["step_ms_p90"] = metric(percentile(phase.samples, 90), "ms")
    return _result(args, phase.attempted, phase.failed, problems, metrics, extra)


def per_layer(args, wl) -> dict:
    base = Phase().run(wl, args.seconds / 2)
    tracer = Tracer()
    if wl.party_count:
        tracer.set_node("server")
    tracer.install()
    try:
        traced = Phase().run(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if s[JOB] != CHECKING]
    table = layer_table(spans, max(traced.steps, 1), wl.party_count)
    metrics = {name: metric(v, u) for name, (v, u) in table.items()}
    overhead = (statistics.median(traced.samples) / statistics.median(base.samples)
                - 1.0) if base.samples and traced.samples else 0.0
    metrics["trace.overhead_share"] = metric(overhead, "ratio")
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(path)
    extra = {"untraced_step_ms_p50": metric(statistics.median(base.samples)
                                            if base.samples else 0.0, "ms"),
             "traced_steps": metric(traced.steps, "count"),
             "spans": metric(len(spans), "count")}
    print(f"spans written to {path.relative_to(ROOT)}")
    return _result(args, base.attempted + traced.attempted,
                   base.failed + traced.failed, base.problems + traced.problems,
                   metrics, extra)


def _result(args, attempted, failed, problems, metrics, extra) -> dict:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{environment()}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:44s} {m['value']!s:>24} {m['unit']}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in its own process; print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode not in (0, 1) or not lines:
            print(out.stderr, file=sys.stderr)
            combined["correct"] = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    load_library()
    if args.workload == "all":
        return run_all(args)
    import workloads

    wl = workloads.make(args.workload, args.seed % (1 << 32))  # numpy seeds are >= 0
    warm = wl.setup()
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0
    result = end_to_end(args, wl, warm) if args.trace == 0 else per_layer(args, wl)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
