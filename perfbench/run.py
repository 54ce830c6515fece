"""fblab's benchmark: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload norm --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports fblab from ./src.  A run
repeats whole rounds of the workload (every input once, then every
certificate replay) until --seconds have passed, checks the outputs of
the first round (see checks.py) and requires every later round to
reproduce them.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (README.md).  With
--trace 1, rounds alternate between untraced and traced (spans.py), the
metrics are the per-layer ones per traced round plus the tracing
overhead, and the spans are written to .perfbench_out/ at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("norm", "oracle", "sections", "cli")
SETUP_REPEATS = 3
MAX_TRACED_ROUNDS = 3
CALIBRATION_STEPS = 60_000
# Median time of calibrate() on the reference machine (README.md).
NOMINAL_CALIBRATION_S = 0.019


def calibrate(repeats=3) -> float:
    """Median time of a fixed mix of interpreter and small-numpy work.

    The machine's speed drifts by a quarter and more over tens of seconds,
    because other tenants share it.  In-process times are scaled by
    NOMINAL_CALIBRATION_S over this figure, measured around every round,
    so that runs made in a slow stretch and in a fast one report the same
    work alike.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(CALIBRATION_STEPS):
            acc += (i % 7) * 0.5
            table[i % 64] = acc
        x = np.linspace(-1.0, 1.0, 16)
        for _ in range(CALIBRATION_STEPS // 50):
            x = np.abs(x * 0.999 - 0.001).clip(-1.0, 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import fblab, build the inputs and exit (times setup_s)")
    return ap.parse_args(argv)


class Context:
    """What a round needs: where to write, how to call, the active tracer."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.tracer = None
        self.child_rss_kib = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = []  # (kind, seconds, succeeded) per operation of the round

    def call(self, kind, fn):
        """Time one operation; an exception counts it as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is data, not a crash
            self.times.append((kind, time.perf_counter() - start, False))
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        self.times.append((kind, time.perf_counter() - start, True))
        return result


def build_inputs(workload, seed, outdir):
    import inputs

    if workload == "cli":
        return inputs.cli_inputs(seed, outdir)
    return inputs.BUILDERS[workload](seed)


def measure_setup(args, outdir):
    """Wall time of fresh interpreters that import fblab and build the inputs."""
    from workloads import spawn

    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, err, _ = spawn(argv, outdir)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"setup child exited {code}: {err.strip()[-300:]}")
    return times


def per_op_medians(rounds, kinds):
    """Each operation's median scaled time over the rounds, and whether it succeeded.

    A round runs the same operations in the same order, so position i is
    the same operation in every round.  Medians over rounds keep a round
    slowed by another process on the machine from moving the figures.
    """
    columns = zip(*([(k, t * r["scale"], ok) for k, t, ok in r["times"]] for r in rounds))
    return [(statistics.median(t for _, t, _ in col), all(ok for _, _, ok in col))
            for col in columns if col[0][0] in kinds]


def end_to_end(workload, rounds, setup_times, peak_rss_kib):
    # Every cli command is one user invocation, replay-cert included.
    ops = per_op_medians(rounds, {"main", "replay"} if workload == "cli" else {"main"})
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
        "ops_per_s": (sum(ok for _, ok in ops) / sum(t for t, _ in ops), "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "fblab" / "__init__.py").is_file():
        print("perfbench: no fblab sources at ./src/fblab; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    outdir = root / ".perfbench_out" / args.workload
    if args.setup_only:
        import fblab  # noqa: F401  (the import is part of what setup_s times)

        build_inputs(args.workload, args.seed, outdir)
        return 0
    outdir.mkdir(parents=True, exist_ok=True)

    import checks
    import spans
    import workloads

    setup_times = [] if args.trace else measure_setup(args, outdir)
    items = build_inputs(args.workload, args.seed, outdir)
    # cli times stay unscaled: child start-up does not follow the loop, and
    # neither did a child-interpreter loop (README.md).
    scaled = args.workload != "cli"
    calibration = [calibrate()] if scaled else []
    ctx = Context(outdir)
    tracer = spans.Tracer()
    round_fn = workloads.ROUNDS[args.workload]
    rounds = []
    first = None
    problems = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        ctx.times = []
        if traced:
            tracer.install()
            ctx.tracer = tracer
        t0 = time.perf_counter()
        try:
            results = round_fn(items, ctx)
        finally:
            if traced:
                tracer.uninstall()
                ctx.tracer = None
        wall = time.perf_counter() - t0
        scale = 1.0
        if scaled:
            calibration.append(calibrate())
            scale = NOMINAL_CALIBRATION_S / statistics.mean(calibration[-2:])
        rounds.append({"traced": traced, "times": ctx.times, "wall": wall, "scale": scale})
        if first is None:
            first = results
        elif not checks.same_outputs(first, results):
            problems.append(f"round {len(rounds)} does not reproduce round 1")
        elapsed = time.perf_counter() - start
        n_traced = sum(r["traced"] for r in rounds)
        if args.trace:
            if len(rounds) % 2 == 0 and (elapsed >= args.seconds or n_traced >= MAX_TRACED_ROUNDS):
                break
        elif elapsed + wall > args.seconds:  # the next round would overrun
            break
    own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems += checks.CHECKS[args.workload](items, first, args.seed)
    for msg in sorted(set(ctx.errors)):
        print(f"perfbench: failed operation: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    if args.trace:
        plain = [r["wall"] for r in rounds if not r["traced"]]
        traced_walls = [r["wall"] for r in rounds if r["traced"]]
        overhead = (statistics.mean(traced_walls) / statistics.mean(plain) - 1) * 100
        metrics = spans.layer_metrics(tracer, n_traced, overhead)
        trace_file = outdir.parent / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    else:
        peak = ctx.child_rss_kib if args.workload == "cli" else own_rss_kib
        metrics = end_to_end(args.workload, rounds, setup_times, peak)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
