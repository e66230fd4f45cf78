"""belyilab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload covers --seed 1 --seconds 13 --trace 0

Run from a checkout's root.  The benchmark imports belyilab from the
checkout's `src/` and exits with status 2, printing no result, when that
is missing.  Each workload is a closed loop: one process, one op at a
time.  Ops cycle through inputs generated from the seed in rounds of
fixed composition, and the timed section ends with the first round that
completes after `--seconds` of op time and leaves at least MIN_BEYOND
samples beyond the workload's tail percentile.  Ops cost from
milliseconds to seconds, so stopping mid-round would change a run's mix,
and with it ops_per_s and the percentiles, with the exact moment the
deadline falls.  Times, the deadline's included, are taken at a
reference pace (see PACE_REFERENCE_S), so that the host's drifting speed
moves neither the metrics nor the number of rounds.
Outputs are checked against independent oracles after the timed section.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones: setup_s (median of five fresh processes, each measured from
interpreter start through import, input generation and one untimed
warm-up op), ops_per_s, op_p50_ms, op_tail_ms (a fixed percentile per
workload, see bench/README.md) and peak_rss_mb.  With `--trace 1` the
run wraps belyilab's public functions in spans (see tracer.py) and
reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "belyilab-bench"
WORKLOADS = ("covers", "chartab", "algebra", "cli")
SETUP_PROBES = 5
CLI_PROBES = 3
# op_tail_ms is the latency at a percentile with this many samples beyond it
MIN_BEYOND = 10
# The speed of a shared host can switch between levels 1.6 times apart, in
# phases of a tenth of a second to minutes that no choice of inputs
# averages out.  pace_s is
# timed at least every PACE_EVERY_S between ops, and every wall time is
# scaled by PACE_REFERENCE_S over the pace measured around it: time
# metrics read as they would where the pace loop takes PACE_REFERENCE_S.
PACE_EVERY_S = 0.25
PACE_REFERENCE_S = 0.010


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up and run the warm-up op, print 'ready' and exit (used to time setup_s)",
    )
    return p.parse_args(argv)


def _make_workload(name, seed):
    if name == "covers":
        from wl_covers import Covers

        return Covers(seed)
    if name == "chartab":
        from wl_chartab import Chartab

        return Chartab(seed)
    if name == "algebra":
        from wl_algebra import Algebra

        return Algebra(seed)
    from wl_cli import Cli

    return Cli(seed, ROOT, WORK / ("cli-%d-%d" % (seed, os.getpid())), src_env())


def _wall(argv, env=None, until_line=None):
    """Wall seconds of a child process, to its exit or to the first line it
    prints when `until_line` is set; the child is always waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if until_line is not None:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            out = proc.stdout.read()
            if line != until_line:
                raise RuntimeError("setup probe printed %r" % (line + out)[:200])
        else:
            out = proc.stdout.read()
            elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise RuntimeError("%s exited with status %d" % (argv[1:3], code))
    return elapsed, out


def use_sources():
    """Import belyilab from the checkout's src/ in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def src_env():
    """The environment of a child process that imports belyilab from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pace_s():
    """Wall seconds of a fixed pure-Python loop of dict updates, the
    yardstick of the host's momentary speed."""
    t = time.perf_counter()
    counts = {}
    for i in range(60000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - t


def at_reference_pace(seconds, pace):
    """Wall seconds measured at `pace`, scaled to the reference pace."""
    return seconds * PACE_REFERENCE_S / pace


def _setup_seconds(args):
    argv = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        "0",
        "--setup-probe",
    ]
    paces = [pace_s()]
    walls = []
    for _ in range(SETUP_PROBES):
        walls.append(_wall(argv, until_line="ready")[0])
        paces.append(pace_s())
    return statistics.median(at_reference_pace(w, (a + b) / 2) for w, a, b in zip(walls, paces, paces[1:]))


def _cli_costs():
    """Bare interpreter start, and a fresh `import belyilab.cli` timed inside
    the child (medians of CLI_PROBES runs each)."""
    bare = statistics.median(_wall([sys.executable, "-c", "pass"])[0] for _ in range(CLI_PROBES))
    code = "import time; t = time.perf_counter(); import belyilab.cli; print(time.perf_counter() - t)"
    imports = [float(_wall([sys.executable, "-c", code], env=src_env())[1]) for _ in range(CLI_PROBES)]
    return bare, statistics.median(imports)


def _peak_rss_mb():
    """Largest peak RSS of this process and of the children it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100.0 * n))


def percentile(values, pct):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = _rank(len(ordered), pct)
    return ordered[rank - 1], len(ordered) - rank


def measure(workload, seconds, tracer=None):
    """Warm up, then run whole rounds of ops until they have taken
    `seconds` at the reference pace and at least MIN_BEYOND samples lie
    beyond the workload's tail percentile.

    Returns (latencies, paces, results, elapsed): wall seconds per timed
    op, the mean of the pace_s measured before and after it, (item,
    output, error) per op with the warm-up first under op id -1, and the
    wall seconds of the timed section.
    """

    def run(op_id, item):
        if tracer is None:
            return workload.run(item)
        return tracer.run_op(op_id, workload.run, item)

    results = []
    try:
        results.append((workload.warmup, run(-1, workload.warmup), None))
    except Exception as exc:  # reported as a failed check
        results.append((workload.warmup, None, exc))
    latencies = []
    paces = []
    items = workload.items
    pace = pace_s()
    start = paced_at = time.perf_counter()
    op_time = 0.0
    i = 0
    while True:
        item = items[i % len(items)]
        t0 = time.perf_counter()
        try:
            out, err = run(i, item), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        results.append((item, out, err))
        op_time += at_reference_pace(t1 - t0, pace)
        i += 1
        done = op_time >= seconds and i % workload.round_len == 0 and i - _rank(i, workload.tail_pct) >= MIN_BEYOND
        if done or t1 - paced_at >= PACE_EVERY_S:
            before, pace = pace, pace_s()
            paces += [(before + pace) / 2] * (i - len(paces))
            paced_at = time.perf_counter()
        if done:
            return latencies, paces, results, t1 - start


def check_all(workload, results):
    """Oracle verdicts: (warm-up ok, number of failed timed ops, messages)."""
    failures = []
    ok = []
    for item, out, err in results:
        if err is None:
            try:
                workload.check(item, out)
            except Exception as exc:  # a rejected or malformed output
                err = exc
        ok.append(err is None)
        if err is not None and len(failures) < 5:
            failures.append("%s: %s" % (type(err).__name__, err))
    return ok[0], ok[1:].count(False), failures


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "belyilab" / "__init__.py").is_file():
        print("bench: no belyilab sources under %s" % SRC, file=sys.stderr)
        return 2
    use_sources()

    if args.setup_probe:
        import belyilab.cli  # noqa: F401

        workload = _make_workload(args.workload, args.seed)
        try:
            workload.run(workload.warmup)
        finally:
            getattr(workload, "close", lambda: None)()
        print("ready", flush=True)
        return 0

    setup_s = _setup_seconds(args) if not args.trace else None

    import belyilab.cli  # noqa: F401

    if Path(belyilab.cli.__file__).resolve().parent != (SRC / "belyilab").resolve():
        print("bench: imported belyilab from %s, not %s" % (belyilab.cli.__file__, SRC), file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = _make_workload(args.workload, args.seed)
    try:
        walls, paces, results, elapsed = measure(workload, args.seconds, tracer)
        peak_rss_mb = _peak_rss_mb()
        warm_ok, failed, messages = check_all(workload, results)
    finally:
        getattr(workload, "close", lambda: None)()

    attempted = len(walls)
    latencies = [at_reference_pace(w, p) for w, p in zip(walls, paces)]
    ops_per_s = attempted / sum(latencies)
    tail, beyond = percentile(latencies, workload.tail_pct)
    print(
        "workload %s seed %d: %d ops in %.2f s, %d failed (ops_failed_ratio %.4f), "
        "op_tail_ms = p%d with %d samples beyond; wall time ops_per_s %.4g, op_p50_ms %.4g, "
        "pace_s median %.4g ms (reference %.4g ms)"
        % (
            args.workload,
            args.seed,
            attempted,
            elapsed,
            failed,
            failed / attempted,
            workload.tail_pct,
            beyond,
            attempted / elapsed,
            statistics.median(walls) * 1000.0,
            statistics.median(paces) * 1000.0,
            PACE_REFERENCE_S * 1000.0,
        )
    )
    for message in messages:
        print("bench: %s" % message, file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "op_tail_ms": (tail * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracing.per_layer_metrics(tracer, attempted, ops_per_s)
        interpreter_s, import_s = _cli_costs()
        metrics["cli.interpreter_s"] = (interpreter_s, "s")
        metrics["cli.import_s"] = (import_s, "s")
        tracer.write(WORK / ("spans-%s-%d.jsonl.gz" % (args.workload, args.seed)))
    print(
        json.dumps(
            {
                "correct": warm_ok and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
