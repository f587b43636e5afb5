"""gquad benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census-climb --seed 1 --seconds 55 --trace 0

The benchmark imports gquad from the checkout's ``src/`` (nothing needs
installing) and exits with status 2, printing no result, when those
sources are missing.  The whole run, set-up included, keeps to
``--seconds`` unless its one pass (two when tracing) takes longer.  It
runs under ``PYTHONHASHSEED`` = the seed, so the seed also decides the
iteration order of sets inside gquad.  It prints a readable summary and,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones:

    norm_wall_s   median wall time of one pass of the workload, scaled to
                  the reference loop's nominal speed (see
                  ``workloads.RunResult.normalised``); the raw pass times
                  and their median are printed in the summary
    norm_cpu_s    median process CPU time of one pass, scaled the same way
    setup_s       median, over several fresh interpreters, of the time to
                  start, import gquad and make a work directory
    peak_rss_mib  peak resident set size of this process

``fail_frac`` (failed operations / operations attempted) is printed in
the summary; the JSON carries it as ``failed`` and ``attempted``.  With
``--trace 1`` passes alternate untraced and traced, the metrics are the
per-layer ones (see ``layer_metric_names``), and the spans are written to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The run is single-threaded and measures a closed loop with one client.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ["census-climb", "geometry-ledger"]
SETUP_PROBES = 9
SPIN_ITERATIONS = 3_000_000

END_TO_END = [("norm_wall_s", "s"), ("norm_cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB")]


def _fail(message):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def import_gquad():
    """Import gquad from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gquad", "__init__.py")):
        _fail(f"no gquad sources under {SRC}")
    sys.path.insert(0, SRC)
    import gquad
    if os.path.dirname(os.path.dirname(os.path.abspath(gquad.__file__))) \
            != SRC:
        _fail(f"gquad imported from {gquad.__file__}, not from {SRC}")


def setup_probe():
    """One set-up: interpreter start (paid by the caller), import, work dir."""
    import_gquad()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT):
        pass


def measure_setup():
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-probe"], capture_output=True)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            _fail("set-up probe failed")
    return statistics.median(times)


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    from spans import COUNT_METRICS, RATIO_METRICS, SPAN_NAMES
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.busy_s", "s"), (f"{name}.self_s", "s"),
                (f"{name}.calls", "count")]
    out += [(f"{name}.{key}", "count") for name, key in COUNT_METRICS]
    out += [(f"{name}.{metric}", "ratio")
            for name, metric, _ in RATIO_METRICS]
    out += [("trace.overhead_s", "s"), ("trace.top_share", "ratio"),
            ("host.spin_s", "s")]
    return out


def layer_metrics(result, spin_s):
    """Per-layer values from the traced passes of a run.

    Times are medians over the traced passes; calls and counters come
    from the first traced pass, whose inputs depend on the seed only.
    """
    from spans import COUNT_METRICS, RATIO_METRICS, SPAN_NAMES
    tracer = result.tracer
    traced = [i for i, p in enumerate(result.passes) if p.traced]
    stats = [tracer.pass_stats(i) for i in traced]
    first, counts, _ = stats[0]
    values = {}
    for name in SPAN_NAMES:
        for key in ("busy_s", "self_s"):
            values[f"{name}.{key}"] = statistics.median(
                s[0][name][key] for s in stats)
        values[f"{name}.calls"] = first[name]["calls"]
    for name, key in COUNT_METRICS:
        values[f"{name}.{key}"] = counts.get((name, key), 0)
    for name, metric, key in RATIO_METRICS:
        calls = first[name]["calls"]
        values[f"{name}.{metric}"] = \
            counts.get((name, key), 0) / calls if calls else 0.0
    values["trace.overhead_s"] = \
        result.median("wall_s", traced=True) - result.median("wall_s")
    values["trace.top_share"] = \
        sum(s[2] for s in stats) / sum(result.passes[i].wall_s
                                       for i in traced)
    values["host.spin_s"] = spin_s
    return values


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_one(args):
    """Run one workload in this process; print the summary and the JSON."""
    import_gquad()
    setup_s = measure_setup()
    from workloads import loop_time, run_workload

    os.makedirs(OUT, exist_ok=True)
    spin_before = loop_time(SPIN_ITERATIONS)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        t0 = time.perf_counter()
        # what is left of the budget, keeping back the second spin
        seconds = args.seconds - (t0 - START) - spin_before
        info = {}
        result = run_workload(args.workload, seed=args.seed,
                              seconds=seconds, trace=bool(args.trace),
                              workdir=workdir, info=info)
        elapsed = time.perf_counter() - t0
    spin_after = loop_time(SPIN_ITERATIONS)
    spin_s = (spin_before + spin_after) / 2
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = [p for p in result.passes if not p.traced]
    walls = [p.wall_s for p in untraced]
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(result.passes)} passes in {elapsed:.1f} s, closed loop, "
          f"one client, single thread")
    for key, value in sorted(info.items()):
        print(f"  input {key}: {value}")
    if args.trace:
        metrics = layer_metrics(result, spin_s)
        units = dict(layer_metric_names())
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}"
                            ".jsonl")
        result.tracer.write_jsonl(path, t0)
        print(f"  spans: {len(result.tracer.spans)} written to {path}")
    else:
        metrics = {"norm_wall_s": result.normalised("wall_s"),
                   "norm_cpu_s": result.normalised("cpu_s"),
                   "setup_s": setup_s, "peak_rss_mib": rss_mib}
        units = dict(END_TO_END)
        lo, hi = _quartiles(walls)
        print(f"  pass wall times (s): "
              + " ".join(f"{w:.3f}" for w in walls)
              + f"; median {statistics.median(walls):.3f}, "
              f"quartiles {lo:.3f} .. {hi:.3f}")
        print(f"  median pass CPU time (s): "
              f"{statistics.median(p.cpu_s for p in untraced):.3f}")
        print(f"  reference loop, mean per pass (s): "
              + " ".join(f"{p.ref_s:.5f}" for p in untraced))
    for name, value in metrics.items():
        print(f"  {name:44s} {value:12.6g} {units[name]}")
    print(f"  {'fail_frac':44s} {result.failed / result.attempted:12.6g} "
          f"ratio ({result.failed} of {result.attempted} operations)")
    print(f"  host.spin_s before {spin_before:.4f} s, after "
          f"{spin_after:.4f} s (diagnostic only)")
    for line in result.problems[:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process, then one JSON."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            _fail(f"workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # the hash seed is fixed at interpreter start: start again
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + argv, env)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
