"""uptree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from
``src/``.  Workloads (see ``workloads.py``), each a closed loop with one
client and inputs made from ``--seed``:

* ``params``      -- ``uptree widths``: load, rpw, hpd, rank at n up to 3*10^4.
* ``draw_deep``   -- ``draw | verify`` in all three modes on paths and
  hpd-family trees, where layout dominates.
* ``draw_bushy``  -- the same plus ``--witness`` and SVG rendering on
  shallow trees, where checking and serialization dominate.
* ``verify_wide`` -- ``verify`` of width-n layered drawings made by the
  benchmark, half of them with two crossing edges.  It runs by hand and
  in the self-test but is not in ``BENCHMARK.json``: on a shared 2-core
  host its times drifted by up to 1.5 times within five minutes, and in
  four of five sets of ten runs its spread passed the 0.25 bound, where
  the other workloads passed it once in twenty-one sets.

A run sets up at least three times (import, corpus, input files), more
while the set-ups add up to under a second, and reports the median as
``setup_s``.  It then runs whole rounds over the corpus until
``--seconds`` have passed and checks every op's outputs.  After every
other round it times one pass of the real CLI, as ``python -m
uptree.cli`` subprocesses, on the workload's fixed input.

``nodes_per_s`` is the nodes of all untraced ops over their summed
time.  ``op_ms_p50`` and ``op_ms_p90`` are quantiles over the corpus
inputs of each input's mean latency across the run's rounds, and
``cli_s`` is the mean CLI pass.  Repeats of one input differ mostly by
the host: a shared machine runs whole spells of seconds to minutes up to
1.5 times faster, and a quantile over the repeats jumps with the share
of a run such a spell covers, where a mean moves in proportion to it.
The spread of latency over the inputs is the program's own.

With ``--trace 0`` a run reports the end-to-end metrics.  With
``--trace 1`` it alternates traced and untraced rounds and reports
per-layer self times, work counts, tracing overhead, allocation peaks
(a separate ``tracemalloc`` pass whose times are discarded) and the
informational scaling ladder; spans are written to ``perfbench/.work``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (sample counts, failures, notes, the ladder table).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import ladder
import workloads
from spans import NullTracer, PeakTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Set-ups per run: at least MIN_SETUPS, and more, up to MAX_SETUPS, while
# they add up to less than SETUP_BUDGET seconds.  A set-up of 0.1 s read
# three times moves with every spell of a shared host; nine reads do not.
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_BUDGET = 1.0
IMPORT_REPS = 3
CLI_TIMEOUT = 120
LADDER_STEP_BUDGET = 0.5

END_TO_END = {
    "nodes_per_s": "nodes/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_s": "s",
}

SPANS = (
    "tree.parse", "tree.from_json", "widths.rpw", "widths.hpd", "rank.rank",
    "layout.unordered", "layout.ordered3", "layout.ordered1",
    "serialize.dump", "serialize.load", "verify.check", "verify.witness", "render.svg",
)
LAYERS = ("tree", "widths", "rank", "layout", "serialize", "verify", "render")
COUNTS = (
    "rank.bumped_nodes", "rank.right_witness_nodes", "rank.max_chain",
    "layout.points", "layout.sum_depth", "serialize.bytes",
    "verify.segments", "verify.wall_crossings", "verify.violations",
)
ALLOC_LAYERS = ("layout", "verify")

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPANS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "op.glue_share": "ratio",
    **{name: "count" for name in COUNTS},
    **{f"{layer}.alloc_peak_mb": "MB" for layer in ALLOC_LAYERS},
    "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
    **{f"{layer}.slope.{family}": "slope"
       for layer in ladder.LAYERS for family in ladder.FAMILIES},
}

NOTES = [
    "*_s per-layer metrics are mean self seconds per traced op; shares are of traced op time",
    "layout.ordered1_s times reduce_bends, which ranks the tree again inside its span",
    "verify.witness_s times extract_rank_witness, which runs check_drawing and rank inside",
    "counts are per round; layout.sum_depth (sum of node depths per layout call) and "
    "verify.wall_crossings (strip walls spanned per non-vertical segment) are computed, "
    "not measured",
    "gen_random_tree(max_degree=...) is left out: its rejection sampler fails past n of about 50",
    "the exponential oracle module is left out: it is test-time ground truth, capped by size",
]


def import_uptree():
    """Import uptree anew, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "uptree" or m.startswith("uptree.")]:
        del sys.modules[name]
    pkg = importlib.import_module("uptree")
    render = importlib.import_module("uptree.render")
    return types.SimpleNamespace(**vars(pkg), render_svg=render.render_svg)


def setup(workload, seed, tiny=False):
    """(lib, corpus, set-up seconds of each full set-up)."""
    times = []
    while len(times) < MIN_SETUPS or (len(times) < MAX_SETUPS and sum(times) < SETUP_BUDGET):
        lib = corpus = None
        gc.collect()
        t0 = time.perf_counter()
        lib = import_uptree()
        corpus = workloads.build(lib, workload, seed, WORK / workload, tiny=tiny)
        times.append(time.perf_counter() - t0)
    return lib, corpus, times


class Run:
    """Op latencies, CLI passes and failures of one measured loop."""

    def __init__(self):
        self.times = {}  # op index -> seconds of each untraced round
        self.traced_times = []
        self.cli_times = []
        self.cli_problems = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.counts = {}
        self.rounds = 0


def measure(lib, workload, corpus, seconds, tracer=None) -> Run:
    """Whole rounds until `seconds` have passed, with one CLI pass after
    every other round.

    With a tracer, rounds go traced, untraced, untraced, traced, and so
    on, and end after an even number of rounds, so that both kinds run
    equally often and equally early; work counts come from the first
    traced round.
    """
    run_op = workloads.RUN[workload]
    r = Run()
    plain = NullTracer()
    # A CLI process holds one input; keep the corpus out of the
    # collector's full passes, whose cost grows with every live object.
    gc.collect()
    gc.freeze()
    end = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and r.rounds % 4 in (0, 3)
        tr = tracer if traced else plain
        for i, op in enumerate(corpus.ops):
            r.attempted += 1
            tr.op = r.attempted
            try:
                t0 = time.perf_counter()
                with tr.span("op"):
                    res = run_op(lib, tr, op)
                dt = time.perf_counter() - t0
                problems = workloads.check(workload, op, res)
                if traced and r.rounds == 0:
                    workloads.add_counts(r.counts, op, res)
            except Exception as exc:  # a failing op is counted and the run goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            res = None
            if problems:
                r.failed += 1
                r.failures.append({"op": op.label, "problems": problems[:3]})
                continue
            if traced:
                r.traced_times.append(dt)
            else:
                r.times.setdefault(i, []).append(dt)
        r.rounds += 1
        if r.rounds % 2:
            t0 = time.perf_counter()
            for call in corpus.cli:
                r.cli_problems += [f"cli {call.argv[0]}: {p}" for p in _cli_once(call)]
            r.cli_times.append(time.perf_counter() - t0)
        if time.perf_counter() >= end and (tracer is None or r.rounds % 2 == 0):
            return r


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _cli(argv, stdin=None):
    return subprocess.run([sys.executable, "-m", "uptree.cli", *argv], input=stdin,
                          capture_output=True, cwd=ROOT, env=_env(), timeout=CLI_TIMEOUT)


def _cli_once(call) -> list:
    """Run one CLI call and return its problems.

    With ``pipe_to``, the first command's output goes to the second
    command's standard input once the first has ended, so that the pair
    needs one core, not two.
    """
    try:
        proc = _cli(call.argv)
        if call.pipe_to is not None:
            if proc.returncode != 0:
                return [f"{call.argv[0]} exited {proc.returncode}: {proc.stderr.decode()[:200]}"]
            proc = _cli(call.pipe_to, stdin=proc.stdout)
    except subprocess.TimeoutExpired as exc:
        return [f"timed out: {exc}"]
    if proc.returncode != call.code:
        return [f"exit {proc.returncode}, expected {call.code}: {proc.stderr.decode()[:200]}"]
    got = json.loads(proc.stdout)
    return [f"{key} is {got.get(key)!r}, expected {want!r}"
            for key, want in call.expect().items() if got.get(key) != want]


def time_cli_import() -> float:
    times = []
    for _ in range(IMPORT_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import uptree.cli"], cwd=ROOT, env=_env(),
                       check=True, timeout=CLI_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def alloc_peaks(lib, workload, corpus) -> dict:
    """Peak MB allocated inside layout and verify calls on the fixed input."""
    tr = PeakTracer(ALLOC_LAYERS)
    run_op = workloads.RUN[workload]
    tracemalloc.start()
    try:
        for op in corpus.probe:
            run_op(lib, tr, op)
    finally:
        tracemalloc.stop()
    return {f"{layer}.alloc_peak_mb": peak / 2**20 for layer, peak in tr.peaks.items()}


def _p90(times) -> float:
    return statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]


def end_to_end(r: Run, corpus, setup_s) -> dict:
    nodes = sum(corpus.ops[i].tree.n * len(ts) for i, ts in r.times.items())
    per_input = [statistics.fmean(ts) for ts in r.times.values()]
    return {
        "nodes_per_s": nodes / sum(sum(ts) for ts in r.times.values()),
        "op_ms_p50": statistics.median(per_input) * 1e3,
        "op_ms_p90": _p90(per_input) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_s": statistics.fmean(r.cli_times),
    }


def per_layer(r: Run, tracer: Tracer, extra: dict) -> dict:
    own = tracer.self_times()
    ops = len(r.traced_times)
    busy = sum(r.traced_times)
    out = {f"{name}_s": own.get(name, 0.0) / ops for name in SPANS}
    for layer in LAYERS:
        out[f"{layer}.share"] = sum(v for k, v in own.items() if k.split(".")[0] == layer) / busy
    out["op.glue_share"] = own.get("op", 0.0) / busy
    out.update({name: r.counts.get(name, 0) for name in COUNTS})
    out["trace.overhead_ratio"] = busy / sum(sum(ts) for ts in r.times.values()) - 1
    out["fail_ratio"] = r.failed / r.attempted
    out.update(extra)
    return out


def bench(workload, seed, seconds, trace, tiny=False) -> tuple:
    """One run: (the result object, the details)."""
    lib, corpus, setup_times = setup(workload, seed, tiny)
    tracer = Tracer() if trace else None
    r = measure(lib, workload, corpus, seconds, tracer)
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "loop": "closed, 1 client",
        "rounds": r.rounds, "inputs_per_round": len(corpus.ops),
        "samples": {"op_ms": sum(map(len, r.times.values())), "op_ms_inputs": len(r.times),
                    "traced_op_ms": len(r.traced_times),
                    "setup_s": len(setup_times), "cli_s": len(r.cli_times)},
        "fail_ratio": r.failed / r.attempted,
        "failures": r.failures[:10], "cli_problems": r.cli_problems[:10], "notes": NOTES,
        "op_ms": {corpus.ops[i].label: [round(t * 1e3, 3) for t in ts] for i, ts in r.times.items()},
        "cli_s": r.cli_times,
    }
    if trace:
        extra = alloc_peaks(lib, workload, corpus)
        extra["cli.import_s"] = time_cli_import()
        slopes, table = ladder.climb(lib, seed, LADDER_STEP_BUDGET, tiny)
        extra.update(slopes)
        detail["ladder"] = {f: [[n, {k: round(v, 6) for k, v in sec.items()}] for n, sec in rows]
                            for f, rows in table.items()}
        values = per_layer(r, tracer, extra)
        units = PER_LAYER
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / f"spans-{workload}-{seed}.jsonl")
    else:
        values = end_to_end(r, corpus, statistics.median(setup_times))
        units = END_TO_END
    result = {
        "correct": r.failed == 0 and not r.cli_problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="uptree benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "uptree" / "__init__.py").is_file():
        print(f"perfbench: no uptree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, detail = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
