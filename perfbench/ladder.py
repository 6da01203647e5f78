"""Scaling ladder: seconds per layer at doubling sizes, per family.

Informational only, reported by the traced run and never gated.  Each
family climbs from n of about 10^3 in steps that double n (quintary
grows six-fold, the only step its family has).  A family stops after
the first step that takes longer than the step budget, once it has two
points, so the quadratic layout cannot stall the run.  The reported
``<layer>.slope.<family>`` is the least-squares slope of log seconds
against log n: 1 is linear, 2 quadratic.
"""

from __future__ import annotations

import gc
import json
import math
import random
import time

import workloads

FAMILIES = ("random", "path", "binary", "quintary", "hpd")
LAYERS = ("tree", "widths", "rank", "layout", "serialize", "verify")

_STEPS = {
    "random": [1000 * 2**i for i in range(8)],
    "path": [1000 * 2**i for i in range(8)],
    "binary": list(range(10, 18)),
    "quintary": [5, 6, 7],
    "hpd": list(range(10, 18)),
}
_TINY_STEPS = {
    "random": [50, 100],
    "path": [50, 100],
    "binary": [5, 6],
    "quintary": [2, 3],
    "hpd": [4, 5],
}


def _best(fn, *args):
    """(result, seconds): the fastest of up to five calls, repeated only
    while they add up to less than 0.1 s, so that small steps are not
    read off a single noisy call."""
    best = math.inf
    spent = 0.0
    for _ in range(5):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        if spent >= 0.1:
            break
    return out, best


def _widths(lib, t):
    lib.rooted_pathwidth(t)
    lib.heavy_path_depth(t)


def _round_trip(lib, d):
    text = json.dumps(lib.drawing_to_json(d), sort_keys=True, indent=2)
    return lib.drawing_from_json(json.loads(text))


def _step(lib, t) -> dict:
    """Seconds each layer takes on one tree, ordered3 for layout and verify."""
    s = {}
    t, s["tree"] = _best(lib.parse_tree, lib.serialize_tree(t))
    _, s["widths"] = _best(_widths, lib, t)
    ann, s["rank"] = _best(lib.rank, t)
    d, s["layout"] = _best(lib.draw_ordered, t, ann)
    d, s["serialize"] = _best(_round_trip, lib, d)
    rep, s["verify"] = _best(lib.check_drawing, t, d, ("planar", "strictly_upward", "order_preserving"))
    if not rep.ok:
        raise RuntimeError(f"ladder drawing of n={t.n} failed verification: {rep.violations[:2]}")
    return s


def _slope(points) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(max(sec, 1e-9)) for _, sec in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def climb(lib, seed: int, step_budget: float, tiny: bool = False) -> tuple:
    """Run the ladder; return ({metric: slope}, {family: [(n, {layer: s})]})."""
    rng = random.Random(f"ladder:{seed}")
    slopes: dict = {}
    table: dict = {}
    for family in FAMILIES:
        rows = []
        for k in (_TINY_STEPS if tiny else _STEPS)[family]:
            t = workloads.generate(lib, family, k, rng)
            # the collector's full passes scale with everything alive in
            # the process, not with this step; keep them out of its times
            gc.collect()
            gc.disable()
            try:
                sec = _step(lib, t)
            finally:
                gc.enable()
            rows.append((t.n, sec))
            if len(rows) >= 2 and sum(sec.values()) > step_budget:
                break
        table[family] = rows
        for layer in LAYERS:
            slopes[f"{layer}.slope.{family}"] = _slope([(n, sec[layer]) for n, sec in rows])
    return slopes, table
