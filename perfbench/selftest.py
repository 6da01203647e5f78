"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from a checkout of the repository:

* the verify_wide generator's known verdicts on small trees, against the
  independent O(m^2) segment oracle in ``tests/geomcheck.py`` (read, not
  edited) and against ``check_drawing``;
* the reference recursions against the paper's family values;
* a tiny-size run of every workload, traced and untraced: no op fails,
  and every metric that ``BENCHMARK.json`` names is reported, with its
  unit.

Prints one line per check and exits 1 if any failed.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys

import run
import workloads

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def _geomcheck():
    spec = importlib.util.spec_from_file_location("geomcheck", run.ROOT / "tests" / "geomcheck.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def check_wide_verdicts(lib) -> None:
    oracle = _geomcheck()
    rng = random.Random(7)
    trees = [lib.gen_random_tree(n, seed=s) for n in (6, 9, 14, 25, 40) for s in range(8)]
    trees += [lib.gen_complete_binary(h) for h in (3, 4, 5)]
    trees += [lib.gen_quintary_family(i) for i in (2, 3)]
    checked = 0
    for t in trees:
        parent = workloads.parents(t)
        crossed = workloads.cross_two_leaves(parent, rng)
        if crossed is None:
            continue
        for pos, planar in ((workloads.layered_drawing(parent), True), (crossed, False)):
            d = lib.drawing_from_json(json.loads(workloads.drawing_json(parent, pos)))
            found = oracle.check(t, d, ordered=planar)
            if planar != (found == []):
                expect(False, f"oracle disagrees with the known verdict on {lib.serialize_tree(t)}: {found[:2]}")
                return
            rep = lib.check_drawing(t, d, require=workloads.WIDE_REQUIRE)
            if (rep.ok, rep.planar) != (planar, planar):
                expect(False, f"check_drawing disagrees with the known verdict on {lib.serialize_tree(t)}")
                return
            checked += 1
    expect(checked >= 40, f"verify_wide verdicts agree with tests/geomcheck.py on {checked} small drawings")


def check_references(lib) -> None:
    cases = [("path", k) for k in (1, 2, 7)] + [("binary", h) for h in range(1, 9)]
    cases += [("quintary", i) for i in range(1, 5)] + [("hpd", i) for i in range(2, 9)]
    bad = []
    for family, k in cases:
        t = workloads.generate(lib, family, k, None)
        got = workloads.reference_params(workloads.parents(t))
        known = workloads.family_values(family, k)
        if t.n != known["n"] or any(got[key] != known[key] for key in ("rpw", "rank") if key in known):
            bad.append(f"{family}({k})")
        if family == "hpd" and got["hpd"] != k:
            bad.append(f"hpd({k}) has hpd {got['hpd']}")
    expect(not bad, f"reference recursions match the paper's family values {bad or ''}")


def check_tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == run.END_TO_END, "BENCHMARK.json end_to_end matches what the run reports")
    expect(declared[1] == run.PER_LAYER, "BENCHMARK.json per_layer matches what the run reports")
    named = [w["name"] for w in spec["workloads"]]
    expect(set(named) <= set(workloads.WORKLOADS), f"BENCHMARK.json names known workloads {named}")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, detail = run.bench(workload, seed=1, seconds=0.1, trace=trace, tiny=True)
            metrics = result["metrics"]
            missing = [name for name, unit in declared[trace].items()
                       if metrics.get(name, {}).get("unit") != unit
                       or not isinstance(metrics[name].get("value"), (int, float))]
            expect(
                result["correct"] and result["failed"] == 0 and detail["fail_ratio"] == 0
                and result["attempted"] > 0 and not missing,
                f"tiny {workload} --trace {trace}: {result['attempted']} ops, fail_ratio "
                f"{detail['fail_ratio']}, {len(metrics)} metrics {missing or ''} "
                f"{detail['failures'][:2] or ''}{detail['cli_problems'][:2] or ''}",
            )


def main() -> int:
    if not (run.SRC / "uptree" / "__init__.py").is_file():
        print(f"selftest: no uptree sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    lib = run.import_uptree()
    check_wide_verdicts(lib)
    check_references(lib)
    check_tiny_runs()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
