"""Acceptance criteria, one test per criterion.

Each test prints (and records for the terminal summary) a single
PASS/FAIL line with its measured runtime.  Sizes, counts, and time
budgets are pinned here on purpose; loosening them is a release
decision, not a refactor.
"""

import math
import random
import time

import conftest
from uptree.layout import draw_ordered, draw_unordered, layout_stats, reduce_bends
from uptree.oracle import (
    enumerate_trees,
    equivalence_suite,
    min_nodes_for_rank,
    pathwidth_oracle,
    rank_bruteforce,
)
from uptree.ranking import rank
from uptree.tree import (
    gen_complete_binary,
    gen_hpd_family,
    gen_quintary_family,
    gen_random_tree,
)
from uptree.verify import (
    check_drawing,
    extract_rank_witness,
    reorder_children_by_drawing,
)
from uptree.widths import heavy_path_depth, rooted_pathwidth


def report(num: int, ok: bool, text: str, secs: float):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text} [{secs:.1f}s]"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def batch_trees(count: int, n_max: int, seed_base: int):
    """The deterministic tree sample shared by criteria 3, 4, and 5."""
    for seed in range(seed_base, seed_base + count):
        n = random.Random(seed).randint(2, n_max)
        yield gen_random_tree(n, seed=seed)


def test_criterion_1_rank_engine_matches_bruteforce():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 10):
        for t in enumerate_trees(n):
            checked += 1
            if rank(t).root_rank() != rank_bruteforce(t):
                ok = False
    secs = time.perf_counter() - t0
    ok = ok and secs < 60
    report(1, ok, f"rank engine == brute force on all {checked} ordered trees "
           f"with n<=9 (budget 60s)", secs)


def test_criterion_2_equivalence_suite():
    t0 = time.perf_counter()
    rep = equivalence_suite(max_n=8, max_W=4)
    secs = time.perf_counter() - t0
    ok = rep["agree"] and rep["disagreement_count"] == 0 and secs < 300
    report(2, ok, f"witness-existence phrasings agree on "
           f"{rep['pairs_checked']} (tree, W) pairs, n<=8, W<=4 (budget 300s)",
           secs)


def test_criterion_3_unordered_drawings():
    t0 = time.perf_counter()
    draw_time = 0.0
    ok = True
    count = 0
    for t in batch_trees(1000, 500, seed_base=0):
        count += 1
        s = time.perf_counter()
        d = draw_unordered(t)
        draw_time += time.perf_counter() - s
        st = layout_stats(d)
        rep = check_drawing(t, d, require=("planar", "strictly_upward",
                                           "straight_line"))
        if not (rep.ok and st.width == rooted_pathwidth(t).root_value()
                and st.height == t.n):
            ok = False
    ms = 1000 * draw_time / count
    secs = time.perf_counter() - t0
    ok = ok and ms < 50
    report(3, ok, f"{count} random trees n<=500: unordered drawing has "
           f"width rpw, height n, strictly upward, straight-line; "
           f"{ms:.2f} ms/tree to draw (budget 50)", secs)


def test_criterion_4_ordered_drawings():
    t0 = time.perf_counter()
    draw_time = 0.0
    ok = True
    count = 0
    for t in batch_trees(1000, 500, seed_base=0):
        count += 1
        s = time.perf_counter()
        ann = rank(t)
        d = draw_ordered(t, ann)
        draw_time += time.perf_counter() - s
        st = layout_stats(d)
        rep = check_drawing(t, d, require=("planar", "strictly_upward",
                                           "order_preserving"))
        w = ann.root_rank()
        if not (rep.ok and st.width == w and st.height <= 2 * t.n - 1
                and st.max_bends_per_edge <= 3 and d.pos[t.root][0] in (1, w)):
            ok = False
    ms = 1000 * draw_time / count
    secs = time.perf_counter() - t0
    ok = ok and ms < 100
    report(4, ok, f"{count} random trees n<=500: ordered drawing has width "
           f"rank, height <= 2n-1, <= 3 bends, strictly upward, "
           f"order-preserving, root in a top corner; {ms:.2f} ms/tree "
           f"to rank+draw (budget 100)", secs)


def test_criterion_5_witness_extraction():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for t in batch_trees(1000, 500, seed_base=0):
        count += 1
        expected = rank(t).root_rank()
        w = extract_rank_witness(t, draw_ordered(t))
        if w is None or w.W != expected:
            ok = False
        t2, d2 = reorder_children_by_drawing(t, draw_unordered(t))
        w2 = extract_rank_witness(t2, d2)
        if w2 is None:
            ok = False
    secs = time.perf_counter() - t0
    report(5, ok, f"a validating rank witness extracted from every ordered "
           f"drawing (W == rank) and every reordered unordered drawing "
           f"({count} trees each)", secs)


def test_criterion_6_families():
    t0 = time.perf_counter()
    ok = True
    for i in range(1, 7):
        t = gen_quintary_family(i)
        if rooted_pathwidth(t).root_value() != i or rank(t).root_rank() != 2 * i - 1:
            ok = False
    for i in range(2, 13):
        t = gen_hpd_family(i)
        if rooted_pathwidth(t).root_value() != 2 or heavy_path_depth(t) != i:
            ok = False
    for h in range(1, 11):
        if rooted_pathwidth(gen_complete_binary(h)).root_value() != h:
            ok = False
    secs = time.perf_counter() - t0
    report(6, ok, "families: quintary i=1..6 has rpw i and rank 2i-1; "
           "hpd family i=2..12 has rpw 2 and hpd i; complete binary "
           "h=1..10 has rpw h", secs)


def test_criterion_7_parameter_inequalities():
    t0 = time.perf_counter()
    ok = True
    enumerated = 0
    for n in range(1, 13):
        for t in enumerate_trees(n):
            enumerated += 1
            rpw = rooted_pathwidth(t).root_value()
            r = rank(t).root_rank()
            if not (rpw <= r <= 2 * rpw - 1
                    and r <= math.floor(math.log2(t.n)) + 1
                    and rpw <= heavy_path_depth(t)
                    and 2 ** rpw - 1 <= t.n):
                ok = False
            if n <= 8:
                pw = pathwidth_oracle(t)
                if not pw <= rpw <= 2 * pw + 1:
                    ok = False
    sampled = 0
    for seed in range(10_000):
        n = random.Random(10**6 + seed).randint(1, 200)
        t = gen_random_tree(n, seed=10**6 + seed)
        sampled += 1
        rpw = rooted_pathwidth(t).root_value()
        r = rank(t).root_rank()
        if not (rpw <= r <= 2 * rpw - 1
                and r <= math.floor(math.log2(t.n)) + 1
                and rpw <= heavy_path_depth(t)
                and 2 ** rpw - 1 <= t.n):
            ok = False
    secs = time.perf_counter() - t0
    report(7, ok, f"rpw <= rank <= min(2 rpw - 1, log2(n)+1), rpw <= hpd, "
           f"n >= 2^rpw - 1 on all {enumerated} trees n<=12 "
           f"(plus pw <= rpw <= 2 pw + 1 for n<=8) and {sampled} random "
           f"trees n<=200", secs)


def test_criterion_8_minimal_sizes_per_rank():
    t0 = time.perf_counter()
    found = {W: min_nodes_for_rank(W, n_max=15).min_nodes_found
             for W in (1, 2, 3, 4)}
    secs = time.perf_counter() - t0
    ok = (found[1] == 1 and found[2] == 3 and found[3] is not None
          and found[3] >= 4 and secs < 600)
    matches = all(found[W] == 2 ** W - 1 for W in (1, 2, 3, 4))
    report(8, ok, f"smallest rank-W trees within n<=15: N(1)={found[1]}, "
           f"N(2)={found[2]}, N(3)={found[3]}, N(4)={found[4]} (equals "
           f"2^W-1: {matches}, recorded, not asserted; budget 600s)", secs)


def test_criterion_9_bend_reduction():
    t0 = time.perf_counter()
    ok = True
    count = 0
    for seed in range(5000, 5200):
        n = random.Random(seed).randint(2, 100)
        t = gen_random_tree(n, seed=seed)
        count += 1
        d3 = draw_ordered(t)
        d1 = reduce_bends(d3, t)
        rep = check_drawing(t, d1, require=("planar", "strictly_upward",
                                            "order_preserving"))
        if not (rep.ok and layout_stats(d1).width == layout_stats(d3).width
                and layout_stats(d1).max_bends_per_edge <= 1):
            ok = False
    secs = time.perf_counter() - t0
    report(9, ok, f"reduce_bends on {count} random trees n<=100: width "
           f"preserved, <=1 bend, strictly upward, order-preserving", secs)
