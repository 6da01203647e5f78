from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uptree.oracle import pathwidth_oracle, rpw_path_oracle
from uptree.tree import (
    gen_complete_binary,
    gen_hpd_family,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
)
from uptree.widths import (
    ParamReport,
    heavy_path_depth,
    param_report,
    rooted_pathwidth,
)


def test_rpw_rooted_paths():
    for k in (1, 2, 3, 7, 40):
        assert rooted_pathwidth(gen_path(k)).root_value() == 1


def test_rpw_complete_binary():
    for h in range(1, 11):
        assert rooted_pathwidth(gen_complete_binary(h)).root_value() == h


def test_rpw_quintary():
    for i in range(1, 6):
        assert rooted_pathwidth(gen_quintary_family(i)).root_value() == i


def test_rpw_heavy_child_annotation():
    t = parse_tree("(()()(()()))")  # children rpw 1,1,2: third is uniquely heaviest
    ann = rooted_pathwidth(t)
    assert ann.rpw[0] == 2
    assert ann.heavy_child[0] == t.children(0)[2]
    assert ann.heavy_child[1] is None
    # two equal-rpw children: tie broken leftmost, value bumps by one
    t2 = parse_tree("((()())(()()))")
    ann2 = rooted_pathwidth(t2)
    assert ann2.rpw[0] == 3
    assert ann2.heavy_child[0] == t2.children(0)[0]


def test_rpw_matches_recursion_everywhere():
    t = gen_quintary_family(3)
    ann = rooted_pathwidth(t)
    for v in range(t.n):
        kids = t.children(v)
        if not kids:
            assert ann.rpw[v] == 1
            continue
        best = min(
            max(ann.rpw[c] + (0 if c == h else 1) for c in kids) for h in kids
        )
        assert ann.rpw[v] == best
        assert ann.heavy_child[v] in kids


def test_hpd_base_cases():
    assert heavy_path_depth(gen_path(1)) == 1
    assert heavy_path_depth(gen_path(5)) == 1
    for h in range(1, 8):
        assert heavy_path_depth(gen_complete_binary(h)) == h


def test_hpd_family_values():
    for i in range(2, 13):
        t = gen_hpd_family(i)
        assert heavy_path_depth(t) == i
        assert rooted_pathwidth(t).root_value() == 2


def test_rpw_path_oracle_examples():
    assert rpw_path_oracle(parse_tree("()")) == 1
    assert rpw_path_oracle(gen_complete_binary(3)) == 3
    assert rpw_path_oracle(gen_hpd_family(3)) == 2
    for k in (1, 2, 5, 16):
        assert rpw_path_oracle(gen_path(k)) == 1


def test_rpw_path_oracle_cap():
    with pytest.raises(ValueError):
        rpw_path_oracle(gen_path(17))
    assert rpw_path_oracle(gen_path(17), max_n=17) == 1


def test_pathwidth_oracle_examples():
    assert pathwidth_oracle(parse_tree("()")) == 0
    assert pathwidth_oracle(gen_path(6)) == 1
    assert pathwidth_oracle(gen_complete_binary(3)) == 1
    assert pathwidth_oracle(parse_tree("(()()())")) == 1  # star
    assert pathwidth_oracle(parse_tree("((())()())")) == 1
    assert pathwidth_oracle(gen_complete_binary(4), max_n=15) == 2


def test_pathwidth_oracle_cap():
    with pytest.raises(ValueError, match=r"^pathwidth_oracle capped at n <= 14, got 15$"):
        pathwidth_oracle(gen_path(15))


def test_pathwidth_spider():
    # three legs of length 2 from a hub: removing any path leaves a leg,
    # so pw = 2... unless the legs are single edges.  Exhaustive ground truth.
    spider = parse_tree("((())(())(()))")
    assert pathwidth_oracle(spider) == 2


def test_param_report():
    rep = param_report(gen_complete_binary(3))
    assert rep == ParamReport(n=7, rpw=3, hpd=3)
    assert rep._asdict() == {"n": 7, "rpw": 3, "hpd": 3}
    rep2 = param_report(gen_hpd_family(6))
    assert rep2 == ParamReport(n=gen_hpd_family(6).n, rpw=2, hpd=6)
    assert "pw" not in rep2._asdict()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**64 - 1))
def test_rpw_agrees_with_path_oracle(n, seed):
    t = gen_random_tree(n, seed)
    assert rooted_pathwidth(t).root_value() == rpw_path_oracle(t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**64 - 1))
def test_pw_sandwich(n, seed):
    t = gen_random_tree(n, seed)
    pw = pathwidth_oracle(t)
    rpw = rooted_pathwidth(t).root_value()
    assert pw <= rpw <= 2 * pw + 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_rpw_bounds(n, seed):
    t = gen_random_tree(n, seed)
    rpw = rooted_pathwidth(t).root_value()
    assert 2**rpw - 1 <= t.n
    assert rpw <= heavy_path_depth(t)
