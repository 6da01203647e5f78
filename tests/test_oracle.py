import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uptree.oracle as oracle_module
import uptree.ranking as ranking_module
from uptree.oracle import (
    NWRecord,
    corner_witness_exists_brute,
    enumerate_trees,
    equivalence_suite,
    min_nodes_for_rank,
    pathwidth_oracle,
    rank_bruteforce,
    rank_witness_exists_brute,
    rpw_path_oracle,
)
from uptree.ranking import corner_scan, rank
from uptree.tree import (
    gen_complete_binary,
    gen_path,
    gen_quintary_family,
    gen_random_tree,
    parse_tree,
    serialize_tree,
)
from uptree.widths import rooted_pathwidth

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]

rank_lists = st.lists(st.integers(1, 5), min_size=1, max_size=7)


# ---------------------------------------------------------------- enumeration


def test_enumeration_counts_are_catalan():
    for n in range(1, 9):
        trees = list(enumerate_trees(n))
        assert len(trees) == CATALAN[n - 1]
        assert all(t.n == n for t in trees)
        words = [serialize_tree(t) for t in trees]
        assert len(set(words)) == len(words)


def test_enumeration_is_lexicographic():
    words = [serialize_tree(t) for t in enumerate_trees(4)]
    assert words == ["(((())))", "((()()))", "((())())", "(()(()))", "(()()())"]
    assert words == sorted(words)


def test_enumeration_caps():
    with pytest.raises(ValueError):
        next(enumerate_trees(0))
    with pytest.raises(ValueError):
        next(enumerate_trees(16))
    # explicit override lifts the default cap
    assert next(enumerate_trees(16, max_n=16)).n == 16


# ---------------------------------------------------------------- brute rank


def test_rank_bruteforce_base_cases():
    assert rank_bruteforce(parse_tree("()")) == 1
    assert rank_bruteforce(parse_tree("(()())")) == 2
    assert rank_bruteforce(gen_path(11)) == 1
    assert rank_bruteforce(gen_complete_binary(3)) == 3


def test_rank_bruteforce_cap():
    with pytest.raises(ValueError):
        rank_bruteforce(gen_path(12))
    assert rank_bruteforce(gen_path(12), max_n=12) == 1


def test_rank_bruteforce_cap_message():
    with pytest.raises(ValueError, match=r"^tree has 12 nodes, oracle cap is 11$"):
        rank_bruteforce(gen_path(12))


def test_rank_bruteforce_max_n_raises_ceiling():
    star21 = parse_tree("(" + "()" * 20 + ")")
    assert rank_bruteforce(star21, max_n=21) == rank(star21).root_rank()


def test_quintary_family_ranks():
    # degree stays <= 5, so the cap can be lifted far beyond the default
    for i in range(1, 5):
        t = gen_quintary_family(i)
        assert rank_bruteforce(t, max_n=t.n) == 2 * i - 1


def test_quintary_blocks_both_scans_below_its_rank():
    # root child ranks of the i-th family member, in order
    for i in range(2, 6):
        r = 2 * i - 3
        ranks = [r, r, r + 1, r, r]
        W = 2 * i - 2
        assert corner_scan(ranks, W, "left") is None
        assert corner_scan(ranks, W, "right") is None
        assert not rank_witness_exists_brute(ranks, W)
        assert rank_witness_exists_brute(ranks, W + 1)


def test_engine_matches_brute_exhaustively():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            expected = rank_bruteforce(t)
            assert rank(t).root_rank() == expected, serialize_tree(t)
            assert expected >= rooted_pathwidth(t).root_value()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**64 - 1))
def test_engine_matches_brute_on_random_trees(n, seed):
    t = gen_random_tree(n, seed)
    assert rank(t).root_rank() == rank_bruteforce(t, max_n=13)


# ------------------------------------------------------- witness enumeration


def test_witness_exists_single_child():
    # a lone child admits a W-witness exactly when its rank fits
    assert rank_witness_exists_brute([1], 1)
    assert not rank_witness_exists_brute([2], 1)
    assert rank_witness_exists_brute([2], 2)


def test_witness_exists_rejects_bad_input():
    with pytest.raises(ValueError):
        rank_witness_exists_brute([], 1)
    with pytest.raises(ValueError):
        rank_witness_exists_brute([1], 0)
    with pytest.raises(ValueError):
        rank_witness_exists_brute([1], 1, restrict="corner")


def test_witness_112_at_w2():
    ranks = [1, 1, 2]
    assert rank_witness_exists_brute(ranks, 2)
    assert corner_scan(ranks, 2, "right") is not None
    assert corner_scan(ranks, 2, "left") is None


def _pi_by_matching(big_ranks, W):
    slots = range(1, W + 1)
    if len(big_ranks) > W:
        return False
    return any(
        all(s >= r for s, r in zip(assign, big_ranks))
        for assign in itertools.permutations(slots, len(big_ranks))
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(1, 7))
def test_sorted_dominance_equals_matching(big_ranks, W):
    from uptree.oracle import _pi_feasible

    assert _pi_feasible(big_ranks, W) == _pi_by_matching(big_ranks, W)


@settings(max_examples=200, deadline=None)
@given(rank_lists, st.integers(1, 6))
def test_witness_monotone_in_w(ranks, W):
    if rank_witness_exists_brute(ranks, W):
        assert rank_witness_exists_brute(ranks, W + 1)


@settings(max_examples=200, deadline=None)
@given(rank_lists, st.integers(1, 6))
def test_restrictions_do_not_change_existence(ranks, W):
    free = rank_witness_exists_brute(ranks, W)
    assert rank_witness_exists_brute(ranks, W, restrict="corner_X") == free
    assert rank_witness_exists_brute(ranks, W, restrict="corner_v") == free


@settings(max_examples=200, deadline=None)
@given(rank_lists, st.integers(1, 6))
def test_scans_match_corner_brute(ranks, W):
    scan = corner_scan(ranks, W, "left") is not None or corner_scan(ranks, W, "right") is not None
    brute = corner_witness_exists_brute(ranks, W, "left") or corner_witness_exists_brute(
        ranks, W, "right"
    )
    assert scan == brute == rank_witness_exists_brute(ranks, W)


def test_corner_brute_rejects_bad_input():
    with pytest.raises(ValueError):
        corner_witness_exists_brute([], 1, "left")
    with pytest.raises(ValueError):
        corner_witness_exists_brute([1], 1, "up")


def test_corner_brute_vacuous_case():
    # all children strictly below W: the empty chain qualifies on both sides
    assert corner_witness_exists_brute([1, 1], 2, "left")
    assert corner_witness_exists_brute([1, 1], 2, "right")
    assert not corner_witness_exists_brute([1, 1], 1, "left")
    assert not corner_witness_exists_brute([1, 1], 1, "right")


# ------------------------------------------------------------------- N(W)


def test_min_nodes_for_rank_small():
    assert min_nodes_for_rank(1, 3) == NWRecord(W=1, min_nodes_found=1, search_bound=3)
    assert min_nodes_for_rank(2, 5).min_nodes_found == 3
    rec = min_nodes_for_rank(3, 12)
    assert rec.min_nodes_found == 7
    assert rec.min_nodes_found >= 2**2
    assert rec._asdict() == {"W": 3, "min_nodes_found": 7, "search_bound": 12}


def test_min_nodes_not_found_is_reported():
    rec = min_nodes_for_rank(4, 7)
    assert rec.min_nodes_found is None
    assert rec.search_bound == 7


def test_min_nodes_for_rank_2_within_4_nodes():
    assert min_nodes_for_rank(2, n_max=4) == NWRecord(W=2, min_nodes_found=3, search_bound=4)


def test_min_nodes_for_rank_3_not_found_within_5_nodes():
    assert min_nodes_for_rank(3, n_max=5).min_nodes_found is None


def test_min_nodes_rejects_bad_input():
    with pytest.raises(ValueError):
        min_nodes_for_rank(5, 10)
    with pytest.raises(ValueError):
        min_nodes_for_rank(2, 16)


# ------------------------------------------------------------- equivalence


def test_equivalence_suite_small():
    rep = equivalence_suite(max_n=7, max_W=4)
    assert rep["agree"]
    assert rep["disagreements"] == []
    assert rep["disagreement_count"] == 0
    assert rep["trees_checked"] == sum(CATALAN[1:7])
    assert rep["pairs_checked"] == rep["trees_checked"] * 4


def test_equivalence_suite_up_to_4_nodes():
    rep = equivalence_suite(max_n=4, max_W=3)
    assert rep["agree"] and rep["disagreements"] == []
    assert rep["trees_checked"] == 8  # ordered trees with 2..4 nodes


def test_equivalence_suite_reports_a_broken_scan(monkeypatch):
    # with no right scan succeeding, the scan vote splits from the others
    # wherever only a right witness exists: the report must count every
    # such (tree, W), and list each split (child-rank tuple, W) once, named
    # by its first tree in enumeration order
    def left_only(ranks, W, side):
        return corner_scan(ranks, W, side) if side == "left" else None

    expected = []
    named: dict = {}
    for n in range(2, 8):
        for t in enumerate_trees(n):
            ann = rank(t).rank
            ranks = [ann[c] for c in t.children(t.root)]
            for W in range(1, 5):
                scan = left_only(ranks, W, "left") is not None
                if scan != rank_witness_exists_brute(ranks, W):
                    expected.append((n, serialize_tree(t), W))
                    named.setdefault((tuple(ranks), W), expected[-1])
    monkeypatch.setattr(ranking_module, "corner_scan", left_only)
    rep = equivalence_suite(max_n=7, max_W=4)
    assert not rep["agree"]
    assert rep["disagreement_count"] == len(expected) == 9
    first = rep["disagreements"][0]
    assert (first["n"], first["tree"], first["W"]) == expected[0] == (6, "(()()(()()))", 2)
    assert first["witness"] and not first["scan"]
    assert [(d["n"], d["tree"], d["W"]) for d in rep["disagreements"]] == list(named.values())


def test_equivalence_suite_at_the_cap():
    # every tree of 2..15 nodes: Catalan(1) + ... + Catalan(14)
    rep = equivalence_suite(max_n=15, max_W=1)
    assert rep["agree"]
    assert rep["trees_checked"] == rep["pairs_checked"] == 3707851


def test_equivalence_suite_echoes_config():
    rep = equivalence_suite(max_n=3, max_W=2)
    assert (rep["max_n"], rep["max_W"]) == (3, 2)
    assert "seed" not in rep
    assert rep["trees_checked"] == 3


def test_oracle_config_validates():
    with pytest.raises(ValueError):
        equivalence_suite(max_n=0)


@pytest.mark.parametrize("call, message", [
    (lambda: min_nodes_for_rank(2, n_max=99), "n_max must be in 1..15"),
    (lambda: equivalence_suite(max_n=99), "max_n=99 exceeds enumeration cap 15"),
    (lambda: equivalence_suite(max_W=0), "max_W must be in 1..15"),
    (lambda: equivalence_suite(max_W=16), "max_W must be in 1..15"),
], ids=["nw-n-max-99", "equivalence-max-n-99", "equivalence-max-w-0",
        "equivalence-max-w-16"])
def test_library_caps_raise(call, message):
    # the exact message, checked before any search starts
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------- pathwidth

# pw of every tree with at most 8 nodes, then of 40 seeded random trees
# of 12-14 nodes: 666 trees
FROZEN_PATHWIDTHS = "1ed11911a521be15ba49d26b7b8e32e94a0da02458b6a22f6a727512160fddbc"


def test_frozen_pathwidths():
    h = hashlib.sha256()
    trees = itertools.chain(
        itertools.chain.from_iterable(enumerate_trees(n) for n in range(1, 9)),
        (gen_random_tree(12 + s % 3, seed=s) for s in range(40)),
    )
    for t in trees:
        h.update(f"{serialize_tree(t)} {pathwidth_oracle(t)}\n".encode())
    assert h.hexdigest() == FROZEN_PATHWIDTHS


# ------------------------------------------------------------------ memos


def _module_container_sizes():
    return {
        name: len(value)
        for name, value in vars(oracle_module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_oracles_keep_no_module_state():
    # memo tables live for one call; a long-lived process must not
    # accumulate them
    before = _module_container_sizes()
    t = gen_random_tree(9, seed=3)
    for _ in range(2):
        rank_bruteforce(t)
        rpw_path_oracle(t)
        pathwidth_oracle(t)
        min_nodes_for_rank(2, n_max=4)
        equivalence_suite(max_n=4, max_W=2)
    assert _module_container_sizes() == before
