"""Is the computed rank really optimal?  Ask the brute-force oracle.

Every ordered tree with up to 8 nodes is enumerated, ranked by the
linear-time engine, and re-ranked by direct witness enumeration.  Then
the smallest trees needing each width are searched for.

Run:  python3 demos/optimality_check.py
"""

from collections import Counter

from uptree import rank
from uptree.oracle import enumerate_trees, min_nodes_for_rank, rank_bruteforce

per_rank = Counter()
disagreements = 0
total = 0
for n in range(1, 9):
    for t in enumerate_trees(n):
        total += 1
        fast = rank(t).root_rank()
        slow = rank_bruteforce(t)
        if fast != slow:
            disagreements += 1
        per_rank[fast] += 1

print(f"checked {total} trees (n <= 8), disagreements: {disagreements}")
print("rank distribution:", dict(sorted(per_rank.items())))

print()
print("smallest tree needing each width:")
for W in (1, 2, 3, 4):
    rec = min_nodes_for_rank(W, n_max=15)
    print(f"  rank {W}: {rec.min_nodes_found} nodes   (2^W - 1 = {2**W - 1})")
