"""Per-pair reference oracle for the batched one in ``linkdecay.oracle``.

This is the set-arithmetic evaluator and the one-pair-per-call sample draw
that the batch evaluator and the chunked draw replaced, kept for the tests
only: every raw score and every sampled candidate set must equal the ones
computed here bit for bit.  ``_candidate_pairs`` reads nothing of its graph
but ``node_count`` (and ``edges()`` in ``'edges'`` mode), so the tests can
pass a stand-in carrying only a node count.
"""

from __future__ import annotations

import math

import numpy as np

from linkdecay.graph import DegreeCombination, Graph
from linkdecay.scoring import Measure


class _RawEvaluator:
    """Naive set-arithmetic evaluation of the raw measures on one graph.

    A node's out and in sets are built the first time a pair needs them,
    and its adad weight ``1/log(d_k)`` the first time it is a common
    neighbor under a combination.  The weights are kept per combination,
    because OUT, IN and the summed degree of SYM/ASYM weigh a node
    differently.  A cached weight is the value the per-pair formula would
    give, and the sum adds the same terms in the same ``sorted(common)``
    order from 0.0, so every score keeps its bits.  :meth:`score` trusts
    its pair.
    """

    def __init__(self, g: Graph):
        self.g = g
        self._out: dict[int, set] = {}
        self._in: dict[int, set] = {}
        self._weights: dict[DegreeCombination, dict[int, float]] = {}

    def _out_set(self, v: int) -> set:
        s = self._out.get(v)
        if s is None:
            s = set(self.g.neighbors(v, "out").tolist())
            self._out[v] = s
        return s

    def _in_set(self, v: int) -> set:
        s = self._in.get(v)
        if s is None:
            s = set(self.g.neighbors(v, "in").tolist())
            self._in[v] = s
        return s

    def _sets(self, combo: DegreeCombination, i: int, j: int) -> tuple[set, set]:
        if combo is DegreeCombination.SYM:
            return (self._out_set(i) | self._in_set(i),
                    self._out_set(j) | self._in_set(j))
        if combo is DegreeCombination.ASYM:
            return self._out_set(i), self._in_set(j)
        if combo is DegreeCombination.IN:
            return self._in_set(i), self._in_set(j)
        return self._out_set(i), self._out_set(j)

    def _weight_degree(self, combo: DegreeCombination, k: int) -> int:
        if combo is DegreeCombination.OUT:
            return len(self._out_set(k))
        if combo is DegreeCombination.IN:
            return len(self._in_set(k))
        return len(self._out_set(k)) + len(self._in_set(k))

    def score(self, i: int, j: int, measure: Measure,
              combo: DegreeCombination) -> float:
        s1, s2 = self._sets(combo, i, j)
        d1, d2 = len(s1), len(s2)
        if measure is Measure.PA:
            return float(d1 * d2)
        common = s1 & s2
        cn = len(common)
        if measure is Measure.CN:
            return float(cn)
        if measure is Measure.COS:
            if d1 == 0 or d2 == 0:
                return 0.0
            return cn / (math.sqrt(d1) * math.sqrt(d2))
        if measure is Measure.JACC:
            union = len(s1) + len(s2) - cn
            if union == 0:
                return 0.0
            return cn / union
        weights = self._weights.setdefault(combo, {})
        total = 0.0
        for k in sorted(common):
            w = weights.get(k)
            if w is None:
                dk = self._weight_degree(combo, k)
                w = weights[k] = 0.0 if dk <= 1 else 1.0 / math.log(dk)
            total += w
        return total


def _candidate_pairs(g: Graph, pairs: str, max_pairs: int,
                     seed: int) -> np.ndarray:
    n = g.node_count
    if pairs == "edges":
        return g.edges()
    if pairs != "all":
        raise ValueError(f"pairs must be 'edges' or 'all', got {pairs!r}")
    if n * (n - 1) <= max_pairs or n <= 50:
        grid = [(i, j) for i in range(n) for j in range(n) if i != j]
        return np.array(grid, dtype=np.int64).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    out = set()
    while len(out) < max_pairs:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            out.add((int(i), int(j)))
    return np.array(sorted(out), dtype=np.int64)
