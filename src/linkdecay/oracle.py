"""Exhaustive complement-graph evaluation for validating the closed forms.

The scoring module computes complement-graph measures through closed forms
that never build the complement.  This module is the check on that
arithmetic: it *does* build the complement (dense, hence the node-count
limit), evaluates the raw measures on it with naive set arithmetic, and
reports the deviation from the closed forms.  The two paths share only the
graph structure, so agreement is meaningful.

Per degree combination the complement view is:

* OUT / IN / ASYM — the directed complement (every ordered pair absent
  from the graph, self-loops excluded).  Its out/in neighbor sets are
  exactly the set complements of the original ones.
* SYM — the complement of the *symmetrized* graph.  Symmetrization and
  complementation do not commute, and the symmetric reading of the
  measures lives on the symmetrized structure, so the complement must be
  taken there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import DegreeCombination, Graph, _check_pair
from .scoring import Measure, ScoreModel, ScoreSpec, score_matrix
# Kept as a module attribute: perfbench's traced oracle run patches
# ``oracle.complement_network_score``.
from .scoring import complement_network_score  # noqa: F401

__all__ = [
    "OracleReport",
    "brute_force_g2",
    "check_closed_form",
    "materialize_complement",
    "raw_measure",
    "symmetrize",
]

#: Refuse to materialize complements beyond this many nodes; the complement
#: of a sparse graph is dense, so memory grows with n^2.
COMPLEMENT_NODE_LIMIT = 2000


def _dense(g: Graph) -> np.ndarray:
    n = g.node_count
    a = np.zeros((n, n), dtype=bool)
    edges = g.edges()
    if len(edges):
        a[edges[:, 0], edges[:, 1]] = True
    return a


def materialize_complement(g: Graph, limit: int = COMPLEMENT_NODE_LIMIT) -> Graph:
    """Explicit directed complement: (i, j) present iff absent in ``g``
    (i != j).

    Raises ``ValueError`` beyond ``limit`` nodes: the result has
    ``n*(n-1) - m`` edges, which is dense for any sparse input.
    """
    n = g.node_count
    if n > limit:
        raise ValueError(
            f"refusing to materialize the complement of a {n}-node graph "
            f"(limit {limit}): the complement is dense"
        )
    comp = ~_dense(g)
    np.fill_diagonal(comp, False)
    src, dst = np.nonzero(comp)
    return Graph(n, src.astype(np.int64), dst.astype(np.int64), validate=False)


def symmetrize(g: Graph) -> Graph:
    """Symmetric closure: both directions present iff either was."""
    a = _dense(g)
    both = a | a.T
    src, dst = np.nonzero(both)
    return Graph(g.node_count, src.astype(np.int64), dst.astype(np.int64),
                 validate=False)


def _complement_view(g: Graph, combo: DegreeCombination,
                     limit: int = COMPLEMENT_NODE_LIMIT) -> Graph:
    if combo is DegreeCombination.SYM:
        return materialize_complement(symmetrize(g), limit=limit)
    return materialize_complement(g, limit=limit)


class _RawEvaluator:
    """Naive set-arithmetic evaluation of the raw measures on one graph."""

    def __init__(self, g: Graph):
        self.g = g
        self._out: dict[int, set] = {}
        self._in: dict[int, set] = {}

    def _out_set(self, v: int) -> set:
        s = self._out.get(v)
        if s is None:
            s = set(self.g.out_neighbors(v).tolist())
            self._out[v] = s
        return s

    def _in_set(self, v: int) -> set:
        s = self._in.get(v)
        if s is None:
            s = set(self.g.in_neighbors(v).tolist())
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
        _check_pair(self.g, i, j)
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
        total = 0.0
        for k in sorted(common):
            dk = self._weight_degree(combo, k)
            total += 0.0 if dk <= 1 else 1.0 / math.log(dk)
        return total


def raw_measure(g: Graph, i: int, j: int, measure: Measure,
                combo: DegreeCombination) -> float:
    """Raw measure of ``(i, j)`` on ``g`` by direct set arithmetic.

    Functionally the same quantity as
    :func:`~linkdecay.scoring.link_prediction_score`, implemented
    independently so the two can check each other.
    """
    return _RawEvaluator(g).score(i, j, Measure(measure), DegreeCombination(combo))


def brute_force_g2(g: Graph, i: int, j: int, measure: Measure,
                   combo: DegreeCombination) -> float:
    """Complement-graph measure of ``(i, j)`` by explicit materialization."""
    view = _complement_view(g, DegreeCombination(combo))
    return raw_measure(view, i, j, measure, combo)


@dataclass
class OracleReport:
    """Outcome of comparing closed forms against brute force."""

    spec: ScoreSpec
    pairs_checked: int
    max_abs_deviation: float
    worst_pair: Optional[tuple[int, int]]
    edge_exact: bool

    def as_dict(self) -> dict:
        d = dict(self.spec.fields())
        d.update({
            "pairs_checked": self.pairs_checked,
            "max_abs_deviation": f"{self.max_abs_deviation:.12g}",
            "worst_pair": ("-" if self.worst_pair is None
                           else f"{self.worst_pair[0]},{self.worst_pair[1]}"),
            "edge_exact": "true" if self.edge_exact else "false",
        })
        return d


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


def check_closed_form(g: Graph, spec: ScoreSpec, pairs: str = "edges",
                      max_pairs: int = 1000, seed: int = 0) -> OracleReport:
    """Compare the closed-form scores against brute force over many pairs.

    Parameters
    ----------
    g : Graph
        Graph under test (complement materialization limits apply).
    spec : ScoreSpec
        Must use the ``network`` model; the ``score`` model has no closed
        form to verify.
    pairs : {'edges', 'all'}
        Check existing edges only, or all ordered pairs (exhaustive up to
        50 nodes, a seeded sample of ``max_pairs`` beyond that).
    max_pairs, seed : int
        Sample size and seed for the large-graph 'all' mode.

    Returns
    -------
    OracleReport
        Maximum absolute deviation with the pair attaining it, and whether
        every *existing* edge among the checked pairs matched exactly.
        Deviations are expected and recorded for ``jacc`` (original-graph
        union denominator) and ``adad`` (original-degree weights and
        endpoint handling); ``cn``/``pa`` agree exactly on reciprocated
        existing edges.
    """
    if spec.model is not ScoreModel.COMPLEMENT_NETWORK:
        raise ValueError("closed-form check applies to the 'network' model only")
    view = _complement_view(g, spec.combo)
    evaluator = _RawEvaluator(view)
    candidates = _candidate_pairs(g, pairs, max_pairs, seed)
    worst: Optional[tuple[int, int]] = None
    max_dev = 0.0
    edge_exact = True
    closed_forms = score_matrix(g, candidates, [spec])[0]
    for (i, j), closed in zip(candidates.tolist(), closed_forms.tolist()):
        brute = evaluator.score(i, j, spec.measure, spec.combo)
        dev = abs(closed - brute)
        if dev > max_dev:
            max_dev = dev
            worst = (i, j)
        if dev != 0.0 and (pairs == "edges" or g.has_edge(i, j)):
            edge_exact = False
    return OracleReport(spec, len(candidates), max_dev, worst, edge_exact)
