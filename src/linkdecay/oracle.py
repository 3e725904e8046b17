"""Exhaustive complement-graph evaluation for validating the closed forms.

The scoring module computes complement-graph measures through closed forms
that never build the complement.  This module is the check on that
arithmetic: it *does* build the complement (a dense matrix, hence the
node-count limit), evaluates the raw measures on it with naive set
arithmetic, and reports the deviation from the closed forms.  The two
paths share only the graph structure, so agreement is meaningful.

Per degree combination the complement view is:

* OUT / IN / ASYM — the directed complement (every ordered pair absent
  from the graph, self-loops excluded).  Its out/in neighbor sets are
  exactly the set complements of the original ones.
* SYM — the complement of the *symmetrized* graph.  Symmetrization and
  complementation do not commute, and the symmetric reading of the
  measures lives on the symmetrized structure, so the complement must be
  taken there.

A check builds its view as one ``n x n`` boolean complement matrix, not as
a ``Graph``: ``~A``, or ``~(A | A.T)`` for SYM, with the diagonal cleared.
It scores all its candidates as one batch, in blocks of pairs.  Each pair's
two neighbour sets are boolean rows: a node's out-row is its row of the
matrix and its in-row its row of the transpose, so every row spans all
nodes in ascending order.  Set sizes and intersections are int32 row
counts and ANDs, adad weight degrees are row counts of the matrix and of
its transpose, and adad accumulates its weights node by node for all the
block's pairs at once.  :func:`raw_measure` scores one pair of a sparse
graph instead: each slot's row is its endpoint's CSR rows in the slot's
directions, over only the nodes they hold on a large graph, so the node
limit does not apply.  Both row sources give one row per pair and slot to
one scoring body.  Edge membership of the candidates is one ``_in_sorted``
search of their ``i * n + j`` keys in the graph's sorted ones, and
``score_matrix`` already rejects a bad pair.  A sampled candidate set is
numpy's one-call-per-pair stream drawn in chunks as ``i * n + j`` int64
keys through :func:`~linkdecay.events._draw_distinct`, the sampling loop of
the creation-side negatives too.  Nothing lives across calls.  Every score adds
the same terms in the same ``sorted(common)`` order as a per-pair set loop,
so a report is bit-identical to one that evaluates each pair afresh on a
materialized complement.  :func:`brute_force_g2` is :func:`raw_measure` on
that materialized view, and none of this calls the scoring kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .events import _check_seed, _draw_distinct, _in_sorted
from .graph import DegreeCombination, Graph, _check_pair
from .scoring import Measure, ScoreModel, ScoreSpec, score_matrix
# Kept as a module attribute: perfbench's traced oracle run patches
# ``oracle.complement_network_score``.  The patch records no pairs, because
# ``check_closed_form`` scores through ``score_matrix`` and never calls it.
# The re-export goes once perfbench reads library stage spans instead
# (ROADMAP item 1).
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


def _check_node_limit(n: int) -> None:
    if n > COMPLEMENT_NODE_LIMIT:
        raise ValueError(
            f"refusing to materialize the complement of a {n}-node graph "
            f"(limit {COMPLEMENT_NODE_LIMIT}): the complement is dense"
        )


def _check_request(n: int, spec: ScoreSpec, pairs: str, max_pairs: int, seed: int) -> None:
    """Raise the ``ValueError`` that :func:`check_closed_form` raises for
    these arguments on an ``n``-node graph, if any, in the same order; a
    caller can ask before it builds the graph."""
    if spec.model is not ScoreModel.COMPLEMENT_NETWORK:
        raise ValueError("closed-form check applies to the 'network' model only")
    if pairs not in ("edges", "all"):
        raise ValueError(f"pairs must be 'edges' or 'all', got {pairs!r}")
    if pairs == "all" and max_pairs < 1:
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    _check_node_limit(n)
    _check_seed(seed)


def _complement_matrix(g: Graph, symmetric: bool) -> np.ndarray:
    """The complement view's ``n x n`` boolean adjacency matrix: ``~A``, or
    ``~(A | A.T)`` when ``symmetric``, with the diagonal cleared.

    Raises ``ValueError`` beyond ``COMPLEMENT_NODE_LIMIT`` nodes, before
    anything of size ``n^2`` is allocated: the complement of a sparse graph
    is dense.
    """
    _check_node_limit(g.node_count)
    a = _dense(g)
    if symmetric:
        a = a | a.T
    np.logical_not(a, out=a)
    np.fill_diagonal(a, False)
    return a


def materialize_complement(g: Graph) -> Graph:
    """Explicit directed complement: (i, j) present iff absent in ``g``
    (i != j).

    Raises ``ValueError`` beyond ``COMPLEMENT_NODE_LIMIT`` nodes: the
    result has ``n*(n-1) - m`` edges, which is dense for any sparse input.
    """
    return Graph(g.node_count, *np.nonzero(_complement_matrix(g, False)))


def symmetrize(g: Graph) -> Graph:
    """Symmetric closure: both directions present iff either was.  Its
    out-rows are ``g``'s both-rows, so it works at any size."""
    indptr, indices = g._csr("both")
    src = np.repeat(np.arange(g.node_count, dtype=np.int64), np.diff(indptr))
    return Graph(g.node_count, src, indices)


#: Membership cells (pairs x nodes) one block of a batch may hold; a block
#: has at least one pair.
BLOCK_CELLS = 1 << 18

#: combo -> (first-slot directions, second-slot directions, directions
#: summed into a node's adad weight degree).  A slot's set is the union of
#: its directions' rows, so SYM unions out and in itself rather than read
#: the graph's merged rows.
_RULES = {
    DegreeCombination.SYM: (("out", "in"), ("out", "in"), ("out", "in")),
    DegreeCombination.ASYM: (("out",), ("in",), ("out", "in")),
    DegreeCombination.IN: (("in",), ("in",), ("in",)),
    DegreeCombination.OUT: (("out",), ("out",), ("out",)),
}


def _columns(n: int, lists: list) -> tuple[np.ndarray, list]:
    """Membership columns for neighbour lists over ``n`` nodes, ascending,
    and each list as column numbers.

    Lists holding ``n / 64`` entries or more in all get a column per node,
    numbered as itself: rows over every node then cost less than finding
    the nodes the lists hold (a pair with tens of entries on up to a few
    thousand nodes).  Fewer entries get only the nodes they hold, so a pair
    on a large sparse graph costs its degrees, not ``n``.
    """
    if 64 * sum(map(len, lists)) >= n:
        return np.arange(n), lists
    cols = np.unique(np.concatenate(lists))
    return cols, [np.searchsorted(cols, nodes) for nodes in lists]


def _membership(lists: list, width: int) -> np.ndarray:
    """One boolean row of ``width`` columns per list, True at its entries."""
    rows = np.zeros((len(lists), width), dtype=bool)
    for row, cols in zip(rows, lists):
        row[cols] = True
    return rows


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, and 0.0 where ``den`` is 0."""
    out = np.zeros(len(num))
    nonzero = den != 0
    out[nonzero] = num[nonzero] / den[nonzero]
    return out


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """The number of True entries of each boolean row, counted in int32:
    on an oracle-sized block that takes about half the time of the
    default int64 count."""
    return rows.sum(axis=1, dtype=np.int32)


def _block_scores(cols: np.ndarray, rows1: np.ndarray, rows2: np.ndarray,
                  weight_degrees: Callable[[np.ndarray], np.ndarray],
                  measure: Measure) -> np.ndarray:
    """Raw measure of each pair of a block from its slot rows.

    ``rows1[p]`` and ``rows2[p]`` are pair ``p``'s first- and second-slot
    neighbour sets, as boolean rows over the nodes ``cols`` (ascending).
    ``weight_degrees(nodes)`` gives the nodes' adad weight degrees.
    Degrees (for pa, cos and jacc only) and common-neighbour counts are
    int32 row counts (:func:`_row_counts`) of the rows and of their AND;
    pa multiplies its degrees in int64, and pa, cn, cos and jacc are array
    arithmetic with the per-pair formulas' operations.  adad weighs each
    node ``k`` by ``1/log(d_k)`` (``math.log``, 0.0 for ``d_k <= 1``) and
    accumulates, node after node in ascending order, one running total per
    pair: ``w_k`` where ``k`` is a common neighbour, 0.0 elsewhere.  An
    accumulate adds strictly in order; a reduction over the nodes would
    not, because numpy may sum one pairwise.  So every score has the bits
    of a ``sorted(common)`` loop whichever nodes the columns span.
    """
    if measure is Measure.PA:
        return (_row_counts(rows1).astype(np.int64)
                * _row_counts(rows2)).astype(np.float64)
    common = rows1 & rows2
    cn = _row_counts(common)
    if measure is Measure.CN:
        return cn.astype(np.float64)
    if measure is Measure.ADAD:
        ks = np.flatnonzero(common.any(axis=0))
        if len(ks) == 0:
            return np.zeros(len(common))
        dk = weight_degrees(cols[ks])
        w = np.array([0.0 if d <= 1 else 1.0 / math.log(d) for d in dk.tolist()])
        terms = common.T[ks] * w[:, None]
        return np.add.accumulate(terms, axis=0, out=terms)[-1]
    d1 = _row_counts(rows1)
    d2 = _row_counts(rows2)
    if measure is Measure.COS:
        return _ratio(cn, np.sqrt(d1) * np.sqrt(d2))
    return _ratio(cn, d1 + d2 - cn)


def _complement_scores(comp: np.ndarray, pairs: np.ndarray, measure: Measure,
                       combo: DegreeCombination) -> np.ndarray:
    """Raw measure of every pair of a ``(k, 2)`` batch on the complement
    view whose adjacency matrix is ``comp`` (from :func:`_complement_matrix`).

    A node's out-row is its row of ``comp`` and its in-row its row of
    ``comp.T``, so every row spans all nodes, ascending; a slot's row is
    the OR of its directions' rows.  The pairs are scored in blocks of at
    most ``BLOCK_CELLS // n`` pairs (at least one).  Adad weight degrees
    are row counts of ``comp`` and of ``comp.T``.  Trusts its pairs.
    """
    n = len(comp)
    by_direction = {"out": comp, "in": np.ascontiguousarray(comp.T)}
    first, second, weighted = _RULES[combo]
    slot1, slot2 = (functools.reduce(np.logical_or,
                                     [by_direction[d] for d in directions])
                    for directions in (first, second))
    degrees = sum(_row_counts(by_direction[d]) for d in weighted)
    cols = np.arange(n)
    out = np.empty(len(pairs))
    step = max(1, BLOCK_CELLS // max(n, 1))
    for lo in range(0, len(pairs), step):
        block = pairs[lo:lo + step]
        out[lo:lo + step] = _block_scores(cols, slot1[block[:, 0]],
                                          slot2[block[:, 1]],
                                          degrees.__getitem__, measure)
    return out


def raw_measure(g: Graph, i: int, j: int, measure: Measure,
                combo: DegreeCombination) -> float:
    """Raw measure of ``(i, j)`` on ``g`` by direct set arithmetic.

    Each endpoint's slot set is its ``_RULES`` CSR rows of ``g``
    concatenated, made one boolean row over the columns of
    :func:`_columns`, so a pair on a large sparse graph costs its degrees,
    not ``n``.  Functionally the same quantity as
    :func:`~linkdecay.scoring.link_prediction_score`, implemented
    independently so the two can check each other.
    """
    measure, combo = Measure.parse(measure), DegreeCombination.parse(combo)
    _check_pair(g, i, j)
    first, second, weighted = _RULES[combo]
    lists = [np.concatenate([indices[indptr[v]:indptr[v + 1]]
                             for indptr, indices in map(g._csr, directions)])
             for v, directions in ((int(i), first), (int(j), second))]
    cols, lists = _columns(g.node_count, lists)
    rows = _membership(lists, len(cols))

    def weight_degrees(nodes):
        return sum(indptr[nodes + 1] - indptr[nodes]
                   for indptr, _ in map(g._csr, weighted))

    return float(_block_scores(cols, rows[:1], rows[1:], weight_degrees,
                               measure)[0])


def brute_force_g2(g: Graph, i: int, j: int, measure: Measure,
                   combo: DegreeCombination) -> float:
    """Complement-graph measure of ``(i, j)``: :func:`raw_measure` on the
    materialized complement view, of ``symmetrize(g)`` for SYM.

    The arguments are checked before the view is built: the combination,
    the node limit, the measure, then the pair.
    """
    combo = DegreeCombination.parse(combo)
    _check_node_limit(g.node_count)
    measure = Measure.parse(measure)
    _check_pair(g, i, j)
    view = symmetrize(g) if combo is DegreeCombination.SYM else g
    return raw_measure(materialize_complement(view), i, j, measure, combo)


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


def _sample_pairs(n: int, max_pairs: int, seed: int) -> np.ndarray:
    """The sorted ``max_pairs`` distinct pairs of distinct nodes of
    ``0..n-1`` that a loop of ``rng.integers(0, n, size=2)`` calls keeps,
    skipping self-pairs and repeats, from ``default_rng(seed)``.

    Chunks ``rng.integers(0, n, size=(k, 2))`` give the calls' pairs in
    order: numpy's bounded draw (Lemire's method) takes one stream of 32-bit
    halves, its buffered half kept in the bit generator (undocumented;
    ``tests/test_oracle.py`` compares the two).  Each chunk less its
    self-pairs goes to :func:`~linkdecay.events._draw_distinct` as
    ``i * n + j`` keys, so ``n * n < 2**63`` is required, as every graph the
    node limit admits satisfies.
    """
    rng = np.random.default_rng(seed)

    def draw(size: int) -> np.ndarray:
        pairs = rng.integers(0, n, size=(size, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        return pairs[:, 0] * n + pairs[:, 1]

    return np.column_stack(np.divmod(_draw_distinct(draw, max_pairs, np.empty(0, np.int64)), n))


def _candidate_pairs(g: Graph, pairs: str, max_pairs: int,
                     seed: int) -> np.ndarray:
    n = g.node_count
    if pairs == "edges":
        return g.edges()
    if n * (n - 1) <= max_pairs or n <= 50:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        return np.column_stack((i, j)).astype(np.int64)
    return _sample_pairs(n, max_pairs, seed)


def _edge_mask(g: Graph, candidates: np.ndarray) -> np.ndarray:
    """Whether each pair of a ``(k, 2)`` array is an edge of ``g``.

    ``g.edges()`` is lexicographic, so its ``i * n + j`` keys are sorted
    and distinct; :func:`~linkdecay.events._in_sorted` finds each
    candidate's key among them.  The keys fit int64 for any graph whose
    complement the oracle builds (``COMPLEMENT_NODE_LIMIT``).
    """
    n, edges = g.node_count, g.edges()
    return _in_sorted(edges[:, 0] * n + edges[:, 1],
                      candidates[:, 0] * n + candidates[:, 1])


def check_closed_form(g: Graph, spec: ScoreSpec, pairs: str = "edges",
                      max_pairs: int = 1000, seed: int = 0) -> OracleReport:
    """Compare the closed-form scores against brute force over many pairs.

    The brute-force scores read their rows off one boolean complement
    matrix per check (:func:`_complement_matrix`), never a complement
    ``Graph``; the node limit is checked before that matrix is allocated.
    They have the bits of :func:`raw_measure`'s CSR rows on the
    materialized view.

    Parameters
    ----------
    g : Graph
        Graph under test (at most ``COMPLEMENT_NODE_LIMIT`` nodes).
    spec : ScoreSpec
        Must use the ``network`` model; the ``score`` model has no closed
        form to verify.
    pairs : {'edges', 'all'}
        Check existing edges only, or all ordered pairs (exhaustive up to
        50 nodes, a seeded sample of ``max_pairs`` beyond that).
    max_pairs, seed : int
        Sample size (at least 1 in 'all' mode) and seed for the
        large-graph 'all' mode; ``seed=None`` is refused in every mode.

    Returns
    -------
    OracleReport
        Maximum absolute deviation with the first pair attaining it, and
        whether every *existing* edge among the checked pairs matched
        exactly.  Deviations are expected and recorded for ``jacc``
        (original-graph union denominator) and ``adad`` (original-degree
        weights and endpoint handling); ``cn``/``pa`` agree exactly on
        reciprocated existing edges.
    """
    _check_request(g.node_count, spec, pairs, max_pairs, seed)
    comp = _complement_matrix(g, spec.combo is DegreeCombination.SYM)
    candidates = _candidate_pairs(g, pairs, max_pairs, seed)
    closed_forms = score_matrix(g, candidates, [spec])[0]
    brute = _complement_scores(comp, candidates, spec.measure, spec.combo)
    dev = np.abs(closed_forms - brute)
    is_edge = _edge_mask(g, candidates)
    worst: Optional[tuple[int, int]] = None
    max_dev = 0.0
    if len(dev):
        at = int(np.argmax(dev))
        if dev[at] > 0.0:
            max_dev = float(dev[at])
            worst = (int(candidates[at, 0]), int(candidates[at, 1]))
    edge_exact = not np.any(is_edge & (dev != 0.0))
    return OracleReport(spec, len(candidates), max_dev, worst, edge_exact)
