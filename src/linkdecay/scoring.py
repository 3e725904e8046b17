"""Decay scores for directed edges.

Two families of scores rank edges by how likely they are to disappear:

* ``score`` model — the negation of a classic link-prediction measure.
  A pair that looks like a bad candidate for link *formation* is a good
  candidate for decay, so ``complement_score = -link_prediction_score``.
* ``network`` model — the same measure evaluated on the complement graph
  (every absent pair becomes an edge, self-loops stay excluded), computed
  through closed forms in the original graph's degrees and neighbor sets,
  so the quadratic-size complement is never materialized.

Five measures are supported (:class:`Measure`): preferential attachment,
common neighbors, cosine, Jaccard, and inverse-log-degree-weighted common
neighbors.  All of them are parameterized by a
:class:`~linkdecay.graph.DegreeCombination` that adapts the undirected
definitions to directed graphs.

:func:`score_matrix` is the array entry point: it scores a ``(k, 2)``
batch under any list of specs, one row per spec, with one feature pass
per degree combination.  :func:`~linkdecay.graph.pair_features` gives,
for a block of pairs at once, the two endpoint degrees and the common
neighbours.  Each of pa, cn, cos and jacc is one formula over a block's
``(d1, d2, cn, union)`` columns: the ``score`` model reads the graph's,
the ``network`` model the complement's closed forms
``(n-1-d1, n-1-d2, n-d1-d2+cn, union)``, which keep the original union.
``adad`` sums node weights over neighbour rows, with one row reduction
per distinct row length.  The ``score`` model's decay score is ``-raw``.
:func:`score_batch` wraps one row in :class:`ScoredEdge` objects, and the
one-pair functions (:func:`decay_score`, :func:`link_prediction_score`,
:func:`complement_score`, :func:`complement_network_score`) read a batch
of one.  The float arithmetic follows the per-pair definitions operation
for operation, so batched and one-pair scores agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .events import _gather_rows, _spans
from .graph import (DegreeCombination, Graph, _as_pairs, _check_pair, _checked_pairs,
                    _pair_features, _parse_choice, pair_features)

__all__ = [
    "Measure",
    "ScoreModel",
    "ScoreSpec",
    "ScoredEdge",
    "all_specs",
    "complement_network_score",
    "complement_score",
    "decay_score",
    "link_prediction_score",
    "score_batch",
    "score_matrix",
]


class Measure(str, Enum):
    """Similarity measures underlying the decay scores."""

    PA = "pa"        # preferential attachment: product of endpoint degrees
    CN = "cn"        # common neighbor count
    COS = "cos"      # cosine: cn / sqrt(d1 * d2)
    JACC = "jacc"    # Jaccard: cn / |union of neighborhoods|
    ADAD = "adad"    # common neighbors weighted by 1 / log(degree)

    @classmethod
    def parse(cls, text: str) -> "Measure":
        return _parse_choice(cls, "measure", text)


class ScoreModel(str, Enum):
    """How a measure is turned into a decay score."""

    COMPLEMENT_SCORE = "score"      # negated link-prediction score
    COMPLEMENT_NETWORK = "network"  # measure evaluated on the complement graph

    @classmethod
    def parse(cls, text: str) -> "ScoreModel":
        return _parse_choice(cls, "model", text)


@dataclass(frozen=True)
class ScoreSpec:
    """A fully resolved scorer: model x measure x combo (+ flags)."""

    model: ScoreModel
    measure: Measure
    combo: DegreeCombination
    adad_complement_weights: bool = False

    def __post_init__(self):
        object.__setattr__(self, "model", ScoreModel.parse(self.model))
        object.__setattr__(self, "measure", Measure.parse(self.measure))
        object.__setattr__(self, "combo", DegreeCombination.parse(self.combo))
        object.__setattr__(self, "adad_complement_weights",
                           bool(self.adad_complement_weights))

    def fields(self) -> dict[str, str]:
        """Serialized form, e.g. for manifests and TSV rows."""
        return {
            "model": self.model.value,
            "measure": self.measure.value,
            "combo": self.combo.value,
            "adad-complement-weights": "true" if self.adad_complement_weights else "false",
        }

    def __str__(self) -> str:
        tag = f"{self.model.value}/{self.measure.value}/{self.combo.value}"
        if self.adad_complement_weights:
            tag += "+acw"
        return tag


def all_specs() -> list[ScoreSpec]:
    """The full grid: 2 models x 5 measures x 4 combos = 40 specs."""
    return [ScoreSpec(model, measure, combo)
            for model in ScoreModel
            for measure in Measure
            for combo in DegreeCombination]


class ScoredEdge(NamedTuple):
    src: int
    dst: int
    score: float


#: Gathered neighbour entries per kernel block.  Bounds the kernel's
#: temporaries (a few int64 arrays of this length) whatever the batch size.
_BLOCK_ENTRIES = 1 << 16


def _node_weights(g: Graph, pairs: np.ndarray, spec: ScoreSpec):
    """``(w, outer)`` of a spec.  ``w`` holds the per-node weights
    ``1 / log(d)`` (0 for ``d <= 1``) of an ``adad`` spec, else None.
    ``outer`` is None except for ``network/adad``, where it is
    ``sum_V w - sum_N(i) w - sum_N(j) w`` of each pair, summed once for the
    whole batch as ``w[...].sum()`` would.

    ``math.log`` and ``np.log`` differ in the last bit for some arguments.
    The ``score`` model has always used ``math.log``, so it goes through a
    table indexed by degree; the ``network`` model uses ``np.log``.
    """
    if spec.measure is not Measure.ADAD:
        return None, None
    degrees = spec.combo.weight_degrees(g)
    if spec.model is ScoreModel.COMPLEMENT_SCORE:
        table = [0.0 if d <= 1 else 1.0 / math.log(d)
                 for d in range(int(degrees.max(initial=0)) + 1)]
        return np.array(table, dtype=np.float64)[degrees], None
    if spec.adad_complement_weights:
        degrees = g.node_count - 1 - degrees
    weights = np.zeros(len(degrees), dtype=np.float64)
    mask = degrees > 1
    weights[mask] = 1.0 / np.log(degrees[mask])
    first, second = spec.combo.slot_csr(g)
    row_i = _row_sums(weights, *first, pairs[:, 0])
    row_j = _row_sums(weights, *second, pairs[:, 1])
    return weights, float(weights.sum()) - row_i - row_j


def _run_sums(values: np.ndarray, counts: np.ndarray,
              pairwise: bool) -> np.ndarray:
    """Sum of each consecutive run of ``values`` (run lengths ``counts``).

    The runs of one length are the rows of one C-contiguous matrix, so the
    only loop is over distinct lengths.  Without ``pairwise`` a row adds
    left to right, as a Python ``+=`` loop from 0.0 does (``np.cumsum``
    along the row).  With ``pairwise`` a row is reduced by ``.sum(axis=1)``,
    which on a contiguous float64 row gives the bits of ``values[run].sum()``:
    left to right below 8 entries, numpy's pairwise blocks from 8 on.
    """
    starts = np.cumsum(counts) - counts
    order = np.argsort(counts, kind="stable")
    lengths, first = np.unique(counts[order], return_index=True)
    totals = np.zeros(len(counts))
    for length, runs in zip(lengths.tolist(), np.split(order, first[1:])):
        if length == 0:
            continue
        rows = values[starts[runs, None] + np.arange(length)]
        totals[runs] = rows.sum(axis=1) if pairwise else np.cumsum(rows, axis=1)[:, -1]
    return totals


def _row_sums(weights: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
              nodes: np.ndarray) -> np.ndarray:
    """``weights[row].sum()`` of each node's row: of every row at once when
    there are at least as many nodes as rows, else once per distinct node."""
    if len(nodes) >= len(indptr) - 1:
        return _run_sums(weights[indices], np.diff(indptr), pairwise=True)[nodes]
    distinct, inverse = np.unique(nodes, return_inverse=True)
    rows, lengths = _gather_rows(indptr, indices, distinct)
    return _run_sums(weights[rows], lengths, pairwise=True)[inverse]


def _ratio(numerator: np.ndarray, denominator: np.ndarray,
           defined: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` where ``defined``, else 0."""
    out = np.zeros(len(numerator))
    np.divide(numerator, denominator, out=out, where=defined)
    return out


def _formula(measure: Measure, d1: np.ndarray, d2: np.ndarray, cn: np.ndarray,
             union: np.ndarray) -> np.ndarray:
    """Raw pa, cn, cos or jacc of a block from its ``(d1, d2, cn, union)``
    columns: the graph's for the ``score`` model, the complement's closed
    forms for ``network``."""
    if measure is Measure.PA:
        return d1 * d2
    if measure is Measure.CN:
        return cn
    if measure is Measure.COS:
        return _ratio(cn, np.sqrt(d1) * np.sqrt(d2), (d1 > 0) & (d2 > 0))
    return _ratio(cn, union, union != 0)


def _blocks(g: Graph, pairs: np.ndarray, combo: DegreeCombination) -> list[slice]:
    """Consecutive runs of pairs, each gathering about ``_BLOCK_ENTRIES``
    row entries (a single pair with longer rows gets a block of its own)."""
    (ptr1, _), (ptr2, _) = combo.slot_csr(g)
    i, j = pairs[:, 0], pairs[:, 1]
    return _spans(np.cumsum(ptr1[i + 1] - ptr1[i] + ptr2[j + 1] - ptr2[j]), _BLOCK_ENTRIES)


def _decay_scores(g: Graph, pairs: np.ndarray, specs: Sequence[ScoreSpec],
                  rows: Sequence[np.ndarray]) -> None:
    """Write the decay scores of validated, non-empty ``(k, 2)`` pairs into
    ``rows``, one per spec.  The specs share one degree combination, so
    each block's pair features are read by every spec's formula."""
    combo = specs[0].combo
    assert all(spec.combo is combo for spec in specs), "specs must share a combo"
    n = g.node_count
    weights = [_node_weights(g, pairs, spec) for spec in specs]
    for block in _blocks(g, pairs, combo):
        d1, d2, cn, common = _pair_features(g, pairs[block], combo)
        union = d1 + d2 - cn
        columns = {ScoreModel.COMPLEMENT_SCORE: (d1, d2, cn, union),
                   ScoreModel.COMPLEMENT_NETWORK:
                       (n - 1 - d1, n - 1 - d2, n - d1 - d2 + cn, union)}
        for row, spec, (w, outer) in zip(rows, specs, weights):
            if spec.measure is not Measure.ADAD:
                row[block] = _formula(spec.measure, *columns[spec.model])
            elif outer is None:
                # score: the common neighbours' weights in ascending node order.
                row[block] = _run_sums(w[common], cn, pairwise=False)
            else:
                # network: plus their sum as ``w[common].sum()`` gives it.
                row[block] = outer[block] + _run_sums(w[common], cn, pairwise=True)
    for row, spec in zip(rows, specs):
        if spec.model is ScoreModel.COMPLEMENT_SCORE:
            np.negative(row, out=row)


def score_matrix(g: Graph, pairs: Iterable[Sequence[int]],
                 specs: Sequence[ScoreSpec]) -> np.ndarray:
    """Decay scores of ``(k, 2)`` pairs under each spec, as a float array
    of shape ``(len(specs), k)`` in input order.  A bad pair raises the
    error :func:`decay_score` would, with its position prepended; input not
    read as ``(k, 2)`` int64 pairs by ``_as_pairs`` raises ``ValueError``."""
    arr = _checked_pairs(g, pairs)
    scores = np.empty((len(specs), len(arr)), dtype=np.float64)
    if len(arr):
        for combo in dict.fromkeys(spec.combo for spec in specs):
            group = [s for s, spec in enumerate(specs) if spec.combo is combo]
            _decay_scores(g, arr, [specs[s] for s in group],
                          [scores[s] for s in group])
    return scores


def decay_score(g: Graph, i: int, j: int, spec: ScoreSpec) -> float:
    """Score one pair under a fully resolved :class:`ScoreSpec`."""
    _check_pair(g, i, j)
    row = np.empty(1)
    _decay_scores(g, _as_pairs([(i, j)]), [spec], [row])
    return float(row[0])


def complement_score(g: Graph, i: int, j: int, measure: Measure,
                     combo: DegreeCombination) -> float:
    """Decay score of ``(i, j)`` as the negated link-prediction score.

    High values mean the pair looks structurally weak: the maximum
    attainable value is 0 (no support at all for the tie).
    """
    return decay_score(g, i, j, ScoreSpec(ScoreModel.COMPLEMENT_SCORE,
                                          measure, combo))


def link_prediction_score(g: Graph, i: int, j: int, measure: Measure,
                          combo: DegreeCombination) -> float:
    """Raw link-prediction score of the pair ``(i, j)``.

    Parameters
    ----------
    g : Graph
        Snapshot to score against.
    i, j : int
        Candidate endpoints; must be distinct known nodes.
    measure : Measure
        Similarity measure.
    combo : DegreeCombination
        Directed reading of degrees / neighbor sets.

    Returns
    -------
    float
        Always finite.  Degenerate denominators (zero degrees for cosine,
        empty union for Jaccard) yield 0.  ``adad`` adds the weights of
        the common neighbours in ascending node order.

    Raises
    ------
    IndexError
        If an endpoint is not a node of ``g``.
    ValueError
        If ``i == j``.
    """
    return -complement_score(g, i, j, measure, combo)


def complement_network_score(g: Graph, i: int, j: int, measure: Measure,
                             combo: DegreeCombination,
                             adad_complement_weights: bool = False) -> float:
    """Decay score of ``(i, j)``: the measure evaluated on the complement
    graph via closed forms.

    Parameters
    ----------
    g : Graph
        Snapshot to score against.
    i, j : int
        Candidate endpoints; must be distinct known nodes.
    measure : Measure
        Similarity measure, evaluated as if every absent pair were an edge
        and every present edge absent (self-loops excluded throughout).
    combo : DegreeCombination
        Directed reading of degrees / neighbor sets.
    adad_complement_weights : bool
        Only for ``Measure.ADAD``.  Off (default): common-neighbor weights
        use the *original* degrees, ``1 / log d(k)``.  On: weights use the
        complement degrees, ``1 / log(n - 1 - d(k))``.  Either way the
        log-guard maps arguments <= 1 to weight 0, so scores stay finite.

    Returns
    -------
    float
        Always finite.

    Notes
    -----
    With ``n`` nodes, endpoint degrees ``d1, d2``, common-neighbor count
    ``cn`` and neighborhood union ``u`` read off the *original* graph, the
    closed forms are::

        pa    (n - 1 - d1) * (n - 1 - d2)
        cn    n - d1 - d2 + cn
        cos   (n - d1 - d2 + cn) / sqrt((n - 1 - d1) * (n - 1 - d2))
        jacc  (n - d1 - d2 + cn) / u
        adad  sum_V w - sum_{N(i)} w - sum_{N(j)} w + sum_{N(i) cap N(j)} w

    The ``jacc`` denominator deliberately reuses the original graph's
    union, and the ``adad`` sums run over original neighborhoods without
    excluding the endpoints; both follow the published closed forms even
    though an exhaustive complement evaluation differs (the oracle module
    measures that deviation rather than hiding it).  ``cn`` and ``pa`` are
    exact on reciprocated existing edges; on arbitrary pairs the ``cn``
    form can overcount by at most 2 (the endpoints themselves).
    """
    return decay_score(g, i, j, ScoreSpec(ScoreModel.COMPLEMENT_NETWORK,
                                          measure, combo,
                                          adad_complement_weights))


def score_batch(g: Graph, pairs: Iterable[Sequence[int]],
                spec: ScoreSpec) -> list[ScoredEdge]:
    """Score many pairs under one spec, preserving input order: the one
    row of :func:`score_matrix` (which reads and checks the pairs) as
    :class:`ScoredEdge` objects."""
    arr = _as_pairs(pairs)
    scores = score_matrix(g, arr, [spec])[0]
    return list(map(ScoredEdge._make, zip(*arr.T.tolist(), scores.tolist())))
