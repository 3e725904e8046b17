"""Directed graph snapshots with CSR-style sorted adjacency.

A :class:`Graph` is an immutable snapshot of a directed simple graph over a
fixed node universe ``0..n-1``.  Neighbors are held as per-node sorted
integer arrays, giving O(degree) scans and O(log degree) membership tests.
Snapshots are produced from event streams by :func:`snapshot_at`: an edge is
present at time ``t`` iff its last event at or before ``t`` is an add, that
is, iff one of its rows in the stream's presence-interval table opened at
or before ``t`` and is censored or closed after ``t``.

Pairwise queries are parameterized by a :class:`DegreeCombination`, which
fixes how a directed graph's two degrees and two neighbor sets are
assigned to the endpoints of a candidate edge ``(i, j)``.  One kernel,
:func:`pair_features`, intersects both endpoints' rows for a block of pairs
by the sorted-run merge that also builds each node's both-row (out ∪ in);
the decay scorers and the pairwise queries read its columns.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .events import TemporalEdgeList, _int64, _node_count

__all__ = [
    "DegreeCombination",
    "Graph",
    "PairFeatures",
    "common_neighbor_count",
    "pair_features",
    "snapshot_at",
    "union_neighborhood_size",
]


def _as_pairs(pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """``pairs`` as ``(k, 2)`` int64 rows by :func:`_int64`, else ``ValueError``."""
    return _int64(pairs, ValueError, "pairs", "pairs must have shape (k, 2), got {}", 2)


class Graph:
    """Immutable directed simple graph with sorted neighbor arrays.

    Every build checks that endpoints lie in ``0..n-1`` and that there are
    no self-loops and no duplicate edges, raising ``ValueError`` otherwise,
    as it does for a node count, endpoint or query node int64 does not hold
    exactly (:func:`_int64`); an integer query node not in ``0..n-1`` is an
    ``IndexError``.
    """

    __slots__ = ("_n", "_rows")

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        n = _node_count(n, ValueError)
        message = "src and dst must be 1-d arrays of equal length"
        src = _int64(src, ValueError, "edge endpoints", message)
        dst = _int64(dst, ValueError, "edge endpoints", message)
        if src.shape != dst.shape:
            raise ValueError(message)
        if len(src):
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(src == dst):
                raise ValueError("self-loops are not allowed")
        self._n = n
        out_keys = _sorted_keys(n, src, dst)
        if np.any(out_keys[1:] == out_keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        in_keys = _sorted_keys(n, dst, src)
        # The merge reads the keys before _csr turns them into indices in place.
        merged, repeated = _merge_runs(out_keys, in_keys)
        both_keys = merged[~repeated]
        # direction -> read-only ``(indptr, indices)`` of its rows.
        self._rows = {"out": _csr(n, out_keys), "in": _csr(n, in_keys),
                      "both": _csr(n, both_keys)}
        for row in self._rows.values():
            for arr in row:
                arr.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on ``n`` nodes from ``(src, dst)`` pairs (:func:`_as_pairs`)."""
        return cls(n, *_as_pairs(edges).T)

    # ---- size ----

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._rows["out"][1])

    # ---- per-node queries ----

    def _check_node(self, v: int) -> int:
        v = int(_int64([v], ValueError, "node", "node must be one integer")[0])
        if not 0 <= v < self._n:
            raise IndexError(f"unknown node {v} (graph has {self._n} nodes)")
        return v

    def _csr(self, direction: str) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)`` of the out, in or both rows."""
        try:
            return self._rows[direction]
        except (KeyError, TypeError):
            raise ValueError(
                f"direction must be 'out', 'in' or 'both', got {direction!r}") from None

    def neighbors(self, v: int, direction: str = "both") -> np.ndarray:
        """Neighbor set of ``v`` in the given ``direction`` (out/in/both)."""
        indptr, indices = self._csr(direction)
        v = self._check_node(v)
        return indices[indptr[v]:indptr[v + 1]]

    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted successors of ``v`` (targets of edges v -> *)."""
        return self.neighbors(v, "out")

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted predecessors of ``v`` (sources of edges * -> v)."""
        return self.neighbors(v, "in")

    def all_neighbors(self, v: int) -> np.ndarray:
        """Sorted union of successors and predecessors of ``v``."""
        return self.neighbors(v, "both")

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors(v))

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors(v))

    def neighbor_count(self, v: int) -> int:
        """Number of distinct neighbors, irrespective of direction."""
        return len(self.all_neighbors(v))

    def degree(self, v: int, mode: str = "total") -> int:
        """Degree of ``v``: ``'out'``, ``'in'`` or ``'total'`` (= out + in).

        In the total, an edge present in both directions counts twice."""
        if mode == "total":
            return self.out_degree(v) + self.in_degree(v)
        if mode in ("out", "in"):
            return len(self.neighbors(v, mode))
        raise ValueError(f"mode must be 'out', 'in' or 'total', got {mode!r}")

    # ---- whole-graph views ----

    @property
    def out_degrees(self) -> np.ndarray:
        return np.diff(self._rows["out"][0])

    @property
    def in_degrees(self) -> np.ndarray:
        return np.diff(self._rows["in"][0])

    @property
    def neighbor_counts(self) -> np.ndarray:
        return np.diff(self._rows["both"][0])

    def has_edge(self, i: int, j: int) -> bool:
        i = self._check_node(i)
        j = self._check_node(j)
        row = self.out_neighbors(i)
        k = np.searchsorted(row, j)
        return bool(k < len(row) and row[k] == j)

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array in lexicographic order."""
        rows = np.repeat(np.arange(self._n), self.out_degrees)
        return np.column_stack((rows, self._rows["out"][1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and all(
            np.array_equal(a, b) for a, b in zip(self._rows["out"], other._rows["out"]))

    def __hash__(self):
        indptr, indices = self._rows["out"]
        return hash((self._n, indptr.tobytes(), indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.edge_count})"


def _sorted_keys(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``row * n + col`` of every entry, ascending: row-major CSR order."""
    keys = rows * np.int64(n)
    keys += cols
    keys.sort()
    return keys


def _merge_runs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two sorted runs of distinct keys merged, and which entries equal their
    successor.  The stable sort (timsort) of the runs side by side is a
    linear merge; a key of both runs is marked once, so the unmarked entries
    are the union and the marked ones the intersection."""
    keys = np.concatenate((a, b))
    keys.sort(kind="stable")
    repeated = np.zeros(len(keys), dtype=bool)
    np.equal(keys[:-1], keys[1:], out=repeated[:-1])
    return keys, repeated


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of sorted keys; the keys become the indices."""
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr.astype(np.int64, copy=False), np.remainder(keys, n, out=keys)


def _parse_choice(choices: type[Enum], noun: str, text: str):
    """The member of ``choices`` whose value is ``text``; else ``ValueError``
    naming the ``noun`` and listing the valid values."""
    try:
        return choices(text)
    except ValueError:
        valid = ", ".join(m.value for m in choices)
        raise ValueError(f"unknown {noun} {text!r} (expected one of: {valid})") from None


class DegreeCombination(str, Enum):
    """How the two endpoint degrees and neighbor sets of a candidate edge
    ``(i, j)`` are read off a directed graph.

    ======  =======================  ==========================================
    member  endpoint degrees         endpoint neighbor sets
    ======  =======================  ==========================================
    SYM     distinct-neighbor        all_neighbors(i), all_neighbors(j)
            counts of i and j
    ASYM    out_degree(i),           out_neighbors(i), in_neighbors(j)
            in_degree(j)             (common count = directed 2-paths i->k->j)
    IN      in_degree(i),            in_neighbors(i), in_neighbors(j)
            in_degree(j)
    OUT     out_degree(i),           out_neighbors(i), out_neighbors(j)
            out_degree(j)
    ======  =======================  ==========================================

    ``weight_degree`` — the per-node degree used to weight a common neighbor
    ``k`` (log-degree weighting) — follows the neighbor direction for OUT and
    IN, and the in+out total for SYM and ASYM.  Note the deliberate
    asymmetry for SYM: endpoint degrees count distinct neighbors, while
    weight degrees use the in+out total.
    """

    SYM = "sym"
    ASYM = "asym"
    IN = "in"
    OUT = "out"

    @classmethod
    def parse(cls, text: str) -> "DegreeCombination":
        return _parse_choice(cls, "combo", text)

    def endpoint_sets(self, g: Graph, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        first, second = _SLOTS[self][0]
        return g.neighbors(i, first), g.neighbors(j, second)

    def slot_csr(self, g: Graph) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """``(indptr, indices)`` of the first and the second slot's rows."""
        return tuple(g._csr(direction) for direction in _SLOTS[self][0])

    def weight_degrees(self, g: Graph) -> np.ndarray:
        """Per-node degrees used to weight common neighbors."""
        return sum(np.diff(g._csr(direction)[0]) for direction in _SLOTS[self][1])


#: combo -> ((first-slot rows, second-slot rows), rows summed into the
#: weight degree).  The single source of the table in the class docstring.
_SLOTS = {
    DegreeCombination.SYM: (("both", "both"), ("out", "in")),
    DegreeCombination.ASYM: (("out", "in"), ("out", "in")),
    DegreeCombination.IN: (("in", "in"), ("in",)),
    DegreeCombination.OUT: (("out", "out"), ("out",)),
}


def snapshot_at(tel: TemporalEdgeList, t: float) -> Graph:
    """Materialize the graph at time ``t`` from an event stream.

    An edge is present iff its most recent event at or before ``t`` is an
    add: the live rows of the stream's presence-interval table.  The node
    universe is every id the stream has ever seen, so snapshots at
    different times are over the same nodes.
    """
    n = tel.node_count
    src, dst = np.divmod(tel.live_keys(t), n)
    return Graph(n, src, dst)


class PairFeatures(NamedTuple):
    """Per-pair columns of a block of candidate pairs."""

    d1: np.ndarray      # first-slot endpoint degree
    d2: np.ndarray      # second-slot endpoint degree
    cn: np.ndarray      # common-neighbour count
    common: np.ndarray  # common neighbours: pair by pair, ascending within a pair


def _gather_rows(indptr: np.ndarray, indices: np.ndarray,
                 nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``nodes``, concatenated in order, and their lengths."""
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    entry = np.arange(int(lengths.sum()), dtype=np.int64)
    entry += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return indices[entry], lengths


def _pair_keys(rows: np.ndarray, lengths: np.ndarray, n: int) -> np.ndarray:
    """``pair * n + neighbour`` of gathered rows: sorted, as rows are."""
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * n, lengths)
    keys += rows
    return keys


def _checked_pairs(g: Graph, pairs: Iterable[Sequence[int]]) -> np.ndarray:
    """``pairs`` by :func:`_as_pairs`, each two distinct nodes of ``g``: the
    first that is not raises the error :func:`_check_pair` gives, with its
    position prepended (``pair k = (a, b): ...``)."""
    arr = _as_pairs(pairs)
    i, j = arr[:, 0], arr[:, 1]
    n = g.node_count
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j))
    for k in bad[:1].tolist():
        a, b = arr[k].tolist()
        try:
            _check_pair(g, a, b)
        except (ValueError, IndexError) as exc:
            raise type(exc)(f"pair {k} = ({a}, {b}): {exc}") from exc
    return arr


def pair_features(g: Graph, pairs: Iterable[Sequence[int]],
                  combo: DegreeCombination) -> PairFeatures:
    """Degrees and common neighbours of a block of pairs, in one pass.

    Parameters
    ----------
    g : Graph
        Snapshot to read.
    pairs : array of shape (k, 2)
        Pairs of distinct nodes, checked as :func:`~linkdecay.scoring.score_matrix`
        checks them (:func:`_checked_pairs`).  Temporaries grow with the
        summed row lengths of the block, so callers split batches.
    combo : DegreeCombination
        Which rows fill the two slots.

    Returns
    -------
    PairFeatures
        Both endpoints' rows flatten to sorted ``pair * n + neighbour`` keys;
        the keys their merge repeats are the common neighbours (a repeated
        pair has keys of its own), grouped by pair and ascending within each.
    """
    return _pair_features(g, _checked_pairs(g, pairs), combo)


def _pair_features(g: Graph, pairs: np.ndarray, combo: DegreeCombination) -> PairFeatures:
    """:func:`pair_features` of checked int64 ``(k, 2)`` pairs."""
    n = g.node_count
    (ptr1, idx1), (ptr2, idx2) = DegreeCombination(combo).slot_csr(g)
    rows1, d1 = _gather_rows(ptr1, idx1, pairs[:, 0])
    rows2, d2 = _gather_rows(ptr2, idx2, pairs[:, 1])
    keys, repeated = _merge_runs(_pair_keys(rows1, d1, n), _pair_keys(rows2, d2, n))
    owner, common = np.divmod(keys[repeated], n)
    return PairFeatures(d1, d2, np.bincount(owner, minlength=len(pairs)), common)


def _check_pair(g: Graph, i: int, j: int) -> None:
    if g._check_node(i) == g._check_node(j):
        raise ValueError(f"candidate pair must have distinct endpoints, got ({i}, {j})")


def common_neighbor_count(g: Graph, i: int, j: int,
                          combo: DegreeCombination = DegreeCombination.SYM) -> int:
    """Size of the intersection of the combo-selected neighbor sets.

    For ASYM this is the number of directed 2-paths ``i -> k -> j``.
    """
    _check_pair(g, i, j)
    return int(_pair_features(g, _as_pairs([(i, j)]), combo).cn[0])


def union_neighborhood_size(g: Graph, i: int, j: int,
                            combo: DegreeCombination = DegreeCombination.SYM) -> int:
    """Size of the union of the combo-selected neighbor sets."""
    _check_pair(g, i, j)
    d1, d2, cn, _ = _pair_features(g, _as_pairs([(i, j)]), combo)
    return int(d1[0] + d2[0] - cn[0])
