"""Synthetic evolving directed networks with controllable decay structure.

The generator grows a graph by degree-proportional attachment and assigns
every new edge an exponential lifetime (memoryless decay, configurable
half-life in ticks; one tick plays the role of a month).  Deletes are
emitted for edges whose lifetime ends inside the simulated window; edges
outliving the window are simply never deleted, which is what keeps the
share of delete events well below one half.

Endpoints are drawn from a Fenwick (binary indexed) tree over the
attachment weights ``degree + 1``, raised to ``attach_exponent``.  Each
degree change updates the tree and each draw searches it in O(log n)
work, so an add costs no pass over all nodes.  When the weights are
integers (exponents 0 and 1) every prefix sum is exact, and the draws are
those of ``np.searchsorted(np.cumsum(weights), u * total, side="right")``.
Other exponents give float weights, which the tree adds in another order
than a cumulative sum would; a draw can then differ only where ``u * total``
falls within rounding error of a prefix boundary.

A decay bias can multiply the hazard of a structural class of edges so
that evaluation pipelines have a planted, recoverable signal:

* ``low_degree`` — edges where either endpoint's total degree falls
  strictly below the running median of endpoint degrees seen at recent
  adds.  Comparing against attachment-weighted endpoints (rather than
  the raw node population, whose median is dragged down by isolated
  nodes) keeps the class large enough to recover at realistic sizes.
* ``few_common_neighbors`` — edges whose endpoints share no neighbor (in
  either direction) at add time.

Everything is driven by a single integer seed; the same config produces a
byte-identical event stream.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .events import TemporalEdgeList

__all__ = ["GenConfig", "deletion_share", "generate", "solve_window_span"]

_BIASES = ("none", "low_degree", "few_common_neighbors")

# Running-median bookkeeping for the low_degree bias: the median is taken
# over the last _MEDIAN_WINDOW endpoint degrees observed at add time and
# refreshed every _MEDIAN_REFRESH adds.
_MEDIAN_REFRESH = 128
_MEDIAN_WINDOW = 4096


@dataclass(frozen=True)
class GenConfig:
    """Configuration of one synthetic run.  ``seed`` is mandatory."""

    seed: int
    n_nodes: int = 1000
    n_add_events: int = 20000
    attach_exponent: float = 1.0
    decay_half_life: float = 23.0
    decay_bias: str = "none"
    hazard_multiplier: float = 4.0
    deletion_share_target: float = 0.27
    span: Optional[float] = None

    def validated(self) -> "GenConfig":
        if self.seed is None:
            raise ValueError("a seed is required")
        if self.n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n_nodes}")
        if self.n_add_events < 1:
            raise ValueError("need at least one add event")
        if self.n_add_events > self.n_nodes * (self.n_nodes - 1):
            raise ValueError(
                f"{self.n_add_events} adds exceed the simple-graph capacity "
                f"of {self.n_nodes} nodes ({self.n_nodes * (self.n_nodes - 1)} pairs)"
            )
        for name in ("attach_exponent", "decay_half_life",
                     "hazard_multiplier", "span"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.decay_half_life <= 0:
            raise ValueError("decay_half_life must be positive")
        if self.decay_bias not in _BIASES:
            raise ValueError(
                f"decay_bias must be one of {', '.join(_BIASES)}, got {self.decay_bias!r}"
            )
        if self.hazard_multiplier <= 0:
            raise ValueError("hazard_multiplier must be positive")
        if not 0.0 < self.deletion_share_target < 0.5:
            raise ValueError(
                "deletion_share_target must be in (0, 0.5): with lifetimes "
                "censored by the window, deletes can never outnumber adds"
            )
        if self.span is not None and self.span <= 0:
            raise ValueError("span must be positive")
        if self.span is None:
            return replace(self, span=solve_window_span(
                self.deletion_share_target, self.decay_half_life))
        return self


def solve_window_span(share_target: float, half_life: float) -> float:
    """Window length giving the requested delete share in expectation.

    With add times uniform on the window and exponential lifetimes at rate
    ``lam``, the probability that an edge dies inside a window of length
    ``T`` is ``1 - (1 - exp(-lam*T)) / (lam*T)``.  Setting that equal to
    ``share / (1 - share)`` (deletes per add) and solving for ``lam*T``
    yields the span.
    """
    from scipy.optimize import brentq  # only this root solve needs scipy

    target = share_target / (1.0 - share_target)

    def deleted_fraction(x: float) -> float:
        return 1.0 - (1.0 - math.exp(-x)) / x

    x = brentq(lambda x: deleted_fraction(x) - target, 1e-9, 200.0)
    rate = math.log(2.0) / half_life
    return x / rate


class _Fenwick:
    """Binary indexed tree (Fenwick 1994) over ``n`` non-negative weights.

    ``add`` changes one weight and ``search`` inverts the prefix sums, each
    in O(log n).  ``total`` is the running sum of all weights.
    """

    def __init__(self, n: int, initial: float) -> None:
        # 1-based: tree[k] holds the sum of the weights k - lowbit(k) .. k - 1.
        self.tree = [initial * (k & -k) for k in range(n + 1)]
        self.n = n
        self.total = initial * n
        self.top = 1 << (n.bit_length() - 1)

    def add(self, i: int, delta: float) -> None:
        """Add ``delta`` to weight ``i`` (0-based)."""
        tree, n = self.tree, self.n
        k = i + 1
        while k <= n:
            tree[k] += delta
            k += k & -k
        self.total += delta

    def search(self, x: float) -> int:
        """Index of the first weight whose prefix sum exceeds ``x``, as
        ``np.searchsorted(np.cumsum(w), x, side="right")`` finds it.

        The result is capped at ``n - 1``: for ``x < total`` the exact answer
        is below ``n``, and float weights summed along the search path in
        another order than ``total`` must not push it there.
        """
        tree, n = self.tree, self.n
        pos, acc, step = 0, 0, self.top
        while step:
            nxt = pos + step
            if nxt < n:
                s = acc + tree[nxt]
                if s <= x:
                    pos, acc = nxt, s
            step >>= 1
        return pos


def generate(config: GenConfig) -> TemporalEdgeList:
    """Simulate one synthetic event stream.

    Returns a :class:`~linkdecay.events.TemporalEdgeList` over nodes
    ``"0" .. "n-1"``; identical configs produce identical streams.
    """
    config = config.validated()
    rng = np.random.default_rng(config.seed)
    n = config.n_nodes
    window = max(1, int(round(config.span)))
    rate = math.log(2.0) / config.decay_half_life
    add_times = np.sort(rng.integers(0, window + 1, size=config.n_add_events))

    # weight[d]: attachment weight of a node of total degree d <= 2(n-1).
    if config.attach_exponent == 1.0:
        weight = range(1, 2 * n)
    else:
        weight = (np.arange(1, 2 * n, dtype=np.float64)
                  ** config.attach_exponent).tolist()
    tree = _Fenwick(n, weight[0])
    degree = [0] * n
    live: set[tuple[int, int]] = set()
    # neighbor -> number of live directed edges touching it (1 or 2), kept
    # only for the common-neighbor bias class.
    track_cn = config.decay_bias == "few_common_neighbors"
    neighbor_counts: list[dict[int, int]] = [dict() for _ in range(n)] if track_cn else []
    track_median = config.decay_bias == "low_degree"
    median_degree = 0.0
    recent_endpoint_degrees: deque[int] = deque(maxlen=_MEDIAN_WINDOW)

    death_heap: list[tuple[int, int, int, int]] = []
    records: list[tuple[int, int, int, int]] = []
    counter = 0

    def shift_degree(v: int, step: int) -> None:
        d = degree[v]
        degree[v] = d + step
        tree.add(v, weight[d + step] - weight[d])

    def drop_edge(i: int, j: int) -> None:
        live.discard((i, j))
        shift_degree(i, -1)
        shift_degree(j, -1)
        if track_cn:
            for a, b in ((i, j), (j, i)):
                left = neighbor_counts[a][b] - 1
                if left:
                    neighbor_counts[a][b] = left
                else:
                    del neighbor_counts[a][b]

    for added, t_add in enumerate(add_times.tolist()):
        while death_heap and death_heap[0][0] <= t_add:
            t_del, _, i, j = heapq.heappop(death_heap)
            records.append((i, j, -1, t_del))
            drop_edge(i, j)
        for _ in range(1000):
            i = tree.search(rng.random() * tree.total)
            j = tree.search(rng.random() * tree.total)
            if i != j and (i, j) not in live:
                break
        else:
            raise RuntimeError(
                "could not place a new edge after 1000 attempts; "
                "the graph is too saturated for this config"
            )
        biased = False
        if track_median:
            if added % _MEDIAN_REFRESH == 0 and recent_endpoint_degrees:
                # The int64 array np.median(deque) builds, without converting
                # the deque element by element.
                median_degree = float(np.median(np.fromiter(
                    recent_endpoint_degrees, np.int64, len(recent_endpoint_degrees))))
            recent_endpoint_degrees.append(degree[i])
            recent_endpoint_degrees.append(degree[j])
            biased = degree[i] < median_degree or degree[j] < median_degree
        elif track_cn:
            biased = not (neighbor_counts[i].keys() & neighbor_counts[j].keys())
        hazard = rate * (config.hazard_multiplier if biased else 1.0)
        lifetime = max(1, int(round(rng.exponential(1.0 / hazard))))
        records.append((i, j, 1, t_add))
        live.add((i, j))
        shift_degree(i, 1)
        shift_degree(j, 1)
        if track_cn:
            for a, b in ((i, j), (j, i)):
                neighbor_counts[a][b] = neighbor_counts[a].get(b, 0) + 1
        t_del = t_add + lifetime
        if t_del <= window:
            counter += 1
            heapq.heappush(death_heap, (t_del, counter, i, j))
    while death_heap:
        t_del, _, i, j = heapq.heappop(death_heap)
        records.append((i, j, -1, t_del))
        drop_edge(i, j)
    return TemporalEdgeList.from_records(records, n=n)


def deletion_share(tel: TemporalEdgeList) -> float:
    """Fraction of all events that are deletes."""
    if len(tel) == 0:
        raise ValueError("empty event stream")
    return float((tel.sign < 0).sum()) / len(tel)
