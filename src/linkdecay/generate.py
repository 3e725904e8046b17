"""Synthetic evolving directed networks with controllable decay structure.

The generator grows a graph by degree-proportional attachment and assigns
every new edge an exponential lifetime (memoryless decay, configurable
half-life in ticks; one tick plays the role of a month).  Deletes are
emitted for edges whose lifetime ends inside the simulated window; edges
outliving the window are simply never deleted, which is what keeps the
share of delete events well below one half.

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

    degree = np.zeros(n, dtype=np.int64)
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

    def drop_edge(i: int, j: int) -> None:
        live.discard((i, j))
        degree[i] -= 1
        degree[j] -= 1
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
        weights = (degree + 1).astype(np.float64)
        if config.attach_exponent != 1.0:
            weights **= config.attach_exponent
        cumulative = np.cumsum(weights)
        total = cumulative[-1]
        for _ in range(1000):
            i = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
            j = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
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
                median_degree = float(np.median(recent_endpoint_degrees))
            recent_endpoint_degrees.append(int(degree[i]))
            recent_endpoint_degrees.append(int(degree[j]))
            biased = degree[i] < median_degree or degree[j] < median_degree
        elif track_cn:
            biased = not (neighbor_counts[i].keys() & neighbor_counts[j].keys())
        hazard = rate * (config.hazard_multiplier if biased else 1.0)
        lifetime = max(1, int(round(rng.exponential(1.0 / hazard))))
        records.append((i, j, 1, t_add))
        live.add((i, j))
        degree[i] += 1
        degree[j] += 1
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
