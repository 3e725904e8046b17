"""Cumulative-sum reference sampler for ``linkdecay.generate``.

This is the event loop the Fenwick-tree sampler replaced, kept for the
tests only: each add rebuilds the attachment weights, takes their full
cumulative sum and draws both endpoints with ``np.searchsorted``.  Given
the same config, ``generate`` must write the same bytes, or raise the same
saturation error.  Config validation, the window and the median constants
come from the package; the sampling and the degree bookkeeping are its own.
"""

import heapq
import math
from collections import deque

import numpy as np

from linkdecay.events import TemporalEdgeList
from linkdecay.generate import _MEDIAN_REFRESH, _MEDIAN_WINDOW, GenConfig


def generate(config: GenConfig) -> TemporalEdgeList:
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
                "could not place a new edge after 1000 attempts: every draw was a "
                "self-pair or a live edge; the graph is too saturated for this config, "
                f"or attach_exponent {config.attach_exponent!r} puts the attachment "
                "weight on too few nodes"
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
