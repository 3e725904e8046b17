"""Synthetic evolving directed networks with controllable decay structure.

The generator grows a graph by degree-proportional attachment and assigns
every new edge an exponential lifetime (memoryless decay, configurable
half-life in ticks; one tick plays the role of a month).  Deletes are
emitted for edges whose lifetime ends inside the simulated window; edges
outliving the window are simply never deleted, which is what keeps the
share of delete events well below one half.

Time runs in integer ticks.  Add times are drawn once and sorted; since
every lifetime is at least one tick, no edge dies in the tick it was
added.  So the loop runs tick by tick: before the adds of a tick it drops
every edge due by then, one due tick at a time in ascending order and,
within a tick, in add order.  Pending deaths are a dict from tick to edge
keys (``src * n + dst``) with a heap of the distinct ticks, so neither
time nor memory depends on the window length.  The stream is kept as
those keys plus one ``(tick, sign, count)`` run per add tick and per death
tick, and becomes columns only at the end.

Endpoints are drawn from a Fenwick (binary indexed) tree over the
attachment weights ``degree + 1``, raised to ``attach_exponent``.  Each
degree change updates the tree in O(log n), and both endpoints of an
attempt are found in one O(log n) descent of the same tree state, so an
add costs no pass over all nodes.  The weights are floats.  Integer-valued
weights (exponents 0 and 1) add exactly while the total weight, at most
``n + 2 * adds``, stays below ``2**53``: every prefix sum is exact and the
draws are those of ``np.searchsorted(np.cumsum(weights), u * total,
side="right")``.  Other exponents give weights that the tree adds in
another order than a cumulative sum would; a draw can then differ only
where ``u * total`` falls within rounding error of a prefix boundary.

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
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .events import TemporalEdgeList

__all__ = ["GenConfig", "deletion_share", "generate", "solve_window_span"]

_BIASES = ("none", "low_degree", "few_common_neighbors")

# The last tick a window may hold: event times are int64.
_MAX_TICK = 2 ** 63 - 1

# Running-median bookkeeping for the low_degree bias: the median is taken
# over the last _MEDIAN_WINDOW endpoint degrees observed at add time and
# refreshed every _MEDIAN_REFRESH adds.
_MEDIAN_REFRESH = 128
_MEDIAN_WINDOW = 4096
# The window is whole refresh periods of two endpoint degrees per add.
assert _MEDIAN_WINDOW % (2 * _MEDIAN_REFRESH) == 0
_MEDIAN_ROWS = _MEDIAN_WINDOW // (2 * _MEDIAN_REFRESH)

# The bracket of lam*T that solve_window_span searches.
_SPAN_BRACKET = (1e-9, 200.0)


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
        span, source = self.span, "span"
        if span is None:
            span = solve_window_span(self.deletion_share_target,
                                     self.decay_half_life)
            source = "decay_half_life"
        if round(span) > _MAX_TICK:
            raise ValueError(
                f"{source} {getattr(self, source)!r} gives a window of "
                f"{span:.6g} ticks, more than int64 times hold")
        return replace(self, span=span)


def solve_window_span(share_target: float, half_life: float) -> float:
    """Window length giving the requested delete share in expectation.

    With add times uniform on the window and exponential lifetimes at rate
    ``lam``, the probability that an edge dies inside a window of length
    ``T`` is ``1 - (1 - exp(-lam*T)) / (lam*T)``.  Setting that equal to
    ``share / (1 - share)`` (deletes per add) and solving for ``lam*T``
    yields the span.

    The root is found by Brent's method (Brent 1973) on the bracket
    ``lam*T`` in ``[1e-9, 200]``, stopping within ``2e-12 + 4 * eps *
    |x|`` or after 100 iterations (:func:`_brent_root`).  A target whose
    root lies outside the bracket, or outside ``(0, 1)``, raises
    ``ValueError``, as does a ``half_life`` that is not positive and finite.
    """
    if not 0.0 < half_life < math.inf:
        raise ValueError(
            f"half_life must be positive and finite, got {half_life!r}")

    def deleted_fraction(x: float) -> float:
        return 1.0 - (1.0 - math.exp(-x)) / x

    x = None
    if 0.0 < share_target < 1.0:
        target = share_target / (1.0 - share_target)
        x = _brent_root(lambda x: deleted_fraction(x) - target, *_SPAN_BRACKET)
    if x is None:
        low, high = (d / (1.0 + d) for d in map(deleted_fraction, _SPAN_BRACKET))
        raise ValueError(
            f"deletion_share_target {share_target!r} has no window span: "
            f"solvable targets lie between {low:.6g} and {high:.6g}")
    rate = math.log(2.0) / half_life
    return x / rate


def _brent_root(f, a: float, b: float) -> Optional[float]:
    """A root of ``f`` in ``[a, b]`` by Brent's method, or ``None`` when
    ``f(a)`` and ``f(b)`` have the same sign.

    A line-by-line port of SciPy's ``brentq.c`` with the defaults of its
    ``optimize.brentq`` (``xtol=2e-12``, ``rtol=4 * eps``, 100
    iterations): every step and stopping test is the same float operation,
    so the root has the same bits.  The bracket ``[blk, cur]`` always
    straddles the root; each step tries inverse quadratic interpolation
    (or the secant) and falls back to bisection when the step would leave
    the bracket or shrink too slowly.
    """
    xtol, rtol, maxiter = 2e-12, 4 * sys.float_info.epsilon, 100
    pre, cur = a, b
    fpre, fcur = f(pre), f(cur)
    if fpre == 0:
        return pre
    if fcur == 0:
        return cur
    if (fpre < 0) == (fcur < 0):
        return None
    blk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk = cur, blk, cur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(cur)) / 2
        sbis = (blk - cur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return cur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if pre == blk:  # secant
                stry = -fcur * (cur - pre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (pre - cur)
                dblk = (fblk - fcur) / (blk - cur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(cur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")


class _Fenwick:
    """Binary indexed tree (Fenwick 1994) over ``n`` non-negative weights.

    ``add`` changes one weight in O(log n).  ``search_pair`` inverts the
    prefix sums for two values in one O(log n) descent, so both endpoints
    of an attempt search the same tree state.  ``total`` is the running sum
    of all weights.
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

    def search_pair(self, x: float, y: float) -> tuple[int, int]:
        """For ``x`` and for ``y``, the index of the first weight whose
        prefix sum exceeds it, as ``np.searchsorted(np.cumsum(w), x,
        side="right")`` finds it.

        Both values descend the tree together, each with its own position
        and running sum.  Each result is capped at ``n - 1``: for a value
        below ``total`` the exact answer is below ``n``, and float weights
        summed along the path in another order than ``total`` must not push
        it there.
        """
        tree, n = self.tree, self.n
        pos_x = pos_y = 0
        acc_x = acc_y = 0
        step = self.top
        while step:
            nxt = pos_x + step
            if nxt < n:
                s = acc_x + tree[nxt]
                if s <= x:
                    pos_x, acc_x = nxt, s
            nxt = pos_y + step
            if nxt < n:
                s = acc_y + tree[nxt]
                if s <= y:
                    pos_y, acc_y = nxt, s
            step >>= 1
        return pos_x, pos_y


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
    add_ticks, adds_per_tick = np.unique(
        rng.integers(0, window + 1, size=config.n_add_events), return_counts=True)

    # weight[d]: attachment weight of a node of total degree d <= 2(n-1).
    weight = (np.arange(1, 2 * n, dtype=np.float64)
              ** config.attach_exponent).tolist()
    tree = _Fenwick(n, weight[0])
    search_pair, tree_add = tree.search_pair, tree.add
    random, exponential = rng.random, rng.exponential
    # Lifetime scales 1 / hazard of a plain and of a biased edge.  A biased
    # hazard that underflows to 0 gives an infinite scale and infinite draws.
    biased_rate = rate * config.hazard_multiplier
    plain_scale = 1.0 / rate
    biased_scale = 1.0 / biased_rate if biased_rate else math.inf
    degree = [0] * n
    # i * n + j for every live edge i -> j.
    live: set[int] = set()
    # neighbor -> number of live directed edges touching it (1 or 2), kept
    # only for the common-neighbor bias class.
    track_cn = config.decay_bias == "few_common_neighbors"
    neighbor_counts: list[dict[int, int]] = [dict() for _ in range(n)] if track_cn else []
    track_median = config.decay_bias == "low_degree"
    median_degree = 0.0
    # Row r % _MEDIAN_ROWS holds the endpoint degrees of refresh period r;
    # ``period`` collects those of the current one.
    median_ring = np.zeros((_MEDIAN_ROWS, 2 * _MEDIAN_REFRESH), dtype=np.int64)
    period: list[int] = []

    # death tick -> keys of the edges that die then, in add order; ``due``
    # is a heap of the distinct ticks in it.
    deaths: dict[int, list[int]] = {}
    due: list[int] = []
    # The stream: edge keys in event order, and its (tick, sign, count)
    # runs, flat.
    keys: list[int] = []
    runs: list[int] = []

    def flush(until: int) -> None:
        """Drop every edge due by tick ``until``, tick by tick in add order."""
        while due and due[0] <= until:
            tick = heapq.heappop(due)
            dying = deaths.pop(tick)
            for key in dying:
                live.remove(key)
                i, j = divmod(key, n)
                d = degree[i]
                degree[i] = d - 1
                tree_add(i, weight[d - 1] - weight[d])
                d = degree[j]
                degree[j] = d - 1
                tree_add(j, weight[d - 1] - weight[d])
                if track_cn:
                    for a, b in ((i, j), (j, i)):
                        left = neighbor_counts[a][b] - 1
                        if left:
                            neighbor_counts[a][b] = left
                        else:
                            del neighbor_counts[a][b]
            keys.extend(dying)
            runs.extend((tick, -1, len(dying)))

    added = 0
    # A lifetime is at least one tick, so no edge dies in its add tick.
    for tick, count in zip(add_ticks.tolist(), adds_per_tick.tolist()):
        flush(tick)
        for _ in range(count):
            for _ in range(1000):
                total = tree.total
                i, j = search_pair(random() * total, random() * total)
                key = i * n + j
                if i != j and key not in live:
                    break
            else:
                raise RuntimeError(
                    "could not place a new edge after 1000 attempts; "
                    "the graph is too saturated for this config"
                )
            di, dj = degree[i], degree[j]
            biased = False
            if track_median:
                if added % _MEDIAN_REFRESH == 0 and added:
                    filled = added // _MEDIAN_REFRESH
                    median_ring[(filled - 1) % _MEDIAN_ROWS] = period
                    period.clear()
                    median_degree = float(np.median(
                        median_ring[:min(filled, _MEDIAN_ROWS)]))
                period.append(di)
                period.append(dj)
                biased = di < median_degree or dj < median_degree
            elif track_cn:
                biased = not (neighbor_counts[i].keys() & neighbor_counts[j].keys())
            lifetime = exponential(biased_scale if biased else plain_scale)
            added += 1
            keys.append(key)
            live.add(key)
            degree[i] = di + 1
            tree_add(i, weight[di + 1] - weight[di])
            degree[j] = dj + 1
            tree_add(j, weight[dj + 1] - weight[dj])
            if track_cn:
                for a, b in ((i, j), (j, i)):
                    neighbor_counts[a][b] = neighbor_counts[a].get(b, 0) + 1
            # An infinite lifetime outlasts every window (and round() rejects it).
            t_del = (tick + max(1, round(lifetime)) if lifetime < math.inf
                     else window + 1)
            if t_del <= window:
                dying = deaths.get(t_del)
                if dying is None:
                    deaths[t_del] = [key]
                    heapq.heappush(due, t_del)
                else:
                    dying.append(key)
        runs.extend((tick, 1, count))
    flush(window)

    edge_keys = np.array(keys, dtype=np.int64)
    run_table = np.array(runs, dtype=np.int64).reshape(-1, 3)
    sign = np.repeat(run_table[:, 1], run_table[:, 2])
    time = np.repeat(run_table[:, 0], run_table[:, 2])
    return TemporalEdgeList(edge_keys // n, edge_keys % n, sign, time,
                            [str(v) for v in range(n)])


def deletion_share(tel: TemporalEdgeList) -> float:
    """Fraction of all events that are deletes."""
    if len(tel) == 0:
        raise ValueError("empty event stream")
    return float((tel.sign < 0).sum()) / len(tel)
