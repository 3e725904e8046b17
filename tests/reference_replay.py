"""Per-event reference replays for the presence-interval table.

These are the replays the one vectorized pass in ``linkdecay.events``
replaced, kept for the tests only: ingest counts, lifetimes, ages and
snapshots computed from the interval table must equal the ones computed
here exactly, including order and dtypes.  Each walks the time-sorted
event columns on its own and shares no code with the table.
"""

import numpy as np

from linkdecay.events import EventFormatError, IngestStats, TemporalEdgeList
from linkdecay.evaluation import EdgeLifetimes
from linkdecay.graph import Graph


def replay_scan(src: np.ndarray, dst: np.ndarray, sign: np.ndarray,
                strict_deletes: bool) -> IngestStats:
    """Count duplicate adds and no-op deletes; with ``strict_deletes``,
    raise on the first no-op delete."""
    stats = IngestStats()
    live: set[tuple[int, int]] = set()
    for k in range(len(src)):
        pair = (int(src[k]), int(dst[k]))
        if sign[k] > 0:
            if pair in live:
                stats.duplicate_adds += 1
            else:
                live.add(pair)
        else:
            if pair in live:
                live.discard(pair)
            else:
                if strict_deletes:
                    raise EventFormatError(
                        f"delete of absent edge {pair} at event index {k}"
                    )
                stats.noop_deletes += 1
    return stats


def edge_lifetimes(tel: TemporalEdgeList) -> EdgeLifetimes:
    """Closed intervals in delete order, then censored ones by pair."""
    live: dict[tuple[int, int], int] = {}
    durations: list[int] = []
    censored: list[bool] = []
    for k in range(len(tel)):
        pair = (int(tel.src[k]), int(tel.dst[k]))
        t = int(tel.time[k])
        if tel.sign[k] > 0:
            live.setdefault(pair, t)
        elif pair in live:
            durations.append(t - live.pop(pair))
            censored.append(False)
    if live:
        t_end = tel.time_last
        for pair in sorted(live):
            durations.append(t_end - live[pair])
            censored.append(True)
    return EdgeLifetimes(np.array(durations, dtype=np.int64),
                         np.array(censored, dtype=bool))


def edge_ages(tel: TemporalEdgeList, t: float) -> dict[tuple[int, int], float]:
    """Age of each edge alive at ``t``, in the order its interval began."""
    live: dict[tuple[int, int], int] = {}
    for k in range(len(tel)):
        if tel.time[k] > t:
            break
        pair = (int(tel.src[k]), int(tel.dst[k]))
        if tel.sign[k] > 0:
            live.setdefault(pair, int(tel.time[k]))
        else:
            live.pop(pair, None)
    return {pair: float(t - added) for pair, added in live.items()}


def snapshot_at(tel: TemporalEdgeList, t: float) -> Graph:
    """The edges whose last event at or before ``t`` is an add."""
    n = tel.node_count
    hi = int(np.searchsorted(tel.time, t, side="right"))
    src = tel.src[:hi]
    dst = tel.dst[:hi]
    sign = tel.sign[:hi]
    if hi == 0:
        return Graph(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    keys = src * np.int64(n) + dst
    # Index of the last event per edge key: first occurrence in the reversed
    # stream.
    _, first_in_reversed = np.unique(keys[::-1], return_index=True)
    last = hi - 1 - first_in_reversed
    live = last[sign[last] > 0]
    return Graph(n, src[live], dst[live])
