"""Per-item reference code for average precision, Kaplan–Meier and the
never-present pair sample.

These are the tuple sort, the precision loop, the per-item expected-AP
loop, the Kaplan–Meier while loop and the per-key negative sampling loop
that the array code in ``linkdecay.evaluation`` replaced, kept for the
tests only: AP values, rankings, precision lists, survival curves and
sampled keys computed there must equal the ones computed here bit for
bit.  Nothing here shares code with the array path.
"""

from typing import Iterable, NamedTuple

import numpy as np


class ReferenceAP(NamedTuple):
    ap: float
    ranking: list
    precision_at: list
    positives: int


def expected_ap(ranking: list[tuple], positives: int) -> float:
    """Expected AP when items with equal scores are ordered uniformly at
    random, one in-block position at a time."""
    total = 0.0
    above = 0          # items ranked strictly above the current block
    above_pos = 0      # positives among them
    k = 0
    length = len(ranking)
    while k < length:
        score = ranking[k][1]
        block_end = k
        while block_end < length and ranking[block_end][1] == score:
            block_end += 1
        block = ranking[k:block_end]
        t = sum(1 for item in block if item[2] == "test")
        size = len(block)
        if t:
            if size == 1:
                total += (above_pos + 1) / (above + 1)
            else:
                for r in range(1, size + 1):
                    expected_hits = above_pos + 1 + (r - 1) * (t - 1) / (size - 1)
                    total += (t / size) * expected_hits / (above + r)
        above += size
        above_pos += t
        k = block_end
    return total / positives


def average_precision(scored: Iterable[tuple],
                      tie_break: str = "lexicographic") -> ReferenceAP:
    """AP of ``((src, dst), score, label)`` items: a Python tuple sort by
    ``(-score, (src, dst))`` and a left-to-right precision loop."""
    if tie_break not in ("lexicographic", "expected"):
        raise ValueError(f"tie_break must be 'lexicographic' or 'expected', got {tie_break!r}")
    items = []
    for edge, score, label in scored:
        if label not in ("test", "zero"):
            raise ValueError(f"label must be 'test' or 'zero', got {label!r}")
        items.append(((int(edge[0]), int(edge[1])), float(score), label))
    positives = sum(1 for item in items if item[2] == "test")
    if positives == 0:
        raise ValueError("average precision needs at least one 'test' item")
    ranking = sorted(items, key=lambda item: (-item[1], item[0]))
    hits = 0
    precision_at = []
    lex_total = 0.0
    for rank, item in enumerate(ranking, start=1):
        if item[2] == "test":
            hits += 1
            lex_total += hits / rank
        precision_at.append(hits / rank)
    if tie_break == "lexicographic":
        ap = lex_total / positives
    else:
        ap = expected_ap(ranking, positives)
    return ReferenceAP(ap, ranking, precision_at, positives)


def survival_curve(durations: np.ndarray,
                   censored: np.ndarray) -> list[tuple[float, float]]:
    """Kaplan–Meier steps from a stable sort and a while loop over runs of
    equal durations."""
    if len(durations) == 0:
        return [(0.0, 1.0)]
    order = np.argsort(durations, kind="stable")
    durations = durations[order]
    censored = censored[order]
    points = [(0.0, 1.0)]
    surviving = 1.0
    total = len(durations)
    k = 0
    while k < total:
        t = durations[k]
        deaths = 0
        block_end = k
        while block_end < total and durations[block_end] == t:
            if not censored[block_end]:
                deaths += 1
            block_end += 1
        if deaths:
            at_risk = total - k
            surviving *= 1.0 - deaths / at_risk
            points.append((float(t), surviving))
        k = block_end
    return points


def never_present_keys(src: np.ndarray, dst: np.ndarray, n: int, need: int,
                       seed: int) -> tuple[np.ndarray, int]:
    """The sorted keys ``i * n + j`` of ``need`` distinct pairs ``i != j``
    that no event touches, from a per-key loop over chunks of
    ``default_rng(seed)`` draws; also the number of chunks drawn."""
    ever = set((src * np.int64(n) + dst).tolist())
    rng = np.random.default_rng(seed)
    chosen: set[int] = set()
    chunks = 0
    while len(chosen) < need:
        draw = rng.integers(0, n * n, size=max(64, 2 * (need - len(chosen))))
        chunks += 1
        for key in draw.tolist():
            i, j = divmod(key, n)
            if i == j or key in ever or key in chosen:
                continue
            chosen.add(key)
            if len(chosen) == need:
                break
    return np.array(sorted(chosen), dtype=np.int64), chunks
