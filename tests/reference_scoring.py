"""Per-pair reference scorer for the batched kernel in ``linkdecay.scoring``.

This is the scalar implementation the kernel replaced, kept for the tests
only: every score the kernel returns must equal the one computed here bit
for bit.  It reads degrees and neighbour sets one pair at a time through
its own copy of the combo rules, so it shares no arithmetic with the
kernel.
"""

import math

import numpy as np

from linkdecay.graph import DegreeCombination, Graph, _check_pair
from linkdecay.scoring import Measure, ScoreModel, ScoreSpec


def _slot_sets(g: Graph, combo: DegreeCombination, i: int, j: int):
    if combo is DegreeCombination.SYM:
        return g.neighbors(i), g.neighbors(j)
    if combo is DegreeCombination.ASYM:
        return g.neighbors(i, "out"), g.neighbors(j, "in")
    if combo is DegreeCombination.IN:
        return g.neighbors(i, "in"), g.neighbors(j, "in")
    return g.neighbors(i, "out"), g.neighbors(j, "out")


def _weight_degrees(g: Graph, combo: DegreeCombination) -> np.ndarray:
    if combo is DegreeCombination.OUT:
        return g.out_degrees
    if combo is DegreeCombination.IN:
        return g.in_degrees
    return g.out_degrees + g.in_degrees


def _log_weight(degree: int) -> float:
    return 0.0 if degree <= 1 else 1.0 / math.log(degree)


def _common(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    return np.intersect1d(s1, s2, assume_unique=True)


def link_prediction_score(g, i, j, measure, combo) -> float:
    _check_pair(g, i, j)
    measure = Measure(measure)
    combo = DegreeCombination(combo)
    s1, s2 = _slot_sets(g, combo, i, j)
    d1, d2 = len(s1), len(s2)
    if measure is Measure.PA:
        return float(d1 * d2)
    common = _common(s1, s2)
    cn = len(common)
    if measure is Measure.CN:
        return float(cn)
    if measure is Measure.COS:
        if d1 == 0 or d2 == 0:
            return 0.0
        return cn / (math.sqrt(d1) * math.sqrt(d2))
    if measure is Measure.JACC:
        union = d1 + d2 - cn
        if union == 0:
            return 0.0
        return cn / union
    # ADAD: accumulate in ascending node order for reproducible float sums.
    degrees = _weight_degrees(g, combo)
    total = 0.0
    for k in common:
        total += _log_weight(int(degrees[k]))
    return total


def _adad_weights(g, combo, complement) -> np.ndarray:
    degrees = _weight_degrees(g, combo)
    if complement:
        degrees = g.node_count - 1 - degrees
    weights = np.zeros(len(degrees), dtype=np.float64)
    mask = degrees > 1
    weights[mask] = 1.0 / np.log(degrees[mask])
    return weights


def complement_network_score(g, i, j, measure, combo,
                             adad_complement_weights=False) -> float:
    _check_pair(g, i, j)
    measure = Measure(measure)
    combo = DegreeCombination(combo)
    n = g.node_count
    s1, s2 = _slot_sets(g, combo, i, j)
    d1, d2 = len(s1), len(s2)
    if measure is Measure.PA:
        return float((n - 1 - d1) * (n - 1 - d2))
    common = _common(s1, s2)
    if measure is Measure.ADAD:
        weights = _adad_weights(g, combo, adad_complement_weights)
        return (float(weights.sum())
                - float(weights[s1].sum())
                - float(weights[s2].sum())
                + float(weights[common].sum()))
    cn = len(common)
    numerator = n - d1 - d2 + cn
    if measure is Measure.CN:
        return float(numerator)
    if measure is Measure.COS:
        a = n - 1 - d1
        b = n - 1 - d2
        if a <= 0 or b <= 0:
            return 0.0
        return numerator / (math.sqrt(a) * math.sqrt(b))
    union = d1 + d2 - cn
    if union == 0:
        return 0.0
    return numerator / union


def decay_score(g: Graph, i: int, j: int, spec: ScoreSpec) -> float:
    if spec.model is ScoreModel.COMPLEMENT_SCORE:
        return -link_prediction_score(g, i, j, spec.measure, spec.combo)
    return complement_network_score(g, i, j, spec.measure, spec.combo,
                                    spec.adad_complement_weights)
