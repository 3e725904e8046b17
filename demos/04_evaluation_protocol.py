"""
Measuring decay prediction with average precision
=================================================

Does a scorer actually find the edges that are about to vanish?  The
protocol: cut the stream at t1 (default three quarters through its
span), call every edge that is present at t1 but gone by the end a
positive, sample an equal number of surviving edges as negatives, rank
the union by decay score at t1, and take average precision.  Random
guessing lands at AP = 0.5; a perfect scorer at 1.0.
"""

import warnings

import numpy as np

from linkdecay import (
    GenConfig,
    ScoreSpec,
    evaluate,
    evaluate_link_prediction,
    generate,
    random_baseline,
    temporal_split,
)
from linkdecay.scoring import DegreeCombination, Measure, ScoreModel

# ---------------------------------------------------------------------------
# A synthetic stream with a planted pattern: edges touching a node whose
# degree is below the running median decay four times faster.  Low-degree
# endpoints -> short-lived edge, which is exactly what a preferential-
# attachment scorer keys on.

config = GenConfig(seed=0, n_nodes=5000, n_add_events=40000,
                   decay_bias="low_degree")
tel = generate(config)
print(f"generated {len(tel)} events on {tel.node_count} nodes "
      f"(deletions: {np.sum(tel.sign < 0)})")

split = temporal_split(tel, seed=0)
print(f"cut at t1 = {split.t1:.2f}: {len(split.test_set)} decayed edges, "
      f"{len(split.zero_test_set)} sampled survivors")

# ---------------------------------------------------------------------------
# Score the split with negated preferential attachment (out-degrees) and
# compare against the random floor.

spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.PA, DegreeCombination.OUT)
result = evaluate(tel, spec, split)
floor = random_baseline(split, seed=0)
print(f"\n{spec}: AP = {result.ap:.4f}")
print(f"random baseline: AP = {floor.ap:.4f}")
print(f"lift over random: {result.ap - floor.ap:+.4f}")

# Precision within the top of the ranking:
for k in (10, 100, 1000):
    print(f"  precision@{k}: {result.precision_at[k - 1]:.3f}")

# ---------------------------------------------------------------------------
# The creation-side mirror: predict which *absent* pairs will appear.
# On the same stream the creation task is noticeably easier than the
# decay task for the same measure -- the usual experience.

creation = evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM, seed=0)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    decay = evaluate(tel, ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN,
                                    DegreeCombination.SYM), split)
print(f"\ncommon neighbors, creation side: AP = {creation.ap:.4f}")
print(f"common neighbors, decay side:    AP = {decay.ap:.4f}")

# ---------------------------------------------------------------------------
# A small sweep over a few scorers.  (The CLI's `sweep` subcommand does
# this for the full 40-spec grid and writes a TSV + reproducibility
# manifest.)

print("\nAP by scorer:")
for model in ScoreModel:
    for measure in (Measure.PA, Measure.CN, Measure.ADAD):
        s = ScoreSpec(model, measure, DegreeCombination.SYM)
        r = evaluate(tel, s, split)
        print(f"  {str(s):20s} {r.ap:.4f}")
