"""Temporal splits, average precision, baselines, and survival analysis."""

import io
import math
import struct
import warnings

import numpy as np
import pytest

import reference_evaluation
import reference_scoring as reference
from linkdecay.datasets import swim_surf_events
from linkdecay.evaluation import (APResult, EdgeLifetimes, EvaluationSplit,
                                  _absent_keys, _cut, _keys_to_pairs, average_precision,
                                  edge_ages, edge_lifetimes, evaluate,
                                  evaluate_link_prediction,
                                  fit_exponential_half_life, random_baseline,
                                  survival_curve, sweep, temporal_split)
from linkdecay.events import read_events
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import DegreeCombination, snapshot_at
from linkdecay.oracle import check_closed_form
from linkdecay.scoring import Measure, ScoreModel, ScoreSpec, all_specs


def _read(text):
    return read_events(io.StringIO(text))


def _stream(*lines):
    return _read("".join(line + "\n" for line in lines))


# ---- temporal split ----

def test_split_cut_time_arithmetic():
    tel = _stream("a\tb\t+1\t0", "c\td\t+1\t0", "a\tb\t-1\t80",
                  "e\tf\t+1\t100")
    split = temporal_split(tel, 0.75, seed=0)
    assert split.t1 == 75.0
    assert split.t_end == 100


def test_split_membership():
    tel = _stream("a\tb\t+1\t10", "c\td\t+1\t0", "a\tb\t-1\t80",
                  "e\tf\t+1\t100")
    split = temporal_split(tel, 0.75, seed=0)
    assert [tuple(e) for e in split.test_set] == [(0, 1)]
    assert [tuple(e) for e in split.zero_test_set] == [(2, 3)]


def test_keys_to_pairs_splits_int64_keys():
    for keys in (np.array([0, 5, 7, 11, 35], dtype=np.int64), np.empty(0, dtype=np.int64)):
        got = _keys_to_pairs(keys, 6)
        assert got.dtype == np.int64 and got.shape == (len(keys), 2)
        assert np.array_equal(got, np.column_stack((keys // 6, keys % 6)))


def test_split_deleted_then_readded_edge_is_a_survivor():
    tel = _stream("a\tb\t+1\t10", "a\tb\t-1\t50", "a\tb\t+1\t60",
                  "c\td\t+1\t20", "c\td\t-1\t90", "x\ty\t+1\t100")
    split = temporal_split(tel, 0.75, seed=1)
    # (a,b) present at 75 and at 100: eligible for the zero set only
    assert [tuple(e) for e in split.test_set] == [(2, 3)]
    assert [tuple(e) for e in split.zero_test_set] == [(0, 1)]


def test_split_zero_set_sampled_to_test_size():
    lines = [f"s{k}\tt{k}\t+1\t0" for k in range(20)]
    lines += ["s0\tt0\t-1\t90", "s1\tt1\t-1\t95", "end\tcap\t+1\t100"]
    split = temporal_split(_stream(*lines), 0.75, seed=7)
    assert len(split.test_set) == 2
    assert len(split.zero_test_set) == 2
    different = temporal_split(_stream(*lines), 0.75, seed=8)
    assert len(different.zero_test_set) == 2
    same = temporal_split(_stream(*lines), 0.75, seed=7)
    assert np.array_equal(same.zero_test_set, split.zero_test_set)


def test_split_warns_when_survivors_run_short():
    # two decayed edges but only one survivor
    tel = _stream("a\tb\t+1\t0", "c\td\t+1\t0", "e\tf\t+1\t0",
                  "a\tb\t-1\t90", "c\td\t-1\t95", "x\ty\t+1\t100")
    with pytest.warns(UserWarning, match="zero test set"):
        split = temporal_split(tel, 0.75, seed=0)
    assert len(split.test_set) == 2
    assert len(split.zero_test_set) == 1


def test_split_requires_decayed_edges():
    tel = _stream("a\tb\t+1\t0", "c\td\t+1\t100")
    with pytest.raises(ValueError, match="no decayed edges"):
        temporal_split(tel, 0.75, seed=0)


def test_split_rejects_bad_fraction():
    tel = swim_surf_events()
    for fraction in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="fraction"):
            temporal_split(tel, fraction, seed=0)


def test_split_sets_are_disjoint_on_random_streams():
    rng = np.random.default_rng(55)
    for _ in range(10):
        lines = []
        live = set()
        for k in range(120):
            i, j = rng.integers(0, 15, size=2)
            if i == j:
                continue
            pair = (int(i), int(j))
            t = int(rng.integers(0, 200))
            if pair in live and rng.random() < 0.35:
                lines.append(f"n{i}\tn{j}\t-1\t{t}")
                live.discard(pair)
            elif pair not in live:
                lines.append(f"n{i}\tn{j}\t+1\t{t}")
                live.add(pair)
        lines.sort(key=lambda s: int(s.rsplit("\t", 1)[1]))
        tel = _stream(*lines)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                split = temporal_split(tel, 0.75, seed=int(rng.integers(1 << 16)))
        except ValueError:
            continue  # stream happened to have no decayed edges
        test = {tuple(e) for e in split.test_set}
        zero = {tuple(e) for e in split.zero_test_set}
        assert not test & zero
        assert len(zero) <= len(test)


# ---- average precision ----

def test_ap_perfect_ranking():
    result = average_precision([((0, 1), 0.9, "test"), ((2, 3), 0.1, "zero")])
    assert result.ap == 1.0


def test_ap_inverted_ranking():
    result = average_precision([((0, 1), 0.9, "zero"), ((2, 3), 0.1, "test")])
    assert result.ap == 0.5


def test_ap_alternating_ranking():
    scored = [((0, 1), 4.0, "test"), ((0, 2), 3.0, "zero"),
              ((0, 3), 2.0, "test"), ((0, 4), 1.0, "zero")]
    result = average_precision(scored)
    assert abs(result.ap - 5.0 / 6.0) < 1e-12


def test_ap_tie_broken_by_endpoints():
    # equal scores: (1,2) sorts before (3,4), so the positive leads
    scored = [((3, 4), 1.0, "zero"), ((1, 2), 1.0, "test")]
    assert average_precision(scored).ap == 1.0


def test_ap_expected_tie_policy():
    scored = [((3, 4), 1.0, "zero"), ((1, 2), 1.0, "test")]
    result = average_precision(scored, tie_break="expected")
    # the two orders give AP 1.0 and 0.5, uniformly mixed
    assert result.ap == pytest.approx(0.75, abs=1e-12)


def test_ap_expected_matches_enumeration():
    """Closed-form expected AP equals a direct average over all orderings
    of the tied block."""
    import itertools

    tied = [((0, k), 1.0, "test" if k < 2 else "zero") for k in range(5)]
    head = [((9, 9), 2.0, "test")]
    result = average_precision(head + tied, tie_break="expected")

    def ap_of(order):
        hits, total, ap = 0, 2 + 1, 0.0
        for rank, label in enumerate(order, start=1):
            if label == "test":
                hits += 1
                ap += hits / rank
        return ap / total

    labels = ["test"] + [lab for (_, _, lab) in tied]
    aps = [ap_of(["test"] + list(perm))
           for perm in itertools.permutations(labels[1:])]
    assert result.ap == pytest.approx(sum(aps) / len(aps), rel=1e-12)


def test_ap_requires_positive():
    with pytest.raises(ValueError, match="at least one 'test'"):
        average_precision([((0, 1), 1.0, "zero")])


def test_ap_rejects_unknown_label():
    with pytest.raises(ValueError, match="label"):
        average_precision([((0, 1), 1.0, "maybe")])


def test_ap_monotone_transform_invariance():
    rng = np.random.default_rng(71)
    for _ in range(30):
        k = int(rng.integers(2, 40))
        scores = rng.normal(size=k)
        labels = rng.choice(["test", "zero"], size=k)
        if "test" not in labels:
            labels[0] = "test"
        scored = [((int(i), int(i) + 1000), float(s), str(lab))
                  for i, (s, lab) in enumerate(zip(scores, labels))]
        base = average_precision(scored).ap
        warped = [(e, math.exp(3.0 * s) + 2.0, lab) for e, s, lab in scored]
        assert average_precision(warped).ap == pytest.approx(base, rel=1e-12)


def test_ap_antitone_to_adjacent_swap():
    scored = [((0, 1), 5.0, "test"), ((0, 2), 4.0, "zero"),
              ((0, 3), 3.0, "test"), ((0, 4), 2.0, "zero")]
    better = [((0, 1), 5.0, "test"), ((0, 2), 4.0, "test"),
              ((0, 3), 3.0, "zero"), ((0, 4), 2.0, "zero")]
    assert average_precision(better).ap > average_precision(scored).ap


def test_ap_self_consistent_with_stored_ranking():
    rng = np.random.default_rng(73)
    scored = [((int(k), int(k) + 100), float(rng.normal()),
               "test" if rng.random() < 0.5 else "zero") for k in range(25)]
    if not any(lab == "test" for _, _, lab in scored):
        scored[0] = (scored[0][0], scored[0][1], "test")
    result = average_precision(scored)
    recomputed = 0.0
    hits = 0
    for rank, (_, _, label) in enumerate(result.ranking, start=1):
        if label == "test":
            hits += 1
            recomputed += result.precision_at[rank - 1]
    assert result.ap == pytest.approx(recomputed / result.positives, rel=1e-12)
    assert result.precision_at[rank - 1] == hits / rank


# ---- end-to-end evaluation ----

def test_evaluate_fixture_bridge_is_perfectly_ranked():
    """The bundled fixture deletes only the bridge, and the common-neighbor
    scorer puts the bridge on top, so the protocol yields AP = 1."""
    tel = swim_surf_events(bridge_delete_time=80)
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN,
                     DegreeCombination.SYM)
    result = evaluate(tel, spec, temporal_split(tel, 0.75, seed=3))
    assert result.ap == 1.0
    assert result.positives == 2


def test_evaluate_deterministic_given_seed():
    tel = swim_surf_events()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.PA,
                     DegreeCombination.SYM)
    a = evaluate(tel, spec, temporal_split(tel, 0.75, seed=11))
    b = evaluate(tel, spec, temporal_split(tel, 0.75, seed=11))
    assert a.ap == b.ap
    assert a.ranking == b.ranking


def test_evaluate_accepts_precomputed_split():
    tel = swim_surf_events()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN,
                     DegreeCombination.SYM)
    split = temporal_split(tel, 0.75, seed=5)
    assert evaluate(tel, spec, split).ap == \
        sweep(tel, split)[all_specs().index(spec)]


def test_random_baseline_bounds_and_determinism():
    test_pairs = np.array([[0, k] for k in range(1, 9)], dtype=np.int64)
    zero_pairs = np.array([[1, k] for k in range(2, 10)], dtype=np.int64)
    split = EvaluationSplit(t1=75.0, t_end=100, training_edges=test_pairs,
                            test_set=test_pairs, zero_test_set=zero_pairs,
                            seed=0)
    values = [random_baseline(split, seed=s).ap for s in range(50)]
    assert random_baseline(split, seed=3).ap == values[3]
    assert all(0.0 < v <= 1.0 for v in values)
    assert 0.35 < float(np.mean(values)) < 0.65


@pytest.mark.parametrize("call", [
    lambda tel, split: temporal_split(tel, 0.75, seed=None),
    lambda tel, split: random_baseline(split, seed=None),
    lambda tel, split: evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM,
                                                seed=None),
    lambda tel, split: check_closed_form(
        snapshot_at(tel, tel.time_last),
        ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.JACC, DegreeCombination.SYM),
        pairs="all", max_pairs=50, seed=None),
], ids=["temporal_split", "random_baseline", "evaluate_link_prediction",
        "check_closed_form"])
def test_a_missing_seed_is_refused_up_front(call, monkeypatch):
    # Each call would succeed with a seed; without one it draws nothing.
    tel = generate(GenConfig(seed=4, n_nodes=150, n_add_events=2000))
    split = temporal_split(tel, 0.75, seed=0)
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match="^a seed is required$"):
        call(tel, split)


def test_single_positive_single_negative_two_outcomes():
    pair = np.array([[0, 1]], dtype=np.int64)
    other = np.array([[2, 3]], dtype=np.int64)
    split = EvaluationSplit(t1=1.0, t_end=2, training_edges=pair,
                            test_set=pair, zero_test_set=other, seed=0)
    outcomes = {random_baseline(split, seed=s).ap for s in range(40)}
    assert outcomes == {0.5, 1.0}


def test_evaluate_lp_on_crafted_growth():
    # triangle exists from t=0; two fresh edges appear late
    lines = ["a\tb\t+1\t0", "b\tc\t+1\t0", "c\ta\t+1\t0",
             "a\tc\t+1\t90", "b\ta\t+1\t95", "z\tw\t+1\t100"]
    tel = _stream(*lines)
    result = evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM,
                                      seed=2)
    assert result.positives == 3  # (a,c), (b,a), (z,w)
    assert 0.0 <= result.ap <= 1.0
    again = evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM,
                                     seed=2)
    assert again.ap == result.ap


def test_evaluate_lp_scores_match_per_pair_reference():
    """One batched call scores the whole ranking; every raw measure equals
    the per-pair reference bit for bit, so AP is unchanged."""
    tel = generate(GenConfig(seed=4, n_nodes=150, n_add_events=2000))
    t1 = tel.time_first + 0.75 * (tel.time_last - tel.time_first)
    g1 = snapshot_at(tel, t1)
    for measure in Measure:
        for combo in DegreeCombination:
            result = evaluate_link_prediction(tel, measure, combo, seed=1)
            for (i, j), score, _ in result.ranking:
                want = reference.link_prediction_score(g1, i, j, measure, combo)
                assert struct.pack("<d", score) == struct.pack("<d", want)


def test_evaluate_lp_requires_new_edges():
    tel = _stream("a\tb\t+1\t0", "a\tb\t-1\t50", "c\td\t+1\t0",
                  "c\td\t-1\t100")
    with pytest.raises(ValueError, match="new edges"):
        evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM, seed=0)


def test_evaluate_lp_requires_enough_never_present_pairs():
    # every ordered pair of three nodes occurs: three early, three late
    tel = _stream("a\tb\t+1\t0", "b\tc\t+1\t0", "c\ta\t+1\t0",
                  "a\tc\t+1\t90", "b\ta\t+1\t95", "c\tb\t+1\t100")
    with pytest.raises(ValueError,
                       match="^cannot sample 3 never-present pairs: only 0 exist$"):
        evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM, seed=0)


@pytest.mark.parametrize("config", [
    GenConfig(seed=4, n_nodes=150, n_add_events=2000),
    GenConfig(seed=6, n_nodes=12, n_add_events=100, decay_bias="low_degree"),
])
def test_never_present_sample_matches_per_key_loop(config):
    """The chunked array sample keeps the keys of the per-key loop, for the
    need of the default cut and for needs up to every absent pair, where
    the first chunk of draws falls short."""
    tel = generate(config)
    n = tel.node_count
    ever = np.unique(tel.src * np.int64(n) + tel.dst)
    capacity = n * (n - 1) - len(ever)
    _, _, k1, k_end = _cut(tel, 0.75)
    new = len(np.setdiff1d(k_end, k1))
    chunks = []
    for need in sorted({1, new, capacity // 2, min(capacity, 400)}):
        for seed in range(3):
            want, drawn = reference_evaluation.never_present_keys(
                tel.src, tel.dst, n, need, seed)
            got = _absent_keys(ever, n, need, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            chunks.append(drawn)
    if capacity <= 400:
        assert max(chunks) > 1
    # The protocol's own zero-labelled pairs are that sample, at the need
    # of the default cut.
    for seed in range(3):
        result = evaluate_link_prediction(tel, Measure.CN, DegreeCombination.SYM,
                                          seed=seed)
        zeros = result.pairs[~result.positive]
        want, _ = reference_evaluation.never_present_keys(tel.src, tel.dst, n, new, seed)
        assert np.array_equal(np.sort(zeros[:, 0] * n + zeros[:, 1]), want)


# ---- lifetimes and survival ----

def test_result_objects_compare_by_identity_without_raising():
    """``==`` between two distinct streams, splits or lifetime tables with
    array fields is a bool (identity), not numpy's ambiguous-truth error."""
    lines = ("a\tb\t+1\t10", "c\td\t+1\t0", "a\tb\t-1\t80",
             "e\tf\t+1\t100")
    streams = _stream(*lines), _stream(*lines)
    splits = [temporal_split(tel, 0.75, seed=0) for tel in streams]
    lifetimes = [edge_lifetimes(tel) for tel in streams]
    for first, second in (streams, splits, lifetimes):
        assert (first == second) is False
        assert (first != second) is True
        assert (first == first) is True


def test_lifetime_simple_delete():
    tel = _stream("a\tb\t+1\t10", "a\tb\t-1\t80")
    records = edge_lifetimes(tel)
    assert list(records.durations) == [70]
    assert list(records.censored) == [False]


def test_lifetime_censored_at_end():
    tel = _stream("a\tb\t+1\t10", "c\td\t+1\t100")
    records = edge_lifetimes(tel)
    assert sorted(zip(records.durations, records.censored)) == \
        [(0, True), (90, True)]


def test_lifetime_re_add_gives_two_records():
    tel = _stream("a\tb\t+1\t10", "a\tb\t-1\t30", "a\tb\t+1\t50",
                  "a\tb\t-1\t90")
    records = edge_lifetimes(tel)
    assert sorted(records.durations) == [20, 40]
    assert records.n_uncensored == 2


def test_fit_constant_lifetimes():
    fit = fit_exponential_half_life([(5.0, False)] * 8)
    assert fit.half_life == pytest.approx(5.0 * math.log(2.0), rel=1e-12)
    assert fit.lifetimes_used == 8
    assert fit.censored == 0
    assert fit.rate == pytest.approx(1.0 / 5.0, rel=1e-12)


def test_fit_requires_two_uncensored():
    with pytest.raises(ValueError, match="uncensored"):
        fit_exponential_half_life([(5.0, False), (3.0, True)])


def test_fit_refuses_zero_total_lifetime():
    with pytest.raises(ValueError, match="^total observed lifetime is zero; cannot fit a rate$"):
        fit_exponential_half_life([(0.0, False), (0.0, False), (0, True)])


def test_fit_recovers_half_life():
    rng = np.random.default_rng(83)
    half = 23.0
    samples = rng.exponential(half / math.log(2.0), size=20000)
    fit = fit_exponential_half_life([(float(s), False) for s in samples])
    assert abs(fit.half_life - half) / half < 0.05


def test_fit_recovers_under_heavy_censoring():
    rng = np.random.default_rng(89)
    half = 23.0
    scale = half / math.log(2.0)
    samples = rng.exponential(scale, size=30000)
    cutoff = np.quantile(samples, 0.10)  # observe only the shortest 10%
    records = [(float(min(s, cutoff)), bool(s > cutoff)) for s in samples]
    fit = fit_exponential_half_life(records)
    assert abs(fit.half_life - half) / half < 0.10


def test_survival_curve_hand_example():
    curve = survival_curve([(2.0, False), (3.0, True), (4.0, False)])
    assert curve[0] == (0.0, 1.0)
    assert curve[1] == (2.0, pytest.approx(2.0 / 3.0))
    assert curve[2] == (4.0, pytest.approx(0.0))


def test_survival_curve_monotone_nonincreasing():
    rng = np.random.default_rng(97)
    records = [(float(d), bool(c)) for d, c in
               zip(rng.exponential(10.0, size=400), rng.random(400) < 0.3)]
    curve = survival_curve(records)
    values = [v for _, v in curve]
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_survival_curve_crosses_half_near_half_life():
    rng = np.random.default_rng(101)
    half = 23.0
    samples = rng.exponential(half / math.log(2.0), size=50000)
    curve = survival_curve([(float(s), False) for s in samples])
    crossing = next(t for t, v in curve if v <= 0.5)
    assert abs(crossing - half) / half < 0.05


@pytest.mark.parametrize("bad, shown", [
    (-2.0, "-2.0"), (-1e-300, "-1e-300"), (math.nan, "nan"),
    (math.inf, "inf"), (-math.inf, "-inf")])
@pytest.mark.parametrize("fn", [survival_curve, fit_exponential_half_life])
def test_lifetimes_reject_bad_durations(fn, bad, shown):
    """A NaN, infinite or negative duration is refused, naming the first
    bad record, whether given as records or as ``EdgeLifetimes``; ``-0.0``
    and ``0`` are durations."""
    records = [(3.0, False), (0.0, True), (bad, False), (-5.0, False),
               (4.0, False)]
    as_arrays = EdgeLifetimes(np.array([d for d, _ in records]),
                              np.array([c for _, c in records]))
    for given in (records, as_arrays):
        with pytest.raises(ValueError,
                           match=rf"^lifetime 2: duration .* got {shown}$"):
            fn(given)
    fn([(-0.0, False), (0, False), (2, False)])


def test_edge_ages_reflect_current_interval():
    tel = _stream("a\tb\t+1\t10", "c\td\t+1\t0", "a\tb\t-1\t40",
                  "a\tb\t+1\t60", "e\tf\t+1\t100")
    ages = edge_ages(tel, 75)
    assert ages[(0, 1)] == 15.0   # re-added at 60
    assert ages[(2, 3)] == 75.0
    assert (4, 5) not in ages     # added after t


def test_memoryless_age_scorer_is_uninformative():
    """Rank surviving-vs-decayed edges by age on memoryless synthetic data:
    AP must hover at the random baseline."""
    from linkdecay.generate import GenConfig, generate

    tel = generate(GenConfig(seed=5, n_nodes=400, n_add_events=6000))
    aps = []
    for seed in range(5):
        split = temporal_split(tel, 0.75, seed=seed)
        ages = edge_ages(tel, split.t1)
        scored = []
        for label, pairs in (("test", split.test_set),
                             ("zero", split.zero_test_set)):
            for i, j in pairs:
                scored.append(((int(i), int(j)), ages[(int(i), int(j))], label))
        aps.append(average_precision(scored).ap)
    assert 0.45 < float(np.mean(aps)) < 0.55
