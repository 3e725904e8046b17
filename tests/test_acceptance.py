"""Acceptance suite: one test per headline requirement.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion; add ``-s`` to also see the measured numbers.  Whole-suite
runtime is dominated by the ten planted-signal streams (criteria 06/07)
and stays around a minute.
"""

import hashlib
import io
import struct
import time
import warnings

import numpy as np
import pytest

from linkdecay.cli import main as cli_main
from linkdecay.datasets import random_directed_graph, random_reciprocal_graph
from linkdecay.evaluation import (
    EvaluationSplit,
    average_precision,
    edge_ages,
    edge_lifetimes,
    evaluate,
    evaluate_link_prediction,
    fit_exponential_half_life,
    random_baseline,
    sweep,
    temporal_split,
)
from linkdecay.generate import GenConfig, deletion_share, generate
from linkdecay.oracle import check_closed_form, materialize_complement, raw_measure
from linkdecay.scoring import (
    DegreeCombination,
    Measure,
    ScoreModel,
    ScoreSpec,
    complement_score,
    link_prediction_score,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _corpus():
    """100 seeded reciprocal digraphs, n=30, density swept over 0.1-0.3."""
    for k in range(100):
        rng = np.random.default_rng(k)
        yield k, random_reciprocal_graph(30, 0.1 + 0.2 * k / 99, rng)


@pytest.fixture(scope="module")
def planted_suite():
    """Ten biased streams shared by the detection and ordering criteria."""
    suite = []
    for s in range(10):
        t0 = time.perf_counter()
        tel = generate(GenConfig(seed=s, n_nodes=5000, n_add_events=40000,
                                 decay_bias="low_degree"))
        gen_seconds = time.perf_counter() - t0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = temporal_split(tel, seed=s)
        suite.append({"seed": s, "tel": tel, "split": split,
                      "gen_seconds": gen_seconds})
    return suite


def test_criterion_01_closed_forms_match_brute_force():
    t0 = time.perf_counter()
    worst_all = 0.0
    for k, g in _corpus():
        for combo in DegreeCombination:
            for measure in (Measure.CN, Measure.PA):
                spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, measure, combo)
                report = check_closed_form(g, spec, pairs="edges")
                assert report.max_abs_deviation == 0.0, (k, str(spec), report)
                assert report.edge_exact
            spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, combo)
            report = check_closed_form(g, spec, pairs="all")
            assert report.max_abs_deviation <= 2.0, (k, str(spec), report)
            worst_all = max(worst_all, report.max_abs_deviation)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\ncriterion 01 PASS: edges exact, all-pairs CN deviation "
          f"<= {worst_all:g}, {elapsed:.1f}s")


def test_criterion_02_complement_involution_and_degree_identity():
    for k, g in _corpus():
        comp = materialize_complement(g)
        assert materialize_complement(comp) == g, k
        n = g.node_count
        assert np.array_equal(comp.out_degrees, (n - 1) - g.out_degrees), k
        assert np.array_equal(comp.in_degrees, (n - 1) - g.in_degrees), k
    print("\ncriterion 02 PASS: involution and degree identity exact "
          "on 100 graphs")


def test_criterion_03_negation_duality_on_random_edges():
    combos = list(DegreeCombination)
    checked = 0
    gi = 0
    while checked < 10_000:
        rng = np.random.default_rng(1000 + gi)
        g = random_directed_graph(40, float(rng.uniform(0.05, 0.4)), rng)
        edges = g.edges()
        gi += 1
        if len(edges) == 0:
            continue
        take = rng.choice(len(edges), size=min(len(edges), 400), replace=False)
        for i, j in edges[take]:
            combo = combos[checked % 4]
            for measure in Measure:
                raw = link_prediction_score(g, int(i), int(j), measure, combo)
                neg = complement_score(g, int(i), int(j), measure, combo)
                assert neg == -raw, (gi, int(i), int(j), measure, combo)
                # link_prediction_score is -complement_score by construction;
                # the oracle's set arithmetic is the independent check
                oracle = -raw_measure(g, int(i), int(j), measure, combo)
                assert _bits(neg) == _bits(oracle), (gi, int(i), int(j), measure, combo)
            checked += 1
            if checked >= 10_000:
                break
    print(f"\ncriterion 03 PASS: score = -measure = -oracle bitwise on {checked} edges "
          f"x 5 measures ({gi} graphs)")


def test_criterion_04_ap_worked_examples_and_invariance():
    perfect = [((0, 1), 3.0, "test"), ((2, 3), 2.0, "zero"),
               ((4, 5), 1.0, "zero")]
    inverted = [((0, 1), 3.0, "zero"), ((2, 3), 2.0, "zero"),
                ((4, 5), 1.0, "test")]
    mixed = [((0, 1), 3.0, "test"), ((2, 3), 2.0, "zero"),
             ((4, 5), 1.0, "test")]
    assert abs(average_precision(perfect).ap - 1.0) < 1e-12
    assert abs(average_precision(inverted).ap - 1.0 / 3.0) < 1e-12
    assert abs(average_precision(mixed).ap - 5.0 / 6.0) < 1e-12

    for s in range(100):
        rng = np.random.default_rng(5000 + s)
        k = int(rng.integers(4, 40))
        scores = rng.random(k)
        labels = ["test" if rng.random() < 0.4 else "zero" for _ in range(k)]
        if "test" not in labels:
            labels[0] = "test"
        base = [((i, i + 1000), float(scores[i]), labels[i]) for i in range(k)]
        warped = [(pair, float(np.exp(4.0 * s_)), lab) for pair, s_, lab in base]
        assert average_precision(base).ap == average_precision(warped).ap, s
    print("\ncriterion 04 PASS: worked examples to 1e-12; monotone-transform "
          "invariant on 100 rankings")


def test_criterion_05_random_baseline_near_half():
    test = np.column_stack((np.arange(1000), np.full(1000, 2000)))
    zero = np.column_stack((np.arange(1000, 2000), np.full(1000, 2001)))
    split = EvaluationSplit(t1=0.0, t_end=1,
                            training_edges=np.empty((0, 2), np.int64),
                            test_set=test.astype(np.int64),
                            zero_test_set=zero.astype(np.int64), seed=0)
    aps = np.array([random_baseline(split, seed=s).ap for s in range(100)])
    mean = float(aps.mean())
    assert 0.48 <= mean <= 0.52, mean
    print(f"\ncriterion 05 PASS: mean random AP {mean:.4f} over 100 seeds")


def test_criterion_06_planted_signal_detected(planted_suite):
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.PA,
                     DegreeCombination.OUT)
    aps, baselines, per_run = [], [], []
    for entry in planted_suite:
        t0 = time.perf_counter()
        result = evaluate(entry["tel"], spec, entry["split"])
        per_run.append(entry["gen_seconds"] + time.perf_counter() - t0)
        aps.append(result.ap)
        baselines.append(random_baseline(entry["split"],
                                         seed=entry["seed"]).ap)
    mean_ap = float(np.mean(aps))
    margin = mean_ap - float(np.mean(baselines))
    slowest = max(per_run)
    assert mean_ap >= 0.60, f"mean AP {mean_ap:.4f}"
    assert margin >= 0.08, f"margin over random {margin:.4f}"
    assert slowest < 60.0, f"slowest run {slowest:.1f}s"
    print(f"\ncriterion 06 PASS: mean AP {mean_ap:.4f} "
          f"(min {min(aps):.4f}), margin {margin:.4f}, "
          f"slowest run {slowest:.1f}s")


def test_criterion_07_decay_harder_than_creation(planted_suite):
    decay_spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN,
                           DegreeCombination.SYM)
    wins = 0
    gaps = []
    for entry in planted_suite:
        creation = evaluate_link_prediction(
            entry["tel"], Measure.CN, DegreeCombination.SYM,
            seed=entry["seed"]).ap
        decay = evaluate(entry["tel"], decay_spec, entry["split"]).ap
        wins += creation > decay
        gaps.append(creation - decay)
    assert wins >= 8, f"creation beat decay in only {wins}/10 seeds"
    print(f"\ncriterion 07 PASS: creation CN > decay CN in {wins}/10 seeds "
          f"(mean gap {np.mean(gaps):+.4f})")


#: SHA-256 of the 80 ``<d`` AP bits of the seed-0 planted stream's 40-spec
#: sweep, lexicographic rows first, then expected.
PLANTED_SWEEP_SHA256 = \
    "88af97cddb9782b852647bf4d64f5605fb01996efecc419956df00a91553c83d"


#: SHA-256 of the canonical event file of each planted stream, by seed.
#: Seed 0's is the planted-sweep workload's ``events`` pin in perfbench.
PLANTED_STREAM_SHA256 = [
    "29f9f5d7c374c6ad58a2e694247cb4b686076833e02468a07cbc01c8b5bc4354",
    "7e2f07ab8f81fa75bda62fa8506099f9a9ae9ba1e8fe31341f34be3b99818193",
    "1d69cfabe81f31328be4e3effbdd74a2b3e4843f924b8b348e542745af4c651c",
    "2ce67e76821a16f65e40f8f368b9a735c8f6d669db5dcb50bcd0e0f2a35608e9",
    "dcb2533db231e3e8b7e2779014a9499f9f5ba0c69e1394f1a038e610469a4d5e",
    "6cdb05707035bf25e4f589a6e4301bde7e061b7e7b039a5acfefdda347a826d0",
    "b89877551fb2be63dd5681af639bfc0eac61503f173139cdcb8b8cd0dd5fa1f0",
    "337cc26435f95fecd2afea7d18e9032618e3fb8e5db8fd98c1b9ac75785665ff",
    "9dc72278881b13715c4b0bc9680ce0358dc26f4a4640a711962141c028ed445b",
    "65d73172cbc64cf1fb3d6b890de080ab8a9143d5697da0fdc0ee5e6d1dc29121",
]


def test_planted_streams_are_pinned(planted_suite):
    for entry in planted_suite:
        buffer = io.StringIO()
        entry["tel"].write(buffer)
        digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
        assert digest == PLANTED_STREAM_SHA256[entry["seed"]], entry["seed"]


def test_planted_sweep_ap_bits_are_pinned(planted_suite):
    entry = planted_suite[0]
    assert entry["seed"] == 0
    digest = hashlib.sha256()
    for tie_break in ("lexicographic", "expected"):
        aps = sweep(entry["tel"], entry["split"], tie_break)
        assert len(aps) == 40
        digest.update(b"".join(map(_bits, aps)))
    assert digest.hexdigest() == PLANTED_SWEEP_SHA256

def test_criterion_08_half_life_recovery_and_memorylessness():
    tel = generate(GenConfig(seed=0, n_nodes=1000, n_add_events=100_000))
    lifetimes = edge_lifetimes(tel)
    assert len(lifetimes) == 100_000
    fit = fit_exponential_half_life(lifetimes)
    rel_err = (fit.half_life - 23.0) / 23.0
    assert abs(rel_err) <= 0.05, f"half-life {fit.half_life:.3f}"

    aps = []
    for s in range(10):
        split = temporal_split(tel, seed=s)
        ages = edge_ages(tel, split.t1)
        items = [((int(i), int(j)), ages[(int(i), int(j))], label)
                 for arr, label in ((split.test_set, "test"),
                                    (split.zero_test_set, "zero"))
                 for i, j in arr]
        aps.append(average_precision(items).ap)
    mean_age_ap = float(np.mean(aps))
    assert 0.48 <= mean_age_ap <= 0.52, mean_age_ap
    print(f"\ncriterion 08 PASS: half-life {fit.half_life:.3f} "
          f"({rel_err:+.2%} of 23), age-scorer AP {mean_age_ap:.4f}")


def test_criterion_09_deletion_share_in_range():
    shares = []
    for s in range(3):
        tel = generate(GenConfig(seed=s))
        shares.append(deletion_share(tel))
    assert all(0.24 <= share <= 0.31 for share in shares), shares
    print("\ncriterion 09 PASS: deletion shares "
          + ", ".join(f"{share:.4f}" for share in shares))


def test_criterion_10_sweep_rerun_is_byte_identical(tmp_path, capsys):
    events = tmp_path / "events.tsv"
    generate(GenConfig(seed=3, n_nodes=200, n_add_events=3000)).write(str(events))
    out = tmp_path / "sweep.tsv"
    assert cli_main(["sweep", "--input", str(events), "--seed", "11",
                     "--output", str(out)]) == 0
    first = out.read_bytes()
    first_manifest = (tmp_path / "sweep.tsv.manifest").read_bytes()
    out.unlink()
    assert cli_main(["sweep", "--config", str(out) + ".manifest"]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "sweep.tsv.manifest").read_bytes() == first_manifest
    print("\ncriterion 10 PASS: sweep re-run from manifest byte-identical "
          "(40 rows)")
