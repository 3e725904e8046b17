"""Brute-force complement oracle and closed-form verification."""

import numpy as np
import pytest

from linkdecay import graph, scoring
from linkdecay.datasets import (random_directed_graph, random_reciprocal_graph,
                                swim_surf, swim_surf_events)
from linkdecay.graph import DegreeCombination, Graph
from linkdecay.oracle import (brute_force_g2, check_closed_form,
                              materialize_complement, raw_measure, symmetrize)
from linkdecay.scoring import (Measure, ScoreModel, ScoreSpec,
                               complement_network_score, complement_score,
                               link_prediction_score)

SYM = DegreeCombination.SYM
COMBOS = list(DegreeCombination)
MEASURES = list(Measure)


# ---- materialization ----

def test_fixture_complement_edge_count():
    comp = materialize_complement(swim_surf())
    # 6*5 ordered pairs minus the fixture's 14 directed edges
    assert comp.edge_count == 16


def test_empty_graph_complement_is_complete():
    comp = materialize_complement(Graph.from_edges(3, []))
    assert comp.edge_count == 6


def test_involution_on_random_graphs():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_directed_graph(int(rng.integers(2, 30)),
                                  float(rng.uniform(0.1, 0.5)), rng)
        assert materialize_complement(materialize_complement(g)) == g


def test_complement_degree_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        g = random_directed_graph(n, 0.25, rng)
        comp = materialize_complement(g)
        for v in range(n):
            assert comp.out_degree(v) == n - 1 - g.out_degree(v)
            assert comp.in_degree(v) == n - 1 - g.in_degree(v)


def test_node_limit_refused():
    g = Graph.from_edges(2001, [])
    with pytest.raises(ValueError, match="dense"):
        materialize_complement(g)


def test_symmetrize_adds_reverse_edges():
    g = symmetrize(Graph.from_edges(3, [(0, 1)]))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.edge_count == 2


# ---- brute force values ----

def test_fixture_brute_force_values():
    g = swim_surf()
    ids = swim_surf_events().node_ids
    swim, surf = ids.index("swim"), ids.index("surf")
    assert brute_force_g2(g, swim, surf, Measure.CN, SYM) == 0.0
    assert brute_force_g2(g, swim, surf, Measure.PA, SYM) == 4.0


def test_empty_graph_brute_cn_excludes_endpoints():
    g = Graph.from_edges(4, [])
    assert brute_force_g2(g, 0, 1, Measure.CN, SYM) == 2.0


def test_raw_measure_agrees_with_scoring_bitwise():
    """Two independent implementations of the same raw measures must agree
    exactly, which is what makes the negation duality testable at all."""
    rng = np.random.default_rng(13)
    for _ in range(8):
        g = random_directed_graph(int(rng.integers(4, 25)),
                                  float(rng.uniform(0.1, 0.4)), rng)
        n = g.node_count
        for _ in range(20):
            i, j = rng.choice(n, size=2, replace=False)
            for measure in MEASURES:
                for combo in COMBOS:
                    a = raw_measure(g, int(i), int(j), measure, combo)
                    b = link_prediction_score(g, int(i), int(j), measure, combo)
                    assert a == b, (measure, combo, int(i), int(j))


def test_raw_evaluator_does_not_use_the_kernel(monkeypatch):
    """The oracle checks the batched kernel, so it must not route through it."""
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called the scoring kernel")

    monkeypatch.setattr(graph, "pair_features", refuse)
    monkeypatch.setattr(scoring, "pair_features", refuse)
    monkeypatch.setattr(scoring, "_decay_scores", refuse)
    rng = np.random.default_rng(71)
    g = random_directed_graph(12, 0.3, rng)
    for measure in MEASURES:
        for combo in COMBOS:
            raw_measure(g, 0, 1, measure, combo)
            brute_force_g2(g, 2, 3, measure, combo)


def test_negation_duality_via_oracle():
    rng = np.random.default_rng(19)
    g = random_directed_graph(20, 0.3, rng)
    for i, j in g.edges():
        for measure in MEASURES:
            got = complement_score(g, int(i), int(j), measure, SYM)
            assert got == -raw_measure(g, int(i), int(j), measure, SYM)


def test_cn_identity_with_endpoint_discrepancy():
    """Brute common-neighbor count on the complement equals the closed form
    minus the endpoints that fall outside both selected neighborhoods."""
    rng = np.random.default_rng(29)
    for _ in range(5):
        n = int(rng.integers(5, 20))
        g = random_directed_graph(n, float(rng.uniform(0.15, 0.4)), rng)
        view_base = {True: symmetrize(g), False: g}
        for combo in COMBOS:
            source = view_base[combo is SYM]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    closed = complement_network_score(g, i, j, Measure.CN, combo)
                    brute = brute_force_g2(g, i, j, Measure.CN, combo)
                    s1, s2 = combo.endpoint_sets(source, i, j)
                    outside = {i, j} - set(int(v) for v in s1) - set(int(v) for v in s2)
                    assert brute == closed - len(outside), (combo, i, j)


# ---- report plumbing ----

def test_random_cn_sym_edges_exact():
    rng = np.random.default_rng(43)
    g = random_directed_graph(20, 0.3, rng)
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    report = check_closed_form(g, spec, pairs="edges")
    assert report.max_abs_deviation == 0.0
    assert report.edge_exact
    assert report.pairs_checked == g.edge_count
    assert report.worst_pair is None


def test_random_cn_all_pairs_bounded_by_two():
    rng = np.random.default_rng(44)
    g = random_directed_graph(20, 0.3, rng)
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    report = check_closed_form(g, spec, pairs="all")
    assert report.pairs_checked == 20 * 19
    assert report.max_abs_deviation <= 2.0


def test_empty_graph_cn_deviation_is_exactly_two():
    g = Graph.from_edges(6, [])
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    report = check_closed_form(g, spec, pairs="all")
    # closed form says n, brute force says n - 2 on every pair
    assert report.max_abs_deviation == 2.0
    assert report.worst_pair is not None


def test_pa_exact_on_all_pairs():
    rng = np.random.default_rng(45)
    for combo in COMBOS:
        g = random_directed_graph(15, 0.3, rng)
        spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.PA, combo)
        report = check_closed_form(g, spec, pairs="all")
        assert report.max_abs_deviation == 0.0


def test_jacc_verbatim_deviation_recorded():
    """The published Jaccard denominator uses the original graph, so the
    oracle is expected to disagree somewhere; the report records it."""
    rng = np.random.default_rng(46)
    g = random_reciprocal_graph(14, 0.3, rng)
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.JACC, SYM)
    report = check_closed_form(g, spec, pairs="all")
    assert report.max_abs_deviation > 0.0
    assert isinstance(report.edge_exact, bool)


def test_sampled_mode_bounded_and_deterministic():
    rng = np.random.default_rng(47)
    g = random_directed_graph(60, 0.1, rng)
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    a = check_closed_form(g, spec, pairs="all", max_pairs=300, seed=5)
    b = check_closed_form(g, spec, pairs="all", max_pairs=300, seed=5)
    assert a.pairs_checked == 300
    assert a.max_abs_deviation == b.max_abs_deviation
    assert a.worst_pair == b.worst_pair


def test_score_model_rejected():
    g = swim_surf()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN, SYM)
    with pytest.raises(ValueError, match="network"):
        check_closed_form(g, spec)


def test_report_as_dict_keys():
    g = swim_surf()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    d = check_closed_form(g, spec).as_dict()
    assert list(d) == ["model", "measure", "combo", "adad-complement-weights",
                       "pairs_checked", "max_abs_deviation", "worst_pair",
                       "edge_exact"]
    assert d["max_abs_deviation"] == "0"
