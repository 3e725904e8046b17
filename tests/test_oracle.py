"""Brute-force complement oracle and closed-form verification."""

import struct

import numpy as np
import pytest

from linkdecay import graph, scoring
from linkdecay.datasets import (random_directed_graph, random_reciprocal_graph,
                                swim_surf, swim_surf_events)
from linkdecay.graph import DegreeCombination, Graph
from linkdecay.oracle import (_RawEvaluator, brute_force_g2, check_closed_form,
                              materialize_complement, raw_measure, symmetrize)
from linkdecay.scoring import (Measure, ScoreModel, ScoreSpec, all_specs,
                               complement_network_score, complement_score,
                               link_prediction_score, score_matrix)

SYM = DegreeCombination.SYM
COMBOS = list(DegreeCombination)
MEASURES = list(Measure)
NETWORK_SPECS = [s for s in all_specs() if s.model is ScoreModel.COMPLEMENT_NETWORK]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


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


def _low_degree_graph(rng, n):
    """Random digraph whose last five nodes have out-degree 1, out-degree 0,
    in-degree 1, in-degree 0 and degree 0; the first four are common
    neighbors of several pairs, so their adad weights take the 0.0 branch."""
    mask = rng.random((n, n)) < 0.3
    mask[n - 1, :] = False
    mask[n - 1, 0] = True
    mask[n - 2, :] = False
    mask[:4, n - 1] = mask[:4, n - 2] = True
    mask[:, n - 3] = False
    mask[1, n - 3] = True
    mask[:, n - 4] = False
    mask[n - 3, :4] = mask[n - 4, :4] = True
    mask[n - 5, :] = mask[:, n - 5] = False
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return Graph(n, src.astype(np.int64), dst.astype(np.int64))


def test_shared_evaluator_matches_fresh_calls_bitwise():
    """One evaluator serves a whole check, so its per-node tables are reused
    across pairs; interleaving every measure and combination on each pair
    also reuses them across combinations.  Each score must keep the bits of
    a fresh evaluator's."""
    rng = np.random.default_rng(83)
    for _ in range(3):
        g = _low_degree_graph(rng, int(rng.integers(9, 14)))
        n = g.node_count
        assert {g.out_degree(n - 1), g.out_degree(n - 2)} == {0, 1}
        assert {g.in_degree(n - 3), g.in_degree(n - 4)} == {0, 1}
        evaluator = _RawEvaluator(g)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for measure in MEASURES:
                    for combo in COMBOS:
                        shared = evaluator.score(i, j, measure, combo)
                        fresh = raw_measure(g, i, j, measure, combo)
                        assert _bits(shared) == _bits(fresh), (measure, combo, i, j)
        for combo in (DegreeCombination.OUT, DegreeCombination.IN):
            assert 0.0 in evaluator._weights[combo].values(), combo


def test_oracle_rejects_bad_pairs():
    g = random_directed_graph(5, 0.4, np.random.default_rng(3))
    for oracle_fn in (raw_measure, brute_force_g2):
        for measure in MEASURES:
            for combo in COMBOS:
                with pytest.raises(ValueError, match=r"distinct endpoints, got \(2, 2\)"):
                    oracle_fn(g, 2, 2, measure, combo)
                with pytest.raises(IndexError, match=r"unknown node 5 \(graph has 5 nodes\)"):
                    oracle_fn(g, 0, 5, measure, combo)
                with pytest.raises(IndexError, match="unknown node -1 "):
                    oracle_fn(g, -1, 0, measure, combo)
        # the measure is parsed before the pair is checked
        with pytest.raises(ValueError, match="not a valid Measure"):
            oracle_fn(g, 0, 5, "nope", SYM)


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


def _per_pair_report(g, spec, pairs):
    """A check's report recomputed pair by pair, with a fresh ``raw_measure``
    on the complement view and ``g.has_edge`` for every candidate; also
    whether each deviating candidate is an edge, in candidate order."""
    n = g.node_count
    cand = (g.edges().tolist() if pairs == "edges"
            else [[i, j] for i in range(n) for j in range(n) if i != j])
    view = materialize_complement(symmetrize(g) if spec.combo is SYM else g)
    closed = score_matrix(g, np.array(cand, dtype=np.int64).reshape(-1, 2), [spec])[0]
    max_dev, worst, deviating = 0.0, None, []
    for (i, j), c in zip(cand, closed.tolist()):
        dev = abs(c - raw_measure(view, i, j, spec.measure, spec.combo))
        if dev > max_dev:
            max_dev, worst = dev, (i, j)
        if dev != 0.0:
            deviating.append(g.has_edge(i, j))
    return (len(cand), _bits(max_dev), worst, not any(deviating)), deviating


def test_report_matches_per_pair_recomputation():
    rng = np.random.default_rng(91)
    graphs = {"directed": random_directed_graph(14, 0.3, rng),
              "reciprocal": random_reciprocal_graph(14, 0.3, rng),
              "empty": Graph.from_edges(6, []),
              "one node": Graph.from_edges(1, [])}
    seen = set()
    for name, g in graphs.items():
        for spec in NETWORK_SPECS:
            for pairs in ("edges", "all"):
                r = check_closed_form(g, spec, pairs=pairs)
                got = (r.pairs_checked, _bits(r.max_abs_deviation), r.worst_pair,
                       r.edge_exact)
                expect, deviating = _per_pair_report(g, spec, pairs)
                assert got == expect, (name, str(spec), pairs)
                if pairs == "all" and deviating:
                    seen.add((name, deviating[0], any(deviating)))
    # a non-edge deviates before the first deviating edge
    assert ("directed", False, True) in seen
    # non-edges deviate and no edge does
    assert ("reciprocal", False, False) in seen
    assert ("empty", False, False) in seen


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
