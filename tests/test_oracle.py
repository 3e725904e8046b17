"""Brute-force complement oracle and closed-form verification."""

import hashlib
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import reference_oracle as reference
from linkdecay import graph, oracle, scoring
from linkdecay.datasets import (random_directed_graph, random_reciprocal_graph,
                                swim_surf, swim_surf_events)
from linkdecay.graph import DegreeCombination, Graph
from linkdecay.oracle import (_raw_scores, brute_force_g2, check_closed_form,
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


def _same_csrs(a: Graph, b: Graph) -> bool:
    return a.node_count == b.node_count and all(
        np.array_equal(x, y) for direction in ("out", "in", "both")
        for x, y in zip(a._csr(direction), b._csr(direction)))


def test_symmetrize_matches_dense_construction():
    """The closure read off the both-rows equals ``A | A.T`` read off a
    dense matrix and the closure of the edge list in both directions, in
    all three CSRs, reciprocated edges included; its out-rows are the
    both-rows."""
    rng = np.random.default_rng(5)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, []),
              Graph.from_edges(4, []), random_reciprocal_graph(12, 0.3, rng)]
    graphs += [random_directed_graph(int(rng.integers(0, 40)),
                                     float(rng.uniform(0.0, 0.6)), rng)
               for _ in range(60)]
    for g in graphs:
        sym = symmetrize(g)
        n, edges = g.node_count, g.edges()
        keys = np.unique(np.concatenate((edges[:, 0] * n + edges[:, 1],
                                         edges[:, 1] * n + edges[:, 0])))
        assert _same_csrs(sym, Graph(n, *np.divmod(keys, n), validate=False))
        a = oracle._dense(g)
        src, dst = np.nonzero(a | a.T)
        assert _same_csrs(sym, Graph(n, src, dst))
        for v in range(n):
            assert np.array_equal(sym.out_neighbors(v), g.all_neighbors(v))


def test_node_limit_checked_before_any_dense_matrix(monkeypatch):
    """Beyond the node limit every combination, SYM included, is refused
    before an n x n matrix is built."""
    def refuse(g):
        raise AssertionError("built a dense matrix")

    monkeypatch.setattr(oracle, "_dense", refuse)
    big = Graph.from_edges(2001, [])
    assert symmetrize(big) == big
    for combo in COMBOS:
        spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, combo)
        for pairs in ("edges", "all"):
            with pytest.raises(ValueError, match="dense"):
                check_closed_form(big, spec, pairs=pairs)
        with pytest.raises(ValueError, match="dense"):
            brute_force_g2(big, 0, 1, Measure.CN, combo)


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
    """The batch evaluator scores a check's pairs together, from membership
    rows; every score must keep the bits of the per-pair set arithmetic it
    replaced (``reference_oracle``), both in one batch of every ordered pair
    and in the batches of one that ``raw_measure`` scores.  The same graph
    as nodes 4000 and up of a 5000-node graph gives its pairs the same
    scores from columns for their own nodes only."""
    rng = np.random.default_rng(83)
    for _ in range(3):
        g = _low_degree_graph(rng, int(rng.integers(9, 14)))
        n = g.node_count
        assert {g.out_degree(n - 1), g.out_degree(n - 2)} == {0, 1}
        assert {g.in_degree(n - 3), g.in_degree(n - 4)} == {0, 1}
        assert g.neighbor_count(n - 5) == 0
        edges = g.edges()
        big = Graph(5000, edges[:, 0] + 4000, edges[:, 1] + 4000)
        pairs = np.array([(i, j) for i in range(n) for j in range(n) if i != j])
        evaluator = reference._RawEvaluator(g)
        for measure in MEASURES:
            for combo in COMBOS:
                batch = _raw_scores(g, pairs, measure, combo).tolist()
                for (i, j), got in zip(pairs.tolist(), batch):
                    expect = _bits(evaluator.score(i, j, measure, combo))
                    assert _bits(got) == expect, (measure, combo, i, j)
                    one = raw_measure(g, i, j, measure, combo)
                    assert _bits(one) == expect, (measure, combo, i, j)
                    one = raw_measure(big, i + 4000, j + 4000, measure, combo)
                    assert _bits(one) == expect, (measure, combo, i, j)
        # the reference met common neighbours of weight degree 0 and 1
        for combo in (DegreeCombination.OUT, DegreeCombination.IN):
            assert 0.0 in evaluator._weights[combo].values(), combo


def test_complement_matrix_rows_match_csr_rows_bitwise():
    """Checks read their rows off the boolean complement matrix; the scores
    must keep the bits of CSR rows of the materialized view and of the
    per-pair reference, on views with nodes of out- and in-degree 0 and 1
    (the input is the complement of such a graph), so that adad's
    ``d <= 1`` weight fires on the complement."""
    rng = np.random.default_rng(89)
    for _ in range(3):
        low = _low_degree_graph(rng, int(rng.integers(9, 14)))
        g = materialize_complement(low)
        n = g.node_count
        pairs = np.array([(i, j) for i in range(n) for j in range(n) if i != j])
        for combo in COMBOS:
            comp = oracle._complement_matrix(g, combo is SYM)
            view = materialize_complement(symmetrize(g) if combo is SYM else g)
            assert view == low or combo is SYM
            evaluator = reference._RawEvaluator(view)
            for measure in MEASURES:
                dense = oracle._complement_scores(comp, pairs, measure, combo)
                csr = _raw_scores(view, pairs, measure, combo)
                assert dense.tobytes() == csr.tobytes(), (measure, combo)
                for (i, j), got in zip(pairs.tolist(), dense.tolist()):
                    expect = _bits(evaluator.score(i, j, measure, combo))
                    assert _bits(got) == expect, (measure, combo, i, j)
            if combo in (DegreeCombination.OUT, DegreeCombination.IN):
                assert 0.0 in evaluator._weights[combo].values(), combo
    # an edgeless graph has no candidates in 'edges' mode
    g = Graph.from_edges(7, [])
    none, view = g.edges(), materialize_complement(g)
    for combo in COMBOS:
        comp = oracle._complement_matrix(g, combo is SYM)
        for measure in MEASURES:
            dense = oracle._complement_scores(comp, none, measure, combo)
            assert dense.shape == (0,)
            assert dense.tobytes() == _raw_scores(view, none, measure, combo).tobytes()


@pytest.mark.parametrize("seed, digest", [
    (0, "fe694b1f69e3b72e683812139a7502fe91523fe55ebaa1c6c9b34f0a6fcf907a"),
    (1, "e1adff0561c6a06e5c7ecdb2f7c147d7431ceebb3c13084f5ea0eb2432de1667"),
    (2, "8a1c1cc2831585bc2a8044588459bfcf2b033a9a0091e20cdf295db779b126f4"),
])
def test_oracle_verify_report_digests(seed, digest):
    """The 20 network-spec reports of a sampled 'all' check on a 400-node
    digraph keep their pinned bytes."""
    g = random_directed_graph(400, 0.05, np.random.default_rng(seed))
    rows = [check_closed_form(g, spec, pairs="all", max_pairs=2000,
                              seed=seed).as_dict() for spec in NETWORK_SPECS]
    got = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert got == digest


def test_block_boundaries_keep_the_bits(monkeypatch):
    """Blocks of a few pairs, with a ragged last block, give the same
    scores and reports as the default block size."""
    rng = np.random.default_rng(97)
    g = random_directed_graph(60, 0.1, rng)
    views = {combo: materialize_complement(symmetrize(g) if combo is SYM else g)
             for combo in COMBOS}
    sample = oracle._candidate_pairs(g, "all", 301, 4)

    def run():
        reports = [check_closed_form(g, spec, pairs=pairs, max_pairs=301, seed=4)
                   for spec in NETWORK_SPECS for pairs in ("edges", "all")]
        scores = [_raw_scores(views[combo], sample, measure, combo).tobytes()
                  for measure in MEASURES for combo in COMBOS]
        return [(r.pairs_checked, _bits(r.max_abs_deviation), r.worst_pair,
                 r.edge_exact) for r in reports], scores

    default = run()
    assert oracle.BLOCK_CELLS // g.node_count >= len(sample)
    monkeypatch.setattr(oracle, "BLOCK_CELLS", 300)
    assert run() == default


@pytest.mark.parametrize("n", [5, 50, 51, 400, 2000, 3 * 2**30, 2**31 + 1,
                               2**33 + 1])
def test_chunked_draw_matches_per_call_loop(n):
    """The candidate set of 'all' mode equals the one-call-per-pair loop it
    replaced.  Up to 50 nodes, and for 51 nodes with 2550 pairs, it is the
    grid of every ordered pair; otherwise a chunked sample.  Lemire's
    bounded draw rejects a quarter of its draws for n = 3 * 2**30 and
    nearly half for 2**31 + 1, and almost none for the other n; n above
    2**32 takes two 64-bit words per pair."""
    stand_in = SimpleNamespace(node_count=n)
    sizes = (1, 2000, 2550) if n == 51 else (1, 300)
    for seed in range(20):
        for max_pairs in sizes:
            got = oracle._candidate_pairs(stand_in, "all", max_pairs, seed)
            expect = reference._candidate_pairs(stand_in, "all", max_pairs, seed)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert np.array_equal(got, expect), (n, seed, max_pairs)


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


def test_bad_pairs_arguments_rejected_before_materializing():
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    g = random_directed_graph(60, 0.1, np.random.default_rng(48))
    for max_pairs in (0, -3):
        with pytest.raises(ValueError, match="max_pairs must be at least 1, got"):
            check_closed_form(g, spec, pairs="all", max_pairs=max_pairs)
    # 'edges' mode takes no sample
    report = check_closed_form(g, spec, pairs="edges", max_pairs=0)
    assert report.pairs_checked == g.edge_count
    # beyond the node limit the arguments are still what is reported
    big = Graph.from_edges(2001, [])
    with pytest.raises(ValueError, match="pairs must be 'edges' or 'all', got 'some'"):
        check_closed_form(big, spec, pairs="some")
    with pytest.raises(ValueError, match="max_pairs must be at least 1, got 0"):
        check_closed_form(big, spec, pairs="all", max_pairs=0)


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
