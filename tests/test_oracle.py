"""Brute-force complement oracle and closed-form verification."""

import hashlib
import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_oracle as reference
from linkdecay import graph, oracle, scoring
from linkdecay.datasets import (random_directed_graph, random_reciprocal_graph,
                                swim_surf, swim_surf_events)
from linkdecay.graph import DegreeCombination, Graph
from linkdecay.oracle import (brute_force_g2, check_closed_form,
                              materialize_complement, raw_measure, symmetrize)
from linkdecay.scoring import (Measure, ScoreModel, ScoreSpec, all_specs,
                               complement_network_score, complement_score,
                               link_prediction_score, score_matrix)
from reference_scoring import _slot_sets

SYM = DegreeCombination.SYM
COMBOS = list(DegreeCombination)
MEASURES = list(Measure)
NETWORK_SPECS = [s for s in all_specs() if s.model is ScoreModel.COMPLEMENT_NETWORK]
RAW_MEASURE_GRID_SHA256 = (
    "993a2f1a7bb9573423504e96e2d2aa3b53ec956feb3270ab965caaadc7f89efc")


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
            assert comp.degree(v, "out") == n - 1 - g.degree(v, "out")
            assert comp.degree(v, "in") == n - 1 - g.degree(v, "in")


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
        assert _same_csrs(sym, Graph(n, *np.divmod(keys, n)))
        a = oracle._dense(g)
        src, dst = np.nonzero(a | a.T)
        assert _same_csrs(sym, Graph(n, src, dst))
        for v in range(n):
            assert np.array_equal(sym.neighbors(v, "out"), g.neighbors(v))


def test_node_limit_checked_before_any_dense_matrix(monkeypatch):
    """Beyond the node limit every combination, SYM included, is refused
    before an n x n matrix is built.  ``brute_force_g2`` also rejects a bad
    combination, node count, measure or pair, in that order, before it."""
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
    g = random_directed_graph(5, 0.4, np.random.default_rng(3))
    for h, i, j, measure, combo, error, message in [
            (g, 2, 2, "nope", "bogus", ValueError, "unknown combo 'bogus'"),
            (big, 2, 2, "nope", SYM, ValueError, "dense"),
            (g, 2, 2, "nope", SYM, ValueError, "unknown measure 'nope'"),
            (g, 2, 2, Measure.CN, SYM, ValueError, "distinct endpoints"),
            (g, 0, 5, Measure.CN, SYM, IndexError, "unknown node 5")]:
        with pytest.raises(error, match=message):
            brute_force_g2(h, i, j, measure, combo)


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
    monkeypatch.setattr(graph, "_pair_features", refuse)
    monkeypatch.setattr(scoring, "pair_features", refuse)
    monkeypatch.setattr(scoring, "_pair_features", refuse)
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
    """``raw_measure`` scores a pair from membership rows; every score must
    keep the bits of the per-pair set arithmetic it replaced
    (``reference_oracle``).  The same graph as nodes 4000 and up of a
    5000-node graph gives its pairs the same scores from columns for their
    own nodes only."""
    rng = np.random.default_rng(83)
    for _ in range(3):
        g = _low_degree_graph(rng, int(rng.integers(9, 14)))
        n = g.node_count
        assert {g.degree(n - 1, "out"), g.degree(n - 2, "out")} == {0, 1}
        assert {g.degree(n - 3, "in"), g.degree(n - 4, "in")} == {0, 1}
        assert len(g.neighbors(n - 5)) == 0
        edges = g.edges()
        big = Graph(5000, edges[:, 0] + 4000, edges[:, 1] + 4000)
        pairs = np.array([(i, j) for i in range(n) for j in range(n) if i != j])
        evaluator = reference._RawEvaluator(g)
        for measure in MEASURES:
            for combo in COMBOS:
                for i, j in pairs.tolist():
                    expect = _bits(evaluator.score(i, j, measure, combo))
                    one = raw_measure(g, i, j, measure, combo)
                    assert _bits(one) == expect, (measure, combo, i, j)
                    one = raw_measure(big, i + 4000, j + 4000, measure, combo)
                    assert _bits(one) == expect, (measure, combo, i, j)
        # the reference met common neighbours of weight degree 0 and 1
        for combo in (DegreeCombination.OUT, DegreeCombination.IN):
            assert 0.0 in evaluator._weights[combo].values(), combo


def _raw_measure_grid():
    """Graphs and pairs of the ``raw_measure`` pin: every ordered pair of
    two low-degree graphs, and the same pairs with each graph as nodes 4000
    and up of a 5000-node graph whose node 0 points to 103 nodes, four of
    them in the small graph, and is pointed to by 100.  Pairs with node 0
    hold ``n / 64`` entries or more on the large graph, and pairs of
    edgeless slots fewer on the small ones, so both ``_columns`` branches
    are taken on both sizes."""
    rng = np.random.default_rng(101)
    for _ in range(2):
        g = _low_degree_graph(rng, int(rng.integers(8, 13)))
        n = g.node_count
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        yield g, pairs
        edges = g.edges() + 4000
        hub_out = np.r_[1:100, 4000:4004]
        hub_in = np.arange(100, 200)
        big = Graph(5000,
                    np.concatenate([edges[:, 0], np.zeros(len(hub_out), np.int64),
                                    hub_in]),
                    np.concatenate([edges[:, 1], hub_out,
                                    np.zeros(len(hub_in), np.int64)]))
        yield big, ([(i + 4000, j + 4000) for i, j in pairs]
                    + [(0, 4000 + k) for k in range(n)]
                    + [(4000 + k, 0) for k in range(n)])


def test_raw_measure_grid_is_pinned():
    """``raw_measure`` keeps the bits of every measure and combination on
    the pin grid: 9000 scores."""
    digest, calls = hashlib.sha256(), 0
    for g, pairs in _raw_measure_grid():
        for i, j in pairs:
            for measure in MEASURES:
                for combo in COMBOS:
                    digest.update(_bits(raw_measure(g, i, j, measure, combo)))
                    calls += 1
    assert calls == 9000
    assert digest.hexdigest() == RAW_MEASURE_GRID_SHA256


def test_complement_matrix_rows_match_csr_rows_bitwise():
    """Checks read their rows off the boolean complement matrix; the scores
    must keep the bits of ``raw_measure`` on the materialized view and of
    the per-pair reference, on views with nodes of out- and in-degree 0 and 1
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
                csr = np.array([raw_measure(view, i, j, measure, combo)
                                for i, j in pairs.tolist()])
                assert dense.tobytes() == csr.tobytes(), (measure, combo)
                for (i, j), got in zip(pairs.tolist(), dense.tolist()):
                    expect = _bits(evaluator.score(i, j, measure, combo))
                    assert _bits(got) == expect, (measure, combo, i, j)
            if combo in (DegreeCombination.OUT, DegreeCombination.IN):
                assert 0.0 in evaluator._weights[combo].values(), combo
    # an edgeless graph has no candidates in 'edges' mode
    g = Graph.from_edges(7, [])
    for combo in COMBOS:
        comp = oracle._complement_matrix(g, combo is SYM)
        for measure in MEASURES:
            dense = oracle._complement_scores(comp, g.edges(), measure, combo)
            assert dense.shape == (0,) and dense.dtype == np.float64


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
    comps = {combo: oracle._complement_matrix(g, combo is SYM) for combo in COMBOS}
    sample = oracle._candidate_pairs(g, "all", 301, 4)

    def run():
        reports = [check_closed_form(g, spec, pairs=pairs, max_pairs=301, seed=4)
                   for spec in NETWORK_SPECS for pairs in ("edges", "all")]
        scores = [oracle._complement_scores(comps[combo], sample, measure,
                                            combo).tobytes()
                  for measure in MEASURES for combo in COMBOS]
        return [(r.pairs_checked, _bits(r.max_abs_deviation), r.worst_pair,
                 r.edge_exact) for r in reports], scores

    default = run()
    assert oracle.BLOCK_CELLS // g.node_count >= len(sample)
    monkeypatch.setattr(oracle, "BLOCK_CELLS", 300)
    assert run() == default


def _parent_block_scores(cols, rows1, rows2, weight_degrees, measure):
    """The block kernel as it was with ``.sum(axis=1)`` row counts and a
    cumsum of the adad weights; the bits every change must keep."""
    if measure is Measure.PA:
        return (rows1.sum(axis=1) * rows2.sum(axis=1)).astype(np.float64)
    common = rows1 & rows2
    cn = common.sum(axis=1)
    if measure is Measure.CN:
        return cn.astype(np.float64)
    if measure is Measure.ADAD:
        ks = np.flatnonzero(common.any(axis=0))
        if len(ks) == 0:
            return np.zeros(len(common))
        dk = weight_degrees(cols[ks])
        w = np.array([0.0 if d <= 1 else 1.0 / math.log(d) for d in dk.tolist()])
        return np.cumsum(np.where(common[:, ks], w, 0.0), axis=1)[:, -1]
    d1 = rows1.sum(axis=1)
    d2 = rows2.sum(axis=1)
    if measure is Measure.COS:
        return oracle._ratio(cn, np.sqrt(d1) * np.sqrt(d2))
    return oracle._ratio(cn, d1 + d2 - cn)


@st.composite
def _blocks(draw):
    """A block of boolean slot rows, one-pair, one-column or general, with
    weight degrees that take adad's 0.0 branch (0 and 1) and others."""
    p, w = draw(st.sampled_from(["pair", "column", "block"])
                .flatmap(lambda shape: st.tuples(
                    st.just(1) if shape == "pair" else st.integers(1, 40),
                    st.just(1) if shape == "column" else st.integers(1, 70))))
    rows = hnp.arrays(bool, (p, w))
    degrees = hnp.arrays(np.int64, w, elements=st.integers(0, 10**6))
    return draw(rows), draw(rows), draw(degrees)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_blocks())
def test_block_scores_keep_the_parent_bits(block):
    rows1, rows2, degrees = block
    cols = np.arange(rows1.shape[1])
    for measure in MEASURES:
        got = oracle._block_scores(cols, rows1, rows2, degrees.__getitem__,
                                   measure)
        expect = _parent_block_scores(cols, rows1, rows2, degrees.__getitem__,
                                      measure)
        assert got.dtype == expect.dtype == np.float64
        assert [_bits(x) for x in got.tolist()] == \
            [_bits(x) for x in expect.tolist()], measure


@pytest.mark.parametrize("n", [5, 50, 51, 400, 2000, 3 * 2**29, 2**31])
def test_chunked_draw_matches_per_call_loop(n):
    """The candidate set of 'all' mode equals the one-call-per-pair loop it
    replaced.  Up to 50 nodes, and for 51 nodes with 2550 pairs, it is the
    grid of every ordered pair; otherwise a chunked sample.  Lemire's
    bounded draw rejects a quarter of its 32-bit draws for n = 3 * 2**29,
    and almost none for the other n; 2**31 is the largest node count a
    ``Graph`` can have.  2549 of the 2550 pairs on 51
    nodes is a coupon collector: the last chunks hold one pair each, and
    most of their pairs are repeats."""
    stand_in = SimpleNamespace(node_count=n)
    sizes = (1, 2000, 2549, 2550) if n == 51 else (1, 300)
    for seed in range(20):
        for max_pairs in sizes:
            got = oracle._candidate_pairs(stand_in, "all", max_pairs, seed)
            expect = reference._candidate_pairs(stand_in, "all", max_pairs, seed)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            assert np.array_equal(got, expect), (n, seed, max_pairs)


@pytest.mark.parametrize("max_pairs", [3000, 3539])
def test_sample_with_heavy_repeats_matches_per_call_loop(max_pairs):
    """Drawing most or all but one of the 3540 pairs on 60 nodes repeats
    pairs within a chunk and across chunks; the sample still equals the
    one-call-per-pair loop's."""
    stand_in = SimpleNamespace(node_count=60)
    for seed in range(20):
        got = oracle._sample_pairs(60, max_pairs, seed)
        expect = reference._candidate_pairs(stand_in, "all", max_pairs, seed)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.array_equal(got, expect), (seed, max_pairs)


def test_edge_mask_matches_isin():
    """The sorted-key lookup agrees with ``np.isin`` over ``i * n + j``
    keys on random, reciprocal, edgeless and node-limit graphs, for edges,
    reversed edges, random pairs and an empty candidate set."""
    rng = np.random.default_rng(59)
    graphs = [Graph.from_edges(0, []), Graph.from_edges(1, []),
              Graph.from_edges(6, []),
              Graph.from_edges(2000, [(0, 1), (1999, 0), (1999, 1998)])]
    graphs += [random_reciprocal_graph(int(rng.integers(2, 40)),
                                       float(rng.uniform(0.0, 0.5)), rng)
               for _ in range(10)]
    graphs += [random_directed_graph(int(rng.integers(2, 60)),
                                     float(rng.uniform(0.0, 0.6)), rng)
               for _ in range(30)]
    for g in graphs:
        n, edges = g.node_count, g.edges()
        if n:
            drawn = rng.integers(0, n, size=(int(rng.integers(1, 200)), 2))
            corners = np.array([[0, 0], [0, n - 1], [n - 1, 0], [n - 1, n - 1]])
        else:
            drawn = corners = np.empty((0, 2), np.int64)
        for candidates in (edges, edges[:, ::-1], drawn, corners,
                           np.empty((0, 2), np.int64),
                           np.concatenate((edges[::-1], edges[:, ::-1], drawn))):
            expect = np.isin(candidates[:, 0] * n + candidates[:, 1],
                             edges[:, 0] * n + edges[:, 1])
            got = oracle._edge_mask(g, candidates)
            assert got.dtype == bool and np.array_equal(got, expect), n


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
        # names are parsed before the pair is checked, with the scoring
        # module's messages
        with pytest.raises(ValueError, match=r"unknown measure 'nope' "
                                             r"\(expected one of: pa, cn, "):
            oracle_fn(g, 0, 5, "nope", SYM)
        with pytest.raises(ValueError, match=r"unknown combo 'bogus' "
                                             r"\(expected one of: "):
            oracle_fn(g, 2, 2, Measure.CN, "bogus")
        assert oracle_fn(g, 0, 1, "cn", "sym") == oracle_fn(g, 0, 1, Measure.CN, SYM)
        # endpoints are read as the ints they stand for
        assert oracle_fn(g, np.uint8(4), True, Measure.CN, SYM) == \
            oracle_fn(g, 4, 1, Measure.CN, SYM)


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
                    s1, s2 = _slot_sets(source, combo, i, j)
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


def test_raw_pa_of_hubs_does_not_wrap():
    """Row counts are int32; pa's product of two degrees above 46341 must
    not wrap.  Nodes 0 and 1 each point to 50000 others."""
    targets = np.arange(2, 50002)
    g = Graph(50002, np.repeat([0, 1], len(targets)), np.tile(targets, 2))
    for combo in (SYM, DegreeCombination.OUT):
        assert raw_measure(g, 0, 1, Measure.PA, combo) == 50000.0 ** 2
        assert raw_measure(g, 0, 1, Measure.PA, combo) == \
            link_prediction_score(g, 0, 1, Measure.PA, combo)


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
