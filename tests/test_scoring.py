"""Decay scores: pinned fixture values, guards, and structural properties."""

import math

import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_scoring as reference
from linkdecay import scoring
from linkdecay.datasets import swim_surf, swim_surf_events
from linkdecay.evaluation import temporal_split
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import DegreeCombination, Graph, snapshot_at
from linkdecay.scoring import (Measure, ScoreModel, ScoreSpec, all_specs,
                               complement_network_score, complement_score,
                               decay_score, link_prediction_score, pair_features,
                               score_batch, score_matrix)

SYM = DegreeCombination.SYM
COMBOS = list(DegreeCombination)
MEASURES = list(Measure)


@pytest.fixture(scope="module")
def fixture_graph():
    return swim_surf()


@pytest.fixture(scope="module")
def fixture_ids():
    return swim_surf_events().node_ids


def _random_graph(rng, n=None, density=None):
    n = n or int(rng.integers(4, 25))
    density = density if density is not None else rng.uniform(0.1, 0.4)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return Graph(n, src, dst)


# ---- pinned values on the bundled two-cluster fixture ----

def test_fixture_pa_negated_product(fixture_graph, fixture_ids):
    swim, surf = fixture_ids.index("swim"), fixture_ids.index("surf")
    assert complement_score(fixture_graph, swim, surf, Measure.PA, SYM) == -9.0


def test_fixture_cn_ranks_bridge_most_decayable(fixture_graph, fixture_ids):
    swim, surf = fixture_ids.index("swim"), fixture_ids.index("surf")
    water, beach = fixture_ids.index("water"), fixture_ids.index("beach")
    inner = complement_score(fixture_graph, water, beach, Measure.CN, SYM)
    bridge = complement_score(fixture_graph, swim, surf, Measure.CN, SYM)
    assert inner == -1.0
    assert bridge == 0.0
    assert bridge > inner


def test_fixture_network_cn(fixture_graph, fixture_ids):
    swim, surf = fixture_ids.index("swim"), fixture_ids.index("surf")
    water, beach = fixture_ids.index("water"), fixture_ids.index("beach")
    assert complement_network_score(fixture_graph, swim, surf,
                                    Measure.CN, SYM) == 0.0
    assert complement_network_score(fixture_graph, water, beach,
                                    Measure.CN, SYM) == 3.0


def test_fixture_network_pa(fixture_graph, fixture_ids):
    swim, surf = fixture_ids.index("swim"), fixture_ids.index("surf")
    assert complement_network_score(fixture_graph, swim, surf,
                                    Measure.PA, SYM) == 4.0


def test_fixture_batch_bridge_attains_maximum(fixture_graph, fixture_ids):
    swim, surf = fixture_ids.index("swim"), fixture_ids.index("surf")
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN, SYM)
    edges = fixture_graph.edges()
    scored = score_batch(fixture_graph, edges, spec)
    best = max(scored, key=lambda e: e.score)
    top = {(e.src, e.dst) for e in scored if e.score == best.score}
    assert top == {(swim, surf), (surf, swim)}


# ---- degenerate inputs ----

def test_isolated_pair_scores_zero_everywhere():
    g = Graph.from_edges(4, [(2, 3)])
    for measure in MEASURES:
        for combo in COMBOS:
            assert complement_score(g, 0, 1, measure, combo) == 0.0


def test_cos_zero_degree_guard():
    g = Graph.from_edges(3, [(0, 1)])
    assert complement_score(g, 0, 2, Measure.COS, SYM) == 0.0


def test_network_cos_full_degree_guard():
    # node 0 linked with everyone: n - 1 - degree hits 0
    edges = [(0, k) for k in range(1, 4)] + [(k, 0) for k in range(1, 4)]
    g = Graph.from_edges(4, edges)
    assert complement_network_score(g, 0, 1, Measure.COS, SYM) == 0.0


def test_adad_degree_one_weight_guard():
    # sole common neighbor has total degree 2 from the two path edges,
    # but out-degree 0, so the out-combo weight vanishes
    g = Graph.from_edges(3, [(0, 2), (1, 2)])
    assert complement_score(g, 0, 1, Measure.ADAD,
                            DegreeCombination.OUT) == 0.0


def test_adad_weight_value():
    # common out-neighbor k=2 fans out to 3 more nodes: weight 1/ln 3
    edges = [(0, 2), (1, 2), (2, 3), (2, 4), (2, 5)]
    g = Graph.from_edges(6, edges)
    got = complement_score(g, 0, 1, Measure.ADAD, DegreeCombination.OUT)
    assert got == -(1.0 / math.log(3.0))


def test_pair_must_be_distinct():
    g = Graph.from_edges(3, [(0, 1)])
    for fn in (complement_score, complement_network_score):
        with pytest.raises(ValueError, match="distinct"):
            fn(g, 1, 1, Measure.PA, SYM)


def test_all_scores_finite_on_awkward_graphs():
    """Stars, chains, near-complete graphs: no NaN or infinity anywhere."""
    rng = np.random.default_rng(17)
    graphs = [
        Graph.from_edges(5, [(0, k) for k in range(1, 5)]),          # out-star
        Graph.from_edges(5, [(k, 0) for k in range(1, 5)]),          # in-star
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),               # chain
        _random_graph(rng, n=7, density=0.9),                        # dense
    ]
    for g in graphs:
        n = g.node_count
        for spec in all_specs():
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    value = decay_score(g, i, j, spec)
                    assert math.isfinite(value), (spec, i, j)


def test_adad_complement_weights_flag_changes_value():
    rng = np.random.default_rng(23)
    g = _random_graph(rng, n=12, density=0.3)
    base = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.ADAD, SYM)
    flagged = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.ADAD, SYM,
                        adad_complement_weights=True)
    values_base = [decay_score(g, 0, j, base) for j in range(1, 12)]
    values_flag = [decay_score(g, 0, j, flagged) for j in range(1, 12)]
    assert values_base != values_flag
    assert all(math.isfinite(v) for v in values_flag)


def test_adad_complement_weights_hand_check():
    """Flag substitutes n-1-degree into the inverse-log weight (guarded)."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 0)])
    n = 5
    degrees = [g.degree(k, "out") + g.degree(k, "in") for k in range(n)]

    def w(k):
        d = n - 1 - degrees[k]
        return 0.0 if d <= 1 else 1.0 / math.log(d)

    s1 = set(int(v) for v in g.neighbors(0))
    s2 = set(int(v) for v in g.neighbors(3))
    expected = (sum(w(k) for k in range(n))
                - sum(w(k) for k in s1)
                - sum(w(k) for k in s2)
                + sum(w(k) for k in s1 & s2))
    got = complement_network_score(g, 0, 3, Measure.ADAD, SYM,
                                   adad_complement_weights=True)
    assert got == pytest.approx(expected, rel=1e-12)


# ---- structural properties ----

def test_antisymmetry_against_raw_measure():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = _random_graph(rng)
        n = g.node_count
        i, j = rng.choice(n, size=2, replace=False)
        for measure in MEASURES:
            for combo in COMBOS:
                f = link_prediction_score(g, int(i), int(j), measure, combo)
                g1 = complement_score(g, int(i), int(j), measure, combo)
                assert g1 == -f


def test_ranking_duality():
    """Sorting by decay score descending equals sorting by the raw
    link-prediction score ascending, ties broken the same way."""
    rng = np.random.default_rng(37)
    g = _random_graph(rng, n=18, density=0.25)
    pairs = [(i, j) for i in range(18) for j in range(18) if i != j]
    for measure in MEASURES:
        decay = sorted(pairs, key=lambda p: (
            -complement_score(g, p[0], p[1], measure, SYM), p))
        raw = sorted(pairs, key=lambda p: (
            link_prediction_score(g, p[0], p[1], measure, SYM), p))
        assert decay == raw


def test_pa_monotone_in_either_degree():
    n = 12
    fixed = [(10, 11)]  # keeps the second endpoint's out-degree at 1
    score_m1, score_m2 = [], []
    for k in range(1, 9):
        g = Graph.from_edges(n, fixed + [(0, v) for v in range(1, k + 1)])
        score_m1.append(complement_score(g, 0, 10, Measure.PA,
                                         DegreeCombination.OUT))
        score_m2.append(complement_network_score(g, 0, 10, Measure.PA,
                                                 DegreeCombination.OUT))
    assert all(a > b for a, b in zip(score_m1, score_m1[1:]))
    assert all(a > b for a, b in zip(score_m2, score_m2[1:]))


def test_relabeling_invariance():
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = _random_graph(rng, n=14, density=0.3)
        perm = rng.permutation(14)
        edges = g.edges()
        g_perm = Graph.from_edges(14, [(perm[a], perm[b]) for a, b in edges])
        i, j = rng.choice(14, size=2, replace=False)
        pi, pj = int(perm[i]), int(perm[j])
        for spec in all_specs():
            a = decay_score(g, int(i), int(j), spec)
            b = decay_score(g_perm, pi, pj, spec)
            if spec.measure is Measure.ADAD:
                # float sums run in node order, which the permutation changes
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
            else:
                assert a == b


def test_spec_grid_complete_and_ordered():
    specs = all_specs()
    assert len(specs) == 40
    assert len(set(specs)) == 40
    assert specs[0].model is ScoreModel.COMPLEMENT_SCORE
    tags = [str(s) for s in specs]
    assert tags[0] == "score/pa/sym"
    assert tags[-1] == "network/adad/out"


def test_spec_from_strings_and_fields():
    spec = ScoreSpec("network", "adad", "out", True)
    assert spec.fields() == {"model": "network", "measure": "adad",
                             "combo": "out", "adad-complement-weights": "true"}
    with pytest.raises(ValueError):
        ScoreSpec("hybrid", "pa", "sym")


# ---- batch semantics ----

def test_batch_empty():
    g = Graph.from_edges(2, [(0, 1)])
    assert score_batch(g, [], ScoreSpec(ScoreModel.COMPLEMENT_SCORE,
                                        Measure.PA, SYM)) == []


def test_batch_matches_single_calls_in_order():
    rng = np.random.default_rng(47)
    g = _random_graph(rng, n=10, density=0.3)
    pairs = [(int(a), int(b)) for a, b in
             rng.integers(0, 10, size=(30, 2)) if a != b]
    for spec in (ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.ADAD, SYM),
                 ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.COS, SYM)):
        scored = score_batch(g, pairs, spec)
        assert [(e.src, e.dst) for e in scored] == pairs
        for (a, b), e in zip(pairs, scored):
            assert e.score == reference.decay_score(g, a, b, spec)


def test_batch_scoring_is_pure():
    g = swim_surf()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.JACC, SYM)
    edges = g.edges()
    first = score_batch(g, edges, spec)
    second = score_batch(g, edges, spec)
    assert first == second


def test_batch_reports_offending_pair_index():
    g = Graph.from_edges(3, [(0, 1)])
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.PA, SYM)
    with pytest.raises(ValueError, match="pair 1"):
        score_batch(g, [(0, 1), (2, 2)], spec)
    with pytest.raises(ValueError, match="pair 1"):
        score_matrix(g, [(0, 1), (2, 2)], [spec])
    # input not shaped (k, 2) is rejected, not indexed or truncated
    for pairs, shape in ((np.array([1, 2]), r"\(2,\)"), ([[1]], r"\(1, 1\)"),
                         ([(1, 2, 0)], r"\(1, 3\)"),
                         (np.zeros((2, 2, 2), np.int64), r"\(2, 2, 2\)")):
        with pytest.raises(ValueError, match=rf"shape \(k, 2\), got {shape}"):
            score_batch(g, pairs, spec)
        with pytest.raises(ValueError, match=rf"shape \(k, 2\), got {shape}"):
            score_matrix(g, pairs, [spec])


def test_batch_reports_unknown_node_as_index_error():
    g = Graph.from_edges(3, [(0, 1)])
    spec = ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.CN, SYM)
    with pytest.raises(IndexError, match=r"pair 2 = \(0, 7\): unknown node 7"):
        score_batch(g, [(0, 1), (1, 2), (0, 7), (-1, 2)], spec)
    with pytest.raises(IndexError, match=r"pair 0 = \(-1, 2\)"):
        score_batch(g, np.array([[-1, 2]]), spec)


def test_pair_features_rejects_pairs_as_score_matrix_does():
    # Unchecked, the first read node 5's row, the second counted node 1's
    # neighbours as common to it and itself, and the last two failed inside
    # numpy.
    g = swim_surf()
    spec = ScoreSpec(ScoreModel.COMPLEMENT_SCORE, Measure.CN, SYM)
    for pair, error, message in [
            ((-2, 1), IndexError, "unknown node -2 (graph has 6 nodes)"),
            ((1, 1), ValueError, "candidate pair must have distinct endpoints, got (1, 1)"),
            ((0, -1), IndexError, "unknown node -1 (graph has 6 nodes)"),
            ((6, 0), IndexError, "unknown node 6 (graph has 6 nodes)")]:
        pairs = [(0, 1), pair]
        for call in (lambda: pair_features(g, pairs, SYM),
                     lambda: score_matrix(g, pairs, [spec])):
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == f"pair 1 = {pair}: {message}"


# ---- the batched kernel against the per-pair reference, bit for bit ----

SPECS_AND_ACW = all_specs() + [
    ScoreSpec(ScoreModel.COMPLEMENT_NETWORK, Measure.ADAD, combo,
              adad_complement_weights=True) for combo in COMBOS]


def _bits(x):
    return struct.pack("<d", x)


def _assert_matches_reference(g, pairs, specs=SPECS_AND_ACW):
    """Every spec through ``score_batch``, and all of them at once through
    ``score_matrix`` in reversed order, match the reference bit for bit."""
    pairs = [(int(a), int(b)) for a, b in pairs]
    wants = {spec: [reference.decay_score(g, a, b, spec) for a, b in pairs]
             for spec in specs}
    for spec in specs:
        scored = score_batch(g, pairs, spec)
        assert [(e.src, e.dst) for e in scored] == pairs
        assert [_bits(e.score) for e in scored] == [_bits(w) for w in wants[spec]], str(spec)
    matrix = score_matrix(g, pairs, specs[::-1])
    assert matrix.shape == (len(specs), len(pairs))
    for spec, row in zip(specs[::-1], matrix):
        assert [_bits(x) for x in row.tolist()] == [_bits(w) for w in wants[spec]], str(spec)


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def test_kernel_empty_graph_and_empty_batch():
    for spec in SPECS_AND_ACW:
        assert score_batch(Graph(0, [], []), [], spec) == []
        assert score_batch(Graph(3, [], []), np.empty((0, 2), np.int64), spec) == []
    for g in (Graph(0, [], []), Graph(3, [], [])):
        for empty in ([], np.empty((0, 2), np.int64)):
            assert score_matrix(g, empty, SPECS_AND_ACW).shape == (len(SPECS_AND_ACW), 0)
    _assert_matches_reference(Graph(3, [], []), _all_pairs(3))


def test_kernel_isolated_and_full_degree_nodes():
    # node 0 is linked both ways with all others (n - 1 - degree hits 0,
    # the network/cos guard); node 5 is isolated
    edges = ([(0, k) for k in range(1, 5)] + [(k, 0) for k in range(1, 5)]
             + [(1, 2), (3, 4), (2, 3)])
    g = Graph.from_edges(6, edges)
    _assert_matches_reference(g, _all_pairs(6))


def test_kernel_random_graphs_every_pair():
    rng = np.random.default_rng(53)
    for _ in range(6):
        g = _random_graph(rng, n=int(rng.integers(2, 20)),
                          density=float(rng.uniform(0.05, 0.95)))
        _assert_matches_reference(g, _all_pairs(g.node_count))


def test_kernel_long_rows_and_many_common_neighbours():
    """Rows of 128 or more entries and pairs with cn >= 8, where numpy's
    pairwise ``.sum()`` differs from a left-to-right sum."""
    rng = np.random.default_rng(59)
    g = _random_graph(rng, n=220, density=0.65)
    assert g.out_degrees.max() >= 128
    pairs = [tuple(p) for p in rng.integers(0, 220, size=(80, 2)) if p[0] != p[1]]
    features = pair_features(g, np.array(pairs), SYM)
    assert features.cn.min() >= 8 and features.cn.max() >= 128
    _assert_matches_reference(g, pairs)


def test_kernel_blocks_split_a_batch(monkeypatch):
    rng = np.random.default_rng(61)
    g = _random_graph(rng, n=40, density=0.4)
    pairs = _all_pairs(40)
    whole = [score_batch(g, pairs, spec) for spec in SPECS_AND_ACW]
    monkeypatch.setattr(scoring, "_BLOCK_ENTRIES", 400)
    assert len(scoring._blocks(g, np.array(pairs), SYM)) > 50
    assert [score_batch(g, pairs, spec) for spec in SPECS_AND_ACW] == whole
    _assert_matches_reference(g, pairs[::7])


def test_kernel_batch_crosses_the_real_block_budget():
    rng = np.random.default_rng(67)
    g = _random_graph(rng, n=160, density=0.5)
    pairs = np.array(_all_pairs(160))[rng.choice(160 * 159, size=700, replace=False)]
    assert len(scoring._blocks(g, pairs, SYM)) >= 2
    _assert_matches_reference(g, pairs)


def _one_way_graph():
    """Node 0 only sends, node 1 only receives, node 5 is isolated, so
    every combo has pairs with an empty first-slot or second-slot row."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 1), (2, 3), (3, 4),
                                (4, 2), (4, 1)])


def _merge_case(name):
    """``(graph, pairs, block budget or None)`` of one edge case of the
    sorted-run merge in ``pair_features``."""
    rng = np.random.default_rng(71)
    if name == "repeated pairs":
        # repeats side by side and apart; their keys differ only by position
        g = _random_graph(rng, n=12, density=0.5)
        pairs = _all_pairs(12)[:30]
        return g, [pairs[0]] * 4 + pairs + pairs[::-3] + [pairs[5]] * 3, None
    if name == "empty slot rows":
        return _one_way_graph(), _all_pairs(6), None
    if name == "every second-slot row empty":
        return _one_way_graph(), [(i, 5) for i in range(5)], None
    # several blocks, repeats straddling their boundaries
    g = _random_graph(rng, n=30, density=0.4)
    pairs = _all_pairs(30)[::5]
    return g, pairs + pairs[::-1] + pairs, 300


@pytest.mark.parametrize("case", ["repeated pairs", "empty slot rows",
                                  "every second-slot row empty", "several blocks"])
def test_kernel_merge_edge_cases(case, monkeypatch):
    g, pairs, budget = _merge_case(case)
    if budget is not None:
        monkeypatch.setattr(scoring, "_BLOCK_ENTRIES", budget)
        assert len(scoring._blocks(g, np.array(pairs), SYM)) >= 3
    for combo in COMBOS:
        f = pair_features(g, np.array(pairs), combo)
        want = [len(np.intersect1d(*reference._slot_sets(g, combo, a, b)))
                for a, b in pairs]
        assert f.cn.tolist() == want, combo
        if case == "every second-slot row empty":
            assert not f.d2.any() and f.d1.any() and len(f.common) == 0, combo
        if case == "empty slot rows":
            assert not (f.d1.all() and f.d2.all()), combo
    _assert_matches_reference(g, pairs)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(lengths=st.lists(st.integers(0, 600), max_size=20),
       seed=st.integers(0, 2**32 - 1), zero_share=st.sampled_from((0.0, 0.3, 1.0)))
@example(lengths=[5000], seed=1, zero_share=0.0)
@example(lengths=[9] * 3000 + [130] * 500, seed=2, zero_share=0.3)
@example(lengths=[], seed=3, zero_share=0.0)
def test_run_sums_match_sum_and_python_loop(lengths, seed, zero_share):
    """Pairwise run sums have the bits of ``.sum()``; the others those of a
    Python ``+=`` loop from 0.0.  Runs of 8 or more tell the two apart."""
    rng = np.random.default_rng(seed)
    counts = np.array(lengths, dtype=np.int64)
    degrees = rng.integers(0, 3000, size=int(counts.sum()))
    values = np.where(degrees > 1, 1.0 / np.log(np.maximum(degrees, 2)), 0.0)
    values[rng.random(len(values)) < zero_share] = 0.0
    starts = (np.cumsum(counts) - counts).tolist()
    pairwise = scoring._run_sums(values, counts, pairwise=True)
    looped = scoring._run_sums(values, counts, pairwise=False)
    assert pairwise.shape == looped.shape == (len(lengths),)
    for k, (start, length) in enumerate(zip(starts, lengths)):
        run = values[start:start + length]
        total = 0.0
        for x in run.tolist():
            total += x
        assert _bits(pairwise[k]) == _bits(run.sum()), (k, length)
        assert _bits(looped[k]) == _bits(total), (k, length)


@pytest.mark.parametrize("combo", COMBOS)
def test_row_sums_switch_branches_at_n_endpoints(combo):
    """From n endpoints on, ``_row_sums`` sums every CSR row once; below
    that it gathers and sums each distinct node's row.
    Just under and just over the switch, every total has the bits of
    ``weights[row].sum()``, rows of 8 or more entries included."""
    rng = np.random.default_rng(11)
    g = _random_graph(rng, n=60, density=0.3)
    n = g.node_count
    weights = rng.random(n)
    weights[rng.random(n) < 0.2] = 0.0
    (indptr, indices), _ = combo.slot_csr(g)
    assert np.diff(indptr).max() >= 8
    for size, gathers in ((n - 1, 1), (n, 0), (n + 1, 0)):
        nodes = rng.integers(0, n, size=size)
        with mock.patch.object(scoring, "_gather_rows",
                               wraps=scoring._gather_rows) as gather:
            got = scoring._row_sums(weights, indptr, indices, nodes)
        assert gather.call_count == gathers
        want = [weights[indices[indptr[v]:indptr[v + 1]]].sum() for v in nodes.tolist()]
        assert [_bits(x) for x in got.tolist()] == [_bits(x) for x in want]


def test_pair_features_columns():
    g = Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (4, 1)])
    f = pair_features(g, np.array([[0, 1], [1, 0], [0, 4]]), DegreeCombination.OUT)
    assert f.d1.tolist() == [2, 2, 2]
    assert f.d2.tolist() == [2, 2, 1]
    assert f.cn.tolist() == [2, 2, 0]
    assert f.common.tolist() == [2, 3, 2, 3]


def test_kernel_matches_reference_on_planted_split():
    """The acceptance planted stream, seed 0: every split pair is scored in
    one batch (many blocks); a seeded sample is re-scored pair by pair."""
    tel = generate(GenConfig(seed=0, n_nodes=5000, n_add_events=40000,
                             decay_bias="low_degree"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = temporal_split(tel, seed=0)
    g = snapshot_at(tel, split.t1)
    pairs = np.concatenate((split.test_set, split.zero_test_set))
    assert len(scoring._blocks(g, pairs, SYM)) >= 2
    sample = np.random.default_rng(0).choice(len(pairs), size=300, replace=False)
    for spec in SPECS_AND_ACW:
        scored = score_batch(g, pairs, spec)
        for k in sample.tolist():
            a, b = int(pairs[k, 0]), int(pairs[k, 1])
            want = reference.decay_score(g, a, b, spec)
            assert _bits(scored[k].score) == _bits(want), (str(spec), a, b)
