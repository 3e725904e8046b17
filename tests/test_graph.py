"""Graph snapshots, degree/neighborhood queries, and combo semantics."""

import io
import tracemalloc

import numpy as np
import pytest

from linkdecay.datasets import random_directed_graph, swim_surf, swim_surf_events
from linkdecay.events import read_events
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import DegreeCombination, Graph, pair_features, snapshot_at
from linkdecay.oracle import materialize_complement, symmetrize
from reference_graph import csr_rows
from reference_scoring import _slot_sets

COMBOS = list(DegreeCombination)


def _read(text):
    return read_events(io.StringIO(text))


def _names(g, ids, nodes):
    return {ids[v] for v in nodes}


# ---- construction and validation ----

def test_from_edges_basic():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert g.node_count == 3
    assert g.edge_count == 3
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(0, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(0, 1), (0, 1)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 5)])


def test_rejects_columns_of_different_lengths():
    with pytest.raises(ValueError, match="^src and dst must be 1-d arrays of equal length$"):
        Graph(3, [0, 1], [1])


def test_neighbor_arrays_sorted_and_read_only():
    g = Graph.from_edges(5, [(2, 4), (2, 0), (2, 3), (1, 2)])
    out = g.neighbors(2, "out")
    assert list(out) == [0, 3, 4]
    with pytest.raises(ValueError):
        out[0] = 9


def test_edges_lexicographic():
    g = Graph.from_edges(4, [(3, 0), (1, 2), (1, 0)])
    assert [tuple(e) for e in g.edges()] == [(1, 0), (1, 2), (3, 0)]


def test_equality():
    a = Graph.from_edges(3, [(0, 1), (2, 1)])
    b = Graph.from_edges(3, [(2, 1), (0, 1)])
    c = Graph.from_edges(3, [(0, 1)])
    assert a == b
    assert a != c


def test_equal_graphs_hash_equal():
    a = Graph.from_edges(3, [(0, 1), (2, 1)])
    b = Graph(3, np.array([2, 0]), np.array([1, 1]))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, Graph.from_edges(3, [(0, 1)])}) == 2
    assert hash(Graph(0, [], [])) == hash(Graph(0, [], []))


def test_library_builds_equal_a_rebuild_from_their_edges():
    """The graphs the library derives equal a fresh, checked build from
    their own edge lists in all three row tables."""
    rng = np.random.default_rng(11)
    g = random_directed_graph(30, 0.2, rng)
    tel = generate(GenConfig(seed=3, n_nodes=60, n_add_events=400))
    derived = [g, snapshot_at(tel, tel.time_last / 2), materialize_complement(g),
               symmetrize(g)]
    for h in derived:
        edges = h.edges()
        rebuilt = Graph(h.node_count, edges[:, 0], edges[:, 1])
        assert h == rebuilt
        for direction in ("out", "in", "both"):
            for a, b in zip(h._csr(direction), rebuilt._csr(direction)):
                assert np.array_equal(a, b), direction


@pytest.mark.parametrize("n", [2**31 + 1, 2**40])
def test_rejects_node_count_above_limit_before_allocating(n):
    """The packed row keys fit int64 up to ``2**31`` nodes; a larger count
    is refused before any array of size ``n`` (16 GB and up) is made."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^node count must be at most "
                                             f"2147483648, got {n}$"):
            Graph(n, [], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def _csr_edge_sets(n, rng):
    """Edge sets on ``n`` nodes, sorted: none; a random set with some of its
    pairs reciprocated and edges to and from node ``n - 1``; and one over
    the even nodes and ``n - 1``, so every odd node below it is isolated."""
    sets = [np.empty((0, 2), dtype=np.int64)]
    if n < 2:
        return sets
    pairs = rng.integers(0, n, size=(min(4 * n, 600), 2))
    pairs = np.concatenate((pairs, pairs[::3, ::-1],
                            [(0, n - 1), (n - 1, 0), (n // 2, n - 1)]))
    sets.append(pairs)
    evens = np.append(np.arange(0, n, 2), n - 1)
    sets.append(rng.choice(evens, size=(min(2 * n, 300), 2)))
    return [np.unique(p[p[:, 0] != p[:, 1]], axis=0) for p in sets]


def test_csr_rows_equal_the_multiply_and_search_build():
    """The counting build gives every ``indptr`` and ``indices`` array of the
    three row tables the bits of the ``row * n + col`` build with its row
    start search and remainder, around each power of two up to ``2**17 + 1``
    nodes, where the packed keys gain a bit, with the edges in shuffled
    order."""
    rng = np.random.default_rng(32)
    sizes = sorted({0, 1, 2, 3} | {2**k + d for k in range(1, 18) for d in (-1, 0, 1)})
    for n in sizes:
        for pairs in _csr_edge_sets(n, rng):
            pairs = pairs[rng.permutation(len(pairs))]
            src, dst = pairs[:, 0].copy(), pairs[:, 1].copy()
            g = Graph(n, src, dst)
            expect = csr_rows(n, src, dst)
            for direction, (ptr, idx) in expect.items():
                got_ptr, got_idx = g._csr(direction)
                assert got_ptr.dtype == got_idx.dtype == np.int64
                assert np.array_equal(got_ptr, ptr), (n, direction)
                assert np.array_equal(got_idx, idx), (n, direction)


def test_both_rows_are_per_row_union_of_out_and_in():
    rng = np.random.default_rng(7)
    graphs = [Graph(0, [], []), Graph(1, [], []), Graph(4, [], []),
              Graph.from_edges(6, [(0, 1), (1, 0), (3, 1)])]   # empty rows
    for _ in range(10):
        n = int(rng.integers(2, 40))
        mask = rng.random((n, n)) < rng.uniform(0.0, 0.6)
        np.fill_diagonal(mask, False)
        graphs.append(Graph(n, *np.nonzero(mask)))
    for g in graphs:
        rows = [np.union1d(g.neighbors(v, "out"), g.neighbors(v, "in")).astype(np.int64)
                for v in range(g.node_count)]
        assert g.neighbor_counts.tolist() == [len(r) for r in rows]
        for v, row in enumerate(rows):
            got = g.neighbors(v)
            assert got.dtype == np.int64
            assert np.array_equal(got, row), (g, v)


# ---- degrees ----

def test_degree_modes_on_mixed_node():
    # node 0 has 2 outgoing and 3 incoming links (one reciprocated)
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 0), (3, 0), (4, 0)])
    assert g.degree(0, "out") == 2
    assert g.degree(0, "in") == 3
    assert g.degree(0, "total") == 5
    # total counts the reciprocated neighbor twice; distinct neighbors don't
    assert len(g.neighbors(0)) == 4


def test_isolated_node_degrees():
    g = Graph.from_edges(3, [(0, 1)])
    for mode in ("in", "out", "total"):
        assert g.degree(2, mode) == 0
    assert len(g.neighbors(2)) == 0


def test_directed_three_cycle_degrees():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert g.degree(0, "out") == 1
    assert g.degree(0, "in") == 1
    assert g.degree(0, "total") == 2


def test_unknown_node_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(IndexError, match="unknown node"):
        g.degree(7, "out")
    with pytest.raises(IndexError, match="unknown node"):
        g.neighbors(7, "both")


def test_bad_mode_rejected():
    g = Graph.from_edges(2, [(0, 1)])
    for mode in ("sideways", "both"):
        with pytest.raises(ValueError, match="mode must be"):
            g.degree(0, mode)
    for direction in (None, "sideways", []):
        with pytest.raises(ValueError, match="direction must be"):
            g.neighbors(0, direction)


def test_degree_arrays_match_scalar_queries():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        mask = rng.random((n, n)) < 0.2
        np.fill_diagonal(mask, False)
        src, dst = np.nonzero(mask)
        g = Graph(n, src, dst)
        assert [g.degree(v, "out") for v in range(n)] == list(g.out_degrees)
        assert [g.degree(v, "in") for v in range(n)] == list(g.in_degrees)
        assert [len(g.neighbors(v)) for v in range(n)] == list(g.neighbor_counts)
        assert int(g.out_degrees.sum()) == g.edge_count


# ---- neighborhoods on the bundled fixture ----

def test_fixture_neighbors_both():
    g = swim_surf()
    tel = swim_surf_events()
    ids = tel.node_ids
    swim = ids.index("swim")
    assert _names(g, ids, g.neighbors(swim, "both")) == {"water", "beach", "surf"}


def test_directed_neighbors_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    assert list(g.neighbors(1, "out")) == []
    assert list(g.neighbors(1, "in")) == [0]
    assert list(g.neighbors(1, "both")) == [0]


def _cn_union(g, i, j, combo=DegreeCombination.SYM):
    """A pair's common-neighbour count and union size off :func:`pair_features`."""
    d1, d2, cn, _ = pair_features(g, [(i, j)], combo)
    return int(cn[0]), int(d1[0] + d2[0] - cn[0])


def test_fixture_common_neighbors():
    g = swim_surf()
    ids = swim_surf_events().node_ids
    swim, surf = ids.index("swim"), ids.index("surf")
    water, beach = ids.index("water"), ids.index("beach")
    assert _cn_union(g, swim, surf) == (0, 6)
    assert _cn_union(g, water, beach) == (1, 3)


def test_common_neighbors_empty_for_isolated():
    g = Graph.from_edges(4, [(0, 1)])
    for combo in COMBOS:
        assert _cn_union(g, 2, 3, combo) == (0, 0)


def test_pair_queries_reject_equal_endpoints():
    g = Graph.from_edges(3, [(0, 1)])
    for pair in ((1, 1), (2, 2)):
        with pytest.raises(ValueError, match="distinct"):
            pair_features(g, [pair], DegreeCombination.SYM)


def test_asym_counts_directed_two_paths():
    # exactly the paths 0 -> k -> 3, k in {1, 2}
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    assert _cn_union(g, 0, 3, DegreeCombination.ASYM)[0] == 2
    assert _cn_union(g, 3, 0, DegreeCombination.ASYM)[0] == 0


def test_inclusion_exclusion_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 20))
        mask = rng.random((n, n)) < rng.uniform(0.1, 0.4)
        np.fill_diagonal(mask, False)
        src, dst = np.nonzero(mask)
        g = Graph(n, src, dst)
        i, j = rng.choice(n, size=2, replace=False)
        for combo in COMBOS:
            s1, s2 = _slot_sets(g, combo, int(i), int(j))
            inter, union = _cn_union(g, int(i), int(j), combo)
            assert inter == len(np.intersect1d(s1, s2))
            assert union == len(np.union1d(s1, s2))
            assert inter + union == len(s1) + len(s2)


def test_combo_parse():
    assert DegreeCombination.parse("sym") is DegreeCombination.SYM
    with pytest.raises(ValueError, match="unknown combo"):
        DegreeCombination.parse("diag")


# ---- snapshots ----

def test_snapshot_before_any_event_is_empty():
    tel = _read("a\tb\t+1\t10\n")
    g = snapshot_at(tel, 5)
    assert g.edge_count == 0
    assert g.node_count == 2


def test_snapshot_sees_edge_until_delete():
    tel = _read("a\tb\t+1\t10\na\tb\t-1\t80\n")
    assert snapshot_at(tel, 75).has_edge(0, 1)
    assert not snapshot_at(tel, 80).has_edge(0, 1)


def test_snapshot_after_re_add():
    tel = _read("a\tb\t+1\t10\na\tb\t-1\t80\na\tb\t+1\t90\n")
    assert snapshot_at(tel, 95).has_edge(0, 1)
    assert not snapshot_at(tel, 85).has_edge(0, 1)


def test_snapshot_idempotent_between_event_times():
    tel = _read("a\tb\t+1\t10\nb\tc\t+1\t20\na\tb\t-1\t30\n")
    assert snapshot_at(tel, 20) == snapshot_at(tel, 29)
    assert snapshot_at(tel, 10) == snapshot_at(tel, 19)


def test_snapshot_equal_time_events_apply_in_input_order():
    tel = _read("a\tb\t+1\t5\na\tb\t-1\t5\n")
    assert not snapshot_at(tel, 5).has_edge(0, 1)
    tel2 = _read("a\tb\t-1\t5\na\tb\t+1\t5\n")
    assert snapshot_at(tel2, 5).has_edge(0, 1)


def test_snapshot_matches_naive_replay_on_random_streams():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, 200))
        records = []
        live = set()
        for _ in range(k):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            pair = (int(i), int(j))
            t = int(rng.integers(0, 50))
            if pair in live and rng.random() < 0.4:
                records.append((pair[0], pair[1], -1, t))
                live.discard(pair)
            elif pair not in live:
                records.append((pair[0], pair[1], 1, t))
                live.add(pair)
        records.sort(key=lambda r: r[3])
        text = "".join(f"n{a}\tn{b}\t{'+1' if s > 0 else '-1'}\t{t}\n"
                       for a, b, s, t in records)
        tel = _read(text)
        t_query = int(rng.integers(0, 55))
        # naive replay of the prefix, honoring input order at equal times
        state = set()
        for e in tel.events:
            if e.time > t_query:
                break
            if e.is_add:
                state.add((e.src, e.dst))
            else:
                state.discard((e.src, e.dst))
        g = snapshot_at(tel, t_query)
        assert {tuple(e) for e in g.edges()} == state


def test_fixture_snapshot_loses_bridge_after_delete():
    tel = swim_surf_events(bridge_delete_time=80)
    ids = tel.node_ids
    swim, surf = ids.index("swim"), ids.index("surf")
    g75 = snapshot_at(tel, 75)
    assert g75.edge_count == 14
    g80 = snapshot_at(tel, 80)
    assert g80.edge_count == 12
    assert not g80.has_edge(swim, surf) and not g80.has_edge(surf, swim)
