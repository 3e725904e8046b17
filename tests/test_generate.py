"""Synthetic stream generator: determinism, validity, and planted signals."""

import hashlib
import io
import itertools
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import spearmanr

import linkdecay
import reference_generate as reference
from linkdecay.cli import main
from linkdecay.evaluation import (edge_lifetimes, fit_exponential_half_life,
                                  temporal_split)
from linkdecay.events import TemporalEdgeList
from linkdecay.generate import (_BATCH_FLUSH, GenConfig, _Fenwick, deletion_share,
                                generate, solve_window_span)
from linkdecay.graph import snapshot_at


def test_byte_identical_given_seed(tmp_path):
    config = GenConfig(seed=99, n_nodes=120, n_add_events=1500)
    a, b = generate(config), generate(config)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    a.write(str(pa))
    b.write(str(pb))
    assert pa.read_bytes() == pb.read_bytes()


#: SHA-256 of the canonical event file of GenConfig(seed=5, n_nodes=80,
#: n_add_events=600, decay_bias, attach_exponent).  A change to any random
#: stream, draw order or output format changes these.
PINNED_STREAMS = {
    ("none", 1.0): "5d2ed95e46151c36a5ccb29513af6f5558fa0395cea4f29de77bf6d8a5f08cab",
    ("none", 1.5): "17297f0a56947af72b977d1ae7fb3cc43be35765bc9e6cd2a0c64a9ba0495057",
    ("low_degree", 1.0): "791d1b472894636612ecdc624a173c3f1c906f39038d6d90e2a260ad9a1246d3",
    ("low_degree", 1.5): "511816ebc08b24dbd9f1c0dca449598c73c85abbd46bbdda2ecb3e84fbd7273b",
    ("few_common_neighbors", 1.0):
        "db64fafd33866fa88a3c59bc9df480f589b07dd5726a45879ef17421e38e5c6f",
    ("few_common_neighbors", 1.5):
        "dc2aba7e9cca819c63d33e2890c96e6d1a9ab0e36b3a8bf83c13e32f62aeb63b",
}


@pytest.mark.parametrize("bias, exponent", sorted(PINNED_STREAMS))
def test_stream_matches_pinned_digest(bias, exponent):
    tel = generate(GenConfig(seed=5, n_nodes=80, n_add_events=600,
                             attach_exponent=exponent, decay_bias=bias))
    buffer = io.StringIO()
    tel.write(buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == PINNED_STREAMS[bias, exponent]


#: SHA-256 of the canonical event files of two planted-size streams on float
#: weights.  Their death flushes take the batched tree update.
PINNED_BATCHED_STREAMS = {
    ("low_degree", 1.5): "bc6ad899c7fc31ba195736dab0920ae490739ddcbfee7b56559913d355644002",
    ("few_common_neighbors", 0.7):
        "a0dcd7ccfd882b45610c92118579fb4e437042892118fb343709026b73d1bd86",
}


@pytest.mark.parametrize("bias, exponent", sorted(PINNED_BATCHED_STREAMS))
def test_batched_stream_matches_pinned_digest(bias, exponent):
    tel = generate(GenConfig(seed=0, n_nodes=5000, n_add_events=40000,
                             attach_exponent=exponent, decay_bias=bias))
    assert _flush_sizes(tel).max() * _BATCH_FLUSH >= 5000
    buffer = io.StringIO()
    tel.write(buffer)
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    assert digest == PINNED_BATCHED_STREAMS[bias, exponent]


def _flush_sizes(tel) -> np.ndarray:
    """The deaths each flush of ``generate`` dropped: those due after the
    previous add tick and by the next one, then those after the last."""
    add_ticks = np.unique(tel.time[tel.sign > 0])
    death_ticks = tel.time[tel.sign < 0]
    return np.bincount(np.searchsorted(add_ticks, death_ticks),
                       minlength=len(add_ticks) + 1)


def _stream_or_error(generator, config: GenConfig) -> str:
    """The canonical event file, or the saturation error's message."""
    try:
        tel = generator(config)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"
    buffer = io.StringIO()
    tel.write(buffer)
    return buffer.getvalue()


#: Many nodes and a long window: every flush drops fewer than n / 16
#: deaths and walks the tree per edge.
_PER_EDGE_FLUSHES = GenConfig(seed=10, n_nodes=3000, n_add_events=3000,
                              attach_exponent=1.5, span=1000.0)
#: Few nodes and the default window: most deaths are dropped by flushes of
#: at least n / 16, which update the float-weight tree in one pass.
_BATCHED_FLUSHES = GenConfig(seed=11, n_nodes=400, n_add_events=6000,
                             attach_exponent=1.5, decay_bias="low_degree")

#: Hubs this steep leave no free pair among the likely draws.
_SATURATED = GenConfig(seed=0, n_nodes=20, n_add_events=100, attach_exponent=4.0)


@pytest.mark.parametrize("config", [
    *(GenConfig(seed=seed, n_nodes=120, n_add_events=1500,
                attach_exponent=exponent, decay_bias=bias)
      for bias in ("none", "low_degree", "few_common_neighbors")
      for exponent in (0.0, 1.0, 1.5) for seed in (3, 4)),
    _SATURATED,
    # One tick holds every add.
    pytest.param(GenConfig(seed=6, n_nodes=120, n_add_events=1500, span=1.0),
                 id="one-tick-window"),
    # Every add and every death has its own tick; deaths fall between and
    # after the add ticks.
    pytest.param(GenConfig(seed=7, n_nodes=40, n_add_events=50, span=1e12),
                 id="one-event-per-tick"),
    # Lifetimes beyond int64: nothing dies.
    pytest.param(GenConfig(seed=8, n_nodes=40, n_add_events=200,
                           decay_half_life=1e25, span=10.0),
                 id="lifetimes-beyond-int64"),
    pytest.param(GenConfig(seed=9, n_nodes=2, n_add_events=2), id="two-nodes"),
    pytest.param(_PER_EDGE_FLUSHES, id="per-edge-flushes"),
    pytest.param(_BATCHED_FLUSHES, id="batched-flushes"),
], ids=lambda c: f"{c.decay_bias}-{c.attach_exponent}-{c.seed}")
def test_stream_matches_cumsum_reference(config):
    """The Fenwick-tree sampler draws the endpoints the full cumulative sum
    drew, so every stream, and the saturation error, are unchanged."""
    expected = _stream_or_error(reference.generate, config)
    assert _stream_or_error(generate, config) == expected
    if config == _SATURATED:
        assert expected.startswith("RuntimeError: could not place a new edge")


def test_flush_configs_take_their_path():
    """The two flush configs above reach the reference through the path
    their names say."""
    sizes = _flush_sizes(generate(_PER_EDGE_FLUSHES))
    assert sizes.sum() > 100 and (sizes * _BATCH_FLUSH < 3000).all()
    sizes = _flush_sizes(generate(_BATCHED_FLUSHES))
    batched = sizes[sizes * _BATCH_FLUSH >= 400].sum()
    assert batched > 0.9 * sizes.sum() and (sizes[sizes > 0] * _BATCH_FLUSH < 400).any()


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 40),
       adds=st.integers(1, 300),
       bias=st.sampled_from(["none", "low_degree", "few_common_neighbors"]),
       exponent=st.sampled_from([0.0, 1.0, 1.5, 3.0]),
       span=st.floats(0.5, 1e6))
def test_small_streams_match_cumsum_reference(seed, n, adds, bias, exponent,
                                              span):
    """Any small config gives the reference's bytes, or its error."""
    config = GenConfig(seed=seed, n_nodes=n,
                       n_add_events=min(adds, n * (n - 1)),
                       attach_exponent=exponent, decay_bias=bias, span=span)
    expected = _stream_or_error(reference.generate, config)
    assert _stream_or_error(generate, config) == expected


def _fenwick_of(weights) -> _Fenwick:
    tree = _Fenwick(len(weights), weights[0])
    for i, w in enumerate(weights):
        tree.add(i, w - weights[0])
    return tree


_SIZES = st.one_of(st.sampled_from([1, 2, 4, 8, 16, 64]), st.integers(1, 70))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_fenwick_search_matches_searchsorted(data):
    """With integer weights, each half of ``search_pair(x, y)`` is
    ``searchsorted(cumsum(w), ., side="right")``, for every ordered pair of
    probes at 0, on every prefix boundary and between them, also after
    interleaved +-1 updates."""
    n = data.draw(_SIZES, label="n")
    weights = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                        label="weights")
    updates = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.sampled_from([-1, 1])),
                                 max_size=20), label="updates")
    tree = _fenwick_of(weights)
    for step in [None, *updates]:
        if step is not None:
            i, delta = step
            if weights[i] + delta < 0:
                continue
            weights[i] += delta
            tree.add(i, delta)
        cumulative = np.cumsum(weights)
        total = int(cumulative[-1])
        assert tree.total == total
        if total == 0:
            continue
        probes = sorted({0, *(int(c) for c in cumulative if c < total),
                         total - 0.5, (1 - 2 ** -53) * total,
                         data.draw(st.floats(0, total, exclude_max=True),
                                   label="x")})
        expected = np.searchsorted(cumulative, probes, side="right").tolist()
        for x, ex in zip(probes, expected):
            for y, ey in zip(probes, expected):
                assert tree.search_pair(x, y) == (ex, ey), (x, y, weights)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_fenwick_search_stays_below_n(data):
    """The largest draw, ``u = 1 - 2**-53``, never picks index ``n``, also
    when float weights round the tree's total and the search's running sum
    differently; in a pair each value descends as it would alone."""
    n = data.draw(_SIZES, label="n")
    weights = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
                        label="weights")
    tree = _fenwick_of(weights)
    probes = (0.0, (1 - 2 ** -53) * tree.total)
    low, high = tree.search_pair(*probes)
    assert low == 0 and high < n
    for x, y in itertools.product(probes, repeat=2):
        assert tree.search_pair(x, y) == (tree.search_pair(x, x)[0],
                                          tree.search_pair(y, y)[1])


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.data())
def test_fenwick_add_all_matches_adds(data):
    """``add_all`` of integer deltas leaves the tree list and the total that
    one ``add`` per weight leaves.  With float weights the sums round in
    another order, and the search still answers the same on random probes."""
    n = data.draw(_SIZES, label="n")
    old = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="old")
    new = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="new")
    one_by_one, batched = _fenwick_of(old), _fenwick_of(old)
    for i, (before, after) in enumerate(zip(old, new)):
        one_by_one.add(i, after - before)
    batched.add_all(np.subtract(new, old, dtype=np.float64))
    assert batched.tree == one_by_one.tree
    assert batched.total == one_by_one.total == sum(new)

    old = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n), label="old")
    new = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n), label="new")
    one_by_one, batched = _fenwick_of(old), _fenwick_of(old)
    for i, (before, after) in enumerate(zip(old, new)):
        one_by_one.add(i, after - before)
    batched.add_all(np.subtract(new, old))
    assert batched.total == pytest.approx(one_by_one.total, rel=1e-12)
    probes = np.random.default_rng(n).random((50, 2)) * min(batched.total,
                                                           one_by_one.total)
    for x, y in probes.tolist():
        assert batched.search_pair(x, y) == one_by_one.search_pair(x, y)


def test_ctypes_uniforms_are_generator_random():
    """``generate`` draws its uniforms with the bit generator's C
    ``next_double`` through ``ctypes``, between ``rng.exponential`` calls.
    numpy does not promise that this is ``Generator.random()``; this checks
    the values and the state after 10k rounds of two uniforms and one
    exponential."""
    a, b = np.random.default_rng(27), np.random.default_rng(27)
    bits = b.bit_generator.ctypes
    next_double, state = bits.next_double, bits.state
    scales = (33.4, 8.35, math.inf)
    by_method, by_ctypes = [], []
    for k in range(10_000):
        scale = scales[k % 3]
        by_method += (a.random(), a.random(), a.exponential(scale))
        by_ctypes += (next_double(state), next_double(state), b.exponential(scale))
    assert by_method == by_ctypes
    assert a.bit_generator.state == b.bit_generator.state


def test_different_seeds_differ():
    a = generate(GenConfig(seed=1, n_nodes=120, n_add_events=1500))
    b = generate(GenConfig(seed=2, n_nodes=120, n_add_events=1500))
    assert not (np.array_equal(a.src, b.src) and np.array_equal(a.time, b.time))


def test_output_is_valid_event_stream():
    tel = generate(GenConfig(seed=4, n_nodes=150, n_add_events=2500))
    assert np.all(np.diff(tel.time) >= 0)
    assert np.all(tel.src != tel.dst)
    # deletes only ever target live edges; adds only absent ones
    live = set()
    for e in tel.events:
        pair = (e.src, e.dst)
        if e.is_add:
            assert pair not in live
            live.add(pair)
        else:
            assert pair in live
            live.discard(pair)
    assert tel.stats.noop_deletes == 0
    assert tel.stats.duplicate_adds == 0


def test_add_event_count_matches_config():
    tel = generate(GenConfig(seed=8, n_nodes=100, n_add_events=2000))
    assert int((tel.sign > 0).sum()) == 2000


def test_deletion_share_near_target():
    shares = [deletion_share(generate(GenConfig(seed=s)))
              for s in (0, 1, 2)]
    for share in shares:
        assert 0.24 <= share <= 0.31


def test_window_span_solver_consistency():
    span = solve_window_span(0.27, 23.0)
    rate = math.log(2.0) / 23.0
    x = span * rate
    deleted = 1.0 - (1.0 - math.exp(-x)) / x
    assert deleted == pytest.approx(0.27 / 0.73, rel=1e-9)


def _scipy_span(share: float, half_life: float):
    """The window span as ``scipy.optimize.brentq`` solves it, or ``None``
    where brentq finds no sign change on the bracket."""
    target = share / (1.0 - share)
    try:
        x = brentq(lambda x: 1.0 - (1.0 - math.exp(-x)) / x - target,
                   1e-9, 200.0)
    except ValueError:
        return None
    return x / (math.log(2.0) / half_life)


def test_window_span_matches_scipy_brentq():
    """The in-package Brent solve gives brentq's bits on a grid of share
    targets in (0, 0.5), and rejects the same targets near both ends."""
    grid = np.linspace(0.0, 0.5, 20_201)[1:-1]
    edges = np.concatenate([np.geomspace(1e-15, 1e-8, 60),
                            0.5 - np.geomspace(1e-12, 1e-2, 60)])
    rejected = []
    for share in np.concatenate([grid, edges]).tolist():
        want = _scipy_span(share, 23.0)
        if want is None:
            rejected.append(share)
            with pytest.raises(ValueError, match="^deletion_share_target "):
                solve_window_span(share, 23.0)
        else:
            assert solve_window_span(share, 23.0).hex() == want.hex(), share
    low = [share for share in rejected if share < 0.25]
    assert low and len(low) < len(rejected)
    assert len(grid) + len(edges) - len(rejected) >= 20_000
    assert solve_window_span(0.27, 23.0) == 33.431642180658415


@pytest.mark.parametrize("share", [1e-12, 0.4999999])
def test_unsolvable_share_target_names_the_option(share, capsys):
    message = rf"^deletion_share_target {share!r} has no window span: "
    with pytest.raises(ValueError, match=message):
        GenConfig(seed=0, deletion_share_target=share).validated()
    assert main(["gen", "--seed", "0", "--deletion-share-target", str(share),
                 "--output", "-"]) == 2
    err = capsys.readouterr().err
    assert re.match(message, err.removeprefix("error: "))
    assert "Traceback" not in err


@pytest.mark.parametrize("share, half_life, message", [
    (0.27, -5.0, r"^half_life must be positive and finite, got -5\.0$"),
    (0.27, 0.0, r"^half_life must be positive and finite, got 0\.0$"),
    (0.27, math.inf, r"^half_life must be positive and finite, got inf$"),
    (1.0, 23.0, r"^deletion_share_target 1\.0 has no window span: "),
    (1.5, 23.0, r"^deletion_share_target 1\.5 has no window span: "),
], ids=["negative-half-life", "zero-half-life", "infinite-half-life",
        "share-one", "share-above-one"])
def test_window_span_checks_its_arguments(share, half_life, message):
    """A half-life that is not positive and finite, or a share target
    outside (0, 1), is a ValueError naming the value given, not a negative
    span or a ZeroDivisionError."""
    with pytest.raises(ValueError, match=message):
        solve_window_span(share, half_life)


@pytest.mark.parametrize("field, value, message", [
    ("n_nodes", 1, r"^need at least 2 nodes, got 1$"),
    ("n_add_events", 0, r"^need at least one add event$"),
    ("decay_half_life", 0.0, r"^decay_half_life must be positive$"),
    ("hazard_multiplier", -1.0, r"^hazard_multiplier must be positive$"),
    ("span", 0.0, r"^span must be positive$"),
])
def test_out_of_range_config_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        GenConfig(seed=0, **{field: value}).validated()


def test_deletion_share_of_empty_stream_rejected():
    with pytest.raises(ValueError, match="^empty event stream$"):
        deletion_share(TemporalEdgeList.from_records([], n=0))


def test_infeasible_config_rejected():
    with pytest.raises(ValueError, match="capacity"):
        GenConfig(seed=0, n_nodes=5, n_add_events=100).validated()


def test_bad_bias_rejected():
    with pytest.raises(ValueError, match="decay_bias"):
        GenConfig(seed=0, decay_bias="heavy").validated()


def test_bad_share_target_rejected():
    with pytest.raises(ValueError, match="deletion_share_target"):
        GenConfig(seed=0, deletion_share_target=0.6).validated()


@pytest.mark.parametrize("field", ["span", "decay_half_life",
                                   "hazard_multiplier", "attach_exponent"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_rejected(field, value):
    config = GenConfig(seed=0, decay_bias="low_degree", **{field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
        config.validated()


@pytest.mark.parametrize("field, value", [("seed", 10.5), ("n_nodes", 5.5),
                                          ("n_add_events", 1.5)])
def test_non_integer_seed_and_counts_rejected(field, value):
    config = GenConfig(**{"seed": 0, field: value})
    with pytest.raises(ValueError,
                       match=rf"^{field}: expected integers that int64 holds, got {value}$"):
        config.validated()


def test_integral_float_seed_and_counts_give_the_int_stream():
    floats = GenConfig(seed=3.0, n_nodes=50.0, n_add_events=200.0)
    valid = floats.validated()
    assert (valid.seed, valid.n_nodes, valid.n_add_events) == (3, 50, 200)
    assert all(type(v) is int for v in (valid.seed, valid.n_nodes, valid.n_add_events))
    a, b = generate(floats), generate(GenConfig(seed=3, n_nodes=50, n_add_events=200))
    assert a.node_ids == b.node_ids
    for column in ("src", "dst", "sign", "time"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


@pytest.mark.parametrize("exponent, fits", [(133, True), (134, False), (200, False)])
def test_attach_exponent_whose_weights_overflow_rejected(exponent, fits):
    """100 weights of up to 199 ** exponent must sum within float64."""
    config = GenConfig(seed=0, n_nodes=100, n_add_events=50, attach_exponent=exponent)
    if fits:
        assert config.validated().attach_exponent == exponent
    else:
        with pytest.raises(ValueError, match=rf"^attach_exponent {exponent} makes the "
                           "attachment weights of 100 nodes overflow float64$"):
            config.validated()


@pytest.mark.parametrize("field, value", [("span", 1e19),
                                          ("decay_half_life", 1e300)])
def test_window_beyond_int64_rejected(field, value):
    with pytest.raises(ValueError, match=rf"^{field} .*int64"):
        GenConfig(seed=0, **{field: value}).validated()


def test_largest_int64_window_generates():
    span = float(2 ** 63 - 1024)  # the largest float below 2**63
    tel = generate(GenConfig(seed=0, n_nodes=10, n_add_events=5, span=span))
    assert int((tel.sign > 0).sum()) == 5 and tel.time_last <= span


def test_half_life_round_trip():
    tel = generate(GenConfig(seed=12, n_nodes=500, n_add_events=20000))
    fit = fit_exponential_half_life(edge_lifetimes(tel))
    assert abs(fit.half_life - 23.0) / 23.0 < 0.05


def test_custom_half_life_round_trip():
    tel = generate(GenConfig(seed=13, n_nodes=500, n_add_events=20000,
                             decay_half_life=40.0))
    fit = fit_exponential_half_life(edge_lifetimes(tel))
    assert abs(fit.half_life - 40.0) / 40.0 < 0.05


def test_low_degree_bias_shows_in_rank_correlation():
    """With the low-degree hazard bias, survival through the evaluation
    window correlates positively with the endpoint-degree product."""
    tel = generate(GenConfig(seed=21, n_nodes=800, n_add_events=8000,
                             decay_bias="low_degree"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = temporal_split(tel, 0.75, seed=21)
    g = snapshot_at(tel, split.t1)
    products, survived = [], []
    for label, pairs in ((0, split.test_set), (1, split.zero_test_set)):
        for i, j in pairs:
            products.append(g.degree(int(i), "out") * g.degree(int(j), "out"))
            survived.append(label)
    rho = spearmanr(products, survived).statistic
    assert rho > 0.1


def test_unbiased_streams_show_no_degree_correlation():
    tel = generate(GenConfig(seed=22, n_nodes=800, n_add_events=8000))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = temporal_split(tel, 0.75, seed=22)
    g = snapshot_at(tel, split.t1)
    products, survived = [], []
    for label, pairs in ((0, split.test_set), (1, split.zero_test_set)):
        for i, j in pairs:
            products.append(g.degree(int(i), "out") * g.degree(int(j), "out"))
            survived.append(label)
    rho = spearmanr(products, survived).statistic
    assert abs(rho) < 0.1


def test_few_common_neighbors_bias_runs_and_biases():
    """Edges with no shared neighbor at add time die faster under the
    few_common_neighbors bias, raising the deletion share."""
    biased = generate(GenConfig(seed=31, n_nodes=300, n_add_events=5000,
                                decay_bias="few_common_neighbors"))
    plain = generate(GenConfig(seed=31, n_nodes=300, n_add_events=5000))
    assert deletion_share(biased) > deletion_share(plain)


def test_span_override_respected():
    tel = generate(GenConfig(seed=41, n_nodes=200, n_add_events=3000,
                             span=10.0))
    assert tel.time_last <= 10
    # a short window censors most lifetimes, so deletes are scarce
    assert deletion_share(tel) < 0.27


def test_attach_exponent_skews_degrees():
    flat = generate(GenConfig(seed=51, n_nodes=300, n_add_events=4000,
                              attach_exponent=0.0))
    skewed = generate(GenConfig(seed=51, n_nodes=300, n_add_events=4000,
                                attach_exponent=1.5))
    g_flat = snapshot_at(flat, flat.time_last)
    g_skew = snapshot_at(skewed, skewed.time_last)
    assert g_skew.out_degrees.max() > g_flat.out_degrees.max()


def test_import_does_not_load_scipy():
    """The package depends on numpy alone: importing it and its CLI loads
    no scipy."""
    src = str(Path(linkdecay.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import linkdecay, linkdecay.cli; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


#: Runs ``linkdecay.cli.main(argv)`` with every ``scipy`` import failing.
_WITHOUT_SCIPY = """\
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported")
sys.path.insert(0, sys.argv[1])
from linkdecay.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_gen_runs_without_scipy(tmp_path, monkeypatch, capsys):
    """``linkdecay gen`` solves its default window with scipy unimportable,
    and writes the events, summary and manifest of an in-process run."""
    src = str(Path(linkdecay.__file__).resolve().parents[1])
    argv = ["gen", "--seed", "3", "--n-nodes", "120", "--n-add-events", "900",
            "--decay-bias", "low_degree", "--output", "events.tsv"]
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    blocked.mkdir()
    here.mkdir()
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, src, *argv],
                         cwd=blocked, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    monkeypatch.chdir(here)
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out
    assert "span=" in run.stdout
    for name in ("events.tsv", "events.tsv.manifest"):
        assert (blocked / name).read_bytes() == (here / name).read_bytes()
