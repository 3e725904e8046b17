"""Command-line interface: subcommands, exit codes, manifests, configs."""

import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from linkdecay import evaluation, scoring
from linkdecay.cli import main
from linkdecay.datasets import swim_surf_events
from linkdecay.events import read_events, read_id_map
from linkdecay.generate import GenConfig, generate


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "fixture.tsv"
    swim_surf_events().write(str(path))
    return str(path)


@pytest.fixture(scope="module")
def gen_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "events.tsv"
    generate(GenConfig(seed=7, n_nodes=200, n_add_events=3000)).write(str(path))
    return str(path)


def _summary(capsys):
    out = capsys.readouterr().out
    values = {}
    for line in out.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key] = value
    return values


# ---- exit codes ----

def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys, fixture_file):
    with pytest.raises(SystemExit) as exc:
        main(["score", "--input", fixture_file, "--frobnicate"])
    assert exc.value.code == 1


def test_missing_seed_is_usage_error(capsys, fixture_file):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--input", fixture_file])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_missing_input_file_is_data_error(capsys, tmp_path):
    code = main(["snapshot", "--input", str(tmp_path / "nope.tsv"),
                 "--at", "5"])
    assert code == 2


def test_malformed_input_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only three\tfields\there\n")
    assert main(["ingest", "--input", str(bad), "--output", "-"]) == 2


def test_gen_with_overflowing_attach_exponent_is_data_error(capsys, recwarn):
    code = main(["gen", "--seed", "0", "--n-nodes", "100", "--n-add-events", "50",
                 "--attach-exponent", "200", "--output", "-"])
    assert code == 2
    assert ("attach_exponent 200.0 makes the attachment weights of 100 nodes "
            "overflow float64") in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_gen_whose_weight_sits_on_few_nodes_is_data_error(capsys):
    # 30 adds among 90 pairs: far from saturated, but at exponent -30 one
    # node of degree 1 holds nearly all of the attachment weight.
    code = main(["gen", "--seed", "0", "--n-nodes", "10", "--n-add-events", "30",
                 "--attach-exponent", "-30", "--output", "-"])
    assert code == 2
    assert ("could not place a new edge after 1000 attempts: every draw was a "
            "self-pair or a live edge; the graph is too saturated for this config, "
            "or attach_exponent -30.0 puts the attachment weight on too few nodes"
            ) in capsys.readouterr().err


def test_self_loop_error_policy_is_data_error(capsys, tmp_path):
    loops = tmp_path / "loops.tsv"
    loops.write_text("a\ta\t+1\t5\n")
    assert main(["ingest", "--input", str(loops), "--output", "-",
                 "--self-loops", "error"]) == 2


def test_evaluate_empty_stream_is_data_error(capsys, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["evaluate", "--input", str(empty), "--seed", "1"]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "linkdecay" in capsys.readouterr().out


# ---- ingest / snapshot / score ----

def test_ingest_summary_and_id_map(capsys, fixture_file, tmp_path):
    out = tmp_path / "norm.tsv"
    ids = tmp_path / "ids.tsv"
    code = main(["ingest", "--input", fixture_file,
                 "--output", str(out), "--id-map", str(ids)])
    assert code == 0
    values = _summary(capsys)
    assert values["events"] == "16"
    assert values["nodes"] == "6"
    assert values["self-loops-skipped"] == "0"
    assert "water\t0" in ids.read_text()
    # normalization is a fixed point on already-canonical files
    assert out.read_text() == Path(fixture_file).read_text()


def test_snapshot_edges(capsys, fixture_file, tmp_path):
    out = tmp_path / "snap.tsv"
    assert main(["snapshot", "--input", fixture_file, "--at", "75",
                 "--output", str(out)]) == 0
    values = _summary(capsys)
    assert values["edges"] == "14"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 15
    assert "swim\tsurf" in lines


def test_snapshot_without_at_is_usage_error(capsys, fixture_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["snapshot", "--input", fixture_file,
              "--output", str(tmp_path / "snap.tsv")])
    assert exc.value.code == 1
    assert "--at" in capsys.readouterr().err
    assert not (tmp_path / "snap.tsv").exists()


def test_snapshot_after_bridge_delete(capsys, fixture_file, tmp_path):
    out = tmp_path / "snap.tsv"
    assert main(["snapshot", "--input", fixture_file, "--at", "80",
                 "--output", str(out)]) == 0
    assert _summary(capsys)["edges"] == "12"
    assert "swim\tsurf" not in out.read_text()


def test_score_pinned_fixture_values(capsys, fixture_file, tmp_path):
    out = tmp_path / "scores.tsv"
    assert main(["score", "--input", fixture_file, "--at", "75",
                 "--model", "score", "--measure", "cn", "--combo", "sym",
                 "--output", str(out)]) == 0
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        src, dst, score = line.split("\t")
        rows[(src, dst)] = float(score)
    assert rows[("swim", "surf")] == 0.0
    assert rows[("water", "beach")] == -1.0


def test_score_pairs_file(capsys, fixture_file, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("swim\tsurf\nwater\tSEO\n")
    out = tmp_path / "scores.tsv"
    assert main(["score", "--input", fixture_file, "--at", "75",
                 "--model", "network", "--measure", "pa", "--combo", "sym",
                 "--pairs-file", str(pairs), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()[1:]
    assert lines[0] == "swim\tsurf\t4"
    assert len(lines) == 2


def test_score_pairs_file_unknown_node(capsys, fixture_file, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("swim\tlagoon\n")
    assert main(["score", "--input", fixture_file,
                 "--pairs-file", str(pairs)]) == 2


@pytest.mark.parametrize("line", ["swim\n", "swim\tsurf\twater\n"])
def test_score_pairs_file_line_without_two_fields(capsys, fixture_file, tmp_path, line):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("swim\tsurf\n" + line)
    assert main(["score", "--input", fixture_file,
                 "--pairs-file", str(pairs)]) == 2
    assert "line 2: expected 'src<TAB>dst'" in capsys.readouterr().err


# ---- verify ----

def test_verify_random_graph_cn_edges_exact(capsys):
    assert main(["verify", "--random-nodes", "30", "--density", "0.2",
                 "--seed", "9", "--measure", "cn", "--combo", "sym",
                 "--pairs", "edges"]) == 0
    values = _summary(capsys)
    assert values["max_abs_deviation"] == "0"
    assert values["edge_exact"] == "true"
    assert int(values["pairs_checked"]) > 0


def test_verify_fixture_all_pairs(capsys, fixture_file):
    assert main(["verify", "--input", fixture_file, "--at", "75",
                 "--measure", "cn", "--combo", "sym", "--pairs", "all"]) == 0
    values = _summary(capsys)
    assert float(values["max_abs_deviation"]) <= 2.0


def test_verify_score_model_is_data_error(capsys, fixture_file):
    assert main(["verify", "--input", fixture_file,
                 "--model", "score", "--measure", "cn"]) == 2


def test_verify_empty_sample_is_data_error(capsys):
    assert main(["verify", "--random-nodes", "60", "--pairs", "all",
                 "--max-pairs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: max_pairs must be at least 1, got 0" in captured.err


def test_verify_refuses_a_large_random_graph_before_drawing_it(capsys):
    tracemalloc.start()
    try:
        code = main(["verify", "--random-nodes", "100000", "--density", "0.001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: refusing to materialize the complement of a 100000-node graph "
        "(limit 2000): the complement is dense\n")
    assert peak < 16e6


@pytest.mark.parametrize("flags,message", [
    (["--pairs", "all", "--max-pairs", "0"], "max_pairs must be at least 1, got 0"),
    (["--model", "score"], "closed-form check applies to the 'network' model only"),
])
def test_verify_large_random_graph_keeps_error_precedence(capsys, flags, message):
    assert main(["verify", "--random-nodes", "100000", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---- evaluate / evaluate-lp / survival ----

def test_evaluate_fixture_ap_line(capsys, fixture_file, tmp_path):
    out = tmp_path / "rank.tsv"
    code = main(["evaluate", "--input", fixture_file, "--model", "score",
                 "--measure", "cn", "--combo", "sym", "--seed", "3",
                 "--output", str(out)])
    assert code == 0
    values = _summary(capsys)
    assert values["ap"] == "1"
    assert values["positives"] == "2"
    assert values["t1"] == "60"
    lines = out.read_text().splitlines()
    assert lines[0] == "# src\tdst\tscore\tlabel\trank"
    assert len(lines) == 5  # 2 positives + 2 sampled survivors
    assert lines[1].endswith("\ttest\t1")


def test_evaluate_expected_ties(capsys, gen_file):
    assert main(["evaluate", "--input", gen_file, "--model", "score",
                 "--measure", "cn", "--combo", "sym", "--seed", "2",
                 "--tie-break", "expected"]) == 0
    values = _summary(capsys)
    assert values["tie-break"] == "expected"
    assert 0.0 <= float(values["ap"]) <= 1.0


def test_evaluate_lp_summary(capsys, gen_file):
    assert main(["evaluate-lp", "--input", gen_file, "--measure", "cn",
                 "--combo", "sym", "--seed", "2"]) == 0
    values = _summary(capsys)
    assert 0.0 <= float(values["ap"]) <= 1.0
    assert int(values["positives"]) > 0


def test_survival_fit_and_curve(capsys, gen_file, tmp_path):
    curve = tmp_path / "curve.tsv"
    assert main(["survival", "--input", gen_file,
                 "--output", str(curve)]) == 0
    values = _summary(capsys)
    half = float(values["half-life"])
    assert 18.0 < half < 28.0
    lines = curve.read_text().splitlines()
    assert lines[0] == "# t\tfraction_surviving"
    assert lines[1] == "0\t1"


# ---- gen / sweep / manifests ----

def test_gen_deterministic_and_manifest(capsys, tmp_path):
    out_a = tmp_path / "a.tsv"
    out_b = tmp_path / "b.tsv"
    flags = ["--seed", "5", "--n-nodes", "150", "--n-add-events", "2000"]
    assert main(["gen", *flags, "--output", str(out_a)]) == 0
    assert main(["gen", *flags, "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    manifest = (tmp_path / "a.tsv.manifest").read_text()
    assert "subcommand=gen\n" in manifest
    assert "seed=5\n" in manifest
    assert "span=" in manifest  # resolved, not left implicit


def test_gen_rerun_from_manifest(capsys, tmp_path):
    out = tmp_path / "events.tsv"
    assert main(["gen", "--seed", "5", "--n-nodes", "150",
                 "--n-add-events", "2000", "--output", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["gen", "--config", str(out) + ".manifest"]) == 0
    assert out.read_bytes() == first


def test_gen_id_map_names_each_node_by_its_index(capsys, tmp_path):
    out, ids = tmp_path / "events.tsv", tmp_path / "ids.tsv"
    assert main(["gen", "--seed", "5", "--n-nodes", "40", "--n-add-events", "300",
                 "--output", str(out), "--id-map", str(ids)]) == 0
    nodes = read_events(str(out)).node_count
    assert nodes > 1
    assert read_id_map(str(ids)) == {str(i): i for i in range(nodes)}


def test_gen_infeasible_config_is_data_error(capsys):
    assert main(["gen", "--seed", "1", "--n-nodes", "4",
                 "--n-add-events", "1000", "--output", "-"]) == 2


@pytest.mark.parametrize("flag, value", [("--span", "1e19"),
                                         ("--decay-half-life", "1e300")])
def test_gen_window_beyond_int64_is_data_error(capsys, flag, value):
    assert main(["gen", "--seed", "1", flag, value, "--output", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} ")
    assert "int64" in err


@pytest.mark.parametrize("flags, finite", [
    (["--decay-half-life", "1e308"], ["--decay-half-life", "1e300"]),
    (["--hazard-multiplier", "5e-324", "--decay-bias", "few_common_neighbors"],
     ["--hazard-multiplier", "1e-300", "--decay-bias", "few_common_neighbors"]),
])
def test_gen_infinite_lifetime_is_never_deleted(capsys, tmp_path, flags, finite):
    """A lifetime scale that overflows, or a hazard that underflows to 0,
    draws infinite lifetimes.  Those edges outlast the window, and the
    stream equals one whose lifetimes are finite but past the window, so
    the draws did not shift."""
    base = ["gen", "--seed", "0", "--n-nodes", "20", "--n-add-events", "10",
            "--span", "10"]
    out, ref = tmp_path / "inf.tsv", tmp_path / "finite.tsv"
    assert main([*base, *flags, "--output", str(out)]) == 0
    assert main([*base, *finite, "--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert (read_events(out).sign > 0).sum() == 10


def test_sweep_forty_rows(capsys, gen_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--input", gen_file, "--seed", "13",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# model\tmeasure\tcombo\tap\tpositives"
    assert len(lines) == 41
    assert lines[1].startswith("score\tpa\tsym\t")
    assert lines[-1].startswith("network\tadad\tout\t")


def test_sweep_rerun_from_manifest_is_byte_identical(capsys, gen_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--input", gen_file, "--seed", "13",
                 "--output", str(out)]) == 0
    first = out.read_bytes()
    manifest_first = (tmp_path / "sweep.tsv.manifest").read_bytes()
    out.unlink()
    assert main(["sweep", "--config", str(out) + ".manifest"]) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "sweep.tsv.manifest").read_bytes() == manifest_first


def test_sweep_snapshots_once_and_reads_features_once_per_combo(
        gen_file, tmp_path, monkeypatch):
    """The 40 specs share one t1 snapshot and one pair-feature pass per
    degree combination; the stream is small enough for one block each."""
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(evaluation, "snapshot_at")
    counted(scoring, "_pair_features")
    assert main(["sweep", "--input", gen_file, "--seed", "13",
                 "--output", str(tmp_path / "sweep.tsv")]) == 0
    assert calls == {"snapshot_at": 1, "_pair_features": 4}


def test_explicit_flags_override_config(capsys, gen_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--input", gen_file, "--seed", "13",
                 "--output", str(out)]) == 0
    values_rerun = None
    assert main(["sweep", "--config", str(out) + ".manifest",
                 "--seed", "14", "--output", "-"]) == 0
    # the summary lands on stderr when data goes to stdout
    err = capsys.readouterr().err
    assert "seed=14" in err
    # an abbreviated flag is explicit too
    ranking = tmp_path / "ranking.tsv"
    assert main(["evaluate", "--input", gen_file, "--seed", "13",
                 "--fraction", "0.75", "--output", str(ranking)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(ranking) + ".manifest",
                 "--fract", "0.5", "--output", "-"]) == 0
    assert "fraction=0.5\n" in capsys.readouterr().err


def test_config_bad_value_is_data_error(capsys, tmp_path):
    config = tmp_path / "conf.txt"
    for line in ("n-nodes=many", "decay-bias=sideways", "n-nodes 40"):
        config.write_text(f"seed=3\n{line}\n")
        assert main(["gen", "--config", str(config), "--output", "-"]) == 2
        assert "error:" in capsys.readouterr().err


def test_config_bad_boolean_is_data_error(capsys, fixture_file, tmp_path):
    config = tmp_path / "conf.txt"
    config.write_text("strict-deletes=maybe\n")
    assert main(["ingest", "--input", fixture_file, "--config", str(config),
                 "--output", str(tmp_path / "out.tsv")]) == 2
    assert "cannot read 'maybe' as a boolean" in capsys.readouterr().err


def test_config_wrong_subcommand_is_data_error(capsys, gen_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--input", gen_file, "--seed", "13",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(out) + ".manifest"]) == 2
    assert "subcommand" in capsys.readouterr().err


def test_config_unknown_key_is_data_error(capsys, tmp_path):
    config = tmp_path / "conf.txt"
    config.write_text("seed=3\nwarp_factor=9\n")
    assert main(["gen", "--config", str(config), "--output", "-"]) == 2


def test_config_supplies_required_seed(capsys, tmp_path):
    config = tmp_path / "conf.txt"
    config.write_text("seed=6\nn-nodes=120\nn-add-events=1500\n")
    out = tmp_path / "events.tsv"
    assert main(["gen", "--config", str(config), "--output", str(out)]) == 0
    assert _summary(capsys)["seed"] == "6"


# ---- the run shell: manifest and summary after the work ----

# Each file-writing subcommand with flags that differ from its defaults.
_FILE_RUNS = {
    "ingest": ["--self-loops", "error"],
    "snapshot": ["--at", "30.5"],
    "score": ["--model", "network", "--measure", "adad", "--combo", "asym",
              "--adad-complement-weights"],
    "evaluate": ["--seed", "3", "--measure", "jacc", "--fraction", "0.6",
                 "--tie-break", "expected"],
    "evaluate-lp": ["--seed", "4", "--measure", "cn", "--combo", "in"],
    "survival": [],
    "gen": ["--seed", "5", "--n-nodes", "150", "--n-add-events", "2000",
            "--decay-bias", "low_degree"],
    "sweep": ["--seed", "13"],
}


def _file_run(subcommand, gen_file):
    source = [] if subcommand == "gen" else ["--input", gen_file]
    return [subcommand, *source, *_FILE_RUNS[subcommand]]


@pytest.mark.parametrize("subcommand", _FILE_RUNS)
def test_rerun_from_manifest_is_byte_identical(capsys, gen_file, tmp_path,
                                               subcommand):
    out = tmp_path / "result.tsv"
    manifest = tmp_path / "result.tsv.manifest"
    argv = _file_run(subcommand, gen_file)
    assert main([*argv, "--output", str(out)]) == 0
    first, manifest_first = out.read_bytes(), manifest.read_bytes()
    summary = capsys.readouterr().out
    assert f"subcommand={subcommand}\n" in manifest_first.decode()
    out.unlink()
    assert main([subcommand, "--config", str(manifest)]) == 0
    assert out.read_bytes() == first
    assert manifest.read_bytes() == manifest_first
    assert capsys.readouterr().out == summary


@pytest.mark.parametrize("subcommand", _FILE_RUNS)
def test_stdout_output_writes_no_manifest_and_summary_to_stderr(
        capsys, gen_file, tmp_path, monkeypatch, subcommand):
    argv = _file_run(subcommand, gen_file)
    out = tmp_path / "result.tsv"
    assert main([*argv, "--output", str(out)]) == 0
    summary = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--output", "-"]) == 0
    captured = capsys.readouterr()
    assert sorted(tmp_path.iterdir()) == before
    assert captured.err == summary
    assert captured.out == out.read_text()


def test_failed_run_leaves_no_manifest(capsys, gen_file, tmp_path):
    ranking = tmp_path / "r.tsv"
    code = main(["evaluate", "--input", gen_file, "--seed", "4",
                 "--output", str(ranking),
                 "--survival-output", str(tmp_path / "no" / "such" / "s.tsv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert ranking.exists()
    assert not (tmp_path / "r.tsv.manifest").exists()


@pytest.mark.parametrize("flag", ["--span", "--decay-half-life",
                                  "--hazard-multiplier", "--attach-exponent"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_gen_non_finite_float_is_data_error(capsys, tmp_path, flag, value):
    out = tmp_path / "events.tsv"
    code = main(["gen", "--seed", "1", "--n-nodes", "50", "--n-add-events",
                 "100", "--decay-bias", "low_degree", f"{flag}={value}",
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    field = flag[2:].replace("-", "_")
    assert captured.err.startswith(f"error: {field} must be finite")
    assert "Traceback" not in captured.err
    assert not out.exists()
