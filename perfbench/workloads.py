"""The four benchmark workloads, one per process.

``run.py`` starts this file as a child process with single-threaded
numeric libraries and ``src`` on ``PYTHONPATH``; to run it by hand::

    PYTHONPATH=src python3 perfbench/workloads.py --workload bulk-score \
        --seed 0 --seconds 20 --trace 0 --result .bench_run/result.json \
        --work .bench_run/bulk-score

The child builds the workload's inputs from the seed three times (the set
up includes a small warm-up pass, so imports and first-call costs land
there; the median is ``setup_s``), repeats the workload's job for about
``--seconds``, checks every output, and writes a JSON result for
``run.py``.  With ``--trace 1`` it alternates an untraced job with a
traced one and reports the per-layer metrics instead.  Why each workload
exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from linkdecay import cli, evaluation, oracle
from linkdecay.datasets import random_directed_graph
from linkdecay.evaluation import (average_precision, edge_ages, edge_lifetimes,
                                  fit_exponential_half_life, random_baseline,
                                  survival_curve, temporal_split)
from linkdecay.events import read_events
from linkdecay.generate import GenConfig, generate
from linkdecay.graph import Graph, snapshot_at
from linkdecay.oracle import check_closed_form, raw_measure
from linkdecay.scoring import ScoreModel, all_specs, score_batch

from timing import (BOUNDARY_UNITS, NullTracer, Stopwatch, Tracer,
                    patched, unit_seconds)

HERE = Path(__file__).resolve().parent
PINNED = HERE / "digests.json"
#: The seed whose output digests are pinned in ``digests.json``.
PINNED_SEED = 0
SETUP_REPEATS = 3

#: Per-layer metrics.  A span name maps to the time metric ``<name>_s``
#: (``generate`` to ``generate.s``) holding its self time; the counters are
#: recorded by the workloads.  A layer a workload does not touch reports 0.
SCORE_CELLS = [f"scoring.{model}.{measure}"
               for model in ("score", "network")
               for measure in ("pa", "cn", "cos", "jacc", "adad")]
TIME_SPANS = (["generate", "events.read", "events.write", "graph.build",
               "graph.snapshot"] + SCORE_CELLS
              + ["evaluation.average_precision", "evaluation.temporal_split",
                 "evaluation.edge_lifetimes", "evaluation.survival_curve",
                 "evaluation.fit", "evaluation.edge_ages",
                 "oracle.materialize", "oracle.check"])
COUNTERS = ["generate.events", "events.read_events", "events.read_mb",
            "events.duplicate_adds", "events.noop_deletes",
            "graph.build_edges", "graph.nodes", "graph.snapshot_calls",
            "graph.snapshot_edges", "scoring.pairs", "evaluation.ap_items",
            "evaluation.split_pairs", "evaluation.lifetimes",
            "evaluation.censored", "evaluation.ages",
            "evaluation.distinct_scores", "evaluation.max_tie_share",
            "oracle.complement_edges", "oracle.pairs_checked"]


def time_metric(span: str) -> str:
    return "generate.s" if span == "generate" else span + "_s"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def distinct_keys(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` distinct edge keys ``src * n + dst`` without self-loops, in
    random order.  Drawn sparsely: an ``n x n`` mask would not fit."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        draw = rng.integers(0, n * n, size=m - len(keys) + m // 50 + 16)
        keys = np.unique(np.concatenate((keys, draw)))
        keys = keys[keys // n != keys % n]
    return rng.permutation(keys)[:m]


class Pass:
    """One run of a workload's job.

    Calling it runs one library call as an operation (counted for
    ``failed_share``) inside a span named after its layer; ``stage`` times
    the job's stages.  Untraced passes calibrate their stages, traced ones
    record spans.
    """

    def __init__(self, traced: bool):
        self.tr = Tracer() if traced else NullTracer()
        self.clock = Stopwatch(calibrate=not traced)
        self.attempted = 0

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        with self.tr.span(name):
            result = fn(*args, **kwargs)
        self.clock.tick()
        return result

    def stage(self, name: str):
        return self.clock.stage(name)


class Checks:
    """Output checks; each one counts as an operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def same(self, name: str, values: list) -> None:
        bad = [k for k, v in enumerate(values) if v != values[0]]
        self(name, not bad, f"differs from the first pass in passes {bad}")

    def pinned(self, workload: str, seed: int, digests: dict) -> None:
        if seed != PINNED_SEED:
            return
        pins = json.loads(PINNED.read_text()).get(workload, {})
        for key, value in digests.items():
            self(f"pinned digest {key}", pins.get(key) == value,
                 f"got {value}, pinned {pins.get(key)}")


def count_ingest(tr, tel, path: Path) -> None:
    tr.count("events.read_events", len(tel))
    tr.count("events.read_mb", path.stat().st_size / 1e6)
    tr.count("events.duplicate_adds", tel.stats.duplicate_adds)
    tr.count("events.noop_deletes", tel.stats.noop_deletes)


def count_snapshot(tr, g) -> None:
    tr.count("graph.snapshot_calls")
    tr.count("graph.snapshot_edges", g.edge_count)


def count_split(tr, split) -> None:
    tr.count("evaluation.split_pairs",
             len(split.test_set) + len(split.zero_test_set))


def tie_structure(ranking: list) -> dict:
    scores = Counter(item[1] for item in ranking)
    return {"distinct_scores": len(scores),
            "max_tie_share": max(scores.values()) / len(ranking)}


# ---------------------------------------------------------------------------
# planted-sweep


class PlantedSweep:
    """In-process ``gen`` of the acceptance planted stream, then ``sweep``."""

    STAGES = ("gen", "sweep")
    WORK_STAGES = ("sweep",)   # work_per_s: positives x specs ranked per s
    CONFIG = {"n_nodes": 5000, "n_add_events": 40000,
              "decay_bias": "low_degree"}
    WARM_CONFIG = {"n_nodes": 300, "n_add_events": 3000,
                   "decay_bias": "low_degree"}
    FRACTION = 0.75
    MARGIN = 0.08   # acceptance criterion 06: AP over the random floor

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.events = work / "planted.tsv"
        self.sweep = work / "sweep.tsv"
        warm = work / "warm.tsv"
        self._cli("gen", self._gen_args(self.WARM_CONFIG, warm))
        self._cli("sweep", ["--input", str(warm), "--seed", str(seed),
                            "--output", str(work / "warm-sweep.tsv")])

    def _gen_args(self, config: dict, output: Path) -> list[str]:
        args = ["--seed", str(self.seed), "--output", str(output)]
        for key, value in config.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args

    @staticmethod
    def _cli(command: str, args: list[str]) -> None:
        code = cli.main([command, *args])
        if code != 0:
            raise RuntimeError(f"linkdecay {command} exited with {code}")

    def job(self, p: Pass) -> dict:
        with p.stage("gen"):
            p("cli.gen", self._cli, "gen", self._gen_args(self.CONFIG, self.events))

        # The sweep runs 40 evaluate calls; sample the reference unit
        # between them, as between the job's own calls.
        def evaluate(*args, **kwargs):
            result = cli_evaluate(*args, **kwargs)
            p.clock.tick()
            return result

        with patched(cli, "evaluate", evaluate) as cli_evaluate, \
                p.stage("sweep"):
            p("cli.sweep", self._cli, "sweep",
              ["--input", str(self.events), "--seed", str(self.seed),
               "--output", str(self.sweep)])
        return {"work": sum(int(row[4]) for row in self._read_sweep_rows()),
                "digests": {"events": sha256_file(self.events),
                            "sweep": sha256_file(self.sweep)}}

    def traced_job(self, p: Pass, checks: Checks) -> dict:
        """The same work through public calls, so each layer gets a span.

        ``sweep`` is one call from outside, so its sequence is repeated
        here: read, split, then per spec snapshot, score and rank.  The 40
        AP values must equal the TSV the untraced ``sweep`` wrote.
        """
        tr = p.tr
        with p.stage("gen"):
            tel = p("generate", generate, GenConfig(seed=self.seed, **self.CONFIG))
            p("events.write", tel.write, str(self.events))
        tr.count("generate.events", len(tel))
        aps, ties = {}, {}
        with p.stage("sweep"):
            tel = p("events.read", read_events, str(self.events))
            with tr.wrap(evaluation, "snapshot_at", "graph.snapshot",
                         count_snapshot):
                split = p("evaluation.temporal_split", temporal_split, tel,
                          self.FRACTION, seed=self.seed)
            pairs = np.vstack((split.test_set, split.zero_test_set))
            labels = (["test"] * len(split.test_set)
                      + ["zero"] * len(split.zero_test_set))
            for spec in all_specs():
                g1 = p("graph.snapshot", snapshot_at, tel, split.t1)
                count_snapshot(tr, g1)
                scored = p(f"scoring.{spec.model.value}.{spec.measure.value}",
                           score_batch, g1, pairs, spec)
                result = p("evaluation.average_precision", average_precision,
                           (((e.src, e.dst), e.score, label)
                            for e, label in zip(scored, labels)))
                tr.count("scoring.pairs", len(scored))
                tr.count("evaluation.ap_items", len(result.ranking))
                aps[str(spec)] = cli._SCORE_FMT % result.ap
                ties[str(spec)] = tie_structure(result.ranking)
        count_ingest(tr, tel, self.events)
        count_split(tr, split)
        tr.count("evaluation.distinct_scores",
                 min(t["distinct_scores"] for t in ties.values()))
        tr.count("evaluation.max_tie_share",
                 max(t["max_tie_share"] for t in ties.values()))
        swept = self._read_sweep()
        checks("traced AP equals sweep TSV", aps == swept,
               {k: (aps.get(k), v) for k, v in swept.items() if aps.get(k) != v})
        return {"digests": {"events": sha256_file(self.events)}, "ties": ties}

    def _read_sweep_rows(self) -> list[list[str]]:
        """(model, measure, combo, ap, positives) rows of the sweep TSV."""
        return [line.split("\t") for line in self.sweep.read_text().splitlines()
                if not line.startswith("#")]

    def _read_sweep(self) -> dict[str, str]:
        return {"/".join(row[:3]): row[3] for row in self._read_sweep_rows()}

    def check(self, outputs: list[dict], checks: Checks) -> None:
        for key in ("events", "sweep"):
            checks.same(f"{key} digest across passes",
                        [o["digests"][key] for o in outputs if key in o["digests"]])
        checks.pinned("planted-sweep", self.seed, outputs[0]["digests"])
        tel = read_events(str(self.events))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = temporal_split(tel, self.FRACTION, seed=self.seed)
        floor = random_baseline(split, seed=self.seed).ap
        ap = float(self._read_sweep()["score/pa/out"])
        checks("planted signal: score/pa/out AP over the random floor",
               ap - floor >= self.MARGIN,
               f"AP {ap:.4f} - floor {floor:.4f} < {self.MARGIN}")


# ---------------------------------------------------------------------------
# bulk-score


class BulkScore:
    """A 100k-node, 1M-edge ``Graph`` and a fixed edge sample under 40 specs."""

    STAGES = ("build", "score")
    WORK_STAGES = ("score",)   # work_per_s: pairs x specs scored per s
    NODES = 100_000
    EDGES = 1_000_000
    SAMPLE = 1000   # all 1M edges x 40 specs would take over an hour
    SPOT = 50       # sample pairs re-checked against the oracle

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        keys = distinct_keys(rng, self.NODES, self.EDGES)
        self.src, self.dst = keys // self.NODES, keys % self.NODES
        pick = rng.choice(self.EDGES, size=self.SAMPLE, replace=False)
        self.pairs = np.column_stack((self.src[pick], self.dst[pick]))
        self.spot = rng.choice(self.SAMPLE, size=self.SPOT, replace=False)
        warm_keys = distinct_keys(rng, 2000, 20_000)
        g = Graph(2000, warm_keys // 2000, warm_keys % 2000)
        warm_pairs = g.edges()[:20]
        for spec in all_specs():
            score_batch(g, warm_pairs, spec)
            raw_measure(g, *warm_pairs[0], spec.measure, spec.combo)

    def job(self, p: Pass) -> dict:
        with p.stage("build"):
            g = p("graph.build", Graph, self.NODES, self.src, self.dst)
        scores = []
        with p.stage("score"):
            for spec in all_specs():
                scored = p(f"scoring.{spec.model.value}.{spec.measure.value}",
                           score_batch, g, self.pairs, spec)
                scores.append([e.score for e in scored])
        p.tr.count("graph.build_edges", g.edge_count)
        p.tr.count("graph.nodes", g.node_count)
        p.tr.count("scoring.pairs", self.SAMPLE * len(scores))
        self.graph = g
        vectors = np.array(scores, dtype=np.float64)
        return {"work": vectors.size, "scores": vectors,
                "digests": {"scores": sha256_bytes(vectors.tobytes())}}

    def traced_job(self, p: Pass, checks: Checks) -> dict:
        return self.job(p)

    def check(self, outputs: list[dict], checks: Checks) -> None:
        checks.same("score vector digest across passes",
                    [o["digests"]["scores"] for o in outputs])
        checks.pinned("bulk-score", self.seed, outputs[0]["digests"])
        scores = outputs[0]["scores"]
        bad = []
        for row, spec in enumerate(all_specs()):
            if spec.model is not ScoreModel.COMPLEMENT_SCORE:
                continue
            for k in self.spot:
                i, j = (int(v) for v in self.pairs[k])
                raw = raw_measure(self.graph, i, j, spec.measure, spec.combo)
                if scores[row, k] != -raw:
                    bad.append((str(spec), i, j, scores[row, k], raw))
        checks("score model equals -oracle.raw_measure on the spot sample",
               not bad, bad[:5])


# ---------------------------------------------------------------------------
# churn-replay


class ChurnReplay:
    """Parse, rewrite and replay a stream built from known presence intervals.

    Each edge key gets 1-3 non-overlapping presence intervals; about 30% of
    keys keep their last interval open (censored).  On top, disjoint key
    sets receive one duplicate add inside an interval, one delete before
    the key's first add (a no-op), or an add and a delete at the tick of the
    key's first add, just before it (same-tick add/delete/re-add).  The
    input file lists events grouped by key, so reading must sort by time.
    """

    STAGES = ("ingest", "replay")
    WORK_STAGES = STAGES       # work_per_s: events through the whole job per s
    NODES = 50_000
    KEYS = 80_000
    DUPLICATES = 4_000
    NOOPS = 4_000
    SAME_TICK = 2_000
    CENSORED_SHARE = 0.3
    CUTS = (0.25, 0.5, 0.75)

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.source = work / "churn.tsv"
        self.canonical = work / "churn-canonical.tsv"
        self.truth = self._build(np.random.default_rng(seed), self.source)
        warm = work / "warm.tsv"
        self._build(np.random.default_rng(seed), warm, count=800)
        tel = read_events(str(warm))
        tel.write(str(work / "warm-canonical.tsv"))
        lifetimes = edge_lifetimes(tel)
        fit_exponential_half_life(lifetimes)
        survival_curve(lifetimes)
        edge_ages(tel, temporal_split(tel, 0.5, seed=seed).t1)

    def _build(self, rng, path: Path, count: int | None = None) -> dict:
        """Write the stream of ``count`` edge keys; return its truth."""
        k_count = count or self.KEYS
        scale = k_count / self.KEYS
        keys = distinct_keys(rng, self.NODES, k_count)
        per_key = rng.integers(1, 4, size=k_count)
        bounds = 2 * per_key
        first_bound = np.cumsum(bounds) - bounds
        gaps = rng.geometric(1 / 60, size=int(bounds.sum()))
        gaps[first_bound] = 1 + rng.integers(0, 600, size=k_count)
        ticks = np.cumsum(gaps)
        ticks -= np.repeat(ticks[first_bound] - gaps[first_bound], bounds)
        starts, ends = ticks[0::2], ticks[1::2].copy()
        owner = np.repeat(np.arange(k_count), per_key)
        first_interval = np.cumsum(per_key) - per_key
        last_interval = np.cumsum(per_key) - 1
        censored = np.zeros(len(starts), dtype=bool)
        censored[last_interval[rng.random(k_count) < self.CENSORED_SHARE]] = True

        order = rng.permutation(k_count)
        n_noop, n_tick = int(self.NOOPS * scale), int(self.SAME_TICK * scale)
        noop_keys = order[:n_noop]
        tick_keys = order[n_noop:n_noop + n_tick]
        rest = first_interval[order[n_noop + n_tick:]]
        roomy = censored[rest] | (ends[rest] - starts[rest] >= 2)
        dup_iv = rest[roomy][:int(self.DUPLICATES * scale)]

        # Event columns: key, tick, sign, and order within the key's tick.
        parts = [
            (owner, starts, 1, 2),
            (owner[~censored], ends[~censored], -1, 0),
            (noop_keys, rng.integers(0, starts[first_interval[noop_keys]]), -1, 0),
            (tick_keys, starts[first_interval[tick_keys]], 1, 0),
            (tick_keys, starts[first_interval[tick_keys]], -1, 1),
        ]
        span = np.where(censored[dup_iv], 2, ends[dup_iv] - starts[dup_iv])
        parts.append((owner[dup_iv],
                      starts[dup_iv] + 1 + rng.integers(0, span - 1), 1, 0))
        key = np.concatenate([p[0] for p in parts])
        tick = np.concatenate([p[1] for p in parts])
        sign = np.concatenate([np.full(len(p[0]), p[2]) for p in parts])
        within = np.concatenate([np.full(len(p[0]), p[3]) for p in parts])
        file_order = np.lexsort((within, tick, key))
        key, tick, sign = key[file_order], tick[file_order], sign[file_order]
        src, dst = keys[key] // self.NODES, keys[key] % self.NODES
        lines = [f"{u}\t{v}\t{'+1' if s > 0 else '-1'}\t{t}\n"
                 for u, v, s, t in zip(src.tolist(), dst.tolist(),
                                       sign.tolist(), tick.tolist())]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

        # Truth, from the intervals rather than from a replay.
        by_time = np.argsort(tick, kind="stable")
        canonical = hashlib.sha256("".join(lines[k] for k in by_time).encode())
        t_first, t_last = int(tick.min()), int(tick.max())
        open_end = np.where(censored, np.iinfo(np.int64).max, ends)
        cuts = {}
        for fraction in self.CUTS:
            t1 = t_first + fraction * (t_last - t_first)
            alive = (starts <= t1) & (t1 < open_end)
            cuts[str(fraction)] = {
                "edges": int(alive.sum()),
                "age_sum": math.fsum((t1 - starts[alive]).tolist())}
        durations = np.where(censored, t_last - starts, ends - starts)
        return {
            "events": len(lines),
            "canonical": canonical.hexdigest(),
            "stats": {"self_loops_skipped": 0, "noop_deletes": len(noop_keys),
                      "duplicate_adds": len(dup_iv)},
            "lifetimes": len(starts) + len(tick_keys),
            "censored": int(censored.sum()),
            "duration_sum": int(durations.sum()),
            "cuts": cuts,
        }

    def job(self, p: Pass) -> dict:
        tr = p.tr
        with p.stage("ingest"):
            tel = p("events.read", read_events, str(self.source))
            p("events.write", tel.write, str(self.canonical))
        splits = {}
        with tr.wrap(evaluation, "snapshot_at", "graph.snapshot",
                     count_snapshot), p.stage("replay"):
            lifetimes = p("evaluation.edge_lifetimes", edge_lifetimes, tel)
            fit = p("evaluation.fit", fit_exponential_half_life, lifetimes)
            curve = p("evaluation.survival_curve", survival_curve, lifetimes)
            for fraction in self.CUTS:
                split = p("evaluation.temporal_split", temporal_split,
                          tel, fraction, seed=self.seed)
                ages = p("evaluation.edge_ages", edge_ages, tel, split.t1)
                splits[str(fraction)] = (split, ages)
        cuts = {}
        for fraction, (split, ages) in splits.items():
            cuts[fraction] = {"edges": len(split.training_edges),
                              "ages": len(ages),
                              "age_sum": math.fsum(ages.values())}
            count_split(tr, split)
            tr.count("evaluation.ages", len(ages))
        count_ingest(tr, tel, self.source)
        tr.count("evaluation.lifetimes", len(lifetimes))
        tr.count("evaluation.censored", lifetimes.n_censored)
        return {
            "work": len(tel), "stats": tel.stats.as_dict(),
            "lifetimes": len(lifetimes), "censored": lifetimes.n_censored,
            "duration_sum": int(lifetimes.durations.sum()),
            "fit": (fit.lifetimes_used, fit.censored, fit.half_life),
            "curve_points": len(curve), "cuts": cuts,
            "digests": {"canonical": sha256_file(self.canonical)},
        }

    def traced_job(self, p: Pass, checks: Checks) -> dict:
        return self.job(p)

    def check(self, outputs: list[dict], checks: Checks) -> None:
        truth = self.truth
        checks.same("canonical file digest across passes",
                    [o["digests"]["canonical"] for o in outputs])
        checks.same("lifetime fit and curve across passes",
                    [(o["fit"], o["curve_points"]) for o in outputs])
        checks.pinned("churn-replay", self.seed, outputs[0]["digests"])
        out = outputs[0]
        checks("canonical file equals the stable time sort of the input",
               out["digests"]["canonical"] == truth["canonical"])
        checks("event count", out["work"] == truth["events"],
               (out["work"], truth["events"]))
        for key in ("stats", "lifetimes", "censored", "duration_sum"):
            checks(key, out[key] == truth[key], (out[key], truth[key]))
        checks("fit counts", out["fit"][:2] == (truth["lifetimes"],
                                                truth["censored"]), out["fit"])
        for fraction, expect in truth["cuts"].items():
            got = out["cuts"][fraction]
            checks(f"snapshot edges and ages at cut {fraction}",
                   got["edges"] == got["ages"] == expect["edges"], (got, expect))
            checks(f"edge age sum at cut {fraction}",
                   got["age_sum"] == expect["age_sum"], (got, expect))


# ---------------------------------------------------------------------------
# oracle-verify


class OracleVerify:
    """``check_closed_form`` for the 20 ``network`` specs on a random digraph."""

    STAGES = ("verify",)
    WORK_STAGES = STAGES       # work_per_s: pairs checked per s
    NODES = 400
    DENSITY = 0.05
    PAIRS = 2000

    def setup(self, seed: int, work: Path) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.graph = random_directed_graph(self.NODES, self.DENSITY, rng)
        self.specs = [s for s in all_specs()
                      if s.model is ScoreModel.COMPLEMENT_NETWORK]
        warm = random_directed_graph(60, 0.1, rng)
        for spec in self.specs[::4]:
            check_closed_form(warm, spec, pairs="all", max_pairs=200, seed=seed)

    def _check(self, p: Pass, spec):
        report = p("oracle.check", check_closed_form, self.graph, spec,
                   pairs="all", max_pairs=self.PAIRS, seed=self.seed)
        p.tr.count("oracle.pairs_checked", report.pairs_checked)
        return report

    def job(self, p: Pass) -> dict:
        with p.stage("verify"):
            reports = [self._check(p, spec) for spec in self.specs]
        return self._outputs(reports)

    def traced_job(self, p: Pass, checks: Checks) -> dict:
        """Spans around each check and each complement build inside it;
        then the closed forms alone, timed on the pairs the check visited."""
        visited: list[tuple[int, int]] = []

        def recording(g, i, j, *args, **kwargs):
            visited.append((i, j))
            return closed_form(g, i, j, *args, **kwargs)

        reports = []
        with p.tr.wrap(oracle, "materialize_complement", "oracle.materialize",
                       lambda tr, g: tr.count("oracle.complement_edges",
                                              g.edge_count)), \
                p.tr.wrap(oracle, "symmetrize", "oracle.materialize"), \
                patched(oracle, "complement_network_score",
                        recording) as closed_form, \
                p.stage("verify"):
            for spec in self.specs:
                visited.clear()
                reports.append(self._check(p, spec))
                scored = p(f"scoring.network.{spec.measure.value}",
                           score_batch, self.graph, visited, spec)
                p.tr.count("scoring.pairs", len(scored))
        return self._outputs(reports)

    def _outputs(self, reports) -> dict:
        rows = [r.as_dict() for r in reports]
        return {"work": sum(r.pairs_checked for r in reports),
                "reports": reports,
                "digests": {"reports": sha256_bytes(
                    json.dumps(rows, sort_keys=True).encode())}}

    def check(self, outputs: list[dict], checks: Checks) -> None:
        checks.same("oracle report digest across passes",
                    [o["digests"]["reports"] for o in outputs])
        checks.pinned("oracle-verify", self.seed, outputs[0]["digests"])
        for report in outputs[0]["reports"]:
            spec = report.spec
            checks(f"{spec} checked {self.PAIRS} pairs",
                   report.pairs_checked == self.PAIRS, report.pairs_checked)
            if spec.measure.value == "pa":
                checks(f"{spec} deviation is 0",
                       report.max_abs_deviation == 0.0, report.max_abs_deviation)
            elif spec.measure.value == "cn":
                checks(f"{spec} deviation at most 2",
                       report.max_abs_deviation <= 2.0, report.max_abs_deviation)


WORKLOADS = {
    "planted-sweep": PlantedSweep,
    "bulk-score": BulkScore,
    "churn-replay": ChurnReplay,
    "oracle-verify": OracleVerify,
}


# ---------------------------------------------------------------------------
# run loop


def run_pass(workload, p: Pass, checks: Checks) -> dict:
    out = workload.traced_job(p, checks) if p.tr.enabled else workload.job(p)
    out["raw"], out["ref"] = dict(p.clock.raw), dict(p.clock.ref)
    out["wall_s"] = sum(p.clock.raw.values())
    return out


def layer_metrics(p: Pass, wall: float) -> dict[str, float]:
    tracer = p.tr
    own = tracer.self_times()
    metrics = {time_metric(s): own.get(s, 0.0) for s in TIME_SPANS}
    metrics["scoring.s"] = sum(own.get(cell, 0.0) for cell in SCORE_CELLS)
    metrics.update({name: float(tracer.counts.get(name, 0.0))
                    for name in COUNTERS})
    gen_s = metrics["generate.s"]
    metrics["generate.events_per_s"] = (metrics["generate.events"] / gen_s
                                        if gen_s else 0.0)
    read = metrics["events.read_events"]
    wasted = metrics["events.noop_deletes"] + metrics["events.duplicate_adds"]
    metrics["events.effective_share"] = (read - wasted) / read if read else 0.0
    metrics["trace.unattributed_s"] = wall - tracer.root_seconds()
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)
    files = args.work / "files"
    files.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, files)
    finally:
        shutil.rmtree(files)
    args.result.write_text(json.dumps(result))
    return 0


def measure(args, files: Path) -> dict:
    """Set up, run passes until --seconds, check, and build the result."""
    workload = WORKLOADS[args.workload]()
    setup = Stopwatch(calibrate=True)
    for k in range(SETUP_REPEATS):
        with setup.stage(str(k)):
            workload.setup(args.seed, files)

    checks = Checks()
    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[tuple[dict, Pass]] = []
    start = time.perf_counter()
    broken = False
    while not broken:
        pass_start = time.perf_counter()
        for tracing in ((False, True) if args.trace else (False,)):
            p = Pass(tracing)
            try:
                out = run_pass(workload, p, checks)
            except Exception:
                attempted += max(p.attempted, 1)
                failed += 1
                traceback.print_exc()
                broken = True
                break
            attempted += p.attempted
            if tracing:
                traced.append((out, p))
            else:
                untraced.append(out)
        # Stop before a pass that would end after --seconds; a job longer
        # than that still runs once.
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pass_start) > args.seconds:
            break

    if untraced:
        try:
            workload.check(untraced + [out for out, _ in traced], checks)
        except Exception:
            checks("output checks ran", False, "raised")
            traceback.print_exc()
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    attempted += checks.attempted
    failed += len(checks.failures)

    result = {"attempted": attempted, "failed": failed,
              "correct": failed == 0, "metrics": {},
              "info": {"passes": len(untraced),
                       "failed_share": failed / attempted,
                       "unit_s": unit_seconds(BOUNDARY_UNITS)}}
    if untraced:
        info = result["info"]
        info["digests"] = untraced[0]["digests"]
        for stage in workload.STAGES:
            for kind, suffix in (("raw", "_s"), ("ref", "_ref_s")):
                info[stage + suffix] = statistics.median(
                    o[kind][stage] for o in untraced)
        work_s = statistics.median(
            sum(o["ref"][stage] for stage in workload.WORK_STAGES)
            for o in untraced)
        result["metrics"] = {
            "setup_s": statistics.median(setup.ref.values()),
            "job_s": statistics.median(sum(o["ref"].values()) for o in untraced),
            "work_per_s": untraced[0]["work"] / work_s,
        }
    if args.trace and traced:
        per_pass = [layer_metrics(p, out["wall_s"]) for out, p in traced]
        metrics = {name: statistics.median(m[name] for m in per_pass)
                   for name in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, (t, _) in zip(untraced, traced))
        out, p = traced[-1]
        trace_path = args.work / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "wall_s": out["wall_s"], "metrics": metrics,
            "ties": out.get("ties", {}), "spans": p.tr.export()}, indent=1))
        result["info"]["trace_file"] = str(trace_path)
        result["metrics"] = metrics
    return result


if __name__ == "__main__":
    sys.exit(main())
