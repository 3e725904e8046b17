"""Command-line front end: reproducible batch runs over event files.

Nine subcommands wire the library together::

    ingest       normalize an event file, persist the node id map
    snapshot     materialize the graph at a time point as an edge list
    score        decay-score edges of a snapshot
    verify       compare closed-form scores against the brute-force oracle
    evaluate     temporal-split decay evaluation (average precision)
    evaluate-lp  the creation-side mirror of evaluate
    survival     censored-exponential lifetime fit + survival curve
    gen          synthesize an event stream with controllable decay
    sweep        evaluate the full model x measure x combo grid

Conventions shared by all subcommands: ``--input``/``--output`` accept
``-`` for stdin/stdout; results are tab-separated with a ``#`` header
line; run parameters echo as ``key=value`` lines on stdout (diverted to
stderr when the data itself targets stdout).  Every file-writing run also
writes ``<output>.manifest`` — a key=value file of the fully resolved
configuration that can be fed back through ``--config`` to reproduce the
output byte for byte.  The manifest is written after all of a run's
outputs, and only when the run succeeds.  Flags given explicitly always
override config-file values.  Exit status: 0 success, 1 usage error, 2
data/config error.

Each subcommand does its work and returns its summary as ``(key, value)``
items; :func:`main` then writes the manifest and the summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .datasets import random_directed_graph, random_reciprocal_graph
from .evaluation import (_TIE_BREAKS, _cut_time, edge_lifetimes, evaluate,
                         evaluate_link_prediction, fit_exponential_half_life,
                         survival_curve, sweep, temporal_split)
from .events import EventFormatError, _data_lines, _opened, read_events
from .generate import _BIASES, GenConfig, deletion_share, generate
from .graph import _as_pairs, snapshot_at
from .oracle import _check_request, check_closed_form
from .scoring import (DegreeCombination, Measure, ScoreModel, ScoreSpec, all_specs,
                      score_matrix)

__all__ = ["main"]

_SCORE_FMT = "%.12g"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    data errors, so usage problems are remapped to exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# plumbing: streams, config files, manifests, summaries

def _open_in(path):
    return _opened(sys.stdin if path == "-" else path, "r")


def _open_out(path):
    return _opened(sys.stdout if path == "-" else path, "w")


def _emit(stream, items) -> None:
    for key, value in items:
        stream.write(f"{key}={value}\n")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with _open_in(path) as handle:
        for lineno, text in _data_lines(handle):
            if "=" not in text:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, raw = text.partition("=")
            values[key.strip().lower().replace("-", "_")] = raw.strip()
    return values


def _coerce(action, raw: str):
    if isinstance(action, argparse._StoreTrueAction):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"cannot read {raw!r} as a boolean for --{action.dest}")
    value = raw if action.type is None else action.type(raw)
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"{value!r} is not a valid choice for --{action.dest} "
            f"(choose from {', '.join(map(str, action.choices))})")
    return value


def _apply_config(args) -> None:
    """Make ``--config`` values (the keys a manifest writes) the defaults of
    a second parse, so that every explicit flag wins, abbreviated or not."""
    values = _parse_config_file(args.config)
    sub = values.pop("subcommand", None)
    if sub is not None and sub != args.subcommand:
        raise ValueError(
            f"config was written by subcommand {sub!r}, not {args.subcommand!r}")
    values.pop("version", None)
    actions = {a.dest: a for a in args._parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"unknown config key {key!r} for {args.subcommand}")
        values[key] = _coerce(action, raw)
    args._parser.set_defaults(**values)


def _write_manifest(args) -> None:
    output = getattr(args, "output", None)
    if output is None or output == "-":
        return
    entries = {"subcommand": args.subcommand, "version": __version__}
    for action in args._parser._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        value = getattr(args, action.dest, None)
        if value is None:
            continue
        entries[action.dest.replace("_", "-")] = _fmt_value(value)
    with open(output + ".manifest", "w", encoding="utf-8") as handle:
        for key in sorted(entries):
            handle.write(f"{key}={entries[key]}\n")


def _read_input(args, **kwargs):
    """Read ``--input``; a path, not a handle, so canonical files take
    ``read_events``' block parser."""
    return read_events(sys.stdin if args.input == "-" else args.input, **kwargs)


def _require_seed(args) -> None:
    if args.seed is None:
        args._parser.error("--seed is required (all randomness flows from it)")


def _spec_from_args(args) -> ScoreSpec:
    return ScoreSpec(args.model, args.measure, args.combo,
                     args.adad_complement_weights)


def _write_table(path, header, rows) -> None:
    """Write ``# header`` and then each row, fields joined by tabs."""
    with _open_out(path) as handle:
        handle.write("# " + "\t".join(header) + "\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def _write_ranking(args, tel, result) -> None:
    if args.output is None:
        return
    ids = tel.node_ids
    _write_table(args.output, ("src", "dst", "score", "label", "rank"),
                 ((ids[i], ids[j], _SCORE_FMT % score, label, str(rank))
                  for rank, ((i, j), score, label)
                  in enumerate(result.ranking, start=1)))


def _write_curve(path, lifetimes) -> None:
    _write_table(path, ("t", "fraction_surviving"),
                 ((_SCORE_FMT % t, _SCORE_FMT % fraction)
                  for t, fraction in survival_curve(lifetimes)))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_ingest(args) -> list:
    tel = _read_input(args, self_loops=args.self_loops,
                      strict_deletes=args.strict_deletes)
    with _open_out(args.output) as handle:
        tel.write(handle)
    if args.id_map is not None:
        tel.write_id_map(args.id_map)
    return [("events", len(tel)), ("nodes", tel.node_count),
            *((key.replace("_", "-"), value)
              for key, value in sorted(tel.stats.as_dict().items()))]


def _cmd_snapshot(args) -> list:
    if args.at is None:
        args._parser.error("the following arguments are required: --at")
    tel = _read_input(args)
    g = snapshot_at(tel, args.at)
    ids = tel.node_ids
    _write_table(args.output, ("src", "dst"),
                 ((ids[i], ids[j]) for i, j in g.edges().tolist()))
    return [("at", _fmt_value(args.at)), ("nodes", g.node_count),
            ("edges", g.edge_count)]


def _load_pairs(path, tel) -> np.ndarray:
    index = {token: k for k, token in enumerate(tel.node_ids)}
    pairs = []
    with _open_in(path) as handle:
        for lineno, text in _data_lines(handle):
            fields = text.split()
            if len(fields) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'src<TAB>dst'")
            try:
                pairs.append((index[fields[0]], index[fields[1]]))
            except KeyError as exc:
                raise ValueError(
                    f"{path}: line {lineno}: unknown node {exc.args[0]!r}") from None
    return _as_pairs(pairs)


def _cmd_score(args) -> list:
    tel = _read_input(args)
    at = tel.time_last if args.at is None else args.at
    g = snapshot_at(tel, at)
    pairs = g.edges() if args.pairs_file is None else _load_pairs(args.pairs_file, tel)
    spec = _spec_from_args(args)
    scores = score_matrix(g, pairs, [spec])[0]
    ids = tel.node_ids
    _write_table(args.output, ("src", "dst", "score"),
                 ((ids[a], ids[b], _SCORE_FMT % score)
                  for (a, b), score in zip(pairs.tolist(), scores.tolist())))
    return [*spec.fields().items(), ("at", _fmt_value(at)),
            ("pairs", len(scores))]


def _cmd_verify(args) -> list:
    spec = _spec_from_args(args)
    if args.random_nodes is not None:
        # The draw is an n x n matrix: refuse what the check would refuse
        # before drawing.
        _check_request(args.random_nodes, spec, args.pairs, args.max_pairs)
        rng = np.random.default_rng(args.seed)
        make = random_reciprocal_graph if args.reciprocal else random_directed_graph
        g = make(args.random_nodes, args.density, rng)
    else:
        tel = _read_input(args)
        g = snapshot_at(tel, tel.time_last if args.at is None else args.at)
    report = check_closed_form(g, spec, pairs=args.pairs,
                               max_pairs=args.max_pairs, seed=args.seed)
    return list(report.as_dict().items())


def _cmd_evaluate(args) -> list:
    _require_seed(args)
    tel = _read_input(args)
    spec = _spec_from_args(args)
    split = temporal_split(tel, args.fraction, seed=args.seed)
    result = evaluate(tel, spec, split, args.tie_break)
    _write_ranking(args, tel, result)
    if args.survival_output is not None:
        _write_curve(args.survival_output, edge_lifetimes(tel))
    return [*spec.fields().items(),
            ("fraction", _fmt_value(args.fraction)),
            ("tie-break", args.tie_break),
            ("t1", _SCORE_FMT % split.t1),
            ("positives", result.positives),
            ("ap", _SCORE_FMT % result.ap),
            ("seed", args.seed)]


def _cmd_evaluate_lp(args) -> list:
    _require_seed(args)
    tel = _read_input(args)
    result = evaluate_link_prediction(tel, args.measure, args.combo, args.fraction,
                                      seed=args.seed, tie_break=args.tie_break)
    _write_ranking(args, tel, result)
    return [("measure", args.measure), ("combo", args.combo),
            ("fraction", _fmt_value(args.fraction)),
            ("tie-break", args.tie_break),
            ("t1", _SCORE_FMT % _cut_time(tel, args.fraction)),
            ("positives", result.positives),
            ("ap", _SCORE_FMT % result.ap),
            ("seed", args.seed)]


def _cmd_survival(args) -> list:
    tel = _read_input(args)
    lifetimes = edge_lifetimes(tel)
    fit = fit_exponential_half_life(lifetimes)
    if args.output is not None:
        _write_curve(args.output, lifetimes)
    return [("half-life", _SCORE_FMT % fit.half_life),
            ("rate", _SCORE_FMT % fit.rate),
            ("lifetimes-used", fit.lifetimes_used),
            ("censored", fit.censored)]


def _cmd_gen(args) -> list:
    _require_seed(args)
    config = GenConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(GenConfig)}).validated()
    args.span = config.span  # record the resolved window in the manifest
    tel = generate(config)
    with _open_out(args.output) as handle:
        tel.write(handle)
    if args.id_map is not None:
        tel.write_id_map(args.id_map)
    return [("events", len(tel)), ("nodes", tel.node_count),
            ("deletion-share", _SCORE_FMT % deletion_share(tel)),
            ("span", _fmt_value(config.span)), ("seed", args.seed)]


def _cmd_sweep(args) -> list:
    _require_seed(args)
    tel = _read_input(args)
    split = temporal_split(tel, args.fraction, seed=args.seed)
    aps = sweep(tel, split, args.tie_break)
    positives = str(len(split.test_set))
    _write_table(args.output, ("model", "measure", "combo", "ap", "positives"),
                 ((spec.model.value, spec.measure.value, spec.combo.value,
                   _SCORE_FMT % ap, positives)
                  for spec, ap in zip(all_specs(), aps)))
    return [("rows", len(aps)), ("t1", _SCORE_FMT % split.t1),
            ("positives", len(split.test_set)), ("seed", args.seed)]


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, output_default="-") -> None:
    sub.add_argument("--input", default="-", metavar="PATH",
                     help="event file ('-' for stdin; default)")
    if output_default is not argparse.SUPPRESS:
        sub.add_argument("--output", default=output_default, metavar="PATH",
                         help="result path ('-' for stdout)")
    sub.add_argument("--config", metavar="PATH",
                     help="key=value defaults (explicit flags override); "
                          "a previous run's .manifest works here")


def _add_spec_flags(sub, with_model=True) -> None:
    if with_model:
        sub.add_argument("--model", default="score", choices=[m.value for m in ScoreModel],
                         help="decay model (default score)")
    sub.add_argument("--measure", default="pa", choices=[m.value for m in Measure],
                     help="link-prediction measure (default pa)")
    sub.add_argument("--combo", default="sym", choices=[m.value for m in DegreeCombination],
                     help="degree combination (default sym)")
    if with_model:
        sub.add_argument("--adad-complement-weights", action="store_true",
                         help="weight adad by complement degrees n-1-d(k) "
                              "instead of original degrees")


def _add_eval_flags(sub) -> None:
    sub.add_argument("--fraction", type=float, default=0.75,
                     help="temporal cut position in (0,1) (default 0.75)")
    sub.add_argument("--tie-break", default="lexicographic", choices=_TIE_BREAKS,
                     help="equal-score policy: deterministic endpoint order "
                          "or closed-form expected AP (default lexicographic)")
    sub.add_argument("--seed", type=int, help="RNG seed (required)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="linkdecay",
                     description="Predict and evaluate edge decay in "
                                 "evolving directed networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                 parser_class=_Parser, required=True)

    sub = subs.add_parser("ingest", help="normalize an event file")
    _add_common(sub)
    sub.add_argument("--id-map", metavar="PATH",
                     help="write the node<TAB>index map here")
    sub.add_argument("--self-loops", default="skip", choices=["skip", "error"],
                     help="policy for src == dst records (default skip)")
    sub.add_argument("--strict-deletes", action="store_true",
                     help="fail on deletes of absent edges instead of counting them")
    sub.set_defaults(func=_cmd_ingest)

    sub = subs.add_parser("snapshot", help="edge list of the graph at a time")
    _add_common(sub)
    # Required, but checked in _cmd_snapshot: --config may supply it.
    sub.add_argument("--at", type=float, metavar="T",
                     help="snapshot time (required)")
    sub.set_defaults(func=_cmd_snapshot)

    sub = subs.add_parser("score", help="decay-score edges of a snapshot")
    _add_common(sub)
    sub.add_argument("--at", type=float, metavar="T",
                     help="snapshot time (default: last event time)")
    sub.add_argument("--pairs-file", metavar="PATH",
                     help="score these src<TAB>dst pairs instead of the "
                          "snapshot's edges")
    _add_spec_flags(sub)
    sub.set_defaults(func=_cmd_score)

    sub = subs.add_parser("verify",
                          help="closed forms vs. brute-force complement oracle")
    _add_common(sub, output_default=argparse.SUPPRESS)
    sub.add_argument("--at", type=float, metavar="T",
                     help="snapshot time (default: last event time)")
    sub.add_argument("--random-nodes", type=int, metavar="N",
                     help="check a seeded random graph instead of --input")
    sub.add_argument("--density", type=float, default=0.2,
                     help="edge density for --random-nodes (default 0.2)")
    sub.add_argument("--reciprocal", action="store_true",
                     help="make the random graph reciprocal (every edge paired "
                          "with its reverse)")
    sub.add_argument("--pairs", default="edges", choices=["edges", "all"],
                     help="verify existing edges only, or all pairs (default edges)")
    sub.add_argument("--max-pairs", type=int, default=1000,
                     help="sample size for --pairs all on large graphs")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for --random-nodes and pair sampling (default 0)")
    _add_spec_flags(sub, with_model=False)
    sub.add_argument("--model", default="network",
                     choices=[m.value for m in ScoreModel], help=argparse.SUPPRESS)
    sub.add_argument("--adad-complement-weights", action="store_true",
                     help="verify the complement-degree adad variant")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("evaluate", help="temporal-split decay evaluation")
    _add_common(sub, output_default=None)
    sub.add_argument("--survival-output", metavar="PATH",
                     help="also write a t<TAB>fraction_surviving curve")
    _add_spec_flags(sub)
    _add_eval_flags(sub)
    sub.set_defaults(func=_cmd_evaluate)

    sub = subs.add_parser("evaluate-lp",
                          help="creation-side evaluation (link prediction)")
    _add_common(sub, output_default=None)
    _add_spec_flags(sub, with_model=False)
    _add_eval_flags(sub)
    sub.set_defaults(func=_cmd_evaluate_lp)

    sub = subs.add_parser("survival", help="exponential lifetime fit")
    _add_common(sub, output_default=None)
    sub.set_defaults(func=_cmd_survival)

    sub = subs.add_parser("gen", help="generate a synthetic event stream")
    _add_common(sub)
    sub.add_argument("--id-map", metavar="PATH",
                     help="write the node<TAB>index map here")
    sub.add_argument("--seed", type=int, help="RNG seed (required)")
    sub.add_argument("--n-nodes", type=int, default=1000,
                     help="node count (default 1000)")
    sub.add_argument("--n-add-events", type=int, default=20000,
                     help="number of edge additions (default 20000)")
    sub.add_argument("--attach-exponent", type=float, default=1.0,
                     help="preferential-attachment strength (default 1.0)")
    sub.add_argument("--decay-half-life", type=float, default=23.0,
                     help="edge half-life in ticks (default 23)")
    sub.add_argument("--decay-bias", default="none", choices=_BIASES,
                     help="planted decay signal (default none)")
    sub.add_argument("--hazard-multiplier", type=float, default=4.0,
                     help="hazard factor for the biased class (default 4)")
    sub.add_argument("--deletion-share-target", type=float, default=0.27,
                     help="target delete share used to size the window "
                          "(default 0.27)")
    sub.add_argument("--span", type=float,
                     help="simulation window in ticks (default: derived from "
                          "the deletion-share target)")
    sub.set_defaults(func=_cmd_gen)

    sub = subs.add_parser("sweep",
                          help="evaluate all 40 model/measure/combo specs")
    _add_common(sub)
    _add_eval_flags(sub)
    sub.set_defaults(func=_cmd_sweep)

    for sub in subs.choices.values():
        sub.set_defaults(_parser=sub)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            _apply_config(args)
            args = parser.parse_args(argv)
        summary = args.func(args)
        _write_manifest(args)
        # The summary goes to stdout unless the data does.
        output = getattr(args, "output", None)
        _emit(sys.stderr if output == "-" else sys.stdout, summary)
        return 0
    except (EventFormatError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
