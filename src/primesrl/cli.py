"""Command-line front end: evaluate, compare and stats subcommands."""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from . import __version__
from .conll import MODES, AlignmentError, ConfigError, Corpus, ParseError, read, read_pairs
from .model import EvalCounts, ScoreReport
from .scoring import EmptyCorpus, MissingGoldSense, corpus_stats, score_pairs

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALIGN = 3
EXIT_CONFIG = 4

SCHEMA_VERSION = 1


def _bold(text: str) -> str:
    if os.environ.get("PRIME_SRL_NO_COLOR") or not sys.stdout.isatty():
        return text
    return "\033[1m%s\033[0m" % text


def load_corpus(path: str, fmt: str, words: str | None) -> Corpus:
    """The corpus at ``path``, its sentences parsed as they are read, once."""
    return Corpus(read(path, fmt, words), mode=MODES[fmt])


def _score(args, metrics: tuple[str, ...]) -> list[ScoreReport]:
    """Parse, align and score gold against system in one pass, one report per metric."""
    with contextlib.closing(read_pairs(args.gold, args.system, args.format, args.words,
                                       args.senses, args.senses_system)) as pairs:
        return score_pairs(pairs, metrics, MODES[args.format])


def _metric_name(metric: str, fmt: str) -> str:
    return "legacy_" + MODES[fmt] if metric == "legacy" else metric


def _counts_line(counts: EvalCounts) -> str:
    return ("P: %.4f  R: %.4f  F1: %.4f  (correct %d, predicted %d, gold %d)"
            % (counts.precision, counts.recall, counts.f1,
               counts.correct, counts.predicted, counts.gold))


def _print_per_label(per_label: dict[str, EvalCounts]) -> None:
    print(_bold("%-10s %8s %10s %8s %9s %9s %9s" %
                ("label", "correct", "predicted", "gold", "P", "R", "F1")))
    for label, c in per_label.items():
        print("%-10s %8d %10d %8d %9.4f %9.4f %9.4f"
              % (label, c.correct, c.predicted, c.gold, c.precision, c.recall, c.f1))


def _counts_json(counts: EvalCounts) -> dict:
    return {"correct": counts.correct, "predicted": counts.predicted,
            "gold": counts.gold, "precision": round(counts.precision, 4),
            "recall": round(counts.recall, 4), "f1": round(counts.f1, 4)}


def _report_json(report: ScoreReport, flags: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "srl-score %s" % __version__,
        "flags": flags,
        "metric": report.metric,
        "mode": report.mode,
        "predicates": _counts_json(report.predicate_counts),
        "arguments": _counts_json(report.argument_counts),
        "per_label": {label: _counts_json(c) for label, c in report.per_label.items()},
    }


def cmd_evaluate(args) -> int:
    metric = _metric_name(args.metric, args.format)
    [report] = _score(args, (metric,))
    print(_bold("Metric: %s  Mode: %s" % (metric, report.mode)))
    print("Predicate F1: %.4f  (%s)" % (report.predicate_counts.f1,
                                        _counts_line(report.predicate_counts)))
    print("Argument F1: %.4f  (%s)" % (report.argument_counts.f1,
                                       _counts_line(report.argument_counts)))
    if args.per_label:
        _print_per_label(report.per_label)
    if args.json:
        import json  # only --json needs it; srl-score start-up skips the import
        flags = {"gold": args.gold, "system": args.system, "format": args.format,
                 "metric": args.metric, "mode": report.mode, "words": args.words,
                 "senses": args.senses, "per_label": args.per_label}
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(_report_json(report, flags), handle, indent=2)
                handle.write("\n")
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (args.json, exc.strerror))
    return EXIT_OK


def cmd_compare(args) -> int:
    legacy, strict = _score(args, (_metric_name("legacy", args.format), "primesrl"))
    print(_bold("%-12s %10s %8s %8s %8s" % ("metric", "pred F1", "arg P", "arg R", "arg F1")))
    for report in (legacy, strict):
        print("%-12s %10.4f %8.4f %8.4f %8.4f"
              % (report.metric, report.predicate_counts.f1,
                 report.argument_counts.precision, report.argument_counts.recall,
                 report.argument_counts.f1))
    delta = strict.argument_counts.f1 - legacy.argument_counts.f1
    print("Argument F1 delta: %+.4f" % delta)
    return EXIT_OK


def cmd_stats(args) -> int:
    corpus = load_corpus(args.path, args.format, args.words)
    stats = corpus_stats(corpus)
    print(_bold("Corpus statistics"))
    print("Sentences: %d" % stats.total_sentences)
    print("Predicates: %d" % stats.total_predicates)
    print("Arguments: %d" % stats.total_arguments)
    print("C-X: %.2f%%" % stats.pct_continuation)
    print("R-X: %.2f%%" % stats.pct_reference)
    for label, n in stats.per_label.items():
        print("%-10s %6d" % (label, n))
    return EXIT_OK


def _add_io_args(parser) -> None:
    parser.add_argument("--format", choices=("conll09", "conll05"), default="conll09",
                        help="input file format; it sets the scoring mode, head for "
                        "conll09 and span for conll05 (default: conll09)")
    parser.add_argument("--words", default=None,
                        help="token file shared by gold and system (conll05 only)")


def _add_sense_args(parser) -> None:
    parser.add_argument("--senses", default=None,
                        help="sense sidecar for the gold side (conll05 only)")
    parser.add_argument("--senses-system", default=None,
                        help="sense sidecar for the system side (conll05 only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srl-score",
        description="Score semantic role labeling output against gold data.")
    parser.add_argument("--version", action="version", version="srl-score %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="score one system file with one metric")
    ev.add_argument("gold")
    ev.add_argument("system")
    _add_io_args(ev)
    _add_sense_args(ev)
    ev.add_argument("--metric", choices=("primesrl", "legacy"), default="primesrl",
                    help="scoring metric (default: primesrl)")
    ev.add_argument("--per-label", action="store_true", help="print a per-label table")
    ev.add_argument("--json", default=None, metavar="PATH",
                    help="write a machine-readable report")
    ev.set_defaults(func=cmd_evaluate)

    cmp_ = sub.add_parser("compare", help="strict vs legacy metric, side by side")
    cmp_.add_argument("gold")
    cmp_.add_argument("system")
    _add_io_args(cmp_)
    _add_sense_args(cmp_)
    cmp_.set_defaults(func=cmd_compare)

    st = sub.add_parser("stats", help="continuation/reference statistics of one file")
    st.add_argument("path")
    _add_io_args(st)
    st.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if sys.stdout is None:  # Python's stdout when fd 1 was closed at start-up
        print("error: cannot write standard output: %s" % os.strerror(errno.EBADF),
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a write the buffer held back fails here, not at exit
        return code
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except AlignmentError as exc:
        print("alignment error: %s" % exc, file=sys.stderr)
        return EXIT_ALIGN
    except (ConfigError, EmptyCorpus, MissingGoldSense) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # stdout is closed or full; the rest of the output goes nowhere, not to a flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: cannot write standard output: %s" % exc.strerror, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
