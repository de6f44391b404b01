"""Command-line front end: evaluate, compare and stats subcommands."""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import itertools
import json
import os
import sys

from . import __version__
from .conll import (
    AlignmentError,
    Corpus,
    ParseError,
    _conll05_reader,
    _conll09_reader,
    _count_mismatch,
    _pair_blocks,
    _sentence_forms,
    _sidecar,
)
from .model import EvalCounts, ScoreReport
from .scoring import EmptyCorpus, MissingGoldSense, corpus_stats, score_pairs

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ALIGN = 3
EXIT_CONFIG = 4

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _bold(text: str) -> str:
    if os.environ.get("PRIME_SRL_NO_COLOR") or not sys.stdout.isatty():
        return text
    return "\033[1m%s\033[0m" % text


_CHUNK = 1 << 13  # bytes read from an input at a time


def _pieces(handle):
    """The bytes of the binary file ``handle`` from its position, in pieces of
    about ``_CHUNK`` bytes that each end just after a newline or at the end of
    the file. A newline byte is never part of a longer UTF-8 sequence, so each
    piece decodes on its own, and a ``\r\n`` is never split."""
    parts = []
    while chunk := handle.read(_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            parts.append(chunk[:cut])
            yield b"".join(parts)
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
    rest = b"".join(parts)
    if rest:
        yield rest


def _decoded(handle, path: str):
    """The text of ``handle`` from its start, without a leading byte order mark,
    as decoded pieces that ``conll._rows`` reads; ParseError at the first byte
    that is not UTF-8."""
    handle.seek(0)
    offset = 0
    for piece in _pieces(handle):
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _bad_byte(handle, path, offset + exc.start) from None
        yield text[1:] if offset == 0 and text.startswith("\ufeff") else text
        offset += len(piece)


def _bad_byte(handle, path: str, offset: int) -> ParseError:
    """The ParseError for the byte at ``offset``, the first one of the file that
    is not UTF-8, on the line the parsers would number it with."""
    handle.seek(0)
    lines = 0
    for piece in _pieces(handle):
        if offset < len(piece):
            before = piece[:offset].decode("utf-8")
            return ParseError("byte 0x%02x is not valid UTF-8" % piece[offset],
                              line=lines + len((before + "_").splitlines()), path=path)
        # every piece before the last ends with a newline, so lines add up
        lines += len(piece.decode("utf-8").splitlines())
        offset -= len(piece)
    raise AssertionError("offset %d is past the end of the file" % offset)


def _read(path: str, files: contextlib.ExitStack):
    """A function that gives the text of the file at ``path`` as ``_decoded``
    gives it, from its start at each call.

    The file is opened, into ``files``, and decoded whole first, keeping no
    text, so that a file that cannot be read or decoded fails here rather than
    partway through the pass. A file that cannot seek, such as a pipe, is
    read into memory first.
    """
    try:
        handle = files.enter_context(open(path, "rb"))
        if not handle.seekable():
            handle = io.BytesIO(handle.read())
        collections.deque(_decoded(handle, path), maxlen=0)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror))
    return functools.partial(_decoded, handle, path)


def _words(fmt: str, words: str | None, files: contextlib.ExitStack):
    """The forms tuple of each sentence of the conll05 token file; None for conll09."""
    if fmt == "conll09":
        return None
    if words is None:
        raise ConfigError("--format conll05 requires --words TOKEN_FILE")
    return _sentence_forms(_read(words, files)())


def _stream(path: str, fmt: str, words, senses: str | None, files: contextlib.ExitStack,
            known=None):
    """The unparsed sentence blocks of one input file and the function that
    parses each of them in turn; ``words`` is what ``_words`` returned, the
    files read stay open in ``files``, and ``known`` is the conll05 reader's
    table of parsed props columns.

    A sense sidecar is read as ``conll._sidecar`` reads it: checked whole
    first, then read again a sentence at a time or held whole."""
    if fmt == "conll09":
        return _conll09_reader(_read(path, files)(), path)
    sidecar, rows = _sidecar(_read(senses, files), senses) if senses is not None else ({}, ())
    return _conll05_reader(words, _read(path, files)(), sidecar, path, rows, known)


def _mode(fmt: str) -> str:
    return "head" if fmt == "conll09" else "span"


def load_corpus(path: str, fmt: str, words: str | None) -> Corpus:
    with contextlib.ExitStack() as files:
        blocks, parse = _stream(path, fmt, _words(fmt, words, files), None, files)
        return Corpus(list(map(parse, blocks)), mode=_mode(fmt))


def _score(args, metrics: tuple[str, ...]) -> list[ScoreReport]:
    """Parse, align and score gold against system in one pass, one report per metric.

    The gold file must have a sentence block before the system file is read.
    Each gold and system block pair is parsed, gold first, once it is paired;
    in conll05, both sides share one forms tuple per sentence of the token file,
    and a system props column equal to a gold one of its sentence is parsed once.
    """
    with contextlib.ExitStack() as files:
        gold_words, system_words = itertools.tee(_words(args.format, args.words, files) or ())
        known: dict = {}
        gold, parse_gold = _stream(args.gold, args.format, gold_words, args.senses, files,
                                   known)
        first = next(gold, None)
        if first is None:
            raise ConfigError("%s: no sentences" % args.gold)
        system, parse_system = _stream(args.system, args.format, system_words,
                                       args.senses_system, files, known)
        pairs = _pair_blocks(itertools.chain([first], gold), system, _count_mismatch)
        return score_pairs(((n, parse_gold(g), parse_system(s)) for n, g, s in pairs),
                           metrics, _mode(args.format))


def _metric_name(metric: str, fmt: str) -> str:
    return "legacy_" + _mode(fmt) if metric == "legacy" else metric


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
    try:
        for option in ("senses", "senses_system", "words"):
            if args.format == "conll09" and getattr(args, option, None) is not None:
                raise ConfigError("--%s is read only with --format conll05" % option.replace("_", "-"))
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except AlignmentError as exc:
        print("alignment error: %s" % exc, file=sys.stderr)
        return EXIT_ALIGN
    except (ConfigError, EmptyCorpus, MissingGoldSense) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
