"""Readers, writers and alignment for the two corpus file formats.

Head-based data uses the CoNLL-2009 column layout (FILLPRED / PRED / APRED
columns); span-based data uses the CoNLL-2005 props layout (one bracket
column per target verb, plus a separate one-token-per-line words file).
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    LabelError,
    PredicateInstance,
    RawArgument,
    RoleLabel,
    SenseLabel,
    Token,
    VERB_BASE,
)

FILLPRED_COL = 12  # 0-based; column 13 in the format description
PRED_COL = 13
FIRST_APRED_COL = 14
_IDS = tuple(map(str, range(1, 1001)))  # CoNLL-2009 token ids 1..1000 as usually written


class ParseError(Exception):
    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.message = message
        self.line = line
        self.path = path
        super().__init__(str(self))

    def __str__(self) -> str:
        where = ""
        if self.path is not None:
            where += self.path + ":"
        if self.line is not None:
            where += "line %d: " % self.line
        elif where:
            where += " "
        return where + self.message


class ColumnCountMismatch(ParseError):
    pass


class DanglingApredColumn(ParseError):
    pass


class UnbalancedBracket(ParseError):
    pass


class OverlappingSpan(ParseError):
    pass


class AnchorMissing(ParseError):
    pass


class MalformedSenseWarning(UserWarning):
    """A predicate row whose PRED cell is not a parsable lemma.sense."""


class ModeMismatch(ValueError):
    pass


class AlignmentError(Exception):
    pass


class SentenceCountMismatch(AlignmentError):
    pass


class TokenMismatch(AlignmentError):
    def __init__(self, message: str, sentence: int, token: int):
        self.sentence = sentence
        self.token = token
        super().__init__(message)


@dataclass(init=False)
class Sentence:
    """A sentence's token forms, token i being ``forms[i - 1]``, and its predicates.

    ``Sentence(tokens, predicates)`` keeps only each ``Token``'s form, so it
    raises ValueError unless the tokens are numbered 1..n in order.
    """

    forms: tuple[str, ...]
    predicates: list[PredicateInstance]

    def __init__(self, tokens: list[Token], predicates: list[PredicateInstance]):
        forms = []
        for i, token in enumerate(tokens, start=1):
            if token.index != i:
                raise ValueError("token %d of the sentence has index %d; tokens are "
                                 "numbered 1..n" % (i, token.index))
            forms.append(token.form)
        self.forms = tuple(forms)
        self.predicates = predicates

    @classmethod
    def _of_forms(cls, forms: tuple[str, ...],
                  predicates: list[PredicateInstance]) -> Sentence:
        """The sentence of ``forms``, as the parsers build it: no ``Token`` per token."""
        sentence = cls.__new__(cls)
        sentence.forms = forms
        sentence.predicates = predicates
        return sentence

    @property
    def tokens(self) -> list[Token]:
        """The forms as ``Token``s numbered from 1, in a new list at each read."""
        return list(map(Token, range(1, len(self.forms) + 1), self.forms))


class Corpus(NamedTuple):
    sentences: list[Sentence]
    mode: str  # "head" | "span"


_CHUNK = 1 << 13  # characters split into lines at a time


def _chunks(text: str):
    """Yield ``text`` without one leading byte order mark in pieces of about
    ``_CHUNK`` characters, each ending just after a newline, so that splitting
    each piece into lines gives the lines of the whole text without holding
    them all at once."""
    start = 1 if text.startswith("\ufeff") else 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _rows(pieces):
    """(line_number, stripped_line) for every line of a text given as decoded
    ``pieces``, each ending just after a newline or at the end of the text.

    Lines and their numbers are those of ``"".join(pieces).splitlines()``. A
    blank line yields an empty string, which ends a sentence block.
    """
    lines = itertools.chain.from_iterable(map(str.splitlines, pieces))
    return enumerate(map(str.strip, lines), start=1)


def _blocks(pieces, comments: bool = False):
    """Yield (line_numbers, lines) per sentence of the text in ``pieces``, as
    ``_rows`` reads it: its stripped lines and their line numbers, a ``range``
    unless a skipped line follows the block's first line. With ``comments``,
    lines that start with ``#`` are skipped and do not end a sentence."""
    lines: list[str] = []
    skipped: list[int] = []  # comment lines after the block's first line
    for lineno, line in _rows(pieces):
        if line:
            if not (comments and line[0] == "#"):
                lines.append(line)
            elif lines:
                skipped.append(lineno)
        elif lines:
            yield _numbered(lines, skipped, lineno)
            lines, skipped = [], []
    if lines:
        yield _numbered(lines, skipped, lineno + 1)


def _numbered(lines: list[str], skipped: list[int], end: int):
    """(line_numbers, lines) of a block whose lines and ``skipped`` line numbers
    fill the lines just before line ``end``."""
    numbers = range(end - len(lines) - len(skipped), end)
    return (numbers if not skipped else [n for n in numbers if n not in skipped]), lines


def _sentences(n: int) -> str:
    return "%d sentence%s" % (n, "" if n == 1 else "s")


def _pair_blocks(first, second, mismatch):
    """Yield (n, first, second) for sentence n, from 1, of two iterators of
    sentences, unparsed blocks or parsed. When one ends first, raise
    ``mismatch(n_first, n_second)``; the longer side's rest is counted, not parsed."""
    n = 0
    for n, block in enumerate(first, start=1):
        other = next(second, None)
        if other is None:
            raise mismatch(n + sum(1 for _ in first), n - 1)
        yield n, block, other
    rest = sum(1 for _ in second)
    if rest:
        raise mismatch(n, n + rest)


def _role(labels: dict[str, RoleLabel], cell: str, lineno: int,
          path: str | None) -> RoleLabel:
    """The role label of ``cell``, parsed once per distinct cell into ``labels``."""
    label = labels.get(cell)
    if label is None:
        try:
            label = labels[cell] = RoleLabel.parse(cell)
        except LabelError as exc:
            raise ParseError(str(exc), line=lineno, path=path)
    return label


def _conll09_reader(pieces, path: str | None = None):
    """The unparsed sentence blocks of a CoNLL-2009 text, given as ``_rows``
    takes it, and the function that parses one of them."""
    # Parsed records are frozen, so each distinct cell is parsed, checked and
    # built once per reader and the result is shared by every row that repeats it.
    labels: dict[str, RoleLabel] = {}
    heads: dict[tuple[str, int], RawArgument] = {}
    senses: dict[str, SenseLabel] = {}

    def first_problem(block) -> ParseError:
        """The first problem, in file order, of a block that failed a whole-column
        check: a row too short for the fixed columns, else, row by row, a row
        with the wrong number of argument columns, a wrong token id or an
        invalid label."""
        rows = list(zip(block[0], map(str.split, block[1])))
        for lineno, cols in rows:
            if len(cols) < FIRST_APRED_COL:
                return ColumnCountMismatch(
                    "expected at least %d columns, found %d" % (FIRST_APRED_COL, len(cols)),
                    line=lineno, path=path)
        n_preds = sum(cols[FILLPRED_COL] == "Y" for _, cols in rows)
        for i, (lineno, cols) in enumerate(rows, start=1):
            if len(cols) < FIRST_APRED_COL + n_preds:
                return ColumnCountMismatch(
                    "expected %d columns for %d predicates, found %d"
                    % (FIRST_APRED_COL + n_preds, n_preds, len(cols)),
                    line=lineno, path=path)
            if len(cols) > FIRST_APRED_COL + n_preds:
                return DanglingApredColumn(
                    "row has %d argument columns but the sentence has %d predicate rows"
                    % (len(cols) - FIRST_APRED_COL, n_preds),
                    line=lineno, path=path)
            try:
                index = int(cols[0])
            except ValueError:
                return ParseError("token id %r is not an integer" % cols[0], line=lineno, path=path)
            if index != i:
                return ParseError("token ids not contiguous: expected %d, found %d"
                                  % (i, index), line=lineno, path=path)
            for cell in cols[FIRST_APRED_COL:]:
                if cell != "_":
                    try:
                        _role(labels, cell, lineno, path)
                    except ParseError as exc:
                        return exc
        raise AssertionError("block passes every row check")

    def parse(block) -> Sentence:
        numbers, lines = block
        rows = list(map(str.split, lines))
        n = len(rows)
        widths = set(map(len, rows))
        if min(widths) < FIRST_APRED_COL:
            raise first_problem(block)
        columns = list(zip(*rows))
        anchors = list(itertools.compress(range(1, n + 1), map("Y".__eq__, columns[FILLPRED_COL])))
        if widths != {FIRST_APRED_COL + len(anchors)}:
            raise first_problem(block)
        if columns[0] != _IDS[:n]:
            # ids spelled otherwise, such as 01 or +2, or past the end of _IDS
            try:
                numbered = list(map(int, columns[0])) == list(range(1, n + 1))
            except ValueError:
                numbered = False
            if not numbered:
                raise first_problem(block)

        # every argument column, before any sense warning
        arguments = []
        for column in columns[FIRST_APRED_COL:]:
            args = []
            for index, cell in itertools.compress(enumerate(column, start=1),
                                                  map("_".__ne__, column)):
                arg = heads.get((cell, index))
                if arg is None:
                    label = labels.get(cell)
                    if label is None:
                        try:
                            label = labels[cell] = RoleLabel.parse(cell)
                        except LabelError:
                            raise first_problem(block) from None
                    arg = heads[cell, index] = RawArgument(label, (index,))
                args.append(arg)
            arguments.append(tuple(args))

        predicates = []
        for anchor, args in zip(anchors, arguments):
            cell = columns[PRED_COL][anchor - 1]
            sense = senses.get(cell)
            if sense is None and cell != "_":
                try:
                    sense = senses[cell] = SenseLabel.parse(cell)
                except LabelError:
                    # not cached, so every occurrence warns with its own line
                    warnings.warn(str(ParseError("predicate sense cell %r is not lemma.sense; "
                                                 "recorded as sense-missing" % cell,
                                                 line=numbers[anchor - 1], path=path)),
                                  MalformedSenseWarning)
            predicates.append(PredicateInstance._parsed(anchor, sense, args))
        return Sentence._of_forms(columns[1], predicates)

    return _blocks(pieces, comments=True), parse


def parse_conll09(text: str, path: str | None = None) -> Corpus:
    blocks, parse = _conll09_reader(_chunks(text), path)
    return Corpus(sentences=list(map(parse, blocks)), mode="head")


_SPAN_LABEL = re.compile(r"[^\s()*]+")
_PROPS_CELL = re.compile(r"^(?:\((%s))?\*(\))?$" % _SPAN_LABEL.pattern)


def parse_sense_sidecar(text: str, path: str | None = None) -> dict[tuple[int, int], SenseLabel]:
    """Optional sense annotations for span data: "sent<TAB>token<TAB>lemma.sense"."""
    return _sense_table(_chunks(text), path)


def _sense_rows(pieces, path: str | None = None):
    """((sentence, token), sense, line) for every row of a sense sidecar text,
    given as ``_rows`` takes it, in file order; ParseError for a bad row."""
    labels: dict[str, SenseLabel] = {}
    for lineno, line in _rows(pieces):
        if not line or line[0] == "#":
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 3 fields (sentence, token, lemma.sense)",
                             line=lineno, path=path)
        try:
            key = int(parts[0]), int(parts[1])
            sense = labels.get(parts[2])
            if sense is None:
                sense = labels[parts[2]] = SenseLabel.parse(parts[2])
        except (ValueError, LabelError) as exc:
            raise ParseError(str(exc), line=lineno, path=path)
        yield key, sense, lineno


def _sense_table(pieces, path: str | None = None, in_order: bool = False):
    """The senses of a sidecar text, given as ``_rows`` takes it, by (sentence,
    token); ParseError at its first bad or repeated row in file order.

    With ``in_order``, only the current sentence's rows are kept, as a repeated
    key can then only be in the same sentence, and the first decrease of the
    sentence numbers returns None, leaving the rows after it unchecked.
    """
    senses: dict[tuple[int, int], SenseLabel] = {}
    sentence = None
    for key, sense, lineno in _sense_rows(pieces, path):
        if in_order and key[0] != sentence:
            if sentence is not None and key[0] < sentence:
                return None
            sentence, senses = key[0], {}
        if key in senses:
            raise ParseError("sentence %d, token %d already has a sense row" % key,
                             line=lineno, path=path)
        senses[key] = sense
    return senses


def _sidecar(text, path: str):
    """The two sense inputs of ``_conll05_reader`` for the sidecar at ``path``,
    whose text ``text()`` gives from its start at each call, as ``_rows`` takes
    it. The sidecar is checked first; when its sentence numbers never decrease,
    the pass reads it again a sentence at a time, otherwise it is held whole."""
    if _sense_table(text(), path, in_order=True) is None:
        return _sense_table(text(), path), ()
    return {}, _sense_rows(text(), path)


def _sentence_forms(pieces):
    """One forms tuple per sentence block of a words text, given as ``_rows``
    takes it, as ``_conll05_reader`` takes them; readers given the same tuples
    share them."""
    for _, words in _blocks(pieces):
        yield tuple(words)


def _conll05_reader(sentence_forms, props, senses: dict[tuple[int, int], SenseLabel],
                    path: str | None = None, rows=(), known=None):
    """The unparsed (sentence number, forms, props block) triples of a words
    file's ``_sentence_forms`` and a CoNLL-2005 props text, given as ``_rows``
    takes it, and the function that parses one; the sentence it returns holds
    that very forms tuple.

    Each predicate pops its row from ``senses``. ``rows``, ``_sense_rows`` of a
    sidecar in sentence order, are added to ``senses`` a sentence at a time,
    as its triple is drawn. Unequal sentence counts are a ParseError, raised as
    the shorter side ends; so is a sense row that names no predicate, the first
    in file order, raised once the pairs end.

    ``known`` maps one sentence number, the last parsed, to a dict from each of
    its props columns parsed so far to that column's (anchor, arguments).
    Readers given the same table parse a column that repeats one of the same
    sentence once, and share its arguments tuple.
    """
    # per reader, as in _conll09_reader: props cell -> its (opened, closed)
    # groups, and (opened label text, first row, last row) -> one span part
    labels: dict[str, RoleLabel] = {}
    cells: dict[str, tuple[str | None, str | None]] = {}
    spans: dict[tuple[str, int, int], RawArgument] = {}
    known = {} if known is None else known

    def parse(triple: tuple[int, tuple[str, ...], tuple]) -> Sentence:
        sent_no, forms, (numbers, lines) = triple
        rows = list(map(str.split, lines))
        if len(rows) != len(forms):
            raise ParseError("sentence %d: %d props rows for %d words"
                             % (sent_no, len(rows), len(forms)),
                             line=numbers[0], path=path)
        width = len(rows[0])
        if set(map(len, rows)) != {width}:
            lineno, cols = next((lineno, cols) for lineno, cols in zip(numbers, rows)
                                if len(cols) != width)
            raise ColumnCountMismatch("expected %d columns, found %d" % (width, len(cols)),
                                      line=lineno, path=path)

        parsed = known.get(sent_no)
        if parsed is None:
            known.clear()
            parsed = known[sent_no] = {}
        predicates = []
        columns: dict[int, int] = {}  # anchor -> its predicate column
        for j, column in enumerate(itertools.islice(zip(*rows), 1, None), start=1):
            known_column = parsed.get(column)
            if known_column is None:
                known_column = parsed[column] = walk(j, column, numbers)
            anchor, arguments = known_column
            if anchor in columns:
                raise ParseError("predicate columns %d and %d both anchor at token %d"
                                 % (columns[anchor], j, anchor),
                                 line=numbers[anchor - 1], path=path)
            columns[anchor] = j
            sense = senses.pop((sent_no, anchor), None)
            predicates.append(PredicateInstance._parsed(anchor, sense, arguments))

        predicates.sort(key=lambda p: p.anchor)
        return Sentence._of_forms(forms, predicates)

    def walk(j: int, column: tuple[str, ...], numbers) -> tuple[int, tuple[RawArgument, ...]]:
        """The anchor and span parts of props column ``j``, whose cells are on
        lines ``numbers``."""
        parts, anchor = [], None
        open_text = ""
        open_label: RoleLabel | None = None
        open_start = 0
        # a "*" cell neither opens nor closes a span
        for i, cell in itertools.compress(enumerate(column), map("*".__ne__, column)):
            groups = cells.get(cell)
            if groups is None:
                m = _PROPS_CELL.match(cell)
                if not m:
                    raise ParseError("malformed props cell %r" % cell,
                                     line=numbers[i], path=path)
                groups = cells[cell] = m.groups()
            opened, closed = groups
            if opened is not None:
                if open_label is not None:
                    raise OverlappingSpan(
                        "span %s opened inside an open %s span" % (opened, open_label),
                        line=numbers[i], path=path)
                open_label = labels.get(opened) or _role(labels, opened, numbers[i], path)
                open_text = opened
                open_start = i
            if closed is not None:
                if open_label is None:
                    raise UnbalancedBracket("close bracket without an open span",
                                            line=numbers[i], path=path)
                part = spans.get((open_text, open_start, i))
                if part is None:
                    part = spans[open_text, open_start, i] = RawArgument(
                        label=open_label, extent=tuple(range(open_start + 1, i + 2)))
                parts.append(part)
                if anchor is None and open_label.base == VERB_BASE:
                    anchor = open_start + 1  # the first V part's first token
                open_label = None
        if open_label is not None:
            raise UnbalancedBracket("span %s never closed" % (open_label,),
                                    line=numbers[open_start], path=path)
        if anchor is None:
            raise AnchorMissing("predicate column %d has no V span" % j,
                                line=numbers[0], path=path)
        return anchor, tuple(parts)

    def mismatch(n_words: int, n_props: int) -> ParseError:
        return ParseError("words file has %s, props file has %d"
                          % (_sentences(n_words), n_props), path=path)

    def pairs():
        ahead = iter(rows)
        row = next(ahead, None)
        for triple in _pair_blocks(sentence_forms, _blocks(props), mismatch):
            while row is not None and row[0][0] <= triple[0]:
                senses[row[0]] = row[1]
                row = next(ahead, None)
            yield triple
        # rows left in senses came before those not yet taken
        unclaimed = next(iter(senses), None) or row and row[0]
        if unclaimed:
            raise ParseError("sense row for sentence %d, token %d names no predicate"
                             % unclaimed, path=path)
    return pairs(), parse


def parse_conll05(words: str, props: str,
                  senses: dict[tuple[int, int], SenseLabel] | None = None,
                  path: str | None = None) -> Corpus:
    """A span corpus from a token text and a props text; ``senses`` maps
    (sentence, anchor token) to a sense and is left unmodified."""
    blocks, parse = _conll05_reader(_sentence_forms(_chunks(words)), _chunks(props),
                                    dict(senses or {}), path)
    return Corpus(sentences=list(map(parse, blocks)), mode="span")


def _inside(extent: tuple[int, ...], n_tokens: int, what: str) -> None:
    if extent[0] < 1 or extent[-1] > n_tokens:
        raise ValueError("%s %s is outside tokens 1..%d" % (what, extent, n_tokens))


def _in_anchor_order(sentence: Sentence) -> list[PredicateInstance]:
    """The sentence's predicates in anchor order, the order both parsers give;
    ValueError for an anchor that is outside the sentence or repeats."""
    predicates = sorted(sentence.predicates, key=lambda p: p.anchor)
    previous = 0
    for pred in predicates:
        _inside((pred.anchor,), len(sentence.forms), "predicate anchor")
        if pred.anchor == previous:
            raise ValueError("two predicates anchored at token %d" % previous)
        previous = pred.anchor
    return predicates


def _cell(text: str, what: str) -> str:
    """``text`` as one whitespace-separated column; ValueError when it is empty or
    holds whitespace."""
    if text.split() != [text]:
        raise ValueError("%s %r is empty or contains whitespace" % (what, text))
    return text


def _role_cell(label: RoleLabel, span: bool) -> str:
    """``str(label)``; ValueError unless it is one cell of the format, with no
    whitespace and, in conll09, not the empty APRED cell ``_`` or, in conll05,
    no bracket or ``*``, and it parses back to ``label``."""
    text = str(label)
    fits = _SPAN_LABEL.fullmatch(text) if span else text.split() == [text] and text != "_"
    if not fits or RoleLabel.parse(text) != label:
        raise ValueError("role label %r does not read back as itself" % (text,))
    return text


def _has_tokens(n: int, sentence: Sentence) -> None:
    # an empty sentence would be written as a blank line, that is, as no sentence
    if not sentence.forms:
        raise ValueError("sentence %d has no tokens" % n)


def serialize_conll09(corpus: Corpus) -> str:
    if corpus.mode != "head":
        raise ModeMismatch("CoNLL-2009 output requires a head-mode corpus")
    out = []
    for n, sentence in enumerate(corpus.sentences, start=1):
        _has_tokens(n, sentence)
        predicates = _in_anchor_order(sentence)
        apred = [["_"] * len(sentence.forms) for _ in predicates]
        for k, pred in enumerate(predicates):
            for arg in pred.arguments:
                if len(arg.extent) != 1:
                    raise ModeMismatch("head-mode argument with multi-token extent")
                _inside(arg.extent, len(sentence.forms), "argument")
                i = arg.extent[0] - 1
                if apred[k][i] != "_":
                    raise ValueError("two labels on one token for one predicate")
                apred[k][i] = _role_cell(arg.label, span=False)
        pred_by_anchor = {p.anchor: p for p in predicates}
        for index, form in enumerate(sentence.forms, start=1):
            pred = pred_by_anchor.get(index)
            fillpred = "Y" if pred is not None else "_"
            sense = (_cell(str(pred.sense), "sense") if pred is not None and pred.sense is not None
                     else "_")
            cols = ([str(index), _cell(form, "form")] + ["_"] * 10 + [fillpred, sense]
                    + [column[index - 1] for column in apred])
            out.append("\t".join(cols))
        out.append("")
    return "\n".join(out)


def serialize_conll05(corpus: Corpus) -> tuple[str, str]:
    if corpus.mode != "span":
        raise ModeMismatch("CoNLL-2005 output requires a span-mode corpus")
    words_out = []
    props_out = []
    for n, sentence in enumerate(corpus.sentences, start=1):
        _has_tokens(n, sentence)
        n_tokens = len(sentence.forms)
        col0 = ["-"] * n_tokens
        columns = []
        for pred in _in_anchor_order(sentence):
            opens = [""] * n_tokens
            closes = [""] * n_tokens
            parts = list(pred.arguments)
            if not any(p.label.base == VERB_BASE for p in parts):
                parts.append(RawArgument(label=RoleLabel(VERB_BASE),
                                         extent=(pred.anchor,)))
            parts.sort(key=lambda p: p.extent[0])
            verb = next(p for p in parts if p.label.base == VERB_BASE)
            if verb.extent[0] != pred.anchor:
                raise ValueError("first V part starts at token %d, not at the anchor %d"
                                 % (verb.extent[0], pred.anchor))
            # the parser reads one open span at a time, so each part must start
            # after the previous one ends
            end = 0
            for part in parts:
                if list(part.extent) != list(range(part.extent[0], part.extent[-1] + 1)):
                    raise ValueError("span part %s is not contiguous" % (part.extent,))
                _inside(part.extent, n_tokens, "span part")
                if part.extent[0] <= end:
                    raise ValueError("overlapping span parts in one predicate column")
                end = part.extent[-1]
                opens[part.extent[0] - 1] = "(" + _role_cell(part.label, span=True)
                closes[end - 1] = ")"
            columns.append([opens[i] + "*" + closes[i] for i in range(n_tokens)])
            lemma = pred.sense.lemma if pred.sense is not None else \
                sentence.forms[pred.anchor - 1]
            col0[pred.anchor - 1] = _cell(lemma, "lemma")
        for i, form in enumerate(sentence.forms):
            # a words line is read stripped, and the text's first character
            # is dropped when it is a byte order mark
            if (form.strip() != form or form.splitlines() != [form]
                    or (not words_out and form.startswith("\ufeff"))):
                raise ValueError("form %r does not read back as one words line" % (form,))
            words_out.append(form)
            props_out.append("\t".join([col0[i]] + [col[i] for col in columns]))
        words_out.append("")
        props_out.append("")
    return "\n".join(words_out), "\n".join(props_out)


class AlignedSentence(NamedTuple):
    index: int  # 1-based sentence number
    pairs: list[tuple[PredicateInstance, PredicateInstance]]
    missed: list[PredicateInstance]
    spurious: list[PredicateInstance]


class AlignedCorpus(NamedTuple):
    sentences: list[AlignedSentence]


def _count_mismatch(gold: int, system: int) -> SentenceCountMismatch:
    return SentenceCountMismatch("gold has %s, system has %d" % (_sentences(gold), system))


def _align_sentence(idx: int, gs: Sentence, ss: Sentence) -> AlignedSentence:
    """Check that sentence ``idx`` has the same forms on both sides and pair its
    gold and system predicates by anchor token index."""
    gold, system = gs.forms, ss.forms
    if gold != system:
        if len(gold) != len(system):
            raise TokenMismatch(
                "sentence %d: gold has %d tokens, system has %d"
                % (idx, len(gold), len(system)),
                sentence=idx, token=min(len(gold), len(system)) + 1)
        for index, (gf, sf) in enumerate(zip(gold, system), start=1):
            if gf != sf:
                raise TokenMismatch(
                    "sentence %d, token %d: form %r != %r" % (idx, index, gf, sf),
                    sentence=idx, token=index)
    sys_by_anchor = {p.anchor: p for p in ss.predicates}
    pairs, missed = [], []
    for gp in gs.predicates:
        sp = sys_by_anchor.pop(gp.anchor, None)
        if sp is None:
            missed.append(gp)
        else:
            pairs.append((gp, sp))
    return AlignedSentence(idx, pairs, missed, [sys_by_anchor[a] for a in sorted(sys_by_anchor)])


def _corpus_pairs(gold: Corpus, system: Corpus):
    """The (sentence number, gold, system) triples of two corpora, by the CLI's rule."""
    return _pair_blocks(iter(gold.sentences), iter(system.sentences), _count_mismatch)


def align(gold: Corpus, system: Corpus) -> AlignedCorpus:
    """Pair gold and system predicates by anchor token index."""
    return AlignedCorpus(sentences=[_align_sentence(*triple)
                                    for triple in _corpus_pairs(gold, system)])
