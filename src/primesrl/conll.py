"""Readers, writers and alignment for the two corpus file formats.

Head-based data uses the CoNLL-2009 column layout (FILLPRED / PRED / APRED
columns); span-based data uses the CoNLL-2005 props layout (one bracket
column per target verb, plus a separate one-token-per-line words file).
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import functools
import io
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
MODES = {"conll09": "head", "conll05": "span"}  # input format -> scoring mode
_IDS = list(map(str, range(1, 1001)))  # CoNLL-2009 token ids 1..1000 as usually written


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


class ConfigError(Exception):
    """An input file that cannot be read, or inputs the format does not take."""


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


_CHUNK = 1 << 13  # characters or bytes split into lines at a time


def _pieces(source):
    """The text of a str, or the bytes of a binary file from its position, in
    pieces of about ``_CHUNK`` characters or bytes, each ending just after a
    newline or at the end. A newline byte is never part of a longer UTF-8
    sequence, so each piece of bytes decodes on its own; ``\\r\\n`` is never split."""
    if isinstance(source, str):
        newline = "\n"
        chunks = (source[i:i + _CHUNK] for i in range(0, len(source), _CHUNK))
    else:
        newline = b"\n"
        chunks = iter(functools.partial(source.read, _CHUNK), b"")
    parts = []
    for chunk in chunks:
        cut = chunk.rfind(newline) + 1
        if cut:
            parts.append(chunk[:cut])
            yield newline[:0].join(parts)
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
    rest = newline[:0].join(parts)
    if rest:
        yield rest


def _decoded(handle, path: str):
    """The text of the binary file ``handle`` from its start, as decoded
    ``_pieces``; ParseError at the first byte that is not UTF-8."""
    handle.seek(0)
    for n, piece in enumerate(_pieces(handle)):
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the line _rows would number the byte with: every piece before
            # this one ends with a newline, so their lines add up
            handle.seek(0)
            line = sum(len(before.decode("utf-8").splitlines())
                       for before in itertools.islice(_pieces(handle), n))
            line += len((piece[:exc.start].decode("utf-8") + "_").splitlines())
            raise ParseError("byte 0x%02x is not valid UTF-8" % piece[exc.start],
                             line=line, path=path) from None
        yield text


def _unmarked(pieces):
    """Decoded ``pieces`` of a text less one byte order mark (U+FEFF) that
    starts the text, which every reader drops."""
    pieces = iter(pieces)
    first = (piece.removeprefix("\ufeff") for piece in itertools.islice(pieces, 1))
    return itertools.chain(first, pieces)


def _rows(pieces):
    """(line_number, stripped_line) for every line of a text given as decoded
    ``pieces``, each ending just after a newline or at the end of the text.

    Lines and their numbers are those of ``"".join(pieces).splitlines()``
    less one byte order mark, dropped by ``_unmarked``. A blank line yields an
    empty string, which ends a sentence block.
    """
    lines = itertools.chain.from_iterable(map(str.splitlines, _unmarked(pieces)))
    return enumerate(map(str.strip, lines), start=1)


def _blocks(pieces, comments: bool = False):
    """Yield (line_numbers, lines) per sentence of the text in ``pieces``: two
    lists, the numbers and the stripped lines as ``_rows`` reads them. With
    ``comments``, lines that start with ``#`` are skipped and do not end a
    sentence."""
    numbers: list[int] = []
    lines: list[str] = []
    for lineno, line in _rows(pieces):
        if line:
            if not (comments and line[0] == "#"):
                numbers.append(lineno)
                lines.append(line)
        elif lines:
            yield numbers, lines
            numbers, lines = [], []
    if lines:
        yield numbers, lines


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


def _conll09_reader(pieces, path: str | None = None, tables=None):
    """The unparsed sentence blocks of a CoNLL-2009 text, given as ``_rows``
    takes it, and the function that parses one of them. Readers given the same
    ``tables`` share its ``heads`` table, from (argument cell, token) to its
    record: a cell that repeats at the same token is parsed once."""
    # Parsed records are frozen, so each distinct sense cell, and argument cell
    # at its token, is parsed, checked and built once per reader (argument cells
    # once per shared heads table) and the result is shared by every row that repeats it.
    heads: dict[tuple[str, int], RawArgument] = {} if tables is None else tables["heads"]
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
                        RoleLabel.parse(cell)
                    except LabelError as exc:
                        return ParseError(str(exc), line=lineno, path=path)
        raise AssertionError("block passes every row check")

    def parse(block) -> Sentence:
        numbers, lines = block
        rows = list(map(str.split, lines))
        n = len(rows)
        widths = set(map(len, rows))
        if min(widths) < FIRST_APRED_COL:
            raise first_problem(block)
        anchors = [i for i, row in enumerate(rows, start=1) if row[FILLPRED_COL] == "Y"]
        if widths != {FIRST_APRED_COL + len(anchors)}:
            raise first_problem(block)
        ids = [row[0] for row in rows]
        if ids != _IDS[:n]:
            # ids spelled otherwise, such as 01 or +2, or past the end of _IDS
            try:
                numbered = list(map(int, ids)) == list(range(1, n + 1))
            except ValueError:
                numbered = False
            if not numbered:
                raise first_problem(block)

        # every argument column, before any sense warning
        arguments = []
        for k in range(FIRST_APRED_COL, FIRST_APRED_COL + len(anchors)):
            args = []
            for index, row in enumerate(rows, start=1):
                cell = row[k]
                if cell != "_":
                    arg = heads.get((cell, index))
                    if arg is None:
                        try:
                            arg = heads[cell, index] = RawArgument(RoleLabel.parse(cell), (index,))
                        except LabelError:
                            raise first_problem(block) from None
                    args.append(arg)
            arguments.append(tuple(args))

        predicates = []
        for anchor, args in zip(anchors, arguments):
            cell = rows[anchor - 1][PRED_COL]
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
        return Sentence._of_forms(tuple([row[1] for row in rows]), predicates)

    return _blocks(pieces, comments=True), parse


def parse_conll09(text: str, path: str | None = None) -> Corpus:
    blocks, parse = _conll09_reader(_pieces(text), path)
    return Corpus(sentences=list(map(parse, blocks)), mode="head")


_PROPS_CELL = re.compile(r"^(?:\(([^\s()*]+))?\*(\))?$")


def parse_sense_sidecar(text: str, path: str | None = None) -> dict[tuple[int, int], SenseLabel]:
    """Optional sense annotations for span data: "sent<TAB>token<TAB>lemma.sense"."""
    return _sense_table(_pieces(text), path)


def _sense_rows(rows, held, path: str | None = None):
    """((sentence, token), sense) for every row of a sense sidecar, given as
    ``_rows`` gives its lines, in file order; ParseError at the first bad row,
    or row whose key ``held`` or an earlier row holds."""
    keys = set()
    for lineno, line in rows:
        if not line or line[0] == "#":
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 3 fields (sentence, token, lemma.sense)",
                             line=lineno, path=path)
        try:
            key = int(parts[0]), int(parts[1])
            sense = SenseLabel.parse(parts[2])
        except (ValueError, LabelError) as exc:
            raise ParseError(str(exc), line=lineno, path=path)
        if key in held or key in keys:
            raise ParseError("sentence %d, token %d already has a sense row" % key,
                             line=lineno, path=path)
        keys.add(key)
        yield key, sense


# a piece of sidecar text whose every line is three tab-separated fields and
# no comment, as sidecars are written: its fields need no split line by line
_PLAIN_SENSE_LINES = re.compile(r"(?:[^\s#]\S*\t\S+\t\S+\n)*")


def _sense_piece(piece: str, labels: dict[str, SenseLabel]):
    """The number of lines of a piece of sidecar text, the sentence numbers of
    its rows, less blank and ``#`` lines, and their dict from (sentence, token)
    to sense; None for the dict if a row is not 3 fields, a number or a sense
    does not parse, or a key repeats. ``labels`` holds the senses parsed so
    far by their text; each number text is converted once."""
    if _PLAIN_SENSE_LINES.fullmatch(piece):
        lines, fields = piece.count("\n"), piece.split()
    else:
        lines = piece.splitlines()
        rows = [row for row in map(str.split, lines) if row and row[0][0] != "#"]
        lines, fields = len(lines), list(itertools.chain.from_iterable(rows))
        if set(map(len, rows)) - {3}:
            return lines, None, None
    sentences, tokens, texts = fields[0::3], fields[1::3], fields[2::3]
    numbers = {*sentences, *tokens}
    try:
        ints = dict(zip(numbers, map(int, numbers)))
        for text in set(texts).difference(labels):
            labels[text] = SenseLabel.parse(text)
    except (ValueError, LabelError):
        return lines, None, None
    sentences = list(map(ints.__getitem__, sentences))
    senses = dict(zip(zip(sentences, map(ints.__getitem__, tokens)),
                      map(labels.__getitem__, texts)))
    return lines, sentences, senses if len(senses) == len(sentences) else None


def _sense_pieces(pieces, path: str | None = None, table=None):
    """A dict from (sentence, token) to sense for the rows of each decoded
    piece of a sense sidecar text, given as ``_rows`` takes it, that has rows.

    Given a ``table``, each piece is checked against it and added to it; a
    piece that fails is walked by ``_sense_rows`` to raise a ParseError at its
    first bad or repeated row. Without one, sentence numbers must not
    decrease, so only the last sentence's keys are held, and the first piece
    that fails a check gives None and ends the pieces.
    """
    labels: dict[str, SenseLabel] = {}
    held = set() if table is None else table.keys()  # keys the next row may not repeat
    last = float("-inf")  # the sentence of the last row
    lineno = 0  # lines up to the end of the piece
    for piece in _unmarked(pieces):
        lines, sentences, senses = _sense_piece(piece, labels)
        lineno += lines
        if senses == {}:
            continue
        if senses is None or not held.isdisjoint(senses) or table is None and (
                sentences[0] < last or sentences != sorted(sentences)):
            if table is None:
                yield None
                return
            numbered = enumerate(map(str.strip, piece.splitlines()), start=lineno - lines + 1)
            collections.deque(_sense_rows(numbered, held, path), maxlen=0)
            raise AssertionError("piece passes every row check")
        if table is None:
            if sentences[-1] != last:
                held, last = set(), sentences[-1]
            held.update(itertools.islice(senses, bisect.bisect_left(sentences, last), None))
        else:
            table.update(senses)
        yield senses


def _sense_table(pieces, path: str | None = None) -> dict[tuple[int, int], SenseLabel]:
    """The senses of a sidecar text, given as ``_rows`` takes it, by (sentence,
    token); ParseError at its first bad or repeated row in file order."""
    senses: dict[tuple[int, int], SenseLabel] = {}
    collections.deque(_sense_pieces(pieces, path, senses), maxlen=0)
    return senses


def _sidecar(text, path: str):
    """The two sense inputs of ``_conll05_reader`` for the sidecar at ``path``,
    whose text ``text()`` gives from its start at each call, as ``_rows`` takes
    it. The sidecar is checked a piece at a time first; when its sentence
    numbers never decrease, the pass reads its ``_sense_pieces`` again, one
    piece at a time, and a ConfigError if a piece no longer passes the check.
    Otherwise, or when a piece fails a check, it is read whole, which names
    its first problem or holds it whole."""
    if any(senses is None for senses in _sense_pieces(text(), path)):
        return _sense_table(text(), path), ()

    def checked():
        for senses in _sense_pieces(text(), path):
            if senses is None:  # the file was rewritten since the check
                raise ConfigError("cannot read %s: it changed after it was checked" % path)
            yield senses
    return {}, checked()


def _sentence_forms(pieces):
    """One forms tuple per sentence block of a words text, given as ``_rows``
    takes it, as ``_conll05_reader`` takes them."""
    for _, words in _blocks(pieces):
        yield tuple(words)


def _conll05_reader(sentence_forms, props, senses: dict[tuple[int, int], SenseLabel],
                    path: str | None = None, rows=(), tables=None):
    """The unparsed (sentence number, forms, props block) triples of a words
    file's ``_sentence_forms`` and a CoNLL-2005 props text, given as ``_rows``
    takes it, and the function that parses one; the sentence it returns holds
    that very forms tuple.

    Each predicate pops its row from ``senses``. ``rows``, the ``_sense_pieces``
    of a sidecar in sentence order, are added to ``senses`` a piece at a time,
    as the triple of the piece's first sentence is drawn. Unequal sentence
    counts are a ParseError, raised as the shorter side ends; so is a sense row
    that names no predicate, the first in file order, raised once the triples
    have run out and every drawn one is parsed.

    Readers given the same ``tables`` share its props tables: ``labels``,
    ``cells`` and ``spans``, so a span part is parsed once into one record, and
    ``known``, which maps one sentence number, the last parsed, to a dict from
    each of its props columns parsed so far to that column's (anchor,
    arguments), so a column that repeats one of the same sentence is parsed
    once and shares its arguments tuple.
    """
    # as in _conll09_reader: label text -> its label, props cell -> its
    # (opened, closed) groups, and (opened label text, first row, last row) ->
    # one span part
    tables = collections.defaultdict(dict) if tables is None else tables
    labels: dict[str, RoleLabel] = tables["labels"]
    cells: dict[str, tuple[str | None, str | None]] = tables["cells"]
    spans: dict[tuple[str, int, int], RawArgument] = tables["spans"]
    known = tables["known"]
    parsed_blocks, drawn = 0, None  # drawn: the triples drawn, once they have run out
    waiting = None  # the next sidecar piece, not yet in senses

    def parse(triple: tuple[int, tuple[str, ...], tuple]) -> Sentence:
        nonlocal parsed_blocks
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
        parsed_blocks += 1
        if parsed_blocks == drawn:
            claimed()
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
                open_label = labels.get(opened)
                if open_label is None:
                    try:
                        open_label = labels[opened] = RoleLabel.parse(opened)
                    except LabelError as exc:
                        raise ParseError(str(exc), line=numbers[i], path=path)
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

    def claimed() -> None:
        """ParseError for the first sense row in file order that names no predicate."""
        # rows left in senses came before those not yet taken
        unclaimed = next(iter(senses), None) or waiting and next(iter(waiting))
        if unclaimed:
            raise ParseError("sense row for sentence %d, token %d names no predicate"
                             % unclaimed, path=path)

    def pairs():
        nonlocal waiting, drawn
        pieces = iter(rows)
        waiting = next(pieces, None)
        n = 0
        for n, forms, block in _pair_blocks(sentence_forms, _blocks(props), mismatch):
            while waiting is not None and next(iter(waiting))[0] <= n:
                senses.update(waiting)
                waiting = next(pieces, None)
            yield n, forms, block
        drawn = n
        if parsed_blocks == drawn:
            claimed()
    return pairs(), parse


def parse_conll05(words: str, props: str,
                  senses: dict[tuple[int, int], SenseLabel] | None = None,
                  path: str | None = None) -> Corpus:
    """A span corpus from a token text and a props text; ``senses`` maps
    (sentence, anchor token) to a sense and is left unmodified."""
    blocks, parse = _conll05_reader(_sentence_forms(_pieces(words)), _pieces(props),
                                    dict(senses or {}), path)
    return Corpus(sentences=list(map(parse, blocks)), mode="span")


def _opened(path: str, files: contextlib.ExitStack):
    """A function that gives the text of the file at ``path``, opened into
    ``files``, as ``_decoded`` gives it from its start at each call. The file is
    decoded whole first, keeping no text, so that it fails here, not in the
    pass; one that cannot seek, such as a pipe, is held as bytes."""
    try:
        handle = files.enter_context(open(path, "rb"))
        if not handle.seekable():
            handle = io.BytesIO(handle.read())
        collections.deque(_decoded(handle, path), maxlen=0)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc.strerror))
    return functools.partial(_decoded, handle, path)


def _forms(format: str, words: str | None, files: contextlib.ExitStack, **sidecars):
    """The forms tuple of each sentence of the conll05 ``words`` file, opened
    into ``files``; None for conll09. ConfigError, before any file is opened,
    for a words file or sidecar that ``format`` does not read or lacks."""
    if format not in MODES:
        raise ValueError("unknown format %r" % format)
    if format == "conll09":
        given = [name for name, value in dict(sidecars, words=words).items() if value is not None]
        if given:
            raise ConfigError("--%s is read only with --format conll05" % given[0].replace("_", "-"))
        return None
    if words is None:
        raise ConfigError("--format conll05 requires --words TOKEN_FILE")
    return _sentence_forms(_opened(words, files)())


def _reader(path: str, format: str, forms, senses: str | None, files: contextlib.ExitStack,
            tables=None):
    """The unparsed sentence blocks of the corpus file at ``path`` and the
    function that parses each of them in turn, as ``_conll09_reader`` or
    ``_conll05_reader`` gives them for ``_forms``' forms and the shared parse
    ``tables``."""
    if format == "conll09":
        return _conll09_reader(_opened(path, files)(), path, tables)
    sidecar, rows = _sidecar(_opened(senses, files), senses) if senses is not None else ({}, ())
    return _conll05_reader(forms, _opened(path, files)(), sidecar, path, rows, tables)


def read(path: str, format: str, words: str | None = None, senses: str | None = None):
    """Yield the sentences of the corpus file at ``path`` in file order, as
    ``parse_conll09`` (``format`` "conll09") or ``parse_conll05`` ("conll05",
    with the ``words`` file and an optional ``senses`` sidecar) gives them.

    Each file is decoded whole when it is opened, keeping no text, then read
    again a piece at a time, so memory does not grow with its size. Every file
    is closed when the sentences end, an error is raised or the generator is closed.
    """
    with contextlib.ExitStack() as files:
        blocks, parse = _reader(path, format, _forms(format, words, files, senses=senses),
                                senses, files)
        yield from map(parse, blocks)


def read_pairs(gold: str, system: str, format: str, words: str | None = None,
               senses: str | None = None, senses_system: str | None = None):
    """Yield (n, gold sentence, system sentence) for each sentence n, from 1, of
    the gold and system files, each read as ``read`` reads it, for ``score_pairs``.

    A gold file without sentences is a ConfigError before the system files
    are opened. Each pair is parsed, gold first, once it is drawn. Both sides
    share one set of parse tables. In conll05 they share one forms tuple per
    words sentence, a system props column equal to a gold one of its sentence
    is parsed once, and so is a system span part equal to a gold one, into the
    same record. In conll09 a system argument cell equal to a gold one at the
    same token is parsed once, into the same record.
    """
    with contextlib.ExitStack() as files:
        forms = _forms(format, words, files, senses=senses, senses_system=senses_system)
        gold_forms, system_forms = itertools.tee(forms or ())
        tables = collections.defaultdict(dict)  # parse tables by name
        gold_blocks, parse_gold = _reader(gold, format, gold_forms, senses, files, tables)
        first = next(gold_blocks, None)
        if first is None:
            raise ConfigError("%s: no sentences" % gold)
        system_blocks, parse_system = _reader(system, format, system_forms, senses_system,
                                              files, tables)
        for n, g, s in _pair_blocks(itertools.chain([first], gold_blocks), system_blocks,
                                    _count_mismatch):
            yield n, parse_gold(g), parse_system(s)


def _read_back_form(pred: PredicateInstance, span: bool) -> PredicateInstance:
    """The predicate as its parser gives it back: arguments by first token and,
    with ``span``, a V part at the anchor when none is a V part."""
    args = list(pred.arguments)
    if span and not any(arg.label.base == VERB_BASE for arg in args):
        args.append(RawArgument(label=RoleLabel(VERB_BASE), extent=(pred.anchor,)))
    args.sort(key=lambda arg: arg.extent[0])
    return PredicateInstance(pred.anchor, pred.sense, tuple(args))


def _difference(sentence: Sentence, back: Sentence | None, span: bool) -> str | None:
    """What differs between ``sentence``, with its predicates in anchor order
    and in ``_read_back_form``, and ``back``, read back in its place."""
    if back is None or back.forms != sentence.forms:
        return "its tokens differ"
    for pred, got in itertools.zip_longest(sorted(sentence.predicates, key=lambda p: p.anchor),
                                           back.predicates):
        if pred is None or got != _read_back_form(pred, span):
            return "predicate at token %d differs" % (pred or got).anchor
    return None


def _read_back(sentences, reader, span: bool) -> None:
    """Read a serializer's text back, one sentence at a time, with the parser's
    ``reader`` (blocks, parse) of it; ValueError at the first of ``sentences``
    whose block fails to parse or has a ``_difference``.

    A sentence that reads back equal was written as exactly one block, so the
    text holds no block after the last sentence's."""
    blocks, parse = reader
    with warnings.catch_warnings():
        # a sense cell that is not lemma.sense reads back as no sense, which differs
        warnings.simplefilter("ignore", MalformedSenseWarning)
        for n, sentence in enumerate(sentences, start=1):
            try:
                block = next(blocks, None)
                problem = _difference(sentence, None if block is None else parse(block), span)
            except ParseError as exc:
                problem = str(exc)
            if problem is not None:
                raise ValueError("sentence %d does not read back: %s" % (n, problem))


def serialize_conll09(corpus: Corpus) -> str:
    if corpus.mode != "head":
        raise ModeMismatch("CoNLL-2009 output requires a head-mode corpus")
    out = []
    for sentence in corpus.sentences:
        n_tokens = len(sentence.forms)
        predicates = sorted(sentence.predicates, key=lambda p: p.anchor)
        apred = [["_"] * n_tokens for _ in predicates]
        for k, pred in enumerate(predicates):
            for arg in pred.arguments:
                if len(arg.extent) != 1:
                    raise ModeMismatch("head-mode argument with multi-token extent")
                if 0 < arg.extent[0] <= n_tokens:
                    apred[k][arg.extent[0] - 1] = str(arg.label)
        pred_by_anchor = {p.anchor: p for p in predicates}
        for index, form in enumerate(sentence.forms, start=1):
            pred = pred_by_anchor.get(index)
            fillpred = "Y" if pred is not None else "_"
            sense = str(pred.sense) if pred is not None and pred.sense is not None else "_"
            cols = ([str(index), form] + ["_"] * 10 + [fillpred, sense]
                    + [column[index - 1] for column in apred])
            out.append("\t".join(cols))
        out.append("")
    text = "\n".join(out)
    _read_back(corpus.sentences, _conll09_reader(_pieces(text)), span=False)
    return text


def serialize_conll05(corpus: Corpus) -> tuple[str, str]:
    if corpus.mode != "span":
        raise ModeMismatch("CoNLL-2005 output requires a span-mode corpus")
    words_out = []
    props_out = []
    senses: dict[tuple[int, int], SenseLabel] = {}
    for n, sentence in enumerate(corpus.sentences, start=1):
        n_tokens = len(sentence.forms)
        col0 = ["-"] * n_tokens
        columns = []
        for pred in sorted(sentence.predicates, key=lambda p: p.anchor):
            cells = ["*"] * n_tokens
            for part in _read_back_form(pred, span=True).arguments:
                start, end = part.extent[0], part.extent[-1]
                if 0 < start and end <= n_tokens:
                    cells[start - 1] = "(" + str(part.label) + cells[start - 1]
                    cells[end - 1] += ")"
            columns.append(cells)
            if pred.sense is not None:
                senses[n, pred.anchor] = pred.sense
            if 0 < pred.anchor <= n_tokens:
                lemma = pred.sense.lemma if pred.sense is not None else \
                    sentence.forms[pred.anchor - 1]
                if lemma.split() != [lemma]:  # the one column that no reader reads back
                    raise ValueError("sentence %d does not read back: lemma %r is not one props "
                                     "cell" % (n, lemma))
                col0[pred.anchor - 1] = lemma
        for i, form in enumerate(sentence.forms):
            words_out.append(form)
            props_out.append("\t".join([col0[i]] + [col[i] for col in columns]))
        words_out.append("")
        props_out.append("")
    words, props = "\n".join(words_out), "\n".join(props_out)
    _read_back(corpus.sentences,
               _conll05_reader(_sentence_forms(_pieces(words)), _pieces(props), senses), span=True)
    return words, props


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
