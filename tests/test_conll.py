import contextlib
import io
import itertools
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, load_head, load_span
from corpusgen import perturb_corpus, random_corpus
from primesrl import (
    Corpus,
    PredicateInstance,
    RawArgument,
    RoleLabel,
    SenseLabel,
    Sentence,
    Token,
    align,
    cli,
    parse_conll05,
    parse_conll09,
    parse_sense_sidecar,
    serialize_conll05,
    serialize_conll09,
)
from primesrl import conll
from primesrl.conll import (
    AnchorMissing,
    ColumnCountMismatch,
    DanglingApredColumn,
    MalformedSenseWarning,
    ModeMismatch,
    OverlappingSpan,
    ParseError,
    SentenceCountMismatch,
    TokenMismatch,
    UnbalancedBracket,
)
from primesrl.scoring import score_pairs


def row(index, form, fillpred="_", pred="_", apreds=()):
    return "\t".join([str(index), form] + ["_"] * 10 + [fillpred, pred] + list(apreds))


# Cell texts that read back only in some places or not at all: empty, with
# whitespace or line breaks (some only to str.split), "_", brackets, a byte
# order mark, and some plain characters.
AWKWARD = st.text(alphabet=" \t\n\x0b\x1c\x85\u2028\ufeff_()*#Aw", max_size=3)
AWKWARD_FORMS = AWKWARD | st.sampled_from(["\ufeffw", "w w", "#"])
# also role label bases whose text parses to another label
AWKWARD_LABELS = st.sampled_from(["_", "C-A1", "ARG0", "TMP", "A(0", "A*"]) | AWKWARD


@st.composite
def loose_sentences(draw, mode: str) -> Sentence:
    """A sentence of 1-5 tokens whose predicates have arbitrary anchors and
    arbitrary sorted, duplicate-free extents: inside the sentence and one token
    long in head mode, or, when ``loose`` is drawn, also longer, just outside
    the sentence, and with anchors that repeat. Or else one ``awkward`` kind is
    drawn: no tokens, or AWKWARD forms, sense lemmas or role labels."""
    awkward = draw(st.sampled_from([None, "empty", "forms", "senses", "labels", "labels"]))
    n = 0 if awkward == "empty" else draw(st.integers(1, 5))
    loose = awkward is None and draw(st.booleans())
    tokens = st.integers(-1, n + 1) if loose or n == 0 else st.integers(1, n)
    width = draw(st.integers(1, 3)) if loose or mode == "span" else 1
    extents = st.sets(tokens, min_size=1, max_size=width).map(
        lambda extent: tuple(sorted(extent)))
    # V twice, so that V parts away from the anchor come up often
    labels = st.sampled_from(["V", "A0", "A1", "C-A1", "R-A0", "AM-TMP", "V"]).map(RoleLabel.parse)
    if awkward == "labels":
        labels = st.builds(RoleLabel, AWKWARD_LABELS)
    senses = st.sampled_from([None, SenseLabel("be", "01"), SenseLabel("go", "02")])
    if awkward == "senses":
        senses = st.builds(SenseLabel, AWKWARD.filter(bool), st.just("01"))
    forms = AWKWARD_FORMS if awkward == "forms" else st.nothing()
    arguments = st.lists(st.tuples(labels, extents), max_size=4, unique=True)
    predicates = draw(st.lists(st.tuples(tokens, senses, arguments), max_size=3,
                               unique_by=None if loose else (lambda p: p[0])))
    return Sentence([Token(i, draw(forms | st.just("w%d" % i))) for i in range(1, n + 1)],
                    [PredicateInstance(anchor, sense, tuple(RawArgument(label, extent)
                                                            for label, extent in args))
                     for anchor, sense, args in predicates])


def read_back(sentence: Sentence, mode: str) -> Sentence:
    """What a parser gives for a sentence that its serializer accepted: predicates
    in anchor order, arguments by first token, and a V part at the anchor of a
    span predicate that has none."""
    predicates = []
    for pred in sorted(sentence.predicates, key=lambda p: p.anchor):
        args = list(pred.arguments)
        if mode == "span" and not any(a.label.is_verb for a in args):
            args.append(RawArgument(RoleLabel("V"), (pred.anchor,)))
        args.sort(key=lambda a: a.extent[0])
        predicates.append(PredicateInstance(pred.anchor, pred.sense, tuple(args)))
    return Sentence(sentence.tokens, predicates)


def sidecar(corpus: Corpus) -> str:
    """The sense sidecar of a span corpus's sensed predicates."""
    return "".join("%d\t%d\t%s\n" % (i, p.anchor, p.sense)
                   for i, sentence in enumerate(corpus.sentences, start=1)
                   for p in sentence.predicates if p.sense is not None)


class TestSentence:
    def test_tokens_read_back_as_given(self):
        tokens = [Token(i, form) for i, form in enumerate("It cost # 200 .".split(), start=1)]
        sentence = Sentence(tokens, [])
        assert sentence.forms == ("It", "cost", "#", "200", ".")
        assert sentence.tokens == tokens and sentence.tokens is not tokens
        assert Sentence([], []).forms == ()

    # forms cannot hold another numbering, which serialize_conll09 would write
    # as ids its parser rejects and serialize_conll05 would renumber
    @pytest.mark.parametrize("indices, position, index", [((1, 3), 2, 3), ((1, 1), 2, 1),
                                                          ((2, 3), 1, 2)],
                             ids=["gap", "repeat", "start"])
    def test_tokens_are_numbered_from_one(self, indices, position, index):
        with pytest.raises(ValueError) as err:
            Sentence([Token(i, "w%d" % i) for i in indices], [])
        assert str(err.value) == ("token %d of the sentence has index %d; tokens are "
                                  "numbered 1..n" % (position, index))


class TestParseHead:
    def test_small_sentence(self):
        corpus = load_head("buy_gold")
        assert corpus.mode == "head"
        assert len(corpus.sentences) == 1
        sent = corpus.sentences[0]
        assert type(sent.forms) is tuple and {type(form) for form in sent.forms} == {str}
        assert sent.forms[:4] == ("Yesterday", ",", "John", "bought")
        assert sent.tokens == [Token(i, form) for i, form in enumerate(sent.forms, start=1)]
        assert len(sent.predicates) == 1
        pred = sent.predicates[0]
        assert pred.anchor == 4
        assert pred.sense == SenseLabel("buy", "01")
        assert [(str(a.label), a.extent) for a in pred.arguments] == [
            ("AM-TMP", (1,)), ("A0", (3,)), ("A1", (6,))]

    def test_zero_predicate_sentence(self):
        text = "\n".join([row(1, "Hello"), row(2, ".")]) + "\n"
        corpus = parse_conll09(text)
        assert corpus.sentences[0].predicates == []
        assert len(corpus.sentences[0].tokens) == 2

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header\n\n" + row(1, "Hi") + "\n\n\n" + row(1, "Bye") + "\n"
        assert len(parse_conll09(text).sentences) == 2

    def test_too_few_columns(self):
        text = row(1, "Hi") + "\n2\tthere\n"
        with pytest.raises(ColumnCountMismatch) as err:
            parse_conll09(text)
        assert err.value.line == 2

    def test_missing_apred_column(self):
        text = "\n".join([row(1, "He", "Y", "go.01", ["A0"]), row(2, "goes")]) + "\n"
        with pytest.raises(ColumnCountMismatch) as err:
            parse_conll09(text)
        assert err.value.line == 2

    def test_dangling_apred_column(self):
        text = "\n".join([row(1, "He", apreds=["A0"]), row(2, "goes", apreds=["_"])]) + "\n"
        with pytest.raises(DanglingApredColumn) as err:
            parse_conll09(text)
        assert err.value.line == 1

    def test_non_contiguous_token_ids(self):
        text = "\n".join([row(1, "He"), row(3, "goes")]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll09(text)
        assert err.value.line == 2

    def test_malformed_sense_is_a_warning(self):
        text = "\n".join([row(1, "He", apreds=["A0"]),
                          row(2, "goes", "Y", "goes", ["_"])]) + "\n"
        with pytest.warns(MalformedSenseWarning):
            corpus = parse_conll09(text)
        assert corpus.sentences[0].predicates[0].sense is None

    def test_error_message_carries_path(self):
        with pytest.raises(ColumnCountMismatch) as err:
            parse_conll09("1\tword\n", path="sys.conll")
        assert "sys.conll" in str(err.value)

    def test_repeated_malformed_sense_warns_at_each_line(self):
        sentence = "\n".join([row(1, "He", apreds=["A0"]),
                              row(2, "goes", "Y", "goes", ["_"])]) + "\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = parse_conll09(sentence + "\n" + sentence)
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, MalformedSenseWarning)]
        assert len(messages) == 2
        assert messages[0].startswith("line 2: ") and messages[1].startswith("line 5: ")
        assert [s.predicates[0].sense for s in corpus.sentences] == [None, None]

    def test_repeated_invalid_role_reports_first_line(self):
        text = "\n".join([row(1, "He", apreds=["_"]),
                          row(2, "goes", "Y", "go.01", ["C-C-A0"]),
                          row(3, "home", apreds=["C-C-A0"])]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll09(text)
        assert err.value.line == 2

    @pytest.mark.parametrize("rows, error, message", [
        # a bad label before a bad token id
        ([row(1, "He", "Y", "go.01", ["_"]), row(2, "goes", apreds=["C-C-A0"]),
          row(3, "to", apreds=["_"]), row(4, "the", apreds=["_"]), row("x", "shop", apreds=["_"])],
         ParseError, "line 2: nested continuation prefix in 'C-C-A0'"),
        # a bad label in the second column of row 1 before one in the first column of row 3
        ([row(1, "He", "Y", "go.01", ["_", "R-R-A1"]), row(2, "goes", "Y", "go.02", ["_", "_"]),
          row(3, "home", apreds=["C-C-A0", "_"])],
         ParseError, "line 1: nested reference prefix in 'R-R-A1'"),
        # a bad label anywhere comes before every sense warning
        ([row(1, "He", apreds=["_"]), row(2, "goes", "Y", "goes", ["_"]),
          row(3, "to", apreds=["_"]), row(4, "shop", apreds=["C-C-A0"])],
         ParseError, "line 4: nested continuation prefix in 'C-C-A0'"),
        # a row too short to hold the predicate columns is found before any label
        ([row(1, "He", "Y", "go.01", ["_"]), row(2, "goes", apreds=["C-C-A0"]),
          row(3, "to", apreds=["_"]), row(4, "the", apreds=["_"]), "5\tshop"],
         ColumnCountMismatch, "line 5: expected at least 14 columns, found 2"),
        # a wrong token id before a later row's extra column
        ([row(1, "He", "Y", "go.01", ["_"]), row(3, "goes", apreds=["A0"]),
          row(3, "home", apreds=["_", "_"])],
         ParseError, "line 2: token ids not contiguous: expected 2, found 3"),
    ])
    def test_first_problem_in_file_order_within_a_sentence(self, rows, error, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error) as err:
                parse_conll09("\n".join(rows) + "\n")
        assert str(err.value) == message
        assert [w for w in caught if issubclass(w.category, MalformedSenseWarning)] == []


class TestParseSpan:
    WORDS = "This\nis\nfine\nfor\nnow\n"

    def test_bracket_cells(self):
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]) + "\n"
        corpus = parse_conll05(self.WORDS, props)
        assert corpus.mode == "span"
        pred = corpus.sentences[0].predicates[0]
        assert pred.anchor == 3
        assert pred.sense is None
        assert [(str(a.label), a.extent) for a in pred.arguments] == [
            ("A0", (1,)), ("V", (3,)), ("A1", (4, 5))]

    def test_sense_sidecar(self):
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]) + "\n"
        senses = parse_sense_sidecar("# sense annotations\n1\t3\tbe.01\n")
        corpus = parse_conll05(self.WORDS, props, senses=senses)
        pred = corpus.sentences[0].predicates[0]
        assert pred.sense == SenseLabel("be", "01")

    def test_sidecar_dict_is_left_unchanged(self):
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]) + "\n"
        senses = parse_sense_sidecar("1\t3\tbe.01\n")
        parse_conll05(self.WORDS, props, senses=senses)
        assert senses == {(1, 3): SenseLabel("be", "01")}

    def test_sidecar_rejects_bad_rows(self):
        with pytest.raises(ParseError) as err:
            parse_sense_sidecar("1\t3\n")
        assert err.value.line == 1

    def test_sidecar_rejects_a_repeated_key(self):
        # blank and comment lines are skipped but still counted, as in the CoNLL files
        for text, line in (("1\t3\ttax.03\n# again\n1\t3\ttax.05\n", 3),
                           ("1\t3\ttax.03\n\n   # again\n1\t3\ttax.05\n", 4)):
            with pytest.raises(ParseError) as err:
                parse_sense_sidecar(text, path="s.senses")
            assert err.value.line == line
            assert "s.senses:line %d: " % line in str(err.value)

    @pytest.mark.parametrize("row, key", [("1\t2\tbe.01\n", (1, 2)),  # token 2 is no predicate
                                          ("1\t3\tbe.01\n9\t3\tbe.01\n", (9, 3))],
                             ids=["token-off", "sentence-past-the-end"])
    def test_sidecar_row_without_a_predicate(self, row, key):
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll05(self.WORDS, props, senses=parse_sense_sidecar(row), path="s.props")
        assert str(err.value) == ("s.props: sense row for sentence %d, token %d names no predicate"
                                  % key)

    def test_row_with_another_column_count(self):
        # every row of a sentence needs as many columns as its first row
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t(V*)\t*", "-\t(A1*", "-\t*)"]) + "\n"
        with pytest.raises(ColumnCountMismatch) as err:
            parse_conll05(self.WORDS, props, path="s.props")
        assert err.value.line == 3
        assert str(err.value) == "s.props:line 3: expected 2 columns, found 3"

    def test_unclosed_span_reports_opening_line(self):
        props = "\n".join(["-\t*", "be\t(V*)", "-\t(A0*", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(UnbalancedBracket) as err:
            parse_conll05(self.WORDS, props)
        assert err.value.line == 3

    def test_close_without_open(self):
        props = "\n".join(["-\t*)", "-\t*", "be\t(V*)", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(UnbalancedBracket) as err:
            parse_conll05(self.WORDS, props)
        assert err.value.line == 1

    def test_nested_open_is_an_overlap(self):
        props = "\n".join(["-\t(A0*", "-\t(A1*)", "be\t(V*)", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(OverlappingSpan):
            parse_conll05(self.WORDS, props)

    def test_malformed_cell(self):
        props = "\n".join(["-\t(A0*)", "-\t((", "be\t(V*)", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll05(self.WORDS, props)
        assert err.value.line == 2

    def test_repeated_malformed_cell_reports_first_line(self):
        props = "\n".join(["-\t(A0*)", "-\t((", "be\t(V*)", "-\t((", "-\t*"]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll05(self.WORDS, props)
        assert err.value.line == 2

    def test_missing_verb_span(self):
        props = "\n".join(["-\t(A0*)", "-\t*", "be\t*", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(AnchorMissing):
            parse_conll05(self.WORDS, props)

    def test_two_columns_anchored_on_one_token(self):
        # one predicate per anchor: pairing and sense rows are keyed by it
        props = "\n".join(["-\t*\t*", "-\t(A0*)\t*", "be\t(V*)\t(V*)", "-\t*\t(A1*)",
                           "-\t*\t*"]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll05(self.WORDS, props, path="s.props")
        assert type(err.value) is ParseError
        assert err.value.line == 3
        assert str(err.value) == "s.props:line 3: predicate columns 1 and 2 both anchor at token 3"

    def test_sentence_count_must_match_words(self):
        props = "\n".join(["-\t(V*)"] * 5) + "\n\n-\t(V*)\n"
        with pytest.raises(ParseError):
            parse_conll05(self.WORDS, props)

    def test_fixture_sentence(self):
        corpus = load_span("lead", "lead_gold")
        forms = corpus.sentences[0].forms
        assert type(forms) is tuple and {type(form) for form in forms} == {str}
        assert forms == tuple((DATA / "lead.words").read_text().split())
        pred = corpus.sentences[0].predicates[0]
        assert pred.anchor == 7
        labels = [str(a.label) for a in pred.arguments]
        assert labels == ["A0", "R-A0", "V", "A4"]

    def test_parse_numbers_sentences_by_the_pairing_not_by_its_calls(self):
        # three sentences, each with its predicate at token 3 and its own sense
        words = "\n".join([self.WORDS] * 3)
        props = "\n".join(["-\t(A0*)\n-\t*\nbe\t(V*)\n-\t(A1*\n-\t*)\n"] * 3)
        senses = parse_sense_sidecar("1\t3\tbe.01\n2\t3\tbe.02\n3\t3\tbe.03\n")
        expected = parse_conll05(words, props, senses=senses).sentences
        blocks, parse = conll._conll05_reader(conll._sentence_forms(conll._blocks([words])),
                                              [props], dict(senses))
        triples = list(itertools.islice(blocks, 3))
        assert [n for n, _, _ in triples] == [1, 2, 3]
        parsed = [parse(triple) for triple in reversed(triples)][::-1]
        assert next(blocks, None) is None  # every sense row found its predicate
        assert parsed == expected
        assert [s.predicates[0].sense.sense_id for s in parsed] == ["01", "02", "03"]

    # sidecar rows over sentences 0-4 and tokens 1-5 of the three sentences
    # above, some of them bad, repeated or naming no predicate
    SIDECAR_ROWS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5),
                                      st.sampled_from(["be.01", "be.02", "be", "# c", ""])),
                            max_size=8)

    @staticmethod
    def outcome(call):
        try:
            return call()
        except ParseError as exc:
            return str(exc)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(rows=SIDECAR_ROWS)
    def test_sidecar_scan_fails_as_the_whole_sidecar_does(self, rows):
        # up to the first decrease of its sentence numbers; after it, the CLI
        # loads the sidecar whole
        text = "".join("%d\t%d\t%s\n" % row if row[2][:1] != "#" else row[2] + "\n"
                       for row in rows)
        whole = self.outcome(lambda: parse_sense_sidecar(text, path="s"))
        scan = self.outcome(lambda: cli._in_sentence_order([text], path="s"))
        sentences = [n for n, _, sense in rows if "." in sense]
        if scan is False:
            assert sentences != sorted(sentences)
        else:
            assert scan == (True if isinstance(whole, dict) else whole)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(rows=SIDECAR_ROWS, data=st.data())
    def test_sidecar_read_a_sentence_at_a_time(self, rows, data):
        # rows grouped by sentence, tokens in any order, parse as the whole
        # sidecar does, with the same error when a row names no predicate
        rows = [row for row in sorted(rows, key=lambda row: row[0]) if "." in row[2]]
        text = "".join("%d\t%d\t%s\n" % row for row in rows)
        if not isinstance(self.outcome(lambda: parse_sense_sidecar(text)), dict):
            return  # a repeated key
        words = "\n".join([self.WORDS] * 3)
        props = "\n".join(["-\t(A0*)\n-\t*\nbe\t(V*)\n-\t(A1*\n-\t*)\n"] * 3)
        order = data.draw(st.permutations(range(3)))

        def parse(senses, rows):
            blocks, parse = conll._conll05_reader(conll._sentence_forms(conll._blocks([words])),
                                                  [props], senses, "s.props", rows)
            triples = list(itertools.islice(blocks, 3))  # drawn, then parsed in any order
            parsed = [parse(triples[i]) for i in order]
            assert next(blocks, None) is None  # or a row that names no predicate
            return parsed

        whole = self.outcome(lambda: parse(parse_sense_sidecar(text), ()))
        assert self.outcome(lambda: parse({}, conll._sense_rows([text]))) == whole


class TestSerialize:
    def test_head_round_trip(self):
        for name in ("buy_gold", "tax_p4", "lead_p5"):
            corpus = load_head(name)
            assert parse_conll09(serialize_conll09(corpus)) == corpus

    def test_span_round_trip(self):
        for name in ("tax_gold", "tax_p7", "lead_p2"):
            corpus = load_span("tax" if name.startswith("tax") else "lead", name)
            words, props = serialize_conll05(corpus)
            assert parse_conll05(words, props) == corpus

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]))
    def test_generated_corpus_round_trip(self, seed, mode):
        # many sentences, so records the parsers share across sentences are compared too
        corpus = random_corpus(random.Random(seed), n_sentences=25, mode=mode,
                               max_tokens=20, max_preds=4, max_args=5, with_sense=True)
        if mode == "head":
            assert parse_conll09(serialize_conll09(corpus)) == corpus
            return
        words, props = serialize_conll05(corpus)
        assert parse_conll05(words, props, senses=parse_sense_sidecar(sidecar(corpus))) == corpus

    @pytest.mark.parametrize("mode", ["head", "span"])
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_serializers_reject_or_write_what_parses_back(self, mode, data):
        sentences = data.draw(st.lists(loose_sentences(mode), min_size=1, max_size=2))
        corpus = Corpus(sentences, mode=mode)
        if mode == "head":
            try:
                text = serialize_conll09(corpus)
            except ValueError:
                return
            parsed = parse_conll09(text)
        else:
            try:
                words, props = serialize_conll05(corpus)
            except ValueError:
                return
            parsed = parse_conll05(words, props, senses=parse_sense_sidecar(sidecar(corpus)))
        assert parsed.sentences == [read_back(sentence, mode) for sentence in sentences]

    def test_hash_token_round_trip(self):
        # the Penn Treebank writes the pound sign as "#": a words line and, for
        # the sense-less predicate at it, a props lemma cell, not comments
        tokens = [Token(i, form) for i, form in enumerate("It cost # 200 .".split(), start=1)]
        corpus = Corpus([Sentence(tokens, [
            PredicateInstance(2, SenseLabel("cost", "01"), (RawArgument(RoleLabel("A1"), (3, 4)),)),
            PredicateInstance(3, None, ())])], mode="span")
        words, props = serialize_conll05(corpus)
        assert words.splitlines()[2] == "#" and props.splitlines()[2].startswith("#\t")
        parsed = parse_conll05(words, props, senses=parse_sense_sidecar(sidecar(corpus)))
        assert parsed.sentences == [read_back(corpus.sentences[0], "span")]

    def test_mode_mismatch(self):
        head = load_head("buy_gold")
        span = load_span("lead", "lead_gold")
        with pytest.raises(ModeMismatch):
            serialize_conll05(head)
        with pytest.raises(ModeMismatch):
            serialize_conll09(span)

    @staticmethod
    def one_predicate(mode: str, *arguments: tuple[str, tuple[int, ...]],
                      anchor: int = 2) -> Corpus:
        """One four-token sentence whose predicate at ``anchor`` has ``arguments``."""
        args = tuple(RawArgument(RoleLabel.parse(label), extent) for label, extent in arguments)
        tokens = [Token(i, "w%d" % i) for i in range(1, 5)]
        return Corpus([Sentence(tokens, [PredicateInstance(anchor, SenseLabel("be", "01"),
                                                           args)])], mode=mode)

    def test_head_argument_over_two_tokens(self):
        with pytest.raises(ModeMismatch, match="multi-token"):
            serialize_conll09(self.one_predicate("head", ("A0", (3, 4))))

    def test_two_head_labels_on_one_token(self):
        with pytest.raises(ValueError, match="two labels on one token"):
            serialize_conll09(self.one_predicate("head", ("A0", (3,)), ("A1", (3,))))

    def test_span_predicate_without_a_verb_part_gets_one_at_its_anchor(self):
        words, props = serialize_conll05(self.one_predicate("span", ("A1", (3, 4))))
        assert props.splitlines() == ["-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]
        pred = parse_conll05(words, props).sentences[0].predicates[0]
        assert [(str(a.label), a.extent) for a in pred.arguments] == [("V", (2,)),
                                                                       ("A1", (3, 4))]

    def test_non_contiguous_span_part(self):
        with pytest.raises(ValueError, match="not contiguous"):
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A1", (1, 3))))

    def test_overlapping_span_parts(self):
        with pytest.raises(ValueError, match="overlapping"):
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A0", (3, 4)),
                                                 ("A1", (3,))))

    def test_head_predicates_are_written_in_anchor_order(self):
        # the k-th APRED column belongs to the k-th predicate row in token order
        corpus = self.one_predicate("head", ("A1", (4,)), anchor=3)
        corpus.sentences[0].predicates.append(
            PredicateInstance(2, SenseLabel("go", "01"), (RawArgument(RoleLabel("A0"), (1,)),)))
        parsed = parse_conll09(serialize_conll09(corpus)).sentences[0]
        assert parsed.predicates == corpus.sentences[0].predicates[::-1]

    @pytest.mark.parametrize("mode", ["head", "span"])
    @pytest.mark.parametrize("anchor", [0, 5])
    def test_anchor_outside_the_sentence(self, mode, anchor):
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError, match="predicate anchor"):
            serialize(self.one_predicate(mode, anchor=anchor))

    @pytest.mark.parametrize("mode", ["head", "span"])
    def test_two_predicates_at_one_anchor(self, mode):
        corpus = self.one_predicate(mode)
        corpus.sentences[0].predicates *= 2
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError, match="two predicates anchored at token 2"):
            serialize(corpus)

    @pytest.mark.parametrize("extent", [(0,), (5,)])
    def test_head_argument_outside_the_sentence(self, extent):
        with pytest.raises(ValueError, match="outside tokens 1..4"):
            serialize_conll09(self.one_predicate("head", ("A0", extent)))

    @pytest.mark.parametrize("extent", [(0,), (4, 5)])
    def test_span_part_outside_the_sentence(self, extent):
        with pytest.raises(ValueError, match="outside tokens 1..4"):
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A0", extent)))

    @pytest.mark.parametrize("parts", [(("A0", (2, 3)), ("A1", (3, 4))),
                                       (("A0", (2, 3, 4)), ("A1", (3,)))],
                             ids=["crossing", "nested"])
    def test_span_parts_that_share_a_token(self, parts):
        with pytest.raises(ValueError, match="overlapping"):
            serialize_conll05(self.one_predicate("span", ("V", (1,)), *parts, anchor=1))

    def test_first_verb_part_away_from_the_anchor(self):
        with pytest.raises(ValueError, match="first V part starts at token 3, not at the anchor 2"):
            serialize_conll05(self.one_predicate("span", ("V", (3,))))

    @pytest.mark.parametrize("mode, form, lemma, label", [
        ("head", "", "be", "A0"),
        ("head", "New York", "be", "A0"),
        ("head", "a\x1cb", "be", "A0"),  # a separator to str.split
        ("head", "w", "a b", "A0"),
        ("head", "w", "be", "_"),  # the empty APRED cell
        ("head", "w", "be", "A 0"),
        ("head", "w", "be", ""),
        ("head", "w", "be", "ARG0"),  # reads back as A0
        ("span", "", "be", "A0"),
        ("span", " lead", "be", "A0"),
        ("span", "lead\t", "be", "A0"),
        ("span", "a\u2028b", "be", "A0"),
        ("span", "w", "a b", "A0"),
        ("span", "w", "be", "A(0"),
        ("span", "w", "be", "A*"),
        ("span", "w", "be", "C-A0"),  # reads back with a C- prefix
    ])
    def test_cell_that_does_not_read_back(self, mode, form, lemma, label):
        sentence = Sentence([Token(1, "w1"), Token(2, form)],
                            [PredicateInstance(1, SenseLabel(lemma, "01"),
                                               (RawArgument(RoleLabel(label), (2,)),))])
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError, match="empty or contains whitespace|does not read back"):
            serialize(Corpus([sentence], mode))

    @pytest.mark.parametrize("mode", ["head", "span"])
    def test_sentence_without_tokens(self, mode):
        corpus = self.one_predicate(mode)
        corpus.sentences.insert(0, Sentence([], []))
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError, match="sentence 1 has no tokens"):
            serialize(corpus)

    def test_byte_order_mark_that_would_start_a_words_file(self):
        # a parser drops one mark at the start of its text, and a words file
        # starts with a form
        first = Sentence([Token(1, "\ufeffw")], [])
        assert parse_conll09(serialize_conll09(Corpus([first], "head"))).sentences == [first]
        with pytest.raises(ValueError, match="one words line"):
            serialize_conll05(Corpus([first], "span"))
        later = Sentence([Token(1, "w"), Token(2, "\ufeffw")], [])
        assert parse_conll05(*serialize_conll05(Corpus([later], "span"))).sentences == [later]

    @pytest.mark.parametrize("seed", [3, 5, 6, 7, 9])
    def test_perturbed_head_corpus_round_trip(self, seed):
        # moved head tokens once collided on one token of one predicate
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=20, mode="head",
                             max_tokens=30, max_preds=5, max_args=6)
        system = perturb_corpus(rng, gold)
        assert parse_conll09(serialize_conll09(system)) == system


class TestLeadingByteOrderMark:
    """Each parser drops one leading U+FEFF, which ``open(...).read()`` keeps;
    it is not a line break, so line numbers stay the same."""

    def test_conll09(self):
        text = (DATA / "buy_gold.conll").read_text()
        assert parse_conll09("\ufeff" + text) == parse_conll09(text)
        assert parse_conll09("\ufeff# header\n" + text) == parse_conll09(text)
        with pytest.raises(ColumnCountMismatch) as err:
            parse_conll09("\ufeff" + row(1, "Hi") + "\n2\tthere\n")
        assert err.value.line == 2

    def test_conll05_and_sidecar(self):
        words = (DATA / "lead.words").read_text()
        props = (DATA / "lead_gold.props").read_text()
        rows = "1\t7\tlead.01\n"
        assert parse_sense_sidecar("\ufeff" + rows) == parse_sense_sidecar(rows)
        expected = parse_conll05(words, props, senses=parse_sense_sidecar(rows))
        for marked in (("\ufeff" + words, props), (words, "\ufeff" + props)):
            assert parse_conll05(*marked, senses=parse_sense_sidecar(rows)) == expected


class TestAlign:
    def test_pairs_by_anchor(self):
        aligned = align(load_head("tax_gold"), load_head("tax_p1"))
        sent = aligned.sentences[0]
        assert len(sent.pairs) == 1 and not sent.missed and not sent.spurious
        gp, sp = sent.pairs[0]
        assert gp.anchor == sp.anchor == 6

    def test_missed_and_spurious(self):
        gold = load_head("buy_gold")
        system = load_head("buy_gold")
        moved = system.sentences[0].predicates[0]
        system.sentences[0].predicates = [
            type(moved)(anchor=5, sense=moved.sense, arguments=())]
        sent = align(gold, system).sentences[0]
        assert [p.anchor for p in sent.missed] == [4]
        assert [p.anchor for p in sent.spurious] == [5]
        assert sent.pairs == []

    def test_sentence_count_mismatch(self):
        gold = load_head("buy_gold")
        empty = type(gold)(sentences=[], mode="head")
        with pytest.raises(SentenceCountMismatch):
            align(gold, empty)

    def test_token_mismatch_names_the_divergence(self):
        with pytest.raises(TokenMismatch) as err:
            align(load_head("tax_gold"), load_head("lead_gold"))
        assert err.value.sentence == 1

    def test_distinct_but_equal_token_lists_align(self):
        # each library parse builds its own forms tuples, so they are compared
        for load in (lambda name: load_span("tax", name), load_head):
            gold, system = load("tax_gold"), load("tax_p1")
            assert gold.sentences[0].forms is not system.sentences[0].forms
            assert gold.sentences[0].forms == system.sentences[0].forms
            assert len(align(gold, system).sentences[0].pairs) == 1

    @pytest.mark.parametrize("change", ["form", "length"])
    def test_distinct_token_lists_that_differ_keep_their_message(self, change):
        gold = load_span("tax", "tax_gold")
        tokens = list(gold.sentences[0].tokens)
        if change == "form":
            tokens[1] = Token(2, "changed")
            expected = "sentence 1, token 2: form %r != 'changed'" % gold.sentences[0].tokens[1].form
            where = (1, 2)
        else:
            tokens.pop()
            expected = "sentence 1: gold has %d tokens, system has %d" % (len(tokens) + 1,
                                                                          len(tokens))
            where = (1, len(tokens) + 1)
        system = Corpus([Sentence(tokens, gold.sentences[0].predicates)], mode="span")
        with pytest.raises(TokenMismatch) as err:
            align(gold, system)
        assert str(err.value) == expected
        assert (err.value.sentence, err.value.token) == where

    def test_the_cli_pairs_conll05_sentences_that_share_one_token_list(self, tmp_path):
        rng = random.Random(3)
        gold = random_corpus(rng, n_sentences=6, mode="span")
        words, gold_props = serialize_conll05(gold)
        _, system_props = serialize_conll05(perturb_corpus(rng, gold))
        for name, text in (("words", words), ("gold.props", gold_props),
                           ("sys.props", system_props)):
            (tmp_path / name).write_text(text)
        shared = []

        def record(pairs, metrics, mode):
            pairs = list(pairs)
            shared.extend(g.forms is s.forms for _, g, s in pairs)
            return score_pairs(pairs, metrics, mode)

        with mock.patch.object(cli, "score_pairs", side_effect=record), \
                contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["compare", "--format", "conll05", "--words", str(tmp_path / "words"),
                             str(tmp_path / "gold.props"), str(tmp_path / "sys.props")]) == 0
        assert shared == [True] * 6
