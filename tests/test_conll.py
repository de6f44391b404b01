import contextlib
import dataclasses
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

    def test_token_ids_in_any_spelling_int_reads(self):
        spelled = "\n".join([row("01", "He", apreds=["A0"]),
                             row("+2", "goes", "Y", "go.01", ["_"])]) + "\n"
        plain = "\n".join([row(1, "He", apreds=["A0"]),
                           row(2, "goes", "Y", "go.01", ["_"])]) + "\n"
        assert parse_conll09(spelled) == parse_conll09(plain)

    @pytest.mark.parametrize("cell", ["x", "1.0"])
    def test_token_id_int_cannot_read(self, cell):
        text = "\n".join([row(1, "He"), row(cell, "goes"), row(3, ".")]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll09(text, path="c.conll")
        assert str(err.value) == "c.conll:line 2: token id %r is not an integer" % cell

    def test_sentence_longer_than_the_id_table(self):
        n = len(conll._IDS) + 5

        def text(last_id: int) -> str:
            rows = [row(i, "w", apreds=["_"]) for i in range(1, n - 2)]
            rows += [row(n - 2, "go", "Y", "go.01", ["_"]), row(n - 1, "w", apreds=["_"]),
                     row(last_id, "it", apreds=["A1"])]
            return "\n".join(rows) + "\n"

        sent = parse_conll09(text(n)).sentences[0]
        assert len(sent.forms) == n and sent.forms[-1] == "it"
        [pred] = sent.predicates
        assert pred.anchor == n - 2
        assert [(str(a.label), a.extent) for a in pred.arguments] == [("A1", (n,))]
        with pytest.raises(ParseError) as err:
            parse_conll09(text(n + 1))
        assert str(err.value) == "line %d: token ids not contiguous: expected %d, found %d" % (
            n, n, n + 1)

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

    # a block whose rows are not on consecutive lines: a comment line inside it
    # is skipped, and every row keeps the number of its own line
    SHORT_ROW = "expected at least 14 columns, found 2"

    @pytest.mark.parametrize("text, line, message", [
        (row(1, "He") + "\n# note\n2\tthere\n", 3, SHORT_ROW),
        (row(1, "He") + "\n# note\n# more\n" + row(2, "goes") + "\n3\tx\n", 5, SHORT_ROW),
        ("1\tHe\n# note\n" + row(2, "goes") + "\n", 1, SHORT_ROW),
        (row(1, "He") + "\n# note\n" + row(3, "goes") + "\n", 3,
         "token ids not contiguous: expected 2, found 3"),
        (row(1, "He", apreds=["_"]) + "\n# note\n" + row(2, "goes", "Y", "go.01", ["C-C-A0"])
         + "\n", 3, "nested continuation prefix in 'C-C-A0'"),
        (row(1, "He") + "\n# note\n" + row(2, "goes", apreds=["_"]) + "\n", 3,
         "row has 1 argument columns but the sentence has 0 predicate rows"),
        # a block that starts right after a comment line
        (row(1, "Hi") + "\n\n# note\n" + row(1, "He") + "\n2\tthere\n", 5, SHORT_ROW),
        ("# note\n" + row(1, "He") + "\n# note\n2\tthere\n", 4, SHORT_ROW),
        # a last block with no trailing newline, and one that ends in a comment
        (row(1, "He") + "\n# note\n2\tthere", 3, SHORT_ROW),
        (row(1, "He") + "\n# note\n2\tthere\n# end", 3, SHORT_ROW),
    ], ids=["after", "after-two", "before", "token-id", "role", "dangling", "block-start",
            "first-and-inside", "no-newline", "comment-at-end"])
    def test_rows_across_a_comment_keep_their_lines(self, text, line, message):
        with pytest.raises(ParseError) as err:
            parse_conll09(text, path="c.conll")
        assert str(err.value) == "c.conll:line %d: %s" % (line, message)

    @pytest.mark.parametrize("text, lines", [
        (row(1, "He", apreds=["A0"]) + "\n# note\n" + row(2, "goes", "Y", "go", ["_"]) + "\n",
         [3]),
        ("# note\n" + row(1, "He", "Y", "go", ["_", "A0"]) + "\n# note\n"
         + row(2, "goes", "Y", "go", ["A0", "_"]), [2, 4]),
        (row(1, "Hi") + "\n\n# a\n# b\n" + row(1, "He", "Y", "go", ["_", "_"]) + "\n# c\n"
         + row(2, "goes", "Y", "go", ["_", "_"]) + "\n", [5, 7]),
    ], ids=["after", "no-newline", "block-start"])
    def test_malformed_sense_across_a_comment_names_its_line(self, text, lines):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_conll09(text, path="c.conll")
        assert [str(w.message) for w in caught] == [
            "c.conll:line %d: predicate sense cell 'go' is not lemma.sense; "
            "recorded as sense-missing" % line for line in lines]
        assert {w.category for w in caught} == {MalformedSenseWarning}

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

    def test_overlap_is_checked_before_the_opened_label(self):
        # the nested cell's label is bad too, but the overlap is reported
        props = "\n".join(["-\t(A0*", "-\t(C-C-A1*)", "be\t(V*)", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(OverlappingSpan) as err:
            parse_conll05(self.WORDS, props, path="s.props")
        assert err.value.line == 2
        assert str(err.value) == "s.props:line 2: span C-C-A1 opened inside an open A0 span"

    def test_bad_label_in_the_first_opening_cell(self):
        props = "\n".join(["-\t(C-C-A1*)", "-\t*", "be\t(V*)", "-\t*", "-\t*"]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_conll05(self.WORDS, props, path="s.props")
        assert type(err.value) is ParseError
        assert str(err.value) == "s.props:line 1: nested continuation prefix in 'C-C-A1'"

    @pytest.mark.parametrize("opened, shown", [("A0", "A0"), ("ARG0", "A0"), ("R-A0", "R-A0")])
    def test_unclosed_span_message_names_its_label(self, opened, shown):
        props = "\n".join(["-\t*", "be\t(V*)", "-\t(%s*" % opened, "-\t*", "-\t*"]) + "\n"
        with pytest.raises(UnbalancedBracket) as err:
            parse_conll05(self.WORDS, props, path="s.props")
        assert str(err.value) == "s.props:line 3: span %s never closed" % shown

    @pytest.mark.parametrize("cells, anchor", [
        (["(C-V*)", "*", "(V*)", "(A1*", "*)"], 1),  # a C-V part has base V too
        (["(A0*)", "(V*)", "*", "(C-V*)", "*"], 2),
        (["(A0*)", "(V*", "*)", "(C-V*)", "*"], 2),
    ])
    def test_anchor_is_the_first_token_of_the_first_verb_part(self, cells, anchor):
        props = "".join("-\t%s\n" % cell for cell in cells)
        [pred] = parse_conll05(self.WORDS, props).sentences[0].predicates
        assert pred.anchor == anchor

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
        blocks, parse = conll._conll05_reader(conll._sentence_forms([words]),
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
        # the opening check reads the sidecar a piece at a time up to the first
        # decrease of its sentence numbers; after it, the sidecar is loaded whole
        text = "".join("%d\t%d\t%s\n" % row if row[2][:1] != "#" else row[2] + "\n"
                       for row in rows)
        whole = self.outcome(lambda: parse_sense_sidecar(text, path="s"))
        scan = self.outcome(lambda: conll._sidecar(lambda: [text], "s"))
        sentences = [n for n, _, sense in rows if "." in sense]
        if isinstance(scan, tuple) and scan[1] == ():  # held whole
            assert scan[0] == whole and sentences != sorted(sentences)
        elif isinstance(scan, tuple):  # read a piece at a time during the pass
            assert scan[0] == {} and sentences == sorted(sentences)
            assert dict(itertools.chain.from_iterable(map(dict.items, scan[1]))) == whole
        else:
            assert scan == whole

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
            blocks, parse = conll._conll05_reader(conll._sentence_forms([words]),
                                                  [props], senses, "s.props", rows)
            triples = list(itertools.islice(blocks, 3))  # drawn, then parsed in any order
            parsed = [parse(triples[i]) for i in order]
            assert next(blocks, None) is None  # or a row that names no predicate
            return parsed

        whole = self.outcome(lambda: parse(parse_sense_sidecar(text), ()))
        assert self.outcome(lambda: parse({}, conll._sense_pieces([text]))) == whole

    # three sentences of WORDS, each with its predicate at token 3
    THREE = ("\n".join([WORDS] * 3),
             "\n".join(["-\t(A0*)\n-\t*\nbe\t(V*)\n-\t(A1*\n-\t*)\n"] * 3))

    @pytest.mark.parametrize("text, unclaimed", [
        ("1\t3\tbe.01\n2\t3\tbe.02\n3\t3\tbe.03\n", None),
        ("1\t3\tbe.01\n3\t3\tbe.03\n", None),
        ("1\t3\tbe.01\n2\t2\tbe.02\n3\t3\tbe.03\n", (2, 2)),  # token 2 is no predicate
        ("1\t3\tbe.01\n3\t3\tbe.03\n4\t3\tbe.04\n", (4, 3)),  # past the last sentence
        ("3\t3\tbe.03\n1\t3\tbe.01\n0\t1\tbe.00\n", (0, 1)),  # held whole
    ], ids=["all", "some", "token-off", "past-the-end", "unsorted"])
    def test_blocks_drawn_before_any_is_parsed(self, text, unclaimed):
        # the same sentences, or the same error for a row that names no
        # predicate, whether each block is parsed as it is drawn or all are
        # drawn first: the check waits for the last drawn block to be parsed
        def read(draw_first: bool):
            senses, rows = conll._sidecar(lambda: [text], "s.senses")
            blocks, parse = conll._conll05_reader(conll._sentence_forms([self.THREE[0]]),
                                                  [self.THREE[1]], senses, "s.props", rows)
            if draw_first:
                blocks = list(blocks)
            return [parse(block) for block in blocks]

        expected = self.outcome(lambda: parse_conll05(*self.THREE, parse_sense_sidecar(text),
                                                      path="s.props").sentences)
        if unclaimed is not None:
            assert expected == ("s.props: sense row for sentence %d, token %d names no "
                                "predicate" % unclaimed)
        assert self.outcome(lambda: read(False)) == expected
        assert self.outcome(lambda: read(True)) == expected


class TestSensePieces:
    """The sidecar reader checks and converts each piece of rows at once. At
    any piece size, ``parse_sense_sidecar`` and the pass over a sidecar in
    sentence order give what the row walker ``_sense_rows``, kept to name
    problems, gives: the same table, in file order, or the same ParseError."""

    # sentence and token numbers spelt as usual, with a leading 0 or with a +
    NUMBER = st.tuples(st.integers(0, 3), st.sampled_from(["%d", "0%d", "+%d"]))
    ROW = st.tuples(NUMBER, NUMBER, st.sampled_from(["be.01", "go.02", "a.b.03", "be"]),
                    st.sampled_from(["\t", " ", "\t \x1c"]))
    # lines that are no row, or a bad one
    OTHER = st.sampled_from(["", "  ", "# c", "#1\t1\tbe.01", "1\t1", "1\t1\tbe.01\tx",
                             "x\t1\tbe.01"])
    ENDS = st.sampled_from(["\n", "\r\n", "\x0b", "\x1c", "\u2028"])

    @staticmethod
    def outcome(call):
        try:
            return call()
        except ParseError as exc:
            return str(exc), exc.line

    @st.composite
    def sidecars(draw, ROW=ROW, OTHER=OTHER, ENDS=ENDS):
        """A sidecar text: rows, in sentence order or not, with other lines among them."""
        rows = draw(st.lists(ROW, max_size=12))
        if draw(st.booleans()):
            rows.sort(key=lambda row: row[0][0])
        lines = ["%s%s%s%s%s" % (n[1] % n[0], sep, t[1] % t[0], sep, sense)
                 for n, t, sense, sep in rows]
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(OTHER))
        ends = draw(st.lists(ENDS, min_size=len(lines), max_size=len(lines)))
        mark = draw(st.sampled_from(["", "\ufeff"]))
        return mark + "".join(line + end for line, end in zip(lines, ends))

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(text=sidecars(), chunk=st.integers(1, 40))
    def test_pieces_read_as_the_row_walker_reads(self, text, chunk):
        expected = self.outcome(lambda: dict(conll._sense_rows(conll._rows([text]), (), "s")))
        with mock.patch.object(conll, "_CHUNK", chunk):
            assert self.outcome(lambda: parse_sense_sidecar(text, "s")) == expected
            got = self.outcome(lambda: conll._sidecar(lambda: conll._pieces(text), "s"))
        if not isinstance(expected, dict):
            assert got == expected
            return
        senses, rows = got
        sentences = [n for n, _ in expected]
        if rows == ():  # sentence numbers decrease, so the sidecar is held whole
            assert sentences != sorted(sentences)
            assert list(senses.items()) == list(expected.items())
        else:
            assert sentences == sorted(sentences) and senses == {}
            pieces = list(rows)
            assert all(pieces)
            assert list(itertools.chain.from_iterable(map(dict.items, pieces))) == list(
                expected.items())

    @pytest.mark.parametrize("chunk", range(1, 24))
    def test_repeated_key_across_a_piece_boundary(self, chunk):
        text = "1\t1\tbe.01\n1\t2\tbe.01\n2\t1\tbe.01\n2\t02\tgo.02\n# c\n+2\t1\tbe.02\n"
        with mock.patch.object(conll, "_CHUNK", chunk):
            for read in (lambda: parse_sense_sidecar(text, "s"),
                         lambda: conll._sidecar(lambda: conll._pieces(text), "s")):
                assert self.outcome(read) == ("s:line 6: sentence 2, token 1 already has a "
                                              "sense row", 6)


class TestParsedPredicates:
    """The parsers build predicates without the duplicate-argument check, which
    no parsed column can fail; every one of them passes it all the same."""

    @staticmethod
    def check(corpus: Corpus) -> None:
        for sentence in corpus.sentences:
            for pred in sentence.predicates:
                assert type(pred) is PredicateInstance
                checked = PredicateInstance(pred.anchor, pred.sense, pred.arguments)
                assert checked == pred and hash(checked) == hash(pred)
                assert dataclasses.replace(pred, sense=None).sense is None
                with pytest.raises(dataclasses.FrozenInstanceError):
                    pred.anchor = pred.anchor + 1

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]))
    def test_generated_corpora(self, seed, mode):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=10, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=True)
        for corpus in (gold, perturb_corpus(rng, gold)):
            if mode == "head":
                self.check(parse_conll09(serialize_conll09(corpus)))
            else:
                words, props = serialize_conll05(corpus)
                self.check(parse_conll05(words, props, parse_sense_sidecar(sidecar(corpus))))

    @pytest.mark.parametrize("name", sorted(path.stem for path in DATA.glob("*.conll")))
    def test_head_fixtures(self, name):
        self.check(load_head(name))

    @pytest.mark.parametrize("name", sorted(path.stem for path in DATA.glob("*.props")))
    def test_span_fixtures(self, name):
        self.check(load_span(name.split("_")[0], name))


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
        with pytest.raises(ValueError) as err:
            serialize_conll09(self.one_predicate("head", ("A0", (3,)), ("A1", (3,))))
        assert str(err.value) == "sentence 1 does not read back: predicate at token 2 differs"

    def test_span_predicate_without_a_verb_part_gets_one_at_its_anchor(self):
        words, props = serialize_conll05(self.one_predicate("span", ("A1", (3, 4))))
        assert props.splitlines() == ["-\t*", "be\t(V*)", "-\t(A1*", "-\t*)"]
        pred = parse_conll05(words, props).sentences[0].predicates[0]
        assert [(str(a.label), a.extent) for a in pred.arguments] == [("V", (2,)),
                                                                       ("A1", (3, 4))]

    def test_non_contiguous_span_part(self):
        with pytest.raises(ValueError) as err:
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A1", (1, 3))))
        assert str(err.value) == ("sentence 1 does not read back: line 2: span V opened inside "
                                  "an open A1 span")

    def test_overlapping_span_parts(self):
        with pytest.raises(ValueError) as err:
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A0", (3, 4)),
                                                 ("A1", (3,))))
        assert str(err.value) == ("sentence 1 does not read back: line 3: malformed props cell "
                                  "'(A1(A0*)'")

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
        with pytest.raises(ValueError) as err:
            serialize(self.one_predicate(mode, anchor=anchor))
        # the anchor is not written: its argument column is left without a
        # predicate row, or its props column without a V span
        assert str(err.value) == "sentence 1 does not read back: line 1: " + {
            "head": "row has 1 argument columns but the sentence has 0 predicate rows",
            "span": "predicate column 1 has no V span"}[mode]

    @pytest.mark.parametrize("mode", ["head", "span"])
    def test_two_predicates_at_one_anchor(self, mode):
        corpus = self.one_predicate(mode)
        corpus.sentences[0].predicates *= 2
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError) as err:
            serialize(corpus)
        assert str(err.value) == "sentence 1 does not read back: " + {
            "head": "line 1: row has 2 argument columns but the sentence has 1 predicate rows",
            "span": "line 2: predicate columns 1 and 2 both anchor at token 2"}[mode]

    @pytest.mark.parametrize("extent", [(0,), (5,)])
    def test_head_argument_outside_the_sentence(self, extent):
        with pytest.raises(ValueError) as err:
            serialize_conll09(self.one_predicate("head", ("A0", extent)))
        assert str(err.value) == "sentence 1 does not read back: predicate at token 2 differs"

    @pytest.mark.parametrize("extent", [(0,), (4, 5)])
    def test_span_part_outside_the_sentence(self, extent):
        with pytest.raises(ValueError) as err:
            serialize_conll05(self.one_predicate("span", ("V", (2,)), ("A0", extent)))
        assert str(err.value) == "sentence 1 does not read back: predicate at token 2 differs"

    @pytest.mark.parametrize("parts", [(("A0", (2, 3)), ("A1", (3, 4))),
                                       (("A0", (2, 3, 4)), ("A1", (3,)))],
                             ids=["crossing", "nested"])
    def test_span_parts_that_share_a_token(self, parts):
        with pytest.raises(ValueError) as err:
            serialize_conll05(self.one_predicate("span", ("V", (1,)), *parts, anchor=1))
        assert str(err.value) == ("sentence 1 does not read back: line 3: span A1 opened inside "
                                  "an open A0 span")

    def test_first_verb_part_away_from_the_anchor(self):
        # the parser anchors the column at its first V part
        with pytest.raises(ValueError) as err:
            serialize_conll05(self.one_predicate("span", ("V", (3,))))
        assert str(err.value) == "sentence 1 does not read back: predicate at token 2 differs"

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
        # it is written as a blank line, so sentence 2 reads back in its place
        with pytest.raises(ValueError) as err:
            serialize(corpus)
        assert str(err.value) == "sentence 1 does not read back: its tokens differ"

    @pytest.mark.parametrize("mode", ["head", "span"])
    def test_last_sentence_without_tokens(self, mode):
        corpus = self.one_predicate(mode)
        corpus.sentences.append(Sentence([], []))
        serialize = serialize_conll09 if mode == "head" else serialize_conll05
        with pytest.raises(ValueError) as err:
            serialize(corpus)
        assert str(err.value) == "sentence 2 does not read back: its tokens differ"

    def test_sense_cell_that_reads_back_malformed_warns_nothing(self):
        # "a b.01" splits into a PRED cell "a" and an APRED cell "b.01", and the
        # empty label's cell closes the gap, so the row reads back with the
        # sense "a", which the parser warns about
        sentence = Sentence([Token(1, "w")], [PredicateInstance(
            1, SenseLabel("a b", "01"), (RawArgument(RoleLabel(""), (1,)),))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                serialize_conll09(Corpus([sentence], "head"))
        assert str(err.value) == "sentence 1 does not read back: predicate at token 1 differs"

    @pytest.mark.parametrize("lemma", [" be", "be\t", "b e"])
    def test_span_lemma_that_is_not_one_props_cell(self, lemma):
        # no parser reads the lemma column, and a line is read stripped, so
        # only the writer can tell that " be" would come back as "be"
        sentence = Sentence([Token(1, "w1"), Token(2, "w2")],
                            [PredicateInstance(2, SenseLabel(lemma, "01"), ())])
        with pytest.raises(ValueError) as err:
            serialize_conll05(Corpus([sentence], "span"))
        assert str(err.value) == ("sentence 1 does not read back: lemma %r is not one props cell"
                                  % lemma)

    def test_byte_order_mark_that_would_start_a_words_file(self):
        # a parser drops one mark at the start of its text, and a words file
        # starts with a form
        first = Sentence([Token(1, "\ufeffw")], [])
        assert parse_conll09(serialize_conll09(Corpus([first], "head"))).sentences == [first]
        with pytest.raises(ValueError) as err:
            serialize_conll05(Corpus([first], "span"))
        assert str(err.value) == "sentence 1 does not read back: its tokens differ"
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

    def test_order_of_pairs_missed_and_spurious(self):
        # library sentences may hold their predicates in any order
        def sentence(anchors):
            return Sentence([Token(i, "w%d" % i) for i in range(1, 11)],
                            [PredicateInstance(a, None, ()) for a in anchors])

        gold = sentence([7, 9, 5, 2, 1])
        system = sentence([8, 5, 1, 4, 7])
        [sent] = align(Corpus([gold], "head"), Corpus([system], "head")).sentences
        assert [(gp.anchor, sp.anchor) for gp, sp in sent.pairs] == [(7, 7), (5, 5), (1, 1)]
        assert [p.anchor for p in sent.missed] == [9, 2]
        assert [p.anchor for p in sent.spurious] == [4, 8]
        # each side's predicates, each exactly once
        gold_side = [gp for gp, _ in sent.pairs] + sent.missed
        system_side = [sp for _, sp in sent.pairs] + sent.spurious
        assert sorted(map(id, gold_side)) == sorted(map(id, gold.predicates))
        assert sorted(map(id, system_side)) == sorted(map(id, system.predicates))

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
