import dataclasses
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, counts, load_head, load_span
from corpusgen import perturb_corpus, random_corpus
from pin_outputs import RENAMED, SENTENCE
from primesrl import (
    Corpus,
    EvalCounts,
    RoleLabel,
    SenseLabel,
    Sentence,
    Token,
    align,
    classify,
    evaluate,
    corpus_stats,
    merge_continuations,
    normalize,
    parse_conll05,
    parse_conll09,
    read,
    score_predicates_legacy09,
    score_predicates_primesrl,
    serialize_conll05,
    serialize_conll09,
)
from primesrl.conll import ParseError, TokenMismatch, _corpus_pairs
from primesrl.model import MODIFIER_TAGS, PredicateInstance, RawArgument
from primesrl.scoring import (
    CORRECT,
    EmptyCorpus,
    GOLD,
    METRICS,
    MissingGoldSense,
    PREDICTED,
    _head_units,
    _lemma_and_sense,
    _reference_filter,
    _score_aligned,
    _sense_filter,
    _span_units,
    _strict_units,
    chain_spans,
    score_pairs,
    score_predicates_trivial,
)

TAX_CASES = ("gold", "p1", "p2", "p3", "p4", "p5", "p6", "p7")
LEAD_CASES = ("gold", "p1", "p2", "p3", "p4", "p5", "p6")


def kept(pairs, metrics: tuple[str, ...], mode: str) -> list:
    """``score_pairs`` with a sink that fills each report's ``per_sentence``."""
    per_sentence = defaultdict(list)
    reports = score_pairs(pairs, metrics, mode,
                          lambda metric, c: per_sentence[metric].append(c))
    for report in reports:
        report.per_sentence = per_sentence[report.metric]
    return reports


def chained(parts: list[RawArgument]) -> list[list[RawArgument]]:
    """Span parts grouped by the README's chaining rule, written apart from
    ``chain_spans``: in extent order, an unprefixed X opens a unit, and a C-X
    joins the unit last opened with base X and its reference flag, or opens
    one when there is none."""
    units: list[list[RawArgument]] = []
    for part in sorted(parts, key=lambda p: p.extent[0]):
        label = part.label
        opened = [unit for unit in units if (unit[0].label.base, unit[0].label.is_reference)
                  == (label.base, label.is_reference)]
        if label.is_continuation and opened:
            opened[-1].append(part)
        else:
            units.append([part])
    return units


def single_pred_corpus(sense):
    label = SenseLabel.parse(sense) if sense else None
    token = Token(1, "stares")
    pred = PredicateInstance(anchor=1, sense=label, arguments=())
    return Corpus([Sentence([token], [pred])], mode="head")


class TestPredicateScorers:
    def test_strict_needs_lemma_and_sense(self):
        aligned = align(single_pred_corpus("stare.01"), single_pred_corpus("look.01"))
        assert counts(score_predicates_primesrl(aligned)) == (0, 1, 1)
        assert counts(score_predicates_legacy09(aligned)) == (1, 1, 1)

    def test_sense_number_mismatch_fails_both(self):
        aligned = align(single_pred_corpus("buy.01"), single_pred_corpus("buy.05"))
        assert counts(score_predicates_primesrl(aligned)) == (0, 1, 1)
        assert counts(score_predicates_legacy09(aligned)) == (0, 1, 1)

    def test_exact_match(self):
        aligned = align(single_pred_corpus("buy.01"), single_pred_corpus("buy.01"))
        assert counts(score_predicates_primesrl(aligned)) == (1, 1, 1)

    def test_system_without_sense_is_incorrect(self):
        aligned = align(single_pred_corpus("buy.01"), single_pred_corpus(None))
        assert counts(score_predicates_primesrl(aligned)) == (0, 1, 1)

    def test_gold_without_sense_credits_every_pair(self):
        # the convention of evaluate: gold without any sense credits every pair
        gold, system = single_pred_corpus(None), single_pred_corpus("buy.01")
        aligned = align(gold, system)
        assert counts(score_predicates_primesrl(aligned)) == (1, 1, 1)
        assert counts(score_predicates_legacy09(aligned)) == (1, 1, 1)
        for metric in ("primesrl", "legacy_head"):
            assert counts(evaluate(gold, system, metric).predicate_counts) == (1, 1, 1)

    def test_missed_gold_predicate_without_sense_raises(self):
        sensed, unsensed = single_pred_corpus("buy.01"), single_pred_corpus(None)
        gold = Corpus(sensed.sentences + unsensed.sentences, mode="head")
        system = Corpus(sensed.sentences + [Sentence(unsensed.sentences[0].tokens, [])],
                        mode="head")
        with pytest.raises(MissingGoldSense, match="sentence 2: gold predicate at token 1 "):
            score_predicates_primesrl(align(gold, system))

    def test_first_sense_less_gold_predicate_in_file_order_is_named(self):
        # token 1 is missed by the system, token 2 is matched; neither has a
        # sense, and token 3's sense makes the gold side mixed
        tokens = [Token(1, "stares"), Token(2, "looks"), Token(3, "buys")]
        gold = Corpus([Sentence(tokens, [PredicateInstance(1, None, ()),
                                         PredicateInstance(2, None, ()),
                                         PredicateInstance(3, SenseLabel("buy", "01"), ())])],
                      mode="head")
        system = Corpus([Sentence(tokens, [PredicateInstance(2, SenseLabel("look", "01"), ())])],
                        mode="head")
        with pytest.raises(MissingGoldSense, match="sentence 1: gold predicate at token 1 "):
            score_predicates_primesrl(align(gold, system))

    def test_trivial_convention(self):
        aligned = align(single_pred_corpus(None), single_pred_corpus(None))
        assert counts(score_predicates_trivial(aligned)) == (1, 1, 1)


class TestSenseConditionedArguments:
    """One modifier and two core arguments; a wrong sense keeps only the modifier."""

    PRIME_PRED = {"gold": (1, 1, 1), "p1": (0, 1, 1), "p2": (0, 1, 1), "p3": (0, 1, 1)}
    LEGACY_PRED = {"gold": (1, 1, 1), "p1": (0, 1, 1), "p2": (0, 1, 1), "p3": (1, 1, 1)}
    PRIME_ARGS = {"gold": (3, 3, 3), "p1": (1, 3, 3), "p2": (1, 3, 3), "p3": (1, 3, 3)}

    @pytest.mark.parametrize("case", ["gold", "p1", "p2", "p3"])
    def test_strict(self, case):
        report = evaluate(load_head("buy_gold"), load_head("buy_" + case),
                          "primesrl")
        assert counts(report.predicate_counts) == self.PRIME_PRED[case]
        assert counts(report.argument_counts) == self.PRIME_ARGS[case]

    @pytest.mark.parametrize("case", ["gold", "p1", "p2", "p3"])
    def test_legacy(self, case):
        report = evaluate(load_head("buy_gold"), load_head("buy_" + case),
                          "legacy_head")
        assert counts(report.predicate_counts) == self.LEGACY_PRED[case]
        assert counts(report.argument_counts) == (3, 3, 3)

    @staticmethod
    def unsensed(case):
        """A buy corpus whose predicate's PRED cell is `_`."""
        text = (DATA / ("buy_%s.conll" % case)).read_text()
        return parse_conll09(re.sub(r"\tY\t\S+", "\tY\t_", text))

    @pytest.mark.parametrize("metric", ["primesrl", "legacy_head"])
    @pytest.mark.parametrize("case", ["gold", "p1", "p2", "p3"])
    def test_gold_without_senses_credits_every_pair(self, case, metric):
        report = evaluate(self.unsensed("gold"), load_head("buy_" + case), metric)
        assert counts(report.predicate_counts) == (1, 1, 1)
        assert counts(report.argument_counts) == (3, 3, 3)

    @pytest.mark.parametrize("metric, args", [("primesrl", (1, 3, 3)),
                                              ("legacy_head", (3, 3, 3))])
    @pytest.mark.parametrize("case", ["gold", "p1", "p2", "p3"])
    def test_system_without_senses_earns_no_predicate_credit(self, case, metric, args):
        report = evaluate(load_head("buy_gold"), self.unsensed(case), metric)
        assert counts(report.predicate_counts) == (0, 1, 1)
        assert counts(report.argument_counts) == args

    def test_per_label_breakdown(self):
        report = evaluate(load_head("buy_gold"), load_head("buy_p3"), "primesrl")
        assert counts(report.per_label["AM-TMP"]) == (1, 1, 1)
        assert counts(report.per_label["A0"]) == (0, 1, 1)
        assert counts(report.per_label["A1"]) == (0, 1, 1)


class TestDiscontinuousArguments:
    """A two-part A0 plus one core and one modifier argument."""

    PRIME = {"gold": (3, 3, 3), "p1": (2, 4, 3), "p2": (2, 4, 3), "p3": (2, 3, 3),
             "p4": (3, 3, 3), "p5": (1, 3, 3), "p6": (3, 3, 3), "p7": (2, 3, 3)}
    LEGACY_HEAD = {"gold": (4, 4, 4), "p1": (3, 4, 4), "p2": (3, 4, 4), "p3": (2, 4, 4),
                   "p4": (2, 4, 4), "p5": (2, 4, 4), "p6": (3, 4, 4), "p7": (2, 3, 4)}
    LEGACY_SPAN = {"gold": (3, 3, 3), "p1": (2, 4, 3), "p2": (2, 4, 3), "p3": (2, 3, 3),
                   "p4": (2, 4, 3), "p5": (1, 3, 3), "p6": (2, 3, 3), "p7": (2, 3, 3)}

    @pytest.mark.parametrize("case", TAX_CASES)
    def test_strict_head(self, case):
        report = evaluate(load_head("tax_gold"), load_head("tax_" + case),
                          "primesrl")
        assert counts(report.argument_counts) == self.PRIME[case]

    @pytest.mark.parametrize("case", TAX_CASES)
    def test_strict_span(self, case):
        report = evaluate(load_span("tax", "tax_gold"), load_span("tax", "tax_" + case),
                          "primesrl")
        assert counts(report.argument_counts) == self.PRIME[case]

    @pytest.mark.parametrize("case", TAX_CASES)
    def test_legacy_head(self, case):
        report = evaluate(load_head("tax_gold"), load_head("tax_" + case),
                          "legacy_head")
        assert counts(report.argument_counts) == self.LEGACY_HEAD[case]

    @pytest.mark.parametrize("case", TAX_CASES)
    def test_legacy_span(self, case):
        report = evaluate(load_span("tax", "tax_gold"), load_span("tax", "tax_" + case),
                          "legacy_span")
        assert counts(report.argument_counts) == self.LEGACY_SPAN[case]

    def test_span_predicates_use_the_trivial_convention(self):
        report = evaluate(load_span("tax", "tax_gold"), load_span("tax", "tax_p1"),
                          "legacy_span")
        assert counts(report.predicate_counts) == (1, 1, 1)


class TestReferenceArguments:
    """An A0 with a relative-pronoun R-A0 pointing at it, plus an A4."""

    PRIME = {"gold": (3, 3, 3), "p1": (1, 3, 3), "p2": (2, 3, 3), "p3": (1, 3, 3),
             "p4": (1, 3, 3), "p5": (1, 3, 3), "p6": (1, 3, 3)}
    LEGACY_HEAD = {"gold": (3, 3, 3), "p1": (2, 3, 3), "p2": (2, 3, 3), "p3": (1, 3, 3),
                   "p4": (2, 3, 3), "p5": (2, 3, 3), "p6": (1, 3, 3)}

    @pytest.mark.parametrize("case", LEAD_CASES)
    def test_strict_head(self, case):
        report = evaluate(load_head("lead_gold"), load_head("lead_" + case),
                          "primesrl")
        assert counts(report.argument_counts) == self.PRIME[case]

    @pytest.mark.parametrize("case", LEAD_CASES)
    def test_strict_span(self, case):
        report = evaluate(load_span("lead", "lead_gold"), load_span("lead", "lead_" + case),
                          "primesrl")
        assert counts(report.argument_counts) == self.PRIME[case]

    @pytest.mark.parametrize("case", LEAD_CASES)
    def test_legacy_head(self, case):
        report = evaluate(load_head("lead_gold"), load_head("lead_" + case),
                          "legacy_head")
        assert counts(report.argument_counts) == self.LEGACY_HEAD[case]

    def test_incorrect_reference_never_penalizes_the_referent(self):
        # system A0 is correct even though its R-A0 points elsewhere
        report = evaluate(load_head("lead_gold"), load_head("lead_p2"),
                          "primesrl")
        assert counts(report.per_label["A0"]) == (1, 1, 1)
        assert counts(report.per_label["R-A0"]) == (0, 0, 1)

    @staticmethod
    def ambiguous(*a0_tokens):
        # two same-base referents, A0 and A0, plus one R-A0 pointing at them
        labels = [RoleLabel("A0"), RoleLabel("A0"), RoleLabel("A0", is_reference=True)]
        args = tuple(RawArgument(label, (tok,))
                     for label, tok in zip(labels, (*a0_tokens, 6)))
        sense = SenseLabel("lead", "01")
        tokens = [Token(i, "w%d" % i) for i in range(1, 8)]
        return Corpus([Sentence(tokens, [PredicateInstance(1, sense, args)])], mode="head")

    @pytest.mark.parametrize("system", [(2, 5), (3, 4)], ids=["first", "second"])
    def test_ambiguous_referent_credited_by_either_referent(self, system):
        report = evaluate(self.ambiguous(2, 4), self.ambiguous(*system), "primesrl")
        assert counts(report.per_label["R-A0"]) == (1, 1, 1)
        assert counts(report.argument_counts) == (2, 3, 3)

    def test_ambiguous_referent_without_credited_referent(self):
        report = evaluate(self.ambiguous(2, 4), self.ambiguous(3, 5), "primesrl")
        assert counts(report.per_label["R-A0"]) == (0, 1, 1)
        assert counts(report.argument_counts) == (0, 3, 3)


class TestUnknownRole:
    TEXT = (DATA / "buy_gold.conll").read_text().replace("\tA0\n", "\tXYZ\n")
    WARNING = (UserWarning, "treating unknown role base 'XYZ' as a modifier")
    # pairs that agree on their arguments, with the same sense and another, and one that does not
    SYSTEMS = (TEXT, TEXT.replace("buy.01", "buy.05"), TEXT.replace("\tA1\n", "\t_\n"))

    @classmethod
    def caught(cls, system: str) -> list:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate(parse_conll09(cls.TEXT), parse_conll09(system), "primesrl")
        return caught

    @pytest.mark.parametrize("system_sense", ["buy.01", "buy.05"])
    def test_gold_warns_whatever_the_system_sense(self, system_sense):
        # the pair agrees on its arguments, so its units are built once, from gold
        caught = self.caught(self.TEXT.replace("buy.01", system_sense))
        assert [(w.category, str(w.message)) for w in caught] == [self.WARNING]

    def test_a_pair_that_disagrees_warns_once_per_side(self):
        caught = self.caught(self.SYSTEMS[2])
        assert [(w.category, str(w.message)) for w in caught] == [self.WARNING] * 2

    @pytest.mark.parametrize("system", SYSTEMS, ids=["agreeing", "sense-flipped", "disagreeing"])
    def test_the_cli_prints_the_warning_once(self, system, tmp_path):
        # the default filter shows a message from one place once, whichever path ran
        (tmp_path / "gold.conll").write_text(self.TEXT)
        (tmp_path / "system.conll").write_text(system)
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONWARNINGS", "PYTHONDEVMODE")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(normalize.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from primesrl import cli; sys.exit(cli.main())",
             "evaluate", "gold.conll", "system.conll"],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        first = self.caught(system)[0]
        assert proc.returncode == 0
        assert proc.stderr == warnings.formatwarning(first.message, first.category,
                                                     first.filename, first.lineno)


class TestChainSpans:
    def test_orphan_then_plain_do_not_chain(self):
        pred = load_span("tax", "tax_p4").sentences[0].predicates[0]
        labels = [unit[0::2] for unit in chain_spans(pred)]
        assert (RoleLabel.parse("C-A0"),) in labels and (RoleLabel.parse("A0"),) in labels

    def test_plain_then_continuation_chain(self):
        pred = load_span("tax", "tax_gold").sentences[0].predicates[0]
        assert (RoleLabel.parse("A0"), (3,), RoleLabel.parse("C-A0"), (12,)) in chain_spans(pred)

    def test_verb_spans_are_excluded(self):
        lead = load_span("lead", "lead_gold").sentences[0].predicates[0]
        assert any(label.is_verb for unit in chain_spans(lead) for label in unit[0::2])
        # a C-V chains onto its V, and the whole unit is dropped, as an R-V is
        parts = [("V", (1,)), ("A0", (2, 3)), ("C-V", (4,)), ("R-V", (5,)), ("C-A0", (6,))]
        pred = PredicateInstance(1, None, tuple(RawArgument(RoleLabel.parse(text), extent)
                                                for text, extent in parts))
        for p in (lead, pred):
            assert all(not label.is_verb for _, key, _ in _span_units(p) for label in key[0::2])
        assert [key for _, key, _ in _span_units(pred)] == \
            [(RoleLabel("A0"), (2, 3), RoleLabel("A0", True), (6,))]


class TestMissingAndSpuriousPredicates:
    def test_missed_predicate_counts_gold_units(self):
        gold = load_head("buy_gold")
        system = Corpus([Sentence(tokens=[Token(t.index, t.form) for t in
                                          gold.sentences[0].tokens],
                                  predicates=[])], mode="head")
        report = evaluate(gold, system, "primesrl")
        assert counts(report.predicate_counts) == (0, 0, 1)
        assert counts(report.argument_counts) == (0, 0, 3)

    def test_spurious_predicate_counts_predicted_units(self):
        gold = load_head("buy_gold")
        system = load_head("buy_gold")
        extra = PredicateInstance(
            anchor=2, sense=SenseLabel("be", "01"),
            arguments=(RawArgument(RoleLabel("A1"), (5,)),))
        system.sentences[0].predicates.append(extra)
        report = evaluate(gold, system, "primesrl")
        assert counts(report.predicate_counts) == (1, 2, 1)
        assert counts(report.argument_counts) == (3, 4, 3)


class TestCorpusStats:
    def test_continuation_share(self):
        stats = corpus_stats(load_head("tax_gold"))
        assert stats.total_arguments == 4
        assert stats.pct_continuation == pytest.approx(25.0)
        assert stats.pct_reference == pytest.approx(0.0)
        assert stats.per_label == {"A0": 1, "C-A0": 1, "A2": 1, "AM-TMP": 1}

    def test_reference_share(self):
        stats = corpus_stats(load_head("lead_gold"))
        assert stats.total_arguments == 3
        assert stats.pct_reference == pytest.approx(100.0 / 3)

    def test_verb_spans_are_not_counted(self):
        stats = corpus_stats(load_span("lead", "lead_gold"))
        assert stats.total_arguments == 3
        assert "V" not in stats.per_label

    def test_empty_corpus(self):
        corpus = single_pred_corpus("buy.01")
        with pytest.raises(EmptyCorpus):
            corpus_stats(corpus)

    @pytest.mark.parametrize("path", sorted(path.name for path in DATA.glob("*.conll"))
                             + sorted(path.name for path in DATA.glob("*.props")))
    def test_sentences_read_once_give_the_stats_of_the_parsed_corpus(self, path):
        name, suffix = path.split(".")
        if suffix == "conll":
            parsed, sentences = load_head(name), read(str(DATA / path), "conll09")
        else:
            words = name.split("_")[0]
            parsed = load_span(words, name)
            sentences = read(str(DATA / path), "conll05", str(DATA / (words + ".words")))
        assert corpus_stats(Corpus(sentences, parsed.mode)) == corpus_stats(parsed)
        assert next(sentences, None) is None

    def test_empty_corpus_is_known_only_after_the_whole_file(self, tmp_path):
        path = tmp_path / "gold.conll"
        empty = serialize_conll09(single_pred_corpus("buy.01"))
        path.write_text(empty + "\n" + empty, encoding="utf-8")
        sentences = read(str(path), "conll09")
        with pytest.raises(EmptyCorpus):
            corpus_stats(Corpus(sentences, "head"))
        assert next(sentences, None) is None
        # a bad line after sentences without arguments is reported, not the empty corpus
        path.write_text(empty + "\n1\tstares\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            corpus_stats(Corpus(read(str(path), "conll09"), "head"))
        assert err.value.line == 3


class TestEvaluateDispatch:
    # lead_p5 is excluded: its dangling references break the identity by design
    @pytest.mark.parametrize("metric", ["primesrl", "legacy_head"])
    @pytest.mark.parametrize("name", ["buy_gold", "tax_p4", "lead_p4"])
    def test_self_identity(self, metric, name):
        corpus = load_head(name)
        report = evaluate(corpus, corpus, metric)
        assert report.predicate_counts.f1 == 1.0
        assert report.argument_counts.f1 == 1.0

    def test_unknown_metric_or_mode(self):
        corpus = load_head("buy_gold")
        with pytest.raises(ValueError):
            evaluate(corpus, corpus, "bleu")

    def test_unknown_metric_is_named_before_any_pair_is_drawn(self):
        drawn = []
        pairs = (drawn.append(n) or (n, None, None) for n in range(1, 3))
        with pytest.raises(ValueError) as err:
            score_pairs(pairs, ("primesrl", "bogus"), "head")
        assert str(err.value) == "unknown metric 'bogus'" and drawn == []
        # corpora that cannot be paired: the name is checked first
        with pytest.raises(ValueError) as err:
            evaluate(load_head("buy_gold"), Corpus([], "head"), "bogus")
        assert str(err.value) == "unknown metric 'bogus'"

    @pytest.mark.parametrize("score", [align, lambda g, s: evaluate(g, s, "primesrl")],
                             ids=["align", "evaluate"])
    def test_first_problem_in_order_wins_over_the_sentence_count(self, score):
        # as in the CLI: sentence 1's forms differ before the system side ends
        gold = parse_conll09(SENTENCE * 3)
        system = parse_conll09(RENAMED + SENTENCE)
        with pytest.raises(TokenMismatch) as err:
            score(gold, system)
        assert (err.value.sentence, err.value.token) == (1, 3)

    def test_per_sentence_counts_fold_to_the_total(self):
        gold = Corpus(load_head("tax_gold").sentences + load_head("tax_gold").sentences,
                      mode="head")
        system = Corpus(load_head("tax_p1").sentences + load_head("tax_p5").sentences,
                        mode="head")
        report = evaluate(gold, system, "primesrl")
        assert len(report.per_sentence) == 2
        folded = (sum(c.correct for c in report.per_sentence),
                  sum(c.predicted for c in report.per_sentence),
                  sum(c.gold for c in report.per_sentence))
        assert folded == counts(report.argument_counts)

    def test_per_sentence_records_go_only_to_a_sink(self):
        gold = Corpus(load_span("tax", "tax_gold").sentences * 3, mode="span")
        system = Corpus(load_span("tax", "tax_p1").sentences * 3, mode="span")
        metrics = ("legacy_span", "primesrl")
        calls = []
        reports = score_pairs(_corpus_pairs(gold, system), metrics, "span",
                              lambda metric, c: calls.append((metric, c)))
        assert [report.per_sentence for report in reports] == [[], []]
        assert score_pairs(_corpus_pairs(gold, system), metrics, "span") == reports
        # once per sentence and metric, in sentence order
        assert [metric for metric, _ in calls] == list(metrics) * 3
        for metric in metrics:
            assert ([c for m, c in calls if m == metric]
                    == evaluate(gold, system, metric).per_sentence)

    def test_per_label_totals_match_the_overall_counts(self):
        report = evaluate(load_head("tax_gold"), load_head("tax_p1"), "primesrl")
        total = (sum(c.correct for c in report.per_label.values()),
                 sum(c.predicted for c in report.per_label.values()),
                 sum(c.gold for c in report.per_label.values()))
        assert total == counts(report.argument_counts)


class TestFilterChain:
    """The strict metric as merged units plus the sense filter, then the
    reference filter: each row of the chain only takes credit away, and the
    full chain in either order is primesrl."""

    CHAINS = ((), (_sense_filter,), (_sense_filter, _reference_filter),
              (_reference_filter, _sense_filter))

    @classmethod
    def check(cls, gold: Corpus, system: Corpus) -> None:
        runs = [(_strict_units, chain, _lemma_and_sense, [0, 0, 0],
                 defaultdict(lambda: [0, 0, 0]), None) for chain in cls.CHAINS]
        _score_aligned(align(gold, system).sentences, runs)
        none, sense, sense_ref, ref_sense = (run[4] for run in runs)
        for row in (sense, sense_ref, ref_sense):
            assert {label: (t[PREDICTED], t[GOLD]) for label, t in row.items()} == \
                {label: (t[PREDICTED], t[GOLD]) for label, t in none.items()}
        for label in none:
            assert none[label][CORRECT] >= sense[label][CORRECT] >= sense_ref[label][CORRECT]
            assert none[label][CORRECT] >= ref_sense[label][CORRECT]
        strict = evaluate(gold, system, "primesrl").per_label
        for row in (sense_ref, ref_sense):
            assert {label: EvalCounts(*t) for label, t in row.items()} == strict

    @staticmethod
    def load(family: str, case: str, fmt: str) -> Corpus:
        name = "%s_%s" % (family, case)
        if fmt == "conll09":
            return load_head(name)
        if family != "buy":
            return load_span(family, name)
        # buy has no CoNLL-2005 files: write its head corpus as one, with its senses
        corpus = load_head(name)
        words, props = serialize_conll05(Corpus(corpus.sentences, mode="span"))
        senses = {(i, p.anchor): p.sense for i, sentence in enumerate(corpus.sentences, start=1)
                  for p in sentence.predicates}
        return parse_conll05(words, props, senses=senses)

    @pytest.mark.parametrize("fmt", ["conll09", "conll05"])
    @pytest.mark.parametrize("family, case", [("buy", c) for c in ("gold", "p1", "p2", "p3")]
                             + [("lead", c) for c in LEAD_CASES]
                             + [("tax", c) for c in TAX_CASES])
    def test_fixtures(self, family, case, fmt):
        self.check(self.load(family, "gold", fmt), self.load(family, case, fmt))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans())
    def test_generated_corpora(self, seed, mode, with_sense):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=12, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        self.check(gold, perturb_corpus(rng, gold))


class TestRecount:
    """The legacy rows counted again from plain multisets, without the scoring
    core: per label, gold and predicted count the units of the gold and system
    predicates, and correct counts the intersection of each aligned pair's gold
    and system units. In every row, the per-label tallies sum to the argument
    counts."""

    @staticmethod
    def units(metric: str, pred: PredicateInstance) -> list[tuple[str, tuple]]:
        """(label, match key) of each unit, from the README's rules for the row."""
        parts = [a for a in pred.arguments if a.label.base != "V"]
        if metric == "legacy_head":
            return [(str(a.label), (str(a.label), a.extent)) for a in parts]
        return [(str(unit[0].label), tuple((str(a.label), a.extent) for a in unit))
                for unit in chained(parts)]

    @classmethod
    def recount(cls, gold: Corpus, system: Corpus, metric: str) -> dict[str, tuple]:
        tallies = defaultdict(lambda: [0, 0, 0])
        for sentence in align(gold, system).sentences:
            pairs = sentence.pairs + [(gp, None) for gp in sentence.missed]
            pairs += [(None, sp) for sp in sentence.spurious]
            for gp, sp in pairs:
                gold_units = cls.units(metric, gp) if gp is not None else []
                sys_units = cls.units(metric, sp) if sp is not None else []
                label_of = {key: label for label, key in gold_units + sys_units}
                found = [Counter(key for _, key in units) for units in (gold_units, sys_units)]
                for field, keys in ((GOLD, found[0]), (PREDICTED, found[1]),
                                    (CORRECT, found[0] & found[1])):
                    for key, n in keys.items():
                        tallies[label_of[key]][field] += n
        return {label: tuple(tally) for label, tally in tallies.items()}

    @classmethod
    def check(cls, gold: Corpus, system: Corpus) -> None:
        for metric in METRICS:
            report = evaluate(gold, system, metric)
            assert tuple(map(sum, zip((0, 0, 0), *map(counts, report.per_label.values())))) == \
                counts(report.argument_counts)
            if metric != "primesrl":
                assert {label: counts(c) for label, c in report.per_label.items()} == \
                    cls.recount(gold, system, metric)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans())
    def test_counts_are_multiset_intersections(self, seed, mode, with_sense):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=12, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        self.check(gold, perturb_corpus(rng, gold))

    # part labels in shapes that generated corpora never have: verb parts with
    # prefixes, orphan C- parts, unknown bases and plain duplicates
    TEXTS = ("A0", "C-A0", "R-A0", "R-C-A0", "A1", "C-A1", "AM-TMP", "C-AM-TMP",
             "V", "C-V", "R-V", "XYZ", "C-XYZ", "R-XYZ")

    @classmethod
    def hand_built(cls, rng: random.Random, mode: str) -> PredicateInstance:
        """Up to seven parts on distinct first tokens, in extent order or not."""
        starts = rng.sample(range(1, 16), rng.randint(0, 7))
        if rng.random() < 0.5:
            starts.sort()
        return PredicateInstance(1, SenseLabel("buy", rng.choice(["01", "02"])), tuple(
            RawArgument(RoleLabel.parse(rng.choice(cls.TEXTS)),
                        (start,) if mode == "head" else (start, start + 16)[:rng.randint(1, 2)])
            for start in starts))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]))
    def test_hand_built_pairs(self, seed, mode):
        rng = random.Random(seed)
        tokens = [Token(i, "w") for i in range(1, 33)]
        sentences = []
        for _ in range(12):
            gp = self.hand_built(rng, mode)
            sp = rng.choice([gp, self.hand_built(rng, mode), PredicateInstance(
                1, gp.sense, tuple(rng.sample(gp.arguments, len(gp.arguments))))])
            sentences.append((Sentence(tokens, [gp]), Sentence(tokens, [sp])))
        gold, system = (Corpus([pair[side] for pair in sentences], mode=mode) for side in (0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the unknown base
            self.check(gold, system)


class TestAgreeingPairs:
    """A pair whose system arguments equal gold's scores as the one-to-one
    match of its two unit lists does: reordering every system predicate's
    arguments keeps their multiset, so it makes those pairs take the matching
    path instead, and must leave every report unchanged."""

    @staticmethod
    def reordered(corpus: Corpus) -> Corpus:
        return Corpus([Sentence(s.tokens, [dataclasses.replace(p, arguments=p.arguments[::-1])
                                           for p in s.predicates])
                       for s in corpus.sentences], mode=corpus.mode)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans())
    def test_agreeing_pairs_score_as_the_matched_ones(self, seed, mode, with_sense):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=12, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        system = perturb_corpus(rng, gold)
        reordered = self.reordered(system)
        # reordering changes the arguments tuple of every agreeing pair with two or more
        assert any(gp.arguments == sp.arguments and len(gp.arguments) > 1
                   for sentence in align(gold, system).sentences for gp, sp in sentence.pairs)
        # each row alone, and the two metrics of compare in one pass
        for metrics in [(metric,) for metric in METRICS] + [("primesrl", "legacy_" + mode)]:
            assert (kept(_corpus_pairs(gold, system), metrics, mode)
                    == kept(_corpus_pairs(gold, reordered), metrics, mode))

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]))
    def test_unit_builders_read_only_the_arguments(self, seed, mode):
        gold = random_corpus(random.Random(seed), n_sentences=4, mode=mode, max_tokens=20,
                             max_preds=4, max_args=5, with_sense=True)
        for sentence in gold.sentences:
            for pred in sentence.predicates:
                for anchor, sense in ((pred.anchor + 1, None),
                                      (1, SenseLabel.parse("other.09"))):
                    other = dataclasses.replace(pred, anchor=anchor, sense=sense)
                    for units, _, _ in METRICS.values():
                        assert units(other) == units(pred)


class TestLabelTable:
    """The unit builders look up a known label's tally text and core flag once;
    what they read must be what ``str`` and ``classify`` give for the label."""

    @staticmethod
    def predicates() -> list[PredicateInstance]:
        corpora = [load_head(path.stem) for path in sorted(DATA.glob("*.conll"))]
        corpora += [load_span(path.stem.split("_")[0], path.stem)
                    for path in sorted(DATA.glob("*.props"))]
        rng = random.Random(5)
        for mode in ("head", "span"):
            gold = random_corpus(rng, n_sentences=40, mode=mode, max_tokens=20, max_preds=4,
                                 max_args=5)
            corpora += [gold, perturb_corpus(rng, gold)]
        return [pred for corpus in corpora for sentence in corpus.sentences
                for pred in sentence.predicates]

    def test_builders_read_str_and_classify_of_each_label(self):
        preds = self.predicates()
        seen = set()
        for _ in range(2):  # filling the tables, then reading them
            for pred in preds:
                for tally, key, core in _strict_units(pred):
                    assert tally == str(key[0])
                    assert core == (classify(key[0]) == "core")
                parts = [arg for arg in pred.arguments if arg.label.base != "V"]
                assert [unit[:2] for unit in _head_units(pred)] == \
                    [(str(arg.label), arg) for arg in parts]
                for tally, key, _ in _span_units(pred):
                    assert tally == str(key[0])
                seen.update(arg.label for arg in parts)
        # both families, with and without each prefix
        assert {(label.is_core, label.is_continuation, label.is_reference) for label in seen} \
            >= {(core, cont, False) for core in (True, False) for cont in (True, False)}
        assert any(label.is_core and label.is_reference for label in seen)

    # label texts of one predicate's parts in each grouping shape, with the
    # number of strict units whose base is unknown
    SHAPES = {
        "no-continuation": (["XYZ", "XYZ", "A1"], 2),
        "singleton-group": (["XYZ", "A1", "C-A1"], 1),
        "orphan-continuation": (["C-XYZ", "A1"], 1),
        "merged-group": (["XYZ", "C-XYZ", "A1"], 1),
        "duplicates-beside-a-continuation": (["XYZ", "XYZ", "A1", "C-A1"], 2),
        "reference-beside-a-merged-group": (["R-XYZ", "XYZ", "C-XYZ"], 2),
    }

    @pytest.mark.parametrize("mode", ["head", "span"])
    def test_an_unknown_base_warns_once_per_unit(self, mode):
        for texts, unknown in self.SHAPES.values():
            args = [RawArgument(RoleLabel.parse(text),
                                (2 * i + 2,) if mode == "head" else (2 * i + 2, 2 * i + 3))
                    for i, text in enumerate(texts)]
            if mode == "span":
                args.insert(0, RawArgument(RoleLabel("V"), (1,)))
            pred = PredicateInstance(1, SenseLabel("buy", "01"), tuple(args))
            merged = [u for u in merge_continuations(pred) if not u.base_label.is_verb]
            assert sum(not (u.base_label.is_core or u.base_label.is_modifier)
                       for u in merged) == unknown
            for _ in range(2):  # an unknown label is never kept, so it warns every time
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    units = _strict_units(pred)
                    # the legacy builders never classify
                    _head_units(pred), chain_spans(pred), _span_units(pred)
                assert [(w.category, str(w.message)) for w in caught] == \
                    [TestUnknownRole.WARNING] * unknown, texts
                assert units == [(str(u.base_label), u, u.base_label.is_core) for u in merged]


class TestUnitBuilders:
    """Every builder's keys are label-first tuples, tallied under ``str`` of that
    label, without verb units: the strict keys are ``merge_continuations``'s
    units, in the same order; the legacy head keys are the parts; the legacy
    span keys are the chained units, each the flat tuple of its parts, for
    predicates with or without C- parts, in extent order or not."""

    @staticmethod
    def check(preds: list[PredicateInstance]) -> None:
        for pred in preds:
            strict, head, span = (_strict_units(pred), _head_units(pred), _span_units(pred))
            assert all(tally == str(key[0]) for tally, key, _ in strict + head + span)
            assert [key for _, key, _ in strict] == \
                [u for u in merge_continuations(pred) if u.base_label.base != "V"]
            parts = [a for a in pred.arguments if a.label.base != "V"]
            assert [key for _, key, _ in head] == parts
            assert [key for _, key, _ in span] == \
                [tuple(field for part in unit for field in part) for unit in chained(parts)]

    @staticmethod
    def shuffled(rng: random.Random, preds: list[PredicateInstance]) -> list[PredicateInstance]:
        """Each predicate with its parts in a random order, which a library caller may give."""
        return [PredicateInstance(p.anchor, p.sense, tuple(rng.sample(p.arguments, len(p.arguments))))
                for p in preds]

    def test_fixtures(self):
        preds = TestLabelTable.predicates()
        assert any(a.label.is_continuation for p in preds for a in p.arguments)
        self.check(preds + self.shuffled(random.Random(3), preds))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans())
    def test_generated_corpora(self, seed, mode, with_sense):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=6, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        preds = [p for corpus in (gold, perturb_corpus(rng, gold))
                 for sentence in corpus.sentences for p in sentence.predicates]
        self.check(preds + self.shuffled(rng, preds))


class TestGoldAgainstItself:
    """Gold scored against itself: both legacy rows credit every unit, and the
    strict row predicts every gold unit but credits no R- unit whose predicate
    has no same-base unit without the R- prefix, as the reference rule judges
    gold too."""

    @staticmethod
    def check(gold: Corpus) -> None:
        tallies = defaultdict(lambda: [0, 0])  # label -> [gold units, R- units without referent]
        for sentence in gold.sentences:
            for pred in sentence.predicates:
                units = [u for u in merge_continuations(pred) if u.base_label.base != "V"]
                referents = {u.base_label.base for u in units if not u.base_label.is_reference}
                for u in units:
                    tally = tallies[str(u.base_label)]
                    tally[0] += 1
                    tally[1] += u.base_label.is_reference and u.base_label.base not in referents
        n = sum(len(sentence.predicates) for sentence in gold.sentences)
        for metric in METRICS:
            report = evaluate(gold, gold, metric)
            assert counts(report.predicate_counts) == (n, n, n)
            if metric == "primesrl":
                expected = {label: (g - lost, g, g) for label, (g, lost) in tallies.items()}
            else:
                expected = {label: (c.gold, c.gold, c.gold) for label, c in report.per_label.items()}
            assert {label: counts(c) for label, c in report.per_label.items()} == expected

    @staticmethod
    def unreferred(rng: random.Random, corpus: Corpus) -> Corpus:
        """``corpus`` with the R- prefix set at random on non-verb parts, so that
        some R- units lose their referent and some bases have only R- units."""
        def flip(arg: RawArgument) -> RawArgument:
            if arg.label.base != "V" and rng.random() < 0.3:
                return RawArgument(arg.label._replace(is_reference=True), arg.extent)
            return arg
        return Corpus([Sentence._of_forms(s.forms, [
            dataclasses.replace(p, arguments=tuple(map(flip, p.arguments))) for p in s.predicates])
            for s in corpus.sentences], mode=corpus.mode)

    @pytest.mark.parametrize("fmt", ["conll09", "conll05"])
    @pytest.mark.parametrize("family, case", [("buy", c) for c in ("gold", "p1", "p2", "p3")]
                             + [("lead", c) for c in LEAD_CASES]
                             + [("tax", c) for c in TAX_CASES])
    def test_fixtures(self, family, case, fmt):
        self.check(TestFilterChain.load(family, case, fmt))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans())
    def test_generated_corpora(self, seed, mode, with_sense):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=8, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        for corpus in (gold, perturb_corpus(rng, gold), self.unreferred(rng, gold)):
            self.check(corpus)


def respell(text: str, bare: bool) -> str:
    """A role label in its other PropBank spelling, prefixes kept: A0 -> ARG0,
    and AM-TMP -> ARGM-TMP, or with ``bare`` -> TMP; V stays V."""
    label = RoleLabel.parse(text)
    base = label.base
    if bare and base[3:] in MODIFIER_TAGS:
        base = base[3:]
    elif base.startswith("A"):
        base = "ARG" + base[1:]
    return ("R-" if label.is_reference else "") + ("C-" if label.is_continuation else "") + base


def respelled(text: str, mode: str, bare: bool = False) -> str:
    """A CoNLL-2009 text (head) or CoNLL-2005 props text (span) with every role
    label respelled."""
    lines = []
    for line in text.split("\n"):
        cells = line.split("\t")
        if mode == "head":
            cells[14:] = [cell if cell == "_" else respell(cell, bare) for cell in cells[14:]]
        else:
            cells[1:] = [re.sub(r"(?<=\()[^*]+", lambda m: respell(m.group(), bare), cell)
                         for cell in cells[1:]]
        lines.append("\t".join(cells))
    return "\n".join(lines)


class TestLabelSpelling:
    """ARG0 and A0, and ARGM-TMP, TMP and AM-TMP, name one label: a gold/system
    pair written with the other spellings, on both sides or on one, scores as
    with the short ones, row for row and label for label."""

    @staticmethod
    def read(corpus: Corpus, respell: bool, bare: bool) -> Corpus:
        if corpus.mode == "head":
            text = serialize_conll09(corpus)
            other = respelled(text, "head", bare)
            assert other != text  # every corpus drawn has a non-verb argument
            return parse_conll09(other if respell else text)
        words, props = serialize_conll05(corpus)
        other = respelled(props, "span", bare)
        assert other != props
        senses = {(i, p.anchor): p.sense for i, sentence in enumerate(corpus.sentences, start=1)
                  for p in sentence.predicates if p.sense is not None}
        return parse_conll05(words, other if respell else props, senses=senses)

    def test_the_respellings_read_back_as_the_label(self):
        for text in ("A0", "AA", "C-A1", "R-A2", "AM-TMP", "R-C-AM-LOC", "AM-XYZ", "V"):
            for bare in (False, True):
                assert RoleLabel.parse(respell(text, bare)) == RoleLabel.parse(text)
        assert [respell(text, False) for text in ("R-A0", "C-AM-TMP")] == ["R-ARG0", "C-ARGM-TMP"]
        assert [respell(text, True) for text in ("R-A0", "C-AM-TMP")] == ["R-ARG0", "C-TMP"]

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans(), bare=st.booleans())
    def test_other_spellings_score_as_the_short_ones(self, seed, mode, with_sense, bare):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=12, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense)
        system = perturb_corpus(rng, gold)
        short = [self.read(gold, False, bare), self.read(system, False, bare)]
        other = [self.read(gold, True, bare), self.read(system, True, bare)]
        for metrics in [(metric,) for metric in METRICS] + [("legacy_" + mode, "primesrl")]:
            expected = kept(_corpus_pairs(*short), metrics, mode)
            for pair in (other, (other[0], short[1]), (short[0], other[1])):
                assert kept(_corpus_pairs(*pair), metrics, mode) == expected


class TestSplitAndOrder:
    """Each sentence's counts add up: scoring any two parts of a corpus, and
    summing, gives the whole's predicate counts, argument counts and per_label,
    and scoring the sentences in another order, gold and system alike, gives
    the same counts. Gold is all sensed or all sense-less, because a mix
    raises MissingGoldSense for the whole corpus but not for a part of it."""

    N = 12

    @staticmethod
    def tallies(report) -> Counter:
        """(row, field) -> count, for the predicate and argument rows and each label."""
        rows = [("predicates", report.predicate_counts), ("arguments", report.argument_counts)]
        rows += [(("label", label), c) for label, c in report.per_label.items()]
        return Counter({(row, field): getattr(c, field) for row, c in rows
                        for field in ("correct", "predicted", "gold")})

    @staticmethod
    def score(gold: list, system: list, metrics: tuple[str, ...], mode: str) -> list:
        return kept(_corpus_pairs(Corpus(gold, mode), Corpus(system, mode)), metrics, mode)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
           with_sense=st.booleans(), part=st.integers(0, 2**N - 1),
           order=st.permutations(range(N)))
    def test_parts_sum_to_the_whole_in_any_order(self, seed, mode, with_sense, part, order):
        rng = random.Random(seed)
        gold = random_corpus(rng, n_sentences=self.N, mode=mode, max_tokens=20, max_preds=4,
                             max_args=5, with_sense=with_sense).sentences
        system = perturb_corpus(rng, Corpus(gold, mode)).sentences
        # bit i of part puts sentence i + 1 in the first part
        first = [i for i in range(self.N) if part >> i & 1]
        second = [i for i in range(self.N) if not part >> i & 1]
        for metrics in [(metric,) for metric in METRICS] + [("primesrl", "legacy_" + mode)]:
            whole = self.score(gold, system, metrics, mode)
            pieces = [self.score([gold[i] for i in indices], [system[i] for i in indices],
                                 metrics, mode) for indices in (first, second, order)]
            for report, *piece in zip(whole, *pieces):
                added = self.tallies(piece[0])
                added.update(self.tallies(piece[1]))
                assert added == self.tallies(report)
                assert self.tallies(piece[2]) == self.tallies(report)
                for indices, scored in zip((first, second, order), piece):
                    assert scored.per_sentence == [report.per_sentence[i] for i in indices]
