import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import DATA
from corpusgen import perturb_corpus, random_corpus
from primesrl import (
    Corpus,
    PredicateInstance,
    RawArgument,
    RoleLabel,
    SenseLabel,
    Sentence,
    Token,
    cli,
    conll,
    parse_conll05,
    parse_sense_sidecar,
    serialize_conll05,
)
from primesrl.scoring import evaluate


def path(name):
    return str(DATA / name)


def run(argv):
    return cli.main(argv)


class TestEvaluate:
    def test_head_self_comparison(self, capsys):
        code = run(["evaluate", path("buy_gold.conll"), path("buy_gold.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Predicate F1: 1.0000" in out
        assert "Argument F1: 1.0000" in out

    def test_wrong_lemma_zeroes_core_arguments(self, capsys):
        code = run(["evaluate", path("buy_gold.conll"), path("buy_p3.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Predicate F1: 0.0000" in out
        assert "Argument F1: 0.3333" in out

    def test_legacy_metric_flag(self, capsys):
        code = run(["evaluate", "--metric", "legacy",
                    path("buy_gold.conll"), path("buy_p3.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Metric: legacy_head" in out
        assert "Argument F1: 1.0000" in out

    def test_span_format(self, capsys):
        code = run(["evaluate", "--format", "conll05", "--metric", "legacy",
                    "--words", path("tax.words"),
                    path("tax_gold.props"), path("tax_p4.props")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Metric: legacy_span" in out
        assert "Argument F1: 0.5714" in out

    def test_per_label_table(self, capsys):
        code = run(["evaluate", "--per-label",
                    path("tax_gold.conll"), path("tax_p1.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "label" in out
        lines = [l for l in out.splitlines() if l.startswith("A0")]
        assert lines and lines[0].split()[1:4] == ["0", "1", "1"]

    def test_json_report_round_trips(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--json", str(report_path),
                    path("tax_gold.conll"), path("tax_p1.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        data = json.loads(report_path.read_text())
        assert data["schema_version"] == cli.SCHEMA_VERSION
        assert data["metric"] == "primesrl" and data["mode"] == "head"
        assert data["flags"]["gold"] == path("tax_gold.conll")
        # the file reproduces the printed numbers exactly
        printed_arg_f1 = next(l for l in out.splitlines()
                              if l.startswith("Argument F1:")).split()[2]
        assert float(printed_arg_f1) == data["arguments"]["f1"]
        printed_pred_f1 = next(l for l in out.splitlines()
                               if l.startswith("Predicate F1:")).split()[2]
        assert float(printed_pred_f1) == data["predicates"]["f1"]
        assert data["arguments"]["correct"] == 2
        assert data["per_label"]["AM-TMP"]["f1"] == 1.0

    def test_span_report_takes_its_mode_from_the_format(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--format", "conll05", "--words", path("tax.words"),
                    "--json", str(report_path), path("tax_gold.props"), path("tax_p1.props")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert out.startswith("Metric: primesrl  Mode: span\n")
        data = json.loads(report_path.read_text())
        assert data["mode"] == "span" and data["flags"]["mode"] == "span"

    def test_no_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIME_SRL_NO_COLOR", "1")
        run(["evaluate", path("buy_gold.conll"), path("buy_gold.conll")])
        assert "\x1b[" not in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        run(["evaluate", "--per-label", path("lead_gold.conll"), path("lead_p1.conll")])
        first = capsys.readouterr().out
        run(["evaluate", "--per-label", path("lead_gold.conll"), path("lead_p1.conll")])
        assert capsys.readouterr().out == first

    def test_leading_byte_order_mark_is_accepted(self, tmp_path, capsys):
        bom = tmp_path / "bom.conll"
        bom.write_text("\ufeff" + (DATA / "buy_gold.conll").read_text(), encoding="utf-8")
        assert run(["evaluate", str(bom), path("buy_gold.conll")]) == cli.EXIT_OK
        assert "Argument F1: 1.0000" in capsys.readouterr().out


    def test_hash_token_round_trip(self, tmp_path, capsys):
        # "#" is the Penn Treebank's pound sign; words files have no comments
        tokens = [Token(i, form) for i, form in enumerate("It cost # 200 .".split(), start=1)]
        pred = PredicateInstance(2, SenseLabel("cost", "01"),
                                 (RawArgument(RoleLabel("A1"), (3, 4)),))
        words, props = serialize_conll05(Corpus([Sentence(tokens, [pred])], mode="span"))
        files = {"words": words, "p.props": props, "p.senses": "1\t2\tcost.01\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        senses = str(tmp_path / "p.senses")
        code = run(["evaluate", "--format", "conll05", "--words", str(tmp_path / "words"),
                    "--senses", senses, "--senses-system", senses,
                    str(tmp_path / "p.props"), str(tmp_path / "p.props")])
        assert code == cli.EXIT_OK
        argument = capsys.readouterr().out.splitlines()[2]
        assert argument.startswith("Argument F1: 1.0000") and "(correct 1, predicted 1" in argument


class TestCompare:
    def test_delta_between_metrics(self, capsys):
        code = run(["compare", path("buy_gold.conll"), path("buy_p3.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "legacy_head" in out and "primesrl" in out
        assert "Argument F1 delta: -0.6667" in out

    def test_identical_files_have_zero_delta(self, capsys):
        run(["compare", path("lead_gold.conll"), path("lead_gold.conll")])
        assert "Argument F1 delta: +0.0000" in capsys.readouterr().out


class TestStats:
    def test_continuation_and_reference_shares(self, capsys):
        code = run(["stats", path("tax_gold.conll")])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "Sentences: 1" in out
        assert "Predicates: 1" in out
        assert "Arguments: 4" in out
        assert "C-X: 25.00%" in out
        assert "R-X: 0.00%" in out

    def test_reference_share(self, capsys):
        run(["stats", path("lead_gold.conll")])
        assert "R-X: 33.33%" in capsys.readouterr().out


    def test_takes_no_senses(self, capsys):
        # stats reads no sense, so it offers no sidecar option
        with pytest.raises(SystemExit) as err:
            run(["stats", "--format", "conll05", "--words", path("lead.words"),
                 "--senses", path("lead_gold.props"), path("lead_gold.props")])
        assert err.value.code == 2
        assert "unrecognized arguments: --senses" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("1\tword\tnot\tenough\tcolumns\n")
        code = run(["evaluate", str(bad), str(bad)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert "line 1" in err and "bad.conll" in err

    def test_alignment_error(self, capsys):
        code = run(["evaluate", path("tax_gold.conll"), path("lead_gold.conll")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_ALIGN
        assert "sentence 1" in err

    def test_span_format_requires_words(self, capsys):
        code = run(["evaluate", "--format", "conll05",
                    path("tax_gold.props"), path("tax_p1.props")])
        assert code == cli.EXIT_CONFIG
        assert "--words" in capsys.readouterr().err

    @pytest.mark.parametrize("command, option", [
        (command, option) for command in ("evaluate", "compare", "stats")
        for option in ("--words", "--senses", "--senses-system")
        if command != "stats" or option == "--words"])
    def test_conll05_option_with_conll09(self, command, option, capsys):
        files = [path("buy_gold.conll")] * (1 if command == "stats" else 2)
        with mock.patch.object(conll, "_opened", side_effect=AssertionError("a file was read")):
            code = run([command, *files, option, path("no_such_file")])
        assert code == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s is read only with --format conll05\n" % option

    def test_unreadable_file(self, capsys):
        code = run(["evaluate", path("no_such_file.conll"), path("buy_gold.conll")])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["evaluate", "compare", "stats"])
    def test_non_utf8_input(self, command, tmp_path, capsys):
        lines = (DATA / "buy_gold.conll").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"John", b"J\xf6hn")  # Latin-1, not UTF-8
        bad = tmp_path / "latin1.conll"
        bad.write_bytes(b"\n".join(lines))
        argv = [command, str(bad)] if command == "stats" else [command, str(bad), str(bad)]
        code = run(argv)
        assert code == cli.EXIT_PARSE
        assert "parse error: %s:line 3: " % bad in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_gold_without_sentences(self, command, tmp_path, capsys):
        gold, system = tmp_path / "gold.conll", tmp_path / "system.conll"
        gold.write_text("")
        system.write_text("")
        code = run([command, str(gold), str(system)])
        assert code == cli.EXIT_CONFIG
        assert "error: %s: no sentences" % gold in capsys.readouterr().err

    def test_stats_on_empty_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        cols = ["1", "word"] + ["_"] * 10 + ["Y", "go.01", "_"]
        empty.write_text("\t".join(cols) + "\n")
        code = run(["stats", str(empty)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("side", ["gold", "system"])
    def test_sense_row_without_a_predicate(self, side, tmp_path, capsys):
        # two lead sentences, predicate at token 7; one side's row for sentence 2
        # is a token off, which on the gold side would also leave gold mixing
        # sensed and sense-less predicates (exit 4 at the end of the pass)
        words = tmp_path / "lead.words"
        words.write_text((DATA / "lead.words").read_text() * 2)
        files = {}
        for name, rows in (("gold", "1\t7\tlead.01\n2\t7\tlead.01\n"),
                           ("system", "1\t7\tlead.01\n2\t7\tlead.02\n")):
            files[name] = tmp_path / (name + ".props"), tmp_path / (name + ".senses")
            files[name][0].write_text((DATA / "lead_gold.props").read_text() * 2)
            files[name][1].write_text(rows.replace("2\t7", "2\t6") if name == side else rows)
        code = run(["evaluate", "--format", "conll05", "--words", str(words),
                    "--senses", str(files["gold"][1]), "--senses-system", str(files["system"][1]),
                    str(files["gold"][0]), str(files["system"][0])])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out == ""
        assert err == ("parse error: %s: sense row for sentence 2, token 6 names no predicate\n"
                       % files[side][0])

    def test_two_conll05_columns_anchored_on_one_token(self, tmp_path, capsys):
        words, props = tmp_path / "four.words", tmp_path / "g.props"
        words.write_text("w\ng\nx\ny\n\n")
        props.write_text("-\t*\t*\n-\t(A0*)\t*\nx\t(V*)\t(V*)\n-\t*\t(A1*)\n")
        code = run(["evaluate", "--format", "conll05", "--words", str(words),
                    str(props), str(props)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out == ""
        assert err == ("parse error: %s:line 3: predicate columns 1 and 2 both anchor at token 3\n"
                       % props)

    @pytest.mark.parametrize("short", ["gold", "system"])
    def test_conll05_props_file_short_of_the_words(self, short, tmp_path, capsys):
        # both props files pair with the one --words file, so a props file one
        # sentence short is a parse error of that file (2), not an alignment
        # error between gold and system (3) as in conll09
        words = tmp_path / "two.words"
        words.write_text((DATA / "lead.words").read_text() * 2)
        props = {}
        for side in ("gold", "system"):
            props[side] = tmp_path / (side + ".props")
            props[side].write_text((DATA / "lead_gold.props").read_text()
                                   * (1 if side == short else 2))
        code = run(["evaluate", "--format", "conll05", "--words", str(words),
                    str(props["gold"]), str(props["system"])])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_PARSE and out == ""
        assert err == ("parse error: %s: words file has 2 sentences, props file has 1\n"
                       % props[short])

    def test_gold_mixing_senses_and_underscores(self, tmp_path, capsys):
        text = (DATA / "buy_gold.conll").read_text().strip() + "\n\n"
        mixed = tmp_path / "mixed.conll"
        mixed.write_text(text + text.replace("buy.01", "_"))
        code = run(["evaluate", str(mixed), str(mixed)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "sentence 2" in err and "token 4" in err

    @pytest.mark.parametrize("system", ["keeps", "misses"])
    def test_partly_sensed_gold_whatever_the_system(self, system, tmp_path, capsys):
        # sentence 2 of the gold file has a predicate without a sense; the system
        # either keeps that predicate or has no predicate in sentence 2
        one = (DATA / "buy_gold.conll").read_text().strip() + "\n\n"
        no_predicate = "".join("\t".join(line.split("\t")[:12] + ["_", "_"]) + "\n"
                               for line in one.splitlines() if line)
        gold, other = tmp_path / "gold.conll", tmp_path / "system.conll"
        gold.write_text(one + one.replace("buy.01", "_"))
        other.write_text(one + (one if system == "keeps" else no_predicate))
        code = run(["evaluate", str(gold), str(other)])
        assert code == cli.EXIT_CONFIG
        assert ("error: sentence 2: gold predicate at token 4 has no sense"
                in capsys.readouterr().err)

    def test_json_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "r.json"
        code = run(["evaluate", "--json", str(target),
                    path("buy_gold.conll"), path("buy_gold.conll")])
        assert code == cli.EXIT_CONFIG
        assert "error: cannot write %s:" % target in capsys.readouterr().err

    def test_repeated_sidecar_row(self, tmp_path, capsys):
        sidecar = tmp_path / "gold.senses"
        sidecar.write_text("1\t6\ttax.01\n1\t6\ttax.05\n")
        code = run(["evaluate", "--format", "conll05", "--words", path("tax.words"),
                    "--senses", str(sidecar), path("tax_gold.props"), path("tax_p1.props")])
        assert code == cli.EXIT_PARSE
        assert "parse error: %s:line 2: " % sidecar in capsys.readouterr().err



class TestSenseSidecar:
    """A sidecar whose sentence numbers never decrease is read a sentence at a
    time during the pass, any other is held whole; both score alike and fail
    alike, with the same message, line and exit code."""

    @staticmethod
    def sidecar_rows(corpus, order: str, rng: random.Random) -> str:
        rows = [["%d\t%d\t%s\n" % (n, p.anchor, p.sense) for p in sentence.predicates]
                for n, sentence in enumerate(corpus.sentences, start=1)]
        if order == "grouped":  # by sentence, tokens in any order
            for group in rows:
                rng.shuffle(group)
        rows = [row for group in rows for row in group]
        if order == "shuffled":
            rng.shuffle(rows)
        return "".join(rows)

    def test_row_order_leaves_every_byte_of_the_output(self, tmp_path, capsys, monkeypatch):
        rng = random.Random(11)
        gold = random_corpus(rng, n_sentences=30, mode="span", max_tokens=20, max_preds=4,
                             max_args=5, with_sense=True)
        system = perturb_corpus(rng, gold)
        words, gold_props = serialize_conll05(gold)
        for name, text in (("words", words), ("gold.props", gold_props),
                           ("sys.props", serialize_conll05(system)[1])):
            (tmp_path / name).write_text(text)
        held = []  # the paths of the sidecars loaded whole
        table = conll._sense_table
        monkeypatch.setattr(conll, "_sense_table", lambda text, path:
                            held.append(path) or table(text, path))
        files = ["--format", "conll05", "--words", str(tmp_path / "words"),
                 "--senses", str(tmp_path / "gold.senses"),
                 "--senses-system", str(tmp_path / "sys.senses"),
                 str(tmp_path / "gold.props"), str(tmp_path / "sys.props")]
        report = tmp_path / "report.json"
        outputs = []
        for order in ("sorted", "grouped", "shuffled"):
            held.clear()
            for name, corpus in (("gold.senses", gold), ("sys.senses", system)):
                (tmp_path / name).write_text(self.sidecar_rows(corpus, order, rng))
            assert run(["evaluate", "--per-label", "--json", str(report)] + files) == 0
            assert run(["compare"] + files) == 0
            outputs.append((capsys.readouterr(), report.read_bytes()))
            # a shuffled sidecar is held whole: both sides, in both runs
            assert len(held) == (4 if order == "shuffled" else 0)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0].err == ""

    LEAD = "1\t7\tlead.01\n2\t7\tlead.01\n"

    @pytest.fixture
    def lead(self, tmp_path, capsys):
        """Three sentences: two lead sentences, each with its predicate at token
        7, and a two-token sentence without predicates; returns a function that
        runs evaluate with a gold sidecar of the given text."""
        words = tmp_path / "three.words"
        words.write_text((DATA / "lead.words").read_text() * 2 + "a\nb\n\n")
        props = tmp_path / "gold.props"
        props.write_text((DATA / "lead_gold.props").read_text() * 2 + "-\n-\n\n")
        sidecar = tmp_path / "gold.senses"

        def evaluate(rows: str, gold: str | None = None):
            # a lone surrogate such as "\udcff" is written as that one byte
            sidecar.write_text(rows, encoding="utf-8", errors="surrogateescape")
            if gold is not None:
                props.write_text(gold)
            code = run(["evaluate", "--format", "conll05", "--words", str(words),
                        "--senses", str(sidecar), str(props), str(props)])
            out, err = capsys.readouterr()
            assert out == ""
            return code, err.replace(str(sidecar), "SENSES").replace(str(props), "PROPS")
        return evaluate

    REPEATED = "parse error: SENSES:line %d: sentence %d, token %d already has a sense row\n"
    BAD = "parse error: SENSES:line %d: expected 3 fields (sentence, token, lemma.sense)\n"

    @pytest.mark.parametrize("rows, expected", [
        ("1\t7\tlead.01\n1\t7\tlead.02\n2\t7\tlead.01\n", REPEATED % (2, 1, 7)),
        ("1\t7\tlead.01\n1\t3\tx.01\n# c\n1\t7\tlead.02\n", REPEATED % (4, 1, 7)),
        # sentence numbers decrease, so the sidecar is held whole
        ("1\t7\tlead.01\n2\t7\tlead.01\n1\t7\tlead.02\n", REPEATED % (3, 1, 7)),
        ("2\t7\tlead.01\n1\t7\tlead.01\n\n2\t7\tlead.02\n", REPEATED % (4, 2, 7)),
        # a bad row after a repeated key
        ("1\t7\tlead.01\n1\t7\tlead.02\n1\t7\n", REPEATED % (2, 1, 7)),
        ("2\t7\tlead.01\n1\t7\tlead.01\n2\t7\tlead.02\n1 7\n", REPEATED % (3, 2, 7)),
        # a bad row before it, on either side of a decrease
        ("1\t7\tlead.01\n1\t7\n1\t7\tlead.02\n", BAD % 2),
        ("2\t7\tlead.01\n1\t7\tlead.01\n1\t7\n2\t7\tlead.02\n", BAD % 3),
        ("1\t7\tlead.01\n2\tx\tlead.01\n",
         "parse error: SENSES:line 2: invalid literal for int() with base 10: 'x'\n"),
        ("1\t7\tlead\n", "parse error: SENSES:line 1: sense label 'lead' has no '.' separator\n"),
        ("1\t1\tbe.\u00b2\n",
         "parse error: SENSES:line 1: sense number must be a digit string, got '\u00b2'\n"),
    ], ids=["adjacent", "apart", "apart-unsorted", "apart-unsorted-blank", "bad-after",
            "bad-after-unsorted", "bad-before", "bad-after-decrease", "not-a-number",
            "bad-label", "not-an-ascii-digit"])
    def test_bad_sidecar_rows(self, lead, rows, expected):
        assert lead(rows) == (cli.EXIT_PARSE, expected)

    # sentence numbers decrease, so the sidecar is loaded whole; read in pieces
    # of 30 characters, line 11 repeats line 2's key four pieces after it
    UNSORTED = "2\t7\tlead.01\n1\t7\tlead.01\n" + "".join("3\t%d\ta.01\n" % t for t in range(1, 9))

    def test_unsorted_sidecar_repeats_a_key_pieces_apart(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(conll, "_CHUNK", 30)
        text = self.UNSORTED + "1\t7\tlead.02\n"
        at = [i for i, piece in enumerate(conll._pieces(text))
              for line in piece.splitlines() if line.startswith("1\t7\t")]
        assert len(at) == 2 and at[1] - at[0] >= 3
        repeated = "line 11: sentence 1, token 7 already has a sense row"
        for read in (lambda: parse_sense_sidecar(text, "s"),
                     lambda: conll._sidecar(lambda: conll._pieces(text), "s")):
            with pytest.raises(conll.ParseError) as err:
                read()
            assert (str(err.value), err.value.line) == ("s:" + repeated, 11)
        sidecar = tmp_path / "gold.senses"
        sidecar.write_text(text)
        code = run(["compare", "--format", "conll05", "--words", path("lead.words"),
                    "--senses", str(sidecar), path("lead_gold.props"), path("lead_gold.props")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", "parse error: %s:%s\n" % (sidecar, repeated))
        # without the repeat: the row walker's table, in file order
        expected = list(dict(conll._sense_rows(conll._rows([self.UNSORTED]), "s")).items())
        assert list(parse_sense_sidecar(self.UNSORTED, "s").items()) == expected
        senses, rows = conll._sidecar(lambda: conll._pieces(self.UNSORTED), "s")
        assert list(senses.items()) == expected and rows == ()

    NO_PREDICATE = "parse error: PROPS: sense row for sentence %d, token %d names no predicate\n"

    @pytest.mark.parametrize("rows, key", [
        (LEAD.replace("2\t7", "2\t6"), (2, 6)),  # a token that is no anchor
        ("0\t7\tlead.01\n" + LEAD, (0, 7)),
        ("-1\t7\tlead.01\n" + LEAD, (-1, 7)),
        (LEAD + "4\t7\tlead.01\n", (4, 7)),  # past the last sentence
        (LEAD + "3\t1\ta.01\n", (3, 1)),  # a sentence without predicates
        # the first unclaimed row in file order, whatever else follows
        ("1\t6\tlead.01\n" + LEAD + "9\t1\ta.01\n", (1, 6)),
        ("2\t2\ta.01\n1\t7\tlead.01\n2\t7\tlead.01\n0\t1\ta.01\n", (2, 2)),
        ("2\t7\tlead.01\n1\t7\tlead.01\n5\t1\ta.01\n", (5, 1)),
    ], ids=["token-off", "sentence-0", "negative", "past-the-end", "no-predicates",
            "first-of-two", "first-of-two-unsorted", "unsorted-past-the-end"])
    def test_sidecar_row_that_names_no_predicate(self, lead, rows, key):
        assert lead(rows) == (cli.EXIT_PARSE, self.NO_PREDICATE % key)

    def test_props_error_wins_over_a_row_that_names_no_predicate(self, lead):
        # the sentence 1 row is unclaimed, but the pass ends at sentence 2's props
        props = (DATA / "lead_gold.props").read_text()
        gold = props + props.replace("(V*)", "(V*", 1) + "-\n-\n\n"
        code, err = lead(self.LEAD.replace("1\t7", "1\t6"), gold)
        assert code == cli.EXIT_PARSE
        assert err == "parse error: PROPS:line 18: span A4 opened inside an open V span\n"

    def test_sidecar_error_wins_over_a_props_error(self, lead):
        # the sidecar is checked whole before the first sentence is parsed
        props = (DATA / "lead_gold.props").read_text()
        gold = props + props.replace("(V*)", "(V*", 1) + "-\n-\n\n"
        assert lead(self.LEAD + "3\t1\n", gold) == (cli.EXIT_PARSE, self.BAD % 3)

    def test_bad_byte_wins_over_a_bad_row_before_it(self, lead):
        # the sidecar is decoded whole before any of its rows is read
        rows = self.LEAD.replace("2\t7\tlead.01", "2\t7") + "# c\n3\t1\ta\udcff.01\n"
        assert lead(rows) == (cli.EXIT_PARSE,
                              "parse error: SENSES:line 4: byte 0xff is not valid UTF-8\n")

    def test_sidecar_rewritten_after_the_check(self, lead, monkeypatch):
        # the pass reads the sidecar again; rows that no longer pass the opening
        # check, here sentence numbers that decrease, end the run
        sidecar = conll._sidecar

        def rewriting(text, path):
            checked = sidecar(text, path)
            Path(path).write_text("2\t7\tlead.01\n1\t7\tlead.01\n")
            return checked
        monkeypatch.setattr(conll, "_sidecar", rewriting)
        assert lead(self.LEAD) == (
            cli.EXIT_CONFIG, "error: cannot read SENSES: it changed after it was checked\n")

    def test_gold_sidecar_error_wins_over_the_system_one(self, tmp_path, capsys):
        gold, system = tmp_path / "gold.senses", tmp_path / "sys.senses"
        gold.write_text("1\t7\tlead.01\n1\t7\n")
        system.write_text("1\tx\tlead.01\n")
        code = run(["compare", "--format", "conll05", "--words", path("lead.words"),
                    "--senses", str(gold), "--senses-system", str(system),
                    path("lead_gold.props"), path("lead_gold.props")])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", self.BAD.replace("SENSES", str(gold)) % 2)


class TestSharedSpanColumns:
    """In the conll05 pass, a system props column equal to a gold column of the
    same sentence is parsed once; each run prints and writes what
    ``parse_conll05`` and ``evaluate`` give, and fails with the same error."""

    WORDS = "a\nb\nc\nd\ne\n\n"
    A = ["(A0*)", "(V*)", "(A1*", "*)", "*"]  # anchored at token 2
    B = ["*", "*", "(A0*)", "(V*)", "(AM-TMP*)"]  # anchored at token 4
    B2 = ["*", "*", "(A1*)", "(V*)", "*"]

    @staticmethod
    def props(*sentences: list[list[str]]) -> str:
        return "".join("".join("\t".join(["-"] + [column[i] for column in columns]) + "\n"
                               for i in range(5)) + "\n" for columns in sentences)

    @pytest.fixture
    def runs(self, tmp_path, capsys, monkeypatch):
        """A function that writes the inputs and runs evaluate and compare on
        them, and returns their outputs with the pairs the pass scored; the
        outputs must equal those of parsing each file with parse_conll05."""
        def library(args, metrics):
            words = Path(args.words).read_text()

            def corpus(props, senses):
                if senses is not None:
                    senses = parse_sense_sidecar(Path(senses).read_text(), senses)
                return parse_conll05(words, Path(props).read_text(), senses, path=props)
            gold, system = corpus(args.gold, args.senses), corpus(args.system, args.senses_system)
            return [evaluate(gold, system, metric) for metric in metrics]

        def outputs(argv):
            report = tmp_path / "report.json"
            report.unlink(missing_ok=True)
            codes = (run(["evaluate", "--per-label", "--json", str(report)] + argv),
                     run(["compare"] + argv))
            return codes, capsys.readouterr(), report.exists() and report.read_bytes()

        def runs(gold: str, system: str, senses: tuple[str, str] | None = None):
            argv = ["--format", "conll05", "--words", str(tmp_path / "words")]
            (tmp_path / "words").write_text(self.WORDS * gold.count("\n\n"))
            for side, text in (("gold", gold), ("system", system)):
                (tmp_path / (side + ".props")).write_text(text)
            for flag, side, rows in zip(("--senses", "--senses-system"), ("gold", "system"),
                                        senses or ()):
                (tmp_path / (side + ".senses")).write_text(rows)
                argv += [flag, str(tmp_path / (side + ".senses"))]
            argv += [str(tmp_path / "gold.props"), str(tmp_path / "system.props")]
            scored = []  # the (n, gold, system) triples of each run, in turn
            with monkeypatch.context() as patch:
                patch.setattr(cli, "score_pairs", lambda pairs, *rest: score_pairs(
                    (scored.append(triple) or triple for triple in pairs), *rest))
                got = outputs(argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_score", library)
                assert got == outputs(argv)
            return got, scored

        score_pairs = cli.score_pairs
        return runs

    def test_a_column_at_another_position(self, runs):
        (codes, _, _), scored = runs(self.props([self.A, self.B]), self.props([self.B2, self.A]))
        assert codes == (0, 0)
        _, gold, system = scored[0]
        assert [p.anchor for p in system.predicates] == [2, 4]
        assert system.predicates[0].arguments is gold.predicates[0].arguments
        assert system.predicates[1].arguments != gold.predicates[1].arguments

    def test_the_system_sense_wins_on_a_shared_column(self, runs):
        (codes, out, _), scored = runs(self.props([self.A, self.B]), self.props([self.B2, self.A]),
                                       ("1\t2\tgo.01\n1\t4\tbe.01\n",
                                        "1\t2\tgo.02\n1\t4\tbe.01\n"))
        assert codes == (0, 0)
        _, gold, system = scored[0]
        assert system.predicates[0].arguments is gold.predicates[0].arguments
        assert [str(p.sense) for p in system.predicates] == ["go.02", "be.01"]
        assert "Predicate F1: 0.5000" in out.out

    def test_two_system_columns_equal_to_a_gold_one(self, runs, tmp_path):
        gold = self.props([self.A, self.B], [self.A, self.B])
        (codes, out, report), _ = runs(gold, self.props([self.A, self.B], [self.A, self.A]))
        assert codes == (cli.EXIT_PARSE, cli.EXIT_PARSE) and out.out == "" and not report
        assert out.err == 2 * ("parse error: %s:line 8: predicate columns 1 and 2 both anchor "
                               "at token 2\n" % (tmp_path / "system.props"))

    def test_a_column_in_two_sentences(self, runs):
        (codes, _, _), scored = runs(self.props([self.A], [self.A]),
                                     self.props([self.B2], [self.A]))
        assert codes == (0, 0)
        (_, gold1, _), (_, gold2, system2) = scored[:2]
        assert gold2.predicates[0].arguments == gold1.predicates[0].arguments
        assert gold2.predicates[0].arguments is not gold1.predicates[0].arguments
        assert system2.predicates[0].arguments is gold2.predicates[0].arguments


FOOTPRINT = """
import sys
had_json = "json" in sys.modules
import primesrl.cli
primesrl.cli.build_parser()
print(had_json, "json" in sys.modules)
"""


def test_start_up_does_not_import_json():
    # a fresh interpreter, since pytest has imported json in this one;
    # only evaluate --json needs the module
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    had_json, has_json = run.stdout.split()
    assert has_json == had_json, run.stdout


@pytest.mark.parametrize("stdout, error", [
    ("pipe", errno.EPIPE),
    pytest.param("/dev/full", errno.ENOSPC,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
])
def test_unwritable_stdout_exits_4_without_a_traceback(stdout, error):
    # a pipe whose read end is closed, as in `srl-score ... | true`, or a full device
    if stdout == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        handle = os.fdopen(write_end, "wb")
    else:
        handle = open(stdout, "wb")
    # buffered, as stdout is by default, so that the write fails only at a flush
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    with handle:
        run = subprocess.run([sys.executable, "-X", "dev", "-m", "primesrl.cli", "evaluate",
                              "--per-label", path("buy_gold.conll"), path("buy_p1.conll")],
                             stdout=handle, stderr=subprocess.PIPE, env=env, text=True,
                             timeout=60)
    assert run.returncode == cli.EXIT_CONFIG
    assert run.stderr == "error: cannot write standard output: %s\n" % os.strerror(error)


@pytest.mark.parametrize("gold", ["buy_gold.conll", "missing.conll"])
def test_closed_stdout_exits_4_before_reading_input(gold):
    # `srl-score ... >&-`: Python starts with sys.stdout None; a missing gold
    # file shows that no input is read first
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-X", "dev",
                          "-m", "primesrl.cli", "evaluate", path(gold), path("buy_p1.conll")],
                         stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert run.returncode == cli.EXIT_CONFIG
    assert run.stderr == "error: cannot write standard output: %s\n" % os.strerror(errno.EBADF)
