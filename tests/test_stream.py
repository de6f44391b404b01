"""The one streaming pass: the same scores as the library, and which error wins.

``evaluate`` and ``compare`` parse and align the gold and system files a batch
of sentences at a time, then score the batch, through ``read_pairs`` and
``score_pairs``. Their reports must equal library ``evaluate`` on the fully
parsed corpora, whose predicate counts the predicate scorers repeat, also
across batch boundaries; on a file with several problems the first one met in
file order (gold parse, then system parse, then alignment) decides the exit
code, and the sentences before it are scored.
"""

import contextlib
import io
import itertools
import json
import random
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, counts
from corpusgen import perturb_corpus, random_corpus
from pin_outputs import MALFORMED, RENAMED, SENTENCE, _sidecar as pred_sidecar
from primesrl import (
    align,
    cli,
    evaluate,
    parse_conll05,
    parse_conll09,
    parse_sense_sidecar,
    read_pairs,
    score_pairs,
    serialize_conll05,
    serialize_conll09,
    score_predicates_legacy09,
    score_predicates_primesrl,
)
from primesrl import conll
from primesrl.conll import ParseError, SentenceCountMismatch, TokenMismatch
from primesrl.scoring import _BATCH, score_predicates_trivial


def _sidecar(corpus) -> str:
    return "".join("%d\t%d\t%s\n" % (i, p.anchor, p.sense)
                   for i, sentence in enumerate(corpus.sentences, start=1)
                   for p in sentence.predicates if p.sense is not None)


def _write(tmp: Path, gold, system) -> tuple[list[str], object, object]:
    """Write both corpora; return the CLI's input arguments and the parsed corpora."""
    if gold.mode == "head":
        files = {"gold.conll": serialize_conll09(gold), "sys.conll": serialize_conll09(system)}
        for name, text in files.items():
            (tmp / name).write_text(text)
        return ([str(tmp / "gold.conll"), str(tmp / "sys.conll")],
                parse_conll09(files["gold.conll"]), parse_conll09(files["sys.conll"]))
    words, gold_props = serialize_conll05(gold)
    _, sys_props = serialize_conll05(system)
    files = {"words": words, "gold.props": gold_props, "sys.props": sys_props,
             "gold.senses": _sidecar(gold), "sys.senses": _sidecar(system)}
    for name, text in files.items():
        (tmp / name).write_text(text)
    return (["--format", "conll05", "--words", str(tmp / "words"),
             "--senses", str(tmp / "gold.senses"), "--senses-system", str(tmp / "sys.senses"),
             str(tmp / "gold.props"), str(tmp / "sys.props")],
            parse_conll05(words, gold_props, parse_sense_sidecar(files["gold.senses"])),
            parse_conll05(words, sys_props, parse_sense_sidecar(files["sys.senses"])))


def _streamed_reports(argv: list[str]) -> list:
    """Run the CLI; return the reports its scoring pass produced."""
    reports = []

    # the CLI passes no sink; this one keeps what evaluate keeps
    def record(pairs, metrics, mode):
        per_sentence = {metric: [] for metric in metrics}
        reports.extend(score_pairs(pairs, metrics, mode,
                                   lambda metric, c: per_sentence[metric].append(c)))
        for report in reports:
            report.per_sentence = per_sentence[report.metric]
        return reports

    with mock.patch.object(cli, "score_pairs", side_effect=record), \
            contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    return reports


def _same(streamed, library) -> None:
    assert streamed.metric == library.metric and streamed.mode == library.mode
    assert counts(streamed.predicate_counts) == counts(library.predicate_counts)
    assert counts(streamed.argument_counts) == counts(library.argument_counts)
    assert streamed.per_label == library.per_label
    assert streamed.per_sentence == library.per_sentence


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["head", "span"]),
       with_sense=st.booleans())
def test_streamed_scores_equal_the_library(seed, mode, with_sense):
    rng = random.Random(seed)
    gold = random_corpus(rng, n_sentences=12, mode=mode, max_tokens=20, max_preds=4,
                         max_args=5, with_sense=with_sense)
    system = perturb_corpus(rng, gold)
    with tempfile.TemporaryDirectory() as tmp:
        io_args, gold_parsed, system_parsed = _write(Path(tmp), gold, system)
        legacy = "legacy_head" if mode == "head" else "legacy_span"
        library = {metric: evaluate(gold_parsed, system_parsed, metric)
                   for metric in ("primesrl", legacy)}
        # the predicate scorers follow the same sense rule as evaluate
        aligned = align(gold_parsed, system_parsed)
        legacy_scorer = {"head": score_predicates_legacy09, "span": score_predicates_trivial}
        assert score_predicates_primesrl(aligned) == library["primesrl"].predicate_counts
        assert legacy_scorer[mode](aligned) == library[legacy].predicate_counts
        for metric in ("primesrl", "legacy"):
            [report] = _streamed_reports(["evaluate", "--metric", metric, *io_args])
            _same(report, library[report.metric])
        streamed = _streamed_reports(["compare", *io_args])
        assert [r.metric for r in streamed] == [legacy, "primesrl"]
        for report in streamed:
            _same(report, library[report.metric])


def _fixture_runs():
    """(format, family, system, with sidecars) for every system file of every
    tests/data family, in each format the family has."""
    for gold in sorted(DATA.glob("*_gold.conll")):
        family = gold.name.split("_")[0]
        for system in sorted(DATA.glob(family + "_p*.conll")):
            yield "conll09", family, system.stem, False
            if (DATA / (family + ".words")).exists():
                yield "conll05", family, system.stem, False
                yield "conll05", family, system.stem, True


def _library_runs(fmt: str, family: str, system: str, with_senses: bool, tmp: Path):
    """The inputs of one fixture run as ``read_pairs`` arguments, as CLI input
    arguments, and as corpora parsed with ``parse_conll09`` or ``parse_conll05``."""
    if fmt == "conll09":
        paths = [str(DATA / (family + "_gold.conll")), str(DATA / (system + ".conll"))]
        corpora = [parse_conll09(Path(p).read_text(encoding="utf-8"), p) for p in paths]
        return paths, {}, paths, corpora
    paths = [str(DATA / (family + "_gold.props")), str(DATA / (system + ".props"))]
    options = {"words": str(DATA / (family + ".words"))}
    argv = ["--format", "conll05", "--words", options["words"]]
    if with_senses:
        # the sidecars hold the matching conll09 files' PRED cells
        for option, name in (("senses", family + "_gold"), ("senses_system", system)):
            sidecar = tmp / (name + ".senses")
            sidecar.write_text(pred_sidecar((DATA / (name + ".conll")).read_text()))
            options[option] = str(sidecar)
            argv += ["--" + option.replace("_", "-"), str(sidecar)]
    words = Path(options["words"]).read_text(encoding="utf-8")
    senses = [options.get(option) for option in ("senses", "senses_system")]
    corpora = [parse_conll05(words, Path(p).read_text(encoding="utf-8"),
                             sidecar and parse_sense_sidecar(Path(sidecar).read_text(), sidecar),
                             path=p)
               for p, sidecar in zip(paths, senses)]
    return paths, options, argv + paths, corpora


@pytest.mark.parametrize("fmt, family, system, with_senses", list(_fixture_runs()))
def test_read_pairs_scores_as_the_parsers_and_the_cli(fmt, family, system, with_senses,
                                                      tmp_path, capsys):
    paths, options, argv, (gold, system_corpus) = _library_runs(fmt, family, system,
                                                                with_senses, tmp_path)
    mode = conll.MODES[fmt]
    metrics = ("primesrl", "legacy_" + mode)
    per_sentence = {metric: [] for metric in metrics}
    streamed = score_pairs(read_pairs(*paths, fmt, **options), metrics, mode,
                           lambda metric, c: per_sentence[metric].append(c))
    for report, metric in zip(streamed, metrics):
        report.per_sentence = per_sentence[metric]
        _same(report, evaluate(gold, system_corpus, metric))
        # the CLI's --json report of the same run
        out = tmp_path / "report.json"
        assert cli.main(["evaluate", "--metric", metric.split("_")[0], "--per-label",
                         "--json", str(out), *argv]) == cli.EXIT_OK
        capsys.readouterr()
        written = json.loads(out.read_text(encoding="utf-8"))
        assert (written["metric"], written["mode"]) == (metric, mode)
        assert written["predicates"] == cli._counts_json(report.predicate_counts)
        assert written["arguments"] == cli._counts_json(report.argument_counts)
        assert written["per_label"] == {label: cli._counts_json(c)
                                        for label, c in report.per_label.items()}


def _columns_permuted(corpus, props: str, rng: random.Random) -> tuple[str, str]:
    """``props``, as ``serialize_conll05`` wrote it for ``corpus``, with the
    predicate columns of each sentence in a random order, and the sidecar of
    ``corpus`` with each sentence's rows in that column order."""
    sentences, rows = [], []
    for n, (sentence, block) in enumerate(zip(corpus.sentences, props.split("\n\n")), start=1):
        cells = [line.split("\t") for line in block.split("\n") if line]
        order = list(range(1, len(cells[0])))
        rng.shuffle(order)
        sentences.append("".join("\t".join([c[0]] + [c[j] for j in order]) + "\n"
                                 for c in cells))
        # column j holds the j-th predicate in anchor order
        predicates = sorted(sentence.predicates, key=lambda p: p.anchor)
        rows += ["%d\t%d\t%s\n" % (n, predicates[j - 1].anchor, predicates[j - 1].sense)
                 for j in order if predicates[j - 1].sense is not None]
    return "\n".join(sentences), "".join(rows)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), with_sense=st.booleans())
def test_conll05_column_order_leaves_every_count(seed, with_sense):
    # the sidecar rows then come out of anchor order within each sentence
    rng = random.Random(seed)
    gold = random_corpus(rng, n_sentences=12, mode="span", max_tokens=20, max_preds=4,
                         max_args=5, with_sense=with_sense)
    system = perturb_corpus(rng, gold)
    with tempfile.TemporaryDirectory() as tmp:
        io_args, _, _ = _write(Path(tmp), gold, system)
        expected = _streamed_reports(["compare", *io_args])
        for name, corpus in (("gold", gold), ("sys", system)):
            props, senses = _columns_permuted(corpus, Path(tmp, name + ".props").read_text(),
                                              rng)
            Path(tmp, name + ".props").write_text(props)
            Path(tmp, name + ".senses").write_text(senses)
        assert _streamed_reports(["compare", *io_args]) == expected


# ---------------------------------------------------------------------------
# doubly-broken inputs: the first problem met in file order wins

def _sentences(n: int, **edits: str) -> str:
    """``n`` copies of the buy_gold sentence; ``s<k>`` replaces sentence k."""
    return "".join(edits.get("s%d" % k, SENTENCE) for k in range(1, n + 1))


def _run(tmp_path, gold: str, system: str, capsys) -> tuple[int, str, str]:
    paths = tmp_path / "gold.conll", tmp_path / "system.conll"
    for path, text in zip(paths, (gold, system)):
        path.write_text(text)
    code = cli.main(["evaluate", *map(str, paths)])
    out, err = capsys.readouterr()
    return code, out, err


def test_alignment_error_before_a_later_system_parse_error(tmp_path, capsys):
    code, out, err = _run(tmp_path, _sentences(3), _sentences(3, s1=RENAMED, s3=MALFORMED),
                          capsys)
    assert code == cli.EXIT_ALIGN and out == ""
    assert "alignment error: sentence 1, token 3: form 'John' != 'Mary'" in err


def test_gold_parse_error_before_a_later_alignment_error(tmp_path, capsys):
    code, out, err = _run(tmp_path, _sentences(3, s1=MALFORMED), _sentences(3, s2=RENAMED),
                          capsys)
    assert code == cli.EXIT_PARSE and out == ""
    assert "parse error: %s:line 3: " % (tmp_path / "gold.conll") in err


@pytest.mark.parametrize("gold_n, system_n, bad", [(2, 4, 4), (4, 2, 4), (2, 4, 3), (4, 2, 3),
                                                   (1, 2, 2), (2, 1, 2)],
                         ids=["2-4", "4-2", "2-4-first-extra", "4-2-first-extra", "1-2", "2-1"])
def test_sentence_count_mismatch_counts_the_longer_file_unparsed(gold_n, system_n, bad,
                                                                 tmp_path, capsys):
    # the longer file's sentence ``bad`` is malformed, its last or the first
    # past the shorter file's end; either way it is counted, not parsed
    edit = {"s%d" % bad: MALFORMED}
    gold = _sentences(gold_n, **(edit if gold_n > system_n else {}))
    system = _sentences(system_n, **(edit if system_n > gold_n else {}))
    code, out, err = _run(tmp_path, gold, system, capsys)
    assert code == cli.EXIT_ALIGN and out == ""
    noun = "sentence" if gold_n == 1 else "sentences"
    assert err == "alignment error: gold has %d %s, system has %d\n" % (gold_n, noun, system_n)


@pytest.mark.parametrize("words_n, gold_n, system_n, gold_rows, expected", [
    (3, 3, 2, 3, ("sys.props", "words file has 3 sentences, props file has 2")),
    (2, 3, 2, 3, ("gold.props", "words file has 2 sentences, props file has 3")),
    (2, 2, 3, 2, ("sys.props", "words file has 2 sentences, props file has 3")),
    # a gold row past gold's own end is gold's error, met before the system's rest
    (2, 2, 3, 3, ("gold.props", "sense row for sentence 3, token 7 names no predicate")),
], ids=["system-short", "gold-long", "system-long", "system-long-gold-row"])
def test_span_count_mismatch_wins_over_sense_rows_past_the_end(words_n, gold_n, system_n,
                                                               gold_rows, expected,
                                                               tmp_path, capsys):
    # the system sidecar names sentence 3's predicate, past the shorter props
    # file's end; the longer side, counted unparsed where the system is
    # longer, raises its words/props mismatch before its rows are checked
    words, props = (DATA / "lead.words").read_text(), (DATA / "lead_gold.props").read_text()
    files = {"words": words * words_n, "gold.props": props * gold_n,
             "sys.props": props * system_n,
             "gold.senses": "".join("%d\t7\tlead.01\n" % k for k in range(1, gold_rows + 1)),
             "sys.senses": "".join("%d\t7\tlead.01\n" % k for k in range(1, 4))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = cli.main(["compare", "--format", "conll05", "--words", str(tmp_path / "words"),
                     "--senses", str(tmp_path / "gold.senses"),
                     "--senses-system", str(tmp_path / "sys.senses"),
                     str(tmp_path / "gold.props"), str(tmp_path / "sys.props")])
    assert code == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", "parse error: %s: %s\n"
                                   % (tmp_path / expected[0], expected[1]))


def test_malformed_senses_warn_with_the_file_and_line(tmp_path, capsys):
    # the same cell at the same line of both files: the default warning
    # filter shows each warning once, so only the file name tells them apart
    unsensed = _sentences(2).replace("buy.01", "buy")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code, _, _ = _run(tmp_path, unsensed, unsensed, capsys)
    assert code == cli.EXIT_OK
    gold, system = tmp_path / "gold.conll", tmp_path / "system.conll"
    assert [str(w.message) for w in caught] == [
        "%s:line %d: predicate sense cell 'buy' is not lemma.sense; recorded as sense-missing"
        % (path, line) for line in (4, 12) for path in (gold, system)]


def test_empty_gold_before_a_malformed_system(tmp_path, capsys):
    code, out, err = _run(tmp_path, "# no sentences\n", MALFORMED, capsys)
    assert code == cli.EXIT_CONFIG and out == ""
    assert err == "error: %s: no sentences\n" % (tmp_path / "gold.conll")


@pytest.mark.parametrize("words_n, props_n", [(2, 4), (4, 2), (1, 2), (2, 1)])
def test_words_props_count_mismatch_counts_without_parsing(words_n, props_n):
    # sentences without predicates; a longer props file ends in an unclosed span
    words = "a\nb\n\n" * words_n
    props = "-\n-\n\n" * props_n
    if props_n > words_n:
        props += "-\t(A0*\n-\t*\n"
        props_n += 1
    with pytest.raises(ParseError) as err:
        parse_conll05(words, props)
    noun = "sentence" if words_n == 1 else "sentences"
    assert err.value.message == ("words file has %d %s, props file has %d"
                                 % (words_n, noun, props_n))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=st.text(alphabet="a #\t\n\r\x0b\x1c\x85\u2028\ufeff", max_size=40),
       chunk=st.integers(1, 8), comments=st.booleans())
def test_rows_read_in_chunks_are_the_lines_of_splitlines(text, chunk, comments):
    # one leading byte order mark is dropped; it is not a line break
    lines = text[1:] if text.startswith("\ufeff") else text
    rows = [(i, line.strip()) for i, line in enumerate(lines.splitlines(), start=1)]
    # with comments, a line that starts with # is dropped and does not end a block
    kept = [row for row in rows if not (comments and row[1].startswith("#"))]
    blocks = [list(group) for nonblank, group in itertools.groupby(kept, lambda row: bool(row[1]))
              if nonblank]
    with mock.patch.object(conll, "_CHUNK", chunk):
        assert list(conll._rows(conll._pieces(text))) == rows
        # each block as two lists: its line numbers and its lines
        assert list(conll._blocks(conll._pieces(text), comments)) == [
            ([n for n, _ in block], [line for _, line in block]) for block in blocks]


# ---------------------------------------------------------------------------
# batches: scores across batch boundaries, and what an error leaves scored

def _read_pairs(io_args: list[str]):
    """``read_pairs`` on the inputs that ``_write``'s CLI arguments name."""
    *options, gold, system = io_args
    kwargs = {flag[2:].replace("-", "_"): value for flag, value in zip(options[::2], options[1::2])}
    return read_pairs(gold, system, kwargs.pop("format", "conll09"), **kwargs)


@pytest.mark.parametrize("mode", ["head", "span"])
def test_scores_across_batch_boundaries_equal_the_library(mode, tmp_path, capsys):
    # three batches, the last of one sentence; span data comes with both sidecars
    rng = random.Random(5)
    gold = random_corpus(rng, n_sentences=2 * _BATCH + 1, mode=mode, max_tokens=20,
                         max_preds=4, max_args=5, with_sense=True)
    io_args, gold_parsed, system_parsed = _write(tmp_path, gold, perturb_corpus(rng, gold))
    metrics = ("primesrl", "legacy_" + mode)
    library = {metric: evaluate(gold_parsed, system_parsed, metric) for metric in metrics}
    per_sentence = {metric: [] for metric in metrics}
    streamed = score_pairs(_read_pairs(io_args), metrics, mode,
                           lambda metric, c: per_sentence[metric].append(c))
    for report in streamed:
        report.per_sentence = per_sentence[report.metric]
        _same(report, library[report.metric])
    for report in _streamed_reports(["compare", *io_args]):
        _same(report, library[report.metric])
    # the CLI's bytes, from its own pass and from the library's reports
    report = tmp_path / "report.json"
    library_pass = mock.patch.object(cli, "_score",
                                     lambda args, names: [library[name] for name in names])
    for command in (["evaluate", "--per-label", "--json", str(report)],
                    ["evaluate", "--metric", "legacy", "--per-label", "--json", str(report)],
                    ["compare"]):
        outputs = []
        for scoring in (contextlib.nullcontext(), library_pass):
            with scoring:
                assert cli.main([*command, *io_args]) == cli.EXIT_OK
            outputs.append((capsys.readouterr(), report.exists() and report.read_bytes()))
            report.unlink(missing_ok=True)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("k", [1, _BATCH // 2, _BATCH, _BATCH + 1, _BATCH + _BATCH // 2],
                         ids=["first", "mid-batch", "batch-end", "next-batch", "mid-next-batch"])
@pytest.mark.parametrize("problem", ["parse", "count", "forms"])
def test_an_error_at_pair_k_leaves_the_pairs_before_it_scored(k, problem):
    # gold sentence i has the unknown role base Qi, so scoring it warns once,
    # naming i; every second system sentence flips the sense
    n = 2 * _BATCH + 1
    gold = parse_conll09(_sentences(n, **{"s%d" % i: SENTENCE.replace("\tA0\n", "\tQ%d\n" % i)
                                          for i in range(1, n + 1)}))
    system = parse_conll09(_sentences(n, **{"s%d" % i: SENTENCE.replace("buy.01", "sell.01")
                                            for i in range(2, n + 1, 2)}))
    metrics = ("primesrl", "legacy_head")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = {metric: evaluate(gold, system, metric).per_sentence[:k - 1]
                    for metric in metrics}
    error = {"parse": ParseError("bad row", line=1, path="gold.conll"),
             "count": SentenceCountMismatch("gold has %d sentences, system has %d" % (k, n)),
             "forms": None}[problem]
    drawn = []

    def pairs():
        # drawing pair k raises, or gives a system sentence with other forms
        for i, g, s in zip(itertools.count(1), gold.sentences, system.sentences):
            drawn.append(i)
            if i == k:
                if error is not None:
                    raise error
                s = parse_conll09(RENAMED).sentences[0]
            yield i, g, s

    seen = {metric: [] for metric in metrics}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TokenMismatch if error is None else type(error)) as raised:
            score_pairs(pairs(), metrics, "head", lambda metric, c: seen[metric].append(c))
    assert drawn == list(range(1, k + 1))
    assert seen == expected
    assert [str(w.message) for w in caught] == [
        "treating unknown role base 'Q%d' as a modifier" % i for i in range(1, k)]
    if error is None:
        assert str(raised.value) == "sentence %d, token 3: form 'John' != 'Mary'" % k
    else:
        assert raised.value is error
