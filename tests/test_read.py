"""The reader reads each input a piece at a time from its open file.

``conll._opened`` checks that a whole file decodes, keeping no text, then
yields it again in decoded pieces. The rows read from those pieces, and from
the pieces of the same text given as a str, must be the lines of the text
less one leading byte order mark, at every chunk size; a bad byte must still
end the run before any sentence is parsed, with the ``path:line`` the parsers
would give; a pipe must score like a regular file; every input must be
closed however the run ends; and neither the CLI's nor the library's memory
may grow with the corpus.
"""

import ast
import contextlib
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA
from corpusgen import perturb_corpus, random_corpus
from primesrl import cli, conll, serialize_conll05, serialize_conll09
from pin_outputs import _sidecar as pred_sidecar
from test_conll import sidecar

TEXTS = [
    "a\r\nb\r\n\r\nc\n",      # \r\n across every chunk edge
    "a\x85b\u2028c \nd\n",  # multi-byte line breaks
    "\ufeffa\nb\n",         # a byte order mark at the start is dropped
    "a\n\ufeffb\n\ufeff",    # later ones stay
    "\ufeff",
    "é\x0bü\x1c\n\n\n# x\ny",
    "no newline at all \r",
    "\ufeff\ufeffa\n",       # only the first of two leading marks is dropped
    "\ufeff\r\n\ufeff\n",    # a mark alone on the first line leaves it blank
    "\ufeff\u2028é\n",       # a mark before a multi-byte line break
]


def _rows_read(tmp: Path, text: str, chunk: int) -> list:
    """The rows of ``text`` read from a file and from the str, which must agree."""
    path = tmp / "input"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(conll, "_CHUNK", chunk), contextlib.ExitStack() as files:
        pieces = conll._opened(str(path), files)
        rows = list(conll._rows(pieces()))
        assert list(conll._rows(pieces())) == rows  # each call reads from the start
        assert list(conll._rows(conll._pieces(text))) == rows
        return rows


def _expected(text: str) -> list:
    lines = text[1:] if text.startswith("\ufeff") else text
    return [(i, line.strip()) for i, line in enumerate(lines.splitlines(), start=1)]


@pytest.mark.parametrize("chunk", range(1, 9))
@pytest.mark.parametrize("text", TEXTS)
def test_file_rows_are_the_rows_of_the_text(text, chunk, tmp_path):
    assert _rows_read(tmp_path, text, chunk) == _expected(text)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(text=st.text(alphabet="a #\t\n\r\x0b\x85\u2028\ufeffé", max_size=40),
       chunk=st.integers(1, 8))
def test_file_rows_are_the_rows_of_any_text(text, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        assert _rows_read(Path(tmp), text, chunk) == _expected(text)


def _parse_error(capsys, argv: list[str]) -> str:
    with mock.patch.object(conll, "_CHUNK", 16):
        assert cli.main(argv) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_bad_byte_chunks_into_the_file_names_its_line(tmp_path, capsys):
    # 23 lines ended by breaks of every kind, then a bad byte on line 24
    head = "a\r\nb\x85c\u2028d\n" * 5 + "\r\n" * 3
    data = head.encode("utf-8") + b"x\xffy\n"
    bad = tmp_path / "bad.conll"
    bad.write_bytes(data)
    assert len((head + "_").splitlines()) == 24 and len(head.encode("utf-8")) > 4 * 16
    err = _parse_error(capsys, ["evaluate", str(bad), str(bad)])
    assert err == "parse error: %s:line 24: byte 0xff is not valid UTF-8\n" % bad


def test_bad_byte_at_the_end_of_the_system_wins_over_a_form_mismatch(tmp_path, capsys):
    gold = DATA / "buy_gold.conll"
    system = tmp_path / "system.conll"
    data = gold.read_bytes().replace(b"John", b"Jon", 1)
    system.write_bytes(data + b"\xc3")  # a truncated two-byte sequence
    line = len((data.decode("utf-8") + "_").splitlines())
    err = _parse_error(capsys, ["evaluate", str(gold), str(system)])
    assert err == "parse error: %s:line %d: byte 0xc3 is not valid UTF-8\n" % (system, line)


def _main(argv: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _through_a_pipe(argv: list[str], i: int, capsys) -> tuple[int, str, str]:
    """``_main(argv)`` with the file ``argv[i]`` fed through a named pipe."""
    data = Path(argv[i]).read_bytes()
    fifo = Path(argv[i] + ".fifo")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        result = _main(argv[:i] + [str(fifo)] + argv[i + 1:], capsys)
    finally:
        writer.join(timeout=10)
        if writer.is_alive():  # the reader never opened the pipe: let the writer fail
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    assert not writer.is_alive()
    return result


def test_pipe_scores_as_the_regular_file(tmp_path, capsys):
    # more than a pipe's buffer, so the writer blocks until the reader drains it
    gold, system = tmp_path / "gold.conll", tmp_path / "system.conll"
    gold.write_bytes((DATA / "buy_gold.conll").read_bytes() * 400)
    system.write_bytes((DATA / "buy_p1.conll").read_bytes() * 400)
    assert system.stat().st_size > 1 << 16
    argv = ["evaluate", "--per-label", str(gold), str(system)]
    expected = _main(argv, capsys)
    assert _through_a_pipe(argv, 3, capsys) == expected
    assert expected[0] == cli.EXIT_OK


def test_sidecar_pipe_scores_as_the_regular_file(tmp_path, capsys):
    # the sidecar is read twice, the second time a sentence at a time
    argv = _closing_run(cli.EXIT_OK, tmp_path)
    expected = _main(argv, capsys)
    assert _through_a_pipe(argv, argv.index("--senses") + 1, capsys) == expected
    assert expected[0] == cli.EXIT_OK


def _written(tmp: Path, name: str, data: bytes) -> str:
    (tmp / name).write_bytes(data)
    return str(tmp / name)


def _closing_run(exit_code: int, tmp: Path) -> list[str]:
    """CLI arguments for a run over several inputs that ends with ``exit_code``."""
    if exit_code == cli.EXIT_ALIGN:  # a form mismatch; conll05 forms are shared
        gold = DATA / "buy_gold.conll"
        system = gold.read_bytes().replace(b"John", b"Jon", 1)
        return ["evaluate", str(gold), _written(tmp, "system.conll", system)]
    gold = (DATA / "lead_gold.props").read_bytes()
    system = (DATA / "lead_p1.props").read_bytes()
    words = (DATA / "lead.words").read_bytes()
    senses = b"1\t7\tlead.01\n"
    if exit_code == cli.EXIT_PARSE:
        system = system.replace(b"(V*)", b"(V*", 1)
    elif exit_code == cli.EXIT_CONFIG:  # no gold sentences
        words = gold = senses = b""
    return ["compare", "--format", "conll05",
            "--words", _written(tmp, "lead.words", words),
            "--senses", _written(tmp, "gold.senses", senses),
            "--senses-system", _written(tmp, "system.senses", b"1\t7\tlead.02\n"),
            _written(tmp, "gold.props", gold), _written(tmp, "system.props", system)]


@pytest.mark.parametrize("exit_code, n_inputs", [(cli.EXIT_OK, 5), (cli.EXIT_PARSE, 5),
                                                 (cli.EXIT_ALIGN, 2), (cli.EXIT_CONFIG, 3)])
def test_inputs_are_closed_however_the_run_ends(exit_code, n_inputs, tmp_path, capsys):
    argv = _closing_run(exit_code, tmp_path)
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    with mock.patch.object(conll, "open", tracking_open, create=True):
        code, _, err = _main(argv, capsys)
    assert code == exit_code, err
    assert len(opened) == n_inputs
    assert all(handle.closed for handle in opened)



@pytest.mark.parametrize("read", [
    lambda gold: conll.read(gold, "conll12"),
    lambda gold: conll.read_pairs(gold, gold, "conll12")], ids=["read", "read_pairs"])
def test_unknown_format_is_named_before_any_file_is_opened(read):
    gold = str(DATA / "buy_gold.conll")
    with mock.patch.object(conll, "open", create=True) as opened:
        with pytest.raises(ValueError) as err:
            next(read(gold))
    assert str(err.value) == "unknown format 'conll12'"
    opened.assert_not_called()


def _conll09(tmp: Path, name: str, *apreds: str) -> str:
    """A one-sentence conll09 file of three tokens, its predicate at token 2,
    whose one APRED column holds ``apreds``."""
    rows = ["%d\tw%d\t%s\t%s\t%s" % (i, i, "\t".join("_" * 10), "Y\tgo.01" if i == 2 else "_\t_",
                                       cell) for i, cell in enumerate(apreds, start=1)]
    return _written(tmp, name, ("\n".join(rows) + "\n\n").encode("utf-8"))


def test_read_pairs_shares_an_equal_conll09_argument_record(tmp_path):
    gold = _conll09(tmp_path, "gold.conll", "A0", "_", "A1")
    system = _conll09(tmp_path, "system.conll", "A0", "_", "AM-TMP")
    [(_, g, s)] = conll.read_pairs(gold, system, "conll09")
    (g0, g1), (s0, s1) = g.predicates[0].arguments, s.predicates[0].arguments
    assert s0 is g0
    assert s1 != g1 and s1.extent == g1.extent
    # a second call parses again: no record is shared between calls
    [(_, g2, s2)] = conll.read_pairs(gold, system, "conll09")
    assert g2 == g and s2 == s
    assert not {id(arg) for arg in g.predicates[0].arguments + s.predicates[0].arguments} & {
        id(arg) for arg in g2.predicates[0].arguments + s2.predicates[0].arguments}


@pytest.mark.parametrize("gold, system", [("buy_gold", "buy_p1"), ("lead_gold", "lead_p4"),
                                          ("tax_gold", "tax_p7")])
def test_read_gives_each_side_of_read_pairs(gold, system):
    gold, system = str(DATA / (gold + ".conll")), str(DATA / (system + ".conll"))
    pairs = list(conll.read_pairs(gold, system, "conll09"))
    assert [g for _, g, _ in pairs] == list(conll.read(gold, "conll09"))
    assert [s for _, _, s in pairs] == list(conll.read(system, "conll09"))


def test_a_bad_system_label_where_the_gold_one_parsed_names_the_system(tmp_path):
    gold = _conll09(tmp_path, "gold.conll", "A0", "_", "A1")
    system = _conll09(tmp_path, "system.conll", "A0", "_", "C-C-A1")
    with pytest.raises(conll.ParseError) as err:
        list(conll.read_pairs(gold, system, "conll09"))
    assert str(err.value) == "%s:line 3: nested continuation prefix in 'C-C-A1'" % system

def _conll05(tmp: Path, name: str, *cells: str) -> str:
    """A one-sentence props file of four tokens whose one predicate column,
    anchored at token 2, holds ``cells``."""
    return _written(tmp, name, "".join("-\t%s\n" % cell for cell in cells).encode() + b"\n")


def test_read_pairs_shares_an_equal_conll05_span_part(tmp_path):
    words = _written(tmp_path, "words", b"w1\nw2\nw3\nw4\n\n")
    gold = _conll05(tmp_path, "gold.props", "(A0*)", "(V*)", "(A1*", "*)")
    system = _conll05(tmp_path, "system.props", "(A0*)", "(V*)", "(AM-TMP*", "*)")
    [(_, g, s)] = conll.read_pairs(gold, system, "conll05", words)
    (g0, gv, g1), (s0, sv, s1) = g.predicates[0].arguments, s.predicates[0].arguments
    assert s0 is g0 and sv is gv
    assert s1 != g1 and s1.extent == g1.extent
    # a second call parses again: no record is shared between calls
    [(_, g2, s2)] = conll.read_pairs(gold, system, "conll05", words)
    assert g2 == g and s2 == s
    assert not {id(arg) for arg in g.predicates[0].arguments + s.predicates[0].arguments} & {
        id(arg) for arg in g2.predicates[0].arguments + s2.predicates[0].arguments}


@pytest.mark.parametrize("gold, system", [("lead_gold", "lead_p1"), ("lead_gold", "lead_p4"),
                                          ("tax_gold", "tax_p7")])
def test_read_gives_each_side_of_read_pairs_in_conll05(gold, system, tmp_path):
    words = str(DATA / (gold.split("_")[0] + ".words"))
    senses = [_written(tmp_path, name + ".senses",
                       pred_sidecar((DATA / (name + ".conll")).read_text()).encode())
              for name in (gold, system)]
    gold, system = str(DATA / (gold + ".props")), str(DATA / (system + ".props"))
    pairs = list(conll.read_pairs(gold, system, "conll05", words, *senses))
    assert [g for _, g, _ in pairs] == list(conll.read(gold, "conll05", words, senses[0]))
    assert [s for _, _, s in pairs] == list(conll.read(system, "conll05", words, senses[1]))
    assert any(p.sense is not None for _, g, _ in pairs for p in g.predicates)


def test_a_bad_system_span_label_where_the_gold_one_parsed_names_the_system(tmp_path):
    words = _written(tmp_path, "words", b"w1\nw2\nw3\nw4\n\n")
    gold = _conll05(tmp_path, "gold.props", "(A0*)", "(V*)", "(A1*", "*)")
    system = _conll05(tmp_path, "system.props", "(A0*)", "(V*)", "(C-C-A1*", "*)")
    with pytest.raises(conll.ParseError) as err:
        list(conll.read_pairs(gold, system, "conll05", words))
    assert str(err.value) == "%s:line 3: nested continuation prefix in 'C-C-A1'" % system


def _corpus(tmp: Path, n_sentences: int) -> list[str]:
    """``evaluate`` arguments for a generated head corpus of ``n_sentences``."""
    tmp.mkdir()
    rng = random.Random(53)
    gold = random_corpus(rng, n_sentences, mode="head", max_tokens=30, max_preds=5,
                         max_args=6)
    for name, corpus in (("gold.conll", gold), ("sys.conll", perturb_corpus(rng, gold))):
        (tmp / name).write_text(serialize_conll09(corpus), encoding="utf-8")
    return ["evaluate", str(tmp / "gold.conll"), str(tmp / "sys.conll")]


def _span_corpus(tmp: Path, n_sentences: int) -> list[str]:
    """``compare`` arguments, both sidecars included, for a generated span corpus."""
    tmp.mkdir()
    rng = random.Random(53)
    gold = random_corpus(rng, n_sentences, mode="span", max_tokens=30, max_preds=5,
                         max_args=6, with_sense=True)
    files = dict(zip(("words", "gold.props"), serialize_conll05(gold)))
    system = perturb_corpus(rng, gold)
    files.update({"sys.props": serialize_conll05(system)[1], "gold.senses": sidecar(gold),
                  "sys.senses": sidecar(system)})
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return ["compare", "--format", "conll05", "--words", str(tmp / "words"),
            "--senses", str(tmp / "gold.senses"), "--senses-system", str(tmp / "sys.senses"),
            str(tmp / "gold.props"), str(tmp / "sys.props")]


# one warm-up run, then the tracemalloc peak of a second one; a fresh interpreter
# per corpus, so both start from the same state. CPython keeps up to 2,000 freed
# tuples of each length up to 20 for reuse, and memory held there stays traced;
# the warm-up fills that list only as far as the scorer's own tuples do, so
# 2,000 20-item tuples are built and dropped before tracing, and the traced run
# measures the scorer, not how full the list was.
FILL = "tuples = [tuple(range(i, i + 20)) for i in range(2000)]; del tuples"
PEAK = """
import contextlib, io, sys, tracemalloc
from primesrl import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
    %s
    tracemalloc.start()
    assert cli.main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
""" % FILL


# the same, for the library's read_pairs and score_pairs on two conll09 files
LIBRARY_PEAK = """
import sys, tracemalloc
from primesrl import read_pairs, score_pairs
score_pairs(read_pairs(*sys.argv[1:], "conll09"), ("primesrl",), "head")
%s
tracemalloc.start()
score_pairs(read_pairs(*sys.argv[1:], "conll09"), ("primesrl",), "head")
print(tracemalloc.get_traced_memory()[1])
""" % FILL


def _peak(argv: list[str], script: str = PEAK) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(run.stdout)


def _within(growth: int, bound: float) -> None:
    """Assert the peak growth is within ``bound``, printing both so that
    ``pytest -rP`` shows the margin."""
    print("peak growth %d B, bound %d B" % (growth, bound))
    assert growth <= bound, growth


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    small, large = _corpus(tmp_path / "small", 200), _corpus(tmp_path / "large", 2000)
    growth = _peak(large) - _peak(small)
    # the CLI keeps no record per sentence; what may grow is per-reader tables
    _within(growth, Path(large[1]).stat().st_size / 12)


def test_span_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    small, large = _span_corpus(tmp_path / "small", 200), _span_corpus(tmp_path / "large", 2000)
    growth = _peak(large) - _peak(small)
    # each sidecar is taken a sentence at a time; what may grow is per-reader
    # tables, such as the conll05 reader's table of distinct spans
    _within(growth, 2 * Path(large[-2]).stat().st_size)


# stats keeps counts, not sentences; what may grow is per-reader tables,
# bounded as for evaluate, and for conll05 as for compare's one props file
@pytest.mark.parametrize("make, bound", [(_corpus, 1 / 12), (_span_corpus, 1)],
                         ids=["conll09", "conll05"])
def test_stats_peak_memory_does_not_grow_with_the_corpus(make, bound, tmp_path):
    small, large = make(tmp_path / "small", 200), make(tmp_path / "large", 2000)
    # the gold file alone, after conll05's --format and --words
    small, large = (["stats", *(argv[1:5] if argv[1] == "--format" else []), argv[-2]]
                    for argv in (small, large))
    growth = _peak(large) - _peak(small)
    _within(growth, bound * Path(large[-1]).stat().st_size)


def test_library_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    small, large = _corpus(tmp_path / "small", 200)[1:], _corpus(tmp_path / "large", 2000)[1:]
    growth = _peak(large, LIBRARY_PEAK) - _peak(small, LIBRARY_PEAK)
    _within(growth, Path(large[0]).stat().st_size / 12)


def test_the_cli_reads_input_only_through_the_public_reader():
    package = Path(cli.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("conll", "primesrl.conll")
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "conll" and node.attr.startswith("_")]
    assert private == []
    # one piece source: one chunk size, defined in conll
    chunks = [path.name for path in sorted(package.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              if isinstance(target, ast.Name) and target.id == "_CHUNK"]
    assert chunks == ["conll.py"]
