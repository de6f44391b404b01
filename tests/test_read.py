"""The CLI reads each input a piece at a time from its open file.

``cli._read`` checks that a whole file decodes, keeping no text, then yields
it again in decoded pieces. The rows read from those pieces must be the rows
``conll._rows`` gives for the whole decoded text, at every chunk size; a bad
byte must still end the run before any sentence is parsed, with the
``path:line`` the parsers would give; a pipe must score like a regular file;
and every input must be closed however the run ends.
"""

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
from test_conll import sidecar

TEXTS = [
    "a\r\nb\r\n\r\nc\n",      # \r\n across every chunk edge
    "a\x85b\u2028c \nd\n",  # multi-byte line breaks
    "\ufeffa\nb\n",         # a byte order mark at the start is dropped
    "a\n\ufeffb\n\ufeff",    # later ones stay
    "\ufeff",
    "é\x0bü\x1c\n\n\n# x\ny",
    "no newline at all \r",
]


def _rows_read(tmp: Path, text: str, chunk: int) -> list:
    path = tmp / "input"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(cli, "_CHUNK", chunk), contextlib.ExitStack() as files:
        text = cli._read(str(path), files)
        rows = list(conll._rows(text()))
        assert list(conll._rows(text())) == rows  # each call reads from the start
        return rows


def _expected(text: str) -> list:
    return list(conll._rows([text[1:] if text.startswith("\ufeff") else text]))


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
    with mock.patch.object(cli, "_CHUNK", 16):
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

    with mock.patch.object(cli, "open", tracking_open, create=True):
        code, _, err = _main(argv, capsys)
    assert code == exit_code, err
    assert len(opened) == n_inputs
    assert all(handle.closed for handle in opened)


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
# per corpus, so both start from the same state. CPython 3.11 keeps up to 2,000
# freed 20-item tuples (one per 20-token column) that it never hands out again;
# the warm-up fills that list, so the traced run measures the scorer.
PEAK = """
import contextlib, io, sys, tracemalloc
from primesrl import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
    tracemalloc.start()
    assert cli.main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


def _peak(argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", PEAK, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(run.stdout)


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    small, large = _corpus(tmp_path / "small", 200), _corpus(tmp_path / "large", 2000)
    growth = _peak(large) - _peak(small)
    # the CLI keeps no record per sentence; what may grow is per-reader tables
    assert growth <= Path(large[1]).stat().st_size / 12, growth


def test_span_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    small, large = _span_corpus(tmp_path / "small", 200), _span_corpus(tmp_path / "large", 2000)
    growth = _peak(large) - _peak(small)
    # each sidecar is taken a sentence at a time; what may grow is per-reader
    # tables, such as the conll05 reader's table of distinct spans
    assert growth <= 2 * Path(large[-2]).stat().st_size, growth
