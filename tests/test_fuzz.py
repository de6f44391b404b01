"""CLI fuzz over mutated fixtures: every input scores or ends with exit 2, 3 or 4.

Each example takes one fixture family in one format, damages one of its files
(gold, system, or for conll05 the shared words file or the sense sidecar built
from the family's CoNLL-2009 gold senses) with one mutation, and runs all three
subcommands on the result. An exception escaping ``cli.main`` or any other exit
code fails the test; hypothesis then shrinks the mutant.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from conftest import DATA, load_head
from primesrl import cli

FAMILIES = {"conll09": ("buy", "lead", "tax"), "conll05": ("lead", "tax")}
SUFFIX = {"conll09": ".conll", "conll05": ".props"}
MUTATIONS = ("drop line", "drop column", "flip bracket", "overwrite byte",
             "duplicate line", "replace cell")
# cells that sit near the parsers' edge cases: labels with odd prefixes,
# unbalanced brackets, senses without a number, non-integer ids
CELLS = ("_", "Y", "-", "*", "(A0*", "*)", "(V*)", "((", "(C-*)", "C-A1", "R-A0",
         "R-C-R-A0", "C-", "ARG", "AM-", "buy.01", "buy.", "buy", ".01", "0", "-1", "x")
FLIP = {ord("("): b")", ord(")"): b"("}


def _mutate(draw, data: bytes) -> bytes:
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "flip bracket":
        brackets = [k for k, byte in enumerate(data) if byte in FLIP]
        if not brackets:
            return data
        k = draw(st.sampled_from(brackets))
        return data[:k] + FLIP[data[k]] + data[k + 1:]
    if kind == "overwrite byte":
        k = draw(st.integers(0, len(data) - 1))
        return data[:k] + bytes([draw(st.integers(0, 255))]) + data[k + 1:]
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    cells = lines[i].split(b"\t")
    j = draw(st.integers(0, len(cells) - 1))
    if kind == "drop line":
        del lines[i]
    elif kind == "duplicate line":
        lines.insert(i, lines[i])
    elif kind == "drop column":
        lines = [b"\t".join(c for n, c in enumerate(line.split(b"\t")) if n != j)
                 for line in lines]
    else:
        cells[j] = draw(st.sampled_from(CELLS)).encode()
        lines[i] = b"\t".join(cells)
    return b"\n".join(lines)


def _sidecar(family: str) -> bytes:
    gold = load_head(family + "_gold")
    return "".join("%d\t%d\t%s\n" % (i, p.anchor, p.sense)
                   for i, sentence in enumerate(gold.sentences, start=1)
                   for p in sentence.predicates).encode()


@st.composite
def mutants(draw):
    """(format, {role: file bytes}) with exactly one file mutated."""
    fmt = draw(st.sampled_from(sorted(FAMILIES)))
    family = draw(st.sampled_from(FAMILIES[fmt]))
    systems = sorted(p.name for p in DATA.glob(family + "_p*" + SUFFIX[fmt]))
    files = {"gold": (DATA / (family + "_gold" + SUFFIX[fmt])).read_bytes(),
             "system": (DATA / draw(st.sampled_from(systems))).read_bytes()}
    if fmt == "conll05":
        files["words"] = (DATA / (family + ".words")).read_bytes()
        files["senses"] = _sidecar(family)
    target = draw(st.sampled_from(sorted(files)))
    files[target] = _mutate(draw, files[target])
    return fmt, files


def _run(argv) -> int:
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        warnings.simplefilter("ignore")
        return cli.main(argv)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutants())
def test_mutated_fixtures_exit_with_a_documented_code(mutant):
    fmt, files = mutant
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for role, data in files.items():
            paths[role] = str(Path(tmp) / role)
            Path(paths[role]).write_bytes(data)
        io_args, pair = ["--format", fmt], [paths["gold"], paths["system"]]
        if fmt == "conll05":
            io_args += ["--words", paths["words"]]
            pair[:0] = ["--senses", paths["senses"], "--senses-system", paths["senses"]]
        runs = [["evaluate", *io_args, "--per-label", "--json", str(Path(tmp) / "r.json"), *pair],
                ["compare", *io_args, *pair],
                ["stats", *io_args, paths["gold"]],
                ["stats", *io_args, paths["system"]]]
        for argv in runs:
            assert _run(argv) in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_ALIGN,
                                  cli.EXIT_CONFIG), argv
