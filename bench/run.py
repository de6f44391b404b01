"""Layered benchmark of the ``srl-score`` CLI.

    python3 bench/run.py --workload head-evaluate --seed 7 --seconds 35 --trace 0

A run builds (or reuses) the seeded corpus of ``corpus.py`` and then drives
the real CLI, ``primesrl.cli.main``, one command at a time, each in a fresh
child interpreter (``child.py``): a closed loop with one client, the way a
user runs the scorer once per experiment. It keeps starting commands until
``--seconds`` have passed and reports medians. Every command's outcome is
checked against the oracle expectations of ``corpus.py`` and against the
output fingerprint pinned in ``fingerprints.json``; a wrong outcome counts as
failed.

With ``--trace 0`` the run reports the end-to-end metrics. Their times are
given at a reference speed: each set-up or command time is scaled by
``REFERENCE_CALIBRATION_S`` over the time the same child took for the fixed
work of ``child.calibrate``, because on a shared host the speed a process
gets drifts by a quarter or more over tens of seconds. The raw medians are
printed too. With ``--trace 1``
it alternates untraced and traced commands and reports the per-layer metrics
of ``tracer.py`` and the tracing overhead. The last line of stdout is one
JSON object; the lines before it are for people. NOTES.md explains the
workloads, the metrics and the noise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
FINGERPRINTS = BENCH / "fingerprints.json"

SENTENCES = 2000
SETUP_SAMPLES = 10  # setup-only interpreters per run, besides each command's own
MIN_SAMPLES = 3  # per kind of command, even when --seconds has run out
# A run must end within 180 s: no command starts after HARD_LIMIT_S, and
# none may take longer than CHILD_TIMEOUT_S.
CHILD_TIMEOUT_S = 60
HARD_LIMIT_S = 100
# child.calibrate's time at the reference speed: near its median on a 2.1 GHz Xeon vCPU
REFERENCE_CALIBRATION_S = 0.08

WORKLOADS = ("head-evaluate", "span-compare", "head-mismatch")
END_TO_END = {"wall_s": "s", "sentences_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.load_corpus_self_s": "s", "cli.render_s": "s",
    "conll.parse_s": "s", "conll.sidecar_s": "s", "conll.sentences_parsed": "count",
    "conll.parse_useful_ratio": "ratio", "conll.align_s": "s", "conll.align_calls": "count",
    "conll.parse_rss_mb": "MB", "conll.live_objects": "count",
    "model.role_label_parse_calls": "count", "model.role_label_distinct_ratio": "ratio",
    "model.sense_label_parse_calls": "count", "model.sense_label_distinct_ratio": "ratio",
    "normalize.merge_s": "s", "normalize.merge_calls": "count",
    "normalize.classify_calls": "count",
    "scoring.evaluate_s": "s", "scoring.evaluate_calls": "count",
    "scoring.evaluate_self_s": "s", "scoring.score_predicates_s": "s",
    "runtime.gc_s": "s", "runtime.gc_parse_s": "s", "runtime.gc_collections": "count",
    "trace.main_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    exit: int | None  # None: the child was killed at its timeout
    stdout: bytes
    stderr: bytes
    report: bytes | None  # the --json file, when the command wrote one
    timings: dict

    def digest(self) -> str:
        """The behaviour fingerprint: exit code, stdout bytes and JSON bytes."""
        return hashlib.sha256(b"%d\0%s\0%s" % (self.exit if self.exit is not None else -1,
                                               self.stdout, self.report or b"")).hexdigest()


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def command(workload: str, corpus_dir: Path) -> list[str]:
    def at(name: str) -> str:
        return _rel(corpus_dir / name)
    if workload == "span-compare":
        return ["compare", "--format", "conll05", "--words", at("words"),
                "--senses", at("gold.senses"), "--senses-system", at("sys.senses"),
                at("gold.props"), at("sys.props")]
    system = "sys_mismatch.conll" if workload == "head-mismatch" else "sys.conll"
    return ["evaluate", "--per-label", "--json", at("report.json"),
            at("gold.conll"), at(system)]


def run_child(mode: str, argv: list[str], corpus_dir: Path) -> Outcome:
    result_path = corpus_dir / "child.json"
    report_path = corpus_dir / "report.json"
    result_path.unlink(missing_ok=True)
    report_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), mode,
                               str(result_path), *argv],
                              cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        exit_code, stdout, stderr = None, exc.stdout or b"", exc.stderr or b""
    timings = json.loads(result_path.read_text()) if result_path.exists() else {}
    report = report_path.read_bytes() if report_path.exists() else None
    return Outcome(exit_code, stdout, stderr, report, timings)


# ---------------------------------------------------------------------------
# correctness

def _prf(counts: dict) -> tuple[str, str, str]:
    """P, R and F1 as the CLI prints them, from expected counts."""
    c, pred, gold = counts["correct"], counts["predicted"], counts["gold"]
    p = c / pred if pred else 0.0
    r = c / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return "%.4f" % p, "%.4f" % r, "%.4f" % f


def _compare_rows(stdout: str) -> dict[str, list[str]]:
    rows = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[0] in ("legacy_span", "primesrl"):
            rows[fields[0]] = fields[1:]
    return rows


def scores(workload: str, out: Outcome) -> dict:
    """Counts and F1 for each metric the command ran, read from its output."""
    if workload == "head-mismatch":
        return {"exit": out.exit, "message": out.stderr.decode("utf-8", "replace").strip()}
    if workload == "span-compare":
        text = out.stdout.decode("utf-8", "replace")
        delta = re.search(r"Argument F1 delta: (\S+)", text)
        fields = ("predicate_f1", "argument_p", "argument_r", "argument_f1")
        return {**{metric: dict(zip(fields, row))
                   for metric, row in _compare_rows(text).items()},
                "delta": delta.group(1) if delta else None}
    report = json.loads(out.report)
    return {key: report[key] for key in ("metric", "predicates", "arguments")}


def problems(workload: str, meta: dict, out: Outcome) -> list[str]:
    """Everything wrong with one command's outcome; empty when it is right."""
    if out.exit is None:
        return ["killed after %d s" % CHILD_TIMEOUT_S]
    module = out.timings.get("module", "")
    if not module.startswith(str(ROOT / "src")):
        return ["child reported no timings or imported primesrl from %r; stderr: %s"
                % (module, out.stderr.decode("utf-8", "replace")[-500:])]
    found = []
    if workload == "head-mismatch":
        where = meta["mismatch"]
        message = out.stderr.decode("utf-8", "replace")
        if out.exit != 3:
            found.append("exit %d, expected 3" % out.exit)
        if out.stdout or out.report is not None:
            found.append("output written although alignment failed")
        if not ("alignment error" in message
                and re.search(r"\bsentence %d\b" % where["sentence"], message)
                and re.search(r"\btoken %d\b" % where["token"], message)):
            found.append("stderr %r does not name sentence %d, token %d"
                         % (message.strip(), where["sentence"], where["token"]))
        return found

    if out.exit != 0:
        return ["exit %d, expected 0; stderr: %s"
                % (out.exit, out.stderr.decode("utf-8", "replace")[-500:])]
    if workload == "head-evaluate":
        if out.report is None:
            return ["no JSON report written"]
        report = json.loads(out.report)
        for key in ("predicates", "arguments"):
            got = {k: report[key][k] for k in ("correct", "predicted", "gold")}
            if got != meta["head"][key]:
                found.append("%s counts %s, oracle expects %s" % (key, got, meta["head"][key]))
        line = "Argument F1: %s" % _prf(meta["head"]["arguments"])[2]
        if line not in out.stdout.decode("utf-8", "replace"):
            found.append("stdout lacks %r" % line)
        return found

    span = meta["span"]
    trivial = dict(span["predicates"], correct=span["pairs"])
    expected = {"primesrl": [_prf(span["predicates"])[2], *_prf(span["arguments"])],
                "legacy_span": [_prf(trivial)[2]]}
    rows = _compare_rows(out.stdout.decode("utf-8", "replace"))
    for metric, values in expected.items():
        got = rows.get(metric, [])[:len(values)]
        if got != values:
            found.append("%s row %s, oracle expects %s" % (metric, got, values))
    return found


def at_reference(timings: dict, key: str) -> float:
    """``timings[key]`` scaled to the speed at which calibration takes REFERENCE_CALIBRATION_S."""
    speed = statistics.fmean(timings["calibration_s"])
    return timings[key] * REFERENCE_CALIBRATION_S / speed


def _accounted(layers: dict) -> bool:
    """Whether the span self times of one traced command add up to its cli.main time."""
    main_s = layers["trace.main_s"]
    return abs(layers["trace.self_sum_s"] - main_s) <= 1e-6 + 1e-4 * main_s


def _load_fingerprints() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


# ---------------------------------------------------------------------------
# measurement

def measure(workload: str, corpus_dir: Path, meta: dict, seconds: float,
            traced: bool) -> dict:
    argv = command(workload, corpus_dir)
    pinned = _load_fingerprints().get(meta["input_sha256"], {}).get(workload)
    start = time.perf_counter()
    setups = [run_child("setup", [], corpus_dir).timings for _ in range(SETUP_SAMPLES)]
    modes = ["run", "trace"] if traced else ["run"]
    samples: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    reference = pinned["sha256"] if pinned else None
    deadline = time.perf_counter() + seconds
    while True:
        mode = modes[attempted % len(modes)]
        out = run_child(mode, argv, corpus_dir)
        attempted += 1
        found = problems(workload, meta, out)
        if not found:
            digest = out.digest()
            reference = reference or digest
            if digest != reference:
                found.append("output differs from the %s fingerprint; scores now %s%s"
                             % ("pinned" if pinned else "first command's",
                                json.dumps(scores(workload, out)),
                                ", pinned %s" % json.dumps(pinned["scores"]) if pinned else ""))
        layers = out.timings.get("layers")
        if layers and not _accounted(layers):
            found.append("span self times sum to %.6f s, traced cli.main took %.6f s"
                         % (layers["trace.self_sum_s"], layers["trace.main_s"]))
        if found:
            failed += 1
            print("FAILED %s command %d: %s" % (mode, attempted, "; ".join(found)))
        if "wall_s" in out.timings:
            samples[mode].append(out.timings)
        now = time.perf_counter()
        enough = (all(len(samples[m]) >= MIN_SAMPLES for m in modes)
                  or attempted >= 4 * MIN_SAMPLES)
        if now - start > HARD_LIMIT_S or (now >= deadline and enough):
            break
    runs = samples["run"]
    if not runs or (traced and not samples["trace"]):
        raise SystemExit("no command of this run reported its timings")

    wall = statistics.median(at_reference(s, "wall_s") for s in runs)
    setup = [s for s in setups if "setup_s" in s] + [s for m in modes for s in samples[m]]
    result = {
        "attempted": attempted, "failed": failed, "samples": len(runs),
        "setup_samples": len(setup), "pinned": pinned is not None,
        "raw": {
            "wall_s": statistics.median(s["wall_s"] for s in runs),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "calibration_s": statistics.median(c for s in setup for c in s["calibration_s"]),
        },
        "end_to_end": {
            "wall_s": wall,
            "sentences_per_s": meta["sentences"] / wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in runs),
            "setup_s": statistics.median(at_reference(s, "setup_s") for s in setup),
        },
    }
    if traced:
        traces = samples["trace"]
        layers = {name: statistics.median(s["layers"][name] for s in traces)
                  for name in [*PER_LAYER, "trace.self_sum_s"] if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traces)
                                      - result["raw"]["wall_s"])
        result["self_sum_s"] = layers.pop("trace.self_sum_s")
        result["per_layer"] = layers
        result["traced_samples"] = len(traces)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--sentences", type=int, default=SENTENCES,
                        help="corpus size (default %(default)s)")
    args = parser.parse_args(argv)

    if not ((ROOT / "src" / "primesrl" / "cli.py").is_file()
            and (ROOT / "tests" / "corpusgen.py").is_file()):
        print("run.py: %s is not a primesrl checkout (src/primesrl and tests/corpusgen.py "
              "are missing)" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import corpus

    start = time.perf_counter()
    corpus_dir, meta = corpus.ensure(CACHE, args.seed, args.sentences)
    print("workload %s on corpus %s: %d sentences, seed %d, ready in %.1f s"
          % (args.workload, _rel(corpus_dir), args.sentences, args.seed,
             time.perf_counter() - start))
    for side, props in meta["properties"].items():
        print("  %-12s %s" % (side, "  ".join("%s %s" % kv for kv in props.items())))

    result = measure(args.workload, corpus_dir, meta, args.seconds, bool(args.trace))
    print("fingerprint: %s" % ("pinned" if result["pinned"] else
                               "no pin for this seed and size; oracle checks only"))
    print("commands: %d run, %d wrong; wall_s is the median of %d, setup_s of %d interpreters"
          % (result["attempted"], result["failed"], result["samples"], result["setup_samples"]))
    raw = result["raw"]
    print("times at reference speed; raw medians: wall_s %.6f s, setup_s %.6f s; "
          "calibration %.6f s, reference %.3f s"
          % (raw["wall_s"], raw["setup_s"], raw["calibration_s"], REFERENCE_CALIBRATION_S))
    units = dict(END_TO_END, error_rate="ratio")
    shown = dict(result["end_to_end"], error_rate=result["failed"] / result["attempted"])
    metrics = END_TO_END
    if args.trace:
        units.update(PER_LAYER)
        shown.update(result["per_layer"])
        metrics = PER_LAYER
        print("traced commands: %d; median span self times plus tracer bookkeeping %.6f s, "
              "traced cli.main %.6f s, tracing overhead %.6f s"
              % (result["traced_samples"], result["self_sum_s"],
                 result["per_layer"]["trace.main_s"], result["per_layer"]["trace.overhead_s"]))
    for name, value in shown.items():
        print("  %-32s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
