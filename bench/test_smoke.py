"""Smoke test of the benchmark on a tiny corpus.

    python3 -m pytest bench/test_smoke.py

For every workload, with tracing off and on, a run must print every metric
of BENCHMARK.json by name with its unit, both on a line for people and in
the final JSON line, and report no wrong command. Outside a checkout the
benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seed", "1", "--seconds", "1", "--sentences", "40"]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    assert "fingerprint: pinned" in human

    metrics = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in metrics)
    printed = {line.split()[0]: line.split()[-1] for line in human if line.startswith("  ")}
    for metric in metrics + [{"name": "error_rate", "unit": "ratio"}]:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
        if metric["name"] != "error_rate":
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = _bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--trace", "0", *TINY)
    assert proc.returncode != 0
    assert proc.stdout == ""
