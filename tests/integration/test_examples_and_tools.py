"""Integration tests: the runnable examples and repo tools."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


def run_script(*args: str, timeout: int = 300) -> str:
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart_small(self):
        out = run_script("examples/quickstart.py", "64")
        assert "odd-even" in out
        assert "greedy" in out
        assert "certified run" in out and "OK" in out

    def test_quickstart_ordering(self):
        out = run_script("examples/quickstart.py", "64")
        # greedy's buffer exceeds odd-even's by an order of magnitude
        lines = {l.split(":")[0].strip(): l for l in out.splitlines()
                 if "max buffer" in l}
        greedy = int(lines["greedy"].split("=")[1].split("(")[0])
        oddeven = int(lines["odd-even"].split("=")[1].split("(")[0])
        assert greedy > 5 * oddeven


class TestExperimentsMdGenerator:
    def test_generates_markdown(self, tmp_path):
        record = {
            "experiment_id": "E1",
            "title": "t",
            "paper_claim": "c",
            "headers": ["a"],
            "rows": [[1.5]],
            "passed": True,
            "preset": "full",
            "notes": ["note-1"],
            "artifacts": {},
            "params": {},
        }
        (tmp_path / "e1.json").write_text(json.dumps(record))
        out = run_script("tools/generate_experiments_md.py", str(tmp_path))
        assert "# EXPERIMENTS" in out
        assert "## E1 — t [PASS]" in out
        assert "| 1.5 |" in out
        assert "- note-1" in out
        assert "1/1 experiments pass" in out


class TestEngineAB:
    def test_one_round_on_the_same_tree(self):
        out = run_script(
            "tools/engine_ab.py", "src", "src", "--rounds", "1",
            timeout=600,
        )
        rows = {line.split()[0]: line.split() for line in out.splitlines()}
        for metric in ("engine.per_step_sps", "engine.batched_sps",
                       "tree.tree_engine_sps", "dag.dag_sps",
                       "fleet.fleet_sps"):
            ratio = float(rows[metric][1])
            assert 0 < ratio < 100, rows[metric]
            assert rows[metric][-1] in ("0/1", "1/1")

    def test_service_queries_on_the_same_tree(self):
        out = run_script(
            "tools/engine_ab.py", "src", "src", "--service", "6",
            "--seed", "1", timeout=600,
        )
        words = out.split()
        assert words[0] == "old" and words[3] == "new"
        assert words[6] == "new/old" and float(words[7]) > 0
        # both sides' time per class; every query falls in one class of
        # each kind
        rows = [line.split() for line in out.splitlines()[2:]]
        for kind in (("finite", "unbounded"), ("adversary",), ("topology",)):
            counts = [int(r[-4]) for r in rows if r[0] in kind]
            assert sum(counts) == 6, (kind, out)
