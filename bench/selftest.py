"""Tests of the benchmark itself, each workload at tiny size.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from treelab import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, tmp_path: Path, seed: int = 3):
    rng = random.Random(seed)
    files = workloads.Files(tmp_path / "inputs")
    queries = workloads.WORKLOADS[name](rng, files, workloads.Samples(seed), tiny=True)
    probes = workloads.deep_spines(rng, files) if name == "bigtrees" else []
    return queries, probes


def printed(capsys, names_units) -> None:
    """Assert every (name, unit) appears on a printed metric line."""
    out = capsys.readouterr().out
    for name, unit in names_units:
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in out.splitlines()), name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_print_with_units(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    queries, probes = tiny(name, tmp_path)
    result = run.timed_run(cli, queries, probes, seconds=0)
    assert result["correct"] and result["failed"] == 0
    expected = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    printed(capsys, expected + [("failed_ratio", "ratio"), ("wrong_verdicts", "count")])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_print_with_units(name, tmp_path, capsys):
    queries, probes = tiny(name, tmp_path)
    result = run.traced_run(cli, queries, probes, tmp_path / "spans.jsonl")
    assert result["correct"] and result["failed"] == 0
    expected = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    printed(capsys, expected)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == dict(expected)
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(spans) == result["metrics"]["trace.spans"]["value"]
    assert {"name", "start", "end", "parent", "query", "error"} == set(spans[0])
    # wrappers are gone afterwards
    assert cli.main.__module__ == "treelab.cli" and not hasattr(cli.main, "__wrapped__")


def test_spec_lists_exactly_the_reported_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _, _ in tracing.METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_planted_wrong_verdict_is_counted(tmp_path):
    rng = random.Random(5)
    files = workloads.Files(tmp_path)
    dbta = gen.random_dbta(rng, 5)
    tree = gen.random_split_tree(rng, 300)
    ref = files.write("dbta", gen.dbta_text(dbta))
    right = workloads._membership("accepts", ref, dbta, tree)
    flipped = gen.TableDbta(dbta.alphabet, dbta.size, dbta.tables,
                            frozenset(range(dbta.size)) - dbta.accept)
    planted = workloads._membership("accepts", ref, flipped, tree)  # expects the opposite
    result = run.run_passes(cli, [right, planted], 0)
    assert (result.wrong, result.failed) == (1, 0)


def test_planted_recursion_error_counts_as_failed_and_infinite(tmp_path, monkeypatch):
    rng = random.Random(6)
    files = workloads.Files(tmp_path)
    dbta = gen.random_dbta(rng, 5)
    ref = files.write("dbta", gen.dbta_text(dbta))
    queries = [workloads._membership(kind, ref, dbta, gen.random_split_tree(rng, 50))
               for kind in ("accepts", "eval")]

    def overflow(algebra, tree):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "evaluate", overflow)  # `eval` calls it; `accepts` does not
    result = run.run_passes(cli, queries, 0)
    assert (result.attempted, result.failed, result.wrong) == (2, 1, 0)
    assert run.percentile(result.latencies, 0.9) == math.inf
    assert run.percentile(result.latencies, 0.5) < math.inf


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def inputs(directory: Path):
        queries, _ = tiny(name, directory, seed=11)
        return [q.argv for q in queries], sorted(
            p.read_text() for p in (directory / "inputs").iterdir()
        )

    first, second = inputs(tmp_path / "a"), inputs(tmp_path / "b")
    assert first[1] == second[1]
    assert [[a.replace(str(tmp_path / "a"), "") for a in argv] for argv in first[0]] == [
        [a.replace(str(tmp_path / "b"), "") for a in argv] for argv in second[0]
    ]
