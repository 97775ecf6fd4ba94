"""Pinned sha256 digests of replayed CLI outputs.

Replayed outputs must stay byte-identical across refactors and speed-ups.
The ``cycles.json`` and ``pairwise_report.json`` digests were taken before
the literal offset check and the shared cycle report went in, the unenforced
graph and DOT digests before the graph analyses stopped setting arc flags in
place. The others were taken when ``stats.json`` stopped repeating the cycle
list and the enforced graph's transitive flags began to describe that graph.
Any change to an output byte fails here. If an output format changes on
purpose, regenerate them with ``PYTHONPATH=src python tests/test_golden_outputs.py``
and say why in the change log.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from causaltext.cli import main
from causaltext.graph import Arc, CausalGraph, Entity, GraphKind, serialize_graph
from synth import benchmark_with_scripted_replies, pair_rule, pipeline_document

# 8 entities under pair_rule modulus 3: 19 arcs on 61 simple cycles, 4 arcs removed
CYCLIC_ENTITY_COUNT = 8

EXTRACT_DIGESTS = {
    "doc.graph.json": "2f0938f9a012b3f8d8e0d6f03402a271af713d1c5149e7d566743ced317cbb94",
    "doc.dot": "cc0a73a8e8a0c146f47a82cf803157e93e568a6c6c6fa670ae10a4c1fa070b9c",
    "doc.cycles.json": "aba13ab50bfe17c421c87af8eb38561a1e13c5df86a76d79c6262c7a1f4e78ad",
    "doc.stats.json": "cd33b591aa38a90d7ea697bb4bacbc7efdc37dec48ae69a7bd4a6c66f8c00d21",
}

# the same document without --enforce-acyclic: the only run that writes on-cycle flags
UNENFORCED_EXTRACT_DIGESTS = {
    "doc.graph.json": "fb095ef97815ff4650fb0d1ecca4b06b8a8a59b72ebad7c4014089cff6a4096a",
    "doc.dot": "1f937174140a5e040d859e67cf024bf67a01b95d90db1d324b669584c1d27e62",
    "doc.cycles.json": "aba13ab50bfe17c421c87af8eb38561a1e13c5df86a76d79c6262c7a1f4e78ad",
    "doc.stats.json": "995a26a45b1546a772073a9a547c358a44a697a8c832628e09d1f3acbf62dde6",
}

PAIRWISE_REPORT_DIGEST = "160379603cbfa52de1e7abb9e71c3e0e0fa20689109d2ddf139e83e414178095"

# eval-graph of the enforced doc.graph.json against the pairs the script answers Forward
GRAPH_COMPARISON_DIGEST = "06d96d74d2c32ad51a5a376067250da3481c06ae40056d3e74c3a1ec35719045"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def extract(workdir: Path, parallelism: int, enforce: bool = True) -> Path:
    """The output directory of a replayed ``extract`` of the cyclic document."""
    source_text, fixture = pipeline_document(CYCLIC_ENTITY_COUNT)
    fixture_path = workdir / "fixture.json"
    fixture.save(fixture_path)
    doc = workdir / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")
    label = f"{parallelism}{'e' if enforce else ''}"
    out = workdir / f"out{label}"
    result = CliRunner().invoke(
        main,
        [
            "extract", "--replay", str(fixture_path), *(["--enforce-acyclic"] if enforce else []),
            "--parallelism", str(parallelism), "--out", str(out), str(doc),
        ],
        env={"CAUSALTEXT_CACHE_DIR": str(workdir / f"cache{label}")},
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return out


def extract_digests(workdir: Path, parallelism: int, enforce: bool = True) -> dict[str, str]:
    out = extract(workdir, parallelism, enforce)
    return {path.name: _sha256(path) for path in sorted(out.iterdir())}


def graph_comparison_digest(workdir: Path) -> str:
    names = [f"factor{i:02d}" for i in range(CYCLIC_ENTITY_COUNT)]
    truth = CausalGraph(
        GraphKind.GROUND_TRUTH,
        [Entity(id=name, canonical_label=name) for name in names],
        [Arc(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))
         if pair_rule(i, j) == "A"],
    )
    truth_path = workdir / "truth.graph.json"
    truth_path.write_text(serialize_graph(truth), encoding="utf-8")
    run_path = extract(workdir, 1) / "doc.graph.json"
    out = workdir / "comparison"
    result = CliRunner().invoke(
        main, ["eval-graph", "--out", str(out), str(run_path), str(truth_path)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return _sha256(out / "graph_comparison.json")


def pairwise_report_digest(workdir: Path) -> str:
    semeval_text, fixture = benchmark_with_scripted_replies()
    semeval_path = workdir / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    fixture_path = workdir / "bench_fixture.json"
    fixture.save(fixture_path)
    out = workdir / "eval"
    result = CliRunner().invoke(
        main,
        ["eval-pairs", "--replay", str(fixture_path), "--out", str(out), str(semeval_path)],
        env={"CAUSALTEXT_CACHE_DIR": str(workdir / "eval_cache")},
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    return _sha256(out / "pairwise_report.json")


@pytest.mark.parametrize("parallelism", [1, 4])
def test_replayed_enforced_extract_outputs_match_pinned_digests(tmp_path, parallelism):
    assert extract_digests(tmp_path, parallelism) == EXTRACT_DIGESTS


@pytest.mark.parametrize("parallelism", [1, 4])
def test_replayed_unenforced_extract_outputs_match_pinned_digests(tmp_path, parallelism):
    assert extract_digests(tmp_path, parallelism, enforce=False) == UNENFORCED_EXTRACT_DIGESTS


def test_eval_pairs_report_matches_pinned_digest(tmp_path):
    assert pairwise_report_digest(tmp_path) == PAIRWISE_REPORT_DIGEST


def test_eval_graph_comparison_matches_pinned_digest(tmp_path):
    assert graph_comparison_digest(tmp_path) == GRAPH_COMPARISON_DIGEST


if __name__ == "__main__":
    # print fresh digests for the constants above
    with tempfile.TemporaryDirectory() as workdir:
        for enforce in (True, False):
            for parallelism in (1, 4):
                print("enforced" if enforce else "unenforced", parallelism,
                      extract_digests(Path(workdir), parallelism, enforce))
        print("eval-pairs", pairwise_report_digest(Path(workdir)))
    with tempfile.TemporaryDirectory() as workdir:
        print("eval-graph", graph_comparison_digest(Path(workdir)))
