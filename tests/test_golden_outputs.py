"""Pinned sha256 digests of replayed CLI outputs.

Replayed outputs must stay byte-identical across refactors and speed-ups.
The enforced digests were taken from the CLI before the literal offset check
and the shared cycle report went in, the unenforced ones before the graph
analyses stopped setting arc flags in place; any change to an output byte
fails here. If an output format changes on purpose, regenerate them with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and say why in the
change log.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from causaltext.cli import main
from synth import benchmark_with_scripted_replies, pipeline_document

# 8 entities under pair_rule modulus 3: 19 arcs on 61 simple cycles, 4 arcs removed
CYCLIC_ENTITY_COUNT = 8

EXTRACT_DIGESTS = {
    "doc.graph.json": "a4b9e7578631b5cfcdaa4ae28693c910c65c8e1f9f64dbad40bbeed9bb15256c",
    "doc.dot": "a37e4f89bd7dad2cec3c34b21263f97af3b53fc57c43a17e8426adcd5012ab47",
    "doc.cycles.json": "aba13ab50bfe17c421c87af8eb38561a1e13c5df86a76d79c6262c7a1f4e78ad",
    "doc.stats.json": "5c3c3114af017436ff76bf5baea7dc21467d4f73c37bd2f956f78938595540d1",
}

# the same document without --enforce-acyclic: the only run that writes on-cycle flags
UNENFORCED_EXTRACT_DIGESTS = {
    "doc.graph.json": "fb095ef97815ff4650fb0d1ecca4b06b8a8a59b72ebad7c4014089cff6a4096a",
    "doc.dot": "1f937174140a5e040d859e67cf024bf67a01b95d90db1d324b669584c1d27e62",
    "doc.cycles.json": "aba13ab50bfe17c421c87af8eb38561a1e13c5df86a76d79c6262c7a1f4e78ad",
    "doc.stats.json": "27371702eab6045412449c1a952eaaf91a67dc1501c25cad40fd591e1ece998d",
}

PAIRWISE_REPORT_DIGEST = "160379603cbfa52de1e7abb9e71c3e0e0fa20689109d2ddf139e83e414178095"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def extract_digests(workdir: Path, parallelism: int, enforce: bool = True) -> dict[str, str]:
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
    return {path.name: _sha256(path) for path in sorted(out.iterdir())}


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


if __name__ == "__main__":
    # print fresh digests for the constants above
    with tempfile.TemporaryDirectory() as workdir:
        for enforce in (True, False):
            for parallelism in (1, 4):
                print("enforced" if enforce else "unenforced", parallelism,
                      extract_digests(Path(workdir), parallelism, enforce))
        print("eval-pairs", pairwise_report_digest(Path(workdir)))
