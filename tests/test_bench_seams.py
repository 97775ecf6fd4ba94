"""The benchmark's seams still fit the package.

``perfbench/probes.py`` replaces module-level names of ``cli``, ``pipeline``
and ``evaluation`` with wrappers. Renaming one of them, or binding it where
the probe cannot reach it, breaks only the benchmark; this test catches that
in the ordinary test run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from click.testing import CliRunner

from causaltext import cli, evaluation, pipeline
from synth import benchmark_with_scripted_replies, pipeline_document

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_probe_runs_a_replayed_extract_and_restores_every_name(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import spans

    modules = (cli, pipeline, evaluation)
    before = {module: dict(vars(module)) for module in modules}

    def settings_hook(settings):
        # what the live workload does to compress backoff time
        provider = dataclasses.replace(settings.provider, backoff_base=0.0)
        return dataclasses.replace(settings, provider=provider)

    source_text, fixture = pipeline_document(6)
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    doc = tmp_path / "doc.txt"
    doc.write_text(source_text, encoding="utf-8")

    tracer = spans.Tracer()
    probe = probes.Probe(tracer, settings_hook=settings_hook).install()
    patched = [(module, name) for module, name, _ in probe._saved]
    try:
        result = CliRunner().invoke(
            cli.main,
            ["extract", "--replay", str(fixture_path), "--enforce-acyclic",
             "--out", str(tmp_path / "out"), str(doc)],
            env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / "cache")},
            catch_exceptions=False,
        )
    finally:
        probe.uninstall()

    assert result.exit_code == 0, result.output
    # C(6, 2) orientation queries plus the entity query, all seen by the probe
    assert probe.counters.calls == 16
    assert probe.counters.sends == 16
    # every extract-side seam was reached through the patched name
    expected = {
        span_name
        for module, name, span_name, _ in probes._SPANNED
        if module is not evaluation and "eval" not in name
    }
    assert expected <= {span.name for span in tracer.spans}
    assert {module for module, _ in patched} == set(modules)
    for module, name in patched:
        assert getattr(module, name) is before[module][name], f"{module.__name__}.{name}"


def test_probe_runs_a_replayed_eval_pairs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes
    import spans

    semeval_text, fixture = benchmark_with_scripted_replies()
    fixture_path = tmp_path / "fixture.json"
    fixture.save(fixture_path)
    semeval_path = tmp_path / "bench.txt"
    semeval_path.write_text(semeval_text, encoding="utf-8")
    causal = [
        r for r in evaluation.parse_semeval(semeval_text) if r.causal_orientation is not None
    ]

    tracer = spans.Tracer()
    probe = probes.Probe(tracer).install()
    try:
        result = CliRunner().invoke(
            cli.main,
            ["eval-pairs", "--replay", str(fixture_path), "--out", str(tmp_path / "out"),
             str(semeval_path)],
            env={"CAUSALTEXT_CACHE_DIR": str(tmp_path / "cache")},
            catch_exceptions=False,
        )
    finally:
        probe.uninstall()

    assert result.exit_code == 0, result.output
    names = {span.name for span in tracer.spans}
    assert {
        "evaluation.run_pairwise_eval",
        "evaluation.parse_semeval",
        "prompts.question",
        "evaluation.ask",
    } <= names
    assert len(probe.record_seconds) == len(causal)
