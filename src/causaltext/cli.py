"""Command-line front door: extraction, evaluation and cache maintenance.

Configuration precedence is flags > environment (CAUSALTEXT_*) > config file
(JSON) > built-in defaults. Exit codes: 0 full success, 1 configuration
error, 2 partial batch failure (some documents failed, the rest completed).
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import click

from .errors import CausalTextError
from .evaluation import (
    parse_semeval,
    render_confusion_table,
    run_pairwise_eval,
)
from .gateway import (
    Gateway,
    LiveTransport,
    ProviderConfig,
    ReplayFixture,
    ReplayTransport,
    _write_atomically,
    cache_stats,
    clear_cache,
    run_lock,
)
from .graph import (
    GraphFormat,
    GraphKind,
    _encodable,
    _json_text,
    compare_graphs,
    parse_graph,
    serialize_graph,
)
from .pipeline import PipelineConfig, run_pipeline, run_report

ENV_PREFIX = "CAUSALTEXT"


@dataclass
class Settings:
    provider: ProviderConfig
    pipeline: PipelineConfig
    replay_path: str | None
    record_path: str | None
    domain_hint: str = ""
    out_dir: Path = Path(".")

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)


# config key -> (JSON type, config class, field)
_KEYS = {
    "model": (str, ProviderConfig, "model_name"),
    "endpoint": (str, ProviderConfig, "endpoint_url"),
    "temperature": (float, ProviderConfig, "temperature"),
    "parallelism": (int, ProviderConfig, "parallelism"),
    "max_retries": (int, ProviderConfig, "max_retries"),
    "requests_per_minute": (float, ProviderConfig, "requests_per_minute"),
    "cache_dir": (str, ProviderConfig, "cache_dir"),
    "api_key_env": (str, ProviderConfig, "api_key_env"),
    "entity_cap": (int, PipelineConfig, "entity_cap"),
    "enforce_acyclic": (bool, PipelineConfig, "enforce_acyclic"),
    "domain_hint": (str, Settings, "domain_hint"),
    "out": (str, Settings, "out_dir"),
}
# text settings hashed into prompts and cache keys or sent to the provider
_SENT_TEXT = ("model", "endpoint", "domain_hint")
# text settings handed to the operating system: an environment-variable name and paths
_OS_TEXT = ("api_key_env", "cache_dir", "out")
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_ENV_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


class ConfigurationError(CausalTextError):
    pass


def _file_value(name: str, value: object):
    """``value`` as its key's type; its JSON type must match, and a bool is no number."""
    kind = _KEYS[name][0]
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (kind is not bool and isinstance(value, bool)):
        raise ConfigurationError(
            f"config key {name!r} must be {_JSON_TYPES[kind]}, not {json.dumps(value)}"
        )
    try:
        return kind(value)
    except OverflowError:
        raise ConfigurationError(f"config key {name!r} is too large for a float") from None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = payload.keys() - _KEYS.keys()
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return {name: _file_value(name, value) for name, value in payload.items()}


def _setting(name, flag_value, file_config):
    """Apply the flags > environment > file precedence; None when none is set.

    A ``False`` flag is a switch left off, so it is unset too.
    """
    if flag_value is not None and flag_value is not False:
        return flag_value
    variable = f"{ENV_PREFIX}_{name.upper()}"
    env_value = os.environ.get(variable)
    if env_value is None:
        return file_config.get(name)
    kind = _KEYS[name][0]
    if kind is not bool:
        try:
            return kind(env_value)
        except ValueError:
            raise ConfigurationError(
                f"{variable} must be {_JSON_TYPES[kind]}, not {env_value!r}"
            ) from None
    word = env_value.strip().lower()
    if word not in _ENV_BOOLEANS:
        raise ConfigurationError(
            f"{variable} must be one of {', '.join(_ENV_BOOLEANS)}, not {env_value!r}"
        )
    return _ENV_BOOLEANS[word]


def _resolve_settings(config_path=None, replay=None, record=None, **flags) -> Settings:
    """Settings from the flags (named by their config keys), environment and file."""
    if flags.keys() - _KEYS.keys():
        raise TypeError(f"unknown settings: {sorted(flags.keys() - _KEYS.keys())}")
    if replay and record:
        raise ConfigurationError("--replay and --record are mutually exclusive")
    file_config = _load_config_file(config_path)
    fields: dict = {ProviderConfig: {}, PipelineConfig: {}, Settings: {}}
    try:
        for name, (_, owner, field_name) in _KEYS.items():
            value = _setting(name, flags.get(name), file_config)
            if value is None:
                continue
            if name in _SENT_TEXT and not _encodable(value):
                raise ConfigurationError(f"setting {name!r} is not valid UTF-8 text: {value!r}")
            if name in _OS_TEXT:
                try:
                    os.fsencode(value)  # surrogate escapes of undecodable bytes pass
                except UnicodeEncodeError:
                    raise ConfigurationError(
                        f"setting {name!r} cannot be encoded for the operating system: {value!r}"
                    ) from None
            fields[owner][field_name] = value
        provider = ProviderConfig(**fields[ProviderConfig])
        pipeline = PipelineConfig(**fields[PipelineConfig])
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    return Settings(provider, pipeline, replay, record, **fields[Settings])


@contextmanager
def _run_session(settings: Settings) -> Iterator[Gateway]:
    """The gateway of one ``extract`` or ``eval-pairs`` run, under the run lock.

    The replay fixture is loaded, and a record path whose directory does not
    exist refused, before the lock is taken and before any query. The record
    fixture is saved, and the cache store closed, inside the lock, however the
    run ends, so a refused run never touches the record file and a failed one
    keeps what it paid for.
    """
    record = None
    if settings.record_path:
        record_dir = Path(settings.record_path).parent
        if not record_dir.is_dir():
            raise ConfigurationError(
                f"cannot record to {settings.record_path}: {record_dir} is not a directory"
            )
        record = ReplayFixture()
    if settings.replay_path:
        transport = ReplayTransport(ReplayFixture.load(settings.replay_path))
    else:
        transport = LiveTransport(settings.provider)
    with run_lock(settings.provider.cache_dir), \
            Gateway(settings.provider, transport, record) as gateway:
        try:
            yield gateway
        finally:
            if record is not None:
                record.save(settings.record_path)


# Each command declares only the options it reads, by their parameter names.
_OPTIONS = {
    "config_path": click.option("--config", "config_path", type=click.Path(),
                                default=None, help="JSON config file."),
    "replay": click.option("--replay", type=click.Path(), default=None,
                           help="Answer prompts from this fixture instead of the provider."),
    "record": click.option("--record", type=click.Path(), default=None,
                           help="Record every exchange the run uses into this fixture file."),
    "model": click.option("--model", default=None, help="Provider model name."),
    "parallelism": click.option("--parallelism", type=int, default=None,
                                help="Concurrent orientation queries."),
    "entity_cap": click.option("--entity-cap", type=int, default=None,
                               help="Maximum entities kept per document."),
    "enforce_acyclic": click.option("--enforce-acyclic", is_flag=True, default=False,
                                    help="Remove arcs until the extracted graph is acyclic."),
    "out": click.option("--out", default=None, help="Output directory."),
    "domain_hint": click.option("--domain-hint", default=None,
                                help="Entity categories to emphasise during extraction."),
}


def _options(*names: str):
    def decorate(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn

    return decorate


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def _write(path: Path, text: str) -> None:
    """Write ``text`` atomically to ``path``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomically(path, text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None


def _write_json(path: Path, payload: object) -> None:
    _write(path, _json_text(payload))


def _fail(message: str, code: int = 1) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Extract causal graphs from text and reproduce the benchmark metrics."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")


@main.command()
@_options(*_OPTIONS)
@click.argument("inputs", nargs=-1, required=True, type=click.Path())
def extract(inputs, **options) -> None:
    """Run the extraction pipeline over one document per input file."""
    failures = 0
    try:
        settings = _resolve_settings(**options)
        missing = [path for path in inputs if not Path(path).is_file()]
        if missing:
            raise ConfigurationError(f"input not readable: {missing[0]}")
        # Outputs are named by stem, so two inputs with one stem would overwrite.
        stems: dict[str, str] = {}
        for path in inputs:
            stem = Path(path).stem
            if stem in stems:
                raise ConfigurationError(f"inputs {stems[stem]} and {path} share a stem")
            stems[stem] = path
        out = settings.out_dir
        with _run_session(settings) as gateway:
            for stem, path in stems.items():
                try:
                    run = run_pipeline(
                        _read_input(path), settings.domain_hint, settings.pipeline, gateway
                    )
                    _write(out / f"{stem}.graph.json",
                           serialize_graph(run.graph, GraphFormat.STRUCTURED))
                    _write(out / f"{stem}.dot", serialize_graph(run.graph, GraphFormat.DOT))
                    _write_json(out / f"{stem}.cycles.json", run.cycle_report.to_dict())
                    _write_json(out / f"{stem}.stats.json", run_report(run))
                except CausalTextError as exc:
                    failures += 1
                    click.echo(f"error: {path}: {exc}", err=True)
                    continue
                click.echo(f"{path}: {len(run.entities)} entities, "
                           f"{len(run.graph.arcs)} arcs")
    except CausalTextError as exc:  # each document's own errors are caught above
        _fail(str(exc))

    if failures:
        sys.exit(2)


@main.command("eval-pairs")
@_options("config_path", "replay", "record", "model", "parallelism", "out")
@click.argument("semeval_path", type=click.Path())
def eval_pairs(semeval_path, **options) -> None:
    """Evaluate pairwise orientation over a tagged-sentence benchmark file."""
    try:
        settings = _resolve_settings(**options)
        records = parse_semeval(_read_input(semeval_path))
        with _run_session(settings) as gateway:
            report = run_pairwise_eval(records, gateway)
        _write_json(settings.out_dir / "pairwise_report.json", report.to_dict())
    except CausalTextError as exc:
        _fail(str(exc))

    click.echo(f"grid: {[list(row) for row in report.confusion.grid]}")
    click.echo(render_confusion_table(report.confusion))
    click.echo(f"macro_f1: {float(report.macro_f1):.6f}")
    click.echo(f"micro_accuracy: {float(report.micro_accuracy):.6f}")


@main.command("eval-graph")
@_options("config_path", "out")
@click.argument("run_path", type=click.Path())
@click.argument("truth_path", type=click.Path())
def eval_graph(run_path, truth_path, **options) -> None:
    """Compare an extracted graph file against a ground-truth graph file."""
    try:
        settings = _resolve_settings(**options)
        extracted = parse_graph(_read_input(run_path), GraphKind.EXTRACTED)
        truth = parse_graph(_read_input(truth_path), GraphKind.GROUND_TRUTH)
        comparison = compare_graphs(extracted, truth)
        _write_json(settings.out_dir / "graph_comparison.json", comparison.to_dict())
    except CausalTextError as exc:
        _fail(str(exc))
    share = comparison.transitive_fp_share
    click.echo(f"precision: {float(comparison.precision):.6f}")
    click.echo(f"recall: {float(comparison.recall):.6f}")
    click.echo(f"f1: {float(comparison.f1):.6f}")
    click.echo(
        "transitive_fp_share: "
        + ("undefined" if share is None else f"{float(share):.6f}")
    )


@main.command()
@_options("config_path")
@click.argument("action", type=click.Choice(["stats", "clear"]))
def cache(action, **options) -> None:
    """Inspect or clear the response cache."""
    try:
        cache_dir = _resolve_settings(**options).provider.cache_dir
        if action == "stats":
            count, size = cache_stats(cache_dir)
            lines = [f"entries: {count}", f"bytes: {size}"]
        else:
            lines = [f"removed: {clear_cache(cache_dir)}"]
    except CausalTextError as exc:
        _fail(str(exc))
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
