"""Operator command line.

Exit codes are a stable contract: 0 success, 1 validation findings,
2 input error, 3 provider error.

Every ``click.echo`` names its stream: without ``file=``, click caches the
current ``sys.stdout`` or ``sys.stderr`` for good, which would keep each
stream an in-process caller swaps in (and all its output) alive.
"""
from __future__ import annotations

import contextlib
import functools
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import click

from .errors import FallacyLabError, ProviderError
from .gateway import (
    Gateway,
    HttpProvider,
    Provider,
    ProviderConfig,
    RecordingProvider,
    ReplayProvider,
)
from .jsonl import read_input
from .kb import KnowledgeBase
from .labels import parse_code
from .metrics import build_report, load_benchmark, load_predictions
from .parser import parse_statements
from .pipeline import (
    generate_bundle,
    judge_benchmark,
    load_sentences,
    score_sentences,
    write_bundle,
    write_report,
    write_scores,
)
from .schemas import derive_instances, ordering_diagnostic, validate_kb_against_schema
from .seeds import load_seed

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_PROVIDER = 3

log = logging.getLogger(__name__)


#: The provider modes a run may use.
MODES = ("live", "replay", "record")


@dataclass
class RunConfig:
    generator: ProviderConfig = field(default_factory=ProviderConfig)
    evaluator: ProviderConfig = field(default_factory=ProviderConfig)
    mode: str = "replay"  # live | replay | record
    cassette: str | None = None
    batch_size: int = 20
    #: Items of ``score`` and ``eval`` sent at once in live and record mode;
    #: the config key is ``evaluator.parallelism``.
    parallelism: int = 1
    #: Fact generation and sentence transformation; scoring and judging
    #: always run at temperature 0.
    generation_temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "replay" and not self.cassette:
            raise ValueError("replay mode requires a cassette path")
        if self.mode == "record" and not self.cassette:
            raise ValueError("record mode requires a cassette path to write")


#: Every key a config file may set.
CONFIG_KEYS = frozenset(
    [
        f"{role}.{name}"
        for role in ("generator", "evaluator")
        for name in ("endpoint", "model", "max_retries", "credentials_env")
    ]
    + ["evaluator.parallelism", "generator.temperature", "mode", "cassette", "batch_size"]
)


def parse_config(
    path: str | Path | None,
    *,
    mode: str | None = None,
    cassette: str | None = None,
) -> RunConfig:
    """Read the simple ``key = value`` config format.  A key outside
    ``CONFIG_KEYS``, or a bad value the file sets, is a ValueError naming
    its line.

    ``mode`` and ``cassette`` arguments override the file's values, so
    command-line flags win; validation runs on the final combination.
    """
    values: dict[str, str] = {}
    #: The line that set each key's value.
    lines: dict[str, int] = {}
    if path is not None:
        for line_no, line in enumerate(read_input(path).splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()
            lines[key] = line_no

    def where(key: str) -> str:
        return f"{path}:{lines[key]}: " if key in lines else ""

    def number(key: str, default: str, kind: type, valid, expected: str):
        text = values.get(key, default)
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise ValueError(f"{where(key)}{key} must be {expected}, got {text!r}")
        return value

    def provider(prefix: str) -> ProviderConfig:
        return ProviderConfig(
            endpoint=values.get(f"{prefix}.endpoint", ""),
            model_name=values.get(f"{prefix}.model", "unspecified"),
            max_retries=number(
                f"{prefix}.max_retries", "3", int, lambda n: n >= 0,
                "a non-negative integer",
            ),
            credentials_env=values.get(f"{prefix}.credentials_env") or None,
        )

    if mode is None and values.get("mode", "replay") not in MODES:
        raise ValueError(f"{where('mode')}unknown mode {values['mode']!r}")
    return RunConfig(
        generator=provider("generator"),
        parallelism=number(
            "evaluator.parallelism", "1", int, lambda n: n > 0, "a positive integer"
        ),
        evaluator=provider("evaluator"),
        mode=mode or values.get("mode", "replay"),
        cassette=cassette or values.get("cassette") or None,
        batch_size=number("batch_size", "20", int, lambda n: n > 0, "a positive integer"),
        generation_temperature=number(
            "generator.temperature", "1.0", float, lambda t: 0.0 <= t <= 2.0,
            "a number within [0, 2]",
        ),
    )


@contextlib.contextmanager
def _provider(run: RunConfig, which: str) -> Iterator[Provider]:
    """The command's provider.  A recording's cassette is saved when the
    block succeeds; a live provider's connections are closed when the block
    ends, either way.  A replayed cassette is read to its end and checked
    when the block ends, also before an exception from it propagates, so a
    bad line or byte anywhere in the file is the error reported, as when
    the file is read first; it is closed on every path."""
    provider_cfg = run.generator if which == "generator" else run.evaluator
    if run.mode == "replay":
        replay = ReplayProvider(run.cassette, model_name=provider_cfg.model_name)
        try:
            yield replay
        except Exception:
            replay.finish()
            raise
        else:
            replay.finish()
        finally:
            replay.close()
        return
    live = HttpProvider(provider_cfg)
    try:
        if run.mode == "record":
            recorder = RecordingProvider(live, run.cassette)
            yield recorder
            recorder.save()
        else:
            yield live
    finally:
        live.close()


def _parallelism(run: RunConfig) -> int:
    """Items sent at once: replay has no upstream to wait on, so it runs one
    item at a time whatever ``evaluator.parallelism`` says."""
    return 1 if run.mode == "replay" else run.parallelism


def _resolve_run(config, mode, cassette) -> RunConfig:
    return parse_config(
        config, mode=mode, cassette=str(cassette) if cassette else None
    )


def _exit_codes(body):
    """Map a command's errors to the exit-code contract: a provider failure
    exits 3, any other package error or a bad input or output path exits 2.
    An AssertionError (a failed soundness recheck) is a bug and propagates."""

    @functools.wraps(body)
    def wrapper(*args, **kwargs):
        try:
            return body(*args, **kwargs)
        except ProviderError as exc:
            code, message = EXIT_PROVIDER, str(exc)
        except (FallacyLabError, ValueError, OSError) as exc:
            code, message = EXIT_INPUT, str(exc)
        click.echo(f"error: {message}", file=sys.stderr)
        sys.exit(code)

    return wrapper


def _code_option():
    return click.option(
        "--code",
        "code_text",
        required=True,
        help="Fallacy code (AF, FC, ...), alias, or full name.",
    )


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is when a record is emitted, so the
    root handler keeps no stream that an in-process caller swapped in."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


@click.group()
@click.option("--verbose", is_flag=True, help="Log at INFO level.")
def main(verbose: bool) -> None:
    """Generate fallacious test sentences via the logic oracle and evaluate
    model predictions."""
    logging.basicConfig(
        handlers=[_StderrHandler()], format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger().setLevel(logging.INFO if verbose else logging.WARNING)


@main.command()
@click.option("--kb", "kb_path", required=True, type=click.Path(exists=True))
@_code_option()
@_exit_codes
def validate(kb_path: str, code_text: str) -> None:
    """Check a fact file against a schema's predicate signatures."""
    code = parse_code(code_text)
    statements = [item for item, _, _, _ in parse_statements(read_input(kb_path))]
    report = validate_kb_against_schema(code, statements)
    click.echo(report.render(), file=sys.stdout)
    sys.exit(EXIT_OK if report.clean else EXIT_FINDINGS)


@main.command()
@_code_option()
@click.option("--kb", "kb_path", type=click.Path(exists=True), default=None)
@_exit_codes
def derive(code_text: str, kb_path: str | None) -> None:
    """Print derived fallacy tuples, one per line in canonical syntax."""
    code = parse_code(code_text)
    kb = KnowledgeBase.from_text(read_input(kb_path)) if kb_path else load_seed(code)
    tuples = derive_instances(code, kb)
    note = ordering_diagnostic(code, kb, tuples)
    click.echo("".join(f"{t.render()}\n" for t in tuples), file=sys.stdout, nl=False)
    if note:
        click.echo(f"diagnostic: {note}", file=sys.stderr)
    sys.exit(EXIT_OK)


@main.command()
@_code_option()
@click.option("--n", default=None, type=int, help="Fact combinations to request.")
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--cassette", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def generate(code_text, n, mode, cassette, config_path, out_dir) -> None:
    """Run the full generation loop for one code and write its artifacts."""
    code = parse_code(code_text)
    run = _resolve_run(config_path, mode, cassette)
    with _provider(run, "generator") as provider:
        gateway = Gateway(provider, generation_temperature=run.generation_temperature)
        bundle = generate_bundle(code, n if n is not None else run.batch_size, gateway)
    paths = write_bundle(bundle, out_dir)
    for note in bundle.diagnostics:
        click.echo(f"diagnostic: {note}", file=sys.stderr)
    for path in paths:
        click.echo(str(path), file=sys.stdout)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--sentences", "sentences_path", required=True, type=click.Path(exists=True))
@click.option("--method-tag", default="generated", show_default=True)
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--cassette", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def score(sentences_path, method_tag, mode, cassette, config_path, out_dir) -> None:
    """Triple-score labeled sentences and summarize per-code means."""
    if (not method_tag or not method_tag.isprintable()
            or method_tag.strip(" ") != method_tag or "  " in method_tag):
        # The summary table separates its columns by two spaces, a row per line.
        raise ValueError(
            f"--method-tag {method_tag!r} must be printable text with no leading, "
            "trailing or repeated space"
        )
    rows = load_sentences(sentences_path)
    run = _resolve_run(config_path, mode, cassette)
    with _provider(run, "evaluator") as provider:
        scored = score_sentences(rows, Gateway(provider), _parallelism(run))
    paths = write_scores(scored, method_tag, out_dir)
    for path in paths:
        click.echo(str(path), file=sys.stdout)
    sys.exit(EXIT_OK)


@main.command(name="eval")
@click.option("--benchmark", "benchmark_path", required=True, type=click.Path(exists=True))
@click.option(
    "--predictions",
    "predictions_path",
    type=click.Path(exists=True),
    default=None,
    help="Pre-computed predictions; omit to judge via the provider.",
)
@click.option("--mode", type=click.Choice(MODES), default=None)
@click.option("--cassette", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@_exit_codes
def eval_cmd(benchmark_path, predictions_path, mode, cassette, config_path, out_dir) -> None:
    """Compute detection and categorization metrics for a benchmark."""
    entries = load_benchmark(benchmark_path)
    if predictions_path:
        preds = load_predictions(predictions_path)
    else:
        run = _resolve_run(config_path, mode, cassette)
        with _provider(run, "evaluator") as provider:
            preds = judge_benchmark(entries, Gateway(provider), _parallelism(run))
    report = build_report(entries, preds)
    paths = write_report(report, preds, out_dir)
    for path in paths:
        click.echo(str(path), file=sys.stdout)
    click.echo(report.to_text(), file=sys.stdout, nl=False)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
