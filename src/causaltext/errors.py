"""Exception hierarchy shared by all causaltext modules."""

from __future__ import annotations


class CausalTextError(Exception):
    """Base class for every error raised by this package."""


# --- graph model ------------------------------------------------------------


class UnknownEntityError(CausalTextError):
    """An arc endpoint does not refer to any entity in the graph."""


class SelfLoopError(CausalTextError):
    """An arc connects an entity to itself."""


class OppositeArcConflictError(CausalTextError):
    """The reverse of an existing arc was added to an extracted graph.

    Each unordered pair is queried exactly once, so an opposite pair in an
    extracted graph signals a pipeline bug rather than a model answer.
    """


class CycleBudgetExceededError(CausalTextError):
    """Simple-cycle enumeration exceeded the configured cap."""


class GraphFileError(CausalTextError):
    """A structured graph file does not match the documented schema."""


# --- prompts ----------------------------------------------------------------


class EntityNotInTextError(CausalTextError):
    """No surface form of an entity occurs in the source text."""


class EmptyTextError(CausalTextError):
    """The source text is empty or whitespace only."""


class NoEntitiesFoundError(CausalTextError):
    """An entity-extraction reply contained no well-formed entity span."""


# --- gateway ----------------------------------------------------------------


class GatewayError(CausalTextError):
    """Base class for provider and fixture failures."""


class ProviderUnavailableError(GatewayError):
    """The provider kept failing transiently until retries were exhausted."""


class AuthError(GatewayError):
    """The provider rejected the credential. Never retried."""


class MalformedProviderResponseError(GatewayError):
    """The provider answered with something that is not a chat completion."""


class FixtureMissError(GatewayError):
    """A replay fixture has no entry for the prompt fingerprint."""


class DuplicateFingerprintError(GatewayError):
    """Two recorded exchanges share a fingerprint but disagree on the reply."""


class RunLockHeldError(GatewayError):
    """A run or ``cache clear`` was refused while another run holds the lock."""


# --- pipeline ---------------------------------------------------------------


class TooFewEntitiesError(CausalTextError):
    """Pair enumeration needs at least two entities."""


class PipelineStageError(CausalTextError):
    """A pipeline stage failed; reports how far the run got.

    ``run_pipeline`` raises it for a package error from any stage.
    ``completed_stage`` names the last stage that finished (``None`` when the
    first stage failed). ``partial`` carries the results gathered so far
    under ``entities``, ``questions``, ``verdicts`` and ``graph``; after a
    failing orientation query ``verdicts`` holds every verdict paid for.
    """

    def __init__(self, message: str, completed_stage: str | None, partial: dict):
        super().__init__(message)
        self.completed_stage = completed_stage
        self.partial = partial


# --- evaluation -------------------------------------------------------------


class ParseError(CausalTextError):
    """A benchmark file is malformed; carries the offending line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class EmptyEvaluationSetError(CausalTextError):
    """Evaluation was asked to grade zero records."""
