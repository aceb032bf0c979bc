"""Exception taxonomy, and the floors of the integer run parameters.

The CLI maps these onto its exit codes: ConfigError -> 1, DataError -> 2,
BackendError -> 3.
"""

from __future__ import annotations

# The least value of each integer run parameter; RunConfig holds the defaults.
INT_FLOORS = {"topk": 1, "max_depth": 0, "max_plan_size": 1, "max_iterations": 1,
              "char_budget": 1, "parallel": 1}


def below_floor(values: dict[str, int]) -> str | None:
    """The name of the first of values below its INT_FLOORS floor, or None."""
    return next((name for name, value in values.items() if value < INT_FLOORS[name]), None)


class ContregenError(Exception):
    """Base class for all engine errors."""


class ConfigError(ContregenError):
    """Invalid run configuration or command usage."""


class DataError(ContregenError):
    """Malformed or inconsistent input files."""


class MalformedRecordError(DataError):
    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")


class DuplicateIdError(DataError):
    def __init__(self, duplicate_id: str) -> None:
        super().__init__(f"duplicate id: {duplicate_id}")


class CacheCorruptionError(DataError):
    """A cache file failed to parse; never silently recomputed."""


class BackendError(ContregenError):
    """A retrieval or generation backend failed."""


class RetrieverUnavailableError(BackendError):
    """Remote retriever unreachable after retries; retryable, distinct from an empty result."""


class LlmBackendError(BackendError):
    """Remote generation endpoint failed after bounded retries."""


class ReplayMissError(BackendError):
    """Strict replay requested but the cache has no entry for a call."""


class FixtureMissError(ContregenError):
    """Scripted adapter has no fixture for a (role, key). Outside BackendError,
    since no backend failed; a run records it against its query like any other
    error."""


class TemplateRenderError(ContregenError):
    def __init__(self, role: str, slot: str) -> None:
        super().__init__(f"unfilled slot {{{slot}}} rendering template for role {role}")
