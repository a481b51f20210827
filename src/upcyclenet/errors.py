"""Exception hierarchy shared across the package."""

from pathlib import Path


class UpcycleNetError(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(UpcycleNetError):
    """Malformed or internally inconsistent instance document."""


class ModelError(UpcycleNetError):
    """Canonical MILP cannot be assembled from the given instance."""


class NamingError(ModelError):
    """Column/row naming would not be bijective (id pathology)."""


class SolutionError(UpcycleNetError):
    """Solution file cannot be parsed against the given model."""


class SolverRunError(UpcycleNetError):
    """External solver subprocess could not be launched."""


class OracleError(UpcycleNetError):
    """Exact oracle failed (limits exceeded or numerical abort)."""


class SimplexIterationError(OracleError):
    """Simplex hit the iteration cap; result must not be trusted."""


class ReportError(UpcycleNetError):
    """Report components do not reconcile with the solution objective."""


def read_text(path: str | Path, error: type[UpcycleNetError]) -> str:
    """The UTF-8 text of the file at `path`; other bytes raise `error`."""
    try:
        return Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None
