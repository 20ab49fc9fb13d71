"""Exception types shared across the package."""

from contextlib import contextmanager


class FilterlabError(Exception):
    """Base class for all filterlab errors."""


class ValidationError(FilterlabError, ValueError):
    """Invalid input data: bad dimensions, broken invariants, malformed configs."""


class NumericalError(FilterlabError, RuntimeError):
    """Numerical failure: indefinite matrices, divergence, unstable recursions."""


class ConvergenceError(NumericalError):
    """A solver exhausted its doubling budget before reaching tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@contextmanager
def config_section(name: str):
    """Report a missing key or a malformed value met while parsing config
    section ``name`` as a ValidationError that names the section."""
    try:
        yield
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"{name} config is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} config is malformed: {exc}") from None


def config_integer(value, key: str) -> int:
    """A whole-number config value: 3 and 3.0 pass, 2.5, "3" and true do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"config {key!r} must be an integer, got {value!r}")
    return value


def config_object(data, known: tuple, where: str) -> dict:
    """``data`` when it is a JSON object whose keys are all in ``known``;
    otherwise a ValidationError that starts with ``where``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: config must be a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{where}: unknown config keys {unknown}; known: {known}")
    return data
