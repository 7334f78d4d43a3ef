"""Argument validation helpers with uniform error messages.

Every public entry point in :mod:`repro` validates its numeric
parameters through these helpers so error messages are consistent and
the validation logic is tested once.  :class:`Domain` packages one
such check with the matching command-line parser, so a keyword and the
flag that feeds it share one statement of what is in range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Tuple, Union

Number = Union[int, float]

__all__ = [
    "BOOLEAN",
    "Domain",
    "FRACTION",
    "NON_NEGATIVE",
    "POSITIVE",
    "PROBABILITY",
    "at_least",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_in_range",
    "integer",
    "one_of",
    "optional",
]


def _check_finite_number(value: Number, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_positive(value: Number, name: str) -> float:
    """Require ``value > 0``; return it as float."""
    v = _check_finite_number(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_non_negative(value: Number, name: str) -> float:
    """Require ``value >= 0``; return it as float."""
    v = _check_finite_number(value, name)
    if v < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_probability(value: Number, name: str) -> float:
    """Require ``0 <= value <= 1``; return it as float."""
    v = _check_finite_number(value, name)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return v


def check_fraction(value: Number, name: str) -> float:
    """Require ``0 < value < 1``; return it as float.

    Used for quantities like the damping factor alpha where the theory
    (spectral radius < 1) breaks at the boundary.
    """
    v = _check_finite_number(value, name)
    if not 0.0 < v < 1.0:
        raise ValueError(f"{name} must be strictly inside (0, 1), got {value!r}")
    return v


def check_in_range(value: Number, name: str, lo: Number, hi: Number) -> float:
    """Require ``lo <= value <= hi``; return it as float."""
    v = _check_finite_number(value, name)
    if not float(lo) <= v <= float(hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")
    return v


@dataclass(frozen=True)
class Domain:
    """The set of values one parameter accepts.

    One object serves both of a parameter's entry points:
    :attr:`check` validates a Python value and :meth:`parse` turns a
    command-line string into a checked value, so a keyword and the
    flag that feeds it cannot disagree about what is in range.

    Attributes
    ----------
    text:
        The set in words ("integer >= 1", "in [0, 1]"), for docs.
    check:
        ``check(value, name)`` raises ``ValueError`` naming the
        parameter when ``value`` is outside the set (``TypeError``
        when a real-valued domain is handed a non-number).
    cast:
        String → value conversion :meth:`parse` applies first; None
        for domains with no one-string spelling (arrays, sequences,
        booleans — the latter are switches, not valued options).
    choices:
        The allowed names of an enumerated domain, else None.
    """

    text: str
    check: Callable[[Any, str], Any]
    cast: Optional[Callable[[str], Any]] = None
    choices: Optional[Tuple[str, ...]] = None

    def parse(self, text: str, name: str) -> Any:
        """Convert a command-line string and check the result."""
        value = self.cast(text)
        self.check(value, name)
        return value


def one_of(names: Iterable[str]) -> Domain:
    """Enumerated domain: exactly the given names."""
    names = tuple(names)

    def check(value: Any, name: str) -> None:
        if value not in names:
            raise ValueError(f"{name} must be one of {names}, got {value!r}")

    return Domain("one of " + ", ".join(names), check, str, names)


def integer(lo: Optional[int] = None) -> Domain:
    """Integers (Python or numpy, never bool), optionally ``>= lo``."""
    text = "integer" if lo is None else f"integer >= {lo}"

    def check(value: Any, name: str) -> None:
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or (lo is not None and value < lo)
        ):
            raise ValueError(f"{name} must be an {text}, got {value!r}")

    return Domain(text, check, int)


def at_least(lo: Number) -> Domain:
    """Finite reals ``>= lo``."""

    def check(value: Number, name: str) -> None:
        if _check_finite_number(value, name) < lo:
            raise ValueError(f"{name} must be >= {lo}, got {value!r}")

    return Domain(f">= {lo}", check, float)


def optional(domain: Domain) -> Domain:
    """``None`` (meaning "derive it") or a value of ``domain``."""

    def check(value: Any, name: str) -> None:
        if value is not None:
            domain.check(value, name)

    return Domain(f"None or {domain.text}", check, domain.cast, domain.choices)


def _check_bool(value: Any, name: str) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be True or False, got {value!r}")


POSITIVE = Domain("> 0", check_positive, float)
NON_NEGATIVE = Domain(">= 0", check_non_negative, float)
PROBABILITY = Domain("in [0, 1]", check_probability, float)
FRACTION = Domain("in (0, 1)", check_fraction, float)
BOOLEAN = Domain("True or False", _check_bool)
