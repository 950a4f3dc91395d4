"""Exception hierarchy and the input rules shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical/resource failures with 3.  A rule raises DomainError, or ConfigError
for a comparison config.  A rule tests the value as a Python float, so a
numpy float32 is not compared in float32.  A value that float() does not
take, such as None, fails it, and so do a string, a truth value such as True,
neither of which is a number here, and an integer too large for a float.
"""

import math
import operator
import sys

import numpy as np


class DequeLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DequeLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedCaseError(DequeLabError):
    """A closed form was requested outside the parameter regime where it exists."""


class NumericalOverflowError(DequeLabError):
    """An intermediate quantity is not representable even after log-space rewriting."""


class ResourceLimitError(DequeLabError):
    """A hard resource cap (state-space truncation, iteration budget) was hit."""


class TruncationError(DequeLabError):
    """Probability mass reached the edge of a truncated state space."""


class ConfigError(DequeLabError):
    """A scenario or comparison configuration is invalid."""


_TRUTH_VALUES = (bool, np.bool_)
_NOT_NUMBERS = (*_TRUTH_VALUES, str, bytes)


def _holds(test, *values) -> bool:
    for v in values:
        if type(v) is not float:
            return _holds_any(test, values)
    # a Python float, the common case, is no truth value and needs no float()
    return bool(test(*values)) and all(map(math.isfinite, values))


def _holds_any(test, values: tuple) -> bool:
    # float() would parse a string, and take a truth value as 0 or 1
    if any(isinstance(v, _NOT_NUMBERS) for v in values):
        return False
    try:
        # the test sees Python floats, so a numpy float32 is not compared in float32;
        # an int past the float range fails here
        floats = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        return False
    return bool(test(*floats)) and all(map(math.isfinite, floats))


def _scalar_rule(test, wording: str):
    """A check(value, name, error=DomainError) that returns value when test(value) holds."""

    def check(value, name: str, error: type[DequeLabError] = DomainError):
        if not _holds(test, value):
            raise error(f"{name} must be {wording}, got {value!r}")
        return value

    return check


positive = _scalar_rule(lambda v: 0.0 < v < math.inf, "finite and > 0")
non_negative = _scalar_rule(lambda v: 0.0 <= v < math.inf, "finite and >= 0")
finite = _scalar_rule(math.isfinite, "finite")


def finite_result(compute, name: str):
    """compute(), a number derived from checked inputs, when it is finite.

    Python floats raise OverflowError or ZeroDivisionError where numpy gives
    inf or nan; both fail the rule like an infinite result.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    return finite(value, name)


def whole_number(
    value, name: str, floor: float = -math.inf, error: type[DequeLabError] = DomainError, ceiling: float = math.inf
) -> int:
    """value as an int in [floor, ceiling]: an integer, or a float with no fractional part such as 2.0."""
    integral = isinstance(value, (float, np.floating)) and float(value).is_integer()
    try:
        number = None if isinstance(value, _TRUTH_VALUES) else int(value) if integral else operator.index(value)
    except TypeError:
        number = None
    if number is None or not floor <= number <= ceiling:
        limits = f">= {floor}" if ceiling == math.inf else f"in [{floor}, {ceiling}]"
        raise error(f"{name} must be an integer {limits}, got {value!r}")
    # like every rule, it fails an integer too large for a float
    if abs(number) > sys.float_info.max:
        raise error(f"{name} must be an integer that fits a float, got {value!r}")
    return number


def time_window(warmup, horizon, error: type[DequeLabError] = DomainError) -> None:
    """Checks 0 <= warmup < horizon < inf, the window a run measures over."""
    if not _holds(lambda w, h: 0.0 <= w < h < math.inf, warmup, horizon):
        raise error(f"need 0 <= warmup < horizon < inf, got {warmup!r}, {horizon!r}")


def start_moments(mean, second, mean_name: str, second_name: str) -> None:
    """Checks that mean and second can be a start law's first two moments: mean finite, second finite and >= 0,
    and second >= mean^2, short of it by at most 1e-9 relative, the roundoff when both come from a pmf."""
    finite(mean, mean_name)
    non_negative(second, second_name)
    if second < mean * mean * (1.0 - 1e-9):
        raise DomainError(
            f"{second_name} = {second!r} lies below {mean_name}**2 = {mean * mean!r} ({mean_name} = {mean!r})"
        )


def times(t, name: str = "t") -> np.ndarray:
    """t as a float array (0-d for a scalar) when every time in it is finite and >= 0.

    A truth value is no time, alone, in a sequence or as a bool array; an array of numbers is not scanned for one."""
    try:
        arr = np.asarray(t, dtype=float)
        held = t if isinstance(t, np.ndarray) and t.dtype != object else np.asarray(t, dtype=object)
    except (TypeError, ValueError):
        arr = held = np.array(math.nan)
    truth = held.dtype == bool or (held.dtype == object and any(isinstance(v, _TRUTH_VALUES) for v in held.flat))
    if truth or not np.all((0.0 <= arr) & (arr < math.inf)):
        raise DomainError(f"{name} must hold finite times >= 0, got {t!r}")
    return arr


def euler_step(step, theta: float, gamma: float) -> None:
    """Checks 0 < step <= 0.01/max(theta, gamma), the step bound of the fluid and diffusion integrators."""
    positive(step, "step")
    if step > 0.01 / max(theta, gamma) + 1e-15:
        raise DomainError(f"step {step} too coarse; require step <= 0.01/max(theta, gamma)")


def equal_rates(theta: float, gamma: float, name: str) -> None:
    """Checks theta == gamma, the one case where the closed form name exists."""
    if theta != gamma:
        raise UnsupportedCaseError(f"{name} requires theta == gamma, got theta={theta}, gamma={gamma}")
