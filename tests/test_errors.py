import itertools
import math

import numpy as np
import pytest

from dequelab.errors import DomainError, finite, non_negative, positive, start_moments, time_window

_TRUTH_VALUES = (bool, np.bool_)


def scanned_holds(test, *values) -> bool:
    """The rules' verdict as it stood before Python floats took a path of their own."""
    if any(isinstance(v, _TRUTH_VALUES) for v in values):
        return False
    try:
        return bool(test(*values)) and all(math.isfinite(float(v)) for v in values)
    except (TypeError, OverflowError):
        return False


class Half(float):
    """A float subclass, which is not exactly a float."""


POOL = [
    0.0, -0.0, 5e-324, -5e-324, 1.5, -2.5, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf, Half(0.5),
    0, 1, -3, 10**400, -10**400,
    np.float64(2.5), np.float64(-0.0), np.float64(math.nan), np.float64(math.inf),
    np.float32(0.5), np.float32(math.inf), np.int64(7), np.int64(-7),
    True, False, np.True_, np.False_,
    None, "1.0", b"1.0",
]

# each scalar rule and a copy of its test
RULES = {
    "positive": (positive, lambda v: 0.0 < v < math.inf),
    "non_negative": (non_negative, lambda v: 0.0 <= v < math.inf),
    "finite": (finite, math.isfinite),
}


def accepts(check, *values) -> bool:
    try:
        check(*values)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("name", list(RULES))
def test_scalar_rules_keep_their_verdicts(name):
    rule, test = RULES[name]
    assert [accepts(rule, v, "x") for v in POOL] == [scanned_holds(test, v) for v in POOL]


def test_time_window_keeps_its_verdicts():
    pairs = list(itertools.product(POOL, repeat=2))
    got = [accepts(time_window, w, h) for w, h in pairs]
    # numpy warns when it casts a float past the float32 range to compare it with a float32;
    # the rule compares Python floats and must not
    with np.errstate(over="ignore"):
        assert got == [scanned_holds(lambda w, h: 0.0 <= w < h < math.inf, w, h) for w, h in pairs]


@pytest.mark.parametrize(
    "warmup, horizon, verdict",
    [
        (1e300, np.float32(0.5), False),
        (np.float32(0.5), 1.7976931348623157e308, True),
        # 0.1 < float(np.float32(0.1)), though the two are equal in float32
        (0.1, np.float32(0.1), True),
    ],
)
def test_time_window_compares_a_float32_as_a_float(warmup, horizon, verdict):
    assert accepts(time_window, warmup, horizon) == verdict


@pytest.mark.parametrize("mean, second", [(0.0, 0.0), (3.0, 9.0), (-3.0, 9.0 * (1.0 - 1e-14)), (0.5, 2.0)])
def test_start_moments_take_a_law_and_roundoff(mean, second):
    start_moments(mean, second, "m", "s")


@pytest.mark.parametrize(
    "mean, second, message",
    [
        (math.nan, 1.0, "m must be finite"),
        (0.0, math.inf, "s must be finite and >= 0"),
        (0.0, -5.0, "s must be finite and >= 0"),
        (3.0, 1.0, r"s = 1.0 lies below m\*\*2 = 9.0 \(m = 3.0\)"),
        (-3.0, 9.0 * (1.0 - 1e-6), r"lies below m\*\*2"),
    ],
    ids=["mean-nan", "second-inf", "second-negative", "below-squared-mean", "just-below"],
)
def test_start_moments_reject_what_no_law_has(mean, second, message):
    with pytest.raises(DomainError, match=message):
        start_moments(mean, second, "m", "s")
