"""The acceptance gate: every exit criterion at its pinned tolerance.

Each test prints the criterion's one-line verdict; run with ``-s`` (or use
``normlab verify``) to see the lines for passing criteria too.
"""

import time

import pytest

from normlab import acceptance
from normlab.acceptance import CRITERIA


@pytest.mark.parametrize("key", list(CRITERIA.keys()))
def test_criterion(key):
    result = CRITERIA[key]()
    print(result.line())
    assert result.passed, result.line()


def test_criteria_register_in_order():
    assert list(CRITERIA) == [str(k) for k in range(1, 14)]


def test_registrar_fails_a_passing_check_over_its_time_limit(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {})

    @acceptance._criterion("x", "slow", "sleeps past its limit", "1 ms", seconds=0.001)
    def slow():
        time.sleep(0.01)
        return True, "ok"

    assert list(acceptance.CRITERIA) == ["x"] and acceptance.CRITERIA["x"] is slow
    result = slow()
    assert result.seconds >= 0.01 and not result.passed
    assert result.line().startswith("[FAIL] slow: sleeps past its limit | measured ok | tolerance 1 ms | ")


def test_registrar_reports_a_failing_check(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {})
    result = acceptance._criterion("y", "wrong", "fails its check", "none")(lambda: (False, "off by 1"))()
    assert not result.passed
    assert result.line().startswith("[FAIL] wrong: fails its check | measured off by 1 | tolerance none | ")
