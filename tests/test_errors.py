"""The budget table: each cap admitted, everything past it refused in one form."""

import ast
import math
import pathlib

import pytest

import cloudfeedback
from cloudfeedback.errors import BUDGETS, ConfigError, check_budget, sig


@pytest.mark.parametrize("name", list(BUDGETS))
def test_every_budget_admits_its_cap_and_refuses_past_it(name):
    budget = BUDGETS[name]
    assert issubclass(budget.error, ConfigError)  # every refusal exits 2
    check_budget(name, budget.cap, "the count")
    for count, shown in ((budget.cap + 1, sig(budget.cap + 1)), (math.inf, "inf"),
                         (math.nan, "nan")):
        with pytest.raises(budget.error) as info:
            check_budget(name, count, "the count")
        assert type(info.value) is budget.error
        assert str(info.value) == (f"the count: {shown} {budget.unit}, over the budget of "
                                   f"{sig(budget.cap)}")


def test_sig_prints_six_digits_and_past_the_float_range_a_power_of_ten():
    assert [sig(v) for v in (1001, 2**20, 10**300, 10**400, -10**400, 10**4299 * 2,
                             math.inf, -math.inf, math.nan, 0.5)] == [
        "1001", "1.04858e+06", "1e+300", "10^400", "-10^400", "10^4299.3",
        "inf", "-inf", "nan", "0.5"]


def test_no_raise_outside_errors_formats_a_budget():
    # every budget refusal goes through check_budget, and only its message
    # names the budget
    package = pathlib.Path(cloudfeedback.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and "budget" in ast.get_source_segment(
                    source, node).lower():
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
