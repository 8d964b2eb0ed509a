"""The suite registry: config keys map onto suite parameters, defaults live in the suites."""
import inspect

import pytest

from qtlie.verify import SUITES, run_suites


@pytest.mark.parametrize("name", list(SUITES))
def test_config_keys_map_onto_exactly_the_suite_parameters(name):
    suite, params = SUITES[name]
    expected = [p for p in inspect.signature(suite).parameters if p != "spec"]
    assert sorted(params.values()) == sorted(expected)


@pytest.mark.parametrize("name", ["dr-wd", "jacobi-d"])
def test_an_empty_config_keeps_the_suite_defaults(e1, name):
    suite, _ = SUITES[name]
    [report] = run_suites(e1, [name], {})
    assert report.to_dict() == suite(e1).to_dict()
    assert report.wall_time > 0


def test_present_config_keys_reach_the_suite_and_others_are_ignored(e1):
    [report] = run_suites(e1, ["jacobi-d"], {"samples": 3, "flip": True, "degree": 9})
    assert report.cases == 3 and report.passed
