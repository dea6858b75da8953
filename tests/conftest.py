"""Shared pytest plumbing.

After the run, prints one PASS/FAIL line per acceptance criterion so the
release gate is readable at a glance even inside a long -v listing.
"""

import dataclasses

import pytest

_ACCEPTANCE_PREFIX = "test_acceptance.py::test_criterion_"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if _ACCEPTANCE_PREFIX in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, verdict in sorted(lines):
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def with_defaults():
    """make(record, **defaults): a subclass of the record dataclass whose named
    fields default to other values. A reader or builder that leaves a field to
    its record's default gives the subclass's value; one that restates the
    default gives the old one."""
    def make(record, **defaults):
        fields = [(name, object, dataclasses.field(default=value))
                  for name, value in defaults.items()]
        return dataclasses.make_dataclass(record.__name__, fields, bases=(record,),
                                          frozen=record.__dataclass_params__.frozen)
    return make
