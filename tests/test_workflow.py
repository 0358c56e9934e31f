"""The CI workflow installs the package with its test extra on CPython 3.11
and runs the Tier-1 command."""

from pathlib import Path

import pytest

WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"


def test_the_tier1_workflow_installs_the_test_extra_and_runs_the_suite():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert {"uses": "actions/setup-python@v5",
            "with": {"python-version": "3.11"}} in steps
    assert [s["run"] for s in steps if "run" in s] == [
        'python -m pip install -e ".[test]"',
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
        "python -m pytest -q --continue-on-collection-errors"]
