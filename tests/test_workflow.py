"""The CI workflow installs the package with its test extra on CPython 3.10,
3.11, 3.12 and 3.13, the versions from the floor of `requires-python` on,
with pip's cache keyed on `pyproject.toml`; on each it runs the installed
`g2forms` console script once (`g2forms catalog list`), then the Tier-1
command, printing its 20 slowest tests; the job stops after 15 minutes, and a
new push to the same ref cancels the run it supersedes.  The test extra
installs PyYAML, which reads the workflow here, so CI runs this test."""

from pathlib import Path

import yaml

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_the_tier1_workflow_installs_the_test_extra_and_runs_the_suite():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert workflow["concurrency"] == {
        "group": "${{ github.workflow }}-${{ github.ref }}",
        "cancel-in-progress": True}
    job = workflow["jobs"]["tier1"]
    assert job["timeout-minutes"] == 15
    assert job["strategy"]["matrix"] == {
        "python-version": ["3.10", "3.11", "3.12", "3.13"]}
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    (extra,) = [line for line in pyproject.splitlines()
                if line.startswith("test = [")]
    assert '"pyyaml>=6"' in extra
    steps = job["steps"]
    assert {"uses": "actions/setup-python@v5",
            "with": {"python-version": "${{ matrix.python-version }}",
                     "cache": "pip",
                     "cache-dependency-path": "pyproject.toml"}} in steps
    assert [s["run"] for s in steps if "run" in s] == [
        'python -m pip install -e ".[test]"',
        "g2forms catalog list",
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
        "python -m pytest -q --continue-on-collection-errors --durations=20"]
