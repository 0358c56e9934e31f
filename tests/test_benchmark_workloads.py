"""One pass of each benchmark workload, in process, with its own checks.

`perfbench/workloads.py` pins what each workload computes: the checks of
every catalog-sweep row (`SWEEP`), the claims of every rigidity report
(`RIGIDITY`) and its float lambda to 1e-9, and the exact oracle of every
classify-stream form.  Running one pass here at seed 0 (the whole sweep,
every report, the first classify-stream batch) keeps a change that breaks
those pins from passing the suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_the_workload_meets_its_checks(name):
    ops = next(workloads.WORKLOADS[name](0))
    assert ops
    problems = {op.label: op.check(op.run()) for op in ops}
    assert {label: p for label, p in problems.items() if p} == {}
