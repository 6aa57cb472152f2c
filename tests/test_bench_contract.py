"""The benchmark must still find every callable and input it uses.

``perfbench/tracer.py`` replaces named attributes of helmfem's modules
and classes with span-recording wrappers, and ``perfbench/workloads.py``
builds its inputs through ``PcgConfig``, ``ProblemSpec`` and
``parse_config``.  A refactor that renames or removes one of them breaks
the benchmark run; these tests make that break show up in the unit suite
instead.
"""

import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_wrap_point_resolves():
    for owner, attr, original in tracer.snapshot():
        assert callable(original), f"{owner!r}.{attr} is not callable"


def test_install_then_restore_leaves_originals():
    before = tracer.snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = tracer.snapshot()
        assert all(w is not o for (_, _, w), (_, _, o) in zip(wrapped, before))
    finally:
        saved = t.restore()
    tracer.Tracer.assert_restored(saved)
    assert len(saved) == len(before)


@pytest.mark.parametrize("workload", ["implicit-nested", "direct-lu", "paper-cli"])
def test_workload_builds_and_warms_up(tmp_path, workload):
    assert workloads.build(workload, 1, REPO, tmp_path)
    workloads.warm_up(workload)


def test_workload_checks_pass_their_self_test(tmp_path):
    workloads.self_test(REPO, tmp_path)
