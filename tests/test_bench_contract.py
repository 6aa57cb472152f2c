"""The benchmark's tracer must still find every callable it wraps.

``perfbench/tracer.py`` replaces named attributes of helmfem's modules
and classes with span-recording wrappers.  A refactor that renames or
removes one of them breaks the traced benchmark run; these tests make
that break show up in the unit suite instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


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
