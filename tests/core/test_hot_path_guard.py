"""The superstep hot path stays free of sorts and hashes.

The keyed kernels (``repro.core.operators.compute``) replaced every
``np.unique`` / ``argsort`` / ``lexsort`` on the path ``enact()`` runs
per superstep, and PR's loop-invariant column gather moved to
initialization.  This guard profiles one BFS (no predecessors), one
SSSP and one PR run with ``sys.setprofile`` and fails if any of those
calls comes back — Python-level NumPy wrappers and C-level methods both.
"""

import sys
from collections import Counter

import pytest

from repro.core.enactor import Enactor
from repro.primitives import (
    BFSIteration,
    BFSProblem,
    PRIteration,
    PRProblem,
    SSSPIteration,
    SSSPProblem,
)
from repro.sim.machine import Machine

SORTS_AND_HASHES = {"unique", "argsort", "lexsort", "sort"}


def _numpy_calls(fn) -> Counter:
    """Names of the NumPy functions (Python wrappers and C builtins)
    called while ``fn`` runs on this thread."""
    seen: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            if "numpy" in frame.f_code.co_filename:
                seen[frame.f_code.co_name] += 1
        elif event == "c_call":
            module = getattr(arg, "__module__", None) or ""
            owner = getattr(arg, "__self__", None)
            if module.startswith("numpy") or type(owner).__module__ == "numpy":
                seen[arg.__name__] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def _profiled_enact(problem, iteration_cls, **enact_kwargs) -> Counter:
    with Enactor(problem, iteration_cls) as enactor:
        enactor.enact(**enact_kwargs)  # warm: lazy caches, arena growth
        return _numpy_calls(lambda: enactor.enact(**enact_kwargs))


def test_profiler_sees_both_call_forms():
    import numpy as np

    arr = np.array([3, 1, 2, 1])
    seen = _numpy_calls(lambda: (np.unique(arr), arr.argsort(),
                                 np.lexsort((arr, arr)), arr.take([0])))
    assert {"unique", "argsort", "lexsort", "take"} <= set(seen)


@pytest.mark.parametrize("case", ["bfs", "sssp", "pr"])
def test_enact_makes_no_sort_or_hash_call(case, small_rmat, weighted_rmat):
    if case == "bfs":
        seen = _profiled_enact(
            BFSProblem(small_rmat, Machine(4)), BFSIteration, src=0
        )
    elif case == "sssp":
        seen = _profiled_enact(
            SSSPProblem(weighted_rmat, Machine(4)), SSSPIteration, src=0
        )
    else:
        seen = _profiled_enact(
            PRProblem(small_rmat, Machine(4), max_iter=6), PRIteration
        )
        # the push plan is built at initialization: no per-iteration
        # gather over the column array
        assert seen["take"] == 0
    assert seen, "the profiler recorded nothing"
    assert not SORTS_AND_HASHES & set(seen), {
        name: seen[name] for name in SORTS_AND_HASHES & set(seen)
    }
