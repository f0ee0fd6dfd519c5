"""Deep tier: REP112 (superstep-escape) — positives, negatives, the
interprocedural reach, waivers, and the shipped-package cleanliness
gate."""

import pathlib

import repro
from repro.check.deep import deep_analyze_paths, deep_analyze_source


def ids_of(findings):
    return [f.rule_id for f in findings]


PREAMBLE = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
from repro.core.combine import MIN


class ToyProblem(ProblemBase):
    combiners = {"labels": MIN}

    def init_data_slice(self, ds, sub):
        ids = sub.csr.ids
        ds.allocate("labels", sub.num_vertices, ids.vertex_dtype)
'''


def deep(src):
    return deep_analyze_source(src, "t.py")


class TestSuperstepEscape:
    def test_undeclared_self_attr_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        self.cache = frontier
        return frontier, []
'''
        findings = deep(src)
        assert "REP112" in ids_of(findings)
        assert any("self.cache" in f.message for f in findings)

    def test_undeclared_attr_subscript_store_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def __init__(self, problem):
        super().__init__(problem)
        self._tmp = {}

    def full_queue_core(self, ctx, frontier):
        self._tmp[ctx.gpu.device_id] = frontier
        return frontier, []
'''
        assert "REP112" in ids_of(deep(src))

    def test_snapshot_exclude_declares_cache(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    SNAPSHOT_EXCLUDE = IterationBase.SNAPSHOT_EXCLUDE | {"_tmp"}

    def full_queue_core(self, ctx, frontier):
        self._tmp[ctx.gpu.device_id] = frontier
        return frontier, []
'''
        assert "REP112" not in ids_of(deep(src))

    def test_checkpoint_attrs_declares_effect(self):
        src = PREAMBLE.replace(
            'combiners = {"labels": MIN}',
            'combiners = {"labels": MIN}\n'
            '    CHECKPOINT_ATTRS = ("max_delta",)',
        ) + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        problem = self.problem
        problem.max_delta[0] = 1.0
        return frontier, []
'''
        assert "REP112" not in ids_of(deep(src))

    def test_control_hooks_are_exempt(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return frontier, []

    def should_stop(self, iteration, frontier_sizes, in_flight):
        self.phase_memo = iteration
        return True
'''
        assert "REP112" not in ids_of(deep(src))

    def test_init_is_exempt(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def __init__(self, problem):
        super().__init__(problem)
        self.anything = 1

    def full_queue_core(self, ctx, frontier):
        return frontier, []
'''
        assert "REP112" not in ids_of(deep(src))


class TestInterprocedural:
    def test_escape_inside_module_helper_flagged(self):
        src = PREAMBLE + '''
def remember(owner, frontier):
    owner.last = frontier


class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        remember(self.problem, frontier)
        return frontier, []
'''
        findings = deep(src)
        assert ids_of(findings) == ["REP112"]
        assert "problem.last" in findings[0].message

    def test_clean_helper_not_flagged(self):
        src = PREAMBLE + '''
def scatter_ints(labels, idx, val):
    labels[idx] = val


class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        scatter_ints(ctx.slice["labels"], frontier, ctx.iteration)
        return frontier, []
'''
        assert deep(src) == []

    def test_helper_method_of_iteration_class_analyzed(self):
        # BC's self._forward_core pattern: helper methods are hot too
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return self._core(ctx, frontier)

    def _core(self, ctx, frontier):
        self.stash = frontier
        return frontier, []
'''
        assert "REP112" in ids_of(deep(src))


class TestWaiversAndScope:
    def test_waiver_suppresses_deep_finding(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        self.cache = frontier  # repro-check: disable=REP112 -- serial only
        return frontier, []
'''
        assert "REP112" not in ids_of(deep(src))

    def test_non_primitive_module_produces_nothing(self):
        findings = deep_analyze_source(
            "class Box:\n    def fill(self):\n        self.x = 1\n",
            "util.py",
        )
        assert findings == []


class TestShippedPackageClean:
    def test_no_deep_findings_across_all_six_primitives(self):
        # zero REP112 findings across the shipped primitives (and the
        # rest of the package); waivers are the only suppression
        pkg = pathlib.Path(repro.__path__[0])
        assert deep_analyze_paths([str(pkg)]) == []
