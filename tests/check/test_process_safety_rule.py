"""REP115 process-unsafe-state: hooks must survive a fork.

The processes backend runs hot hooks — and, where its workers run ahead
of the parent, the barrier's control hooks — inside forked workers;
state that is process-local (file handles, threading primitives, RNG
instances) either diverges per worker or silently stops synchronizing.
The rule flags both creating such state inside such a hook and
*capturing* it via a ``self.X`` attribute assigned anywhere in the
class.
"""

import pytest

from repro.check import lint_source


def ids_of(findings):
    return [f.rule_id for f in findings]


PREAMBLE = '''
"""doc"""
import numpy as np
import random
import threading
from repro.core.iteration import IterationBase
'''


class TestProcessUnsafeStateRule:
    def test_open_in_hot_hook_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        log = open("/tmp/debug.log", "a")
        log.write("step")
        return frontier, []
'''
        findings = lint_source(src, "t.py")
        assert "REP115" in ids_of(findings)
        assert any("open()" in f.message for f in findings)

    def test_random_instance_in_hot_hook_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        rng = random.Random(42)
        return frontier[: rng.randrange(3)], []
'''
        findings = lint_source(src, "t.py")
        assert "REP115" in ids_of(findings)
        assert any("random.Random()" in f.message for f in findings)

    def test_numpy_rng_in_hot_hook_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def expand_incoming(self, ctx, msg):
        rng = np.random.default_rng(7)
        return rng.permutation(msg.vertices), []
'''
        findings = lint_source(src, "t.py")
        assert "REP115" in ids_of(findings)
        assert any("np.random.default_rng()" in f.message
                   for f in findings)

    def test_lock_in_hot_hook_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        with threading.Lock():
            return frontier, []
'''
        assert "REP115" in ids_of(lint_source(src, "t.py"))

    def test_captured_self_attr_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def __init__(self, problem):
        super().__init__(problem)
        self.rng = random.Random(0)
        self.lock = threading.Lock()

    def full_queue_core(self, ctx, frontier):
        with self.lock:
            return frontier[: self.rng.randrange(3)], []
'''
        findings = [f for f in lint_source(src, "t.py")
                    if f.rule_id == "REP115"]
        attrs = {f.extra.get("attr") for f in findings}
        assert {"rng", "lock"} <= attrs

    def test_capture_outside_hot_hook_unflagged(self):
        # creating the state is fine as long as no hook a worker runs
        # touches it (e.g. debugging helpers, parent-only hooks)
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def __init__(self, problem):
        super().__init__(problem)
        self.rng = random.Random(0)

    def sample_for_debugging(self, frontier):
        return frontier[: self.rng.randrange(3)]

    def max_iterations(self):
        return 100 + self.rng.randrange(3)

    def full_queue_core(self, ctx, frontier):
        return frontier, []
'''
        assert "REP115" not in ids_of(lint_source(src, "t.py"))

    @pytest.mark.parametrize("hook, args, body", [
        ("should_stop", "iteration, sizes, in_flight",
         "return self.rng.random() < 0.01"),
        ("on_iteration_end", "iteration",
         "self.problem.noise = self.rng.random()"),
        ("communicates_this_iteration", "iteration",
         "return self.rng.random() < 0.5"),
        ("direction_of", "gpu", "return 'fwd' if self.rng.random() else ''"),
    ])
    def test_control_hooks_run_in_workers_too(self, hook, args, body):
        # the barrier's control hooks run in every forked worker and, on
        # replay, in the parent: an RNG there makes them disagree
        src = PREAMBLE + f'''
class ToyIteration(IterationBase):
    def __init__(self, problem):
        super().__init__(problem)
        self.rng = random.Random(0)

    def {hook}(self, {args}):
        {body}

    def full_queue_core(self, ctx, frontier):
        return frontier, []
'''
        findings = [f for f in lint_source(src, "t.py")
                    if f.rule_id == "REP115"]
        assert [f.extra.get("method") for f in findings] == [hook]

    def test_state_created_inside_should_stop_flagged(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def should_stop(self, iteration, sizes, in_flight):
        return random.Random().random() < 0.01

    def full_queue_core(self, ctx, frontier):
        return frontier, []
'''
        findings = lint_source(src, "t.py")
        assert "REP115" in ids_of(findings)
        assert any("random.Random()" in f.message for f in findings)

    def test_deterministic_hot_hook_clean(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        labels = ctx.slice["labels"]
        out = frontier[labels[frontier] < 0]
        return out, []

    def expand_incoming(self, ctx, msg):
        return np.asarray(msg.vertices), []
'''
        assert "REP115" not in ids_of(lint_source(src, "t.py"))

    def test_generic_event_name_not_flagged(self):
        # bare "Event" is deliberately outside the rule: the name is too
        # common for domain objects (the repo's own EventBus events)
        src = PREAMBLE + '''
def Event(kind):
    return {"kind": kind}

class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        evt = Event("step")
        return frontier, [evt][:0]
'''
        assert "REP115" not in ids_of(lint_source(src, "t.py"))
