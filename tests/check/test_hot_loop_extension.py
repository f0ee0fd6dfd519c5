"""REP104 extension: generator expressions, comprehensions, and
map/filter calls are hidden Python-level element loops in hot hooks."""

from repro.check import lint_source


def ids_of(findings):
    return [f.rule_id for f in findings]


PREAMBLE = '''
"""doc"""
import numpy as np
from repro.core.iteration import IterationBase
'''


def hot(body):
    return PREAMBLE + f'''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
{body}
        return frontier, []
'''


class TestHotLoopExtension:
    def test_generator_expression_flagged(self):
        findings = lint_source(
            hot("        total = sum(x for x in frontier)"), "t.py"
        )
        rep104 = [f for f in findings if f.rule_id == "REP104"]
        assert rep104
        assert any("generator expression" in f.message for f in rep104)

    def test_list_comprehension_flagged(self):
        findings = lint_source(
            hot("        doubled = [x * 2 for x in frontier]"), "t.py"
        )
        assert "REP104" in ids_of(findings)

    def test_set_and_dict_comprehensions_flagged(self):
        findings = lint_source(
            hot("        seen = {x for x in frontier}\n"
                "        pos = {x: i for i, x in enumerate(frontier)}"),
            "t.py",
        )
        assert ids_of(findings).count("REP104") >= 2

    def test_map_call_flagged(self):
        findings = lint_source(
            hot("        strs = list(map(int, frontier))"), "t.py"
        )
        rep104 = [f for f in findings if f.rule_id == "REP104"]
        assert any("map" in f.message for f in rep104)

    def test_filter_call_flagged(self):
        findings = lint_source(
            hot("        odd = list(filter(None, frontier))"), "t.py"
        )
        assert "REP104" in ids_of(findings)

    def test_method_named_map_not_flagged(self):
        findings = lint_source(
            hot("        out = ctx.cache.map(frontier)"), "t.py"
        )
        assert "REP104" not in ids_of(findings)

    def test_vectorized_body_clean(self):
        findings = lint_source(
            hot("        out = np.unique(frontier * 2)"), "t.py"
        )
        assert "REP104" not in ids_of(findings)

    def test_while_fixpoint_still_allowed(self):
        findings = lint_source(
            hot("        rounds = 0\n"
                "        while rounds < 3:\n"
                "            rounds += 1"),
            "t.py",
        )
        assert "REP104" not in ids_of(findings)

    def test_control_hooks_exempt(self):
        src = PREAMBLE + '''
class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        return frontier, []

    def should_stop(self, iteration, frontier_sizes, in_flight):
        return all(s == 0 for s in frontier_sizes)
'''
        assert "REP104" not in ids_of(lint_source(src, "t.py"))

    def test_waiver_applies(self):
        findings = lint_source(
            hot("        total = sum(x for x in frontier)"
                "  # repro-check: disable=hot-loop -- O(1) frontier"),
            "t.py",
        )
        assert "REP104" not in ids_of(findings)
