"""Algebraic combiner certification: exhaustive evaluation of declared
merge ops (REP114) and CombinerCertificate semantics."""

import pathlib

import repro
from repro.check.deep import deep_analyze_source
from repro.check.deep.certify import certify_combiner, evaluate_op
from repro.core.combine import (
    ANY,
    MIN,
    OVERWRITE,
    SUM,
    WITNESS,
    Combiner,
    op_semantics,
    register_op_semantics,
)


def ids_of(findings):
    return [f.rule_id for f in findings]


class TestEvaluateOp:
    def test_min_has_all_three_properties(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("min"))
        assert idem and comm and assoc
        assert counter == {}

    def test_sum_is_commutative_not_idempotent(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("sum"))
        assert comm and assoc and not idem
        assert "idempotent" in counter

    def test_overwrite_is_order_dependent(self):
        idem, comm, assoc, counter = evaluate_op(op_semantics("overwrite"))
        # apply-order commutativity: f(f(s,a),b) vs f(f(s,b),a) differ
        assert not comm
        assert "commutative" in counter

    def test_sub_is_apply_order_commutative_not_idempotent(self):
        # s - a - b == s - b - a: subtraction commutes as an *action*,
        # but re-applying an update double-subtracts
        idem, comm, assoc, counter = evaluate_op(op_semantics("sub"))
        assert comm and not idem and not assoc


class TestCertifyCombiner:
    def test_min_certificate(self):
        cert = certify_combiner("labels", MIN)
        assert cert.status == "certified"
        assert cert.certified_order_independent
        assert cert.idempotent and cert.commutative and cert.associative
        assert cert.overclaims == []

    def test_any_certificate(self):
        cert = certify_combiner("in_frontier", ANY)
        assert cert.certified_order_independent

    def test_sum_not_certifiable_for_relaxed(self):
        cert = certify_combiner("acc", SUM)
        assert cert.status == "certified"  # declaration is honest
        assert not cert.certified_order_independent  # but not idempotent

    def test_witness_is_nondeterministic(self):
        cert = certify_combiner("preds", WITNESS)
        assert cert.status == "nondeterministic"
        assert not cert.certified_order_independent
        assert cert.idempotent is None and cert.commutative is None

    def test_overwrite_underclaim_is_allowed(self):
        # OVERWRITE declares commutative=False: the evaluation agrees,
        # so there is no over-claim even though it isn't certifiable
        cert = certify_combiner("x", OVERWRITE)
        assert cert.status == "certified"
        assert cert.overclaims == []
        assert not cert.certified_order_independent

    def test_overclaim_is_refuted_with_counterexample(self):
        lying = Combiner("overwrite", commutative=True, idempotent=True)
        cert = certify_combiner("x", lying)
        assert cert.status == "refuted"
        assert "commutative" in cert.overclaims
        assert "commutative" in cert.counterexamples

    def test_unknown_op(self):
        cert = certify_combiner("x", Combiner("frobnicate"))
        assert cert.status == "unknown-op"
        assert not cert.certified_order_independent

    def test_registered_custom_op_certifies(self):
        register_op_semantics("gcd2", lambda a, b: abs(a) | abs(b),
                              domain=(0, 1, 2, 3))
        cert = certify_combiner(
            "x", Combiner("gcd2", commutative=True, idempotent=True)
        )
        assert cert.status == "certified"
        assert cert.certified_order_independent

    def test_certificate_roundtrips_to_dict(self):
        d = certify_combiner("labels", MIN).to_dict()
        assert d["array"] == "labels"
        assert d["evaluated"]["idempotent"] is True
        assert d["certified_order_independent"] is True


TOY_REJECT = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.combine import Combiner

LYING = Combiner("overwrite", commutative=True, idempotent=True)


class ToyProblem(ProblemBase):
    combiners = {"state": LYING, "delta": Combiner("sub", idempotent=True)}
'''


class TestStaticCertification:
    def test_toy_noncommutative_primitive_rejected(self):
        findings, certs = deep_analyze_source(TOY_REJECT, "toy.py")
        rep114 = [f for f in findings if f.rule_id == "REP114"]
        assert rep114, "over-claimed combiners must be rejected"
        msgs = " | ".join(f.message for f in rep114)
        assert "commutative" in msgs and "counterexample" in msgs
        assert "idempotent" in msgs  # the sub over-claim
        by_array = {c.array: c for c in certs}
        assert by_array["state"].status == "refuted"

    def test_bfs_dobfs_cc_certified_idempotent_commutative(self):
        # the acceptance criterion, statically, on the shipped sources
        prim = pathlib.Path(repro.__path__[0]) / "primitives"
        for fname, arrays in [
            ("bfs.py", ["labels"]),
            ("dobfs.py", ["labels", "in_frontier"]),
            ("cc.py", ["comp"]),
        ]:
            src = (prim / fname).read_text(encoding="utf-8")
            findings, certs = deep_analyze_source(src, str(prim / fname))
            assert not [f for f in findings if f.rule_id == "REP114"]
            by_array = {c.array: c for c in certs}
            for arr in arrays:
                cert = by_array[arr]
                assert cert.certified_order_independent, (fname, arr)
                assert cert.idempotent and cert.commutative

    def test_unknown_op_with_claims_warns(self):
        src = '''
from repro.core.problem import ProblemBase
from repro.core.combine import Combiner


class P(ProblemBase):
    combiners = {"x": Combiner("mystery", commutative=True)}
'''
        findings, certs = deep_analyze_source(src, "p.py")
        warn = [f for f in findings if f.rule_id == "REP114"]
        assert warn and warn[0].severity == "warning"
        assert certs[0].status == "unknown-op"

