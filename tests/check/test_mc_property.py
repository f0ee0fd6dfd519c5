"""The model checker folds each combined array by the algebra the
certifier *evaluated* (``evaluate_op``), never by the declared flags:
for every registered op, ``fold_kind_for`` over the evaluated
idempotency and commutativity picks the matching fold structure.
"""

import pytest

from repro.check.deep.certify import evaluate_op
from repro.check.deep.schedules import (
    FOLD_MULTISET,
    FOLD_SEQ,
    FOLD_SET,
    fold_kind_for,
)
from repro.core.combine import known_ops, op_semantics


class TestRegisteredOpsAgree:
    @pytest.mark.parametrize("op", known_ops())
    def test_fold_kind_is_derived_from_evaluated_algebra(self, op):
        sem = op_semantics(op)
        if sem.fn is None:
            assert fold_kind_for(None, None) == FOLD_SEQ
            return
        idem, comm, _assoc, _cex = evaluate_op(sem)
        fold = fold_kind_for(idem, comm)
        if comm and idem:
            assert fold == FOLD_SET
        elif comm:
            assert fold == FOLD_MULTISET
        else:
            assert fold == FOLD_SEQ
