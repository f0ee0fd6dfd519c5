"""Barrier-discipline verifier (REP113): the shipped framework proves
all obligations; mutated variants that break the determinism contract
are flagged."""

from repro.check.deep import verify_barrier_discipline
from repro.check.deep.barriers import OBLIGATIONS


def obligations_of(findings):
    return {f.extra.get("obligation") for f in findings}


class TestShippedFramework:
    def test_all_obligations_proved(self):
        report = verify_barrier_discipline()
        assert report.all_proved, report.findings
        assert report.findings == []
        assert set(report.obligations) == set(OBLIGATIONS)

    def test_report_serializes(self):
        d = verify_barrier_discipline().to_dict()
        assert d["all_proved"] is True
        assert all(d["obligations"].values())


GOOD_BACKEND = '''
class ExecutionBackend:
    def run_iteration(self, enactor, iteration, iteration_obj, frontiers,
                      inboxes, gpu_indices, guarded=False):
        results = []
        for i in gpu_indices:
            try:
                eff = enactor._gpu_superstep(
                    i, iteration, iteration_obj, frontiers[i], inboxes[i]
                )
            except DeviceLostError as exc:
                if not guarded:
                    raise
                eff = exc
            results.append(eff)
        return results


class ProcessesBackend(ExecutionBackend):
    def run_iteration(self, enactor, iteration, iteration_obj, frontiers,
                      inboxes, gpu_indices, guarded=False):
        if len(gpu_indices) <= 1:
            return super().run_iteration(
                enactor, iteration, iteration_obj, frontiers, inboxes,
                gpu_indices, guarded=guarded,
            )
        return self._serve(enactor, iteration, gpu_indices, guarded)
'''

GOOD_ENACTOR = '''
class Enactor:
    def enact(self):
        while True:
            gpus = list(range(n))
            results = self.backend.run_iteration(
                self, iteration, iteration_obj, frontiers, inboxes, gpus
            )
            for eff in results:
                apply(eff)
            self.machine.barrier()
            if done():
                break
'''


def _mutated_backend(old, new):
    assert old in GOOD_BACKEND
    return GOOD_BACKEND.replace(old, new, 1)


class TestBackendMutations:
    def test_good_shapes_prove(self):
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", GOOD_ENACTOR)
        )
        assert report.all_proved, report.findings

    def test_completion_order_gather_flagged(self):
        bad = _mutated_backend(
            '''        results = []
        for i in gpu_indices:
            try:
                eff = enactor._gpu_superstep(
                    i, iteration, iteration_obj, frontiers[i], inboxes[i]
                )
            except DeviceLostError as exc:
                if not guarded:
                    raise
                eff = exc
            results.append(eff)
        return results''',
            '''        futures = [
            pool.submit(enactor._gpu_superstep, i, iteration,
                        iteration_obj, frontiers[i], inboxes[i])
            for i in gpu_indices
        ]
        return [f.result() for f in as_completed(futures)]''',
        )
        report = verify_barrier_discipline(
            backend=("b.py", bad), enactor=("e.py", GOOD_ENACTOR)
        )
        assert not report.all_proved
        assert not report.obligations["no-completion-order-gather"]
        assert "no-completion-order-gather" in obligations_of(
            report.findings
        )
        assert all(f.rule_id == "REP113" for f in report.findings)

    def test_unprovable_return_order_flagged(self):
        bad = _mutated_backend(
            "return results\n", "return sorted(results, key=id)\n"
        )
        report = verify_barrier_discipline(
            backend=("b.py", bad), enactor=("e.py", GOOD_ENACTOR)
        )
        assert not report.obligations["backend-return-order"]

    def test_reversed_loop_flagged(self):
        bad = _mutated_backend(
            "for i in gpu_indices:", "for i in reversed(gpu_indices):"
        )
        report = verify_barrier_discipline(
            backend=("b.py", bad), enactor=("e.py", GOOD_ENACTOR)
        )
        assert not report.obligations["backend-return-order"]
        assert "backend-return-order" in obligations_of(report.findings)

    def test_filtered_gather_is_not_order_provable(self):
        bad = '''
class T:
    def run_iteration(self, enactor, iteration, iteration_obj, frontiers,
                      inboxes, gpu_indices, guarded=False):
        return [
            enactor._gpu_superstep(
                i, iteration, iteration_obj, frontiers[i], inboxes[i]
            )
            for i in gpu_indices if frontiers[i].size
        ]
'''
        report = verify_barrier_discipline(
            backend=("b.py", bad), enactor=("e.py", GOOD_ENACTOR)
        )
        assert not report.obligations["backend-return-order"]

    def test_backend_without_superstep_loop_flagged(self):
        bad = GOOD_BACKEND.replace("enactor._gpu_superstep(", "step(")
        report = verify_barrier_discipline(
            backend=("b.py", bad), enactor=("e.py", GOOD_ENACTOR)
        )
        assert not report.obligations["backend-return-order"]


class TestEnactorMutations:
    def test_merge_without_barrier_flagged(self):
        bad = GOOD_ENACTOR.replace("            self.machine.barrier()\n",
                                   "")
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", bad)
        )
        assert not report.obligations["merge-at-barrier"]
        assert "merge-at-barrier" in obligations_of(report.findings)

    def test_reordered_merge_flagged(self):
        bad = GOOD_ENACTOR.replace(
            "for eff in results:", "for eff in sorted(results, key=id):"
        )
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", bad)
        )
        assert not report.obligations["merge-in-gpu-index-order"]

    def test_reordered_dispatch_flagged(self):
        bad = GOOD_ENACTOR.replace(
            "gpus = list(range(n))", "gpus = list(reversed(range(n)))"
        )
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", bad)
        )
        assert not report.obligations["dispatch-in-gpu-index-order"]

    def test_double_merge_flagged(self):
        bad = GOOD_ENACTOR.replace(
            "            self.machine.barrier()\n",
            "            self.machine.barrier()\n"
            "            for eff in results:\n"
            "                apply_again(eff)\n",
        )
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", bad)
        )
        assert not report.obligations["single-merge-site"]

    def test_missing_merge_loop_flagged(self):
        bad = '''
class Enactor:
    def enact(self):
        results = self.backend.run_iteration(
            self, iteration, iteration_obj, frontiers, inboxes, gpus
        )
        self.machine.barrier()
        return results
'''
        report = verify_barrier_discipline(
            backend=("b.py", GOOD_BACKEND), enactor=("e.py", bad)
        )
        assert not report.obligations["merge-at-barrier"]
