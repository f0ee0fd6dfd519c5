"""Unit tests for the superstep interleaving explorer
(``repro.check.deep.schedules``): fold semantics, divergence detection,
partial-order reduction accounting, and replayable counterexamples."""

import json

import pytest

from repro.check.deep.schedules import (
    FOLD_EXCLUDED,
    FOLD_MULTISET,
    FOLD_SEQ,
    FOLD_SET,
    TRACE_VERSION,
    ArrayModel,
    Effect,
    GpuProgram,
    build_counterexample,
    canon,
    dump_trace,
    explore,
    fold_kind_for,
    replay,
)


def _prog(core=(), expand=(), payload=()):
    return GpuProgram(core=tuple(core), expand=tuple(expand),
                      payload_arrays=frozenset(payload))


def _arr(name="x", op="min", fold=FOLD_SET):
    return ArrayModel(name=name, op=op, fold=fold)


def _peer_prog():
    # a peer-slice write voids the pinned sender merge order
    return _prog(
        core=[Effect("apply", "x", ("const", "c")),
              Effect("peer", "x", ("expr", "h:1", frozenset(["x"])))],
        expand=[Effect("apply", "x", ("pay", frozenset(["x"])))],
        payload=["x"],
    )


class TestFoldKind:
    def test_algebra_to_fold_mapping(self):
        assert fold_kind_for(True, True) == FOLD_SET
        assert fold_kind_for(False, True) == FOLD_MULTISET
        assert fold_kind_for(True, False) == FOLD_SEQ
        assert fold_kind_for(None, None) == FOLD_SEQ
        assert fold_kind_for(True, True, excluded=True) == FOLD_EXCLUDED

    def test_canon_is_order_insensitive_for_sets(self):
        assert canon(frozenset(["b", "a"])) == canon(frozenset(["a", "b"]))


class TestStrictModel:
    def test_idempotent_forward_is_deterministic(self):
        # BFS shape: apply a constant locally, forward the payload of
        # the same array at the merge; SET fold absorbs re-application.
        prog = _prog(
            core=[Effect("apply", "x", ("const", "c"))],
            expand=[Effect("apply", "x", ("pay", frozenset(["x"])))],
            payload=["x"],
        )
        res = explore(prog, [_arr()], num_gpus=2, horizon=2)
        assert res.deterministic and res.exhausted
        assert res.num_final_states == 1
        assert res.divergent_choices is None

    def test_peer_write_diverges_under_strict(self):
        # two strict schedules reach different states -> REP116
        res = explore(_peer_prog(), [_arr(fold=FOLD_SEQ)], num_gpus=2,
                      horizon=2)
        assert not res.deterministic
        assert res.witness_choices is not None
        assert res.divergent_choices is not None

    def test_payload_view_write_diverges_under_strict(self):
        # A merge that writes through payload views mutates the sender;
        # the delivery order then decides the sender's final state.
        prog = _prog(
            core=[Effect("apply", "x", ("const", "c"))],
            expand=[Effect("apply", "x", ("pay", frozenset(["x"]))),
                    Effect("msgwrite", "x", ("const", "w"), line=7)],
            payload=["x"],
        )
        res = explore(prog, [_arr(fold=FOLD_SEQ)], num_gpus=3, horizon=2)
        assert not res.deterministic
        assert res.divergent_choices is not None

    def test_sum_fold_strict_is_deterministic(self):
        # Non-idempotent merges are still safe under strict barriers:
        # every schedule delivers each update exactly once in pinned
        # sender order, and the multiset fold ignores that order.
        prog = _prog(
            core=[Effect("apply", "x", ("const", "c"))],
            expand=[Effect("apply", "x", ("pay", frozenset(["x"])))],
            payload=["x"],
        )
        res = explore(prog, [_arr(op="sum", fold=FOLD_MULTISET)],
                      num_gpus=2, horizon=2)
        assert res.deterministic and res.exhausted


class TestPartialOrderReduction:
    def test_por_prunes_symmetric_schedules(self):
        prog = _prog(
            core=[Effect("apply", "x", ("const", "c"))],
            expand=[Effect("apply", "x", ("pay", frozenset(["x"])))],
            payload=["x"],
        )
        strict = explore(prog, [_arr()], num_gpus=3, horizon=2)
        assert strict.exhausted
        # full independence collapses strict exploration to a single
        # canonical interleaving
        assert strict.schedules == 1
        assert strict.independence, "pruning must be justified"
        # a peer write makes the compute phases dependent: every
        # interleaving of 3 GPUs is explored
        peer = explore(_peer_prog(), [_arr()], num_gpus=3, horizon=1,
                       stop_on_divergence=False)
        assert peer.exhausted and peer.schedules == 6

    def test_budget_exhaustion_is_reported(self):
        res = explore(_peer_prog(), [_arr(op="sub", fold=FOLD_SEQ)],
                      num_gpus=3, horizon=2, max_states=2,
                      stop_on_divergence=False)
        assert not res.exhausted


class TestReplay:
    def _divergent(self):
        prog = _peer_prog()
        arrays = [_arr(fold=FOLD_SEQ)]
        res = explore(prog, arrays, num_gpus=2, horizon=2)
        assert res.divergent_choices is not None
        return prog, arrays, res

    def test_replay_is_deterministic(self):
        prog, arrays, res = self._divergent()
        a = replay(prog, arrays, res.num_gpus, res.horizon,
                   res.divergent_choices, primitive="Toy")
        b = replay(prog, arrays, res.num_gpus, res.horizon,
                   res.divergent_choices, primitive="Toy")
        assert a == b
        assert a["events"], "replay must record schedule events"

    def test_counterexample_pair_actually_diverges(self):
        prog, arrays, res = self._divergent()
        ce = build_counterexample(prog, arrays, res, primitive="Toy")
        wit, div = ce["witness"], ce["divergent"]
        assert wit["final_state"] != div["final_state"]
        assert ce["first_divergent_step"] >= 0

    def test_trace_doc_is_json_serializable(self):
        prog, arrays, res = self._divergent()
        ce = build_counterexample(prog, arrays, res, primitive="Toy")
        doc = json.loads(dump_trace(ce["witness"]))
        assert doc["version"] == TRACE_VERSION
        assert doc["primitive"] == "Toy"
