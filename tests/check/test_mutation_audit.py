"""Seeded-mutation audit: the tier-1 mutation score.

:data:`CATALOGUE` holds small, real defects of the shipped primitives
and framework.  Each :class:`Mutant` is one text replacement in one
source file under ``src/repro``, with

* ``defect`` — a configuration in which the mutation changes an
  observable: results, ``RunMetrics``, ``virtual_s``, serial ≡
  processes bit-identity, or a bounded-wait guarantee;
* ``rules`` — for a primitive, the sanitizer hazards a sanitized 4-GPU
  run of it reports (problem keyword arguments in ``problem``);
* ``tier1`` — the first tier-1 test that fails on the mutated tree, and
  ``via`` — the sanitizer hazards that are the only reason tier-1
  fails, if so.

Tier-1 here is the whole suite but this file::

    PYTHONPATH=src python -m pytest -x -q \\
        --ignore=tests/check/test_mutation_audit.py

Every catalogued defect fails tier-1.  A sanitizer hazard earns its
place when some catalogued defect trips it and tier-1 fails on nothing
but that hazard's own report.  :data:`DELETED` lists the static lint
rules the audit removed, each with the mutants written for it: tier-1
fails on every one of them without the rule.

Under pytest this file checks the cheap column: every anchor occurs
exactly once (a missing anchor fails loudly, like a stale digest), each
mutant trips exactly its ``rules``, every hazard earns its place and
every mutant names the tier-1 test that catches it.  Run as a script it
re-measures the other column::

    PYTHONPATH=src python tests/check/test_mutation_audit.py --tier1

For each mutant that copies the repository to a temporary directory,
applies the mutation there, runs tier-1, and prints the hazard x mutant
table of ``docs/static_analysis.md`` ("The mutation score") — about
20 minutes for the whole catalogue on two cores; ``--only ID ...``
measures some mutants.  Tier-1 is not re-run under pytest: besides the
time, the peer-state races (``peer-write-alias``,
``peer-write-direct``) corrupt different tests from run to run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


@dataclass(frozen=True)
class Mutant:
    id: str
    #: path under ``src/repro``
    file: str
    anchor: str
    replacement: str
    defect: str
    rules: FrozenSet[str]
    tier1: Optional[str]
    via: FrozenSet[str] = frozenset()
    #: problem keyword arguments of the sanitized run (primitives only)
    problem: Tuple[Tuple[str, object], ...] = ()

    def source(self, root: Path = SRC) -> str:
        """The mutated text of :attr:`file` under ``root``."""
        text = (root / self.file).read_text(encoding="utf-8")
        found = text.count(self.anchor)
        if found != 1:
            raise AssertionError(
                f"mutant {self.id}: anchor occurs {found} times in "
                f"{self.file}; the catalogue is stale"
            )
        return text.replace(self.anchor, self.replacement)


def _rules(*ids: str) -> FrozenSet[str]:
    return frozenset(ids)


_PREDS = (("mark_predecessors", True),)

CATALOGUE: Tuple[Mutant, ...] = (
    # -- caught by the sanitizer --------------------------------------------
    Mutant(
        id="peer-write-preds",
        file="primitives/dobfs.py",
        anchor=(
            "        if problem.mark_predecessors and survivors.size:\n"
            "            ctx.slice[\"preds\"][survivors] = "
            "ctx.sub.local_to_global[w_src]\n"
        ),
        replacement=(
            "        if problem.mark_predecessors and survivors.size:\n"
            "            witness = ctx.sub.local_to_global[w_src]\n"
            "            ctx.slice[\"preds\"][survivors] = witness\n"
            "            first = problem.data_slices[0][\"preds\"]\n"
            "            first[survivors] = np.maximum(first[survivors], "
            "witness)\n"
        ),
        defect=(
            "DOBFS with predecessors on a road graph at 4 GPUs: GPU 0's "
            "copy keeps the larger of two same-superstep witnesses, so "
            "predecessors differ from the shipped run, and on processes "
            "from run to run"
        ),
        rules=_rules("SAN201", "SAN202"),
        tier1=(
            "tests.check.test_sanitizer_green"
            "::test_no_hazards[dobfs+preds-2]"
        ),
        via=_rules("SAN201", "SAN202"),
        problem=_PREDS,
    ),
    Mutant(
        id="overwrite-preds-dobfs",
        file="primitives/dobfs.py",
        anchor="            \"preds\": combine.WITNESS,\n",
        replacement="            \"preds\": combine.OVERWRITE,\n",
        defect=(
            "sanitized DOBFS with predecessors at 4 GPUs: preds is "
            "declared order-dependent, so the replicas two GPUs write in "
            "one superstep become SAN203 hazards in RunMetrics"
        ),
        rules=_rules("SAN203"),
        tier1=(
            "tests.check.test_sanitizer_green"
            "::test_no_hazards[dobfs+preds-4]"
        ),
        via=_rules("SAN203"),
        problem=_PREDS,
    ),
    # -- written for a rule the audit removed --------------------------------
    Mutant(
        id="bare-dtype",
        file="primitives/cc.py",
        anchor=(
            "        ds.allocate(\"comp\", sub.num_vertices, "
            "sub.csr.ids.vertex_dtype)\n"
        ),
        replacement=(
            "        ds.allocate(\"comp\", sub.num_vertices, np.int32)\n"
        ),
        defect=(
            "CC on a graph with 64-bit IDs (Table V's 64-bit row): comp "
            "stays 4 bytes wide, so RunMetrics.peak_memory shrinks (by "
            "2 MiB per GPU on a stand-in R-MAT-9, where virtual_s does "
            "not move)"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[rmat64-cc-1]"
        ),
    ),
    Mutant(
        id="hot-loop",
        file="primitives/cc.py",
        anchor=(
            "        fresh = verts.take(improved)\n"
            "        comp[fresh] = incoming.take(improved)\n"
        ),
        replacement=(
            "        fresh = np.fromiter((int(v) for v in "
            "verts.take(improved)),\n"
            "                            np.int64, improved.size)\n"
            "        comp[fresh] = incoming.take(improved)\n"
        ),
        defect=(
            "CC at 2+ GPUs: one Python call per received vertex, so "
            "py_calls (+37 % on a 4-GPU R-MAT-10 run) and the wall "
            "clock grow with message volume"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_hot_path_guard"
            "::test_cc_superstep_calls_stay_within_budget"
        ),
    ),
    Mutant(
        id="swallowed-oom",
        file="core/enactor.py",
        anchor=(
            "            except DeviceMemoryError:\n"
            "                if not self._retries_oom():\n"
            "                    raise\n"
            "                # transient allocation failure: retry at "
            "exact fit\n"
        ),
        replacement=(
            "            except DeviceMemoryError:\n"
            "                # transient allocation failure: retry at "
            "exact fit\n"
        ),
        defect=(
            "an unfused (JustEnough) run with an OOM fault plan and "
            "RecoveryPolicy(retry_oom=False): the run completes with "
            "RunMetrics.oom_recoveries 1 instead of raising "
            "DeviceMemoryError"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_unhappy_paths.TestDeviceMemoryError"
            "::test_injected_oom_raises_when_retry_is_off"
        ),
    ),
    Mutant(
        id="unbounded-join",
        file="core/supervise.py",
        anchor=(
            "        proc.terminate()\n"
            "        proc.join(timeout=timeout)\n"
        ),
        replacement=(
            "        proc.terminate()\n"
            "        proc.join()\n"
        ),
        defect=(
            "reaping a worker that ignores SIGTERM blocks forever "
            "instead of reaching the SIGKILL backstop"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_epoch_failures.TestWaitPrimitives"
            "::test_reap_worker_kills_a_child_that_ignores_sigterm"
        ),
    ),
    Mutant(
        id="combiner-key-typo-dobfs",
        file="primitives/dobfs.py",
        anchor="            \"preds\": combine.WITNESS,\n",
        replacement="            \"pred\": combine.WITNESS,\n",
        defect=(
            "DOBFS with predecessors: preds is not declared in the "
            "RunState, so allocating it raises KeyError"
        ),
        rules=_rules(),
        tier1=(
            "tests.check.test_sanitizer_green"
            "::test_no_hazards[dobfs+preds-1]"
        ),
        problem=_PREDS,
    ),
    Mutant(
        id="combiner-key-typo-sssp",
        file="primitives/sssp.py",
        anchor=(
            "    state = RunState(arrays={\"dist\": combine.MIN, "
            "\"preds\": combine.WITNESS})\n"
        ),
        replacement=(
            "    state = RunState(arrays={\"dist\": combine.MIN, "
            "\"pred\": combine.WITNESS})\n"
        ),
        defect="the same typo in SSSP, with predecessors",
        rules=_rules(),
        tier1=(
            "tests.core.test_comm"
            "::test_frontiers_and_messages_are_int64[sssp+preds-serial]"
        ),
        problem=_PREDS,
    ),
    Mutant(
        id="undeclared-escape",
        file="primitives/pr.py",
        anchor="        per_gpu=(\"max_delta\",),\n",
        replacement="",
        defect=(
            "PageRank on processes at 2+ GPUs, run to its threshold: "
            "the workers' convergence deltas never reach the parent, "
            "which runs to max_iter (76 -> 1000 supersteps on R-MAT-10) "
            "and returns other ranks than serial"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_backend_determinism"
            "::test_processes_bit_identical_to_serial[2-pr-converged]"
        ),
    ),
    Mutant(
        id="peer-write-alias",
        file="primitives/bfs.py",
        anchor=(
            "        labels[survivors] = label_val\n"
            "        if witness and survivors.size:\n"
        ),
        replacement=(
            "        labels[survivors] = label_val\n"
            "        peer = problem.data_slices[\n"
            "            (ctx.gpu.device_id + 1) % ctx.num_gpus][\"labels\"]\n"
            "        np.minimum(peer, peer, out=peer)\n"
            "        if witness and survivors.size:\n"
        ),
        defect=(
            "BFS on processes: a GPU rewrites the next GPU's labels "
            "while that GPU's worker discovers into them, and loses "
            "some of its discoveries"
        ),
        rules=_rules("SAN201", "SAN202"),
        tier1="tests.check.test_sanitizer_green::test_no_hazards[bfs-2]",
    ),
    Mutant(
        id="peer-write-direct",
        file="primitives/bfs.py",
        anchor=(
            "        labels[survivors] = label_val\n"
            "        if witness and survivors.size:\n"
        ),
        replacement=(
            "        labels[survivors] = label_val\n"
            "        peer = (ctx.gpu.device_id + 1) % ctx.num_gpus\n"
            "        problem.data_slices[peer][\"labels\"][:] = np.minimum(\n"
            "            problem.data_slices[peer][\"labels\"],\n"
            "            problem.data_slices[peer][\"labels\"])\n"
            "        if witness and survivors.size:\n"
        ),
        defect="the same race, spelled through problem.data_slices",
        rules=_rules("SAN201", "SAN202"),
        tier1="tests.check.test_sanitizer_green::test_no_hazards[bfs-2]",
    ),
    Mutant(
        id="payload-write",
        file="primitives/bfs.py",
        anchor=(
            "        verts = msg.vertices\n"
            "        # received vertices were discovered"
        ),
        replacement=(
            "        verts = msg.vertices\n"
            "        verts[:] = verts\n"
            "        # received vertices were discovered"
        ),
        defect=(
            "BFS on processes:2: a message from the other worker is a "
            "read-only view of the exchange, so the run raises where "
            "serial succeeds"
        ),
        rules=_rules(),
        tier1=(
            "tests.check.test_negative_path.TestSanitizerFlagsBrokenRuns"
            "::test_unsafe_concurrent_write_is_san203"
        ),
    ),
    Mutant(
        id="unguarded-tracer",
        file="core/comm.py",
        anchor=(
            "    if tracer is not None:\n"
            "        tracer.instant(\n"
            "            \"comm.split\", gpu=sub.gpu_id, items=0, local=0, "
            "peers=0,\n"
            "        )\n"
            "        tracer.instant(\n"
        ),
        replacement=(
            "    tracer.instant(\n"
            "        \"comm.split\", gpu=sub.gpu_id, items=0, local=0, "
            "peers=0,\n"
            "    )\n"
            "    if tracer is not None:\n"
            "        tracer.instant(\n"
        ),
        defect=(
            "every untraced selective run with an empty frontier "
            "raises AttributeError"
        ),
        rules=_rules(),
        tier1="tests.analysis.test_analysis.TestGteps::test_gteps_positive",
    ),
    Mutant(
        id="raw-alloc-init",
        file="primitives/bfs.py",
        anchor=(
            "        ds.allocate(\"labels\", sub.num_vertices, "
            "ids.vertex_dtype,\n"
            "                    fill=INVALID_LABEL)\n"
        ),
        replacement=(
            "        ds.arrays[\"labels\"] = np.full(sub.num_vertices, "
            "INVALID_LABEL,\n"
            "                                      ids.vertex_dtype)\n"
        ),
        defect=(
            "any BFS run: the labels are not charged to the device "
            "pool, so RunMetrics.peak_memory shrinks"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[rmat-bfs-1]"
        ),
    ),
    Mutant(
        id="raw-alloc-hook",
        file="primitives/pr.py",
        anchor="        acc.fill(0.0)\n",
        replacement="        acc = np.zeros(acc.size)\n",
        defect=(
            "any PageRank run: local shares accumulate into scratch, "
            "the slice's accumulator is never reset, the ranks change"
        ),
        rules=_rules(),
        tier1=(
            "tests.analysis.test_validate.TestValidatePagerank"
            "::test_accepts_correct"
        ),
    ),
    Mutant(
        id="reversed-dispatch",
        file="core/backend.py",
        anchor=(
            "        results: List[object] = []\n"
            "        for i in gpu_indices:\n"
        ),
        replacement=(
            "        results: List[object] = []\n"
            "        for i in reversed(gpu_indices):\n"
        ),
        defect=(
            "serial at 2+ GPUs: inboxes, records and traffic counters "
            "merge in reverse GPU order, so serial and processes differ"
        ),
        rules=_rules(),
        tier1=(
            "tests.check.test_negative_path.TestSanitizerFlagsBrokenRuns"
            "::test_peer_write_is_san202"
        ),
    ),
    Mutant(
        id="reversed-merge",
        file="core/enactor.py",
        anchor=(
            "            for eff in results:\n"
            "                i = eff.gpu\n"
        ),
        replacement=(
            "            for eff in reversed(results):\n"
            "                i = eff.gpu\n"
        ),
        defect=(
            "BC at 4 GPUs: transfers are recorded in reverse GPU order "
            "and RunMetrics changes"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[rmat-bc-4]"
        ),
    ),
    Mutant(
        id="hook-arity",
        file="primitives/pr.py",
        anchor=(
            "    def should_stop(self, iteration, frontier_sizes, "
            "messages_in_flight) -> bool:\n"
        ),
        replacement=(
            "    def should_stop(self, iteration, frontier_sizes) -> bool:\n"
        ),
        defect="every PageRank run raises TypeError at the first barrier",
        rules=_rules(),
        tier1=(
            "tests.analysis.test_analysis.TestTable1Check"
            "::test_bounds_hold[pr]"
        ),
    ),
    Mutant(
        id="id-from-values",
        file="primitives/bc.py",
        anchor="            labels[verts] = msg.vertex_associates[0]\n",
        replacement="            labels[verts] = values_in\n",
        defect=(
            "BC at 2+ GPUs: the sync broadcast overwrites the mirrored "
            "depths with path counts"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_chaos_recovery"
            "::test_chaos_cell_serial[gpu-loss-bc]"
        ),
    ),
    Mutant(
        id="value-into-id",
        file="primitives/sssp.py",
        anchor=(
            "            ctx.slice[\"preds\"][fresh] = "
            "msg.vertex_associates[0].take(improved)\n"
        ),
        replacement=(
            "            ctx.slice[\"preds\"][fresh] = "
            "msg.value_associates[0].take(improved)\n"
        ),
        defect=(
            "SSSP with predecessors at 2+ GPUs: a remotely improved "
            "vertex's predecessor becomes its truncated distance"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[rmat-sssp+preds-4]"
        ),
        problem=_PREDS,
    ),
    Mutant(
        id="sampled-stop",
        file="primitives/pr.py",
        anchor=(
            "        return bool(np.max(problem.max_delta) < "
            "problem.threshold)\n"
        ),
        replacement=(
            "        probe = np.random.default_rng().integers(\n"
            "            0, problem.num_gpus, 2)\n"
            "        return bool(np.max(problem.max_delta[probe]) < "
            "problem.threshold)\n"
        ),
        defect=(
            "PageRank at 2+ GPUs: the stop decision reads a random "
            "sample of the GPUs' deltas, so the superstep count varies "
            "from run to run, and on processes the workers and the "
            "parent decide differently"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_backend_determinism"
            "::test_gpu_loss_mid_epoch_bit_identical_to_serial[pr]"
        ),
    ),
    Mutant(
        id="sampled-direction",
        file="primitives/dobfs.py",
        anchor=(
            "        visited = int((labels != INVALID_LABEL).sum())\n"
        ),
        replacement=(
            "        probe = np.random.default_rng().integers(0, labels.size, "
            "64)\n"
            "        visited = int((labels[probe] != INVALID_LABEL).sum()) "
            "* labels.size // 64\n"
        ),
        defect=(
            "DOBFS at 2+ GPUs: each process draws its own sample, so "
            "direction decisions and RunMetrics differ from run to run "
            "and between serial and processes"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[road-dobfs-1]"
        ),
    ),
    # -- no rule was written for it --------------------------------------------
    Mutant(
        id="reversed-routing",
        file="core/enactor.py",
        anchor=(
            "        for eff in results:\n"
            "            for dst, arrival, msg in eff.sends:\n"
        ),
        replacement=(
            "        for eff in reversed(results):\n"
            "            for dst, arrival, msg in eff.sends:\n"
        ),
        defect=(
            "BC at 4 GPUs: each inbox fills in reverse sender order, "
            "so sigma sums in another order"
        ),
        rules=_rules(),
        tier1=(
            "tests.core.test_kernel_bit_identity"
            "::test_equals_parent_commit_digest[rmat-bc-4]"
        ),
    ),
)

#: rules the audit removed -> the mutants written for them.  REP114
#: (combiner over-claims) has none: the sanitizer trusts a combiner when
#: it claims ``commutative or idempotent``, and every op it could name is
#: one of the two, so no over-claim changes what any run reports.
DELETED = {
    "REP101": ("hook-arity",),
    "REP102": ("combiner-key-typo-dobfs", "combiner-key-typo-sssp"),
    "REP103": ("bare-dtype",),
    "REP104": ("hot-loop",),
    "REP105": ("raw-alloc-init", "raw-alloc-hook"),
    "REP106": ("peer-write-direct",),
    "REP108": ("swallowed-oom",),
    "REP109": ("unguarded-tracer",),
    "REP110": ("id-from-values", "value-into-id"),
    "REP111": ("payload-write",),
    "REP112": ("undeclared-escape",),
    "REP113": ("reversed-dispatch", "reversed-merge"),
    "REP114": (),
    "REP115": ("sampled-stop", "sampled-direction"),
    "REP116": ("peer-write-alias", "payload-write"),
    "REP118": ("unbounded-join",),
}


# ---------------------------------------------------------------------------
# tier-1 part: the hazards column, measured here


def _hazards(mutant: Mutant) -> FrozenSet[str]:
    """Hazards of a sanitized 4-GPU run of the mutated primitive, loaded
    under a private module name; a run (or problem) that raises reports
    none."""
    import types

    from repro.core.enactor import Enactor
    from repro.graph.build import add_random_weights
    from repro.graph.generators.rmat import generate_rmat
    from repro.sim.machine import Machine

    stem = Path(mutant.file).stem
    module = types.ModuleType(f"repro.primitives._audit_{stem}")
    module.__package__ = "repro.primitives"
    exec(compile(mutant.source(), str(SRC / mutant.file), "exec"),
         module.__dict__)
    classes = {n.lower(): getattr(module, n) for n in dir(module)}
    graph = generate_rmat(7, 8, seed=3)
    if stem == "sssp":
        graph = add_random_weights(graph, 1, 64, seed=2)
    reset = {} if stem in ("cc", "pr") else {"src": 0}
    try:
        problem = classes[f"{stem}problem"](graph, Machine(4),
                                             **dict(mutant.problem))
        with Enactor(problem, classes[f"{stem}iteration"],
                     sanitize=True) as enactor:
            metrics = enactor.enact(**reset)
    except Exception:
        return frozenset()
    return frozenset(h["hazard_id"] for h in metrics.sanitizer_hazards)


def tripped(mutant: Mutant) -> FrozenSet[str]:
    """Every hazard the mutant trips."""
    if mutant.file.startswith("primitives/"):
        return _hazards(mutant)
    return frozenset()


def registered_rules() -> FrozenSet[str]:
    return frozenset({"SAN201", "SAN202", "SAN203"})


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.id)
def test_mutant_trips_exactly_its_rules(mutant):
    assert tripped(mutant) == mutant.rules


def test_catalogue_ids_unique():
    ids = [m.id for m in CATALOGUE]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("rule", sorted(registered_rules()))
def test_every_rule_catches_a_defect_tier1_misses(rule):
    assert any(rule in m.rules and rule in m.via for m in CATALOGUE), \
        f"{rule}: no catalogued defect trips it that tier-1 misses"


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.id)
def test_tier1_catches_every_mutant(mutant):
    assert mutant.tier1 is not None


def test_deleted_rules_are_gone_and_tier1_catches_their_mutants():
    by_id = {m.id: m for m in CATALOGUE}
    registered = registered_rules()
    for rule, mutants in DELETED.items():
        assert rule not in registered
        for mid in mutants:
            assert by_id[mid].tier1 is not None and not by_id[mid].via, \
                (rule, mid)


# ---------------------------------------------------------------------------
# script part: the tier-1 column, re-measured in a temporary copy

_TIER1 = ["-q", "--ignore=tests/check/test_mutation_audit.py"]

#: phrases of the sanitizer's hazard messages, by hazard
_HAZARD_TEXT = {
    "SAN201": "mid-superstep",
    "SAN202": "inter-GPU updates must travel",
    "SAN203": "written by multiple GPUs",
}


def _failures(report: Path):
    """(test id, failure text) per failed test of a JUnit report, in
    the order the suite ran them."""
    import xml.etree.ElementTree as ET

    if not report.exists():
        return []
    out = []
    for case in ET.parse(report).iter("testcase"):
        for bad in case.findall("failure") + case.findall("error"):
            text = (bad.get("message") or "") + "\n" + (bad.text or "")
            out.append((f"{case.get('classname')}::{case.get('name')}", text))
    return out


def _hazards_in(text: str) -> FrozenSet[str]:
    return frozenset(
        h for h, phrase in _HAZARD_TEXT.items()
        if h in text or phrase in text
    )


def _run_tier1(root: Path, stop_first: bool, timeout: float):
    """Failures of tier-1 under ``root`` as (test id, text); with
    ``stop_first`` only up to the first one."""
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    report = root / "tier1.xml"
    cmd = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
           f"--junitxml={report}", *(["-x"] if stop_first else []), *_TIER1]
    failures = []
    try:
        subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        failures.append((f"(timeout after {timeout:.0f} s)", ""))
    return failures + _failures(report)


def _headline(text: str) -> str:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return lines[0][:160] if lines else ""


def measure(mutant: Optional[Mutant], timeout: float = 1200.0):
    """Tier-1 on a mutated copy of the repository: (first failing
    test, the hazards that are the only reason tier-1 fails, every
    failure seen as (test, headline))."""
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-audit-") as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis"))
        if mutant is not None:
            target = root / "src" / "repro" / mutant.file
            target.write_text(mutant.source(root / "src" / "repro"),
                              encoding="utf-8")
        failures = _run_tier1(root, stop_first=True, timeout=timeout)
        if failures and _hazards_in(failures[0][1]):
            # the first failure is a sanitizer report: is every one?
            failures = _run_tier1(root, stop_first=False, timeout=timeout)
        seen = [(t, _headline(text)) for t, text in failures]
        if not failures:
            return None, frozenset(), seen
        found = [_hazards_in(text) for _, text in failures]
        via = frozenset().union(*found) if all(found) else frozenset()
        return failures[0][0], via, seen


def matrix(rows) -> str:
    """The hazard x mutant table: (mutant, hazards tripped, first tier-1
    failure, via) per row."""
    rules = sorted(registered_rules())
    lines = ["| mutant | " + " | ".join(rules) + " | tier-1 |",
             "|" + "---|" * (len(rules) + 2)]
    for mutant, hit, first, via in rows:
        if first is None:
            verdict = "**passes**"
        elif via:
            verdict = (f"fails only on the {', '.join(sorted(via))} "
                       f"report: `{first}`")
        else:
            verdict = f"fails: `{first}`"
        cells = ["✓" if r in hit else "" for r in rules]
        lines.append(f"| `{mutant.id}` | " + " | ".join(cells)
                     + f" | {verdict} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse
    import time

    p = argparse.ArgumentParser(
        description="Re-measure tier-1 on every catalogued mutant "
                    "and print the hazard x mutant table.")
    p.add_argument("--tier1", action="store_true", required=True)
    p.add_argument("--only", nargs="+", default=None, metavar="ID")
    args = p.parse_args(argv)
    chosen = [m for m in CATALOGUE
              if args.only is None or m.id in args.only]
    start = time.monotonic()
    base, _, seen = measure(None)
    if base is not None:
        print(f"tier-1 fails on the unmutated tree: {seen}")
        return 1
    rows = []
    for mutant in chosen:
        t0 = time.monotonic()
        first, via, seen = measure(mutant)
        rows.append((mutant, tripped(mutant), first, via))
        stale = first != mutant.tier1 or via != mutant.via
        print(f"{mutant.id}: {first or 'passes'}"
              f"{' via ' + ','.join(sorted(via)) if via else ''}"
              f" ({time.monotonic() - t0:.0f} s)"
              f"{'  [the catalogue says otherwise]' if stale else ''}",
              flush=True)
        for test, headline in seen:
            print(f"    {test}: {headline}", flush=True)
    print()
    print(matrix(rows))
    print(f"\n{len(rows)} mutants, {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
