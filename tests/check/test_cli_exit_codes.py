"""``repro check`` CLI exit-code contract: 0 clean / 1 findings /
2 usage error — for both output modes and the deep tier."""

import io
import json

import pytest

from repro.check.deep.schedules import TRACE_VERSION
from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


CLEAN_SRC = '''
"""doc"""
import numpy as np
'''

BAD_SRC = '''
"""doc"""
import numpy as np
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase


class ToyIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        total = sum(x for x in frontier)
        return frontier, []
'''

TOY_REJECT = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.combine import Combiner


class ToyProblem(ProblemBase):
    combiners = {"state": Combiner("overwrite", commutative=True)}
'''


@pytest.fixture
def clean_file(tmp_path):
    p = tmp_path / "clean.py"
    p.write_text(CLEAN_SRC, encoding="utf-8")
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.py"
    p.write_text(BAD_SRC, encoding="utf-8")
    return str(p)


class TestExitCodes:
    def test_clean_is_zero(self, clean_file):
        code, out = run_cli("check", clean_file)
        assert code == 0
        assert "clean" in out

    def test_clean_json_is_zero(self, clean_file):
        code, out = run_cli("check", "--json", clean_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["findings"] == []

    def test_findings_is_one(self, bad_file):
        code, out = run_cli("check", bad_file)
        assert code == 1
        assert "REP" in out

    def test_findings_json_is_one(self, bad_file):
        code, out = run_cli("check", "--json", bad_file)
        assert code == 1
        doc = json.loads(out)
        assert doc["count"] >= 1
        assert all("rule_id" in f for f in doc["findings"])

    def test_missing_path_is_two(self, tmp_path):
        code, _ = run_cli("check", str(tmp_path / "nope.py"))
        assert code == 2

    def test_non_python_file_is_two(self, tmp_path):
        p = tmp_path / "notes.txt"
        p.write_text("hello", encoding="utf-8")
        code, _ = run_cli("check", str(p))
        assert code == 2

    def test_unknown_flag_is_usage_error(self, clean_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("check", "--frobnicate", clean_file)
        assert exc.value.code == 2

    def test_trace_out_without_mc_is_usage_error(self, clean_file,
                                                  tmp_path, capsys):
        for tier in ([], ["--deep"]):
            outdir = tmp_path / "traces"
            code, out = run_cli("check", *tier, "--trace-out",
                                str(outdir), clean_file)
            assert code == 2 and out == ""
            assert "--trace-out requires --mc" in capsys.readouterr().err
            assert not outdir.exists()


class TestDeepCli:
    def test_deep_clean_is_zero_with_certificates(self, clean_file):
        code, out = run_cli("check", "--deep", clean_file)
        assert code == 0
        assert "barrier discipline: " in out

    def test_deep_rejects_toy_primitive(self, tmp_path):
        p = tmp_path / "toy.py"
        p.write_text(TOY_REJECT, encoding="utf-8")
        code, out = run_cli("check", "--deep", str(p))
        assert code == 1
        assert "REP114" in out and "counterexample" in out

    def test_deep_json_carries_certificates_and_barrier(self, tmp_path):
        p = tmp_path / "toy.py"
        p.write_text(TOY_REJECT, encoding="utf-8")
        code, out = run_cli("check", "--deep", "--json", str(p))
        assert code == 1
        doc = json.loads(out)
        assert doc["by_rule"].get("REP114", 0) >= 1
        assert doc["barrier"]["all_proved"] is True
        assert any(c["status"] == "refuted" for c in doc["certificates"])

    def test_sarif_stdout(self, tmp_path):
        p = tmp_path / "toy.py"
        p.write_text(TOY_REJECT, encoding="utf-8")
        # --sarif takes an optional FILE, so the path comes first
        code, out = run_cli("check", "--deep", str(p), "--sarif")
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == "2.1.0"
        assert any(
            r["ruleId"] == "REP114" for r in doc["runs"][0]["results"]
        )

    def test_sarif_file_written(self, bad_file, tmp_path):
        sarif_path = tmp_path / "out.sarif"
        code, _ = run_cli(
            "check", "--sarif", str(sarif_path), bad_file
        )
        assert code == 1
        doc = json.loads(sarif_path.read_text(encoding="utf-8"))
        assert doc["runs"][0]["results"]


MC_UNSAFE_SRC = '''
"""doc"""
from repro.core.problem import ProblemBase
from repro.core.iteration import IterationBase
from repro.core.combine import Combiner


class PokeProblem(ProblemBase):
    combiners = {"state": Combiner("min", commutative=True,
                                   idempotent=True)}


class PokeIteration(IterationBase):
    def full_queue_core(self, ctx, frontier):
        peer = self.problem.data_slices[1]["state"]
        peer[frontier] = ctx.slice["state"][frontier] + 1
        return frontier, []

    def expand_incoming(self, ctx, msg):
        return msg
'''


class TestMcCli:
    """--mc follows the same 0/1/2 contract as the other tiers."""

    def test_mc_clean_is_zero_with_certificates(self, clean_file):
        code, out = run_cli("check", "--mc", clean_file)
        assert code == 0
        assert "schedule certificates:" in out

    def test_mc_findings_is_one(self, tmp_path):
        p = tmp_path / "poke.py"
        p.write_text(MC_UNSAFE_SRC, encoding="utf-8")
        code, out = run_cli("check", "--mc", str(p))
        assert code == 1
        assert "REP116" in out
        assert "non-deterministic [refuted]" in out

    def test_mc_json_carries_schedule_certificates(self, tmp_path):
        p = tmp_path / "poke.py"
        p.write_text(MC_UNSAFE_SRC, encoding="utf-8")
        code, out = run_cli(
            "check", "--mc", "--json", str(p))
        assert code == 1
        doc = json.loads(out)
        assert doc["by_rule"].get("REP116", 0) == 1
        certs = doc["schedule_certificates"]
        assert certs and certs[0]["primitive"] == "PokeIteration"
        assert certs[0]["counterexample"] is not None

    def test_mc_missing_path_is_two(self, tmp_path):
        code, _ = run_cli(
            "check", "--mc", str(tmp_path / "nope.py"))
        assert code == 2

    def test_mc_sarif_has_rule_metadata(self, tmp_path):
        p = tmp_path / "poke.py"
        p.write_text(MC_UNSAFE_SRC, encoding="utf-8")
        code, out = run_cli(
            "check", "--mc", str(p), "--sarif")
        assert code == 1
        doc = json.loads(out)
        rules = {r["id"]: r
                 for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert rules["REP116"]["defaultConfiguration"]["level"] == "error"
        assert "fullDescription" in rules["REP116"]

    def test_mc_trace_out_writes_replayable_pair(self, tmp_path):
        p = tmp_path / "poke.py"
        p.write_text(MC_UNSAFE_SRC, encoding="utf-8")
        outdir = tmp_path / "traces"
        code, out = run_cli("check", "--mc",
                            "--trace-out", str(outdir), str(p))
        assert code == 1
        assert (outdir / "PokeIteration.schedule.json").exists()
        assert (outdir / "PokeIteration.trace.json").exists()
        doc = json.loads((outdir / "PokeIteration.schedule.json")
                         .read_text(encoding="utf-8"))
        assert doc["witness"]["version"] == TRACE_VERSION
        assert doc["witness"]["final_state"] != \
            doc["divergent"]["final_state"]
