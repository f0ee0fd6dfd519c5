"""``repro check`` CLI exit-code contract: 0 clean / 1 findings /
2 usage error — for both output modes."""

import io
import json

import pytest

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

    def test_mc_is_usage_error(self, clean_file, tmp_path):
        # the model checker and the deep tier are gone
        outdir = tmp_path / "traces"
        for flags in (["--mc"], ["--deep"],
                      ["--trace-out", str(outdir)]):
            with pytest.raises(SystemExit) as exc:
                run_cli("check", *flags, clean_file)
            assert exc.value.code == 2
        assert not outdir.exists()
