"""``benchmarks/pairs.py``: the verdict each metric of a pairs run gets."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def _shifted(by):
    return [v * by for v in PARENT]


@pytest.mark.parametrize("change, better, verdict, wins", [
    (_shifted(0.7), "lower", "gain", 10),
    (_shifted(1.0 / 0.7), "higher", "gain", 10),
    (_shifted(1.3), "lower", "worse", 0),
    (_shifted(1.05), "lower", "level", 0),
    (PARENT, "lower", "level", 0),
    # nine wins of ten, medians apart by more than the parent's IQR
    (_shifted(0.7)[:9] + [2.0], "lower", "gain", 9),
    # eight wins are not enough
    (_shifted(0.7)[:8] + [2.0, 2.0], "lower", "level", 8),
])
def test_verdict(change, better, verdict, wins):
    got = pairs.compare(PARENT, change, better, bound=0.25)
    assert (got["verdict"], got["wins"]) == (verdict, wins)
    assert got["wins"] + got["ties"] + got["losses"] == len(PARENT)
    assert got["parent"]["q1"] <= got["parent"]["median"] <= got["parent"]["q3"]


def test_wide_parent_spread_is_unresolved_unless_every_run_is_better():
    noisy = [1.0, 2.0, 1.1, 1.9, 1.0, 2.1, 1.2, 1.8, 1.0, 2.0]
    assert pairs.compare(noisy, noisy[::-1], "lower", 0.1)["verdict"] == (
        "unresolved"
    )
    # ten wins, and further from the parent's median than its quartiles
    # are from each other
    assert pairs.compare(noisy, [0.2] * 10, "lower", 0.1)["verdict"] == "gain"
    # better in every run, yet by less than the parent's own spread
    slightly = pairs.compare(noisy, [0.99] * 10, "lower", 0.1)
    assert slightly["verdict"] == "level"


def test_table_has_a_row_per_workload_and_metric():
    doc = {"workloads": {
        "w1": {"m": pairs.compare(PARENT, _shifted(0.7), "lower", 0.25)},
        "w2": {"m": pairs.compare(PARENT, PARENT, "lower", 0.25)},
    }}
    rows = pairs.table(doc).splitlines()
    assert len(rows) == 2 + 2
    assert "| w1 | m |" in rows[2] and "-30.0%" in rows[2] and "gain" in rows[2]
    assert "10/0/0" in rows[2] and "0/10/0" in rows[3]


_BENCH_FILES = sorted(_PATH.parent.parent.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", _BENCH_FILES, ids=lambda p: p.name)
def test_committed_bench_file_recomputes(path):
    """Every committed ``BENCH_<n>.json`` is what ``pairs.py`` writes:
    its schema, its PR number, ``pairs`` runs per side of every metric,
    and each verdict and win count as ``compare`` gives them from the
    stored runs and bound."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["schema"] == pairs.SCHEMA
    assert doc["pr"] == path.stem.removeprefix("BENCH_")
    assert doc["workloads"]
    for workload, metrics in doc["workloads"].items():
        for name, stored in metrics.items():
            parent, change = stored["parent"]["runs"], stored["change"]["runs"]
            assert len(parent) == len(change) == doc["pairs"], (workload, name)
            again = pairs.compare(parent, change, stored["better"],
                                  stored["bound"])
            for key in ("verdict", "wins", "ties", "losses"):
                assert again[key] == stored[key], (workload, name, key)


def test_trajectory_reads_every_committed_file(capsys):
    root = _PATH.parent.parent
    committed = sorted(root.glob("BENCH_*.json"))
    assert committed, "no committed BENCH_<n>.json"
    docs = pairs.load_committed(str(root))  # raises at another schema
    assert len(docs) == len(committed)
    numbers = [int(doc["pr"]) for doc in docs]
    assert numbers == sorted(numbers)
    assert pairs.main(["--trajectory", "--dir", str(root)]) == 0
    out = capsys.readouterr().out
    sections = {
        block.split("\n", 1)[0]: block
        for block in out.split("### ")[1:]
    }
    verdicts = ("gain", "worse", "unresolved", "level")
    for doc in docs:
        for workload, metrics in doc["workloads"].items():
            rows = [line for line in sections[workload].splitlines()
                    if line.startswith(f"| {doc['pr']} |")]
            assert len(rows) == 1
            cells = rows[0].strip("| ").split(" | ")[1:]
            assert len(cells) >= len(metrics)
            for cell in cells:
                assert cell == "—" or cell.split(" ")[1] in verdicts


def test_trajectory_rejects_a_file_at_another_schema(tmp_path):
    doc = {"schema": pairs.SCHEMA, "pr": "7", "workloads": {"w": {
        "m": pairs.compare(PARENT, _shifted(0.7), "lower", 0.25)}}}
    (tmp_path / "BENCH_7.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_12.json").write_text(json.dumps({**doc, "pr": "12"}))
    assert [d["pr"] for d in pairs.load_committed(str(tmp_path))] == [
        "7", "12"]
    table = pairs.trajectory(pairs.load_committed(str(tmp_path)))
    assert "| 7 | 0.7 gain |" in table and "| 12 | 0.7 gain |" in table
    (tmp_path / "BENCH_13.json").write_text(
        json.dumps({**doc, "schema": pairs.SCHEMA + 1}))
    with pytest.raises(ValueError, match="schema"):
        pairs.load_committed(str(tmp_path))
