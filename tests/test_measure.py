"""``scripts/measure.py``, the fresh-process measurement harness: every
function it times exists, its ladder walks are the pinned ones, and an item
run against the same checkout gives one digest, the benchmark's."""

import importlib.util
import sys
from pathlib import Path

import pytest
from test_hosting_oracle import LADDER_WALKS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("measure", ROOT / "scripts" / "measure.py")
measure = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(measure)


@pytest.mark.parametrize("path", measure.STAGES)
def test_every_timed_function_exists(path):
    # a renamed function fails here rather than drop its stage
    held, attr = measure.owner(path)
    assert callable(getattr(held, attr))


def test_the_ladder_walks_case_runs_the_pinned_walks():
    items = measure.ladder_walks(ROOT, 0)
    assert [item.label for item in items] == list(LADDER_WALKS)
    for item in items:
        assert item.steps == [["simulate", "--scheme", "centralized", *item.label.split()]]


def test_an_item_against_its_own_checkout_gives_one_digest(monkeypatch, capsys):
    # the cheapest item, the bounds sweep; drawing the items puts the
    # checkout's src/ and perfbench/ on the path
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    item = next(i for i in measure.cli_startup(ROOT, 0) if "--scheme bounds" in i.label)
    assert measure.measure([item], {"base": ROOT, "head": ROOT}, 1) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith(("  base ", "  head "))]
    recorded = sys.modules["workloads"].EXPECTED[item.label]["stdout_sha256"]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("base", "0", recorded[:16]), ("head", "0", recorded[:16])
    ]


def test_the_central_ops_case_runs_each_benchmark_op_alone(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    items = measure.central_ops(ROOT, 7)
    ops = sys.modules["workloads"].build_ops("central_fluid", 7)
    assert [item.label for item in items] == [op.key for op in ops]
    for item, op in zip(items, ops):
        [step] = item.steps
        assert (step["scheme"], step["mode"], tuple(step["demands"]), step["seed"]) == (
            op.scheme, op.mode, op.demands, op.seed)
