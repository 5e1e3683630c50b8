"""The comparison and --allow logic of tools/digests.py, on fake digests.

The real digests depend on the libm and numpy build, so none is pinned here;
running the set itself is `python tools/digests.py --against REV`.
"""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "digests.py")


@pytest.fixture
def digests():
    spec = importlib.util.spec_from_file_location("digests_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = {"train/resolved_config.json": "a1", "train/train_metrics.csv": "b1",
        "sweep/resolved_config.json": "c1", "compare/old.csv": "d1"}


def test_differing_names_changed_added_and_removed(digests):
    head = {**BASE, "train/resolved_config.json": "a2", "serve/session.jsonl": "e1"}
    del head["compare/old.csv"]
    assert digests.differing(BASE, head) == [
        "compare/old.csv", "serve/session.jsonl", "train/resolved_config.json"]
    assert digests.differing(BASE, dict(BASE)) == []


def test_allow_matches_a_full_name_or_a_file_name(digests):
    names = ["sweep/resolved_config.json", "train/resolved_config.json",
             "train/train_metrics.csv"]
    assert digests.disallowed(names, ["resolved_config.json"]) == \
        ["train/train_metrics.csv"]
    assert digests.disallowed(names, ["train/resolved_config.json"]) == \
        ["sweep/resolved_config.json", "train/train_metrics.csv"]
    assert digests.disallowed(names, ["metrics.csv", "train"]) == names


@pytest.mark.parametrize("head, allow, code", [
    (BASE, [], 0),
    ({**BASE, "sweep/resolved_config.json": "c2"}, [], 1),
    ({**BASE, "sweep/resolved_config.json": "c2"}, ["resolved_config.json"], 0),
    ({**BASE, "train/train_metrics.csv": "b2"}, ["resolved_config.json"], 1),
])
def test_exit_code(digests, monkeypatch, capsys, head, allow, code):
    # The working tree's run comes first, then REV's.
    runs = iter([head, BASE])
    monkeypatch.setattr(digests, "run_set", lambda tree, work: next(runs))
    monkeypatch.setattr(digests, "_archive", lambda rev, dest: None)
    argv = ["--against", "REV"] + (["--allow", *allow] if allow else [])
    assert digests.main(argv) == code
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{n} {d}" for n, d in sorted(head.items())]
    changed = [n for n in sorted(head) if head[n] != BASE[n]]
    assert err.splitlines()[:-1] == [f"differs: {n}" for n in changed]


def test_bad_rev_fails_before_any_job(digests, monkeypatch, capsys):
    def run_set(tree, work):
        raise AssertionError("a job ran before the REV was archived")

    monkeypatch.setattr(digests, "run_set", run_set)
    assert digests.main(["--against", "no-such-rev^{tree}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("cannot archive no-such-rev^{tree}: ")
