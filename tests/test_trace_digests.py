import contextlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("trace_digests", ROOT / "tools" / "trace_digests.py")
trace_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_digests)


def test_differing_prints_only_the_lines_that_differ():
    parent = ["a  moons_tuner/11/trace_seed1.csv", "b  moons_tuner/11/per_seed[1]", "c  linreg_tiny/11/trace_seed1.csv"]
    assert trace_digests.differing(parent, list(parent)) == []
    change = [parent[0], "x  moons_tuner/11/per_seed[1]", parent[2]]
    assert trace_digests.differing(parent, change) == [
        "- b  moons_tuner/11/per_seed[1]",
        "+ x  moons_tuner/11/per_seed[1]",
    ]
    # A listing that ends early differs at each line the other has beyond it.
    assert trace_digests.differing(parent, parent[:1]) == ["- " + parent[1], "- " + parent[2]]
    assert trace_digests.differing(parent[:2], parent) == ["+ " + parent[2]]


def test_parent_compares_the_same_runs_from_both_trees(monkeypatch, capsys, tmp_path):
    trained = []
    digests = {tmp_path / "parent": ["a  one", "b  two", "c  three"], ROOT: ["a  one", "B  two", "c  three"]}

    def run_digests(root, runs):
        trained.append((root, [label for label, _ in runs]))
        return iter(digests[root])

    @contextlib.contextmanager
    def checked_out(rev):
        assert rev == "HEAD~1"
        yield tmp_path / "parent"

    monkeypatch.setattr(trace_digests, "run_digests", run_digests)
    monkeypatch.setattr(trace_digests, "checked_out", checked_out)
    assert trace_digests.main(["--seeds", "11", "--parent", "HEAD~1"]) == 1
    assert capsys.readouterr().out == "- b  two\n+ B  two\n"
    [(parent_root, parent_runs), (change_root, change_runs)] = trained
    assert (parent_root, change_root) == (tmp_path / "parent", ROOT)
    assert parent_runs == change_runs
    assert len(parent_runs) == len(trace_digests.WORKLOADS) + len(list((ROOT / "configs").glob("*.json")))

    digests[ROOT] = digests[tmp_path / "parent"]
    assert trace_digests.main(["--seeds", "11", "--parent", "HEAD~1"]) == 0
    assert capsys.readouterr().out == ""


def test_train_passes_the_environment_to_its_child(monkeypatch, tmp_path):
    # A second BLAS kernel is checked by setting OPENBLAS_CORETYPE for the whole command.
    children = []
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.setattr(trace_digests.subprocess, "run", lambda argv, env, check: children.append((argv, env)))
    trace_digests.train(tmp_path / "tree", {"epochs": 1}, tmp_path / "out")
    [(argv, env)] = children
    assert env["OPENBLAS_CORETYPE"] == "Haswell"
    assert env["PYTHONPATH"] == str(tmp_path / "tree" / "src")
    assert argv[1:4] == ["-m", "quadtune.cli", "train"]
    assert json.loads((tmp_path / "out" / "config.json").read_text()) == {"epochs": 1, "out_dir": str(tmp_path / "out")}
