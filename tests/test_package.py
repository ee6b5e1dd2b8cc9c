"""Guards for deletions and boundaries: every export names something that
exists, every public entry point rejects what it cannot take, and every
demo still runs."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import tamari
from tamari import (
    blossoming,
    cli,
    counting,
    errors,
    intervals,
    meandering,
    render,
    sampler,
    trees,
    verify,
)

ROOT = Path(__file__).resolve().parent.parent
MODULES = [blossoming, cli, counting, intervals, meandering, render, sampler, trees, verify]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_are_module_exports():
    exported = {name for module in MODULES for name in module.__all__}
    exported.update(name for name in vars(errors) if not name.startswith("_"))
    public = {
        name
        for name, value in vars(tamari).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public - exported) == []


def test_counting_binds_nothing_from_blossoming():
    # counting only computes; holding its answers to the blossoming
    # classifiers is tamari.verify's work
    bound = [
        name
        for name, value in vars(counting).items()
        if getattr(value, "__module__", None) == "tamari.blossoming"
    ]
    assert bound == []


Diagram = meandering.MeanderingDiagram
ONE, TWO = (trees.enumerate_binary_trees(n)[0] for n in (1, 2))

REJECTIONS = {
    "diagram-lengths": (lambda: Diagram((0,), ()), errors.InvalidDiagram),
    "diagram-json-size": (
        lambda: meandering.diagram_from_json('{"n":3,"up":[0],"lo":[1]}'), errors.InvalidDiagram
    ),
    # two arcs join black points 0 and 2: a cycle
    "compose-non-tree": (
        lambda: meandering.compose(Diagram((0, 0), (2, 2)), Diagram((), ()), 0),
        errors.InvalidDecomposition,
    ),
    "valid-shifts-negative": (
        lambda: sampler.valid_shifts((-1, 0, 0, 0, 0, 1)), errors.InvalidSequence
    ),
    "below-zero": (lambda: sampler.RandomSource(1).below(0), ValueError),
    "below-past-64-bits": (lambda: sampler.RandomSource(1).below(2**64 + 1), ValueError),
    "binary-tree-one-child": (lambda: trees.BinaryTree(trees.LEAF, None), ValueError),
    "canopy-leaf": (lambda: trees.canopy(trees.LEAF), errors.UnsupportedSize),
    "enumerate-negative": (lambda: trees.enumerate_binary_trees(-1), ValueError),
    "tree-pair-leaves": (
        lambda: meandering.from_tree_pair(trees.LEAF, trees.LEAF), errors.UnsupportedSize
    ),
    "decompose-empty": (lambda: meandering.decompose(Diagram((), ())), errors.UnsupportedSize),
    "k-modern-negative": (
        lambda: intervals.is_k_modern(intervals.make_interval(ONE, ONE), -1), ValueError
    ),
    "smooth-unequal-sizes": (lambda: intervals.smooth_flawed_pairs(ONE, TWO), errors.SizeMismatch),
    "self-dual-zero": (
        lambda: counting.count_self_dual(counting.Family.GENERAL, 0), errors.UnsupportedSize
    ),
    "canopy-matches-negative": (
        lambda: counting.count_by_canopy_matches(1, -1), errors.UnsupportedSize
    ),
    "synchronized-types-zero": (
        lambda: counting.count_synchronized_by_types(0, 1), errors.UnsupportedSize
    ),
    "narayana-zero": (lambda: counting.narayana(0, 1), errors.UnsupportedSize),
}


@pytest.mark.parametrize("call, error", REJECTIONS.values(), ids=list(REJECTIONS))
def test_public_entry_points_reject_what_they_cannot_take(call, error):
    with pytest.raises(error):
        call()


def _source_env():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("module", ["tamari", "tamari.cli"])
def test_python_m_runs_the_command_line(module, tmp_path):
    # -S leaves site-packages off the path: the package needs only the stdlib
    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-S", "-m", module, *argv],
            cwd=tmp_path, env=_source_env(), capture_output=True, text=True,
        )

    done = python_m("count", "--n", "3")
    assert (done.returncode, done.stdout, done.stderr) == (0, "13\n", "")
    done = python_m("verify", "--max-n", "9")
    assert (done.returncode, done.stdout) == (1, "")
    [line] = done.stderr.splitlines()
    assert json.loads(line)["error"] == "UnsupportedSize"


def test_the_command_line_loads_the_oracle_suite_only_to_verify(tmp_path):
    # every command-line call imports tamari.cli; only `verify` needs
    # tamari.verify, about an eighth of the package's source
    code = "import sys, tamari.cli; print('tamari.verify' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=tmp_path, env=_source_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_large_objects_travel_as_files(tmp_path):
    # Linux caps one argv string at 128 KiB and an interval of size 50,000
    # is 200 kB of text, so every object argument also takes @path and -;
    # a bad object of that size gives one short JSON error line
    def tamari(*argv, stdin=None, code=0):
        done = subprocess.run(
            [sys.executable, "-m", "tamari", *argv],
            cwd=tmp_path, env=_source_env(), input=stdin, capture_output=True, text=True,
        )
        assert done.returncode == code
        if code:
            [line] = done.stderr.splitlines()
            assert done.stdout == "" and len(line.encode()) <= 200
            return json.loads(line)["error"]
        assert done.stderr == ""
        return done.stdout

    assert tamari("sample", "--size", "50000", "--seed", "5", "--out", "f") == ""
    text = (tmp_path / "f").read_text()
    assert len(text) == 4 * 50_000 + 2
    assert tamari("classify", "@f").startswith(text[:-1] + "  ")
    (tmp_path / "g").write_text(tamari("map", "@f"))
    assert tamari("unmap", "@g") == text
    assert tamari("unmap", "-", stdin=(tmp_path / "g").read_text()) == text
    assert tamari("render", "@f", "--out", "h.svg") == ""
    assert (tmp_path / "h.svg").read_bytes().startswith(b"<svg ")

    n = 50_000  # lower arcs [t, t + 1] and [t + 1, t + 2] cross
    crossing = {"n": n, "up": [0] * n, "lo": [*range(2, n + 1), n]}
    (tmp_path / "bad.json").write_text(json.dumps(crossing))
    assert tamari("unmap", "@bad.json", code=1) == "InvalidDiagram"
    dips = "UD" * (n // 2) + "DU" + "UD" * (n // 2 - 1)
    (tmp_path / "bad.txt").write_text(f"{dips}|{text[:-1].partition('|')[2]}")
    assert tamari("classify", "@bad.txt", code=1) == "InvalidDyckWord"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=_source_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
