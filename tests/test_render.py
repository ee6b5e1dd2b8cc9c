import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tamari import render
from tamari.blossoming import from_interval
from tamari.cli import run
from tamari.intervals import interval_to_text
from tamari.meandering import MeanderingDiagram, from_tree_pair
from tamari.render import BLOCK, render_blossoming, render_meandering, render_smooth
from tamari.sampler import RandomSource, sample_blossoming, sample_interval


def test_size_one_meandering_has_two_arcs():
    fig = render_meandering(MeanderingDiagram((0,), (1,)))
    assert fig.svg.count('<path class="arc') == 2


#: SHA-256 of the three figures of the first seed-2718 draw of size 300.
#: The golden files are only n = 2; these pin every element at scale.
PINNED_N300 = {
    "smooth": "6530e72b5b5975e756373006ec095b36bfee429db5fdb2b7079d05e8b32dad0d",
    "meandering": "00b549fd05b686c06eb142740c764d99535bd595503207b36db24e914c67eb55",
    "blossoming": "c863349769fc65463a205535dc2f44190258637b86ce5c66fd97a0a1d00eaa23",
}


def test_large_figures_are_pinned():
    interval = sample_interval(300, RandomSource(2718))
    m = from_tree_pair(interval.lower, interval.upper)
    figures = {
        "smooth": render_smooth(interval),
        "meandering": render_meandering(m),
        "blossoming": render_blossoming(from_interval(interval)),
    }
    digests = {name: hashlib.sha256(fig.to_bytes()).hexdigest() for name, fig in figures.items()}
    assert digests == PINNED_N300


def test_streamed_figures_are_pinned(tmp_path, monkeypatch):
    # the command line writes each figure block by block, to stdout or --out;
    # blocks of 7 rows put many block boundaries inside the pinned figures
    text = interval_to_text(sample_interval(300, RandomSource(2718)))
    path = tmp_path / "figure.svg"
    for block in (BLOCK, 7):
        monkeypatch.setattr(render, "BLOCK", block)
        for style, digest in PINNED_N300.items():
            out = io.StringIO()
            assert run(["render", text, "--style", style], out=out) == 0
            assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
            assert run(["render", text, "--style", style, "--out", str(path)]) == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    monkeypatch.undo()
    assert BLOCK < 10_000
    out = io.StringIO()
    assert run(["sample", "--size", "10000", "--seed", "5", "--format", "svg"], out=out) == 0
    assert out.getvalue() == render_blossoming(sample_blossoming(10_000, RandomSource(5))).svg


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_streamed_figure_keeps_memory_bounded(tmp_path):
    # the n = 10^5 blossoming figure is 86 MB of text; streamed, the process
    # that writes it peaks below 100 MiB.  The child reads its own VmHWM:
    # Linux carries the spawning process's peak across exec into the
    # child's RUSAGE_SELF ru_maxrss.
    source = tmp_path / "interval.txt"
    source.write_text(interval_to_text(sample_interval(100_000, RandomSource(3))))
    code = (
        "import sys\n"
        "from tamari.cli import run\n"
        "argv = ['render', '@' + sys.argv[1], '--style', 'blossoming', '--out', sys.argv[2]]\n"
        "code = run(argv)\n"
        "with open('/proc/self/status') as status:\n"
        "    (peak,) = [line.split()[1] for line in status if line.startswith('VmHWM:')]\n"
        "print(code, peak)\n"
    )
    src = [str(Path(render.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, src)))
    argv = [sys.executable, "-c", code, str(source), str(tmp_path / "figure.svg")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    exit_code, peak_kib = map(int, done.stdout.split())
    assert exit_code == 0
    assert peak_kib <= 100 * 1024
