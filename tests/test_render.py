import hashlib

from tamari.blossoming import from_interval
from tamari.intervals import interval_from_text
from tamari.meandering import MeanderingDiagram, from_tree_pair
from tamari.render import render_blossoming, render_meandering, render_smooth
from tamari.sampler import RandomSource, sample_interval


def test_size_one_meandering_has_two_arcs():
    fig = render_meandering(MeanderingDiagram((0,), (1,)))
    assert fig.svg.count('<path class="arc') == 2


def test_rendering_is_deterministic():
    interval = interval_from_text("UDUD|UUDD")
    m = from_tree_pair(interval.lower, interval.upper)
    assert render_meandering(m).to_bytes() == render_meandering(m).to_bytes()
    assert render_smooth(interval).to_bytes() == render_smooth(interval).to_bytes()
    b = from_interval(interval)
    assert render_blossoming(b).to_bytes() == render_blossoming(b).to_bytes()


def test_blossoming_figure_has_buds():
    interval = interval_from_text("UDUD|UUDD")
    svg = render_blossoming(from_interval(interval)).svg
    assert svg.count('class="bud"') == 6
    assert svg.count('class="bud-head"') == 6


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
