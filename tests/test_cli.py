import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamari.blossoming import from_interval
from tamari.cli import _build_parser, run
from tamari.counting import Family, count
from tamari.intervals import enumerate_intervals, interval_to_text
from tamari.render import render_blossoming
from tamari.sampler import RandomSource, sample_interval
from tamari.verify import CHECK_NAMES


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_count_command():
    code, text = invoke(["count", "--family", "general", "--n", "4"])
    assert code == 0 and text.strip() == "68"


def test_count_refined_and_self_dual():
    code, text = invoke(["count", "--n", "2", "--k", "0"])
    assert code == 0 and text.strip() == "1"
    code, text = invoke(["count", "--n", "5", "--self-dual", "--json"])
    assert code == 0
    assert json.loads(text) == {"family": "general", "n": 5, "count": 15, "self_dual": True}


@pytest.mark.parametrize("family", [Family.GENERAL, Family.KREWERAS])
def test_count_prints_exact_values_past_the_digit_limit(family):
    # the count at n = 10^4 has about 9,800 digits, past Python's default
    # int-to-str limit of 4,300; the command lifts the limit only to print
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(count(family, 10_000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300
    argv = ["count", "--family", family.value, "--n", "10000"]
    assert invoke(argv) == (0, expected + "\n")
    code, text = invoke(argv + ["--json"])
    assert code == 0
    assert text == f'{{"family":"{family.value}","n":10000,"count":{expected}}}\n'
    assert sys.get_int_max_str_digits() == limit


def test_map_command():
    code, text = invoke(["map", "UDUD|UUDD"])
    assert code == 0
    assert text.strip() == '{"n":2,"up":[0,1],"lo":[1,2]}'


def test_unmap_command():
    code, text = invoke(["unmap", '{"n":2,"up":[0,1],"lo":[1,2]}'])
    assert code == 0 and text.strip() == "UDUD|UUDD"


def test_map_unmap_round_trip_text_interface():
    for n in range(1, 7):
        for interval in enumerate_intervals(n):
            text = interval_to_text(interval)
            code, mapped = invoke(["map", text])
            assert code == 0
            code, back = invoke(["unmap", mapped.strip()])
            assert code == 0
            assert back.strip() == text


def test_classify_command():
    code, text = invoke(["classify", "UDUD|UUDD", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["n"] == 2
    assert payload["synchronized"] is False
    assert payload["modern"] is True
    assert payload["self_dual"] is True
    assert payload["canopy_counts"] == [1, 1, 1]


def test_enumerate_command():
    code, text = invoke(["enumerate", "--n", "2"])
    assert code == 0
    assert sorted(text.split()) == ["UDUD|UDUD", "UDUD|UUDD", "UUDD|UUDD"]
    code, text = invoke(["enumerate", "--n", "3", "--family", "kreweras"])
    assert code == 0 and len(text.split()) == 12


def test_sample_command_deterministic():
    code, first = invoke(["sample", "--size", "4", "--count", "5", "--seed", "9"])
    assert code == 0 and len(first.split()) == 5
    code, second = invoke(["sample", "--size", "4", "--count", "5", "--seed", "9"])
    assert first == second
    code, blossoming = invoke(
        ["sample", "--size", "3", "--count", "2", "--seed", "1", "--format", "blossoming"]
    )
    assert code == 0
    for line in blossoming.strip().splitlines():
        assert json.loads(line)["n"] == 3


def test_sample_out_writes_the_bytes_of_stdout(tmp_path):
    argv = ["sample", "--size", "5", "--count", "40", "--seed", "3"]
    code, text = invoke(argv)
    path = tmp_path / "sample.txt"
    assert code == 0 and invoke(argv + ["--out", str(path)]) == (0, "")
    assert path.read_bytes() == text.encode()


def test_sample_svg(tmp_path):
    path = tmp_path / "sample.svg"
    code, _ = invoke(
        ["sample", "--size", "3", "--seed", "7", "--format", "svg", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text().startswith("<svg")


def test_render_command(tmp_path):
    path = tmp_path / "figure.svg"
    code, _ = invoke(["render", "UDUD|UUDD", "--style", "smooth", "--out", str(path)])
    assert code == 0
    assert path.read_text().count('<path class="arc') == 4
    code, text = invoke(["render", "UDUD|UUDD"])
    assert code == 0 and text.startswith("<svg")


def test_render_blossoming_draws_the_interval_own_diagram():
    rng = RandomSource(31)
    intervals = [i for n in range(1, 5) for i in enumerate_intervals(n)]
    intervals += [sample_interval(n, rng) for n in (50, 500) for _ in range(3)]
    for interval in intervals:
        code, text = invoke(["render", interval_to_text(interval), "--style", "blossoming"])
        assert code == 0
        assert text == render_blossoming(from_interval(interval)).svg


def test_series_command():
    code, text = invoke(["series", "--n", "3", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert {"i": 1, "j": 1, "m": 0, "count": 1} in rows
    code, text = invoke(["series", "--n", "3"])
    assert code == 0
    assert text.splitlines() == [
        "  i  j  m  count",
        "  1  1  0  1",
        "  1  1  1  1",
        "  1  2  0  1",
        "  2  1  0  1",
    ]


def test_tally_command():
    code, text = invoke(["tally", "--n", "3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["total"] == 13
    assert payload["families"]["kreweras"] == 12
    assert payload["self_dual_total"] == 3
    code, text = invoke(["tally", "--n", "2"])
    assert code == 0 and "3 intervals" in text


def test_verify_command_small():
    code, text = invoke(["verify", "--max-n", "3"])
    assert code == 0
    assert "FAIL" not in text
    total = len(CHECK_NAMES)
    lines = [line for line in text.splitlines() if line.startswith("PASS")]
    assert len(lines) == total
    assert text.splitlines()[-1] == f"{total}/{total} checks passed at max size 3"
    code, text = invoke(["verify", "--max-n", "3", "--json"])
    assert code == 0
    rows = json.loads(text)
    assert [row["check"] for row in rows] == CHECK_NAMES
    for row in rows:
        assert set(row) == {"check", "passed", "detail", "checked", "seconds"}
        assert row["passed"] and row["checked"] > 0 and row["seconds"] >= 0


#: SHA-256 of the concatenated stdout of ``PINNED_ARGVS``.  A change that
#: alters CLI output on purpose updates it and says so in CHANGES.md.
PINNED_STDOUT = "643581bf788ac3a0e49179fb74a446cc89f784f207e65e44f93c6c073fd59619"
PINNED_ARGVS = [
    ["verify", "--max-n", "5"],
    ["sample", "--size", "200", "--count", "5", "--seed", "7"],
    ["sample", "--size", "200", "--count", "5", "--seed", "7", "--format", "blossoming"],
    ["tally", "--n", "6", "--json"],
    ["series", "--n", "5", "--json"],
    ["count", "--n", "50", "--self-dual"],
    ["enumerate", "--n", "4", "--json"],
    ["classify", "UUDUDD|UUUDDD", "--json"],
    ["map", "UUDUDD|UUUDDD"],
]


def test_cli_stdout_is_pinned():
    out = io.StringIO()
    for argv in PINNED_ARGVS:
        assert run(argv, out=out) == 0, argv
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED_STDOUT


def test_error_paths(capsys):
    code, _ = invoke(["map", "UU|UD"])
    assert code == 1
    code, _ = invoke(["unmap", "not json"])
    assert code == 1
    # a usage error ends in a JSON error line too
    code, _ = invoke(["count", "--family", "nonsense", "--n", "3"])
    assert code == 1
    assert "unknown family" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
    assert invoke(["--help"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["unmap", "[1,2]"],
        ["unmap", '{"up":[0],"lo":["1"]}'],
        ["unmap", '{"up":[0],"lo":[true]}'],
        ["unmap", "[" * 100000],
        ["sample", "--size", "4", "--count", "-1"],
        ["verify", "--max-n", "0"],
        ["verify", "--max-n", "9"],
        ["count", "--n", "3", "--k", "0", "--family", "kreweras", "--json"],
        ["count", "--n", "3", "--k", "0", "--self-dual", "--json"],
        ["series", "--n", "-1"],
        # sizes over the cap fail before any binomial is built
        ["count", "--n", str(10**19)],
        ["count", "--n", str(10**19), "--family", "modern"],
        ["count", "--n", str(10**19), "--family", "new"],
        ["count", "--n", str(10**23), "--family", "kreweras"],
        ["count", "--n", str(10**23), "--self-dual"],
        ["count", "--n", "100001"],
        ["count", "--n", str(10**18)],
        ["count", "--n", str(10**18), "--k", str(5 * 10**17)],
        ["count", "--n", str(10**19), "--self-dual"],
        ["sample", "--size", "3", "--format", "svg", "--count", "2"],
        # sizes over the sampling cap fail before any draw
        ["sample", "--size", "1000001"],
        ["sample", "--size", str(10**21)],
        ["sample", "--size", str(10**8)],
    ],
)
def test_bad_input_gives_one_json_error_line(argv, capsys):
    code, text = invoke(argv)
    assert code == 1 and text == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert "error" in json.loads(line)


def test_unwritable_output_gives_one_json_error_line(tmp_path, capsys):
    path = tmp_path / "missing" / "x.svg"
    code, _ = invoke(["render", "UD|UD", "--out", str(path)])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"


def test_exhausted_memory_gives_one_json_error_line(monkeypatch, capsys):
    # a figure too large for the address space stops with a JSON line, not
    # a traceback; a stand-in raises what drawing such a figure raises
    def exhausted(m, buds):
        raise MemoryError
        yield

    monkeypatch.setattr("tamari.cli._diagram_blocks", exhausted)
    code, text = invoke(["sample", "--size", "3", "--format", "svg"])
    assert code == 1 and text == ""
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": ""}


def test_figure_failing_mid_way_keeps_what_it_wrote(monkeypatch, capsys):
    # figures stream: the blocks written before a failure stay written
    def exhausted_after_one_block(m, buds):
        yield "<svg>\n"
        raise MemoryError

    monkeypatch.setattr("tamari.cli._diagram_blocks", exhausted_after_one_block)
    code, text = invoke(["sample", "--size", "3", "--format", "svg"])
    assert code == 1 and text == "<svg>\n"
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": ""}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "up", "lo", "x"]), inner, max_size=4),
    max_leaves=12,
)

SMALL_INTERVALS = [interval_to_text(i) for n in range(1, 4) for i in enumerate_intervals(n)]


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        st.sampled_from(["map", "classify", "render"]),
        st.text(alphabet="UD|", max_size=30) | st.sampled_from(SMALL_INTERVALS),
    )
    | st.tuples(st.just("unmap"), JSON_VALUES.map(json.dumps))
)
def test_cli_payloads_succeed_or_give_one_json_error_line(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = invoke(list(argv))
    lines = err.getvalue().splitlines()
    # a payload such as "-2.8e+240" parses as an option: a usage error, exit 1
    assert code in (0, 1)
    if code == 0:
        assert lines == []
    elif code == 1:
        (line,) = lines
        assert "error" in json.loads(line)


#: Object arguments that name a missing file and a directory.
BAD_PATHS = ["@" + str(Path(__file__).parent / "no-such-file"), "@" + str(Path(__file__).parent)]

SMALL_TEXT = (
    st.sampled_from(SMALL_INTERVALS)
    | st.text(alphabet="UD|", max_size=8)
    | st.sampled_from(BAD_PATHS)
)

ARGVS = st.tuples(
    st.one_of(
        st.tuples(st.sampled_from(["classify", "map"]), SMALL_TEXT),
        st.tuples(
            st.just("render"),
            SMALL_TEXT,
            st.just("--style"),
            st.sampled_from(["smooth", "meandering", "blossoming", "bogus"]),
        ),
        st.tuples(
            st.just("unmap"),
            st.sampled_from(
                ['{"n":2,"up":[0,1],"lo":[1,2]}', '{"up":[0],"lo":[true]}', "[1,2]", "{"]
                + BAD_PATHS
            ),
        ),
        st.tuples(
            st.just("count"),
            st.just("--n"),
            st.sampled_from(["1", "4", "x"]),
            st.just("--family"),
            st.sampled_from(["general", "kreweras", "nonsense"]),
        ),
        st.tuples(
            st.just("enumerate"),
            st.just("--n"),
            st.sampled_from(["0", "2", "3", "x"]),
            st.just("--family"),
            st.sampled_from(["general", "modern", "nonsense"]),
        ),
        st.tuples(
            st.just("sample"),
            st.just("--size"),
            st.sampled_from(["1", "3", "-1", "x"]),
            st.sampled_from(["--count", "--format"]),
            st.sampled_from(["0", "2", "interval", "blossoming", "svg"]),
        ),
        st.tuples(st.just("series"), st.just("--n"), st.sampled_from(["1", "3", "10", "x"])),
        st.tuples(st.just("tally"), st.just("--n"), st.sampled_from(["1", "3", "9", "x"])),
        # only sizes that fail at once: --max-n 1 already runs every check
        st.tuples(st.just("verify"), st.just("--max-n"), st.sampled_from(["0", "9", "x"])),
    ),
    st.sampled_from([(), ("--json",), ("--self-dual",), ("--bogus",), ("--k", "1")]),
).map(lambda parts: [*parts[0], *parts[1]])


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(ARGVS, min_size=1, max_size=10))
def test_shared_parser_keeps_no_state_between_calls(argvs):
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append(_outcome(argv))
    # one shared parser for the whole list, run forward and then backward
    forward = [_outcome(argv) for argv in argvs]
    backward = [_outcome(argv) for argv in reversed(argvs)]
    assert forward == fresh
    assert backward[::-1] == fresh
    for code, _, err in fresh:
        assert code in (0, 1)
        if code == 1:
            (line,) = err.splitlines()
            assert "error" in json.loads(line)
