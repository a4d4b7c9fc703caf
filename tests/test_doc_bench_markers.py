"""Numbers the docs quote from a checked-in benchmark report match it.

A number quoted from ``benchmarks/perf/BENCH_<leg>.json`` carries a
marker right after it (and its unit), naming the value it quotes:

    runs **1.24x**<!-- bench:kernel.scenarios.figure8_lottery.speedup -->

The path starts with the leg; list entries are picked by their
``name`` (or by index).  The quoted number is the last one before the
marker.  A ``k`` or ``M`` right after it scales by 1e3 or 1e6, and a
``%`` reads a fraction as a percentage.  The JSON value, rounded to as
many decimals as the docs show, must equal the quoted number, so a
re-taken report that moves a number fails here until the docs follow.
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "EXPERIMENTS.md", os.path.join("docs", "API.md"))
PERF_DIR = os.path.join(ROOT, "benchmarks", "perf")

MARKER = re.compile(r"<!-- bench:([A-Za-z0-9_.]+) -->")
QUOTED = re.compile(r"(\d+(?:\.\d+)?)(\s?[kM](?![A-Za-z])|%)?[^\d]*$")
SCALE = {None: 1.0, "k": 1e-3, "M": 1e-6, "%": 100.0}


def resolve(path):
    """The value at a marker path, or raise LookupError naming why."""
    leg, _, rest = path.partition(".")
    report = os.path.join(PERF_DIR, "BENCH_{}.json".format(leg))
    if not os.path.exists(report) or not rest:
        raise LookupError("no report BENCH_{}.json or no key".format(leg))
    with open(report) as handle:
        node = json.load(handle)
    for key in rest.split("."):
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list):
            named = [item for item in node
                     if isinstance(item, dict) and item.get("name") == key]
            if named:
                node = named[0]
            elif key.isdigit() and int(key) < len(node):
                node = node[int(key)]
            else:
                raise LookupError("no list entry {!r}".format(key))
        else:
            raise LookupError("no key {!r}".format(key))
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise LookupError("not a number: {!r}".format(node))
    return node


def check_marker(prefix, path):
    """None when the number before a marker matches, else the problem."""
    try:
        value = resolve(path)
    except LookupError as error:
        return "dangling marker {}: {}".format(path, error)
    match = QUOTED.search(prefix)
    if match is None:
        return "marker {} follows no number".format(path)
    quoted, suffix = match.group(1), match.group(2)
    suffix = suffix.strip() if suffix else None
    decimals = len(quoted.partition(".")[2])
    expected = "{:.{}f}".format(value * SCALE[suffix], decimals)
    if expected != quoted:
        return "stale marker {}: docs quote {}, report reads {} ({})".format(
            path, quoted, expected, value
        )
    return None


def doc_markers():
    """``(doc, line number, text before the marker, path)`` per marker."""
    found = []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                for marker in MARKER.finditer(line):
                    found.append(
                        (doc, number, line[:marker.start()], marker.group(1))
                    )
    return found


def test_docs_carry_bench_markers():
    assert {doc for doc, _, _, _ in doc_markers()} == set(DOCS)


def test_every_marked_number_matches_its_report():
    problems = [
        "{}:{}: {}".format(doc, number, problem)
        for doc, number, prefix, path in doc_markers()
        for problem in [check_marker(prefix, path)]
        if problem is not None
    ]
    assert problems == []


@pytest.mark.parametrize("prefix, path, problem", [
    ("runs 1.24x", "kernel.scenarios.figure8_lottery.speedup", None),
    ("9.99x", "kernel.scenarios.figure8_lottery.speedup", "stale"),
    ("1.24x", "kernel.scenarios.no_such_scenario.speedup", "dangling"),
    ("1.24x", "nosuchleg.speedup", "dangling"),
    ("1.24x", "kernel.scenarios", "dangling"),
    ("runs fast", "kernel.scenarios.figure8_lottery.speedup", "no number"),
])
def test_check_marker_flags_stale_and_dangling(prefix, path, problem,
                                               monkeypatch, tmp_path):
    report = {"scenarios": [{"name": "figure8_lottery", "speedup": 1.24}]}
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps(report))
    monkeypatch.setattr(sys.modules[__name__], "PERF_DIR", str(tmp_path))
    found = check_marker(prefix, path)
    if problem is None:
        assert found is None
    else:
        assert problem in found


@pytest.mark.parametrize("prefix, value", [
    ("4.87M", 4873098.3),
    ("0.27 M", 273614.7),
    ("~676", 675.6),
    ("758k", 758010.0),
    ("96.4%", 0.9643),
    ("**1.7x**", 1.7),
])
def test_check_marker_scales_units(prefix, value, monkeypatch, tmp_path):
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"v": value}))
    monkeypatch.setattr(sys.modules[__name__], "PERF_DIR", str(tmp_path))
    assert check_marker(prefix, "x.v") is None
