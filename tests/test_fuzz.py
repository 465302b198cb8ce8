"""Mutation fuzzing of every CLI input surface.

Valid edge lists, DIMACS files, certificates and colorings are corrupted by
token edits (swap, repeat, drop, retype), by retyping one JSON value of an
artifact (the whole document included), a leading BOM, CRLF line ends and
truncation, then fed to `main()` for `color`, `verify` and `dot`. Bad input
must end in exit 1 with one stderr line, never in an internal error, and an
artifact that `verify` accepts must pass the verifiers when parsed again.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddcluster import generators as gen
from oddcluster.certificate import certificate_from_json, verify_certificate
from oddcluster.cli import EXIT_USAGE, main, run_color
from oddcluster.coloring import ColoringReport, coloring_from_json
from oddcluster.graph_io import format_edgelist, load_graph

from helpers import format_dimacs, verify_coloring_reference

# (graph, t): colorings and certificates both, with trees of several sizes
BASES = [
    (gen.cycle(6), 3),
    (gen.grid(3, 3), 4),
    (gen.cycle(5), 3),
    (gen.complete(5), 3),
    (gen.petersen(), 4),
]
SURFACES = ("edgelist", "dimacs", "artifact")

# a JSON string, a run of other non-space text, whitespace, or one character
PIECE = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s\[\]{}:,"]+|\s+|.', re.S)
RETYPES = (
    "-1", "0", "1", "2", "3", "99999999999", "9" * 4400, "1.5", "1e3", "x", '"1"', "true",
    "null", "[]", "{}", "[0, 1]", '{"0": 1}', "\ufeff", "p", "e", "#", "\n",
)
# JSON text for one value: wrong types and shapes, a number past the
# interpreter's digit limit and nesting past the decoder's recursion limit
JSON_VALUES = (
    "16", "1.5", "-1", "0", "1" + "0" * 30, "9" * 4400, "true", "null", '"1"', "[]", "[1, 2]",
    "{}", '{"t": 3}', '{"colors": 1}', "[" * 5000 + "]" * 5000,
)
MARK = "\x00value"  # holds the place of the new value until its text is spliced in

mutations = st.lists(
    st.one_of(
        st.tuples(st.just("swap"), st.integers(0, 10**6), st.integers(0, 10**6)),
        st.tuples(st.just("repeat"), st.integers(0, 10**6)),
        st.tuples(st.just("drop"), st.integers(0, 10**6)),
        st.tuples(st.just("retype"), st.integers(0, 10**6), st.sampled_from(RETYPES)),
    ),
    max_size=3,
)
value_edits = st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(JSON_VALUES))


def json_paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, (*path, key))


def retype_value(text, edit):
    """The artifact with one of its JSON values, chosen by index, replaced
    by the JSON text `edit[1]`."""
    obj = json.loads(text)
    paths = list(json_paths(obj))
    path = paths[edit[0] % len(paths)]
    if not path:
        return edit[1]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = MARK
    return json.dumps(obj, indent=2).replace(json.dumps(MARK), edit[1])


def mutate(text, edits, bom, crlf, cut):
    pieces = PIECE.findall(text)
    assert "".join(pieces) == text
    for edit in edits:
        tokens = [i for i, p in enumerate(pieces) if not p.isspace()]
        if not tokens:
            break
        i = tokens[edit[1] % len(tokens)]
        if edit[0] == "swap":
            j = tokens[edit[2] % len(tokens)]
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif edit[0] == "repeat":
            pieces[i:i + 1] = [pieces[i], " ", pieces[i]]
        elif edit[0] == "drop":
            del pieces[i]
        else:
            pieces[i] = edit[2]
    out = "".join(pieces)
    if crlf:
        out = out.replace("\n", "\r\n")
    if cut is not None:
        out = out[: cut % (len(out) + 1)]
    return ("\ufeff" if bom else "") + out


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def accepted_artifact_verifies(graph_path, fmt, artifact_path):
    g = load_graph(graph_path, fmt)
    obj = json.loads(artifact_path.read_text(encoding="utf-8-sig"))
    if "trees" in obj:
        return verify_certificate(g, certificate_from_json(obj)) is None
    coloring = coloring_from_json(obj)
    checked = verify_coloring_reference(g, coloring, coloring.t)
    return len(coloring.colors) == g.n and isinstance(checked, ColoringReport)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """For each base: its graph in both formats and its artifact, as file text."""
    out = []
    for g, t in BASES:
        artifact = json.dumps(run_color(g, t).artifact, indent=2) + "\n"
        out.append({"edgelist": format_edgelist(g), "dimacs": format_dimacs(g), "artifact": artifact, "t": t})
    return tmp_path_factory.mktemp("fuzz"), out


@given(
    base=st.integers(0, len(BASES) - 1),
    surface=st.sampled_from(SURFACES),
    value_edit=value_edits,
    edits=mutations,
    bom=st.booleans(),
    crlf=st.booleans(),
    cut=st.none() | st.integers(0, 10**6),
)
@settings(max_examples=500, deadline=None)
def test_mutated_inputs_end_in_a_documented_exit(corpus, base, surface, value_edit, edits, bom, crlf, cut):
    workdir, bases = corpus
    files = bases[base]
    fmt = "dimacs" if surface == "dimacs" else "edgelist"
    texts = {fmt: files[fmt], "artifact": files["artifact"]}
    if surface == "artifact" and value_edit is not None:
        texts[surface] = retype_value(texts[surface], value_edit)
    texts[surface] = mutate(texts[surface], edits, bom, crlf, cut)
    paths = {name: workdir / name for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text.encode("utf-8"))
    graph = ["-i", paths[fmt], "--format", fmt]
    runs = [["verify", *graph, "--artifact", paths["artifact"]], ["dot", *graph, "--artifact", paths["artifact"]]]
    if surface != "artifact":
        runs.append(["color", *graph, "--t", files["t"]])
    results = {}
    for argv in runs:
        code, out, err = run_main(*argv)
        results[argv[0]] = code, err
        assert code in (0, 1, 2, 3), (argv[0], code, err)
        if code == EXIT_USAGE:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv[0], err)
            assert err.startswith(("error: ", "usage error: ")), err
        else:
            assert err == "", (argv[0], err)
        if argv[0] == "verify" and code == 0:
            assert accepted_artifact_verifies(paths[fmt], fmt, paths["artifact"])
    # one artifact reader: what verify refuses to read, dot refuses in the same words
    if results["verify"][0] == EXIT_USAGE:
        assert results["dot"] == results["verify"]
