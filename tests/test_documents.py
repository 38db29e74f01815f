"""Malformed schedule and export documents fail loudly, naming the entry.

A Hypothesis test mutates one entry of a valid document: a number becomes
NaN, an infinity, a string, a bool or a list; a list of numbers loses an
entry or becomes a number; any other value becomes a number; or a key goes
missing.  Loading must raise a ValueError whose message names the entry, in
the library and, for schedules, through ``flowmap verify`` (exit 1).
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from flowmap.cli import main
from flowmap.core import Schedule, schedule_from_json, schedule_to_json
from flowmap.discretize import euler_discretize, export_from_json, export_to_json
from flowmap.families import field_from_terms_1d
from flowmap.oned import approx_increasing
from flowmap.targets import builtin_target_1d
from flowmap.tensor import shear_schedule, tensor_field

G = field_from_terms_1d([(1.0, 1.0, -0.5), (-1.0, 1.0, -0.75)])
SCHEDULE_2D = Schedule(((tensor_field(G, 2), 0.5),), 2).then(
    shear_schedule(Schedule(((G, 0.3),), 1), 0, 1, 2))
DOCS = {
    "schedule_1d": json.dumps(schedule_to_json(
        approx_increasing(builtin_target_1d("pwl4"), 1e-2).schedule)),
    "schedule_2d": json.dumps(schedule_to_json(SCHEDULE_2D)),
    "export_2d": json.dumps(export_to_json(euler_discretize(SCHEDULE_2D, 64))),
}
RELU_KEYS = ("V", "W", "b")


def _load(kind, doc):
    return (export_from_json if kind.startswith("export") else schedule_from_json)(doc)


def _sites(node, path=()):
    """(path, value) of every entry below a JSON node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _sites(value, path + (key,))


def _mutations(doc):
    """(path, mutation) pairs: mutation is a new value, or None to drop the key."""
    out = []
    for path, value in _sites(doc):
        in_relu = any(k in RELU_KEYS for k in path if isinstance(k, str))
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out += [(path, v) for v in (float("nan"), float("inf"), float("-inf"), "1", True,
                                        [value])]
        elif isinstance(value, list) and in_relu:
            out += [(path, value[:-1]), (path, 1.0)]
        else:
            out.append((path, 1.0))
        if isinstance(path[-1], str):
            out.append((path, None))
    return out


OTHER_NAMES = {
    "tau": ["step duration", "'tau'"], "dim": ["dim"], "n": ["'n'"],
    "family_tag": ["family tag", "'family_tag'"], "params": ["'params'"],
    "inner": ["field document", "'inner'"], "steps": ["'steps'", "field document"],
    "runs": ["'runs'", "field document"], "layers": ["layers"], "delta": ["delta"],
    "source_T": ["source_T"], "S": ["meta.S", "'S'"], "meta": ["'meta'"],
    "format_version": ["format"],
}


def _names(path) -> list:
    """Substrings of which the error message must hold one: the entry's key;
    for a relu entry also the arrays whose shapes no longer agree and, for
    one number, the term k of V[:, k], W[k] and b[k]."""
    key = [k for k in path if isinstance(k, str)][-1]
    if key not in RELU_KEYS:
        return OTHER_NAMES[key]
    names = [f"'{key}'", "V must", "W must", "b must"]
    below = path[path.index(key) + 1:]
    if len(below) == (1 if key == "b" else 2):
        names.append(f"relu term {below[0] if key == 'W' else below[-1]} ")
    return names


def _apply(doc, path, mutation):
    node = doc
    for key in path[:-1]:
        node = node[key]
    if mutation is None:
        del node[path[-1]]
    else:
        node[path[-1]] = mutation


@given(st.sampled_from(sorted(DOCS)), st.data())
@settings(max_examples=150, deadline=None)
def test_one_mutated_entry_is_named_by_the_library(kind, data):
    doc = json.loads(DOCS[kind])
    path, mutation = data.draw(st.sampled_from(_mutations(doc)))
    _apply(doc, path, mutation)
    with pytest.raises(ValueError) as info:
        _load(kind, json.loads(json.dumps(doc)))  # as json reads NaN and Infinity back
    names = _names(path)
    assert any(n in str(info.value) for n in names), (path, mutation, str(info.value))


@given(st.sampled_from(["schedule_1d", "schedule_2d"]), st.data())
@settings(max_examples=40, deadline=None)
def test_one_mutated_entry_is_named_by_verify(tmp_path_factory, kind, data):
    doc = json.loads(DOCS[kind])
    path, mutation = data.draw(st.sampled_from(_mutations(doc)))
    _apply(doc, path, mutation)
    tmp = tmp_path_factory.mktemp("verify")
    (tmp / "schedule.json").write_text(json.dumps(doc))
    target = "builtin:pwl4" if kind == "schedule_1d" else "builtin:identity"
    err = []
    rc = _run_cli(["verify", "--schedule", str(tmp / "schedule.json"), "--target", target,
                   "--mc-samples", "1000", "--out", str(tmp / "v")], err)
    assert rc == 1
    assert err[0]["error"] == "ValueError"
    assert any(n in err[0]["message"] for n in _names(path)), (path, mutation, err)


@pytest.mark.parametrize("doc, kind", [([], "list"), ("x", "str"), (3, "int"), (None, "NoneType")])
def test_export_document_that_is_no_object_is_named(doc, kind):
    # These once raised AttributeError: ... has no attribute 'get'.
    with pytest.raises(ValueError, match=f"export document must be an object, got {kind}$"):
        export_from_json(doc)


def _run_cli(argv, err) -> int:
    """Exit status of the CLI; its JSON error, if any, is appended to err."""
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    lines = buf.getvalue().strip().splitlines()
    if lines:
        err.append(json.loads(lines[-1]))
    return rc


RELU_PARAMS = [
    (lambda p: p.update(V=[["1"]]), "relu key 'V'[0][0] must be a number, got '1'"),
    (lambda p: p.update(V=[[True]]), "relu key 'V'[0][0] must be a number, got True"),
    (lambda p: p.update(V={"a": 1}), "relu key 'V' must be a list, got dict"),
    (lambda p: p.update(W=[["0.5"]]), "relu key 'W'[0][0] must be a number, got '0.5'"),
    (lambda p: p.update(b=[False]), "relu key 'b'[0] must be a number, got False"),
    (lambda p: p.update(b=0.0), "relu key 'b' must be a list, got float"),
]
RELU_IDS = ["str_V", "bool_V", "dict_V", "str_W", "bool_b", "scalar_b"]


def _one_term_doc(family):
    """A one-step schedule of a one-term 1D relu field, or of its 2D tensor
    field, and the relu params in it."""
    f = field_from_terms_1d([(1.0, 1.0, 0.0)])
    if family == "relu":
        doc = schedule_to_json(Schedule(((f, 0.5),), 1))
        return doc, doc["steps"][0]["params"]
    doc = schedule_to_json(Schedule(((tensor_field(f, 2), 0.5),), 2))
    return doc, doc["steps"][0]["params"]["inner"]["params"]


@pytest.mark.parametrize("mutate, match", RELU_PARAMS, ids=RELU_IDS)
@pytest.mark.parametrize("family", ["relu", "tensor"])
def test_non_numeric_relu_params_rejected(tmp_path, family, mutate, match):
    # "1" and true once loaded as 1.0, and a dict V raised a TypeError.
    doc, params = _one_term_doc(family)
    mutate(params)
    with pytest.raises(ValueError, match=re.escape(match)):
        schedule_from_json(json.loads(json.dumps(doc)))
    (tmp_path / "s.json").write_text(json.dumps(doc))
    err = []
    rc = _run_cli(["verify", "--schedule", str(tmp_path / "s.json"), "--target",
                   "builtin:identity", "--mc-samples", "1000", "--out", str(tmp_path / "v")], err)
    assert rc == 1 and err[0]["error"] == "ValueError" and match in err[0]["message"]


@pytest.mark.parametrize("n, match", [("2", "got '2'"), (True, "got True"), (2.0, "got 2.0"),
                                      (0, "got 0")])
def test_tensor_n_must_be_an_integer(n, match):
    doc, _ = _one_term_doc("tensor")
    doc["steps"][0]["params"]["n"] = n
    with pytest.raises(ValueError, match=re.escape(f"tensor key 'n' must be an integer >= 1, {match}")):
        schedule_from_json(doc)
