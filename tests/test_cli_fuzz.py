"""Mutated input documents end in a documented exit code, never a traceback."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffmon import brep_to_mrep, heterodyne_mrep
from diffmon.cli import main
from diffmon.serialize import RepFile, model_payload, rep_payload
from diffmon.reps import mrep_to_trep, mrep_to_urep, random_brep

from conftest import decay_model, rng

ALLOWED = {0, 2, 3, 4}

_MREP = brep_to_mrep(random_brep(rng(80), 2))
REP_DOCS = [
    rep_payload(RepFile("mrep", heterodyne_mrep(0.8), 1.0)),
    rep_payload(RepFile("mrep", _MREP, _MREP.hbar)),
    rep_payload(RepFile("urep", mrep_to_urep(_MREP), _MREP.hbar)),
    rep_payload(RepFile("trep", mrep_to_trep(_MREP), _MREP.hbar)),
    rep_payload(RepFile("brep", random_brep(rng(81), 1), 1.0)),
]
MODEL_DOC = model_payload(decay_model(rabi=1.0))

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "abc", "1", "nan", "mrep"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["L", "x"]), inner, max_size=2),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, docs):
    """A valid document with one to three edits: replace, delete, or nest a node."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "nest"]))
        if not path:
            if action == "replace":
                doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        elif action == "nest":
            parent[path[-1]] = [parent[path[-1]]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


def _run(argv_of, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        return main(argv_of(str(path), tmp))


@FUZZ
@given(mutated(REP_DOCS), st.sampled_from(["validate", "mrep", "urep", "trep"]))
def test_mutated_measurement_documents(doc, command):
    if command == "validate":
        code = _run(lambda path, tmp: ["validate", path], doc)
    else:
        code = _run(lambda path, tmp: ["convert", path, "--to", command, "--out", tmp], doc)
    assert code in ALLOWED


@FUZZ
@given(mutated([MODEL_DOC]))
def test_mutated_model_documents(doc):
    def argv(path, tmp):
        rep = Path(tmp) / "rep.json"
        rep.write_text(json.dumps(REP_DOCS[0]))
        return [
            "simulate", "--model", path, "--rep", str(rep), "--dt", "0.01",
            "--steps", "2", "--ntraj", "2", "--out", tmp,
        ]

    assert _run(argv, doc) in ALLOWED
