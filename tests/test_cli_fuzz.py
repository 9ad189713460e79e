"""Mutated input documents end in a documented exit code, never a traceback.

Every command runs with RuntimeWarnings as errors, so an overflow or NaN
that diffmon does not name in its own message fails the run too.
"""

import contextlib
import copy
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diffmon import brep_to_mrep, heterodyne_mrep
from diffmon.cli import main
from diffmon.serialize import RepFile, model_payload, rep_payload
from diffmon.reps import mrep_to_trep, mrep_to_urep, random_brep

from conftest import decay_model, rng

ALLOWED = {0, 2, 3, 4}
# Powers of ten a document's numbers are scaled by: tiny, and past the point
# where products of two entries overflow.
SCALES = (-150, 150, 200, 300)

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


def _scaled(node, factor: float):
    """``node`` with every float in it multiplied by ``factor`` (integers kept)."""
    if isinstance(node, float):
        return node * factor
    if isinstance(node, list):
        return [_scaled(v, factor) for v in node]
    if isinstance(node, dict):
        return {k: _scaled(v, factor) for k, v in node.items()}
    return node


@st.composite
def mutated(draw, docs, actions=("replace", "delete", "nest", "scale")):
    """A valid document with one to three edits: replace, delete, nest or scale a node."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(actions))
        if action == "scale":
            factor = 10.0 ** draw(st.sampled_from(SCALES))
        if not path:
            if action == "replace":
                doc = draw(json_values)
            elif action == "scale":
                doc = _scaled(doc, factor)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        elif action == "nest":
            parent[path[-1]] = [parent[path[-1]]]
        elif action == "scale":
            parent[path[-1]] = _scaled(parent[path[-1]], factor)
        else:
            parent[path[-1]] = draw(json_values)
    return doc


@contextlib.contextmanager
def _written(doc):
    """``doc`` written to a temporary directory: yields (its path, the directory)."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        yield str(path), tmp


def _with_scaled_mixing(factor: float) -> dict:
    doc = copy.deepcopy(REP_DOCS[4])
    doc["S"] = _scaled(doc["S"], factor)
    return doc


@FUZZ
@given(mutated(REP_DOCS), st.sampled_from(["validate", "mrep", "urep", "trep"]))
# A mixing "unitary" whose squares overflow passed as unitary.
@example(_with_scaled_mixing(1e200), "validate")
@example(_with_scaled_mixing(1e200), "mrep")
def test_mutated_measurement_documents(doc, command):
    with _written(doc) as (path, tmp):
        if command == "validate":
            assert main(["validate", path]) in ALLOWED
            return
        code = main(["convert", path, "--to", command, "--out", tmp])
        assert code in ALLOWED
        if code == 0:  # what convert writes, validate accepts
            assert main(["validate", str(Path(tmp) / f"doc_{command}.json")]) == 0


def _with_scaled_lindblads(factor: float) -> dict:
    doc = copy.deepcopy(MODEL_DOC)
    doc["lindblads"] = _scaled(doc["lindblads"], factor)
    return doc


@FUZZ
@given(mutated([MODEL_DOC]))
# Rates of 1e300 overflowed the purity ceiling with an OverflowError traceback.
@example(_with_scaled_lindblads(1e150))
# Rates that overflow warned in the noise scale and the tables, and were accepted.
@example(_with_scaled_lindblads(1e200))
# The Hermitian check's norm of 1e200 entries warned on overflow.
@example(_scaled(MODEL_DOC, 1e200))
def test_mutated_model_documents(doc):
    with _written(doc) as (path, tmp):
        rep = Path(tmp) / "rep.json"
        rep.write_text(json.dumps(REP_DOCS[0]))
        argv = [
            "simulate", "--model", path, "--rep", str(rep), "--dt", "0.01",
            "--steps", "2", "--ntraj", "2", "--out", tmp,
        ]
        assert main(argv) in ALLOWED
