"""Mutated input documents end in a documented exit code, never a traceback.

Every command runs with RuntimeWarnings as errors, so an overflow or NaN
that diffmon does not name in its own message fails the run too.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from diffmon import LindbladModel, brep_to_mrep, heterodyne_mrep
from diffmon.checks import CHECKS
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
_A4 = np.diag(np.sqrt(np.arange(1.0, 4.0)), k=1)  # a d = 4 Kerr cavity reaches the d > 2 monitor
RUN_MODELS = {
    "decay": MODEL_DOC,
    "cavity": model_payload(LindbladModel(hamiltonian=0.3 * (_A4.T @ _A4) ** 2, lindblads=_A4)),
}

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


# Run options: every documented exit code, never a traceback.
EXIT_CODES = {0, 1, 2, 3, 4, 5}  # the README's exit-code table
ODD = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e300", str(-(2**63))] + [
    str(2**k + j) for k in (63, 64) for j in (-1, 0, 1)
]


def _value(valid, odd=ODD):
    """A valid value five times in six, else an odd one."""
    return st.one_of(*[valid] * 5, st.sampled_from(odd))


# Counts come from 1-20 or from sizes the physical-memory check refuses before allocating.
COUNT = _value(st.integers(1, 20).map(str), ODD + [str(10**12)])
OPTIONS = {
    "--dt": _value(st.sampled_from(["0.01", "0.05", "1e-3"])),
    "--steps": COUNT,
    "--ntraj": COUNT,
    "--seed": _value(st.integers(0, 3).map(str)),
    "--snapshot-stride": _value(st.none() | st.integers(1, 20).map(str)),
    "--lags": st.lists(_value(st.sampled_from(["0.01", "0.05", "0.1"])), min_size=1, max_size=2)
    .map(",".join),
    "--burn-in": _value(st.none() | st.integers(0, 20).map(str)),
}
COMMAND_OPTIONS = {
    "simulate": [o for o in OPTIONS if o not in ("--lags", "--burn-in")],
    "autocorr": list(OPTIONS),
    "check": ["--seed"],
}
# Fast seeded rows of the self-check suite (the whole suite takes 0.6 s a run).
FAST_CHECKS = [
    row for row in CHECKS
    if row[0] in ("stats.initial_state", "sme.ensemble_replay", "stats.estimator_determinism")
]


@st.composite
def run_options(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    values = {o: draw(OPTIONS[o]) for o in COMMAND_OPTIONS[command]}
    model = draw(st.sampled_from(sorted(RUN_MODELS)))
    return command, {o: v for o, v in values.items() if v is not None}, model


def _valid_seed(value: str) -> bool:
    return value.isdigit() and int(value) < 2**64


@settings(FUZZ, max_examples=120)
@given(run_options())
# A stride past int64 made an object snapshot grid and an IndexError traceback.
@example(("simulate", {"--dt": "1e-3", "--steps": "2", "--ntraj": "2",
                       "--snapshot-stride": str(2**63)}, "decay"))
# The grid of 10^12 steps at stride 1 was made before the memory check: a MemoryError.
@example(("simulate", {"--dt": "1e-3", "--steps": str(10**12), "--ntraj": "2",
                       "--snapshot-stride": "1"}, "decay"))
# A nonlinear trace of exactly 0 was divided by, with a warning.
@example(("simulate", {"--dt": str(2**63 - 1), "--steps": "1", "--ntraj": "1"}, "decay"))
# The success path of autocorr.
@example(("autocorr", {"--dt": "0.05", "--steps": "20", "--ntraj": "3", "--lags": "0.05,0.1"},
          "decay"))
# Normalized coordinates that overflow under a finite trace: a LinAlgError traceback.
@example(("simulate", {"--dt": "1e74", "--steps": "3", "--ntraj": "3", "--seed": "1"}, "cavity"))
def test_run_options(case):
    command, options, model_name = case
    err = io.StringIO()
    with _written(RUN_MODELS[model_name]) as (model, tmp), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rep = Path(tmp) / "rep.json"
        rep.write_text(json.dumps(REP_DOCS[0]))
        argv = [command, "--out", str(Path(tmp) / "out")]
        if command != "check":
            argv += ["--model", model, "--rep", str(rep)]
        for option, value in options.items():
            argv.append(f"{option}={value}")  # "=" keeps a leading minus a value
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("diffmon.checks.CHECKS", FAST_CHECKS)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a value it cannot parse
                code = exc.code
    event(f"{command} on {model_name} exits {code}")
    assert code in EXIT_CODES
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert command == "check" and _valid_seed(options.get("--seed", "0"))
