import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffmon import LindbladModel, SimulationConfig, heterodyne_mrep, simulate_ensemble
from diffmon.errors import (
    EfficiencyOutOfRangeError,
    ParseError,
    SchemaError,
    ValidationError,
)
from diffmon import serialize
from diffmon.linalg import positive_sqrt
from diffmon.reps import (
    TRep,
    brep_to_mrep,
    brep_to_urep,
    mrep_to_trep,
    mrep_to_urep,
    random_brep,
    random_mrep,
    trep_to_mrep,
    trep_to_urep,
)
from diffmon.serialize import (
    RepFile,
    canonical_json,
    convert_rep,
    fingerprint_model,
    fingerprint_payload,
    fingerprint_rep,
    load_model,
    load_rep,
    model_payload,
    parse_model,
    parse_rep,
    rep_efficiencies,
    rep_payload,
    rep_to_mrep,
    write_rep,
    write_trajectory_csv,
)

from conftest import EXCITED, decay_model, rng


def heterodyne_payload(eta=1.0):
    amp = float(np.sqrt(eta / 2.0))
    return {
        "type": "mrep",
        "hbar": 1.0,
        "L": 1,
        "matrix": [[[amp, 0.0], [0.0, amp]]],
    }


def test_heterodyne_file_roundtrip(tmp_path):
    path = tmp_path / "het.json"
    path.write_text(json.dumps(heterodyne_payload()))
    rep_file = load_rep(path)
    assert rep_file.kind == "mrep"
    assert rep_efficiencies(rep_file)[0] == pytest.approx(1.0, abs=1e-12)


def test_rep_payload_roundtrip_all_kinds():
    gen = rng(71)
    m = random_mrep(gen, 2, hbar=1.5)
    files = [
        RepFile("mrep", m, 1.5),
        convert_rep(RepFile("mrep", m, 1.5), "trep"),
        convert_rep(RepFile("mrep", m, 1.5), "urep"),
        RepFile("brep", random_brep(gen, 2), 1.0),
    ]
    for rf in files:
        back = parse_rep(rep_payload(rf))
        assert back.kind == rf.kind
        assert back.hbar == rf.hbar
        if rf.kind == "brep":
            assert np.allclose(back.rep.eta, rf.rep.eta, atol=1e-15)
            assert np.allclose(back.rep.mixing, rf.rep.mixing, atol=1e-15)
            assert np.allclose(back.rep.theta, rf.rep.theta, atol=1e-15)
        else:
            assert np.allclose(back.rep.matrix, rf.rep.matrix, atol=1e-15)


def test_parse_rep_rejects_out_of_range_theta():
    payload = {
        "type": "brep",
        "hbar": 1.0,
        "L": 1,
        "eta": [1.0],
        "S": [[[1.0, 0.0]]],
        "theta": [1.5],
    }
    with pytest.raises(EfficiencyOutOfRangeError, match=r"theta\[0\]"):
        parse_rep(payload)


def test_load_rep_truncated_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "mrep", "hbar": 1.0')
    with pytest.raises(ParseError):
        load_rep(path)


def test_load_rep_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_rep(tmp_path / "nope.json")


def test_parse_rep_schema_errors():
    with pytest.raises(SchemaError):
        parse_rep({"type": "mrep", "hbar": 1.0})  # missing L and matrix
    with pytest.raises(SchemaError):
        parse_rep({"type": "wat", "hbar": 1.0, "L": 1})
    with pytest.raises(SchemaError):
        parse_rep({"type": "mrep", "hbar": 1.0, "L": 1, "matrix": [[1.0, 2.0]]})
    with pytest.raises(SchemaError):
        parse_rep(
            {"type": "urep", "hbar": 1.0, "L": 1, "matrix": [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]]}
        )
    payload = heterodyne_payload()
    for field, bad in (
        ("L", "abc"), ("L", [1]), ("hbar", [1]), ("hbar", "x"),
        ("L", 1.5), ("L", True), ("L", "1"), ("L", 1.0), ("hbar", "2.5"), ("hbar", True),
        ("L", 0), ("L", -1), ("hbar", 10**400),  # an integer beyond the float range
    ):
        with pytest.raises(SchemaError, match=field):
            parse_rep({**payload, field: bad})
    brep = {"type": "brep", "hbar": 1.0, "L": 1, "eta": [1.0], "S": [[[1.0, 0.0]]], "theta": [0.0]}
    parse_rep(brep)
    for field, bad in (("eta", [1.0, 1.0]), ("S", [[[1.0, 0.0], [0.0, 0.0]]]), ("theta", [])):
        with pytest.raises(SchemaError, match="brep payload shapes do not match L = 1"):
            parse_rep({**brep, field: bad})


def test_parse_rep_validation_error():
    payload = heterodyne_payload()
    payload["matrix"] = [[[1.0, 0.0], [0.0, 1.0]]]  # row norm 2: invalid efficiency
    with pytest.raises(ValidationError):
        parse_rep(payload)


def test_default_hbar_applies_when_missing():
    payload = heterodyne_payload(0.5)
    del payload["hbar"]
    rep_file = parse_rep(payload, default_hbar=1.0)
    assert rep_file.hbar == 1.0


def test_model_roundtrip(tmp_path):
    model = decay_model(rabi=0.7, hbar=2.0)
    payload = model_payload(model)
    back = parse_model(payload)
    assert back.hbar == 2.0
    assert np.allclose(back.hamiltonian, model.hamiltonian, atol=1e-15)
    assert np.allclose(back.lindblads, model.lindblads, atol=1e-15)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert fingerprint_model(load_model(path)) == fingerprint_model(model)


def test_model_schema_errors():
    with pytest.raises(SchemaError):
        parse_model({"dim": 2, "hamiltonian": [[[0.0, 0.0]] * 2] * 2, "lindblads": []})
    with pytest.raises(SchemaError):
        parse_model({"dim": 2, "lindblads": [[[[0.0, 0.0]] * 2] * 2]})
    payload = model_payload(decay_model())
    for field, bad in (
        ("dim", "x"), ("dim", None), ("hbar", [1]), ("hbar", "x"),
        ("dim", 2.9), ("dim", "2"), ("dim", 2.0), ("dim", True), ("hbar", "2.5"), ("hbar", True),
        ("hbar", 10**400),
    ):
        with pytest.raises(SchemaError, match=field):
            parse_model({**payload, field: bad})


def test_fingerprints_are_stable_and_content_sensitive():
    m = heterodyne_mrep(0.8)
    rf = RepFile("mrep", m, 1.0)
    f1 = fingerprint_rep(rf)
    f2 = fingerprint_rep(RepFile("mrep", heterodyne_mrep(0.8), 1.0))
    f3 = fingerprint_rep(RepFile("mrep", heterodyne_mrep(0.7), 1.0))
    assert f1 == f2
    assert f1 != f3
    assert fingerprint_payload({"a": 1, "b": 2}) == fingerprint_payload({"b": 2, "a": 1})


def _pairs_per_entry(matrix):
    """The payload's [re, im] pairs written out entry by entry."""
    rows = np.asarray(matrix, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in rows]


@pytest.mark.parametrize("dim", (1, 2, 32))
def test_payloads_match_the_per_entry_formula(dim):
    # Signed zeros, the smallest subnormal and the largest magnitudes keep
    # their JSON text, so fingerprints stay byte-identical.
    gen = rng(170 + dim)
    special = np.array([-0.0, 5e-324, 1e308, -1e308])

    def seeded(shape):
        x = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        flat = x.reshape(-1)
        idx = gen.choice(flat.size, size=min(flat.size, 4), replace=False)
        flat[idx] = special[: idx.size] + 1j * special[::-1][: idx.size]
        return x

    ham = np.diag(gen.normal(size=dim)) + 0.0j
    ham.flat[0] = -0.0
    ham.flat[-1] = 5e-324
    model = LindbladModel(hamiltonian=ham, lindblads=seeded((2, dim, dim)))
    want = {
        "hbar": 1.0,
        "dim": dim,
        "hamiltonian": _pairs_per_entry(model.hamiltonian),
        "lindblads": [_pairs_per_entry(c) for c in model.lindblads],
    }
    assert canonical_json(model_payload(model)) == canonical_json(want)
    assert fingerprint_model(model) == fingerprint_payload(want)
    for m in (random_mrep(gen, dim), heterodyne_mrep(0.8)):
        b = random_brep(gen, m.channels)
        u = convert_rep(RepFile("mrep", m, 1.0), "urep")
        cases = [
            (RepFile("mrep", m, 1.0), {"matrix": _pairs_per_entry(m.matrix)}),
            (u, {"matrix": [[float(v) for v in row] for row in u.rep.matrix]}),
            (RepFile("brep", b, 1.0), {
                "eta": [float(v) for v in b.eta],
                "S": _pairs_per_entry(b.mixing),
                "theta": [float(v) for v in b.theta],
            }),
        ]
        for rf, fields in cases:
            want = {"type": rf.kind, "hbar": float(rf.hbar), "L": int(rf.rep.channels), **fields}
            assert canonical_json(rep_payload(rf)) == canonical_json(want)
            assert fingerprint_rep(rf) == fingerprint_payload(want)


def test_convert_rep_heterodyne_to_urep():
    rf = RepFile("mrep", heterodyne_mrep(1.0), 1.0)
    out = convert_rep(rf, "urep")
    assert np.allclose(out.rep.matrix, 0.5 * np.eye(2), atol=1e-12)
    # Emitted documents re-parse and re-validate.
    parse_rep(rep_payload(out))


def test_convert_rep_from_urep_canonical_factor():
    rf = RepFile("mrep", heterodyne_mrep(0.9), 1.0)
    urep_file = convert_rep(rf, "urep")
    back_t = convert_rep(urep_file, "trep")
    back_m = convert_rep(urep_file, "mrep")
    t = back_t.rep.matrix
    assert np.allclose(t @ t.T, urep_file.rep.matrix, atol=1e-12)
    parse_rep(rep_payload(back_t))
    parse_rep(rep_payload(back_m))
    with pytest.raises(ValidationError):
        convert_rep(rf, "brep")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _canonical_trep(urep, hbar):
    return TRep(positive_sqrt(hbar * urep.matrix), hbar=hbar)


# (from kind, to kind) -> the explicit relation that convert_rep must reproduce.
EXPLICIT_RELATIONS = {
    ("mrep", "mrep"): lambda r, hbar: r,
    ("mrep", "trep"): lambda r, hbar: mrep_to_trep(r),
    ("mrep", "urep"): lambda r, hbar: mrep_to_urep(r),
    ("trep", "mrep"): lambda r, hbar: trep_to_mrep(r),
    ("trep", "trep"): lambda r, hbar: r,
    ("trep", "urep"): lambda r, hbar: trep_to_urep(r),
    ("urep", "mrep"): lambda r, hbar: trep_to_mrep(_canonical_trep(r, hbar)),
    ("urep", "trep"): _canonical_trep,
    ("urep", "urep"): lambda r, hbar: r,
    ("brep", "mrep"): lambda r, hbar: brep_to_mrep(r, hbar=hbar),
    ("brep", "trep"): lambda r, hbar: mrep_to_trep(brep_to_mrep(r, hbar=hbar)),
    ("brep", "urep"): lambda r, hbar: brep_to_urep(r, hbar=hbar),
}


@pytest.mark.parametrize("ell", (1, 2, 3))
def test_conversions_match_the_explicit_relations_bitwise(ell):
    gen = rng(300 + ell)
    for _ in range(5):
        hbar = float(gen.uniform(0.5, 2.0))
        m = random_mrep(gen, ell, hbar=hbar)
        docs = [
            RepFile("mrep", m, hbar),
            RepFile("trep", mrep_to_trep(m), hbar),
            RepFile("urep", mrep_to_urep(m), hbar),
            RepFile("brep", random_brep(gen, ell), hbar),
        ]
        for rf in docs:
            for to_kind in ("mrep", "trep", "urep"):
                want = EXPLICIT_RELATIONS[rf.kind, to_kind](rf.rep, hbar).matrix
                out = convert_rep(rf, to_kind)
                assert (out.kind, out.hbar, out.rep.hbar) == (to_kind, hbar, hbar)
                assert out.rep.matrix.dtype == want.dtype
                assert np.array_equal(_bits(out.rep.matrix), _bits(want))
            want = EXPLICIT_RELATIONS[rf.kind, "mrep"](rf.rep, hbar).matrix
            assert np.array_equal(_bits(rep_to_mrep(rf).matrix), _bits(want))


def test_write_rep_and_reload(tmp_path):
    gen = rng(72)
    rf = RepFile("brep", random_brep(gen, 3), 1.0)
    path = write_rep(tmp_path / "b.json", rf)
    again = load_rep(path)
    assert again.kind == "brep"
    assert np.allclose(again.rep.mixing, rf.rep.mixing, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_a_non_finite_value(tmp_path, bad):
    # json.dumps wrote NaN and Infinity, which are not JSON.
    path = tmp_path / "report.json"
    with pytest.raises(ValidationError, match="report.json: a value is not finite$"):
        serialize.write_json(path, {"rows": [1.0, bad]})
    assert not path.exists()


def test_trajectory_csv_header_and_format(tmp_path):
    model = decay_model(rabi=1.0)
    m = random_mrep(rng(73), 1)
    amp = np.abs(m.matrix).max()
    if amp < 1e-3:  # ensure a generic measurement
        m = heterodyne_mrep(0.5)
    config = SimulationConfig(dt=1e-2, steps=5, n_traj=3, seed=4, snapshot_stride=1)
    ens = simulate_ensemble(model, m, EXCITED, config)
    path = write_trajectory_csv(tmp_path / "traj.csv", ens)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,traj,y_1,y_2,purity,log_weight"
    assert len(lines) == 1 + 5 * 3
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.01)
    assert first[1] == "0"
    # 17 significant digits survive a parse round trip.
    assert float(first[2]) == ens.currents[0, 0, 0]
    assert float(first[4]) == ens.purity[0, 1]


def test_trajectory_csv_two_channel_header(tmp_path):
    gen = rng(74)
    model = decay_model(rabi=1.0)
    cs = np.array([model.lindblads[0], 0.3 * np.eye(2, dtype=complex)])
    from diffmon import LindbladModel

    model2 = LindbladModel(hamiltonian=model.hamiltonian, lindblads=cs)
    m = random_mrep(gen, 2)
    config = SimulationConfig(dt=1e-2, steps=2, n_traj=1, seed=4)
    ens = simulate_ensemble(model2, m, EXCITED, config)
    path = write_trajectory_csv(tmp_path / "traj4.csv", ens)
    assert path.read_text().splitlines()[0] == "t,traj,y_1,y_2,y_3,y_4,purity,log_weight"


def test_trajectory_csv_matches_per_value_rendering(tmp_path):
    import dataclasses

    config = SimulationConfig(dt=1e-2, steps=6, n_traj=4, seed=8)
    ens = simulate_ensemble(decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED, config)
    currents, pur, logw = ens.currents.copy(), ens.purity.copy(), ens.log_weight.copy()
    currents[0, 0, 0], currents[1, 2, 1], currents[3, 5, 0] = -0.0, 5e-324, -1.7976931348623157e308
    currents[2, 4, 1], pur[1, 3], logw[2, 6] = 1e-300, 1.0 - 2.0**-53, -0.0
    ens = dataclasses.replace(ens, currents=currents, purity=pur, log_weight=logw)
    path = write_trajectory_csv(tmp_path / "traj.csv", ens)

    def fmt(v):
        return f"{float(v):.17g}"

    lines = ["t,traj,y_1,y_2,purity,log_weight"]
    for m in range(ens.steps):
        for k in range(ens.n_traj):
            values = [*currents[k, m], pur[k, m + 1], logw[k, m + 1]]
            lines.append(f"{fmt(ens.times[m + 1])},{k}," + ",".join(fmt(v) for v in values))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


# The CSV formatter against "%.17g" % v, string for string.


def render(values) -> list:
    """Each value as the trajectory CSV's formatter writes it."""
    slots = serialize._csv_slots(np.asarray(values, dtype=float)).copy()
    slots[:, -1] = ord("\n")
    return slots.tobytes().translate(None, b"\0").decode().splitlines()


def assert_renders_as_percent_17g(values):
    values = np.asarray(values, dtype=float)
    got = render(values)
    want = ["%.17g" % v for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def test_csv_formatter_at_the_exponent_switch():
    # %g prints 1e-5 and 1e17 in exponent form and 1e-4 and 1e16 in fixed form.
    edges = [1e-5, 5e-5, 1e-4, 5e-4, 1e16, 5e16, 1e17, 5e17]
    values = [np.nextafter(x, to) for x in edges for to in (-np.inf, np.inf)] + edges
    assert_renders_as_percent_17g(np.concatenate([values, np.negative(values)]))


def test_csv_formatter_beside_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    assert_renders_as_percent_17g(
        np.concatenate([powers, np.nextafter(powers, -np.inf), np.nextafter(powers, np.inf)])
    )


def test_csv_formatter_breaks_exact_ties_half_even():
    assert render([(4e15 + 3) / 4, (4e15 + 1) / 4]) == ["1000000000000000.8", "1000000000000000.2"]
    # In decade e, n / 2^(17 - e) is an exact tie at the 17th digit for every odd n.
    ties = [
        (np.ceil(10.0**e * 2.0 ** (17 - e)) + np.arange(999)) / 2.0 ** (17 - e)
        for e in range(-4, 16)
    ]
    assert_renders_as_percent_17g(np.concatenate(ties + [-t for t in ties]))


def test_csv_formatter_special_values():
    values = [
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
        2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    ]
    subnormals = rng(90).integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    assert_renders_as_percent_17g(np.concatenate([values, subnormals, -subnormals]))


def test_csv_formatter_random_bit_patterns():
    bits = rng(91).integers(0, 2**64, 10**5, dtype=np.uint64)
    assert_renders_as_percent_17g(bits.view(np.float64))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_csv_formatter_matches_percent_17g(values):
    assert_renders_as_percent_17g(values)


# The CSV's bytes depend on nothing but the data.


def per_value_csv(ens) -> bytes:
    """The trajectory CSV rendered one "%.17g" at a time, the writer's oracle."""
    names = [f"y_{j + 1}" for j in range(ens.noise_dim)]
    lines = [",".join(["t", "traj", *names, "purity", "log_weight"])]
    for m in range(ens.steps):
        for k in range(ens.n_traj):
            values = [*ens.currents[k, m], ens.purity[k, m + 1], ens.log_weight[k, m + 1]]
            fields = ["%.17g" % ens.times[m + 1], str(k), *("%.17g" % v for v in values)]
            lines.append(",".join(fields))
    return ("\n".join(lines) + "\n").encode()


def test_trajectory_csv_linear_mode_matches_per_value_rendering(tmp_path):
    import dataclasses

    config = SimulationConfig(dt=1e-2, steps=9, n_traj=5, seed=12, mode="linear")
    ens = simulate_ensemble(decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED, config)
    assert np.count_nonzero(ens.log_weight[:, 2:]) == ens.log_weight[:, 2:].size
    logw = ens.log_weight.copy()
    logw[3, 4] = -0.0
    ens = dataclasses.replace(ens, log_weight=logw)
    path = write_trajectory_csv(tmp_path / "linear.csv", ens)
    assert path.read_bytes() == per_value_csv(ens)
    assert b",-0\n" in path.read_bytes()


def test_trajectory_csv_two_channels_match_per_value_rendering(tmp_path):
    model = decay_model(rabi=1.0)
    cs = np.array([model.lindblads[0], 0.3 * np.eye(2, dtype=complex)])
    model2 = LindbladModel(hamiltonian=model.hamiltonian, lindblads=cs)
    config = SimulationConfig(dt=1e-2, steps=6, n_traj=4, seed=13)
    ens = simulate_ensemble(model2, random_mrep(rng(92), 2), EXCITED, config)
    assert ens.noise_dim == 4
    path = write_trajectory_csv(tmp_path / "l2.csv", ens)
    assert path.read_bytes() == per_value_csv(ens)


def test_trajectory_csv_bytes_do_not_depend_on_the_step_block(tmp_path, monkeypatch):
    config = SimulationConfig(dt=1e-2, steps=23, n_traj=6, seed=14, mode="linear")
    ens = simulate_ensemble(decay_model(rabi=1.0), heterodyne_mrep(0.8), EXCITED, config)
    default = write_trajectory_csv(tmp_path / "default.csv", ens).read_bytes()
    assert default == per_value_csv(ens)
    for steps in (1, 7):  # the last block of 23 steps is short
        monkeypatch.setattr(serialize, "_CSV_BLOCK_ROWS", steps * ens.n_traj)
        path = write_trajectory_csv(tmp_path / f"block{steps}.csv", ens)
        assert path.read_bytes() == default


def test_trajectory_csv_sends_no_fixed_form_value_to_the_scalar_path(tmp_path, monkeypatch):
    # The bench's `simulate` shape (qubit decay, heterodyne eta = 0.8, 500 steps
    # x 50 trajectories, from the maximally mixed state) in both modes.  The
    # scalar formatter gets the time column, one value per step, and the
    # values "%.17g" writes in exponent form: no current or purity, no
    # log-weight in nonlinear mode, and the few linear log-weights below 1e-4.
    rendered = []

    def counting_fmt(v):
        rendered.append(v)
        return f"{float(v):.17g}"

    monkeypatch.setattr(serialize, "_fmt", counting_fmt)
    rho0 = np.eye(2, dtype=complex) / 2
    for mode in ("nonlinear", "linear"):
        config = SimulationConfig(dt=1e-3, steps=500, n_traj=50, seed=15, mode=mode)
        ens = simulate_ensemble(decay_model(), heterodyne_mrep(0.8), rho0, config)
        rendered.clear()
        write_trajectory_csv(tmp_path / f"{mode}.csv", ens)
        logw = ens.log_weight[:, 1:].T.ravel()  # in the order rows are written
        tiny = logw[(logw != 0) & (np.abs(logw) < 1e-4)]
        assert sorted(rendered) == sorted([*ens.times[1:], *tiny])
        assert (tiny.size == 0) == (mode == "nonlinear")
