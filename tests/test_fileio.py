import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qbcommit import linalg
from qbcommit.errors import ProtocolFileError
from qbcommit.families import (
    concealing_pair,
    decoy_protocol,
    dephasing_protocol,
    random_protocol,
)
from qbcommit.fileio import (
    dump_json,
    jsonable,
    load_protocol,
    load_scan_config,
    matrix_from_pairs,
    matrix_to_pairs,
    parse_protocol,
    serialize_protocol,
    write_protocol_file,
)
from qbcommit.protocol import choi_distance, validate


def test_matrix_pairs_round_trip():
    rng = linalg.spawn_rng(50)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = matrix_from_pairs(matrix_to_pairs(m))
    np.testing.assert_array_equal(back, m)


def test_matrix_from_pairs_rejects_garbage():
    with pytest.raises(ProtocolFileError):
        matrix_from_pairs([[1.0, 2.0]])
    with pytest.raises(ProtocolFileError):
        matrix_from_pairs([[[1.0, 0.0], [0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ProtocolFileError):
        matrix_from_pairs("nope")


def test_protocol_file_round_trip(tmp_path):
    spec = random_protocol(2, 3, 2, seed=51)
    path = tmp_path / "proto.json"
    write_protocol_file(path, spec)
    loaded = load_protocol(path)
    assert loaded.label == spec.label
    assert loaded.dim_in == spec.dim_in
    assert loaded.dim_out == spec.dim_out
    assert choi_distance(loaded.bit0, spec.bit0) < 1e-15
    assert choi_distance(loaded.bit1, spec.bit1) < 1e-15
    for a, b in zip(loaded.bit0.ops, spec.bit0.ops):
        np.testing.assert_array_equal(a, b)


def test_parse_rejects_non_object():
    with pytest.raises(ProtocolFileError):
        parse_protocol([1, 2, 3])


def test_parse_requires_label_and_bits():
    spec = dephasing_protocol()
    data = serialize_protocol(spec)
    for key in ("label", "bit0", "bit1"):
        broken = dict(data)
        del broken[key]
        with pytest.raises(ProtocolFileError):
            parse_protocol(broken)


def test_parse_rejects_declared_dim_mismatch():
    data = serialize_protocol(dephasing_protocol())
    data["dim_in"] = 3
    with pytest.raises(ProtocolFileError):
        parse_protocol(data)


@pytest.mark.parametrize("declared", ["two", None, [2], 2.7, 2.0, True])
@pytest.mark.parametrize("key", ["dim_in", "dim_out"])
def test_parse_rejects_non_integer_declared_dim(key, declared):
    # The dephasing pair is 2x2, so only the type of the entry is wrong.
    data = serialize_protocol(dephasing_protocol())
    data[key] = declared
    with pytest.raises(ProtocolFileError, match=f"'{key}' must be an integer"):
        parse_protocol(data)


def test_parse_ignores_legacy_secret():
    # A "secret" block, well formed or not, is a key outside the format: it
    # is ignored on load and not written back.
    spec = dephasing_protocol()
    for secret in (
        {"probabilities": [0.5, 0.5], "outcome_counts": [1, 1]},
        {"probabilities": [0.5, 0.5], "outcome_counts": [1]},
        "not an object",
    ):
        data = serialize_protocol(spec)
        data["secret"] = secret
        loaded = parse_protocol(data)
        assert validate(loaded).accepted
        assert serialize_protocol(loaded) == serialize_protocol(spec)


def test_shipped_decoy_file_matches_builder():
    path = Path(__file__).resolve().parents[1] / "protocols" / "decoy-k2.json"
    assert path.read_text(encoding="utf-8") == dump_json(
        serialize_protocol(decoy_protocol(2))
    )


def test_parse_rejects_family_shape_mismatch():
    data = serialize_protocol(dephasing_protocol())
    data["bit1"] = [matrix_to_pairs(np.eye(3))]
    with pytest.raises(ProtocolFileError):
        parse_protocol(data)


def test_load_protocol_missing_file():
    with pytest.raises(OSError):
        load_protocol("/nonexistent/nowhere.json")


def test_load_protocol_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProtocolFileError, match="not valid JSON"):
        load_protocol(path)


def test_load_scan_config_good(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps({"family": "decoy", "params": [0, 1, 2], "label": "demo"}),
        encoding="utf-8",
    )
    cfg = load_scan_config(path)
    assert cfg.params == [0.0, 1.0, 2.0]
    assert cfg.label == "demo"
    spec = cfg.family(1.0)
    assert spec.dim_out == 4


def test_load_scan_config_default_label_and_options(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps(
            {"family": "decoy", "params": [0], "options": {"angle": np.pi / 3}}
        ),
        encoding="utf-8",
    )
    cfg = load_scan_config(path)
    assert cfg.label == "decoy-scan"
    spec = cfg.family(0.0)
    # The option must actually reach the builder: a pi/3 basis rotation
    # changes the second family away from the default pi/2 one.
    default = decoy_protocol(0)
    assert choi_distance(spec.bit1, default.bit1) > 1e-3


def test_load_scan_config_rejects_unknown_family(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"family": "mystery", "params": [1]}), encoding="utf-8")
    with pytest.raises(ProtocolFileError, match="known families"):
        load_scan_config(path)


def test_load_scan_config_rejects_empty_params(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"family": "decoy", "params": []}), encoding="utf-8")
    with pytest.raises(ProtocolFileError):
        load_scan_config(path)


def test_load_scan_config_rejects_non_numeric_params(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps({"family": "decoy", "params": ["x"]}), encoding="utf-8"
    )
    with pytest.raises(ProtocolFileError):
        load_scan_config(path)


@pytest.mark.parametrize("options", [{"angel": 1.0}, {"param": 1}, {"angle": 1.0, "k": 2}])
def test_load_scan_config_rejects_options_the_family_does_not_take(tmp_path, options):
    path = tmp_path / "scan.json"
    path.write_text(
        json.dumps({"family": "decoy", "params": [0, 1], "options": options}), encoding="utf-8"
    )
    with pytest.raises(ProtocolFileError, match="'options' do not fit family 'decoy'"):
        load_scan_config(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_load_scan_config_rejects_non_finite_params(tmp_path, bad):
    path = tmp_path / "scan.json"
    path.write_text(f'{{"family": "decoy", "params": [0, {bad}]}}', encoding="utf-8")
    with pytest.raises(ProtocolFileError, match="must be finite"):
        load_scan_config(path)


def test_load_scan_config_invalid_json(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProtocolFileError, match="not valid JSON"):
        load_scan_config(path)


def test_jsonable_handles_common_shapes():
    assert jsonable(np.float64(1.5)) == 1.5
    assert jsonable(np.int32(4)) == 4
    assert jsonable(1 + 2j) == [1.0, 2.0]
    assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert jsonable(np.array([1j])) == [[0.0, 1.0]]
    assert jsonable({"b": (1, 2), "a": None}) == {"b": [1, 2], "a": None}

    @dataclasses.dataclass
    class Point:
        x: int
        tag: str

    assert jsonable(Point(1, "p")) == {"x": 1, "tag": "p"}


def test_jsonable_complex_matrix_uses_pairs():
    m = np.array([[1 + 2j]])
    assert jsonable(m) == [[[1.0, 2.0]]]


def test_dump_json_sorted_and_deterministic():
    a = dump_json({"z": 1, "a": [1.5, 2]})
    b = dump_json({"a": [1.5, 2], "z": 1})
    assert a == b
    assert a.startswith("{\n")
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"z"')


def test_serialized_file_is_stable_bytes(tmp_path):
    spec, _rel = concealing_pair(seed=52)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_protocol_file(p1, spec)
    write_protocol_file(p2, spec)
    assert p1.read_bytes() == p2.read_bytes()
