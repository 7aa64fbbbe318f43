"""Tests for deterministic JSON encoding, checksums, and manifests."""

import copy
import json
import math
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamreduce.errors import ArtifactError, KamError, SchemaError
from kamreduce.serialize import (
    _KEYWORDS,
    MANIFEST_SCHEMA,
    RunManifest,
    StoredOperator,
    _check_schema,
    decode_complex,
    dumps_canonical,
    encode_complex,
    load_array,
    load_json,
    sha256_file,
    to_jsonable,
    verify_checksums,
    write_array,
    write_checksums,
    write_json,
)
from kamreduce.torus import PairSeries


SHIPPED = [json.loads(path.read_text())
           for path in sorted((Path(__file__).resolve().parents[1] / "manifests").glob("*.json"))]


def _manifest_doc():
    return {
        "scenario": "tiny",
        "seed": 7,
        "out": "runs/tiny",
        "model": {
            "kind": "abstract",
            "N": 8,
            "n": 1,
            "d": 4.0 / 3.0,
            "delta": 0.2,
            "K": 2,
            "model_seed": 11,
        },
        "settings": {
            "epsilon": 1e-3,
            "s": 0.05,
            "gamma": 0.05,
            "tau": 8.0,
            "K_base": 4,
        },
        "frequency": {"omega": [0.13799890521733005]},
    }


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def test_to_jsonable_numpy_types():
    out = to_jsonable(
        {
            "i": np.int64(3),
            "f": np.float64(0.25),
            "b": np.bool_(True),
            "a": np.arange(3.0),
            "c": 1.0 + 2.0j,
        }
    )
    assert out == {
        "i": 3,
        "f": 0.25,
        "b": True,
        "a": [0.0, 1.0, 2.0],
        "c": {"im": 2.0, "re": 1.0},
    }


def test_to_jsonable_rejects_nonfinite_and_bad_keys():
    with pytest.raises(ArtifactError):
        to_jsonable(float("nan"))
    with pytest.raises(ArtifactError):
        to_jsonable({1: "x"})
    with pytest.raises(ArtifactError):
        to_jsonable(object())


def test_dumps_canonical_sorted_and_stable():
    a = dumps_canonical({"b": 1.0 / 3.0, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1.0 / 3.0})
    assert a == b
    assert a.endswith("\n")
    assert a.index('"a"') < a.index('"b"')
    # shortest round-trip float text survives a parse exactly
    assert json.loads(a)["b"] == 1.0 / 3.0


def test_complex_array_round_trip():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = decode_complex(encode_complex(arr))
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_json_and_array_files_round_trip(tmp_path):
    doc = {"x": [1.5, 2.5], "name": "abc"}
    digest = write_json(tmp_path / "doc.json", doc)
    assert load_json(tmp_path / "doc.json") == doc
    assert sha256_file(tmp_path / "doc.json") == digest

    arr = np.linspace(0, 1, 7).reshape(7, 1) * (1 + 1j)
    d1 = write_array(tmp_path / "a.npy", arr)
    d2 = write_array(tmp_path / "a.npy", arr)
    assert d1 == d2  # byte-identical rewrite
    assert np.array_equal(load_array(tmp_path / "a.npy"), arr)


@pytest.mark.parametrize("n, K, N", [(1, 0, 3), (1, 4, 3), (1, 3, 1), (2, 0, 2), (2, 3, 4),
                                     (2, 2, 1), (3, 0, 2), (3, 2, 3)])
def test_stored_operator_evaluates_as_the_loaded_series_bit_for_bit(tmp_path, n, K, N):
    # a generator file holds its pair stack; stored and loaded give the same bits
    rng = np.random.default_rng(100 * n + 10 * K + N)
    shape = (2 * K + 1,) * n + (N * (N - 1) // 2,)
    write_array(tmp_path / "g.npy", rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    loaded = PairSeries(n, K, N, load_array(tmp_path / "g.npy"), -1)
    stored = StoredOperator(str(tmp_path / "g.npy"), n, K, N)
    assert stored.slab_bytes == 16 * (2 * K + 1) ** (n - 1) * N * (N - 1) // 2
    phis = rng.uniform(0.0, 2.0 * np.pi, (9, n))
    for batch in (phis, phis[:1], np.zeros((1, n))):
        assert stored.at(batch).tobytes() == loaded.at(batch).tobytes()


@pytest.mark.parametrize("stored, match", [
    (np.zeros((5, 1), complex), r"g.npy: coefficient shape \(5, 1\) != \(3, 1\)"),
    (np.zeros((3, 1)), "C-ordered float64, not C-ordered complex128"),
    (np.zeros((3, 1), ">c16"), "C-ordered >c16, not C-ordered complex128"),
    # the dense N x N layout that generator files had before they held pairs
    (np.zeros((3, 2, 2), complex), r"g.npy: coefficient shape \(3, 2, 2\) != \(3, 1\)"),
])
def test_stored_operator_checks_its_header(tmp_path, stored, match):
    # shape, order and dtype mismatches reach the command line in test_cli
    np.save(tmp_path / "g.npy", stored)
    with pytest.raises(KamError, match=match):
        StoredOperator(str(tmp_path / "g.npy"), 1, 1, 2)


def test_stored_operator_refuses_a_file_of_the_wrong_size(tmp_path):
    path = tmp_path / "g.npy"
    write_array(path, np.ones((3, 1), complex))
    whole = path.read_bytes()
    for data in (whole[:-1], whole + b"\0", b"not an array"):
        path.write_bytes(data)
        with pytest.raises(ArtifactError):
            StoredOperator(str(path), 1, 1, 2)
    # a file cut after it was opened fails at the slab it cannot read
    path.write_bytes(whole)
    stored = StoredOperator(str(path), 1, 1, 2)
    path.write_bytes(whole[:-16])
    with pytest.raises(ArtifactError, match="ended before its last slab"):
        stored.at(np.zeros((1, 1)))


def test_stored_operator_refuses_a_file_rewritten_after_it_was_opened(tmp_path):
    # same header and size: rewritten in place, as write_array does, or replaced
    path, other = tmp_path / "g.npy", tmp_path / "h.npy"
    write_array(path, np.ones((3, 1), complex))
    stored = StoredOperator(str(path), 1, 1, 2)
    assert np.array_equal(stored.at(np.zeros((1, 1))), np.array([[[0.0, -3.0], [3.0, 0.0]]]))
    mtime = path.stat().st_mtime_ns
    write_array(path, np.full((3, 1), 2.0 + 0j))
    # the file system's clock may not have ticked within this test
    os.utime(path, ns=(mtime + 10**9, mtime + 10**9))
    with pytest.raises(ArtifactError, match="g.npy changed after its checksum was checked"):
        stored.at(np.zeros((1, 1)))
    write_array(other, np.ones((3, 1), complex))
    stored = StoredOperator(str(path), 1, 1, 2)
    os.replace(other, path)
    with pytest.raises(ArtifactError, match="g.npy changed after its checksum was checked"):
        stored.at(np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------

def test_checksums_cover_everything_but_timings(tmp_path):
    write_json(tmp_path / "one.json", {"v": 1})
    write_array(tmp_path / "two.npy", np.arange(4))
    (tmp_path / "timings.txt").write_text("wall_s: 1.23 s\n")
    sums = write_checksums(tmp_path)
    assert set(sums) == {"one.json", "two.npy"}
    assert verify_checksums(tmp_path) == sums


def test_checksums_detect_tampering(tmp_path):
    write_json(tmp_path / "one.json", {"v": 1})
    write_checksums(tmp_path)
    (tmp_path / "one.json").write_text('{"v": 2}\n')
    with pytest.raises(ArtifactError, match="mismatch"):
        verify_checksums(tmp_path)


def test_checksums_detect_missing_file(tmp_path):
    write_json(tmp_path / "one.json", {"v": 1})
    write_checksums(tmp_path)
    (tmp_path / "one.json").unlink()
    with pytest.raises(ArtifactError, match="missing"):
        verify_checksums(tmp_path)
    with pytest.raises(ArtifactError):
        verify_checksums(tmp_path / "nowhere")


def test_checksums_of_named_artifacts(tmp_path):
    write_json(tmp_path / "one.json", {"v": 1})
    write_json(tmp_path / "two.json", {"v": 2})
    write_checksums(tmp_path)
    (tmp_path / "two.json").write_text('{"v": 3}\n')
    verify_checksums(tmp_path, ["one.json"])  # two.json is not checked
    with pytest.raises(ArtifactError, match="mismatch for two.json"):
        verify_checksums(tmp_path, ["one.json", "two.json"])
    write_json(tmp_path / "three.json", {"v": 3})
    with pytest.raises(ArtifactError, match="three.json is not in"):
        verify_checksums(tmp_path, ["three.json"])


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip_is_identity(tmp_path):
    doc = _manifest_doc()
    m1 = RunManifest.from_dict(doc)
    m1.dump(tmp_path / "m.json")
    m2 = RunManifest.load(tmp_path / "m.json")
    assert m1 == m2
    assert m2.to_dict() == m1.to_dict()


def test_manifest_schema_error_names_field():
    doc = _manifest_doc()
    del doc["settings"]["gamma"]
    with pytest.raises(SchemaError, match="settings"):
        RunManifest.from_dict(doc)
    doc = _manifest_doc()
    doc["unknown_block"] = 1
    with pytest.raises(SchemaError):
        RunManifest.from_dict(doc)


def test_manifest_angle_counts_agree():
    def field(doc):
        with pytest.raises(SchemaError) as info:
            RunManifest.from_dict(doc)
        return info.value.field_path

    doc = _manifest_doc()
    doc["frequency"] = {"omega": [0.1, 0.3]}
    assert field(doc) == "frequency.omega"
    doc["model"]["n"] = 2
    assert RunManifest.from_dict(doc).model["n"] == 2
    doc["model"] = {"kind": "oscillator", "alpha": 4.0, "N": 8, "beta": 0.5,
                    "forcing": {"1,0": 0.5, "0,1": 0.5}}
    assert RunManifest.from_dict(doc).frequency == {"omega": [0.1, 0.3]}
    doc["frequency"] = {"omega": [0.1]}
    assert field(doc) == "frequency.omega"
    doc["frequency"] = {"sample": {"Kmax": 8, "num_candidates": 10}}
    doc["model"]["forcing"] = {"1": 0.5, "-1,0": 0.5}
    assert field(doc) == "model.forcing"


def test_manifest_frequency_exactly_one_variant():
    doc = _manifest_doc()
    doc["frequency"] = {
        "omega": [0.1],
        "sample": {"Kmax": 8, "num_candidates": 10},
    }
    with pytest.raises(SchemaError) as info:
        RunManifest.from_dict(doc)
    assert info.value.field_path == "frequency"
    doc["frequency"] = {}
    with pytest.raises(SchemaError) as info:
        RunManifest.from_dict(doc)
    assert info.value.field_path == "frequency"


_OSCILLATOR = {"kind": "oscillator", "alpha": 4.0, "N": 8, "beta": 0.5, "forcing": {"1": 0.5}}


@pytest.mark.parametrize("edit, where", [
    # the variant is taken from kind, so the error is inside it
    (lambda doc: doc["model"].update(n=5), "model.n"),
    (lambda doc: doc["model"].update(model_seed=-1), "model.model_seed"),
    (lambda doc: doc["model"].update(N=1), "model.N"),
    (lambda doc: doc.update(model=dict(_OSCILLATOR, v_kind="x")), "model.v_kind"),
    (lambda doc: doc["model"].update(kind="quadratic"), "model"),
    # an integer is a JSON integer, not an integral float
    (lambda doc: doc["model"].update(K=2.0), "model.K"),
    (lambda doc: doc["settings"].update(K_base=4.0), "settings.K_base"),
    (lambda doc: doc["frequency"].update(omega=[0.1, True]), "frequency.omega.1"),
    # the bounds themselves
    (lambda doc: doc["settings"].update(s=0.0), "settings.s"),
    (lambda doc: doc["model"].update(d=1), "model.d"),
    (lambda doc: doc["frequency"].update(omega=[0.1] * 4), "frequency.omega"),
    # json.loads reads NaN and Infinity, which break no bound: a number is finite
    (lambda doc: doc["frequency"].update(omega=[math.nan]), "frequency.omega.0"),
    (lambda doc: doc["settings"].update(epsilon=-math.inf), "settings.epsilon"),
])
def test_manifest_schema_error_names_the_field_that_is_wrong(edit, where):
    doc = _manifest_doc()
    edit(doc)
    with pytest.raises(SchemaError) as info:
        RunManifest.from_dict(doc)
    assert info.value.field_path == where
    assert str(info.value).startswith(f"manifest invalid at {where}: ")


def test_manifest_accepts_values_on_inclusive_bounds():
    doc = _manifest_doc()
    doc["scenario"] = "x"
    doc["model"].update(N=2, n=3, delta=0, K=0, model_seed=2**64 - 1)
    doc["frequency"] = {"omega": [0.1, 0.2, 0.3]}
    assert RunManifest.from_dict(doc).model["n"] == 3


def test_manifest_read_applies_overrides(tmp_path):
    RunManifest.from_dict(_manifest_doc()).dump(tmp_path / "m.json")
    doc = RunManifest.read(tmp_path / "m.json", seed=99, out="elsewhere")
    assert (doc["seed"], doc["out"]) == (99, "elsewhere")
    assert RunManifest.read(tmp_path / "m.json", seed=None)["seed"] == 7  # None means keep
    assert RunManifest.from_dict(doc).seed == 99


def test_manifest_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        RunManifest.load(path)
    path.write_text("[1, 2]")
    with pytest.raises(SchemaError, match="object"):
        RunManifest.load(path)


def test_manifest_schema_uses_only_keywords_the_checker_implements():
    def keywords(schema):
        assert schema.get("additionalProperties", False) in (True, False)  # never a schema
        yield from schema
        for sub in (*schema.get("properties", {}).values(),
                    *schema.get("patternProperties", {}).values(),
                    *schema.get("oneOf", ()), *([schema["items"]] if "items" in schema else [])):
            yield from keywords(sub)

    used = set(keywords(MANIFEST_SCHEMA))
    assert used <= _KEYWORDS, used - _KEYWORDS


def _slots(node):
    """Every (container, key) of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        yield node, key
        yield from _slots(child)


def _names(schema):
    """Every property name the schema declares, at any depth."""
    for name, sub in schema.get("properties", {}).items():
        yield name
        yield from _names(sub)
    for sub in schema.get("oneOf", ()):
        yield from _names(sub)


_KEYS = st.sampled_from(sorted(set(_names(MANIFEST_SCHEMA)) | {"1", "-2,1", "1.5"})) | st.text(max_size=3)
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 30) | st.integers()
            # the schema's bounds and their neighbours
            | st.sampled_from([0, 1, 2, 3, 4, 0.0, 1.0, 2.0, 14.0, -1.0, 1e-3, 2**64 - 1, 2**64])
            # which json.loads reads, though JSON has no such number
            | st.sampled_from([math.nan, math.inf, -math.inf])
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(["", "abstract", "oscillator", "power"]) | st.text(max_size=3))
# a value from a shipped manifest, often of the right type, or any JSON value
_VALUES = (st.sampled_from([c[k] for doc in SHIPPED for c, k in _slots(doc)]).map(copy.deepcopy)
           | st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6))
# jsonschema's Draft 2020-12 with the checker's two departures: an integer is
# an int, so an integral float such as 14.0 is not one, and a number is finite
_ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda checker, value: isinstance(value, int) and not isinstance(value, bool),
        "number": lambda checker, value: (isinstance(value, (int, float))
                                          and not isinstance(value, bool)
                                          and (isinstance(value, int) or math.isfinite(value))),
    }),
)(MANIFEST_SCHEMA)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_manifest_checker_verdict_is_jsonschemas(data):
    # set, drop or add one to three fields of a shipped manifest
    doc = copy.deepcopy(data.draw(st.sampled_from(SHIPPED)))
    for _ in range(data.draw(st.integers(1, 3))):
        action = data.draw(st.sampled_from(["set", "drop", "add"]))
        slots = list(_slots(doc))
        if action == "add":
            objects = [doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            data.draw(st.sampled_from(objects))[data.draw(_KEYS)] = data.draw(_VALUES)
        else:
            container, key = data.draw(st.sampled_from(slots))
            if action == "set":
                container[key] = data.draw(_VALUES)
            else:
                del container[key]
    try:
        _check_schema(MANIFEST_SCHEMA, doc)
        accepted = True
    except SchemaError:
        accepted = False
    assert accepted == _ORACLE.is_valid(doc)
