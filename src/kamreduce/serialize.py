"""Deterministic artifact I/O: run manifests, JSON records, checksums.

Replayability is the product: running the same manifest with the same seed
must reproduce every JSON artifact byte for byte.  Three rules make that
hold.

* All JSON goes through :func:`dumps_canonical`: keys sorted, indentation
  fixed, floats encoded with Python's shortest round-trip repr (unique per
  IEEE double, at most 17 significant digits).  NaN/Infinity are rejected
  rather than silently emitted.
* Numpy values never reach the encoder raw.  :func:`to_jsonable` converts
  scalars to plain Python numbers, real arrays to nested lists, and complex
  data to ``{"re": ..., "im": ...}`` pairs.
* Anything timing- or host-dependent belongs in ``timings.txt``, the one
  file excluded from the checksum table (see :func:`write_checksums`).
  Keeping it out of JSON keeps the rule crisp: every ``.json`` artifact is
  deterministic and replays byte-identically.

Large complex arrays (the conjugation generators) would be wasteful as JSON;
they are stored as ``.npy`` -- whose byte layout is also a pure function of
the array -- and covered by the same ``checksums.json``.  A generator's
pairs (torus.PairSeries) are read back as a :class:`StoredOperator`, one
slab at a time while it is evaluated, never whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArtifactError, KamError, SchemaError

__all__ = [
    "MANIFEST_SCHEMA",
    "RunManifest",
    "KamSettings",
    "to_jsonable",
    "dumps_canonical",
    "write_json",
    "load_json",
    "write_array",
    "load_array",
    "StoredOperator",
    "sha256_file",
    "write_checksums",
    "verify_checksums",
    "encode_complex",
    "decode_complex",
]

CHECKSUM_FILE = "checksums.json"
UNHASHED = (CHECKSUM_FILE, "timings.txt")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def to_jsonable(obj):
    """Recursively convert to types the json module encodes deterministically."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ArtifactError(f"non-finite float {obj!r} in artifact")
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return {"im": to_jsonable(float(obj.imag)), "re": to_jsonable(float(obj.real))}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_complex(obj)
        return to_jsonable(obj.tolist())
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ArtifactError(f"non-string key {key!r} in artifact")
            out[key] = to_jsonable(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise ArtifactError(f"cannot serialize object of type {type(obj).__name__}")


def encode_complex(arr: np.ndarray) -> dict:
    a = np.asarray(arr)
    return {
        "im": to_jsonable(np.imag(a).tolist()),
        "re": to_jsonable(np.real(a).tolist()),
        "shape": list(a.shape),
    }


def decode_complex(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    out = re + 1j * im
    if "shape" in obj:
        out = out.reshape(tuple(obj["shape"]))
    return out


def dumps_canonical(obj) -> str:
    """The one JSON formatting used for every artifact (ends with newline)."""
    text = json.dumps(
        to_jsonable(obj),
        sort_keys=True,
        indent=2,
        separators=(",", ": "),
        ensure_ascii=True,
        allow_nan=False,
    )
    return text + "\n"


def write_json(path, obj) -> str:
    """Write canonical JSON; returns the sha256 hex digest of the bytes."""
    data = dumps_canonical(obj).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def load_json(path):
    with open(path, "rb") as fh:
        return json.loads(fh.read().decode("utf-8"))


def write_array(path, arr) -> str:
    """Store an ndarray as .npy (deterministic bytes for a given array)."""
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(arr))
    return sha256_file(path)


def load_array(path) -> np.ndarray:
    """The stored array, frozen (torus.freeze) so that a series keeps it uncopied."""
    from .torus import freeze

    return freeze(np.load(path))


class StoredOperator:
    """A generator in its .npy file, evaluated while it is read.

    It stands for the anti-hermitian torus.PairSeries of band K on n angles
    whose pairs write_array stored, and holds none of them.  Opening reads
    the header only: its shape must be (2K+1,)*n + (N(N-1)/2,) and its data
    C-ordered complex128, or a KamError names the mismatch, as the shape
    check of a series does; a file that is no .npy, or whose size is not
    what its header says, raises ArtifactError.  at(phis) reads the pairs
    one slab of the first mode axis at a time into one buffer of
    slab_bytes and sums and mirrors them as PairSeries.at does
    (torus._values_at, torus._square_matrix), so the values are the loaded
    series' bit for bit.  The file is opened once its checksum
    has passed, and must not change while a command reads it: a read of a
    file whose inode, size or modification time differs from when it was
    opened raises ArtifactError rather than give values.
    """

    def __init__(self, path, n: int, K: int, N: int):
        self.path, self.n, self.K, self.N = path, n, K, N
        self._name = name = os.path.basename(path)
        self._shape = shape = (2 * K + 1,) * n + (N * (N - 1) // 2,)
        self.slab_bytes = np.dtype(complex).itemsize * math.prod(shape[1:])
        fmt = np.lib.format
        with open(path, "rb") as fh:
            try:
                v1 = fmt.read_magic(fh) == (1, 0)
                read = fmt.read_array_header_1_0 if v1 else fmt.read_array_header_2_0
                stored, fortran, dtype = read(fh)
            except ValueError as exc:
                raise ArtifactError(f"{name} is not a readable .npy file: {exc}") from exc
            self._offset = fh.tell()
            self._stamp = _stamp(fh)
            size = self._stamp[1] - self._offset
        if stored != shape:
            raise KamError(f"{name}: coefficient shape {stored} != {shape}")
        if fortran or dtype != np.dtype(complex):
            order = "Fortran" if fortran else "C"
            raise KamError(f"{name}: {order}-ordered {dtype}, not C-ordered complex128")
        if size != shape[0] * self.slab_bytes:
            raise ArtifactError(
                f"{name} holds {size} data bytes, its header {shape[0] * self.slab_bytes}")

    def _slabs(self):
        """The slabs of the first mode axis in order, each read into the one buffer.

        The last slab is yielded only once the file is seen unchanged since
        it was opened.
        """
        slab = np.empty(self._shape[1:], dtype=complex)
        raw = slab.reshape(-1).view(np.uint8)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset)
            for i in range(self._shape[0]):
                if fh.readinto(raw) != raw.nbytes:
                    raise ArtifactError(f"{self._name} ended before its last slab")
                if i == self._shape[0] - 1 and _stamp(fh) != self._stamp:
                    raise ArtifactError(f"{self._name} changed after its checksum was checked")
                yield slab

    def at(self, phis: np.ndarray) -> np.ndarray:
        """Values at a batch of angles phis (T, n), shape (T, N, N)."""
        from .torus import _square_matrix, _values_at

        pairs = _values_at(phis, self.n, self.K, self._slabs(), self._shape[self.n:])
        return _square_matrix(pairs, self.N, -1)


def _stamp(fh) -> tuple:
    """An open file's inode, size and modification time, which a rewrite changes."""
    st = os.fstat(fh.fileno())
    return st.st_ino, st.st_size, st.st_mtime_ns


# ---------------------------------------------------------------------------
# checksums
# ---------------------------------------------------------------------------

def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_checksums(outdir) -> dict:
    """Hash every artifact in outdir except the checksum table and timings."""
    sums = {}
    for name in sorted(os.listdir(outdir)):
        full = os.path.join(outdir, name)
        if name in UNHASHED or not os.path.isfile(full):
            continue
        sums[name] = sha256_file(full)
    write_json(os.path.join(outdir, CHECKSUM_FILE), sums)
    return sums


def verify_checksums(outdir, names=None) -> dict:
    """Recompute and compare; raises ArtifactError on any mismatch.

    names: the artifacts to check, each of which the table must list; all
    that it lists when None.
    """
    table_path = os.path.join(outdir, CHECKSUM_FILE)
    if not os.path.isfile(table_path):
        raise ArtifactError(f"missing {CHECKSUM_FILE} in {outdir}")
    sums = load_json(table_path)
    for name in sums if names is None else names:
        expected = sums.get(name)
        if expected is None:
            raise ArtifactError(f"{name} is not in {CHECKSUM_FILE}")
        full = os.path.join(outdir, name)
        if not os.path.isfile(full):
            raise ArtifactError(f"missing artifact {name}")
        actual = sha256_file(full)
        if actual != expected:
            raise ArtifactError(
                f"checksum mismatch for {name}: expected {expected}, got {actual}"
            )
    return sums


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}

_ABSTRACT_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "N", "n", "d", "delta", "K"],
    "properties": {
        "kind": {"const": "abstract"},
        "N": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1, "maximum": 3},
        "d": {"type": "number", "exclusiveMinimum": 1},
        "delta": {"type": "number", "minimum": 0},
        "K": {"type": "integer", "minimum": 0},
        "decay": {"type": "number", "exclusiveMinimum": 0},
        "model_seed": _SEED,
    },
}

_OSCILLATOR_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "alpha", "N", "beta", "forcing"],
    "properties": {
        "kind": {"const": "oscillator"},
        "alpha": {"type": "number", "minimum": 2},
        "N": {"type": "integer", "minimum": 2},
        "beta": {"type": "number", "minimum": 0},
        "delta": {"type": "number", "minimum": 0},
        "v_kind": {"enum": ["abspower", "power", "fractional"]},
        # forcing: torus Fourier modes, keys "k" (n=1) or "k1,k2" etc.
        "forcing": {
            "type": "object",
            "minProperties": 1,
            "patternProperties": {r"^-?\d+(,-?\d+)*$": {"type": "number"}},
            "additionalProperties": False,
        },
        "scale_to_epsilon": {"type": "boolean"},
    },
}

_SETTINGS = {
    "type": "object",
    "additionalProperties": False,
    "required": ["epsilon", "s", "gamma", "tau", "K_base"],
    "properties": {
        "epsilon": {"type": "number", "minimum": 0},
        "s": {"type": "number", "exclusiveMinimum": 0},
        "gamma": {"type": "number", "exclusiveMinimum": 0},
        "tau": {"type": "number", "exclusiveMinimum": 0},
        "K_base": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "l_max": {"type": "integer", "minimum": 1},
    },
}

_FREQUENCY = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega"],
            "properties": {
                "omega": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "items": {"type": "number"},
                }
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["sample"],
            "properties": {
                "sample": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["Kmax", "num_candidates"],
                    "properties": {
                        "Kmax": {"type": "integer", "minimum": 1},
                        "num_candidates": {"type": "integer", "minimum": 1},
                        "Nmax": {"type": "integer", "minimum": 2},
                        "robust_K": {"type": "integer", "minimum": 1},
                    },
                }
            },
        },
    ]
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario", "seed", "out", "model", "settings", "frequency"],
    "properties": {
        "scenario": {"type": "string", "minLength": 1},
        "seed": _SEED,
        "out": {"type": "string", "minLength": 1},
        "model": {"oneOf": [_ABSTRACT_MODEL, _OSCILLATOR_MODEL]},
        "settings": _SETTINGS,
        "frequency": _FREQUENCY,
        # optional per-command blocks
        "frequencies": {
            "type": "object",
            "additionalProperties": False,
            "required": ["gamma_grid", "num_samples"],
            "properties": {
                "gamma_grid": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
                "num_samples": {"type": "integer", "minimum": 1},
                "Kmax": {"type": "integer", "minimum": 1},
                "tau": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_max": {"type": "number", "exclusiveMinimum": 0},
                "num_times": {"type": "integer", "minimum": 2},
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "spectrum": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"Kmax": {"type": "integer", "minimum": 0}},
        },
    },
}


# keyword: (the JSON type it bounds, the comparison with the bound that breaks
# it, the rule for the message).  A number is bounded itself, a string, array
# or object by its length; the comparisons are JSON Schema's, under which a
# NaN breaks no bound, so the number type itself is finite.
_LIMITS = {
    "minimum": ("number", operator.lt, "must be >="),
    "maximum": ("number", operator.gt, "must be <="),
    "exclusiveMinimum": ("number", operator.le, "must be >"),
    "minLength": ("string", operator.lt, "length must be >="),
    "minItems": ("array", operator.lt, "length must be >="),
    "maxItems": ("array", operator.gt, "length must be <="),
    "minProperties": ("object", operator.lt, "length must be >="),
}
# every keyword _check_schema implements; MANIFEST_SCHEMA may use no other
_KEYWORDS = frozenset({"$schema", "type", "const", "enum", "oneOf", "required", "properties",
                       "patternProperties", "additionalProperties", "items", *_LIMITS})
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _is_type(value, name: str) -> bool:
    """JSON typing: a bool is no number, and an integer is an int, never an integral float.

    A number is finite: json.loads reads NaN and Infinity, which JSON has not.
    """
    if not isinstance(value, _TYPES[name]) or (name != "boolean" and isinstance(value, bool)):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _variant_key(variant: dict):
    """A oneOf variant's first required key, with the value its const pins (None if none)."""
    key = variant["required"][0]
    return key, variant["properties"][key].get("const")


def _check_schema(schema: dict, value, path: tuple = ()) -> None:
    """Raise SchemaError at the first field where value breaks schema.

    Covers the keywords in _KEYWORDS, as JSON Schema 2020-12 defines them,
    except that an integer must be a JSON integer.  A oneOf is decided by
    its variants' first required keys (model's "kind", frequency's one
    key): the one variant whose key the object has, with its const value,
    is checked, so an error names the field inside it.
    """
    where = ".".join(path) or "<root>"

    def fail(message):
        raise SchemaError(f"manifest invalid at {where}: {message}", field_path=where)

    if "oneOf" in schema:
        keys = [_variant_key(v) for v in schema["oneOf"]]
        chosen = [v for v, (key, const) in zip(schema["oneOf"], keys)
                  if isinstance(value, dict) and key in value
                  and (const is None or value[key] == const)]
        if len(chosen) != 1:
            names = " | ".join(key if const is None else f"{key} = {const!r}" for key, const in keys)
            fail(f"needs exactly one of {names}, found {len(chosen)}")
        return _check_schema(chosen[0], value, path)
    if "type" in schema and not _is_type(value, schema["type"]):
        fail(f"{value!r} is not of type {schema['type']!r}")
    if "const" in schema and value != schema["const"]:
        fail(f"{schema['const']!r} was expected, not {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    for keyword, (kind, breaks, rule) in _LIMITS.items():
        if keyword in schema and _is_type(value, kind):
            measure = value if kind == "number" else len(value)
            if breaks(measure, schema[keyword]):
                fail(f"{rule} {schema[keyword]!r}, not {measure!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check_schema(schema["items"], item, path + (str(i),))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"{key!r} is required")
        for key, item in value.items():
            subs = [schema["properties"][key]] if key in schema.get("properties", {}) else []
            subs += [sub for pattern, sub in schema.get("patternProperties", {}).items()
                     if re.search(pattern, key)]
            if not subs and schema.get("additionalProperties") is False:
                fail(f"{key!r} is not allowed")
            for sub in subs:
                _check_schema(sub, item, path + (key,))


def _check_angles(doc: dict) -> None:
    """The cross-field checks: every forcing key and an explicit omega have n angles.

    n is the abstract model's n, or the forcing keys' one dimension.
    """
    model = doc["model"]
    if model["kind"] == "abstract":
        n = model["n"]
    else:
        dims = sorted({key.count(",") + 1 for key in model["forcing"]})
        if len(dims) > 1:
            raise SchemaError(f"manifest invalid at model.forcing: keys mix {dims} angles",
                              field_path="model.forcing")
        n = dims[0]
    omega = doc["frequency"].get("omega")
    if omega is not None and len(omega) != n:
        raise SchemaError(f"manifest invalid at frequency.omega: {len(omega)} angles "
                          f"for a model with n = {n}", field_path="frequency.omega")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to replay a run: scenario, model, settings, seed.

    The document is JSON with a closed schema; parse -> serialize -> parse is
    the identity.  The root ``seed`` is the only entropy source a command may
    use (model instances may pin their own ``model_seed`` so that the same
    operator family can be studied under many root seeds).
    """

    scenario: str
    seed: int
    out: str
    model: dict
    settings: dict
    frequency: dict
    frequencies: dict | None = None
    verify: dict | None = None
    spectrum: dict | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        _check_schema(MANIFEST_SCHEMA, doc)
        _check_angles(doc)
        return cls(
            scenario=doc["scenario"],
            seed=doc["seed"],
            out=doc["out"],
            model=doc["model"],
            settings=doc["settings"],
            frequency=doc["frequency"],
            frequencies=doc.get("frequencies"),
            verify=doc.get("verify"),
            spectrum=doc.get("spectrum"),
        )

    def to_dict(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "seed": self.seed,
            "out": self.out,
            "model": self.model,
            "settings": self.settings,
            "frequency": self.frequency,
        }
        for name in ("frequencies", "verify", "spectrum"):
            value = getattr(self, name)
            if value is not None:
                doc[name] = value
        return doc

    @staticmethod
    def read(path, **overrides) -> dict:
        """The manifest document at path with the overrides that are not None; not validated."""
        try:
            doc = load_json(path)
        except OSError as exc:
            raise SchemaError(f"manifest cannot be read: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("manifest must be a JSON object")
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return doc

    @classmethod
    def load(cls, path) -> "RunManifest":
        return cls.from_dict(cls.read(path))

    def dump(self, path) -> str:
        return write_json(path, self.to_dict())


@dataclass(frozen=True)
class KamSettings:
    """Iteration parameters: the choices a manifest makes, its settings block.

    The manifest schema (_SETTINGS) bounds each of them; RunManifest
    validates them before a command builds its settings.
    """

    epsilon: float
    s: float
    gamma: float
    tau: float
    K_base: int
    tol: float = 1e-12
    l_max: int = 10

    def work_cutoff(self) -> int:
        """Series cutoff of every step."""
        return 4 * self.K_base

    def horizon(self) -> int:
        """|k|_1 range of the non-resonance certificates."""
        return 2 * self.work_cutoff()

    def sigma(self, l: int) -> float:
        return self.s / (4.0 * l * l)

    def eps_schedule(self, l: int) -> float:
        if self.epsilon == 0.0:
            return 0.0
        return self.epsilon ** ((4.0 / 3.0) ** l)

    def K_schedule(self, l: int) -> int:
        return l * self.K_base
