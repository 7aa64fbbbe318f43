"""Tests for the command-line surface.

Commands are invoked in-process through cli.main so exit codes and artifacts
can be asserted without subprocess overhead.  The tiny n=1 scenario reuses
the frequency certified in test_engine (its certificate covers every N up to
10, and the model here has N = 8).
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from kamreduce import cli
from kamreduce.errors import SchemaError
from kamreduce.serialize import RunManifest, load_json

OMEGA = 0.13799890521733005
# certified in test_engine for two angles (tau = 9, every N up to 12)
OMEGA_N2 = [0.12902675768352256, 0.10778545957448527]
# omega hitting lambda_2 - lambda_1 = 3 omega exactly (d = 4/3 ladder)
OMEGA_RESONANT = (2.0 ** (4.0 / 3.0) - 1.0) / 3.0
STEP_PHASES = ("solve", "conjugate", "norms", "recertify")


def _doc(out, **overrides):
    doc = {
        "scenario": "cli-tiny",
        "seed": 7,
        "out": out,
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
            "tol": 1e-12,
            "l_max": 8,
        },
        "frequency": {"omega": [OMEGA]},
        "verify": {"t_max": 10.0, "num_times": 20, "tol": 1e-4},
        "spectrum": {"Kmax": 1},
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(cmd, manifest_path, out=None, extra=()):
    argv = [cmd, "--manifest", manifest_path]
    if out is not None:
        argv += ["--out", str(out)]
    return cli.main(argv + list(extra))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    manifest = _write(tmp, _doc(str(tmp / "run")))
    assert _run("reduce", manifest) == cli.EXIT_OK
    return tmp, manifest, tmp / "run"


@pytest.fixture(scope="module")
def finished_n2_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run_n2")
    doc = _doc(str(tmp / "run"), frequency={"omega": OMEGA_N2})
    doc["model"] = dict(doc["model"], N=6, n=2)
    doc["settings"] = dict(doc["settings"], tau=9.0)
    manifest = _write(tmp, doc)
    assert _run("reduce", manifest) == cli.EXIT_OK
    return tmp, manifest, tmp / "run"


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_reference_artifacts(finished_run):
    _, _, outdir = finished_run
    red = load_json(outdir / "reduced.json")
    assert red["converged"] is True
    assert len(red["norm_history"]) <= 5
    assert red["norm_history"][-1] < 1e-12
    steps = load_json(outdir / "steps.json")
    assert steps[0]["l"] == 1 and steps[0]["hom_residual"] < 1e-9
    assert (outdir / "spectrum.json").is_file()
    assert (outdir / "checksums.json").is_file()
    events = [json.loads(line) for line in (outdir / "log.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "reduce.start"
    assert events[-1]["event"] == "reduce.done"


def test_reduce_epsilon_zero_immediate(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"] = dict(doc["settings"], epsilon=0.0)
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_OK
    red = load_json(tmp_path / "r" / "reduced.json")
    assert red["steps"] == 0 and red["generators"] == []


def test_reduce_resonant_frequency_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"), frequency={"omega": [OMEGA_RESONANT]})
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_FREQUENCY
    err = load_json(tmp_path / "r" / "error.json")
    assert err["error"] == "frequency-excluded"


def test_reduce_divergent_epsilon_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"] = dict(doc["settings"], epsilon=0.3)
    code = _run("reduce", _write(tmp_path, doc))
    assert code == cli.EXIT_DIVERGENCE
    err = load_json(tmp_path / "r" / "error.json")
    assert "norm_history" in err


def test_schema_error_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    del doc["settings"]["gamma"]
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_SCHEMA


@pytest.mark.parametrize("field, value", [
    ("K_work", 16),
    ("cert_horizon", 32),
    ("theta", 0.5),
    ("gamma_budget", 0.1),
    ("gamma_star_frac", 0.5),
    ("chop_floor", 1e-15),
    ("strict_guards", False),
])
def test_fixed_step_constants_are_not_settings(tmp_path, field, value):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"][field] = value
    with pytest.raises(SchemaError, match="settings"):
        RunManifest.from_dict(doc)
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_SCHEMA


def test_reduce_is_byte_deterministic(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    manifest = _write(tmp_path, doc)

    def snapshot():
        out = {}
        for name in sorted(os.listdir(tmp_path / "r")):
            if name == "timings.txt":
                continue
            out[name] = hashlib.sha256((tmp_path / "r" / name).read_bytes()).hexdigest()
        return out

    assert _run("reduce", manifest) == cli.EXIT_OK
    first = snapshot()
    assert _run("reduce", manifest) == cli.EXIT_OK
    assert snapshot() == first


# ---------------------------------------------------------------------------
# verify / spectrum
# ---------------------------------------------------------------------------

def test_verify_reference_run(finished_run):
    _, manifest, outdir = finished_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    assert rep["passed"] and rep["max_deviation"] < 1e-4
    assert rep["quasi_energy"]["max_error"] < 1e-6


@pytest.mark.parametrize("run", ["finished_run", "finished_n2_run"])
def test_verify_propagates_the_identity_once(request, monkeypatch, run):
    from kamreduce import floquet

    _, manifest, _ = request.getfixturevalue(run)
    blocks = []
    propagate = floquet.propagate_direct

    def counted(base, P, omega, psi0, *args, **kwargs):
        blocks.append(np.shape(psi0))
        return propagate(base, P, omega, psi0, *args, **kwargs)

    monkeypatch.setattr(floquet, "propagate_direct", counted)
    assert _run("verify", manifest) == cli.EXIT_OK
    N = RunManifest.load(manifest).model["N"]
    assert blocks == [(N, N)]


def test_verify_checks_the_whole_propagator_for_two_angles(finished_n2_run):
    _, manifest, outdir = finished_n2_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    assert rep["passed"] and "quasi_energy" not in rep
    assert rep["max_deviation"] <= rep["max_operator_deviation"] <= rep["tol"]
    assert rep["unitarity_drift"] < 1e-10


def test_verify_records_its_step_rule(finished_run):
    _, manifest, outdir = finished_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    base, _ = cli._build_model(RunManifest.load(manifest))
    # the exponential midpoint rule, counted here without floquet
    dt = 0.5 * 0.1 / float(np.max(np.abs(base.lam)))
    steps, t = 0, 0.0
    for t_target in np.linspace(10.0 / 20, 10.0, 20):
        steps += math.ceil((t_target - t) / dt - 1e-12)
        t = t_target
    assert rep["integrator"] == "exponential-midpoint"
    assert rep["dt"] == dt
    assert rep["steps_direct"] == steps
    # the period map comes from the same sweep, whose grid also holds T
    T = 2.0 * np.pi / OMEGA
    grid = sorted(set(np.linspace(10.0 / 20, 10.0, 20)) | {T})
    period, t = 0, 0.0
    for t_target in grid[: grid.index(T) + 1]:
        period += math.ceil((t_target - t) / dt - 1e-12)
        t = t_target
    assert rep["steps_period"] == period


def test_reduce_then_verify_keeps_both_timings(tmp_path):
    manifest = _write(tmp_path, _doc(str(tmp_path / "r")))
    assert _run("reduce", manifest) == cli.EXIT_OK
    assert _run("verify", manifest) == cli.EXIT_OK
    lines = (tmp_path / "r" / "timings.txt").read_text().splitlines()
    keys = [line.split(":")[0] for line in lines]
    assert keys == sorted(keys)
    steps = load_json(tmp_path / "r" / "steps.json")
    assert set(keys) == {
        "build_s",
        "reduce_s",
        "verify_s",
        "verify.direct_s",
        "verify.monodromy_s",
        "verify.reconstruct_s",
    } | {f"step{rec['l']}.{phase}_s" for rec in steps for phase in STEP_PHASES}
    assert "timings.txt" not in load_json(tmp_path / "r" / "checksums.json")


def test_reduce_times_each_step_phase(finished_run):
    _, _, outdir = finished_run
    steps = load_json(outdir / "steps.json")
    assert len(steps) >= 2
    times = {}
    for line in (outdir / "timings.txt").read_text().splitlines():
        key, value = line.split(": ")
        times[key] = float(value.removesuffix(" s"))
    for rec in steps:
        for phase in STEP_PHASES:
            assert times[f"step{rec['l']}.{phase}_s"] >= 0.0
    # wall times never reach the checksummed ledger
    assert not any(key.endswith("_s") for rec in steps for key in rec)
    assert "timings.txt" not in load_json(outdir / "checksums.json")


def test_verify_epsilon_zero_pure_scheme_error(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"] = dict(doc["settings"], epsilon=0.0)
    doc["verify"] = {"t_max": 10.0, "num_times": 20, "tol": 1e-9}
    manifest = _write(tmp_path, doc)
    assert _run("reduce", manifest) == cli.EXIT_OK
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(tmp_path / "r" / "verify.json")
    assert rep["max_deviation"] < 1e-9


def test_verify_corrupted_artifact_checksum(finished_run, tmp_path):
    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    with open(copy / "steps.json", "a") as fh:
        fh.write(" ")
    doc = _doc(str(copy))
    assert _run("verify", _write(tmp_path, doc)) == cli.EXIT_ARTIFACT


def test_verify_missing_artifacts(tmp_path):
    doc = _doc(str(tmp_path / "empty"))
    (tmp_path / "empty").mkdir()
    assert _run("verify", _write(tmp_path, doc)) == cli.EXIT_ARTIFACT


def test_spectrum_table_and_kmax_flag(finished_run, tmp_path):
    _, manifest, outdir = finished_run
    copy = tmp_path / "spec"
    shutil.copytree(outdir, copy)
    doc = _doc(str(copy))
    assert _run("spectrum", _write(tmp_path, doc), extra=("--kmax", "2")) == cli.EXIT_OK
    table = load_json(copy / "spectrum.json")
    assert table["Kmax"] == 2
    assert len(table["nu"]) == 8 * 5  # N modes times 2 Kmax + 1 harmonics
    lines = (copy / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "nu,mode,multiplicity,k1"
    assert len(lines) == 1 + 8 * 5


# ---------------------------------------------------------------------------
# frequencies / model
# ---------------------------------------------------------------------------

def test_frequencies_monotone_table_and_certificate(tmp_path):
    doc = _doc(str(tmp_path / "f"))
    doc["frequencies"] = {
        "gamma_grid": [0.02, 0.08, 0.14, 0.2],
        "num_samples": 500,
        "Kmax": 12,
    }
    manifest = _write(tmp_path, doc)
    assert _run("frequencies", manifest) == cli.EXIT_OK
    table = load_json(tmp_path / "f" / "frequencies.json")
    fractions = [row["fraction"] for row in table["rejection"]["table"]]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert table["certificate"]["passed"] is True
    csv = (tmp_path / "f" / "rejection.csv").read_text().splitlines()
    assert csv[0] == "gamma,rejection_fraction"
    assert len(csv) == 5


def test_frequencies_empty_grid_usage_error(tmp_path):
    doc = _doc(str(tmp_path / "f"))
    doc["frequencies"] = {"gamma_grid": [], "num_samples": 100}
    assert _run("frequencies", _write(tmp_path, doc)) == cli.EXIT_SCHEMA


def test_frequencies_sampling_request(tmp_path):
    doc = _doc(str(tmp_path / "f"))
    doc["frequency"] = {"sample": {"Kmax": 16, "num_candidates": 200}}
    assert _run("frequencies", _write(tmp_path, doc)) == cli.EXIT_OK
    table = load_json(tmp_path / "f" / "frequencies.json")
    assert table["chosen"]["dio1"]["passed"] is True
    assert len(table["chosen"]["omega"]) == 1


def test_model_command_reports_lambda_table(tmp_path):
    doc = _doc(str(tmp_path / "m"))
    assert _run("model", _write(tmp_path, doc)) == cli.EXIT_OK
    info = load_json(tmp_path / "m" / "model.json")
    assert info["N"] == 8 and info["kind"] == "abstract"
    assert np.allclose(info["lambda"], np.arange(1, 9) ** (4.0 / 3.0))
    assert abs(info["norm"] - 1e-3) < 1e-12


def test_import_defers_numpy_until_threads_are_pinned():
    # --threads sets the BLAS pool size through the environment, which only
    # takes effect if numpy has not been imported yet
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, kamreduce.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_nonpositive_threads_usage_error(tmp_path):
    manifest = _write(tmp_path, _doc(str(tmp_path / "m")))
    assert _run("model", manifest, extra=("--threads", "0")) == cli.EXIT_SCHEMA


def test_seed_override_changes_sampled_frequency(tmp_path):
    doc = _doc(str(tmp_path / "f"))
    doc["frequency"] = {"sample": {"Kmax": 16, "num_candidates": 200}}
    manifest = _write(tmp_path, doc)
    assert _run("frequencies", manifest) == cli.EXIT_OK
    first = load_json(tmp_path / "f" / "frequencies.json")["chosen"]["omega"]
    assert cli.main(
        ["frequencies", "--manifest", manifest, "--seed", "123"]
    ) == cli.EXIT_OK
    second = load_json(tmp_path / "f" / "frequencies.json")["chosen"]["omega"]
    assert first != second
