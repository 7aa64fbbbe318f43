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
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from kamreduce import cli, engine
from kamreduce.engine import run_schedule
from kamreduce.errors import SchemaError
from kamreduce.floquet import reconstruct_solution
from kamreduce.serialize import RunManifest, load_array, load_json, write_checksums
from kamreduce.torus import CHOP_FLOOR, PairSeries

from conftest import dense

OMEGA = 0.13799890521733005
# certified in test_engine for two angles (tau = 9, every N up to 12)
OMEGA_N2 = [0.12902675768352256, 0.10778545957448527]
# omega hitting lambda_2 - lambda_1 = 3 omega exactly (d = 4/3 ladder)
OMEGA_RESONANT = (2.0 ** (4.0 / 3.0) - 1.0) / 3.0
STEP_PHASES = ("solve", "conjugate", "norms", "recertify")
COMMANDS = ("model", "frequencies", "reduce", "verify", "spectrum")
ROOT = Path(__file__).resolve().parents[1]
MANIFESTS = ROOT / "manifests"


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


def _events(outdir, cmd):
    lines = (outdir / f"log.{cmd}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def _assert_failed(code, outdir, cmd, exit_code, reason):
    """The exit code, error.json's reason and the command's start and error events."""
    assert code == exit_code
    err = load_json(outdir / "error.json")
    assert err["error"] == reason
    events = _events(outdir, cmd)
    assert events[0]["event"] == f"{cmd}.start"
    record = {key: value for key, value in err.items() if key != "error"}
    assert events[-1] == dict(record, event="error", reason=reason)
    return err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    manifest = _write(tmp, _doc(str(tmp / "run")))
    assert _run("reduce", manifest) == cli.EXIT_OK
    return tmp, manifest, tmp / "run"


@pytest.fixture(scope="module")
def finished_cf4_run(tmp_path_factory):
    # eleven live modes at N = 8: verify's cost model picks CF4
    tmp = tmp_path_factory.mktemp("cli_run_cf4")
    doc = _doc(str(tmp / "run"))
    doc["model"] = dict(doc["model"], K=5)
    manifest = _write(tmp, doc)
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
    events = _events(outdir, "reduce")
    assert events[0]["event"] == "reduce.start"
    assert events[-1] == {"converged": True, "event": "reduce.done", "final_norm":
                          red["norm_history"][-1], "steps": red["steps"]}


def test_reduced_json_round_trips_the_cut_generators(finished_run):
    # reduced.json's K is the stored band and dropped its bound; the stored
    # generators are the schedule's pair stacks bit for bit
    _, manifest, outdir = finished_run
    doc = RunManifest.load(manifest)
    base, P = cli._build_model(doc)
    _, expect = run_schedule(base, P, [OMEGA], cli._settings(doc))
    got = cli._load_reduced(str(outdir))
    metas = load_json(outdir / "reduced.json")["generators"]
    assert got.dropped == expect.dropped == tuple(meta["dropped"] for meta in metas)
    assert 0.0 < max(got.dropped) <= CHOP_FLOOR
    for gen, want, meta in zip(got.generators, expect.generators, metas, strict=True):
        assert gen.K == want.K == meta["K"]
        stored = PairSeries(meta["n"], meta["K"], base.N, load_array(outdir / meta["file"]))
        assert stored.coeffs.shape[-1] == base.N * (base.N - 1) // 2
        assert stored.coeffs.tobytes() == want.coeffs.tobytes()


def test_stored_generators_reconstruct_the_schedules_solution_bit_for_bit(finished_n2_run):
    _, manifest, outdir = finished_n2_run
    doc = RunManifest.load(manifest)
    base, P = cli._build_model(doc)
    _, expect = run_schedule(base, P, OMEGA_N2, cli._settings(doc))
    got = cli._load_reduced(str(outdir))
    ts = np.linspace(0.5, 10.0, 7)
    for psi0 in (np.eye(base.N), np.ones(base.N) / np.sqrt(base.N)):
        want = reconstruct_solution(expect, psi0, np.zeros(2), ts)
        assert reconstruct_solution(got, psi0, np.zeros(2), ts).tobytes() == want.tobytes()


def test_reduce_holds_no_dense_p0_through_the_schedule(tmp_path, monkeypatch):
    """Once run_schedule has gathered P0's triangle, no frame holds the dense P0 it was built as."""
    built, alive = [], []
    build, kam_step = cli._build_model, engine.kam_step

    def spy_build(manifest, osc=None):
        base, P = build(manifest, osc)
        built.append(weakref.ref(P))
        return base, P

    def spy_step(*args):
        alive.append(built[0]() is not None)
        return kam_step(*args)

    monkeypatch.setattr(cli, "_build_model", spy_build)
    monkeypatch.setattr(engine, "kam_step", spy_step)
    assert _run("reduce", _write(tmp_path, _doc(str(tmp_path / "run")))) == cli.EXIT_OK
    assert alive and not any(alive)


def test_reduce_epsilon_zero_immediate(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"] = dict(doc["settings"], epsilon=0.0)
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_OK
    red = load_json(tmp_path / "r" / "reduced.json")
    assert red["steps"] == 0 and red["generators"] == []


def test_reduce_records_a_solve_without_divisors_as_null(tmp_path):
    # at K = 6 a step starts from norm 0, so its solve has no live divisor
    doc = _doc(str(tmp_path / "r"))
    doc["model"] = dict(doc["model"], K=6)
    assert _run("reduce", _write(tmp_path, doc)) == cli.EXIT_OK
    divisors = [record["min_divisor"] for record in load_json(tmp_path / "r" / "steps.json")]
    assert None in divisors
    assert all(d is None or math.isfinite(d) for d in divisors)


def test_reduce_resonant_frequency_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"), frequency={"omega": [OMEGA_RESONANT]})
    code = _run("reduce", _write(tmp_path, doc))
    err = _assert_failed(code, tmp_path / "r", "reduce", cli.EXIT_FREQUENCY, "frequency-excluded")
    assert err["step"] == 0
    assert not (tmp_path / "r" / "frequency.json").exists()


def test_reduce_divergent_epsilon_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["settings"] = dict(doc["settings"], epsilon=0.3)
    code = _run("reduce", _write(tmp_path, doc))
    err = _assert_failed(code, tmp_path / "r", "reduce", cli.EXIT_DIVERGENCE, "no-convergence")
    # the reason the schedule stopped, not only that it did
    assert "smallness lost" in err["detail"]
    assert err["steps"] == len(load_json(tmp_path / "r" / "steps.json"))
    assert len(err["norm_history"]) == err["steps"] + 1
    # the failed run leaves a checksummed record
    sums = load_json(tmp_path / "r" / "checksums.json")
    assert {"error.json", "log.reduce.jsonl", "steps.json"} <= set(sums)


def test_schema_error_exit_code(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    del doc["settings"]["gamma"]
    code = _run("reduce", _write(tmp_path, doc))
    err = _assert_failed(code, tmp_path / "r", "reduce", cli.EXIT_SCHEMA, "schema")
    assert err["field_path"] == "settings"


@pytest.mark.parametrize("cmd, block, field, value", [
    ("model", "model", "N", 8.0),
    ("model", "model", "K", 2.0),
    ("reduce", "settings", "K_base", 4.0),
    ("verify", "verify", "num_times", 20.0),
])
def test_integral_floats_in_integer_fields_are_schema_errors(tmp_path, cmd, block, field, value):
    doc = _doc(str(tmp_path / "r"))
    doc[block][field] = value
    code = _run(cmd, _write(tmp_path, doc))
    err = _assert_failed(code, tmp_path / "r", cmd, cli.EXIT_SCHEMA, "schema")
    assert err["field_path"] == f"{block}.{field}"


@pytest.mark.parametrize("block, field, value, literal, where", [
    ("frequency", "omega", [float("nan")], "[NaN]", "frequency.omega.0"),
    ("settings", "epsilon", float("inf"), "Infinity", "settings.epsilon"),
])
def test_non_finite_numbers_are_schema_errors(tmp_path, block, field, value, literal, where):
    # json.loads reads NaN and Infinity: the manifest check rejects them, not
    # the write of manifest_echo.json
    doc = _doc(str(tmp_path / "r"))
    doc[block][field] = value
    manifest = _write(tmp_path, doc)
    assert f'"{field}": {literal}' in Path(manifest).read_text()
    code = _run("reduce", manifest)
    err = _assert_failed(code, tmp_path / "r", "reduce", cli.EXIT_SCHEMA, "schema")
    assert err["field_path"] == where


@pytest.mark.parametrize("name, edit, field", [
    # two angles for an n = 1 model
    ("reference-n1", lambda doc: doc["frequency"].update(omega=[0.11617668600029396, 0.3]),
     "frequency.omega"),
    # forcing keys of one and of two angles
    ("oscillator-quartic", lambda doc: doc["model"].update(forcing={"1": 0.5, "-1,0": 0.5}),
     "model.forcing"),
])
def test_manifests_whose_angle_counts_disagree_are_schema_errors(tmp_path, name, edit, field):
    doc = json.loads((MANIFESTS / f"{name}.json").read_text())
    edit(doc)
    code = _run("reduce", _write(tmp_path, doc), out=tmp_path / "r")
    err = _assert_failed(code, tmp_path / "r", "reduce", cli.EXIT_SCHEMA, "schema")
    assert err["field_path"] == field and field in err["detail"]
    # a schema error comes before the command reads anything: nothing is blessed
    assert sorted(os.listdir(tmp_path / "r")) == ["error.json", "log.reduce.jsonl", "timings.txt"]


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
    assert _events(outdir, "verify")[-1] == {
        "event": "verify.done", "max_operator_deviation": rep["max_operator_deviation"]}


@pytest.mark.parametrize("run", ["finished_run", "finished_cf4_run", "finished_n2_run"])
def test_verify_propagates_the_identity_once(request, monkeypatch, run):
    # once per grid of the step doubling, with either integrator: the coarse
    # and the fine sweep each carry the whole identity, and no other sweep runs
    from kamreduce import floquet

    _, manifest, _ = request.getfixturevalue(run)
    blocks = []
    sweep = floquet._sweep

    def counted(step, psi, *args):
        blocks.append(np.shape(psi))
        return sweep(step, psi, *args)

    monkeypatch.setattr(floquet, "_sweep", counted)
    assert _run("verify", manifest) == cli.EXIT_OK
    N = RunManifest.load(manifest).model["N"]
    assert blocks == [(N, N), (N, N)]


def test_verify_checks_the_whole_propagator_for_two_angles(finished_n2_run):
    _, manifest, outdir = finished_n2_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    assert rep["passed"] and "quasi_energy" not in rep
    assert rep["max_deviation"] <= rep["max_operator_deviation"] <= rep["tol"]
    assert rep["unitarity_drift"] < 1e-10


def _grid_steps(coarse, grid):
    """The fine steps of verify's step doubling over a grid: two per coarse step."""
    total, t = 0, 0.0
    for t_target in grid:
        total += 2 * math.ceil((t_target - t) / coarse - 1e-12)
        t = t_target
    return total


def test_verify_records_its_step_rule(finished_cf4_run):
    _, manifest, outdir = finished_cf4_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    assert rep["integrator"] == "cf4"
    assert rep["integrator_cost"]["cf4"] < rep["integrator_cost"]["magnus"]
    base, _ = cli._build_model(RunManifest.load(manifest))
    # CF4 on the fine grid: two steps per coarse step of 3.2 / max|lambda|,
    # counted here without floquet
    coarse = 3.2 / float(np.max(np.abs(base.lam)))
    assert rep["dt"] == coarse / 2
    assert 0 < rep["integrator_error_estimate"] <= 1e-10
    assert rep["steps_direct"] == _grid_steps(coarse, np.linspace(10.0 / 20, 10.0, 20))
    # the period map comes from the same sweep, whose grid also holds T
    T = 2.0 * np.pi / OMEGA
    grid = sorted(set(np.linspace(10.0 / 20, 10.0, 20)) | {T})
    assert rep["steps_period"] == _grid_steps(coarse, grid[: grid.index(T) + 1])


def test_verify_records_the_magnus_step_rule(finished_run):
    _, manifest, outdir = finished_run
    assert _run("verify", manifest) == cli.EXIT_OK
    rep = load_json(outdir / "verify.json")
    assert rep["integrator"] == "magnus"
    assert rep["integrator_cost"]["magnus"] < rep["integrator_cost"]["cf4"]
    assert 0 < rep["integrator_error_estimate"] <= 1e-10
    # the coarse step is 0.002 / sum_k ||P_k||_2, each norm bounded by
    # sqrt(||P_k||_1 ||P_k||_inf), and at most the longest interval, here
    # the one from t_max to the period T
    _, P = cli._build_model(RunManifest.load(manifest))
    size = np.abs(P.coeffs)
    bound = sum(math.sqrt(c.sum(axis=0).max() * c.sum(axis=1).max()) for c in size if c.any())
    T = 2.0 * np.pi / OMEGA
    grid = sorted(set(np.linspace(10.0 / 20, 10.0, 20)) | {T})
    coarse = min(0.002 / bound, T - 10.0)
    assert rep["dt"] == pytest.approx(coarse / 2, rel=1e-14)
    assert rep["steps_direct"] == _grid_steps(coarse, grid[:20]) == 40
    assert rep["steps_period"] == _grid_steps(coarse, grid)


def test_verify_cost_model_sends_few_modes_to_magnus_and_many_to_cf4():
    from kamreduce.floquet import _forcing, integrator_costs

    def choice(name, omega):
        manifest = RunManifest.load(MANIFESTS / name)
        base, P = cli._build_model(manifest)
        ts = np.linspace(50.0 / 60, 50.0, 60)
        times = np.union1d(ts, [2.0 * np.pi / omega[0]]) if len(omega) == 1 else ts
        costs = integrator_costs(base, P, omega, times)
        return len(_forcing(base, P)[0]), min(costs, key=costs.get)

    def given(name):
        return np.array(json.loads((MANIFESTS / name).read_text())["frequency"]["omega"])

    # the oscillator's omega as its frequency search picks it
    assert choice("oscillator-quartic.json", np.array([0.24850481591300488])) == (2, "magnus")
    assert choice("reference-n1.json", given("reference-n1.json")) == (11, "magnus")
    assert choice("reference-n2.json", given("reference-n2.json")) == (169, "cf4")


def test_verify_step_is_not_a_setting(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["verify"]["dt"] = 0.002
    with pytest.raises(SchemaError, match="verify"):
        RunManifest.from_dict(doc)
    assert _run("verify", _write(tmp_path, doc)) == cli.EXIT_SCHEMA


def test_five_commands_in_one_directory_keep_their_logs_and_timings(tmp_path):
    doc = _doc(str(tmp_path / "r"))
    doc["frequencies"] = {"gamma_grid": [0.05, 0.1], "num_samples": 50, "Kmax": 8}
    manifest = _write(tmp_path, doc)
    logs = {}
    for cmd in COMMANDS:
        assert _run(cmd, manifest) == cli.EXIT_OK
        logs[cmd] = (tmp_path / "r" / f"log.{cmd}.jsonl").read_bytes()
    for cmd in COMMANDS:
        # no later command erased an earlier one's log
        assert (tmp_path / "r" / f"log.{cmd}.jsonl").read_bytes() == logs[cmd]
        events = _events(tmp_path / "r", cmd)
        assert (events[0]["event"], events[-1]["event"]) == (f"{cmd}.start", f"{cmd}.done")
    lines = (tmp_path / "r" / "timings.txt").read_text().splitlines()
    keys = [line.split(":")[0] for line in lines]
    assert keys == sorted(keys)
    steps = load_json(tmp_path / "r" / "steps.json")
    assert set(keys) == {f"{cmd}{unit}" for cmd in COMMANDS
                         for unit in ("_s", "_rss_mb", "_minflt")} | {
        f"{phase}{unit}" for phase in ("build", "reduce.schedule", "verify.load",
                                       "verify.reconstruct", "verify.direct", "verify.monodromy")
        for unit in ("_s", "_rss_mb")
    } | {f"step{rec['l']}.{phase}{unit}" for rec in steps for phase in STEP_PHASES
         for unit in ("_s", "_rss_mb")}
    assert not (tmp_path / "r" / "error.json").exists()
    assert "timings.txt" not in load_json(tmp_path / "r" / "checksums.json")


def test_reduce_times_each_step_phase(finished_run):
    _, _, outdir = finished_run
    steps = load_json(outdir / "steps.json")
    assert len(steps) >= 2
    times = {}
    for line in (outdir / "timings.txt").read_text().splitlines():
        key, value = line.split(": ")
        number, unit = value.split(" ")
        # a peak RSS is in MB, a fault count a whole number of faults, a
        # wall time in seconds
        if key.endswith("_minflt"):
            assert unit == "faults" and int(number) > 0
        else:
            assert unit == ("MB" if key.endswith("_rss_mb") else "s")
        times[key] = float(number)
    for rec in steps:
        for phase in STEP_PHASES:
            assert times[f"step{rec['l']}.{phase}_s"] >= 0.0
            assert times[f"step{rec['l']}.{phase}_rss_mb"] > 0.0
    assert times["reduce_rss_mb"] >= max(times[f"step{rec['l']}.{phase}_rss_mb"]
                                         for rec in steps for phase in STEP_PHASES)
    # wall times and peak RSS never reach the checksummed ledger
    assert not any(key.endswith(("_s", "_rss_mb")) for rec in steps for key in rec)
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
    with open(copy / "generator_00.npy", "ab") as fh:
        fh.write(b" ")
    sums = (copy / "checksums.json").read_bytes()
    manifest = _write(tmp_path, _doc(str(copy)))
    code = _run("verify", manifest)
    err = _assert_failed(code, copy, "verify", cli.EXIT_ARTIFACT, "artifact")
    assert "generator_00.npy" in err["detail"]
    # a directory whose checksums failed is not blessed again, nor by a
    # command that stops at its manifest before checking anything
    assert (copy / "checksums.json").read_bytes() == sums
    bad = _doc(str(copy), verify={"t_max": -1.0})
    assert _run("verify", _write(tmp_path, bad, "bad.json")) == cli.EXIT_SCHEMA
    assert (copy / "checksums.json").read_bytes() == sums
    assert _run("spectrum", manifest) == cli.EXIT_ARTIFACT


def test_verify_checks_only_the_artifacts_it_reads(finished_run, tmp_path):
    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    with open(copy / "steps.json", "a") as fh:
        fh.write(" ")
    assert _run("verify", _write(tmp_path, _doc(str(copy)))) == cli.EXIT_OK


@pytest.mark.parametrize("failure", ["damaged", "interrupted"])
def test_verify_passes_again_once_a_failed_run_is_restored(finished_run, tmp_path,
                                                          monkeypatch, failure):
    # the failed verify rewrites its log, and error.json, over a directory
    # whose checksums.json it leaves alone; neither blocks the next verify
    from kamreduce import floquet

    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    manifest = _write(tmp_path, _doc(str(copy)))
    assert _run("verify", manifest) == cli.EXIT_OK
    sums = (copy / "checksums.json").read_bytes()
    generator = (copy / "generator_00.npy").read_bytes()
    if failure == "damaged":
        (copy / "generator_00.npy").write_bytes(generator + b" ")
        assert _run("verify", manifest) == cli.EXIT_ARTIFACT
        (copy / "generator_00.npy").write_bytes(generator)
    else:
        def interrupt(*args):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(floquet, "propagate_step_doubled", interrupt)
            with pytest.raises(KeyboardInterrupt):
                _run("verify", manifest)
        # each event reached the log as it was emitted
        assert [e["event"] for e in _events(copy, "verify")] == ["verify.start"]
    assert (copy / "checksums.json").read_bytes() == sums
    assert _run("verify", manifest) == cli.EXIT_OK
    assert not (copy / "error.json").exists()


@pytest.mark.parametrize("run", ["finished_run", "finished_n2_run"])
def test_verify_and_spectrum_never_load_a_generator_whole(run, request, tmp_path, monkeypatch):
    # each generator is read slab by slab while it is evaluated; verify's
    # log counts the one slab buffer it held per generator
    from kamreduce import serialize

    _, manifest, outdir = request.getfixturevalue(run)
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    for module, load in ((serialize, serialize.load_array), (np, np.load)):
        def guarded(path, *args, load=load, **kwargs):
            if os.path.basename(path).startswith("generator_"):
                raise AssertionError(f"{path} loaded whole")
            return load(path, *args, **kwargs)

        monkeypatch.setattr(module, load.__name__, guarded)
    assert _run("verify", manifest, out=copy) == cli.EXIT_OK
    assert _run("spectrum", manifest, out=copy) == cli.EXIT_OK
    metas = load_json(copy / "reduced.json")["generators"]
    N = len(load_json(copy / "reduced.json")["lambda_inf"])
    counted = [e for e in _events(copy, "verify") if e["event"] == "verify.generators"]
    assert counted == [{"event": "verify.generators", "generators": [
        {"K": meta["K"], "slab_bytes": 8 * (2 * meta["K"] + 1) ** (meta["n"] - 1) * N * (N - 1)}
        for meta in metas]}]


@pytest.mark.parametrize("name", ["reference-n1", "reference-n2"])
def test_verify_reads_each_generator_once(name, tmp_path, monkeypatch):
    # the reconstruction evaluates phi0 and the flow's angles in one batch,
    # and the period map (n = 1) is matched in the U(0) it composed
    from kamreduce import serialize

    manifest, out = str(MANIFESTS / f"{name}.json"), tmp_path / "run"
    assert _run("reduce", manifest, out=out) == cli.EXIT_OK
    slabs, reads = serialize.StoredOperator._slabs, []

    def counted(self):
        reads.append(os.path.basename(self.path))
        return slabs(self)

    monkeypatch.setattr(serialize.StoredOperator, "_slabs", counted)
    assert _run("verify", manifest, out=out) == cli.EXIT_OK
    files = [meta["file"] for meta in load_json(out / "reduced.json")["generators"]]
    assert files and sorted(reads) == files


def _broken_generator(path, case):
    """Rewrite the stored generator at path as one of the broken files of case."""
    coeffs = np.load(path)
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:-16])
        return
    if case == "K":
        coeffs = np.pad(coeffs, [(1, 1)] + [(0, 0)] * (coeffs.ndim - 1))
    elif case == "n":
        coeffs = np.broadcast_to(coeffs, coeffs.shape[:1] + coeffs.shape)
    elif case == "N":
        coeffs = coeffs[..., :-1]
    elif case == "dense":
        # the N x N layout generator files had before they held their pairs
        N = round((1 + math.sqrt(1 + 8 * coeffs.shape[-1])) / 2)
        coeffs = dense(PairSeries(coeffs.ndim - 1, (len(coeffs) - 1) // 2, N, coeffs)).coeffs
    elif case == "fortran":
        coeffs = np.asfortranarray(coeffs)
    elif case == "complex64":
        coeffs = coeffs.astype(np.complex64)
    np.save(path, coeffs)


@pytest.mark.parametrize("case, exit_code, reason, detail", [
    ("K", cli.EXIT_FAILURE, "failure", "coefficient shape"),
    ("n", cli.EXIT_FAILURE, "failure", "coefficient shape"),
    ("N", cli.EXIT_FAILURE, "failure", "coefficient shape"),
    ("dense", cli.EXIT_FAILURE, "failure", "coefficient shape"),
    ("fortran", cli.EXIT_FAILURE, "failure", "not C-ordered complex128"),
    ("complex64", cli.EXIT_FAILURE, "failure", "not C-ordered complex128"),
    ("truncated", cli.EXIT_ARTIFACT, "artifact", "data bytes"),
])
def test_a_broken_generator_with_a_matching_checksum_fails_typed(finished_run, tmp_path, case,
                                                               exit_code, reason, detail):
    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    _broken_generator(copy / "generator_00.npy", case)
    write_checksums(copy)
    manifest = _write(tmp_path, _doc(str(copy)))
    for cmd in ("verify", "spectrum"):
        err = _assert_failed(_run(cmd, manifest), copy, cmd, exit_code, reason)
        assert "generator_00.npy" in err["detail"] and detail in err["detail"]


def test_a_corrupted_generator_fails_its_checksum_before_it_is_opened(finished_run, tmp_path,
                                                                     monkeypatch):
    from kamreduce import serialize

    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    _broken_generator(copy / "generator_00.npy", "truncated")
    opened = []
    monkeypatch.setattr(serialize, "StoredOperator", lambda *args: opened.append(args))
    manifest = _write(tmp_path, _doc(str(copy)))
    for cmd in ("verify", "spectrum"):
        err = _assert_failed(_run(cmd, manifest), copy, cmd, cli.EXIT_ARTIFACT, "artifact")
        assert "checksum mismatch for generator_00.npy" in err["detail"]
    assert opened == []


def test_verify_missing_artifacts(tmp_path):
    doc = _doc(str(tmp_path / "empty"))
    (tmp_path / "empty").mkdir()
    code = _run("verify", _write(tmp_path, doc))
    _assert_failed(code, tmp_path / "empty", "verify", cli.EXIT_ARTIFACT, "artifact")
    assert not (tmp_path / "empty" / "checksums.json").exists()


def test_verify_over_tolerance_exit_code(finished_run, tmp_path):
    _, _, outdir = finished_run
    copy = tmp_path / "copy"
    shutil.copytree(outdir, copy)
    doc = _doc(str(copy), verify={"t_max": 10.0, "num_times": 20, "tol": 1e-15})
    code = _run("verify", _write(tmp_path, doc))
    err = _assert_failed(code, copy, "verify", cli.EXIT_FAILURE, "tolerance-exceeded")
    rep = load_json(copy / "verify.json")
    assert not rep["passed"] and rep["max_operator_deviation"] > rep["tol"]
    assert "above tol" in err["detail"]
    assert "verify.json" in load_json(copy / "checksums.json")
    # a later success leaves no stale failure record behind
    assert _run("verify", _write(tmp_path, _doc(str(copy)))) == cli.EXIT_OK
    assert not (copy / "error.json").exists()
    assert "error.json" not in load_json(copy / "checksums.json")


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


def test_spectrum_negative_kmax_is_a_schema_error(finished_run, tmp_path):
    # as a negative spectrum.Kmax in the manifest is
    _, _, outdir = finished_run
    copy = tmp_path / "spec"
    shutil.copytree(outdir, copy)
    before = (copy / "spectrum.json").read_bytes()
    code = _run("spectrum", _write(tmp_path, _doc(str(copy))), extra=("--kmax", "-1"))
    err = _assert_failed(code, copy, "spectrum", cli.EXIT_SCHEMA, "schema")
    assert err["field_path"] == "--kmax" and "--kmax" in err["detail"]
    assert (copy / "spectrum.json").read_bytes() == before


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


def _child_env():
    """The environment of a child interpreter that imports this kamreduce."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_defers_numpy_until_threads_are_pinned():
    # --threads sets the BLAS pool size through the environment, which only
    # takes effect if numpy has not been imported yet
    code = "import sys, kamreduce.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# Run one command in a fresh interpreter and check the modules it loaded:
# no command, reduce included, loads scipy or jsonschema.
_SCIPY_CHILD = """
import sys
from kamreduce.cli import EXIT_OK, main
assert main(sys.argv[1:]) == EXIT_OK
packages = {m.partition(".")[0] for m in sys.modules}
assert "jsonschema" not in packages
assert "scipy" not in packages, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_no_command_loads_scipy(tmp_path):
    oscillator = json.loads((MANIFESTS / "oscillator-quartic.json").read_text())
    oscillator["model"]["N"] = 8
    oscillator["verify"] = {"t_max": 5.0, "num_times": 5, "tol": 1e-4}
    for manifest in (str(MANIFESTS / "reference-n2.json"), _write(tmp_path, oscillator)):
        for cmd in COMMANDS:
            out = subprocess.run(
                [sys.executable, "-c", _SCIPY_CHILD, cmd, "--manifest", manifest,
                 "--out", str(tmp_path / Path(manifest).stem)],
                env=_child_env(), capture_output=True, text=True,
            )
            assert out.returncode == 0, (manifest, cmd, out.stderr)
    # both integrators ran
    assert load_json(tmp_path / "reference-n2" / "verify.json")["integrator"] == "cf4"
    assert load_json(tmp_path / "manifest" / "verify.json")["integrator"] == "magnus"


# Which kamreduce modules a command loads, run in a fresh interpreter.
_MODULES_CHILD = """
import sys
from kamreduce.cli import EXIT_OK, main
assert main(sys.argv[1:]) == EXIT_OK
print(" ".join(sorted(m for m in sys.modules if m.startswith("kamreduce."))))
"""


def test_commands_load_only_the_modules_they_use(tmp_path):
    manifest = str(MANIFESTS / "reference-n1.json")
    loaded = {}
    for cmd in ("model", "frequencies", "reduce", "verify"):
        out = subprocess.run(
            [sys.executable, "-c", _MODULES_CHILD, cmd, "--manifest", manifest,
             "--out", str(tmp_path / "run")],
            env=_child_env(), capture_output=True, text=True,
        )
        assert out.returncode == 0, (cmd, out.stderr)
        loaded[cmd] = set(out.stdout.splitlines()[-1].split())
    heavy = {"kamreduce.engine", "kamreduce.homological", "kamreduce.diophantine"}
    assert not loaded["model"] & heavy
    assert not loaded["frequencies"] & {"kamreduce.engine", "kamreduce.homological"}
    assert "kamreduce.diophantine" in loaded["frequencies"]
    assert "kamreduce.diophantine" not in loaded["verify"]
    assert heavy <= loaded["reduce"]


def test_nonpositive_threads_usage_error(tmp_path):
    manifest = _write(tmp_path, _doc(str(tmp_path / "m")))
    assert _run("model", manifest, extra=("--threads", "0")) == cli.EXIT_SCHEMA
    # as is a manifest that cannot be read; neither names a directory to record in
    assert _run("model", str(tmp_path / "missing.json"), out=tmp_path / "m") == cli.EXIT_SCHEMA
    assert not (tmp_path / "m").exists()


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


def test_readme_step_record_fields_are_record_keys(finished_run):
    _, _, outdir = finished_run
    section = (ROOT / "README.md").read_text().split("Each ledger record", 1)[1]
    section = section.split("\n* `verify`", 1)[0]
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert {"guard_messages", "grid_M", "norm_out"} <= named
    for record in load_json(outdir / "steps.json"):
        assert named <= set(record)


def test_readme_verify_fields_are_verify_keys(finished_run, finished_cf4_run):
    section = (ROOT / "README.md").read_text().split("\n* `verify`", 1)[1]
    section = section.split("\n* `spectrum`", 1)[0]
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))
    assert {"integrator", "integrator_cost", "integrator_error_estimate"} <= named
    for run in (finished_run, finished_cf4_run):
        _, manifest, outdir = run
        assert _run("verify", manifest) == cli.EXIT_OK
        assert named <= set(load_json(outdir / "verify.json"))


def test_readme_exit_codes_are_the_failure_table():
    section = (ROOT / "README.md").read_text().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    table = [(cls.strip(" `"), int(code), reason.strip(" `")) for cls, code, reason in rows]
    assert table == [(cls.__name__, code, reason) for cls, code, reason in cli.FAILURES]
