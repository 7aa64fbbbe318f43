"""Command-line surface: model building, frequency certification, reduction
runs, verification, and spectrum export.

Every command reads one JSON manifest (schema in serialize.MANIFEST_SCHEMA)
and writes its artifacts under the manifest's output directory.  All five
run in one frame, _command, which alone creates that directory, writes the
command's own event log log.<command>.jsonl (<command>.start, then
<command>.done or error), merges <command>_s, the whole command's wall time,
<command>_rss_mb, its peak RSS, <command>_minflt, its minor page faults,
and the body's phase timings into timings.txt, writes error.json on a
typed failure and rewrites checksums.json, except after a SchemaError or
an ArtifactError.  verify and spectrum check the checksums of just the
artifacts they read, so a record the frame rewrote after a failure never
fails them.  The same manifest + seed reproduces every artifact but
timings.txt byte for byte; timings.txt is the one file left out of
checksums.json.

FAILURES maps each typed failure to its exit code and to the reason
error.json records; 0 is success.

Heavy imports happen inside the frame and the command bodies so that
--threads can pin the BLAS pool size before numpy is loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import sys
import time
from typing import TYPE_CHECKING

from .errors import (
    ArtifactError,
    ConvergenceError,
    DivisorTooSmall,
    FrequencyExcluded,
    KamError,
    SchemaError,
    ToleranceExceeded,
    ZeroAcceptanceError,
)

if TYPE_CHECKING:
    from .serialize import RunManifest

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SCHEMA = 2
EXIT_FREQUENCY = 3
EXIT_DIVERGENCE = 4
EXIT_DIVISOR = 5
EXIT_ARTIFACT = 6

# (exception class, exit code, reason recorded in error.json); the first row
# the failure is an instance of decides, so KamError comes last
FAILURES = (
    (SchemaError, EXIT_SCHEMA, "schema"),
    (FrequencyExcluded, EXIT_FREQUENCY, "frequency-excluded"),
    (ZeroAcceptanceError, EXIT_FREQUENCY, "frequency-excluded"),
    (ConvergenceError, EXIT_DIVERGENCE, "no-convergence"),
    (DivisorTooSmall, EXIT_DIVISOR, "small-divisor"),
    (ArtifactError, EXIT_ARTIFACT, "artifact"),
    (ToleranceExceeded, EXIT_FAILURE, "tolerance-exceeded"),
    (KamError, EXIT_FAILURE, "failure"),
)

__all__ = [
    "main",
    "FAILURES",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_SCHEMA",
    "EXIT_FREQUENCY",
    "EXIT_DIVERGENCE",
    "EXIT_DIVISOR",
    "EXIT_ARTIFACT",
]


class _JsonlLog:
    """Deterministic JSON-lines event log (no timestamps, sorted keys)."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, event: str, **fields):
        from .serialize import to_jsonable

        rec = {"event": event}
        rec.update(fields)
        line = json.dumps(to_jsonable(rec), sort_keys=True, separators=(",", ":"))
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def _timing_line(key: str, value) -> str:
    """One line of timings.txt, its unit from the key's name.

    A count of minor page faults (_minflt) in faults, a peak RSS (_mb) in
    MB, anything else in seconds.
    """
    if key.endswith("_minflt"):
        return f"{key}: {value} faults\n"
    return f"{key}: {value:.6f} {'MB' if key.endswith('_mb') else 's'}\n"


def _write_timings(outdir, timings: dict) -> None:
    """Merge timings into timings.txt; keys of earlier commands are kept.

    Not checksummed and not JSON: the one artifact allowed to differ
    between replays.
    """
    path = os.path.join(outdir, "timings.txt")
    lines = {}
    if os.path.isfile(path):
        with open(path) as fh:
            lines = {line.split(":", 1)[0]: line for line in fh if ":" in line}
    lines.update({key: _timing_line(key, value) for key, value in timings.items()})
    with open(path, "w") as fh:
        fh.writelines(lines[key] for key in sorted(lines))


def _write_csv(path, header: str, rows) -> None:
    """header, then one line of comma-separated reprs per row."""
    with open(path, "w") as fh:
        fh.write("\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n")


def _command(body):
    """The frame of a command; body(manifest, log, timings, args) does its work.

    The body returns the fields of <command>.done (or None); success removes
    an earlier command's error.json.  A typed failure is reported on stderr,
    and once the manifest names its output directory it is logged and
    written to error.json with the reason from FAILURES and the fields the
    exception carries.  A failure before that (--threads, a manifest that
    cannot be read or is not a JSON object, a bad out) leaves no record.
    checksums.json is left as it was after a SchemaError, which comes before
    the command has read anything, and after an ArtifactError: a directory
    is never blessed unchecked, nor once its checksums have failed.
    """
    name = body.__name__.removeprefix("cmd_")

    @functools.wraps(body)
    def command(args) -> int:
        t0 = time.perf_counter()
        log, timings, failure = None, {}, None
        try:
            _apply_threads(args.threads)
            from .serialize import RunManifest, write_checksums, write_json

            doc = RunManifest.read(args.manifest, seed=args.seed, out=args.out)
            outdir = doc.get("out")
            if isinstance(outdir, str) and outdir:
                os.makedirs(outdir, exist_ok=True)
                log = _JsonlLog(os.path.join(outdir, f"log.{name}.jsonl"))
                log.emit(f"{name}.start")
            done = body(RunManifest.from_dict(doc), log, timings, args)
            log.emit(f"{name}.done", **(done or {}))
            with contextlib.suppress(FileNotFoundError):   # no earlier failure's record stays
                os.remove(os.path.join(outdir, "error.json"))
        except KamError as exc:
            failure = exc
            code, reason = next((c, r) for cls, c, r in FAILURES if isinstance(exc, cls))
            print(f"error: {exc}", file=sys.stderr)
            if log is not None:
                record = dict(vars(exc), detail=str(exc))
                log.emit("error", reason=reason, **record)
                write_json(os.path.join(outdir, "error.json"), dict(record, error=reason))
        finally:
            if log is not None:
                log.close()
        if log is not None:
            timings[f"{name}_s"] = time.perf_counter() - t0
            usage = resource.getrusage(resource.RUSAGE_SELF)
            timings[f"{name}_rss_mb"] = usage.ru_maxrss / 1024   # ru_maxrss counts kB on Linux
            timings[f"{name}_minflt"] = usage.ru_minflt
            _write_timings(outdir, timings)
            if not isinstance(failure, (SchemaError, ArtifactError)):
                write_checksums(outdir)
        return EXIT_OK if failure is None else code

    return command


# ---------------------------------------------------------------------------
# models and frequencies
# ---------------------------------------------------------------------------

def _build_base(manifest: RunManifest):
    """Just the diagonal part (cheap path for frequency work)."""
    from . import models

    spec = manifest.model
    if spec["kind"] == "abstract":
        return models.abstract_base(spec["N"], spec["n"], spec["d"], spec["delta"])
    osc = _build_oscillator(spec)
    return osc.as_base(delta=spec.get("delta", 0.0), n=_forcing_series(spec).n)


def _build_oscillator(spec: dict):
    from . import oscillator

    return oscillator.build_oscillator(
        oscillator.OscillatorSpec(alpha=spec["alpha"], N=spec["N"])
    )


def _forcing_series(spec: dict):
    from .torus import TorusSeries

    modes = {tuple(map(int, key.split(","))): complex(value)
             for key, value in spec["forcing"].items()}
    K = max(max(map(abs, k)) for k in modes)
    return TorusSeries.from_modes(len(next(iter(modes))), max(K, 1), modes)


def _build_model(manifest: RunManifest, osc=None):
    """Full (base, P) pair for reduction and verification; osc: the oscillator, if built."""
    from . import models, oscillator
    from .torus import delta_norm

    spec = manifest.model
    st = manifest.settings
    if spec["kind"] == "abstract":
        return models.build_abstract_model(
            N=spec["N"],
            n=spec["n"],
            d=spec["d"],
            delta=spec["delta"],
            K=spec["K"],
            epsilon=st["epsilon"],
            s=st["s"],
            seed=spec.get("model_seed", manifest.seed),
            decay=spec.get("decay", 0.5),
        )
    osc = _build_oscillator(spec) if osc is None else osc
    g = _forcing_series(spec)
    v_kind = spec.get("v_kind", "abspower")
    pspec = oscillator.PerturbationSpec(
        beta=spec["beta"], terms=(((v_kind, spec["beta"]), g),), n=g.n
    )
    base = osc.as_base(delta=spec.get("delta", 0.0), n=g.n)
    P = oscillator.perturbation_matrix(pspec, osc)
    if spec.get("scale_to_epsilon", True):
        if st["epsilon"] == 0.0:
            from .torus import OperatorSeries

            P = OperatorSeries.zero(g.n, P.K, base.N)
        else:
            norm = delta_norm(P, base, st["s"])
            if norm > 0:
                P = P * (st["epsilon"] / norm)
    return base, P


def _settings(manifest: RunManifest):
    from .serialize import KamSettings

    return KamSettings(**manifest.settings)


def _cert_dict(cert) -> dict:
    """A certificate as a JSON record; an infinite margin becomes null."""
    import dataclasses
    import math

    return {key: None if isinstance(value, float) and math.isinf(value) else value
            for key, value in dataclasses.asdict(cert).items()}


def _frequency(manifest: RunManifest, base, settings):
    """(chosen, record) for the manifest's frequency.

    An explicit omega gets both non-resonance certificates over
    settings.horizon(); a sampling request draws a certified one with the
    manifest seed.  The record holds the certificates, omega and, for a
    sample, the sampler's figures.
    """
    import numpy as np

    from . import diophantine as dio

    freq = manifest.frequency
    if "omega" in freq:
        omega = np.asarray(freq["omega"], dtype=float)
        chosen = dio.certify(omega, base, settings.gamma, settings.tau, settings.horizon(), base.N)
        info = {}
    else:
        req = freq["sample"]
        chosen, info = dio.optimize_frequency(
            n=base.n,
            base=base,
            gamma=settings.gamma,
            tau=settings.tau,
            Kmax=req["Kmax"],
            Nmax=req.get("Nmax", base.N),
            num_candidates=req["num_candidates"],
            seed=manifest.seed,
            robust_K=req.get("robust_K"),
        )
    return chosen, dict(info, dio1=_cert_dict(chosen.dio1), dio2=_cert_dict(chosen.dio2),
                        omega=list(chosen.omega))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@_command
def cmd_model(manifest: RunManifest, log, timings, args):
    from .serialize import write_json
    from .torus import delta_norm

    spec = manifest.model
    osc = _build_oscillator(spec) if spec["kind"] == "oscillator" else None
    base, P = _build_model(manifest, osc)
    settings = _settings(manifest)
    doc = {
        "K": P.K,
        "kind": spec["kind"],
        "lambda": list(base.lam),
        "N": base.N,
        "n": base.n,
        "norm": delta_norm(P, base, settings.s),
        "scenario": manifest.scenario,
    }
    if osc is not None:
        from . import oscillator

        doc["certificate"] = osc.certificate
        d_exact = 2.0 * spec["alpha"] / (spec["alpha"] + 2.0)
        doc["d_exact"] = d_exact
        if base.N >= 25:
            lo = max(10, base.N // 4)
            d_fit, stderr = oscillator.asymptotic_exponent_fit(
                osc.eigenvalues, range(lo, base.N + 1)
            )
            doc["d_fit"] = d_fit
            doc["d_fit_stderr"] = stderr
            doc["d_relative_error"] = abs(d_fit - d_exact) / d_exact
    write_json(os.path.join(manifest.out, "model.json"), doc)
    print(f"model: N={doc['N']} n={doc['n']} norm={doc['norm']:.3e} in {manifest.out}")


@_command
def cmd_frequencies(manifest: RunManifest, log, timings, args):
    from . import diophantine as dio
    from .serialize import write_json

    settings = _settings(manifest)
    base = _build_base(manifest)
    doc = {"scenario": manifest.scenario, "seed": manifest.seed}
    cfg = manifest.frequencies
    if cfg is not None:
        tau = cfg.get("tau", settings.tau)
        Kmax = cfg.get("Kmax", settings.horizon())
        table = dio.rejection_table(
            n=base.n,
            base=base,
            gamma_grid=cfg["gamma_grid"],
            tau=tau,
            Kmax=Kmax,
            Nmax=base.N,
            num_samples=cfg["num_samples"],
            seed=manifest.seed,
        )
        doc["rejection"] = {
            "Kmax": Kmax,
            "num_samples": cfg["num_samples"],
            "table": [{"gamma": g, "fraction": f} for g, f in table],
            "tau": tau,
        }
        _write_csv(os.path.join(manifest.out, "rejection.csv"), "gamma,rejection_fraction", table)
        for g, f in table:
            log.emit("frequencies.gamma", gamma=g, fraction=f)

    chosen, record = _frequency(manifest, base, settings)
    if "omega" in manifest.frequency:
        doc["certificate"] = dict(record, passed=bool(chosen.dio1.passed and chosen.dio2.passed))
    else:
        doc["chosen"] = dict(record, source="sampled")
    write_json(os.path.join(manifest.out, "frequencies.json"), doc)
    print(f"frequencies: artifacts in {manifest.out}")


# the ReducedSystem fields that reduced.json holds as they are, and as float lists
_REDUCED_SCALARS = ("converged", "d", "delta", "epsilon", "K_mu", "n", "shift_constant")
_REDUCED_VECTORS = ("lambda_inf", "lambda_ref", "omega")


@_command
def cmd_reduce(manifest: RunManifest, log, timings, args):
    from .engine import _phase, run_schedule
    from .serialize import write_array, write_json

    outdir = manifest.out
    write_json(os.path.join(outdir, "manifest_echo.json"), manifest.to_dict())
    settings = _settings(manifest)
    with _phase(timings, "build"):
        model = list(_build_model(manifest))
    base = model[0]
    log.emit("reduce.model", N=base.N, n=base.n, epsilon=settings.epsilon)

    chosen, record = _frequency(manifest, base, settings)
    if not (chosen.dio1.passed and chosen.dio2.passed):
        detail = (chosen.dio1.violating_k if not chosen.dio1.passed
                  else chosen.dio2.violating_triple)
        raise FrequencyExcluded(
            f"manifest frequency fails its certificate at {detail}", triple=detail, step=0
        )
    source = "manifest" if "omega" in manifest.frequency else "sampled"
    write_json(os.path.join(outdir, "frequency.json"), dict(record, source=source))

    with _phase(timings, "reduce.schedule"):
        # P0 is handed over, not kept: once run_schedule holds its triangle
        # no frame holds the dense P0
        state, reduced = run_schedule(base, model.pop(), chosen.omega, settings)
    timings.update(state.timings)
    for rec in state.records:
        log.emit("step", l=rec["l"], norm=rec["norm_out"], K=rec["K_step"])
    write_json(os.path.join(outdir, "steps.json"), list(state.records))
    if not state.converged:
        raise ConvergenceError(
            f"stopped after {state.l} steps: {state.stopped}",
            norm_history=list(state.norm_history),
            steps=state.l,
        )

    gen_meta = []
    for idx, (gen, dropped) in enumerate(zip(reduced.generators, reduced.dropped, strict=True)):
        name = f"generator_{idx:02d}.npy"
        write_array(os.path.join(outdir, name), gen.coeffs)
        gen_meta.append({"K": gen.K, "dropped": dropped, "file": name, "n": gen.n})
    doc = {name: getattr(reduced, name) for name in _REDUCED_SCALARS + _REDUCED_VECTORS}
    doc.update(generators=gen_meta, mu_inf=None, norm_history=list(state.norm_history),
               steps=state.l)
    if reduced.mu_inf is not None:
        write_array(os.path.join(outdir, "mu_inf.npy"), reduced.mu_inf)
        doc["mu_inf"] = "mu_inf.npy"
    write_json(os.path.join(outdir, "reduced.json"), doc)

    _write_spectrum(outdir, reduced, (manifest.spectrum or {}).get("Kmax", 2))
    print(
        f"reduce: converged in {state.l} steps, final norm "
        f"{state.norm_history[-1]:.3e}; artifacts in {outdir}"
    )
    return {"converged": True, "steps": state.l, "final_norm": state.norm_history[-1]}


def _load_reduced(outdir: str):
    """Rebuild a ReducedSystem from reduced.json plus its .npy companions.

    Each of these artifacts is checked against its checksum before any of
    its bytes are read; the other files in outdir, which the command does
    not read, are not checked.  reduced.json and mu_inf.npy are loaded; each
    generator stays in its file as a serialize.StoredOperator, whose header
    is checked here against reduced.json's n and K and the run's N, and
    whose coefficients are read slab by slab each time it is evaluated; a
    generator rewritten after this load fails its next read.
    """
    import numpy as np

    from .engine import ReducedSystem
    from .serialize import StoredOperator, load_array, load_json, verify_checksums

    path = os.path.join(outdir, "reduced.json")
    if not os.path.isfile(path):
        raise ArtifactError(f"missing reduced.json in {outdir} (run `reduce` first)")
    verify_checksums(outdir, ["reduced.json"])
    doc = load_json(path)
    files = [meta["file"] for meta in doc["generators"]]
    if doc["mu_inf"] is not None:
        files.append(doc["mu_inf"])
    verify_checksums(outdir, files)
    N = len(doc["lambda_inf"])
    gens = tuple(StoredOperator(os.path.join(outdir, meta["file"]), meta["n"], meta["K"], N)
                 for meta in doc["generators"])
    mu = None
    if doc["mu_inf"] is not None:
        mu = load_array(os.path.join(outdir, doc["mu_inf"]))
    return ReducedSystem(
        **{name: doc[name] for name in _REDUCED_SCALARS},
        **{name: np.asarray(doc[name], dtype=float) for name in _REDUCED_VECTORS},
        mu_inf=mu,
        generators=gens,
        dropped=tuple(meta["dropped"] for meta in doc["generators"]),
    )


@_command
def cmd_verify(manifest: RunManifest, log, timings, args):
    import numpy as np

    from .engine import _phase
    from .floquet import _quasienergies, _reconstruct, integrator_costs, propagate_step_doubled
    from .serialize import write_json

    with _phase(timings, "verify.load"):
        reduced = _load_reduced(manifest.out)
    base, P = _build_model(manifest)
    cfg = manifest.verify or {}
    t_max = cfg.get("t_max", 50.0)
    num_times = cfg.get("num_times", 60)
    tol = cfg.get("tol", 1e-4)

    omega = reduced.omega
    N = base.N
    identity = np.eye(N, dtype=complex)
    psi0 = np.ones(N, dtype=complex) / np.sqrt(N)
    phi0 = np.zeros(reduced.n)
    ts = np.linspace(t_max / num_times, t_max, num_times)
    # for n = 1 the sweep also lands on the period T: Phi(T) is the period map
    T = 2.0 * np.pi / float(omega[0]) if reduced.n == 1 else None
    times = ts if T is None else np.union1d(ts, [T])

    with _phase(timings, "verify.reconstruct"):
        # U(phi0) = U(0) is the frame the period map's modes are matched in
        R, U0 = _reconstruct(reduced, identity, phi0, ts)
    # the integrator the cost model predicts cheaper; CF4 on a tie
    costs = integrator_costs(base, P, omega, times)
    integrator = min(costs, key=costs.get)
    with _phase(timings, "verify.direct"):
        Phi, dt, steps, estimate = propagate_step_doubled(
            base, P, omega, identity, phi0, times, integrator)
    Phi_t = Phi[np.searchsorted(times, ts)]
    direct, recon = Phi_t @ psi0, R @ psi0
    dev = float(np.max(np.linalg.norm(recon - direct, axis=1)))
    op_dev = float(np.max(np.linalg.norm(R - Phi_t, ord=2, axis=(1, 2))))
    report = {
        "dt": dt,
        "integrator": integrator,
        "integrator_cost": costs,
        "integrator_error_estimate": estimate,
        "max_deviation": dev,
        "max_operator_deviation": op_dev,
        "norm_drift_direct": float(
            np.max(np.abs(np.linalg.norm(direct, axis=1) - 1.0))
        ),
        "norm_drift_reconstructed": float(
            np.max(np.abs(np.linalg.norm(recon, axis=1) - 1.0))
        ),
        "num_times": num_times,
        "passed": bool(op_dev <= tol),
        "steps_direct": int(steps[: np.searchsorted(times, ts[-1]) + 1].sum()),
        "t_max": t_max,
        "tol": tol,
        "unitarity_drift": float(np.max(np.abs(Phi_t.mT.conj() @ Phi_t - identity))),
    }

    if T is not None:
        with _phase(timings, "verify.monodromy"):
            period = np.searchsorted(times, T)
            nu, info = _quasienergies(Phi[period], T, U0)
        report["steps_period"] = int(steps[: period + 1].sum())
        lam = np.mod(reduced.lambda_inf, 2.0 * np.pi / T)
        err = np.abs(nu - lam)
        err = np.minimum(err, 2.0 * np.pi / T - err)  # circle distance
        report["quasi_energy"] = {
            "max_error": float(np.max(err)),
            "min_overlap": info.get("min_overlap"),
            "period": T,
            "unitarity_defect": info.get("unitarity_defect"),
        }

    # the largest array verify held for each generator was its slab buffer
    log.emit("verify.generators",
             generators=[{"K": B.K, "slab_bytes": B.slab_bytes} for B in reduced.generators])
    write_json(os.path.join(manifest.out, "verify.json"), report)
    if not report["passed"]:
        raise ToleranceExceeded(
            f"verify: max deviation {dev:.3e}, operator {op_dev:.3e} above tol {tol:.1e}"
        )
    print(f"verify: max deviation {dev:.3e}, operator {op_dev:.3e} (tol {tol:.1e}) -> ok")
    return {"max_operator_deviation": op_dev}


def _write_spectrum(outdir: str, reduced, Kmax: int):
    """Write spectrum.json, the Floquet exponents for |k|_inf <= Kmax; returns them."""
    from .floquet import floquet_spectrum
    from .serialize import write_json

    spec = floquet_spectrum(reduced, Kmax)
    write_json(
        os.path.join(outdir, "spectrum.json"),
        {
            "Kmax": Kmax,
            "k": [list(map(int, row)) for row in spec.k],
            "mode": list(map(int, spec.mode)),
            "multiplicity": list(map(int, spec.multiplicity)),
            "nu": list(spec.nu),
        },
    )
    return spec


@_command
def cmd_spectrum(manifest: RunManifest, log, timings, args):
    if args.kmax is not None and args.kmax < 0:
        # the manifest's spectrum.Kmax has the same bound
        raise SchemaError("--kmax must be a non-negative integer", field_path="--kmax")
    reduced = _load_reduced(manifest.out)
    K = args.kmax if args.kmax is not None else (manifest.spectrum or {}).get("Kmax", 2)
    spec = _write_spectrum(manifest.out, reduced, K)
    header = "nu,mode,multiplicity," + ",".join(f"k{i + 1}" for i in range(reduced.n))
    rows = [(float(nu), int(mode), int(mult), *map(int, k))
            for nu, mode, mult, k in zip(spec.nu, spec.mode, spec.multiplicity, spec.k)]
    _write_csv(os.path.join(manifest.out, "spectrum.csv"), header, rows)
    print(f"spectrum: {len(spec)} lines (|k| <= {K}) in {manifest.out}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kamreduce",
        description="KAM reducibility runs, frequency certification, and "
        "Floquet-spectrum verification driven by JSON manifests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("frequencies", "rejection-fraction table and frequency certificates"),
        ("reduce", "run the KAM schedule and write run artifacts"),
        ("verify", "cross-check a finished run against direct propagation"),
        ("spectrum", "export the Floquet spectrum table of a finished run"),
        ("model", "build and inspect the model behind a manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="path to the JSON manifest")
        p.add_argument("--seed", type=int, default=None, help="override the root seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="cap BLAS/OpenMP worker threads",
        )
        if name == "spectrum":
            p.add_argument(
                "--kmax", type=int, default=None, help="mode cutoff for the table"
            )
    return parser


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise SchemaError("--threads must be a positive integer")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at call time, so a wrapper bound in this module's namespace runs
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
