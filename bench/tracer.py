"""Outside-in tracer for kamreduce: one span per call into a layer function.

Run one traced CLI command with

    python3 bench/tracer.py SPANS.json <kamreduce arguments>

for example ``python3 bench/tracer.py spans.json reduce --manifest m.json``.
It imports every kamreduce module, wraps the layer functions listed in
LAYERS in every module namespace that binds them (``engine`` and
``homological`` copy ``torus`` names through ``from .torus import ...``),
runs ``kamreduce.cli.main`` and writes the spans to SPANS.json when the
command ends.  Nothing inside the program is changed.

A span is ``[name, start, end, parent, counts]``: ``name`` is the wrapped
function as ``module.function``, ``start``/``end`` are ``perf_counter``
seconds, ``parent`` is the index of the enclosing span (-1 at the root) and
``counts`` holds work counts computed from the call's arguments and result.
They are computed, not measured inside the program.  Private helpers are not
wrapped, so their time lands in the caller's span: the ``_stack_to_grid``
FFTs of ``homological`` count as ``homological.solve``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import time
import types

# layer -> functions whose spans make it up
LAYERS = {
    "torus.transform": ("torus.coeffs_to_grid", "torus.grid_to_coeffs"),
    "torus.norm": ("torus.delta_norm", "torus.g_norm"),
    "engine.conjugate": ("engine.conjugate",),
    "engine.expm": ("engine.matrix_exp_antihermitian",),
    "engine.kam_step": ("engine.kam_step",),
    "homological.solve": (
        "homological.solve_variable",
        "homological.solve_constant",
        "homological.solve_kuksin",
        "homological.torus_primitive",
    ),
    "diophantine.cert": ("diophantine.check_dio1", "diophantine.check_dio2"),
    "diophantine.sample": ("diophantine.sample_admissible", "diophantine.optimize_frequency"),
    "diophantine.table": ("diophantine.rejection_table",),
    "floquet.propagate": ("floquet.propagate_direct", "floquet.propagate_columns"),
    "floquet.monodromy": ("floquet.monodromy_quasienergies",),
    "floquet.reconstruct": ("floquet.reconstruct_solution",),
    "oscillator.build": ("oscillator.build_oscillator", "oscillator.perturbation_matrix"),
    "models.build": (
        "models.build_abstract_model",
        "models.abstract_base",
        "models.random_perturbation",
    ),
    "serialize.io": (
        "serialize.write_json",
        "serialize.load_json",
        "serialize.write_array",
        "serialize.load_array",
        "serialize.sha256_file",
        "serialize.write_checksums",
        "serialize.verify_checksums",
    ),
    # roots: one span per command, so every layer span has a parent
    "cli.command": (
        "cli.cmd_model",
        "cli.cmd_frequencies",
        "cli.cmd_reduce",
        "cli.cmd_verify",
        "cli.cmd_spectrum",
    ),
}

LAYER_OF = {fn: layer for layer, fns in LAYERS.items() for fn in fns}


# ---------------------------------------------------------------------------
# computed work counts


def _fast_len(m: int) -> int:
    from scipy.fft import next_fast_len

    return int(next_fast_len(m))


def _l1_ball(n: int, K: int) -> int:
    """Number of k in Z^n with |k|_1 <= K."""
    return sum(2**j * math.comb(n, j) * math.comb(K, j) for j in range(min(n, K) + 1))


def _norm_svds(a, r, grids):
    # mirrors torus.default_norm_grid: one N x N SVD per grid point
    series = a["P"] if "P" in a else a["B"]
    M = a["grid_size"] or _fast_len(max(32, 2 * series.K + 2))
    return {"svds": grids * M**series.n}


def _conjugate(a, r):
    # mirrors the grid choice in engine.conjugate
    P, B, base = a["P"], a["B"], a["base"]
    K_out = a["K_out"] if a["K_out"] is not None else max(P.K, B.K)
    band = max(P.K, B.K, base.K)
    M = _fast_len(a["oversample"] * max(2 * (K_out + B.K) + 2, 2 * band + 2))
    return {
        "grid_M": M,
        "grid_bytes": M**P.n * P.N**2 * 16,
        "kept_frac": (2 * K_out + 1) ** P.n / M**P.n,
    }


def _solve_variable(a, r):
    # mirrors the grid choice in homological.solve_variable; a zero mu takes
    # the constant-diagonal path, which works on coefficients only
    P, base = a["P"], a["base"]
    pairs = P.N * (P.N - 1) // 2
    mu = base.mu
    if mu is None or not mu.any():
        return {"pairs": pairs, "grid_points": 0}
    band = P.K + base.K
    if a["work_K"] is not None:
        M = _fast_len(2 * max(a["work_K"], band) + 2)
    else:
        M = _fast_len(max(a["oversample"] * (2 * band + 2), 2 * band + 2))
    return {"pairs": pairs, "grid_points": M**P.n}


def _dio1(a, r):
    return {"combos": (_l1_ball(len(a["omega"]), a["Kmax"]) - 1) // 2}


def _dio2(a, r):
    m = r.N_max
    combos = m * (m - 1) // 2 * _l1_ball(len(a["omega"]), a["Kmax"])
    return {"combos": combos, "pruned": r.pruned_fraction * combos}


def _propagate_direct(a, r):
    # mirrors the step rule of floquet.propagate_direct
    lam_max = float(max(abs(x) for x in a["base"].lam))
    dt = a["dt"] if a["dt"] is not None else 0.5 * a["dt_cap"] / lam_max
    steps, t = 0, 0.0
    for t_target in a["ts"]:
        if t_target > t:
            steps += math.ceil((t_target - t) / dt - 1e-12)
        t = float(t_target)
    return {"steps": steps}


def _propagate_columns(a, r):
    # mirrors the step rule of floquet.propagate_columns
    lam_max = float(max(abs(x) for x in a["base"].lam))
    dt = a["dt"] if a["dt"] is not None else 0.05 / lam_max
    return {"steps": math.ceil(a["T"] / dt - 1e-12)}


def _file_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


COUNTERS = {
    "torus.coeffs_to_grid": lambda a, r: {"points": a["M"] ** a["n"], "bytes": r.nbytes},
    "torus.grid_to_coeffs": lambda a, r: {
        "points": math.prod(a["values"].shape[: a["n"]]),
        "bytes": a["values"].nbytes,
    },
    "torus.delta_norm": lambda a, r: _norm_svds(a, r, 1),
    "torus.g_norm": lambda a, r: _norm_svds(a, r, 2),
    "engine.conjugate": _conjugate,
    "engine.matrix_exp_antihermitian": lambda a, r: {
        "matrices": math.prod(a["Bg"].shape[:-2])
    },
    "homological.solve_variable": _solve_variable,
    "diophantine.check_dio1": _dio1,
    "diophantine.check_dio2": _dio2,
    "diophantine.optimize_frequency": lambda a, r: {
        "admissible": r[1]["admissible"],
        "candidates": r[1]["candidates"],
    },
    "diophantine.sample_admissible": lambda a, r: {
        "admissible": round((1.0 - r[1]) * a["num_samples"]),
        "candidates": a["num_samples"],
    },
    "floquet.propagate_direct": _propagate_direct,
    "floquet.propagate_columns": _propagate_columns,
    "serialize.write_json": _file_bytes,
    "serialize.load_json": _file_bytes,
    "serialize.write_array": _file_bytes,
    "serialize.load_array": _file_bytes,
    "serialize.sha256_file": _file_bytes,
}


# ---------------------------------------------------------------------------
# wrapping


def kamreduce_modules() -> list:
    """Every module of the kamreduce package, imported."""
    import kamreduce

    names = sorted(m.name for m in pkgutil.iter_modules(kamreduce.__path__))
    return [importlib.import_module(f"kamreduce.{name}") for name in names]


def qualified_name(fn) -> str:
    return f"{fn.__module__.removeprefix('kamreduce.')}.{fn.__name__}"


class Tracer:
    """Wraps layer functions in place; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []       # (module, attribute, original)
        self._wrappers = {}    # original -> wrapper, shared by all namespaces

    def install(self, modules) -> int:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                    continue
                if not obj.__module__.startswith("kamreduce."):
                    continue
                if qualified_name(obj) not in LAYER_OF:
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrappers[obj])
        return len(self._saved)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn):
        name = qualified_name(fn)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    span[4] = counter(bound.arguments, result)
                except Exception as exc:  # a count must never break the command
                    span[4] = {"count_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    modules = kamreduce_modules()
    import_s = time.perf_counter() - t0
    import kamreduce.cli

    tracer = Tracer()
    tracer.install(modules)
    code = None
    try:
        code = kamreduce.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
