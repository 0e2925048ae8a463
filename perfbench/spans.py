"""Spans around the calls the CLI (or the `verify` workload) makes into each layer.

Nothing in the package changes.  ``Tracer.install`` swaps the names that
``crnsign.cli`` looks up: each layer module it imports is replaced by a
proxy whose public functions are wrapped, and each layer function it
imported by name is replaced by its wrapper.  Calls the layers make to
each other go through their own names and stay untraced.

A span's self time is its duration minus the time of the spans it
encloses.  The root span of an operation is ``cli``, so ``cli.self_s`` is
the operation's time outside every layer span.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import Counter
from typing import Callable, Dict, List

# Layer module -> the public functions wrapped in it.
LAYERS: Dict[str, List[str]] = {
    "textio": ["parse_network", "dump_report"],
    "model": ["stoichiometric_matrix"],
    "signcheck": ["find_bad_submatrices", "jacobian_sign_status", "hermitian_square_status"],
    "signfix": ["sign_fix", "fix_one_report", "verify_permutation_relation"],
    "exactla": ["kernel_basis", "is_conserving", "kernel_correspondence_check"],
    "deficiency": ["deficiency", "delta_audit", "decomposition_residual", "complexes_decomposition"],
    "kinetics": ["find_equilibrium", "simulate"],
    "spectra": ["eigen_convergence", "det_relation_check", "det_sign_sampling"],
    "graphio": ["build_graph", "find_bad_cycles"],
}


def _classes(t: "Tracer", classes) -> None:
    t.counts["signcheck.classes"] += len(classes)
    t.counts["signcheck.members"] += sum(len(c.members) for c in classes)


def _steps(t: "Tracer", report) -> None:
    t.counts["signfix.steps"] += len(report.steps)


def _passed(t: "Tracer", result) -> None:
    t.counts["spectra.passed"] += bool(result.passed)


# Counts read from return values: span name -> (tracer, result) -> None.
_ON_RESULT: Dict[str, Callable] = {
    "signcheck.find_bad_submatrices": _classes,
    "signfix.sign_fix": _steps,
    "signfix.fix_one_report": _steps,
    "deficiency.delta_audit": lambda t, audits: t.counts.update({"deficiency.audit_steps": len(audits)}),
    "textio.dump_report": lambda t, text: t.counts.update({"textio.out_bytes": len(text.encode())}),
    "spectra.eigen_convergence": _passed,
    "spectra.det_relation_check": _passed,
    "spectra.det_sign_sampling": _passed,
}


def layer_module(layer: str) -> types.ModuleType:
    # ``crnsign.deficiency`` as a package attribute is the function of that
    # name, so modules are looked up by their dotted path.
    return importlib.import_module(f"crnsign.{layer}")


def plain_api() -> types.SimpleNamespace:
    """The wrapped functions, unwrapped: what an untraced run calls."""
    return types.SimpleNamespace(
        **{fn: getattr(layer_module(layer), fn) for layer, fns in LAYERS.items() for fn in fns}
    )


def span_names() -> List[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class _Proxy:
    """A layer module with some of its functions replaced."""

    def __init__(self, module: types.ModuleType, wrapped: Dict[str, Callable]):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """In-memory span statistics: self time, calls and raised calls per name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.raised: Dict[str, int] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._open: List[List[float]] = []  # child time of each open span
        self.api = types.SimpleNamespace(
            **{
                fn: self.wrap(f"{layer}.{fn}", getattr(layer_module(layer), fn))
                for layer, fns in LAYERS.items()
                for fn in fns
            }
        )

    def wrap(self, name: str, fn: Callable) -> Callable:
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def install(self, cli: types.ModuleType) -> Callable[[], None]:
        """Route ``cli``'s layer calls through the wrappers; returns an undo."""
        saved = dict(vars(cli))
        for layer, fns in LAYERS.items():
            module = layer_module(layer)
            wrapped = {fn: getattr(self.api, fn) for fn in fns}
            for attr, value in saved.items():
                if value is module:
                    setattr(cli, attr, _Proxy(module, wrapped))
                elif attr in wrapped and value is getattr(module, attr):
                    setattr(cli, attr, wrapped[attr])

        def undo() -> None:
            for attr in vars(cli).keys() & saved.keys():
                setattr(cli, attr, saved[attr])

        return undo

    def layers_seen(self) -> set:
        return {name.split(".")[0] for name, n in self.calls.items() if n}

    def metrics(self, wall_s: float, untraced_s: float) -> Dict[str, float]:
        out: Dict[str, float] = {"cli.self_s": self.self_s["cli"]}
        for name in span_names():
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.raised"] = self.raised[name]
        for key in ("textio.out_bytes", "signcheck.classes", "signcheck.members",
                    "signfix.steps", "deficiency.audit_steps"):
            out[key] = self.counts[key]
        finds = self.calls["kinetics.find_equilibrium"]
        out["kinetics.found_frac"] = (
            (finds - self.raised["kinetics.find_equilibrium"]) / finds if finds else 0.0
        )
        checks = sum(self.calls[n] - self.raised[n] for n in span_names() if n.startswith("spectra."))
        out["spectra.passed_frac"] = self.counts["spectra.passed"] / checks if checks else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.overhead_frac"] = wall_s / untraced_s - 1.0
        return out
