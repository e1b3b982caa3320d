"""Per-layer timings taken from outside the package.

`install` wraps every public module-level function of each kreinsys
module, plus the construction of `CanonicalSymmetry`, and rebinds the
wrappers wherever the package refers to the originals.  Each wrapper
records a span: its duration counts towards the function's busy time
(outermost calls only), its self time (duration minus the spans of the
traced calls it made) and the same two figures for its layer.  A few
wrappers also record dimensions read from arguments or results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("cli", "bundles", "krein", "systems", "lattice", "transfer", "agler", "dilation", "realize")


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.functions: dict[str, _Stat] = {}
        self.layers = {layer: _Stat() for layer in LAYERS}
        self.counts = {
            "transfer.max_state_dim": 0,
            "agler.rows_m": 0,
            "agler.kernel_pairs": 0,
            "dilation.k0_dim": 0,
            "dilation.state_dim": 0,
            "bundles.bytes_written": 0,
        }
        self._children: list[float] = []

    def wrap(self, layer: str, name: str, fn, observe=None):
        stat = self.functions.setdefault(f"{layer}.{name}", _Stat())
        layer_stat = self.layers[layer]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            stat.depth += 1
            layer_stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                stat.depth -= 1
                layer_stat.depth -= 1
                stat.calls += 1
                stat.self_time += own
                layer_stat.calls += 1
                layer_stat.self_time += own
                if stat.depth == 0:
                    stat.busy += elapsed
                if layer_stat.depth == 0:
                    layer_stat.busy += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _raise_count(self, key, value):
        self.counts[key] = max(self.counts[key], int(value))

    def observers(self):
        """Hooks that read dimensions and byte counts off traced calls."""

        def eval_transfer(args, kwargs, result):
            self._raise_count("transfer.max_state_dim", args[0].state_dim)

        def construct(args, kwargs, result):
            self._raise_count("agler.rows_m", result.codomain_dim)

        def verify_kernel(args, kwargs, result):
            pairs = args[2] if len(args) > 2 else kwargs["pairs"]
            self.counts["agler.kernel_pairs"] += len(pairs)

        def build_dilation(args, kwargs, result):
            self._raise_count("dilation.k0_dim", result.k0_basis.shape[1])
            self._raise_count("dilation.state_dim", result.alpha_tilde.state_dim)

        def save_bundle(args, kwargs, result):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["bundles.bytes_written"] += os.path.getsize(path)

        return {
            "transfer.eval_transfer": eval_transfer,
            "agler.construct_pencil_decomposition": construct,
            "agler.verify_kernel_identity": verify_kernel,
            "dilation.build_dilation": build_dilation,
            "bundles.save_bundle": save_bundle,
        }

    def _busy(self, key):
        stat = self.functions.get(key)
        return stat.busy if stat else 0.0

    def _calls(self, key):
        stat = self.functions.get(key)
        return stat.calls if stat else 0

    def metrics(self) -> dict[str, float]:
        """Per-layer busy/self/calls plus the named function figures."""
        out: dict[str, float] = {}
        for layer, stat in self.layers.items():
            out[f"{layer}.busy_s"] = stat.busy
            out[f"{layer}.self_s"] = stat.self_time
            out[f"{layer}.calls"] = stat.calls
        busy = {
            "transfer.resolvent_s": "transfer.resolvent",
            "transfer.eval_transfer_s": "transfer.eval_transfer",
            "dilation.build_s": "dilation.build_dilation",
            "dilation.verify_linear_tf_s": "dilation.verify_linear_tf",
            "dilation.verify_dilation_s": "dilation.verify_dilation",
            "krein.symmetry_build_s": "krein.CanonicalSymmetry",
            "krein.j_unitarity_defect_s": "krein.j_unitarity_defect",
            "krein.extend_j_isometry_s": "krein.extend_j_isometry",
            "krein.regularize_subspace_s": "krein.regularize_subspace",
            "agler.construct_s": "agler.construct_pencil_decomposition",
            "agler.verify_kernel_s": "agler.verify_kernel_identity",
            "agler.epsilon_bounds_s": "agler.epsilon_bounds",
            "systems.jconservativity_defect_s": "systems.jconservativity_defect",
            "systems.torus_check_s": "systems.torus_check",
            "realize.realization_s": "realize.jconservative_realization",
            "realize.shift_register_s": "realize.shift_register_realization",
            "lattice.simulate_s": "lattice.simulate",
            "lattice.energy_report_s": "lattice.energy_balance_report",
            "bundles.save_s": "bundles.save_bundle",
            "bundles.load_s": "bundles.load_bundle",
        }
        for metric, key in busy.items():
            out[metric] = self._busy(key)
        out["transfer.resolvent_calls"] = self._calls("transfer.resolvent")
        out["transfer.eval_transfer_calls"] = self._calls("transfer.eval_transfer")
        out["krein.symmetry_builds"] = self._calls("krein.CanonicalSymmetry")
        build = self.functions.get("dilation.build_dilation")
        out["dilation.build_self_s"] = build.self_time if build else 0.0
        out.update(self.counts)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and rebind every reference to them."""
    observers = tracer.observers()
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"kreinsys.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
                continue
            key = f"{layer}.{name}"
            replacements[id(obj)] = (obj, tracer.wrap(layer, name, obj, observers.get(key)))
    for name, module in list(sys.modules.items()):
        if name != "kreinsys" and not name.startswith("kreinsys."):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    symmetry = sys.modules["kreinsys.krein"].CanonicalSymmetry
    symmetry.__init__ = tracer.wrap("krein", "CanonicalSymmetry", symmetry.__init__)
