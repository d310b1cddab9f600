"""Span tracing of the lps layers, installed from outside the package.

Every public function of the seven layer modules is wrapped, and every
attribute of a loaded ``lps`` module that names one of those functions is
rebound to its wrapper.  Calls that resolve a name at call time therefore
pass through a span: ``sphere.koopman_block`` called inside ``lps.sphere``,
``verify_ramanujan`` imported by name into ``lps.cli``, and the
benchmark's own ``sphere.verify_ramanujan(...)``.  Nothing in ``src/lps``
is edited.

Spans stay in memory as ``[name, start, end, parent, cache_hit]`` and are
written out, with the run id, only when ``write`` is called at the end of
the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("quaternions", "words", "formulas", "exact", "sphere", "torus", "cli")

# Public function -> per-layer self-time metric.  All of formulas is booked
# to formulas.closed_form_s and all of cli to cli.self_s; any other function
# not named here goes to "<layer>.other_s", so the self times of all
# metrics partition the time spent inside lps.
TIME_METRIC = {
    "quaternions.build_generator_set": "quaternions.build_generator_set_s",
    "quaternions.enumerate_representatives": "quaternions.build_generator_set_s",
    "quaternions.adjoint_rotation": "quaternions.build_generator_set_s",
    "words.verify_freeness": "words.verify_freeness_s",
    "exact.kernel_with_free_columns": "exact.kernel_s",
    "exact.integer_kernel": "exact.kernel_s",
    "exact.fraction_free_echelon": "exact.kernel_s",
    "exact.object_matmul": "exact.object_matmul_s",
    "sphere.harmonic_basis": "sphere.harmonic_basis_s",
    "sphere.gram_matrix": "sphere.gram_matrix_s",
    "sphere.koopman_block": "sphere.koopman_block_s",
    "sphere.block_spectrum": "sphere.block_spectrum_s",
    "sphere.jacobi_eigenvalues": "sphere.jacobi_eigenvalues_s",
    "sphere.sphere_discrepancy_estimate": "sphere.discrepancy_query_s",
    "torus.window_operator": "torus.window_operator_s",
    "torus.operator_norm_estimate": "torus.operator_norm_estimate_s",
}
WHOLE_LAYER_METRIC = {"formulas": "formulas.closed_form_s", "cli": "cli.self_s"}
# Left unwrapped: an integer helper that gram_matrix and koopman_block call
# about 460,000 times in sphere-deep.  A span per call would cost more than
# the call, so its time stays in the caller's self time.
UNTRACED = frozenset({"exact.double_factorial"})


def metric_for(name: str) -> str:
    """Self-time metric that a span of the public function `name` books to."""
    layer = name.split(".", 1)[0]
    return TIME_METRIC.get(name) or WHOLE_LAYER_METRIC.get(layer) or f"{layer}.other_s"


TIME_METRICS = tuple(
    sorted(
        set(TIME_METRIC.values())
        | set(WHOLE_LAYER_METRIC.values())
        | {f"{layer}.other_s" for layer in LAYERS if layer not in WHOLE_LAYER_METRIC}
    )
)


def _count_result(counters: Counter, name: str, result, cache_hit: bool) -> None:
    """Exact counters read from the result of a layer call."""
    if name == "sphere.koopman_block" and not cache_hit:
        counters["sphere.block_dim_sum"] += result.dimension
    elif name == "words.verify_freeness":
        counters["words.ball_words"] += result.ball_size_found
    elif name == "exact.object_matmul":
        counters["exact.object_matmul_calls"] += 1
    elif name == "torus.window_operator":
        counters["torus.windows"] += 1
        counters["torus.window_nnz"] += int(result.entries.nnz)
        counters["torus.words_used"] += result.words_used
        counters["torus.window_slots"] += result.words_used * result.window.size


class Tracer:
    """Wraps the layer functions of an imported ``lps`` and records spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"lps.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrappers[id(value)] = self._wrap(name, value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lps" and not mod_name.startswith("lps."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        if inspect.isgeneratorfunction(fn):
            # Materialise inside the span, so the span covers the enumeration
            # rather than only the creation of a lazy generator.
            target = lambda *a, **k: list(fn(*a, **k))  # noqa: E731
        else:
            target = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            hits = cache_info().hits if cache_info is not None else 0
            try:
                result = target(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[4] = cache_info is not None and cache_info().hits > hits
            _count_result(counters, name, result, span[4])
            return iter(result) if target is not fn else result

        if cache_info is not None:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per time metric: each span's duration minus its children's.

        A call answered from an ``lru_cache`` is a lookup, not a build: its
        time stays in the caller's self time (``sphere.discrepancy_query_s``
        pays the hashing of cached blocks) and it books nothing itself.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, hit in self.spans:
            if parent >= 0 and not hit:
                children[parent] += end - start
        booked = dict.fromkeys(TIME_METRICS, 0.0)
        for (name, start, end, _, hit), inner in zip(self.spans, children):
            if not hit:
                booked[metric_for(name)] += (end - start) - inner
        return booked

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, hit in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "cache_hit": hit,
                        }
                    )
                    + "\n"
                )
