"""Span tracing of the xyzscar public API, installed from outside the package.

Every public function of the traced modules, and every public method of the
classes they define, is replaced by a wrapper that records one span
(name, start, end, parent). The wrapper is bound in every namespace that
holds the original object, because ``cli`` and ``ed_oracle`` import
functions by name. ``uninstall`` puts the originals back, so traced and
untraced rounds can alternate in one process.

A few spans also derive work counts from their arguments and return values
(momenta, Hilbert dimension, ``H.nnz``, bytes written); these are computed,
not read from inside the program. RK4 steps are the exception: the step size
defaults inside ``classical_lyapunov`` and ``ll_evolve``, so the steps are
counted at ``lattice_classical._rk4_step`` and credited to the open span.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

MODULES = (
    "elliptic",
    "scars",
    "rotframe",
    "lattice_classical",
    "spinwave",
    "bogoliubov",
    "ed_oracle",
    "cli",
)


def _count_lyapunov_max(a, result, start_ns):
    return {"momenta": a["n_k"] - a["n_k"] // 2}


def _count_hamiltonian(a, result, start_ns):
    return {"dim": result.shape[0], "nnz": result.nnz}


def _count_cli_main(a, result, start_ns):
    argv = list(a["argv"] or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path(".")
    written = 0
    for path in out.iterdir():
        st = path.stat()
        if path.is_file() and st.st_mtime_ns >= start_ns:
            written += st.st_size
    return {"bytes_written": written}


# span name -> counter(bound arguments, return value, start time in ns)
COUNTERS = {
    "bogoliubov.lyapunov_max": _count_lyapunov_max,
    "ed_oracle.build_hamiltonian": _count_hamiltonian,
    "cli.main": _count_cli_main,
}


class Tracer:
    """Holds spans in memory; ``install`` and ``uninstall`` swap the wrappers."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        # span: [name, start, end, parent index, child time, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg_mods = [m for n, m in sys.modules.items() if n == "xyzscar" or n.startswith("xyzscar.")]
        for short in MODULES:
            mod = sys.modules[f"xyzscar.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{short}.{name}", obj)
                    for holder in pkg_mods:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj)
        lc = sys.modules["xyzscar.lattice_classical"]
        self._patch(lc, "_rk4_step", self._count_steps(lc._rk4_step))

    def _count_steps(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counts = spans[stack[-1]][5]
                counts["steps"] = counts.get("steps", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _install_methods(self, short: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(f"{short}.{name}", raw))
            elif isinstance(raw, classmethod):
                wrapped = self._wrap(f"{short}.{name}", raw.__func__)
                self._patch(cls, name, classmethod(wrapped))

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, 0.0, {}]
            spans.append(span)
            stack.append(index)
            start_ns = time.time_ns()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if counter is not None:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                bound.apply_defaults()
                span[5].update(counter(bound.arguments, result, start_ns))
            return result

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, _, counts in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "workload": self.workload,
                    "seed": self.seed,
                }
                if counts:
                    record["computed"] = counts
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, names: list[str], n_rounds: int) -> dict[str, float]:
        """Per-layer values for the metric names of BENCHMARK.json.

        Times, calls and work counts are per traced round; percentiles are
        per call; ``*_max`` values are maxima over the run.
        """
        by_name: dict[str, list[list]] = {}
        for span in self.spans:
            by_name.setdefault(span[0], []).append(span)
        per_round = 1.0 / max(1, n_rounds)

        def self_s(spans):
            return sum(s[2] - s[1] - s[4] for s in spans)

        def counted(spans, key):
            return [s[5][key] for s in spans if key in s[5]]

        lyap = by_name.get("bogoliubov.lyapunov_max", [])
        hams = by_name.get("ed_oracle.build_hamiltonian", [])
        mains = by_name.get("cli.main", [])
        out: dict[str, float] = {
            "bogoliubov.momenta": sum(counted(lyap, "momenta")) * per_round,
            "ed_oracle.dim_max": max(counted(hams, "dim"), default=0),
            "ed_oracle.nnz_max": max(counted(hams, "nnz"), default=0),
            "cli.bytes_written": sum(counted(mains, "bytes_written")) * per_round,
        }
        for metric in names:
            head, _, stat = metric.rpartition(".")
            if metric in out:
                continue
            if head in MODULES:
                spans = [s for n, v in by_name.items() if n.split(".")[0] == head for s in v]
            else:
                spans = by_name.get(head, [])
            if stat == "calls":
                out[metric] = len(spans) * per_round
            elif stat == "self_s":
                out[metric] = self_s(spans) * per_round
            elif stat in ("p50_ms", "tail_ms"):
                out[metric] = _percentile_ms(spans, stat)
            elif stat == "steps":
                out[metric] = sum(counted(spans, "steps")) * per_round
            elif stat == "step_us":
                steps = sum(counted(spans, "steps"))
                out[metric] = 1e6 * self_s(spans) / steps if steps else 0.0
        return out


def _percentile_ms(spans, stat: str) -> float:
    """Median, or the highest nearest-rank percentile with ten calls above it."""
    durations = sorted(1e3 * (s[2] - s[1]) for s in spans)
    n = len(durations)
    if n == 0:
        return 0.0
    if stat == "p50_ms":
        return durations[(n - 1) // 2]
    return durations[n - 11] if n > 10 else durations[-1]


def spans_path(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench" / f"spans-{workload}-seed{seed}-pid{os.getpid()}.jsonl"
