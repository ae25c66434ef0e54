"""Span tracing of neurocode's layers, installed from outside the package.

`Tracer.install` wraps each public function in `TRACED` wherever a
`neurocode.*` module holds it: under its own name, under a name another
module imported it by (``from .graphs import ccg``), and as a value of a
module-level dict (``verify.SUITES``). `Tracer.uninstall` puts every
original back. Spans are kept in flat arrays in memory and written out
once, after the traced pass.
"""

from __future__ import annotations

import functools
import gzip
import re
import sys
import time
from array import array

# Layer (module) -> public functions wrapped in the traced run.
TRACED = {
    "codes": ("Code.from_masks", "union_closure_condition", "parse_code",
              "apply_elementary_map"),
    "ideal": ("canonical_form", "canonical_form_oracle", "predict_cf"),
    "graphs": ("ccg", "is_connected", "is_regular", "diameter", "grg", "gr_complex"),
    "realization": ("code_of_intervals", "code_of_segments", "cf_from_intervals"),
    "verify": ("parity_suite", "union_closure_suite", "cf_theorems_suite",
               "realizations_suite", "grg_families_suite", "complete_iso_suite"),
    "cli": ("main",),
}
SWEEP_SUITES = ("verify.parity_suite", "verify.union_closure_suite")
_SCANNED = re.compile(r"^(\d+) codes scanned")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.max_s: dict[str, float] = {}
        self.counts = {"ideal.canonical_form.elements_out": 0,
                       "graphs.ccg.edges_out": 0,
                       "cli.main.failed": 0,
                       "verify.sweep.codes_scanned": 0}
        self.op = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []

    def _on_result(self, name: str, result) -> None:
        if name == "ideal.canonical_form":
            self.counts["ideal.canonical_form.elements_out"] += len(result.elements)
        elif name == "graphs.ccg":
            self.counts["graphs.ccg.edges_out"] += len(result.edges)
        elif name == "cli.main":
            self.counts["cli.main.failed"] += result != 0
        elif name in SWEEP_SUITES:
            for check in result.checks:
                match = _SCANNED.match(check.detail)
                if match:
                    self.counts["verify.sweep.codes_scanned"] += int(match.group(1))

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.max_s[name] = 0.0
        clock = time.perf_counter
        stack, child = self._stack, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(index)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            stack.append(span)
            child.append(0.0)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.span_end[span] = end
                stack.pop()
                inner = child.pop()
                took = end - start
                if child:
                    child[-1] += took
                self.calls[name] += 1
                self.self_s[name] += took - inner
                if took > self.max_s[name]:
                    self.max_s[name] = took
            self._on_result(name, result)
            return result

        return traced

    def _patch(self, holder, key, new, is_dict: bool) -> None:
        old = holder[key] if is_dict else getattr(holder, key)
        self._patches.append((holder, key, old, is_dict))
        if is_dict:
            holder[key] = new
        else:
            setattr(holder, key, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "neurocode" or name.startswith("neurocode.")]
        for layer, attrs in TRACED.items():
            module = sys.modules[f"neurocode.{layer}"]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    self._patch(cls, method, classmethod(self.wrap(name, raw.__func__)), False)
                    continue
                fn = getattr(module, attr)
                traced = self.wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, traced, False)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._patch(value, k, traced, True)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, old, is_dict = self._patches.pop()
            if is_dict:
                holder[key] = old
            else:
                setattr(holder, key, old)

    def sweep_graphs_built(self) -> int:
        """ccg spans that ran inside an exhaustive or sampled sweep suite."""
        sweep = {self.names.index(s) for s in SWEEP_SUITES}
        ccg = self.names.index("graphs.ccg")
        built = 0
        for span, name in enumerate(self.span_name):
            if name != ccg:
                continue
            parent = self.span_parent[span]
            while parent >= 0 and self.span_name[parent] not in sweep:
                parent = self.span_parent[parent]
            built += parent >= 0
        return built

    def durations(self, name: str) -> list[float]:
        index = self.names.index(name)
        return [self.span_end[s] - self.span_start[s]
                for s, n in enumerate(self.span_name) if n == index]

    def write(self, path, origin: float) -> None:
        """Spans as gzipped TSV: id, op, parent, name, start and end in
        seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\top\tparent\tname\tstart_s\tend_s\n")
            for s in range(len(self.span_name)):
                fh.write(f"{s}\t{self.span_op[s]}\t{self.span_parent[s]}\t"
                         f"{self.names[self.span_name[s]]}\t"
                         f"{self.span_start[s] - origin:.9f}\t{self.span_end[s] - origin:.9f}\n")
