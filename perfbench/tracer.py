"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the program's layers from the
outside (class attributes and module globals are swapped for timing
wrappers, then restored), so the program's own files stay untouched.
Every wrapped call records one span: name, start, end and parent.
Spans live in flat ``array`` columns while the run is in progress and
are written out once, when the run ends.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans.  Section spans (``setup``, ``run``,
``verify``) enclose the layer spans; the self time of a section span is
the time no wrapped layer accounts for ("unattributed").
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Tuple

SECTIONS = ("setup", "run", "verify")
SECTION_LAYER = "section"

#: layer -> [(module, class or None, function names)].  ``None`` for
#: the class wraps module-level functions wherever they are bound.
LAYER_FUNCTIONS: Dict[str, List[Tuple[str, object, Tuple[str, ...]]]] = {
    "kernel": [
        (
            "repro.routing.kernel",
            "ReplayKernel",
            (
                "apply_route_delta",
                "apply_avoid_delta",
                "recompute_routes",
                "recompute_routes_incremental",
                "recompute_avoidance",
                "recompute_avoidance_incremental",
                "derive_pricing",
                "derive_pricing_incremental",
                "consume_route_delta",
                "consume_avoid_delta",
                "settle",
                "routing_digest",
                "pricing_digest",
                "cost_digest",
                "full_digest",
            ),
        ),
        ("repro.routing.kernel", None, ("kernel_fixed_point",)),
    ],
    "mirror": [
        ("repro.faithful.mirror", "PrincipalMirror", "public"),
        ("repro.routing.kernel", "MirrorKernelPool", ("acquire",)),
        ("repro.routing.kernel", "SharedKernel", ("ingest", "flush", "fork_at")),
    ],
    "sim": [
        (
            "repro.sim.simulator",
            "Simulator",
            ("run_until_quiescent", "transmit"),
        ),
    ],
    "fpss": [
        ("repro.routing.fpss", "FPSSNode", "handlers"),
        ("repro.faithful.node", "FaithfulRoutingNode", "handlers"),
    ],
    "crypto": [
        (
            "repro.sim.crypto",
            "SigningAuthority",
            ("sign", "verify", "require_valid"),
        ),
        ("repro.sim.crypto", None, ("stable_hash",)),
    ],
    "bank": [
        (
            "repro.faithful.bank",
            "BankNode",
            (
                "decide_phase1",
                "decide_bank1",
                "decide_bank2",
                "settle",
                "settle_netted",
                "settle_per_flow",
            ),
        ),
    ],
    "settlement": [
        ("repro.faithful.settlement", "NettingLedger", ("record", "close_epoch")),
        (
            "repro.faithful.settlement",
            None,
            ("net_positions", "synthesize_execution_reports"),
        ),
    ],
    "engine": [
        (
            "repro.routing.engine",
            "RoutingEngine",
            (
                "tree",
                "partial_tree",
                "path",
                "cost",
                "detour_costs",
                "source_detour_labels",
            ),
        ),
        (
            "repro.routing.vcg_payments",
            None,
            ("all_pairs_payments", "route_payments", "economics_under_traffic"),
        ),
    ],
    "epochs": [
        ("repro.faithful.epochs", None, ("run_checked_churn",)),
        ("repro.sim.churn", None, ("apply_churn_epoch",)),
    ],
    "oracle": [
        ("repro.routing.convergence", None, ("verify_against_oracle",)),
        ("repro.routing.dynamic", None, ("verify_epoch_equivalence",)),
    ],
}

LAYERS = tuple(LAYER_FUNCTIONS)

#: Benchmark modules whose imported bindings are rebound too.
_LOCAL = frozenset({"__main__", "workloads", "measure"})

#: Node methods counted as FPSS handlers: message handlers, phase entry
#: points and the batch/announce hooks they drive.
_HANDLER_PREFIXES = ("on_", "start_", "announce_", "after_")
_HANDLER_NAMES = frozenset(
    {
        "flush_batch",
        "recompute_and_announce",
        "originate_flow",
        "prepare_checking",
        "forward_copy_to_checkers",
        "react_to_topology_change",
    }
)


def _selected(cls: type, selector) -> List[str]:
    """Names of plain functions defined on ``cls`` that the selector picks."""
    own = {
        name
        for name, value in vars(cls).items()
        if callable(value) and not isinstance(value, (staticmethod, classmethod))
        and not name.startswith("_")
    }
    if selector == "public":
        return sorted(own)
    if selector == "handlers":
        return sorted(
            name
            for name in own
            if name.startswith(_HANDLER_PREFIXES) or name in _HANDLER_NAMES
        )
    missing = [name for name in selector if name not in own]
    if missing:
        raise AttributeError(f"{cls.__name__} has no {missing}")
    return list(selector)


class Tracer:
    """Records spans around wrapped calls; install, run, uninstall."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        clock = time.perf_counter_ns
        stack = self._stack
        start, end, parent, names = self.start, self.end, self.parent, self.name

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def section(self, section: str):
        """A span for one benchmark section (setup, run, verify)."""
        if section not in SECTIONS:
            raise ValueError(f"unknown section {section!r}")
        nid = self._name_id("section." + section, SECTION_LAYER)
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # --- installing -----------------------------------------------------

    def install(self) -> None:
        """Swap every listed function for its traced wrapper."""
        for layer, entries in LAYER_FUNCTIONS.items():
            for module_name, class_name, selector in entries:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for fname in selector:
                        self._install_function(module, fname, layer)
                else:
                    cls = getattr(module, class_name)
                    for fname in _selected(cls, selector):
                        original = vars(cls)[fname]
                        wrapped = self._wrap(
                            original, f"{class_name}.{fname}", layer
                        )
                        self._restore.append((cls, fname, original))
                        setattr(cls, fname, wrapped)

    def _install_function(self, module, fname: str, layer: str) -> None:
        """Rebind a module function in every module that imported it."""
        original = getattr(module, fname)
        wrapped = self._wrap(original, fname, layer)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "")
            if not (holder_name.startswith("repro") or holder_name in _LOCAL):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- reading --------------------------------------------------------

    def split(self) -> Dict[str, object]:
        """Self time per (section, layer), call counts per (section, name).

        Spans under a section span belong to the innermost enclosing
        section, so a check run inside the run section (a hook) counts
        toward ``verify`` and not toward ``run``.
        """
        count = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        section_ids = {
            self._name_ids["section." + s]: s
            for s in SECTIONS
            if "section." + s in self._name_ids
        }
        child = [0] * count
        section_of: List[str] = [""] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
            nid = name[i]
            if nid in section_ids:
                section_of[i] = section_ids[nid]
            else:
                section_of[i] = section_of[p] if p >= 0 else "outside"
        self_ns: Dict[Tuple[str, str], int] = {}
        calls: Dict[Tuple[str, str], int] = {}
        for i in range(count):
            key = (section_of[i], self.layer_of[name[i]])
            self_ns[key] = self_ns.get(key, 0) + (end[i] - start[i]) - child[i]
            ckey = (section_of[i], self.names[name[i]])
            calls[ckey] = calls.get(ckey, 0) + 1
        return {"self_ns": self_ns, "calls": calls, "spans": count}

    def write(self, path: str) -> None:
        """Write every span as gzip JSON lines: a header, then one
        ``[start_ns, end_ns, parent_index, name_index]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(
                json.dumps({"names": self.names, "layers": self.layer_of}) + "\n"
            )
            for row in zip(self.start, self.end, self.parent, self.name):
                out.write("[%d,%d,%d,%d]\n" % row)
