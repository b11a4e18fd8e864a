"""Configuration for the determinism lint: rule scopes and allowlists.

The analyzer distinguishes three scopes:

* **canonical-path modules** — the files whose iteration order reaches
  wire payloads, digests, or artifact rows.  R1 (unordered-iter) and
  the materialisation half of R2 apply only here; a bare-set loop in a
  plotting helper is noise, the same loop in the kernel is a replay
  bug.
* **cost/payment modules** — prefixes where R4 (float-eq) applies;
  float equality elsewhere (e.g. test scaffolding) is out of scope.
* **everything under the lint roots** — R2 ``hash()``/``id()`` calls
  and R3 entropy/wall-clock rules apply globally, softened only by the
  explicit per-(module, rule) allowlist below.

``module_rel`` maps an absolute path to the module-relative form used
in all three scopes ("routing/kernel.py").  Files outside a ``repro``
package root (e.g. test fixture snippets) get ``rel=None`` and are
linted in *strict* mode: every rule applies, nothing is allowlisted —
which is exactly what the golden-rule tests want.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

#: Modules whose iteration order can escape into wire payloads,
#: digests, or artifact rows (ISSUE 6 tentpole list).
CANONICAL_PATH_MODULES: FrozenSet[str] = frozenset(
    {
        "routing/kernel.py",
        "routing/fpss.py",
        "routing/tables.py",
        "faithful/mirror.py",
        "faithful/bank.py",
        "faithful/settlement.py",
        "sim/events.py",
        "experiments/artifacts.py",
    }
)

#: Module prefixes where float-equality comparisons touch costs or
#: payments and are therefore R4 targets.
FLOAT_EQ_PREFIXES: Tuple[str, ...] = ("routing/", "mechanism/", "faithful/")

#: Per-(module, rule) allowlist with reasons — for whole-pattern
#: exemptions that are policy, not per-line accidents.  Wall-clock
#: reads in the experiment runner are sanctioned instrumentation: the
#: wall_time they produce is recorded per cell but evicted from every
#: comparable artifact (results.csv / summary.csv) and ignored by the
#: resume/merge equivalence checks.
MODULE_RULE_ALLOWLIST: Mapping[Tuple[str, str], str] = {
    ("experiments/runner.py", "wall-clock"): (
        "sanctioned wall-time instrumentation; excluded from comparable artifacts"
    ),
    # The telemetry subsystem quarantines its one wall-clock read at
    # the JSONL sink boundary: records carry logical sim-time
    # everywhere, and only JsonlSink stamps wall_time as a record
    # leaves the process for the feed file.  The rest of obs/ (trace
    # spans, in-memory capture, status reduction) stays clock-free and
    # is NOT allowlisted, so a wall-clock read creeping into trace.py
    # or feed.py still flags.
    ("obs/events.py", "wall-clock"): (
        "wall time quarantined to the JSONL feed sink boundary; "
        "canonical artifacts never read it"
    ),
}


def module_rel(path: str) -> Optional[str]:
    """Module-relative form of ``path`` ("routing/kernel.py").

    Splits on the *last* path component named ``repro`` so nested
    checkouts resolve the same way.  Returns None for paths outside a
    repro package root; the engine then lints them in strict mode.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            tail = parts[i + 1 :]
            if tail:
                return "/".join(tail)
            return None
    return None


@dataclass(frozen=True)
class LintConfig:
    """Tunable rule scopes; defaults encode the repo policy."""

    canonical_modules: FrozenSet[str] = CANONICAL_PATH_MODULES
    float_eq_prefixes: Tuple[str, ...] = FLOAT_EQ_PREFIXES
    allowlist: Mapping[str, str] = field(
        default_factory=lambda: {
            f"{mod}::{rule}": reason
            for (mod, rule), reason in MODULE_RULE_ALLOWLIST.items()
        }
    )

    def allow_reason(self, rel: Optional[str], rule: str) -> Optional[str]:
        """The allowlist reason for (module, rule), or None."""
        if rel is None:
            return None
        return self.allowlist.get(f"{rel}::{rule}")


@dataclass(frozen=True)
class ModuleContext:
    """Resolved scope of one file, handed to every rule visitor."""

    path: str
    rel: Optional[str]
    config: LintConfig

    @property
    def strict(self) -> bool:
        """True for files outside a repro root — all rules apply."""
        return self.rel is None

    @property
    def canonical(self) -> bool:
        """True when R1/R2-materialisation apply to this file."""
        return self.strict or self.rel in self.config.canonical_modules

    @property
    def cost_scope(self) -> bool:
        """True when R4 float-equality applies to this file."""
        if self.strict:
            return True
        assert self.rel is not None
        return self.rel.startswith(self.config.float_eq_prefixes)


#: Shared default configuration instance.
DEFAULT_CONFIG = LintConfig()
