"""The reprolint rule registry (plugin-style).

A rule is a class with a ``rule_id``, a one-line ``title``, and a
``check(project)`` generator yielding
:class:`repro.analysis.findings.Finding`.  Decorating it with
:func:`register` makes the driver pick it up; the rule modules at the
bottom of this file self-register on import, so adding a rule is one new
module plus one import line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.analysis.findings import Finding


class Rule:
    """Base class: one invariant, one visitor pass over the project."""

    rule_id: str = ""
    title: str = ""

    def check(self, project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__}: rule_id must be set")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise KeyError(
            f"unknown rule {rule_id!r} "
            f"(available: {', '.join(sorted(_REGISTRY))})"
        ) from None


# Self-registering rule modules (imported for their side effect).
from repro.analysis.rules import (  # noqa: E402,F401
    rl001_determinism,
    rl002_accounting,
    rl003_metric_names,
    rl005_fault_sites,
    rl006_hot_loops,
    rl007_wallclock,
    rl008_shared_state,
    rl009_buffer_escape,
    rl010_pickle_safety,
    rl011_interproc_drops,
    rl012_shm_lifecycle,
)
