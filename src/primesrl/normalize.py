"""Turn raw per-token or per-span argument lists into scoring units."""

from __future__ import annotations

import warnings

from .model import MergedArgument, PredicateInstance, RoleLabel


def classify(label: RoleLabel) -> str:
    """Return "core" or "modifier" for a normalized label; prefixes are ignored."""
    if label.is_core:
        return "core"
    if label.is_modifier:
        return "modifier"
    warnings.warn("treating unknown role base %r as a modifier" % label.base)
    return "modifier"


def merge_continuations(pred: PredicateInstance) -> list[MergedArgument]:
    """Collapse C-parts into whole-argument units.

    Parts sharing (base, reference flag) form one unit whenever any of them
    carries a C- prefix, regardless of which part carries it; an orphan C-X
    still yields a unit with base X. Plain duplicates without any C-part stay
    separate units. Token sets are unioned identically for head and span data.
    A predicate without any C- part has one unit per part, in argument order;
    otherwise units come in the order in which their (base, reference flag)
    group first appears among the arguments, a group's plain duplicates in
    argument order.
    """
    for arg in pred.arguments:
        if arg.label.is_continuation:
            break
    else:
        # no label to strip and no group to merge: each part is its own unit
        return list(map(MergedArgument._make, pred.arguments))

    groups: dict[tuple[str, bool], list] = {}
    for arg in pred.arguments:
        key = arg.label.base, arg.label.is_reference
        if (parts := groups.get(key)) is None:
            groups[key] = [arg]
        else:
            parts.append(arg)

    # a RawArgument extent is already non-empty, sorted and duplicate-free
    units = []
    for (base, is_ref), parts in groups.items():
        label = RoleLabel(base, False, is_ref)
        if len(parts) == 1:
            units.append(MergedArgument(label, parts[0].extent))
        elif any(p.label.is_continuation for p in parts):
            tokens = tuple(sorted({t for p in parts for t in p.extent}))
            units.append(MergedArgument(label, tokens))
        else:
            units.extend(MergedArgument(label, p.extent) for p in parts)
    return units
