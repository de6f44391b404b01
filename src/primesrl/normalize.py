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


def _whole_arguments(parts):
    """A predicate's strict units as (label, tokens) pairs: ``parts`` as they
    are when none carries a C- prefix, each part then being a whole argument;
    otherwise the parts grouped as ``merge_continuations`` states."""
    for label, _ in parts:
        if label.is_continuation:
            break
    else:
        return parts

    groups: dict[tuple[str, bool], list] = {}
    merged = set()  # the groups with a C- part
    for part in parts:
        base, continued, is_ref = part.label
        key = base, is_ref
        if continued:
            merged.add(key)
        if (group := groups.get(key)) is None:
            groups[key] = [part]
        else:
            group.append(part)

    units = []
    for key, group in groups.items():
        if key in merged:
            units.append((RoleLabel(key[0], False, key[1]),
                          tuple(sorted({t for p in group for t in p.extent}))))
        else:
            # a lone part, or plain duplicates, each a unit of its own: a
            # RawArgument extent is already non-empty, sorted and duplicate-free
            units.extend(group)
    return units


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
    # each unit is a (label, tokens) pair, MergedArgument's shape, so tuple.__new__ makes it in C
    return [tuple.__new__(MergedArgument, unit) for unit in _whole_arguments(pred.arguments)]
