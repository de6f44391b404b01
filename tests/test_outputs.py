"""The CLI's bytes on the tests/data sweep match tests/data/outputs.json.

A mismatch means stdout, stderr, an exit code, a ``--json`` report or a
warning changed on some fixture command; ``tests/pin_outputs.py`` lists the
sweep and rewrites the pins when a change is meant.
"""

import json

from pin_outputs import PINS, changes, sweep


def test_sweep_matches_the_pinned_outputs():
    changed = changes(sweep(), json.loads(PINS.read_text()))
    assert not changed, "%d commands changed output:\n%s" % (len(changed), "\n".join(changed))


def test_changes_lists_each_added_removed_or_changed_command():
    assert changes({"a": "1", "b": "2", "c": "3"}, {"b": "2", "c": "x", "d": "4"}) == [
        "added: a", "changed: c", "removed: d"]
