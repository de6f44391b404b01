"""The CLI's bytes on the tests/data sweep match tests/data/outputs.json.

A mismatch means stdout, stderr, an exit code, a ``--json`` report or a
warning changed on some fixture command; ``tests/pin_outputs.py`` lists the
sweep and rewrites the pins when a change is meant.
"""

import json

from pin_outputs import PINS, sweep


def test_sweep_matches_the_pinned_outputs():
    pinned = json.loads(PINS.read_text())
    digests = sweep()
    assert sorted(digests) == sorted(pinned)
    changed = [command for command, digest in digests.items() if pinned[command] != digest]
    assert not changed, "%d commands changed output, e.g. %s" % (len(changed), changed[:3])
