"""What importing the package costs: ``import gwreath`` and the CLI module
load neither ``dataclasses`` nor ``inspect``, which would bring ``ast``,
``dis`` and ``tokenize`` into every ``gwreath`` command.  The check runs in
a fresh interpreter, since pytest itself imports both."""

import json
import os
import subprocess
import sys

import gwreath

SRC = os.path.dirname(os.path.dirname(gwreath.__file__))
HEAVY = ("dataclasses", "inspect")

PROBE = f"""
import json, sys
sys.path.insert(0, {SRC!r})
loaded = {{}}
import gwreath
loaded["gwreath"] = [name for name in {HEAVY!r} if name in sys.modules]
import gwreath.cli
loaded["gwreath.cli"] = [name for name in {HEAVY!r} if name in sys.modules]
print(json.dumps(loaded))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    done = subprocess.run([sys.executable, "-E", "-S", "-c", PROBE],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"gwreath": [], "gwreath.cli": []}
