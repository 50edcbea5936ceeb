"""The outputs of ``tests/output_digests.py`` stay as recorded in ``output_digests.txt``.

The script pins the library's draws, the Monte Carlo tables and the CLI's
files bit for bit; this test runs it in a fresh interpreter (about 9 s) and
prints every line that differs from the recorded one.
"""

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.slow
def test_output_digests_match_the_recorded_lines():
    recorded = (TESTS / "output_digests.txt").read_bytes().splitlines(keepends=True)
    expected = b"".join(line for line in recorded if not line.startswith(b"#"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(TESTS / "output_digests.py")], env=env,
                         capture_output=True, timeout=600, check=False)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    differ = [f"line {number}:\n  recorded {want}\n  printed  {got}"
              for number, (want, got) in enumerate(zip_longest(
                  expected.decode().splitlines(), run.stdout.decode(errors="replace").splitlines()), 1)
              if want != got]
    assert run.stdout == expected, "\n".join(differ) or "the line endings differ"
