"""The benchmark harness's own self-tests run against this checkout.

``perfbench/selftest.py`` feeds each output check a corrupted result and
drives the package through the harness's counting field twins (copies of
the field objects whose scalar operations count their calls), so a
package change that breaks the harness's checks or its twins fails here.
Its instrumentation test pins what the harness's spans rely on in a
decision: ``decide`` binds ``build_quotient_algebra`` by name, and each
decision reads ``fdalg.socle`` at least once; the verbose run names it,
so this test also fails if that test stops running.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py", "-v"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    ran = proc.stderr.splitlines()
    assert any(line.startswith("test_install_wraps_importers_and_restores ") and line.endswith(" ok") for line in ran)
    assert ran[-1] == "OK"
