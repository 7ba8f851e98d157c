"""Import footprint of the package."""

import os
import subprocess
import sys


def test_import_loads_no_scipy():
    # scipy is needed only by the CAL beamsplitter, the cat amplitudes and
    # the oracles, and the thread pool only by the Monte-Carlo oracle; each
    # is imported where it runs
    code = ("import sys, tfqkd; "
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith(('scipy.', 'concurrent.futures'))))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_speed_of_light_is_the_si_value():
    from scipy.constants import c

    from tfqkd.spectra import SPEED_OF_LIGHT

    assert SPEED_OF_LIGHT == c
