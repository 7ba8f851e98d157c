"""Import footprint of the package."""

import os
import subprocess
import sys

SCIPY_OR_POOL = ("print(sorted(m for m in sys.modules"
                 " if m == 'scipy' or m.startswith(('scipy.', 'concurrent.futures'))))")


def run_python(*args):
    """Run a fresh interpreter on the package source; return its result."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True)


def test_import_loads_no_scipy():
    # the package needs no scipy at all, only its tests do; the thread pool
    # serves only the Monte-Carlo oracle, which imports it where it runs
    out = run_python("-c", "import sys, tfqkd; " + SCIPY_OR_POOL)
    assert out.stdout.strip() == "[]"


def test_sweep_with_cal_rates_loads_no_scipy():
    # the CAL rates read the exact splitter table and exact factorials
    out = run_python("-c", "import sys, tfqkd; "
                     "tfqkd.run_sweep(2, tfqkd.SweepSpec(start=40, stop=41)); "
                     + SCIPY_OR_POOL)
    assert out.stdout.strip() == "[]"


def test_keyrate_command_loads_no_scipy():
    out = run_python("-X", "importtime", "-m", "tfqkd.cli", "keyrate",
                     "--scenario", "2", "--attenuation-db", "40")
    assert out.stdout.startswith("total_attenuation_db,")
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "tfqkd.cal" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


def test_speed_of_light_is_the_si_value():
    from scipy.constants import c

    from tfqkd.spectra import SPEED_OF_LIGHT

    assert SPEED_OF_LIGHT == c
