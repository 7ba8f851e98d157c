"""Import footprint and namespace of the package."""

import importlib
import inspect
import os
import pkgutil
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
    stdout, imported = imported_modules("keyrate", "--scenario", "2", "--attenuation-db", "40")
    assert stdout.startswith("total_attenuation_db,")
    assert "tfqkd.cal" in imported
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]


def imported_modules(*command):
    """Names of the modules a fresh `tfqkd` CLI process imports."""
    out = run_python("-X", "importtime", "-m", "tfqkd.cli", *command)
    return out.stdout, [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                        if line.startswith("import time:")]


def test_import_loads_no_yaml_or_jsonschema():
    # PyYAML loads only where a configuration is read or written, and the
    # schema check is the package's own
    out = run_python("-c", "import sys, tfqkd; print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] in ('yaml', 'jsonschema')))")
    assert out.stdout.strip() == "[]"


def test_config_command_loads_no_jsonschema():
    config = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "scenario1.yaml")
    stdout, imported = imported_modules("scenario", config, "--stop", "1")
    assert stdout.startswith("total_attenuation_db,")
    assert "yaml" in imported
    assert not [m for m in imported if m.split(".")[0] == "jsonschema"]


def test_tau_solve_loads_no_numpy_ma():
    # the integration grid dedupes its breakpoints by a sort, not np.unique
    stdout, imported = imported_modules("tau-solve", "--scenario", "3")
    assert stdout.startswith("tau_q_s,")
    assert "tfqkd.coherence" in imported
    assert not [m for m in imported if m == "numpy.ma" or m.startswith("numpy.ma.")]


def test_namespace_matches_module_all():
    # each module's __all__ is what the package exports from it, and each
    # public class and function in the package is in its module's __all__
    import tfqkd

    for info in pkgutil.iter_modules(tfqkd.__path__):
        if info.name == "cli":  # the command-line entry point exports nothing
            continue
        module = importlib.import_module(f"tfqkd.{info.name}")
        for name in module.__all__:
            assert getattr(tfqkd, name, None) is getattr(module, name), f"{info.name}.{name}"
    for name, obj in vars(tfqkd).items():
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj)):
            assert name in sys.modules[obj.__module__].__all__, name


def test_speed_of_light_is_the_si_value():
    from scipy.constants import c

    from tfqkd.spectra import SPEED_OF_LIGHT

    assert SPEED_OF_LIGHT == c
