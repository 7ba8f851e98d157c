"""The demos rewrite the committed outputs in demos/out byte for byte."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
WRITERS = ("psd_gallery", "coherence_budget", "keyrate_sweeps")


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    # each demo runs from a copy, so it writes into the copy's out/
    files = {}
    for demo in WRITERS:
        script = shutil.copy(DEMOS / f"{demo}.py", tmp_path_factory.mktemp(demo))
        runpy.run_path(script)
        files[demo] = {p.name: p.read_bytes() for p in (Path(script).parent / "out").iterdir()}
    return files


@pytest.mark.parametrize("demo", WRITERS)
def test_demo_rewrites_its_goldens(written, demo):
    for name, data in written[demo].items():
        assert data == (DEMOS / "out" / name).read_bytes(), name


def test_demos_write_the_committed_files(written):
    assert {name for files in written.values() for name in files} == {
        p.name for p in (DEMOS / "out").iterdir()}
