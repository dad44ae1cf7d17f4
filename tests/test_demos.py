"""Each walkthrough in demos/ runs to completion against the library as it is."""
import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                     "demos", "*.py")))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
