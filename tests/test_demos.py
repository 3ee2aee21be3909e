"""Each script in demos/ runs to completion."""
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("script", sorted(f for f in os.listdir(DEMOS)
                                          if f.endswith(".py")))
def test_demo_runs(script, capsys):
    runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
    assert capsys.readouterr().out
