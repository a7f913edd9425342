import runpy
import sys
from pathlib import Path

import pytest

ORBIT_CENSUS = str(Path(__file__).resolve().parent.parent / "scripts" / "orbit_census.py")


def run_script(monkeypatch, capsys, path, *argv):
    monkeypatch.setattr(sys, "argv", [path, *argv])
    try:
        runpy.run_path(path, run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbitCensus:
    def test_truncated_census(self, monkeypatch, capsys):
        code, out, _ = run_script(monkeypatch, capsys, ORBIT_CENSUS, "--max", "3")
        assert code == 0
        assert "orbit size: 3  truncated: True" in out
        assert "BAD" not in out

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_max_must_be_positive(self, monkeypatch, capsys, bad):
        code, out, err = run_script(monkeypatch, capsys, ORBIT_CENSUS, "--max", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: orbit_census.py")
        assert f"argument --max: expected a positive integer, got '{bad}'" in err
