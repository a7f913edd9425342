import json
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

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": ["a", "b"], "edges": [["a", "a"]]}, "self-loop on 'a'"),
        ({"vertices": [f"q{i}" for i in range(13)], "edges": []}, "limited to 12 vertices"),
        (None, "No such file or directory"),
    ])
    def test_bad_graph_file_exits_2(self, monkeypatch, capsys, tmp_path, doc, message):
        path = tmp_path / "graph.json"
        if doc is not None:
            path.write_text(json.dumps(doc))
        code, out, err = run_script(monkeypatch, capsys, ORBIT_CENSUS, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("orbit_census.py: ")
        assert message in err
        assert err.count("\n") == 1
