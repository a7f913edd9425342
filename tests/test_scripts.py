import hashlib
import json
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from graphstab import lc
from graphstab.localops import pauli_rotation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ORBIT_CENSUS = str(SCRIPTS / "orbit_census.py")
RESIDUAL_SURVEY = str(SCRIPTS / "residual_survey.py")


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
        code, out, err = run_script(monkeypatch, capsys, ORBIT_CENSUS, "--max", "3")
        assert code == 0
        assert "orbit size: 3  truncated: True" in out
        assert err == ""

    @pytest.mark.parametrize("n, first", [(None, "A3"), (7, "r0")])
    def test_failed_witness_exits_1(self, monkeypatch, capsys, tmp_path, n, first):
        # the wrong sign of the complemented vertex's X rotation breaks every
        # witness past the seed; at 7 vertices only the census's verify=True
        # runs the dense check
        wrong = np.array(lc._TAU_STACK)
        wrong[2] = pauli_rotation("X", -math.pi / 4)
        monkeypatch.setattr(lc, "_TAU_STACK", wrong)
        argv = []
        if n is not None:
            ring = [f"r{i}" for i in range(n)]
            path = tmp_path / "ring.json"
            path.write_text(json.dumps({"vertices": ring,
                                        "edges": [[ring[i], ring[i - 1]] for i in range(n)]}))
            argv = [str(path), "--max", "20"]
        code, out, err = run_script(monkeypatch, capsys, ORBIT_CENSUS, *argv)
        assert code == 1
        assert out == ""
        assert err == f"orbit_census.py: orbit witness for path ('{first}',) failed the dense check\n"

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


class TestResidualSurvey:
    def test_output_pin(self, monkeypatch, capsys):
        # the stabilization rows run apply_pauli and max_residual on each
        # conjugated generator, the arithmetic of stabilizes
        code, out, err = run_script(monkeypatch, capsys, RESIDUAL_SURVEY)
        assert code == 0
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2960d9cedd14c6b6f8e334c601efa8e37a7c7327e623f2140297dec745624262")
