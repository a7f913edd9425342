import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphstab import cli, lc, reference
from graphstab.cli import (graph_from_dict, graph_to_dict, local_unitary_to_dict, main,
                           report_to_dict, state_from_dict, state_to_dict)
from graphstab.localops import LocalUnitary, pauli_rotation
from graphstab.states import StateVector
from graphstab.verify import verify_all

from strategies import graphs, local_cliffords, random_states

AMP = 1.0 / (2.0 * math.sqrt(2.0))

ANCHORS = ["Eq. (8)", "Eq. (9)", "Eq. (10)", "Eqs. (11)-(14)", "Eqs. (15)-(18)",
           "Eq. (19)", "Eq. (20)", "Eqs. (21)-(24)", "Eq. (25)", "entanglement (2,2,1)"]


@pytest.fixture()
def graph_file(tmp_path, graph_a):
    path = tmp_path / "ga.json"
    path.write_text(json.dumps(graph_to_dict(graph_a)))
    return str(path)


@pytest.fixture()
def chi_file(tmp_path, chi):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(state_to_dict(chi)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyAll:
    def test_battery_passes(self):
        report = verify_all()
        assert report.passed
        assert [c.anchor for c in report.checks] == ANCHORS
        assert len({c.name for c in report.checks}) == len(report.checks)

    def test_json_is_deterministic(self):
        assert report_to_dict(verify_all()) == report_to_dict(verify_all())

    def test_sign_flip_injection_fails_conjugation_check(self, monkeypatch, capsys):
        monkeypatch.setattr(reference, "CONJUGATED_SIGNS", (1, 1, -1, 1))
        report = verify_all()
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["conjugated-generators"]
        code, out, _ = run(capsys, "verify-all")
        assert code == 1
        assert "FAIL" in out


class TestVerifyAllCommand:
    def test_default_table_output(self, capsys):
        code, out, _ = run(capsys, "verify-all")
        assert code == 0
        assert "10/10 checks passed" in out
        for anchor in ANCHORS:
            assert anchor in out

    def test_json_output_schema(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [c["anchor"] for c in doc["checks"]] == ANCHORS
        for check in doc["checks"]:
            assert set(check) == {"name", "anchor", "passed", "details"}

    def test_json_output_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify-all", "--json")
        _, second, _ = run(capsys, "verify-all", "--json")
        assert first == second


class TestOutputPins:
    """SHA-256 of outputs that stay byte-identical while the code beneath them changes."""

    def test_verify_all_json(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6237ace7e8593145bc47a770ddc4b40f1c16d511a225cc014f768628e31b9df3")

    def test_verify_all_table(self, capsys):
        code, out, _ = run(capsys, "verify-all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "34c347936fe561ec3e3639fee591020a3681e60f0531fdec4162b3bae3d22ccc")

    def test_orbit_of_paper_cycle(self, capsys, graph_file):
        code, out, _ = run(capsys, "orbit", graph_file)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ed11c0c25f821f6f94122f58141d14ec8edc0802d73584ef1c9ea01791bfd99c")

    def test_orbit_of_paper_cycle_as_dot(self, capsys, graph_file):
        code, out, _ = run(capsys, "orbit", graph_file, "--format", "dot")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1a64dd53de0265d70f3cadc222fac5c51867ccbd55cf8b049b03806325e06985")

    def test_ghz_check(self, capsys):
        # prints the four dense expectations of Eqs. (21)-(24), from apply_pauli
        code, out, _ = run(capsys, "ghz-check")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7708377eb78d69a2edc844910d79b9b94ba2131ae7e4456d59461cae56bf3f85")

    def test_graph_state_of_paper_cycle(self, capsys, graph_file):
        code, out, _ = run(capsys, "state", "build", "graph", graph_file)
        assert code == 0
        assert "-0.0" not in out  # every imaginary part is +0.0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d389c471517f3a17be4733d08912601f0bd959b553ce4a7b0d8c12f2e456dd07")

    def test_chi00_state(self, capsys):
        code, out, _ = run(capsys, "state", "build", "chi00")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b8560ab5d2c700626135b3c26b759d7fa7cec5569fefac9d5893c32455709c10")

    def test_lc_search_from_graph_b_to_chi(self, capsys, tmp_path, state_b, chi_file):
        state = tmp_path / "gb.json"
        state.write_text(json.dumps(state_to_dict(state_b)))
        code, out, _ = run(capsys, "lc-search", str(state), chi_file)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "bb781d7c36f0260b81b5cbe4f014020df5547e87c466ba9f7a6e5f867a6411cd")

    def test_entropy_of_chi_on_diagonal_cut(self, capsys, chi_file):
        code, out, _ = run(capsys, "entropy", chi_file, "--cut", "A3,B2")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f77732bf3b3f284ad2159829e15041675fd0607a63cf9afc7616ca2b9368908b")

    def test_entropy_of_ring12_on_half_ring(self, capsys, tmp_path):
        # the largest reduced state the dense limit allows: 64 x 64
        ring = [f"r{i}" for i in range(12)]
        graph = tmp_path / "ring12.json"
        graph.write_text(json.dumps({"vertices": ring,
                                     "edges": [[ring[i], ring[i - 1]] for i in range(12)]}))
        code, out, _ = run(capsys, "state", "build", "graph", str(graph))
        assert code == 0
        state = tmp_path / "ring12_state.json"
        state.write_text(out)
        code, out, _ = run(capsys, "entropy", str(state), "--cut", ",".join(ring[:6]))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ba365c52e21f793a0ea2f59f6e45a13b0fc1bba85e6d3a4704097ee9d5cdd6b2")


class TestStateBuild:
    def test_chi00(self, capsys):
        code, out, _ = run(capsys, "state", "build", "chi00")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["order"] == ["A3", "A4", "B1", "B2"]
        values = [complex(re, im) for re, im in doc["amps"]]
        nonzero = {i: v for i, v in enumerate(values) if v != 0}
        assert set(nonzero) == {0, 3, 5, 6, 9, 10, 12, 15}
        assert all(abs(abs(v) - AMP) < 1e-12 for v in nonzero.values())

    def test_graph(self, capsys, graph_file):
        code, out, _ = run(capsys, "state", "build", "graph", graph_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["amps"]) == 16

    def test_graph_requires_file(self, capsys):
        code, _, err = run(capsys, "state", "build", "graph")
        assert code == 2
        assert "required: graph_file" in err

    def test_chi00_rejects_extra_file(self, capsys, graph_file):
        code, _, err = run(capsys, "state", "build", "chi00", graph_file)
        assert code == 2


class TestOrbitCommand:
    def test_reference_orbit_json(self, capsys, graph_file):
        code, out, _ = run(capsys, "orbit", graph_file)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["members"]) == 11
        assert doc["truncated"] is False
        assert doc["members"][0]["path"] == []
        assert "global_phase" in doc["members"][1]["witness"]

    def test_max_truncates(self, capsys, graph_file):
        code, out, _ = run(capsys, "orbit", graph_file, "--max", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["truncated"] is True
        assert len(doc["members"]) == 3

    @pytest.mark.parametrize("bad", ["0", "-1", "two"])
    def test_max_must_be_positive(self, capsys, graph_file, bad):
        code, out, err = run(capsys, "orbit", graph_file, "--max", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: graphstab orbit")
        assert f"argument --max: expected a positive integer, got '{bad}'" in err

    def test_edgeless_single_member(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
        code, out, _ = run(capsys, "orbit", str(path))
        assert code == 0
        assert len(json.loads(out)["members"]) == 1

    def test_dot_format(self, capsys, graph_file):
        code, out, _ = run(capsys, "orbit", graph_file, "--format", "dot")
        assert code == 0
        assert out.count("graph member") == 11
        assert "A3 -- A4;" in out

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_failed_witness_exits_1(self, capsys, monkeypatch, graph_file, fmt):
        # the wrong sign of the complemented vertex's X rotation breaks every
        # witness past the seed
        wrong = np.array(lc._TAU_STACK)
        wrong[2] = pauli_rotation("X", -math.pi / 4)
        monkeypatch.setattr(lc, "_TAU_STACK", wrong)
        code, out, err = run(capsys, "orbit", graph_file, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err == "graphstab: orbit witness for path ('A3',) failed the dense check\n"


class TestEntropyCommand:
    def test_diagonal_cut(self, capsys, chi_file):
        code, out, _ = run(capsys, "entropy", chi_file, "--cut", "A3,B2")
        assert code == 0
        doc = json.loads(out)
        assert doc["cut"] == ["A3", "B2"]
        assert doc["complement"] == ["A4", "B1"]
        assert doc["entropy_bits"] == pytest.approx(1.0, abs=1e-6)
        assert doc["eigenvalues"][:2] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["product_across_cut"] is False

    def test_bad_cut_label(self, capsys, chi_file):
        code, _, err = run(capsys, "entropy", chi_file, "--cut", "A3,Q9")
        assert code == 2
        assert "Q9" in err

    def test_full_cut_rejected(self, capsys, chi_file):
        code, _, err = run(capsys, "entropy", chi_file, "--cut", "A3,A4,B1,B2")
        assert code == 2

    # |norm - 1| = 0.8e-9 is within the tolerance StateVector accepts
    @pytest.mark.parametrize("amps, bits, product", [
        (np.array([1, 0, 0, 1]) / math.sqrt(2), 1.0, False),
        (np.array([1, 0, 0, 0]), 0.0, True),
    ], ids=["bell", "basis"])
    def test_state_at_the_norm_tolerance(self, capsys, tmp_path, amps, bits, product):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(state_to_dict(StateVector(("a", "b"), amps * (1 + 0.8e-9)))))
        code, out, err = run(capsys, "entropy", str(path), "--cut", "a")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["entropy_bits"] == pytest.approx(bits, abs=1e-8)
        assert doc["product_across_cut"] is product


class TestGhzCheckCommand:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, "ghz-check")
        assert code == 0
        doc = json.loads(out)
        assert doc["quantum_all_satisfied"] is True
        assert doc["lhv_satisfiable"] is False
        assert doc["contradiction"] == {"found": True, "subset": [0, 1, 2, 3]}
        assert len(doc["settings"]) == 4
        for entry in doc["settings"]:
            assert entry["satisfied"] is True
            assert entry["expectation"] == pytest.approx(1.0, abs=1e-9)

    def test_satisfiable_settings_exit_1(self, capsys, monkeypatch):
        # any three of the four settings admit a local-hidden-variable model
        first_three = reference.ghz_origins()[:3], reference.ghz_constraints()[:3]
        monkeypatch.setattr(reference, "ghz_origins", lambda: first_three[0])
        monkeypatch.setattr(reference, "ghz_constraints", lambda: first_three[1])
        code, out, _ = run(capsys, "ghz-check")
        assert code == 1
        doc = json.loads(out)
        assert doc["quantum_all_satisfied"] is True
        assert doc["lhv_satisfiable"] is True
        assert doc["contradiction"] == {"found": False, "subset": []}


class TestLcSearchCommand:
    def test_finds_witness(self, capsys, tmp_path, state_b, chi):
        src = tmp_path / "gb.json"
        src.write_text(json.dumps(state_to_dict(state_b)))
        dst = tmp_path / "chi.json"
        dst.write_text(json.dumps(state_to_dict(chi)))
        code, out, _ = run(capsys, "lc-search", str(src), str(dst))
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert len(doc["witness"]["factors"]) == 4

    def test_not_found_exits_one(self, capsys, tmp_path):
        zero = StateVector(("a", "b"), [1, 0, 0, 0])
        bell = StateVector(("a", "b"), np.array([1, 0, 0, 1]) / math.sqrt(2))
        src = tmp_path / "zero.json"
        src.write_text(json.dumps(state_to_dict(zero)))
        dst = tmp_path / "bell.json"
        dst.write_text(json.dumps(state_to_dict(bell)))
        code, out, _ = run(capsys, "lc-search", str(src), str(dst))
        assert code == 1
        assert json.loads(out) == {"found": False}

    def test_label_mismatch_exits_two(self, capsys, tmp_path):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        src = tmp_path / "ab.json"
        src.write_text(json.dumps(state_to_dict(StateVector(("a", "b"), bell))))
        dst = tmp_path / "xy.json"
        dst.write_text(json.dumps(state_to_dict(StateVector(("x", "y"), bell))))
        code, out, err = run(capsys, "lc-search", str(src), str(dst))
        assert code == 2
        assert out == ""
        assert err.startswith("graphstab: ") and "('a', 'b')" in err and "('x', 'y')" in err


class TestErrorPaths:
    def test_invalid_json_names_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": ["a"],\n  "edges": oops}')
        code, _, err = run(capsys, "orbit", str(path))
        assert code == 2
        assert f"{path}:2:" in err

    def test_schema_error_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "a"]]}))
        code, _, err = run(capsys, "orbit", str(path))
        assert code == 2
        assert "self-loop" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "entropy", "no-such-file.json", "--cut", "a")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unnormalized_state_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps({"n": 1, "order": ["a"], "amps": [[1, 0], [1, 0]]}))
        code, _, err = run(capsys, "entropy", str(path), "--cut", "a")
        assert code == 2
        assert "normalized" in err

    def test_nan_state_rejected_by_lc_search(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n": 1, "order": ["a"],
                                    "amps": [[float("nan"), 0.0], [0.0, 0.0]]}))
        code, out, err = run(capsys, "lc-search", str(path), str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("graphstab: ") and "normalized" in err


class TestDocuments:
    """Documents written and read back through JSON text are exactly what was written."""

    @given(s=random_states())
    def test_state_round_trip_is_exact(self, s):
        back = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
        assert back.names == s.names
        assert back.amps.tobytes() == s.amps.tobytes()

    @given(g=graphs())
    def test_graph_round_trip_is_exact(self, g):
        assert graph_from_dict(json.loads(json.dumps(graph_to_dict(g)))) == g

    @given(u=st.integers(1, 6).flatmap(local_cliffords), angle=st.floats(-math.pi, math.pi))
    def test_witness_reads_back_as_the_same_complex_pairs(self, u, angle):
        u = LocalUnitary(complex(np.exp(1j * angle)), u.factors)
        doc = json.loads(json.dumps(local_unitary_to_dict(u)))
        factors = np.array([[[complex(*z) for z in row] for row in f] for f in doc["factors"]])
        assert factors.tobytes() == u.factors.tobytes()
        assert complex(*doc["global_phase"]) == u.global_phase


class TestEntry:
    @pytest.mark.parametrize("argv, code", [
        (["verify-all"], 0),
        (["entropy", "no-such-file.json", "--cut", "a"], 2),
    ])
    def test_exits_with_the_code_of_main(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["graphstab", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the read end is closed before the child starts, so its first write
        # to stdout fails with EPIPE on every run
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, "-m", "graphstab.cli", "verify-all", "--json"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr.decode() == ""


class TestHelp:
    def test_epilog_states_the_exit_codes(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        contract = "exit codes: 0 success, 1 check failed or no witness found, 2 bad input or usage"
        assert contract in " ".join(out.split())
        assert contract in " ".join(cli.__doc__.lower().split())


# --- every file-taking command maps every input to exit 0, 1 or 2 ---

FILE_COMMANDS = {
    "state-build-graph": lambda src, dst: ["state", "build", "graph", src],
    "orbit": lambda src, dst: ["orbit", src],
    "entropy": lambda src, dst: ["entropy", src, "--cut", "a"],
    "lc-search": lambda src, dst: ["lc-search", src, dst],
}

LABELS = st.sampled_from(["a", "b", "c", "d"])
NUMBERS = st.integers() | st.floats() | st.booleans() | st.sampled_from([10**400, -10**400])
JSON_VALUES = st.recursive(
    st.none() | NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


@st.composite
def graph_docs(draw):
    """Graph documents with at most four vertices, well-formed or not."""
    vertices = draw(st.lists(LABELS, max_size=4) | JSON_VALUES)
    edges = draw(st.lists(st.lists(LABELS, max_size=3) | JSON_VALUES, max_size=6) | JSON_VALUES)
    return {"vertices": vertices, "edges": edges}


@st.composite
def state_docs(draw):
    """State documents on at most four qubits: valid, well-shaped or arbitrary."""
    shape = draw(st.sampled_from(["valid", "pairs", "arbitrary"]))
    order = draw(st.lists(LABELS, min_size=shape != "arbitrary", max_size=4))
    size = 2 ** len(order)
    if shape == "valid":
        values = np.array(draw(st.lists(st.floats(-1, 1), min_size=2 * size, max_size=2 * size)))
        norm = np.linalg.norm(values)
        amps = (values / norm if norm > 0 else np.eye(2 * size)[0]).reshape(-1, 2).tolist()
    elif shape == "pairs":
        amps = draw(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), min_size=size, max_size=size))
    else:
        return {"n": draw(NUMBERS), "order": order,
                "amps": draw(st.lists(st.lists(NUMBERS, max_size=3) | JSON_VALUES, max_size=17)
                             | JSON_VALUES)}
    return {"n": len(order), "order": order, "amps": amps}


def documents(expected):
    """File contents: mostly the document kind the command expects, else any JSON or bytes."""
    as_json = st.one_of(expected, graph_docs() | state_docs() | JSON_VALUES)
    return as_json.map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=40)


def assert_exit_contract(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("graphstab: ")
    return code, err


@pytest.mark.filterwarnings("error")  # a warning would print to stderr ahead of the message
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_files_map_to_exit_codes(capsys, tmp_path, command, data):
    expected = graph_docs() if command in ("orbit", "state-build-graph") else state_docs()
    paths = (tmp_path / "src.json", tmp_path / "dst.json")
    for path in paths:
        path.write_bytes(data.draw(documents(expected)))
    assert_exit_contract(capsys, FILE_COMMANDS[command](*map(str, paths)))


HOSTILE_FILES = {
    "huge-amplitude": json.dumps({"n": 1, "order": ["a"], "amps": [[10**400, 0], [0, 0]]}).encode(),
    "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    "non-utf8": b'{"n": 1, "order": ["\xe9"], "amps": [[1, 0], [0, 0]]}',
    "nan-literal": b'{"n": 1, "order": ["a"], "amps": [[NaN, 0], [0, 0]]}',
    "infinity-literal": b'{"n": 1, "order": ["a"], "amps": [[Infinity, 0], [0, 0]]}',
    "norm-overflow": b'{"n": 1, "order": ["a"], "amps": [[1e308, 1e308], [1e308, 0]]}',
    "booleans": b'{"n": true, "order": ["a"], "amps": [[true, false], [false, false]]}',
    "graph-literals": b'{"vertices": ["a", NaN, true], "edges": [[Infinity, "a"]]}',
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@pytest.mark.parametrize("kind", sorted(HOSTILE_FILES) + ["directory"])
def test_hostile_file_exits_two(capsys, tmp_path, command, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / f"{kind}.json"
        path.write_bytes(HOSTILE_FILES[kind])
    code, err = assert_exit_contract(capsys, FILE_COMMANDS[command](str(path), str(path)))
    assert code == 2
    assert str(path) in err
