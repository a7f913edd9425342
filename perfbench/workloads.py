"""The four workloads: what one operation is, its known answer, and the layer
calls the benchmark replays for the traced run.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  In-process workloads call the public API
directly; ``cli-cold`` starts one ``python -m graphstab.cli`` child at a time.

An operation may stand for several units of work (``units``): for
``orbit-census`` the unit is one orbit member, so its latency is seconds per
member and its throughput is members per second.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import oracle
from inputs import Generator, Item, names

CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    timed_out: bool
    maxrss_kb: int  # this child's own peak resident memory


def run_child(argv, env, cwd, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run a child to completion and time it from start to exit.

    ``subprocess.run(timeout=...)`` polls for the exit with growing sleeps,
    which rounds every measured time up to a 50 ms grid; here the reads and
    the wait block, and a timer thread kills a child that outlives `timeout`.
    The child is reaped with ``os.wait4``, which gives its own resource usage,
    not the maximum over every child this process has waited for.
    """
    lock = threading.Lock()
    reaped = False

    def kill() -> None:
        with lock:  # never signal a pid that has been reaped and may be reused
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    timer = threading.Timer(timeout, kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
        with lock:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        seconds = perf_counter() - t0
    finally:
        timer.cancel()
        timer.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen never waits for it again
    return Child(proc.returncode, out, err[0], seconds, proc.returncode < 0 and seconds >= timeout,
                 usage.ru_maxrss)


@dataclass
class Outcome:
    result: object = None
    error: str | None = None
    units: float = 1.0
    seconds: float = 0.0
    known_defect: bool = False  # the wrong answer KNOWN_DEFECTS documents for this input


class Workload:
    name = ""
    mix: list = []
    tiny_mix: list = []
    # The tail percentile, fixed per workload so that it falls inside one kind
    # of operation rather than between two; a run lasts until at least ten
    # samples lie beyond it.
    tail_pct = 50

    def __init__(self, gen: Generator, tiny: bool, ctx) -> None:
        import graphstab  # from the checkout's src, which the caller put on sys.path
        self.gs = graphstab
        self.gen = gen
        self.tiny = tiny
        self.ctx = ctx

    def cycle(self) -> list[Item]:
        raise NotImplementedError

    def probe_items(self) -> list[Item]:
        raise NotImplementedError

    def warm(self) -> None:
        """In-process warm-up before the timed phase (lazy tables, first calls)."""

    def warm_replay(self) -> None:
        """Warm-up of what :meth:`replay` calls beyond the operations themselves."""

    def run(self, item: Item, tr) -> Outcome:
        raise NotImplementedError

    def check(self, item: Item, out: Outcome) -> bool:
        raise NotImplementedError

    def replay(self, item: Item, out: Outcome, stats) -> float:
        """Re-run the layer calls one operation made; return the seconds they cover."""
        raise NotImplementedError

    def headline(self, done) -> dict:
        return {}


def _p50(values):
    return float(np.median(values)) if values else None


# --- orbit-census ---------------------------------------------------------

class OrbitCensus(Workload):
    name = "orbit-census"
    tail_pct = 80
    # No random n=8 seeds: their orbits range from about 140 to 3,000 members,
    # so one draw would swing a run's members per second with the seed.  The
    # n=6 orbits (dense check on) are over three quarters of the operations,
    # so the median falls well inside them rather than next to the cheaper
    # per-member cost of n=7 and n=8.
    mix = [("ring", 6, 1), ("random", 6, 16), ("ring", 7, 1), ("random", 7, 3), ("ring", 8, 1)]
    tiny_mix = [("ring", 5, 1), ("random", 5, 2), ("ring", 6, 1)]

    def cycle(self):
        return self.gen.orbit_cycle(self.tiny_mix if self.tiny else self.mix)

    def probe_items(self):
        return self.gen.orbit_cycle([("ring", 6, 1)])

    def warm(self):
        self.gs.enumerate_orbit(self.gs.Graph(names(4), oracle.rows_from_edges(4, oracle.PAPER_CYCLE)))

    def run(self, item, tr):
        g = self.gs.Graph(names(item.n), item.rows)
        with tr.span("op"):
            t0 = perf_counter()
            report = tr.call("lc.enumerate_orbit", self.gs.enumerate_orbit, g)
            seconds = perf_counter() - t0
        return Outcome(report, units=len(report.members), seconds=seconds)

    def check(self, item, out):
        report = out.result
        rows = [m.graph.rows for m in report.members]
        if report.truncated or rows[0] != item.rows or len(set(rows)) != len(rows):
            return False
        if not oracle.orbit_is_closed(rows) or len(rows) != len(oracle.orbit_keys(item.rows)):
            return False
        source = oracle.graph_state(item.n, item.rows)
        for m in (report.members[1], report.members[len(rows) // 2], report.members[-1]):
            got = oracle.apply_factors(source, m.witness.factors, m.witness.global_phase)
            want = oracle.graph_state(item.n, m.graph.rows)
            if abs(abs(np.vdot(want, got)) - 1.0) > 1e-8:
                return False
        return True

    def replay(self, item, out, stats):
        gs = self.gs
        report = out.result
        members = report.members
        by_path = {m.path: m for m in members}
        moves = 0
        for parent in members:
            for a in report.seed.names:
                child = stats.timed("graphs.local_complement", gs.local_complement, parent.graph, a)
                stats.timed("graphs.canonical_key", gs.canonical_key, child)
                moves += 1
        for m in members[1:]:
            parent = by_path[m.path[:-1]]
            tau = stats.timed("lc.tau_unitary", gs.tau_unitary, parent.graph, m.path[-1])
            stats.timed("localops.compose", tau.compose, parent.witness)
            stats.timed("graphs.construct", gs.Graph, m.graph.names, m.graph.rows)
            stats.timed("localops.construct", gs.LocalUnitary, m.witness.global_phase, m.witness.factors)
        stats.count("graphs.lc_moves", moves)
        stats.count("graphs.new_members", len(members) - 1)
        covered = self._sum_last(stats, {"graphs.local_complement": moves, "graphs.canonical_key": moves,
                                         "lc.tau_unitary": len(members) - 1,
                                         "localops.compose": len(members) - 1})
        if item.n <= 6:  # enumerate_orbit's default dense check runs only here
            t0 = perf_counter()
            seed_state = stats.timed("states.build_graph_state_n%d" % item.n, gs.build_graph_state, report.seed)
            for m in members:
                got = stats.timed("states.apply_local", gs.apply_local, m.witness, seed_state)
                want = stats.timed("states.build_graph_state_n%d" % item.n, gs.build_graph_state, m.graph)
                stats.timed("states.equal_up_to_global_phase", gs.equal_up_to_global_phase, got, want)
            dense = perf_counter() - t0
            stats.add("lc.orbit_dense_check", dense)
            covered += dense
        stats.timed("lc.orbit_enum", gs.enumerate_orbit, report.seed, verify=False)
        return covered

    @staticmethod
    def _sum_last(stats, counts):
        return sum(sum(stats.durations[k][-n:]) for k, n in counts.items() if n)

    def headline(self, done):
        members = sum(o.units for _, o in done)
        busy = sum(o.seconds for _, o in done)
        ring8 = [o.seconds for it, o in done if it.kind == "ring" and it.n == 8]
        return {"orbit_members_per_s": members / busy if busy else None,
                "ring8_orbit_s": _p50(ring8)}


# --- lc-decide ------------------------------------------------------------

class LcDecide(Workload):
    name = "lc-decide"
    tail_pct = 95
    mix = [("hit", 4, 8), ("graph-miss", 4, 4), ("nonstab-miss", 4, 4),
           ("hit", 5, 1), ("graph-miss", 5, 1), ("nonstab-miss", 5, 1)]
    tiny_mix = [("hit", 4, 2), ("graph-miss", 4, 1), ("nonstab-miss", 4, 1)]

    def cycle(self):
        return self.gen.lc_cycle(self.tiny_mix if self.tiny else self.mix)

    def probe_items(self):
        return self.gen.lc_cycle([(k, n, 1) for n in (4, 5) for k in ("hit", "graph-miss", "nonstab-miss")])

    def warm(self):
        s = self.gs.build_graph_state(self.gs.Graph(names(3), oracle.rows_from_edges(3, [(0, 1), (1, 2)])))
        self.gs.lc_search(s, s)

    def run(self, item, tr):
        src = self.gs.StateVector(names(item.n), item.data["source"])
        tgt = self.gs.StateVector(names(item.n), item.data["target"])
        with tr.span("op"):
            t0 = perf_counter()
            w = tr.call("lc.lc_search", self.gs.lc_search, src, tgt)
            seconds = perf_counter() - t0
        return Outcome(w, seconds=seconds)

    def check(self, item, out):
        w = out.result
        if item.kind != "hit":
            return not w.found
        return w.found and oracle.maps_exactly(w.unitary.factors, w.unitary.global_phase,
                                               item.data["source"], item.data["target"])

    def candidates(self, item, out) -> int:
        """Assignments scanned: the witness's lexicographic index + 1, or all 24^n."""
        w = out.result
        if not w.found:
            return 24**item.n
        cliffs = self.gs.single_qubit_cliffords()
        index = 0
        for f in w.unitary.factors:
            index = index * 24 + next(k for k, c in enumerate(cliffs) if np.array_equal(c, f))
        return index + 1

    def replay(self, item, out, stats):
        stats.add(f"lc.search_{item.kind.replace('-', '_')}_n{item.n}", out.seconds)
        stats.count("lc.candidates_per_decision", self.candidates(item, out))
        w = out.result
        covered = 0.0
        if w.found:
            t0 = perf_counter()
            stats.timed("localops.clifford_table", self.gs.single_qubit_cliffords)
            stats.timed("localops.construct", self.gs.LocalUnitary, w.unitary.global_phase, w.unitary.factors)
            covered = perf_counter() - t0
        return covered

    def headline(self, done):
        hits = [o.seconds for it, o in done if it.kind == "hit"]
        misses = [o.seconds for it, o in done if it.kind != "hit"]
        out = {"lc_hit_p50_s": _p50(hits), "lc_miss_p50_s": _p50(misses)}
        for n in (4, 5):
            out[f"lc_miss_n{n}_p50_s"] = _p50([o.seconds for it, o in done if it.kind != "hit" and it.n == n])
        return out


# --- ghz-census -----------------------------------------------------------

class GhzCensus(Workload):
    """The paper's Eqs. (11)-(25) pipeline on a locally rotated graph state."""

    name = "ghz-census"
    tail_pct = 95
    mix = [("lhv-sat", 5, 2), ("lhv-unsat", 5, 2), ("lhv-sat", 6, 1), ("lhv-unsat", 6, 1),
           ("lhv-sat", 7, 1), ("lhv-unsat", 7, 1), ("lhv-unsat", 8, 1)]
    tiny_mix = [("lhv-sat", 4, 1), ("lhv-unsat", 4, 1), ("lhv-unsat", 5, 1)]

    def cycle(self):
        return self.gen.ghz_cycle(self.tiny_mix if self.tiny else self.mix)

    def probe_items(self):
        return self.gen.ghz_cycle([("lhv-sat", 6, 1), ("lhv-unsat", 8, 1)])

    def warm(self):
        self.run(self.gen.ghz_item("lhv-unsat", 4), self.ctx.null_tracer)

    def _inputs(self, item):
        gs = self.gs
        cl = oracle.cliffords()
        g = gs.Graph(names(item.n), item.rows)
        u = gs.LocalUnitary(1.0, tuple(cl[i] for i in item.data["clifford_ids"]))
        return g, u

    def run(self, item, tr):
        gs = self.gs
        g, u = self._inputs(item)
        labels = g.names
        with tr.span("op"):
            t0 = perf_counter()
            conj = tr.call("stabilizers.conjugate_set", gs.conjugate_set, u,
                           tr.call("stabilizers.graph_generators", gs.graph_generators, g))
            with tr.span("pauli.enumerate"):
                elements = [gs.PauliString.identity(g.n)]
                for k in conj.generators:
                    elements += [gs.multiply(e, k) for e in elements]
            origins = [p for p in elements[1:] if not p.x & p.z]
            constraints = [tr.call("nonlocality.constraint_from_pauli", gs.constraint_from_pauli, p, labels)
                           for p in origins]
            state = tr.call("states.apply_local", gs.apply_local, u,
                            tr.call(f"states.build_graph_state_n{g.n}", gs.build_graph_state, g))
            quantum = tr.call("nonlocality.quantum_check", gs.quantum_check, state, constraints, origins)
            sat = tr.call("nonlocality.lhv_exhaustive", gs.lhv_solve_exhaustive, constraints)
            cert = tr.call("nonlocality.lhv_certificate", gs.lhv_contradiction_certificate, constraints)
            entropies = {}
            for side in _cuts(labels):
                cut = tr.call("entanglement.bipartition", gs.Bipartition.of, state, side)
                rho = tr.call("entanglement.reduce", gs.reduce, state, cut)
                entropies[side] = tr.call("entanglement.entropy", gs.entropy, rho)
            seconds = perf_counter() - t0
        return Outcome(seconds=seconds, result={"conj": conj, "elements": elements, "origins": origins,
                        "constraints": constraints, "state": state, "quantum": quantum,
                        "sat": sat, "cert": cert, "entropies": entropies, "unitary": u})

    def check(self, item, out):
        r = out.result
        n = item.n
        labels = names(n)
        if len({(p.x, p.z) for p in r["elements"]}) != 2**n:
            return False
        got = {p.letters: p.sign for p in r["origins"]}
        want = {w: s for w, s in item.data["census"].items() if "Y" not in w and set(w) != {"I"}}
        if got != want:
            return False
        if not r["quantum"].all_satisfied or any(abs(e.expectation - 1.0) > 1e-9
                                                 for e in r["quantum"].entries):
            return False
        rows = [(frozenset(c.terms), c.sign) for c in r["constraints"]]
        (sat, assignment), (contradiction, subset) = r["sat"], r["cert"]
        if sat != (item.kind == "lhv-sat") or contradiction == sat:
            return False
        if sat and not oracle.assignment_satisfies(rows, assignment):
            return False
        if not sat and not oracle.certificate_valid(rows, subset):
            return False
        for side, value in r["entropies"].items():
            if abs(value - oracle.cut_rank(item.rows, [labels.index(s) for s in side])) > 1e-6:
                return False
        return True

    def replay(self, item, out, stats):
        gs = self.gs
        r = out.result
        u, conj, state = r["unitary"], r["conj"], r["state"]
        gens = gs.graph_generators(gs.Graph(names(item.n), item.rows)).generators
        for k in gens:
            stats.timed("pauli.conjugate_by_local", gs.conjugate_by_local, u, k)
        stats.timed("pauli.independent", gs.independent, conj.generators)
        stats.timed("stabilizers.stabilizes", gs.stabilizes, conj, state)
        elements = r["elements"]
        for e, k in zip(elements[: 2 ** (item.n - 1)], itertools.cycle(conj.generators)):
            stats.timed("pauli.multiply", gs.multiply, e, k)
        for p in r["origins"]:
            stats.timed("states.apply_pauli", gs.apply_pauli, p, state)
            stats.timed("states.expectation", gs.expectation, p, state)
        sat, assignment = r["sat"]
        # the solver's universe: both axes of every qubit any constraint names
        pairs = [(q, axis) for q in sorted({q for c in r["constraints"] for q, _ in c.terms})
                 for axis in ("x", "z")]
        scanned = 2 ** len(pairs)
        if sat:
            scanned = 1 + sum(1 << j for j, pair in enumerate(pairs) if assignment[pair] < 0)
        stats.count("nonlocality.assignments_scanned", scanned)
        stats.count("nonlocality.constraints", len(r["constraints"]))
        stats.count("pauli.elements", len(elements))
        stats.count("entanglement.cuts", len(r["entropies"]))
        return None  # the traced op's own child spans cover this workload

    def headline(self, done):
        return {"unsat_p50_s": _p50([o.seconds for it, o in done if it.kind == "lhv-unsat"]),
                "sat_p50_s": _p50([o.seconds for it, o in done if it.kind == "lhv-sat"])}


def _cuts(labels):
    n = len(labels)
    return [side for k in range(1, n // 2 + 1) for side in itertools.combinations(labels, k)]


# --- cli-cold -------------------------------------------------------------

GOOD_COMMANDS = {
    "verify-all": ["verify-all", "--json"],
    "ghz-check": ["ghz-check"],
    "state-chi00": ["state", "build", "chi00"],
    "state-graph": ["state", "build", "graph", "{cycle}"],
    "entropy-A3A4": ["entropy", "{chi}", "--cut", "A3,A4"],
    "entropy-A3B1": ["entropy", "{chi}", "--cut", "A3,B1"],
    "entropy-A3B2": ["entropy", "{chi}", "--cut", "A3,B2"],
    "lc-search": ["lc-search", "{gb}", "{chi}"],
    "orbit": ["orbit", "{cycle}"],
}
# Known answer for every one of these: exit code 2 and a one-line message.
BAD_COMMANDS = {
    "bad-json": ["state", "build", "graph", "{malformed}"],
    "bad-label": ["entropy", "{chi}", "--cut", "A3,Q9"],
    "bad-size": ["state", "build", "graph", "{ring13}"],
    "bad-nan": ["lc-search", "{nan}", "{nan}"],
}
# Wrong answers the program gives today, kept in the workload and counted as
# incorrect; the run's `correct` flag tolerates exactly these answers, row by row.
KNOWN_DEFECTS = {"bad-nan": "lc-search on a NaN amplitude exits 1 (not found) instead of 2"}


def _state_doc(labels, amps) -> dict:
    return {"n": len(labels), "order": list(labels),
            "amps": [[float(a.real), float(a.imag)] for a in amps]}


def _graph_doc(labels, edges) -> dict:
    return {"vertices": list(labels), "edges": [[labels[i], labels[j]] for i, j in edges]}


class CliCold(Workload):
    """The paper's own commands, each in a fresh interpreter."""

    name = "cli-cold"
    tail_pct = 75

    def __init__(self, gen, tiny, ctx) -> None:
        super().__init__(gen, tiny, ctx)
        self.files = self._write_inputs(ctx.workdir)
        self.verify_bytes: bytes | None = None
        self._bad_order: list[str] = []

    @staticmethod
    def _write_inputs(workdir) -> dict:
        lab = oracle.PAPER_LABELS
        gb_rows = oracle.rows_from_edges(4, oracle.PAPER_GB)
        docs = {
            "cycle": _graph_doc(lab, oracle.PAPER_CYCLE),
            "chi": _state_doc(lab, oracle.paper_chi00()),
            "gb": _state_doc(lab, oracle.graph_state(4, gb_rows)),
            "ring13": _graph_doc([f"v{i}" for i in range(13)], [(i, (i + 1) % 13) for i in range(13)]),
            "nan": {"n": 2, "order": ["a", "b"], "amps": [[math.nan, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]},
        }
        files = {}
        for key, doc in docs.items():
            files[key] = os.path.join(workdir, f"{key}.json")
            with open(files[key], "w") as fh:
                json.dump(doc, fh)
        files["malformed"] = os.path.join(workdir, "malformed.json")
        with open(files["malformed"], "w") as fh:
            fh.write('{"vertices": ["A3", "A4"], "edges": [["A3", ')
        return files

    def _item(self, key, template) -> Item:
        argv = [a.format(**self.files) for a in template]
        return Item(key, 4, (), {"argv": argv})

    def cycle(self):
        """All nine paper commands plus two of the four bad inputs.

        The four bad inputs are dealt two per cycle in a seeded order, so a run
        of whole pairs of cycles holds each exactly once per pair.
        """
        if self.tiny:
            items = [self._item(k, v) for k, v in {**GOOD_COMMANDS, **BAD_COMMANDS}.items()]
        else:
            if not self._bad_order:
                self._bad_order = list(BAD_COMMANDS)
                self.gen.rng.shuffle(self._bad_order)
            bad = [self._bad_order.pop(), self._bad_order.pop()]
            items = [self._item(k, v) for k, v in GOOD_COMMANDS.items()]
            items += [self._item(k, BAD_COMMANDS[k]) for k in bad]
        self.gen.rng.shuffle(items)
        return items

    @property
    def cycles_per_round(self) -> int:
        return 1 if self.tiny else 2

    def probe_items(self):
        items = [self._item(k, v) for k, v in GOOD_COMMANDS.items()]
        return items + [self._item("bad-label", BAD_COMMANDS["bad-label"])]

    def run(self, item, tr):
        with tr.span("op"):
            proc = run_child([sys.executable, "-m", "graphstab.cli", *item.data["argv"]],
                             self.ctx.child_env, self.ctx.root)
        if proc.timed_out:
            return Outcome(proc, error="timeout", seconds=proc.seconds)
        if proc.returncode < 0 or b"Traceback" in proc.stderr:
            return Outcome(proc, error=f"exit {proc.returncode}: {proc.stderr[-300:]!r}", seconds=proc.seconds)
        return Outcome(proc, seconds=proc.seconds)

    def check(self, item, out):
        proc = out.result
        key = item.kind
        if key in BAD_COMMANDS:
            if proc.returncode == 2 and proc.stderr.startswith(b"graphstab: "):
                return True
            out.known_defect = key in KNOWN_DEFECTS and proc.returncode == 1
            return False
        if proc.returncode != 0:
            return False
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return False
        return _CLI_CHECKS[key.split("-")[0]](self, key, doc, proc.stdout)

    # known answers for each paper command

    def _check_verify(self, key, doc, raw):
        if self.verify_bytes is None:
            self.verify_bytes = raw
        return (raw == self.verify_bytes and doc["passed"] is True
                and len(doc["checks"]) == 10 and all(c["passed"] for c in doc["checks"]))

    def _check_ghz(self, key, doc, raw):
        chi = oracle.paper_chi00()
        rows = []
        for s in doc["settings"]:
            text = s["origin"]
            sign = -1 if text.startswith("-") else 1
            letters = text.lstrip("+-")
            value = sign * oracle.letters_expectation(chi, letters)
            if abs(value - 1.0) > 1e-9 or abs(s["expectation"] - value.real) > 1e-9:
                return False
            rows.append((frozenset((oracle.PAPER_LABELS[q], c.lower())
                                   for q, c in enumerate(letters) if c != "I"), sign))
        c = doc["contradiction"]
        return (doc["quantum_all_satisfied"] is True and doc["lhv_satisfiable"] is False
                and not oracle.lhv_satisfiable(rows) and c["found"] is True
                and oracle.certificate_valid(rows, c["subset"]))

    def _check_state(self, key, doc, raw):
        if key == "state-chi00":
            want = oracle.paper_chi00()
        else:
            want = oracle.graph_state(4, oracle.rows_from_edges(4, oracle.PAPER_CYCLE))
        got = np.array([complex(re, im) for re, im in doc["amps"]])
        return doc["order"] == list(oracle.PAPER_LABELS) and np.max(np.abs(got - want)) <= 1e-12

    def _check_entropy(self, key, doc, raw):
        side = [oracle.PAPER_LABELS.index(s) for s in doc["cut"]]
        want = oracle.cut_rank(oracle.rows_from_edges(4, oracle.PAPER_GB), side)
        return (key.endswith("".join(doc["cut"])) and abs(doc["entropy_bits"] - want) <= 1e-6
                and doc["product_across_cut"] is False)

    def _check_lc(self, key, doc, raw):
        w = doc["witness"]
        factors = [np.array([[complex(*e) for e in row] for row in f]) for f in w["factors"]]
        gb = oracle.graph_state(4, oracle.rows_from_edges(4, oracle.PAPER_GB))
        return doc["found"] is True and oracle.maps_exactly(
            factors, complex(*w["global_phase"]), gb, oracle.paper_chi00())

    def _check_orbit(self, key, doc, raw):
        lab = list(oracle.PAPER_LABELS)
        rows = [oracle.rows_from_edges(4, [(lab.index(a), lab.index(b)) for a, b in m["graph"]["edges"]])
                for m in doc["members"]]
        seed = oracle.rows_from_edges(4, oracle.PAPER_CYCLE)
        return (doc["truncated"] is False and rows[0] == seed and len(set(rows)) == len(rows)
                and oracle.orbit_is_closed(rows) and len(rows) == len(oracle.orbit_keys(seed)))

    def replay(self, item, out, stats):
        """The command's work in this process, warm, through ``graphstab.cli.main``."""
        from graphstab import cli
        kind = item.kind
        key = "error-exit" if kind.startswith("bad-") else kind.split("-A")[0]
        stats.add(f"cli.{key}", out.seconds)
        stats.count("cli.stdout_bytes", len(out.result.stdout))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            cli.main(item.data["argv"])
            warm = perf_counter() - t0
        stats.add("cli.main_warm", warm)
        extra = self.ctx.first_calls.get("lc.search_first_extra_s", 0.0) \
            if item.kind in ("verify-all", "lc-search") else 0.0
        return (self.ctx.first_calls["cli.interpreter_s"] + self.ctx.first_calls["cli.import_s"]
                + warm + extra)

    def warm_replay(self):
        from graphstab import cli
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for key, template in GOOD_COMMANDS.items():
                cli.main(self._item(key, template).data["argv"])

    def headline(self, done):
        digest = hashlib.sha256(self.verify_bytes).hexdigest() if self.verify_bytes else None
        return {"verify_all_cold_s": _p50([o.seconds for it, o in done if it.kind == "verify-all"]),
                "verify_all_json_sha256": digest}


_CLI_CHECKS = {"verify": CliCold._check_verify, "ghz": CliCold._check_ghz,
               "state": CliCold._check_state, "entropy": CliCold._check_entropy,
               "lc": CliCold._check_lc, "orbit": CliCold._check_orbit}

WORKLOADS = {w.name: w for w in (CliCold, OrbitCensus, LcDecide, GhzCensus)}
