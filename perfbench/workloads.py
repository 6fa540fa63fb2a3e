"""The three benchmark workloads: job lists, seeded inputs and answer checks.

A job is one public call into the package, or one CLI invocation.  Its
``run`` is the timed part; its ``check`` runs afterwards, untimed and
untraced, on separate objects, so checking never warms a cache that a
later job would hit.  ``check`` returns True for a definite answer and
False for an unanswered one (budget, inconclusive, exit 2), and raises
``Wrong`` for a wrong answer.

Every answer is compared against ``pins.json``.  Jobs that exceed their
budget today carry the classical value there, so an answer that appears
later is checked rather than accepted.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, List

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
WORKLOADS = ("qq-structure", "fp-scan", "cli-small")


class Wrong(Exception):
    """The program's answer differs from the pinned one."""


@dataclass
class Job:
    id: str
    run: Callable[[dict], object]
    check: Callable[[object], bool]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


def read_input(name: str) -> str:
    with open(os.path.join(INPUTS, name + ".json"), encoding="utf-8") as fh:
        return fh.read().strip()


class Workload:
    """Inputs and jobs of one workload for one seed."""

    def __init__(self, name: str, seed: int, ll, pins: dict, root: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.ll = ll
        self.pins = pins[name]
        self.root = root
        self.texts = {}
        self.args = {}
        self._checkers = {}
        self.cli_in_process = False
        build = {
            "qq-structure": self._qq_structure,
            "fp-scan": self._fp_scan,
            "cli-small": self._cli_small,
        }[name]
        self.jobs: List[Job] = build()
        digest = hashlib.sha256()
        digest.update(f"{name}\n{seed}\n".encode())
        for key in sorted(self.texts):
            digest.update(f"{key}\n{self.texts[key]}\n".encode())
        digest.update(json.dumps(self.args, sort_keys=True).encode())
        self.inputs_sha256 = digest.hexdigest()

    # -- shared helpers -------------------------------------------------------

    def _text(self, name: str) -> str:
        if name not in self.texts:
            self.texts[name] = read_input(name)
        return self.texts[name]

    def checker(self, name: str):
        """A private copy of an input algebra for rechecking answers."""
        if name not in self._checkers:
            ll = self.ll
            self._checkers[name] = ll.LieAlgebra.from_json_dict(json.loads(self._text(name)))
        return self._checkers[name]

    def _witness(self, name: str, strings):
        L = self.checker(name)
        return tuple(L.field.parse(s) if isinstance(s, str) else s for s in strings)

    def recheck_not_regular(self, name: str, witness, rank: int) -> None:
        """A refuted regularity verdict: the witness must have zero
        multiplicity different from the algebra's rank."""
        L = self.checker(name)
        nu = self.ll.zero_multiplicity(L, self._witness(name, witness))
        _expect(nu != rank, f"{name}: witness {list(map(str, witness))} has nu = rank = {rank}")

    def _load_job(self, name: str) -> Job:
        ll = self.ll
        text = self._text(name)
        pin = self.pins[f"{name}.load"]

        def run(ctx):
            ctx[name] = ll.LieAlgebra.from_json_dict(json.loads(text))
            return ctx[name]

        def check(L):
            _expect(L.dim == pin["dim"], f"{name}: dim {L.dim} != {pin['dim']}")
            _expect(L.canonical_json() == text, f"{name}: table changed on load")
            return True

        return Job(f"{name}.load", run, check)

    def _value_job(self, name: str, query: str, fn) -> Job:
        pin = self.pins[f"{name}.{query}"]

        def check(got):
            _expect(got == pin, f"{name}.{query}: {got} != {pin}")
            return True

        return Job(f"{name}.{query}", lambda ctx: fn(ctx[name]), check)

    def _verdict_job(self, name: str, query: str, fn, recheck) -> Job:
        pin = self.pins[f"{name}.{query}"]

        def check(v):
            if v.is_inconclusive:
                return False
            _expect(v.status == pin["status"], f"{name}.{query}: {v.status} != {pin['status']}")
            if "certificate" in pin:
                _expect(v.certificate == pin["certificate"], f"{name}.{query}: certificate {v.certificate}")
            if v.is_refuted:
                recheck(v)
            return True

        return Job(f"{name}.{query}", lambda ctx: fn(ctx[name]), check)

    def _structure_jobs(self, name: str, queries) -> List[Job]:
        # Every call looks its function up on the package at run time, so
        # the traced run's wrappers see it.
        ll = self.ll
        seed = self.seed
        rank_pin = self.pins.get(f"{name}.rank")
        jobs = []
        for q in queries:
            if q == "rank":
                jobs.append(self._value_job(name, q, lambda L: ll.rank(L)))
            elif q == "regular":
                jobs.append(self._verdict_job(
                    name, q,
                    lambda L: ll.is_regular_algebra(L, mode="certificate", seed=seed),
                    lambda v: self.recheck_not_regular(name, v.witness, rank_pin),
                ))
            elif q == "derivations":
                jobs.append(self._value_job(name, q, lambda L: ll.derivation_algebra(L)[0].dim))
            elif q == "h2":
                jobs.append(self._value_job(name, q, lambda L: ll.h2_trivial(L)[0]))
            elif q == "centroid":
                jobs.append(self._value_job(name, q, lambda L: len(ll.centroid(L))))
            elif q == "simple":
                def ideal_recheck(v, name=name):
                    L = self.checker(name)
                    d = L.ideal_generated([self._witness(name, v.witness)]).dim
                    _expect(0 < d < L.dim, f"{name}.simple: witness generates an ideal of dim {d}")

                jobs.append(self._verdict_job(name, q, lambda L: ll.is_simple(L), ideal_recheck))
        return jobs

    # -- qq-structure -----------------------------------------------------------

    def _qq_structure(self) -> List[Job]:
        # sl5 is only loaded: its Jacobi check over 2024 triples is the
        # large-table case; Der(sl5) alone would take half a minute.
        jobs = [self._load_job("sl5q")]
        for name in ("sl4q", "sl3q", "gl3q", "strict_upper5q", "heisenberg2q"):
            jobs.append(self._load_job(name))
            jobs += self._structure_jobs(name, ("rank", "regular", "derivations", "h2", "simple"))
        self.args = {"regular_seed": self.seed}
        return jobs

    # -- fp-scan ------------------------------------------------------------------

    def _fp_scan(self) -> List[Job]:
        names = ("psl3f3", "pgl3f3", "sl3f3", "gl3f5")
        jobs = [self._load_job(n) for n in names]
        for n in ("pgl3f3", "sl3f3", "gl3f5"):
            jobs += self._structure_jobs(n, ("rank",))
        jobs += self._structure_jobs("psl3f3", ("simple",))
        for n in names:
            jobs += self._structure_jobs(n, ("derivations", "h2", "centroid"))
        jobs.append(self._census_job())
        return jobs

    def _census_job(self) -> Job:
        """All 19 683 dim-3 tables over F_3, as `lielab enumerate` walks them."""
        ll = self.ll
        pin = self.pins["census3f3"]
        F3 = ll.GF(3)

        def run(ctx):
            total = valid = nilpotent = regular = 0
            refuted = []
            for t in ll.enumerate_tables(3, F3):
                total += 1
                if not t.jacobi_ok:
                    continue
                valid += 1
                alg = t.algebra()
                if alg.structure_report().nilpotent:
                    nilpotent += 1
                v = ll.is_regular_algebra(alg, mode="exhaustive")
                if v.is_certified:
                    regular += 1
                elif v.is_refuted:
                    refuted.append((t.coeffs, v.witness, v.evidence["rank"]))
            return [total, valid, nilpotent, regular], refuted

        def check(result):
            counts, refuted = result
            _expect(counts == pin["counts"], f"census: {counts} != {pin['counts']}")
            _expect(len(refuted) == pin["counts"][1] - pin["counts"][3], "census: refuted count")
            for coeffs, witness, r in refuted:
                alg = ll.catalog.EnumTable(3, F3, coeffs, True).algebra()
                nu = ll.zero_multiplicity(alg, witness)
                _expect(nu != r, f"census: witness {witness} of {coeffs} has nu = rank")
            return True

        return Job("census3f3", run, check)

    # -- cli-small ------------------------------------------------------------------

    def _cli_small(self) -> List[Job]:
        rng = random.Random(self.seed)
        # fitting on sl3/Q: an upper-triangular element with distinct
        # eigenvalues h1, h2 - h1, -h2 is regular semisimple, so nu = 2
        # whatever the seed draws.  Basis: E12 E13 E23 H1 H2 E21 E31 E32.
        while True:
            h1, h2 = rng.randint(-9, 9), rng.randint(-9, 9)
            if len({h1, h2 - h1, -h2}) == 3:
                break
        element = [rng.randint(-9, 9) for _ in range(3)] + [h1, h2, 0, 0, 0]
        target = [0, 0, 0]
        while not any(target):
            target = [rng.randint(-9, 9) for _ in range(3)]
        self.args = {"fitting_element": element, "commutator_target": target}
        path = {}
        for n in ("su2q", "sl3q", "heisenberg2q", "psl3f3", "gl3q", "sl2f5", "gl3f5"):
            self._text(n)
            path[n] = os.path.join(INPUTS, n + ".json")
        csv = lambda v: ",".join(str(c) for c in v)
        calls = [
            ("verify", ["verify"]),
            ("analyze.su2q", ["analyze", path["su2q"]]),
            ("analyze.sl3q", ["analyze", path["sl3q"]]),
            ("analyze.heisenberg2q", ["analyze", path["heisenberg2q"]]),
            ("analyze.psl3f3", ["analyze", path["psl3f3"]]),
            ("validate.gl3q", ["validate", path["gl3q"]]),
            ("rank.sl3q", ["rank", path["sl3q"]]),
            ("regular.sl2f5", ["regular", path["sl2f5"], "--mode", "exhaustive"]),
            ("fitting.sl3q", ["fitting", path["sl3q"], "--element=" + csv(element)]),
            ("commutator.su2q", ["commutator", path["su2q"], "--form", "killing", "--target=" + csv(target)]),
            ("h2.heisenberg2q", ["h2", path["heisenberg2q"]]),
            ("derivations.sl3q", ["derivations", path["sl3q"]]),
            ("centroid.gl3f5", ["centroid", path["gl3f5"]]),
            ("anisotropic.su2q", ["anisotropic", path["su2q"], "--mode", "certificate"]),
            ("catalog.emit.pgl3f3", ["catalog", "emit", "pgl", "--n", "3", "--field", "F3"]),
            ("enumerate.2f5", ["enumerate", "--dim", "2", "--field", "F5"]),
        ]
        return [
            Job(job_id, lambda ctx, argv=argv: self.cli_runner(argv), self._cli_check(job_id))
            for job_id, argv in calls
        ]

    def _cli_check(self, job_id: str):
        pin = self.pins[job_id]

        def check(result):
            code, out = result
            if code == 2:
                return False
            _expect(code == pin["exit"], f"{job_id}: exit {code} != {pin['exit']}")
            if "stdout_sha256" in pin:
                got = hashlib.sha256(out).hexdigest()
                _expect(got == pin["stdout_sha256"], f"{job_id}: stdout sha256 {got[:16]} differs from the pin")
            payload = json.loads(out)
            extra = _CLI_EXTRA.get(job_id.split(".")[0])
            if extra is not None:
                extra(self, job_id, payload)
            return True

        return check

    def cli_runner(self, argv):
        """(exit code, stdout bytes) of one CLI call: a subprocess of this
        interpreter, or ``cli.main`` in this process when
        ``cli_in_process`` is set (the traced run)."""
        if self.cli_in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = self.ll.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code if isinstance(exc.code, int) else 3
            return code, buf.getvalue().encode("utf-8")
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "lielab.cli", *argv],
            cwd=self.root, env=env, capture_output=True, timeout=150,
        )
        return proc.returncode, proc.stdout


def _extra_verify(wl: Workload, job_id: str, payload: dict) -> None:
    pin = wl.pins[job_id]
    failing = sorted(c["name"] for c in payload["checks"] if c["status"] == "FAIL")
    _expect(failing == pin["designed_fails"], f"verify: failing checks {failing}")
    _expect(payload["counts"] == pin["counts"], f"verify: counts {payload['counts']}")


def _extra_analyze(wl: Workload, job_id: str, payload: dict) -> None:
    name = job_id.split(".", 1)[1]
    regular = payload["regular"]
    if regular and regular["status"] == "refuted":
        wl.recheck_not_regular(name, regular["witness"], payload["rank"])


def _extra_regular(wl: Workload, job_id: str, payload: dict) -> None:
    name = job_id.split(".", 1)[1]
    v = payload["regular"]
    if v["status"] == "refuted":
        wl.recheck_not_regular(name, v["witness"], v["evidence"]["rank"])


def _extra_fitting(wl: Workload, job_id: str, payload: dict) -> None:
    element = [str(c) for c in wl.args["fitting_element"]]
    _expect(payload["element"] == element, "fitting: element echoed wrongly")
    _expect(payload["nu"] == 2 and payload["rank"] == 2, f"fitting: nu {payload['nu']}, rank {payload['rank']}")
    _expect(payload["regular_element"] is True, "fitting: element not reported regular")
    _expect(len(payload["null_component"]) == 2 and len(payload["one_component"]) == 6, "fitting: component dims")


def _extra_commutator(wl: Workload, job_id: str, payload: dict) -> None:
    L = wl.checker("su2q")
    w = payload["witness"]
    z, y = wl._witness("su2q", w["z"]), wl._witness("su2q", w["y"])
    target = tuple(L.field.of(c) for c in wl.args["commutator_target"])
    _expect(w["provenance"] == "rank1-solver", f"commutator: provenance {w['provenance']}")
    _expect(L.bracket(z, y) == target, "commutator: [z, y] misses the target")


_CLI_EXTRA = {
    "verify": _extra_verify,
    "analyze": _extra_analyze,
    "regular": _extra_regular,
    "fitting": _extra_fitting,
    "commutator": _extra_commutator,
}
