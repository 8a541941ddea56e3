"""The three benchmark workloads and their output gates.

Each workload is a closed loop with one client.  Inputs come from the seed
during set-up; the timed region runs whole *cycles* of ops (a law-suite
round, one pass over the chain pool, one pass over the session pool), so
every run measures the same mix of inputs.

- ``laws``: op = one law case of the public ``law_suite``.  Touches every
  engine layer on tiny rings with repeated presentations, so most
  ``buchberger`` calls repeat an ideal already seen (the cache-hit pattern),
  and it is the only workload that generates data inside the timed region.
- ``chain``: op = compose three n=3 objects over (Gm1, Gm1) left to right
  (n 3 -> 9 -> 27) and pair three morphisms along the chain.  Matrix-heavy
  derived-value validation, no ``buchberger`` call and no generation in the
  timed region: the bypass workload for Groebner interning.
- ``session``: op = one ``kcorr run SESSION`` in a fresh interpreter.  The
  only workload that runs the parser, the session layer and the CLI, pays
  start-up on every op and computes Groebner bases of distinct ideals (the
  cache-miss pattern).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

from kcorr import QQ, config, gm_power, pairing
from kcorr import laws as laws_mod
from kcorr.exactalg import PrimeField
from kcorr.corrcat import make_corr_morphism, make_correspondence
from kcorr.exactalg import Matrix, QElem
from kcorr.randomgen import derive_seed
from kcorr.session import format_corr_block, format_matrix, parse_session

import sessiongen

HERE = Path(__file__).resolve().parent
F5 = PrimeField(5)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop (best of three): how fast the
    host runs Python at this moment.  Taken before every segment of work."""
    best = None
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i % 7
        elapsed = perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def op_results(segments):
    """Flatten segments (seconds, probe, [(ms, ok), ...]) into their ops."""
    return [op for _, _, ops in segments for op in ops]


# -- laws -------------------------------------------------------------------


def report_text(report) -> str:
    """The law report without its wall-time line, which is the only
    nondeterministic part."""
    return "".join(line for line in report.to_text().splitlines(keepends=True)
                   if not line.startswith("wall-time:"))


class Laws:
    name = "laws"
    CASES = 4             # law cases per family and field in one round
    TRACE_CYCLES = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.reference_text = None  # round text with its seed masked
        self.case_ms = {}           # (family, field) -> [ms], untraced rounds only
        self.debug_leaks = 0
        self.digest = None

    def round_seed(self, cycle: int) -> int:
        return self.seed if cycle == 0 else derive_seed("bench-laws", self.seed, cycle)

    def setup(self):
        self._run_round(derive_seed("bench-laws-warmup"), 1, None, [])

    def _wrapped_families(self, sink, tracer):
        def timed(family, fn):
            def case(ctx, rng):
                if config.debug_enabled():
                    self.debug_leaks += 1
                outer_op = tracer.op if tracer else None
                if tracer:
                    tracer.op = f"{outer_op}.{len(sink)}"
                ok = False
                start = perf_counter()
                try:
                    fn(ctx, rng)
                    ok = True
                finally:
                    sink.append((family, ctx.field.name,
                                 (perf_counter() - start) * 1000.0, ok))
                    if tracer:
                        tracer.op = outer_op
            return case
        return tuple((family, timed(family, fn))
                     for family, fn in laws_mod.LAW_FAMILIES)

    def _run_round(self, round_seed, cases, tracer, sink):
        original = laws_mod.LAW_FAMILIES
        laws_mod.LAW_FAMILIES = self._wrapped_families(sink, tracer)
        try:
            return laws_mod.law_suite(round_seed, cases)
        finally:
            laws_mod.LAW_FAMILIES = original

    def run_cycle(self, cycle: int, tracer=None):
        """One suite round, as a single segment of work."""
        sink = []
        round_seed = self.round_seed(cycle)
        probe = speed_probe()
        if tracer:
            tracer.op = f"round{cycle}"
        start = perf_counter()
        try:
            report = self._run_round(round_seed, self.CASES, tracer, sink)
        finally:
            elapsed = perf_counter() - start
            if tracer:
                tracer.op = None
        text = report_text(report)
        if cycle == 0:
            self.digest = sha256(text)
        # Every passing round prints the same text apart from its seed.
        masked = text.replace(f"seed={round_seed} ", "seed=* ", 1)
        if self.reference_text is None:
            self.reference_text = masked
        round_ok = report.ok and masked == self.reference_text
        if tracer is None:
            for family, field, ms, _ in sink:
                self.case_ms.setdefault((family, field), []).append(ms)
        return [(elapsed, probe, [(ms, ok and round_ok) for _, _, ms, ok in sink])]

    def gate(self):
        problems = []
        if self.debug_leaks:
            problems.append(f"debug validation on in {self.debug_leaks} cases")
        return problems


# -- chain ------------------------------------------------------------------


def _unit(field, rng):
    return rng.choice([c for c in field.elements_sample() if c])


def _elementary(gm, var, rng):
    """I + c*var*e_ij over k[Gm1] for a random i != j, with its inverse."""
    basis = gm.gb
    i, j = rng.sample(range(3), 2)
    lam = gm.var(var).scale(_unit(gm.field, rng))
    rows, inv_rows = ([list(r) for r in Matrix.identity(basis, 3).rows]
                      for _ in range(2))
    rows[i][j], inv_rows[i][j] = lam, -lam
    return Matrix(basis, rows, 3, 3), Matrix(basis, inv_rows, 3, 3)


def _chain_link(gm, rng):
    """An n=3, rank-2 object over (Gm1, Gm1) and a morphism out of it.

    Every link has the same shape, so every chain op does about the same
    work: slot k of the diagonal model is the point t1 -> c_k*t1,
    s1 -> s1/c_k of Gm1 over k[Gm1], conjugated by one elementary matrix
    with a t1 entry; the morphism is a scalar diagonal endomorphism followed
    by a second elementary conjugation, with an s1 entry.
    """
    basis, field = gm.gb, gm.field
    zero, one = QElem.zero(basis), QElem.one(basis)
    t, s = (gm.var(v) for v in gm.vars)
    cs = [_unit(field, rng) for _ in range(2)]
    es = [_unit(field, rng) for _ in range(2)]
    u, u_inv = _elementary(gm, "t1", rng)
    v, v_inv = _elementary(gm, "s1", rng)

    def frame(entries):
        return u * Matrix.diagonal(basis, entries + [zero]) * u_inv

    p = frame([one, one])
    gens = [frame([t.scale(c) for c in cs]),
            frame([s.scale(field.inv(c)) for c in cs])]
    obj = make_correspondence(gm, gm, 3, p, gens)
    dst = make_correspondence(gm, gm, 3, v * p * v_inv, [v * a * v_inv for a in gens])
    mor = make_corr_morphism(obj, dst, v * frame([one.scale(e) for e in es]))
    return obj, mor


class Chain:
    name = "chain"
    POOL = 16             # chains per cycle; fields alternate F5, Q
    TRACE_CYCLES = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.chains = []
        self.results = {}
        self.digest = None
        self.debug_leaks = 0

    def setup(self):
        chains = []
        for j in range(self.POOL):
            field = F5 if j % 2 == 0 else QQ
            rng = random.Random(derive_seed("bench-chain", self.seed, j))
            gm = gm_power(1, field)
            links = [_chain_link(gm, rng) for _ in range(3)]
            chains.append(([o for o, _ in links], [m for _, m in links]))
        self.chains = chains
        self._op(chains[0])      # warm-up

    @staticmethod
    def _op(chain):
        (o1, o2, o3), (m1, m2, m3) = chain
        obj = pairing.compose_objects(pairing.compose_objects(o1, o2), o3)
        mor = pairing.compose_morphisms(m3, pairing.compose_morphisms(m2, m1))
        return obj, mor

    def run_cycle(self, cycle: int, tracer=None):
        """One op per chain, each its own segment of work."""
        out = []
        for j, chain in enumerate(self.chains):
            if config.debug_enabled():
                self.debug_leaks += 1
            probe = speed_probe()
            if tracer:
                tracer.op = f"c{cycle}.{j}"
            start = perf_counter()
            try:
                obj, mor = self._op(chain)
            except Exception as exc:  # any blowup fails the op
                obj = mor = None
                print(f"chain op {j} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            finally:
                elapsed = (perf_counter() - start) * 1000.0
                if tracer:
                    tracer.op = None
            ok = obj is not None
            if ok:
                reference = self.results.setdefault(j, (obj, mor))
                ok = (obj == reference[0] and mor.mat == reference[1].mat
                      and mor.src == obj)
            out.append((elapsed / 1000.0, probe, [(elapsed, ok)]))
        return out

    def gate(self):
        """Association orders and debug re-validation, outside the timed region."""
        problems = []
        if self.debug_leaks:
            problems.append(f"debug validation on in {self.debug_leaks} ops")
        blocks = []
        for j, ((o1, o2, o3), (m1, m2, m3)) in enumerate(self.chains):
            if j not in self.results:
                problems.append(f"chain {j} never completed")
                continue
            obj, mor = self.results[j]
            right = pairing.compose_objects(o1, pairing.compose_objects(o2, o3))
            right_mor = pairing.compose_morphisms(pairing.compose_morphisms(m3, m2), m1)
            if right != obj:
                problems.append(f"chain {j}: object association orders differ")
            if right_mor.mat != mor.mat or right_mor.dst != mor.dst:
                problems.append(f"chain {j}: morphism association orders differ")
            with config.debug_validation():
                again = pairing.compose_objects(pairing.compose_objects(o1, o2), o3)
            if again != obj:
                problems.append(f"chain {j}: debug re-validation changed the composite")
            blocks.append(format_corr_block(f"C{j}", obj))
            blocks.append(format_matrix(mor.mat))
        self.digest = sha256("\n".join(blocks) + "\n")
        return problems


# -- session ----------------------------------------------------------------


class Session:
    name = "session"
    TRACE_CYCLES = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.dir = out_dir / f"session-{seed}"
        self.paths = []
        self.stdout = {}            # pool index -> stdout of the first run
        self.digest = None
        self.trace_dir = out_dir / f"session-{seed}-trace"
        self.summaries = []
        self.startup_s = []
        self.failures = []

    def setup(self):
        texts = sessiongen.generate_pool(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for j, text in enumerate(texts):
            path = self.dir / f"s{j:02d}.kc"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        self.paths = paths
        self._child(paths[0], "warmup", None)

    def _child(self, path, op_id, trace_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(HERE.parent / "src")
        cmd = [sys.executable, str(HERE / "child.py"), str(path), op_id,
               str(trace_path) if trace_path else "-", repr(time.time())]
        return subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)

    def run_cycle(self, cycle: int, tracer=None):
        """One child per session file, each its own segment of work."""
        out = []
        for j, path in enumerate(self.paths):
            op_id = f"c{cycle}.{j}"
            trace_path = self.trace_dir / f"{op_id}.json" if tracer else None
            probe = speed_probe()
            start = perf_counter()
            try:
                proc = self._child(path, op_id, trace_path)
            except subprocess.TimeoutExpired:
                proc = None
            elapsed = (perf_counter() - start) * 1000.0
            ok = proc is not None and proc.returncode == 0
            if ok:
                reference = self.stdout.setdefault(j, proc.stdout)
                ok = proc.stdout == reference
            if not ok:
                detail = "timeout" if proc is None else (
                    f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                self.failures.append(f"{path.name}: {detail}")
            if trace_path and trace_path.exists():
                data = json.loads(trace_path.read_text(encoding="utf-8"))
                self.summaries.append(data["summary"])
                self.startup_s.append(data["startup_s"])
            out.append((elapsed / 1000.0, probe, [(elapsed, ok)]))
        return out

    def gate(self):
        """Every printed corr block re-parses through ``parse_session``.

        Blocks over product varieties are counted but not re-parsed: their
        variables carry the reserved ``.`` separator, which the session
        format rejects in declarations (a known limit of the format).
        """
        problems = [f"op failed: {f}" for f in self.failures[:5]]
        digests = []
        self.skipped_products = 0
        for j in range(len(self.paths)):
            stdout = self.stdout.get(j)
            if stdout is None:
                problems.append(f"session {j} never succeeded")
                continue
            digests.append(sha256(stdout))
            problems += self._reparse(j, stdout)
        self.digest = sha256("\n".join(digests) + "\n")
        print(f"note: {self.skipped_products} corr blocks over product varieties "
              f"not re-parsed (their variables contain the reserved '.')")
        return problems

    def _reparse(self, j, stdout):
        header = self.paths[j].read_text(encoding="utf-8").splitlines()[:2]
        varieties = {}
        problems = []
        for line in stdout.splitlines():
            if line.startswith("variety "):
                varieties[line.split()[1]] = line
            elif line.startswith("corr "):
                _, name, _, src, _, dst = line.split()[:6]
                decls = [varieties[src], varieties[dst]] if src != dst else [varieties[src]]
                if any("." in d.split("vars = [", 1)[1].split("]", 1)[0] for d in decls):
                    self.skipped_products += 1
                    continue
                text = "\n".join(header + decls + [line]) + "\n"
                try:
                    parsed = parse_session(text)
                except Exception as exc:  # any parse failure fails the gate
                    problems.append(f"session {j}: corr {name} does not re-parse: {exc}")
                    continue
                if format_corr_block(name, parsed.corrs[name]) != line:
                    problems.append(f"session {j}: corr {name} prints differently")
        return problems


WORKLOADS = {w.name: w for w in (Laws, Chain, Session)}
