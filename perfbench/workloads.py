"""The three benchmark workloads: paper_run, theory_sweep and cli_jobs.

Each workload draws its inputs from the seed once, in ``__init__``.  A pass
runs every op of the workload once, in a closed loop (one client; each call
waits for the previous one).  Passes of one run repeat the same inputs, so
their output digests must agree.  ``check`` verifies the outputs of the
first pass right after it, outside the timed region, and returns a list of
failure messages; the pass's outputs are dropped then.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np
from click.testing import CliRunner

import oracle
from gbsgraphs import catalog, cli, engine, features, figures, graphs
from gbsgraphs.embedding import make_embedding
from gbsgraphs.engine import LossModel

REFERENCE_CLASS_COUNTS = {"1K2": 4, "2K2": 12, "1C4": 6, "2P3": 12, "3K2": 16,
                          "1K33": 4, "2S3": 4, "4K2": 10, "2C4": 6, "1K44": 1}

EVENTS = (2, 4, 6, 8)

#: Largest |z| accepted between a sampled event frequency and its analytic value.
Z_BOUND = 6.0

#: The paper's transmission and the graph of its loss-sweep figure (1K44).
PAPER_ETA = 0.55
FIG3_CODE = "1111111111"

#: Transmission grid of theory_sweep.
ETA_GRID = (0.3, 0.4, 0.5, 0.55, 0.6, 0.7, 0.8, 0.9)

#: Slack for float rounding when comparing against the exact law.
ABS_TOL = 1e-12


def file_digest(path: Path) -> str:
    """sha256 of a file; an SVG's version comment line is dropped first."""
    data = path.read_bytes()
    if path.suffix == ".svg":
        data = b"\n".join(line for line in data.split(b"\n")
                          if not line.startswith(b"<!-- gbsgraphs "))
    return hashlib.sha256(data).hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Pass:
    """Latencies, failures and outputs of one pass over a workload's ops."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.unexpected_exits = 0
        self.digests: dict[str, str] = {}
        self.results: dict = {}
        self.loss_match_err = 0.0
        self.wall = 0.0

    def op(self, label: str, fn, *args, span: str | None = None):
        """Time one op; an exception marks the op failed and returns None."""
        if self.tracer is not None:
            self.tracer.op_id += 1
        start = perf_counter()
        try:
            if self.tracer is not None and span is not None:
                with self.tracer.span(span):
                    out = fn(*args)
            else:
                out = fn(*args)
        except Exception as exc:  # a failed op is counted, the run goes on
            self.latencies.append(perf_counter() - start)
            self.failures.append(f"{label}: {exc!r}")
            return None
        self.latencies.append(perf_counter() - start)
        return out

    def step(self, label: str, fn, *args):
        """Work of a pass outside any op (catalog, figures); failures count."""
        if self.tracer is not None:
            self.tracer.op_id = -1
        try:
            return fn(*args)
        except Exception as exc:  # a failed step is counted, the run goes on
            self.failures.append(f"{label}: {exc!r}")
            return None


def _exact_event_fv(rank: int, eta: float):
    """Open-cap event probabilities from the exact law, posing as a sample."""
    return features.FeatureVector(
        labels=tuple(features.EventSpec(k, features.DEFAULT_MAX_PER_MODE)
                     for k in EVENTS),
        values=np.array([oracle.event_probability(rank, k, eta) for k in EVENTS]),
        provenance="sampled", loss_eta=1.0)


def _one_per_class(specs, classes, rng) -> list:
    by_class: dict[str, list] = {}
    for code, spec in specs:
        by_class.setdefault(classes[code], []).append((code, spec))
    return [by_class[label][int(rng.integers(len(by_class[label])))]
            for label in graphs.CLASS_LABELS if label in by_class]


# ---------------------------------------------------------------------------
# paper_run
# ---------------------------------------------------------------------------

class PaperRun:
    """The run_pipeline.py call sequence: 75 graphs at eta 0.55, then fig2-4.

    One op is one graph: auto cutoff, table, sample, loss, write, ingest.
    """

    name = "paper_run"
    loads = ["engine.build_table", "engine.sample", "engine.apply_loss",
             "engine.write_samples", "engine.ingest_samples",
             "features.fv_sampled", "features.relative_deviation",
             "features.match_loss", "catalog", "figures", "svg.render"]
    bypasses = ["cli", "features.fv_analytic thinning (the figures use open caps)"]

    FIG2_EVENT = 6
    FULL_SHOTS = 6000
    SMOKE_SHOTS = 300

    def __init__(self, ctx):
        self.shots = ctx.shots or (self.SMOKE_SHOTS if ctx.smoke else self.FULL_SHOTS)
        rng = np.random.default_rng(ctx.seed)
        chosen = ctx.specs
        if ctx.smoke:
            chosen = sorted(_one_per_class(ctx.specs, ctx.classes, rng))
        base = int(rng.integers(0, 2 ** 31))
        # Per-graph sampling and loss seeds, as run_pipeline.py derives them.
        self.jobs = [(code, spec, base + 2 * i, base + 2 * i + 1)
                     for i, (code, spec) in enumerate(chosen)]
        self.out = ctx.work
        self.sample_dir = self.out / "samples"

    def setting(self) -> dict:
        return {"shots_per_graph": self.shots, "graphs": len(self.jobs),
                "eta": PAPER_ETA, "paper_shots_per_graph": 100_000}

    def graph_op(self, code, spec, sample_seed, loss_seed):
        cutoff = engine.min_cutoff_for_mass(spec.rank)
        table = engine.build_table(spec, cutoff)
        shots = engine.sample(table, self.shots, seed=sample_seed)
        shots = engine.apply_loss(shots, LossModel(PAPER_ETA), seed=loss_seed)
        path = self.sample_dir / f"{code}.samples"
        engine.write_samples(shots, path)
        return shots, engine.ingest_samples(path)

    def _catalog(self):
        records = catalog.build_catalog()
        catalog.write_catalog(records, self.out / "catalog.json")

    def _fig2(self, samples):
        rows = figures.event_by_class_rows(samples, self.FIG2_EVENT)
        figures.write_event_by_class(rows, self.out / "fig2.csv",
                                     self.out / "fig2.svg", self.FIG2_EVENT)

    def _fig3(self, samples):
        spec = make_embedding(FIG3_CODE)
        cutoff = engine.min_cutoff_for_mass(spec.rank)
        curve, matches = figures.deviation_rows(samples, spec, step=0.01,
                                                cutoff_pairs=cutoff)
        figures.write_deviation(curve, self.out / "fig3.csv", self.out / "fig3.svg")
        (self.out / "fig3_matches.json").write_text(
            json.dumps(matches, indent=2, sort_keys=True) + "\n")
        return matches

    def _fig4(self, samples):
        rows = figures.orbit_space_rows(samples)
        summaries = figures.cluster_summaries(rows)
        figures.write_orbit_space(rows, summaries, self.out / "fig4.csv",
                                  self.out / "fig4_clusters.csv",
                                  self.out / "fig4.svg")

    def run_pass(self, p: Pass) -> None:
        if self.out.exists():
            shutil.rmtree(self.out)
        self.sample_dir.mkdir(parents=True)
        p.step("catalog", self._catalog)
        ingested = {}
        for job in self.jobs:
            res = p.op(job[0], self.graph_op, *job)
            if res is None:
                continue
            # The round trip is compared at once, so the written samples are
            # not kept: the pass holds only what run_pipeline.py holds.
            written, ingested[job[0]] = res
            if (not np.array_equal(written.shots, ingested[job[0]].shots)
                    or ingested[job[0]].meta.loss != PAPER_ETA):
                p.failures.append(f"{job[0]}: ingested samples differ from the written ones")
        p.step("fig2", self._fig2, ingested)
        if FIG3_CODE in ingested:
            p.results["matches"] = p.step("fig3", self._fig3,
                                          ingested[FIG3_CODE])
        p.step("fig4", self._fig4, ingested)
        p.results["ingested"] = ingested

    def digest(self, p: Pass) -> None:
        p.digests = {str(f.relative_to(self.out)): file_digest(f)
                     for f in sorted(self.out.rglob("*")) if f.is_file()}

    def check(self, p: Pass) -> list[str]:
        bad = []
        cat = json.loads((self.out / "catalog.json").read_text())
        if cat["class_counts"] != REFERENCE_CLASS_COUNTS or cat["embeddable"] != 75:
            bad.append(f"catalog class counts {cat['class_counts']}")
        for code, spec, _, _ in self.jobs:
            if code not in p.results["ingested"]:
                continue
            read = p.results["ingested"][code]
            cutoff = engine.min_cutoff_for_mass(spec.rank)
            analytic = features.fv_events_analytic(spec, EVENTS, loss=LossModel(PAPER_ETA),
                                                   cutoff_pairs=cutoff).values
            sampled = features.fv_events_from_samples(read, EVENTS).values
            z = (sampled - analytic) / np.sqrt(analytic * (1 - analytic) / self.shots)
            if not np.all(np.abs(z) <= Z_BOUND):
                bad.append(f"{code}: sampled event FV off by z={z.round(2).tolist()}")
        matches = p.results.get("matches")
        if FIG3_CODE in p.results["ingested"] and (
                not matches or any(v is None for v in matches.values())):
            bad.append(f"fig3: unmatched loss factor in {matches}")
        return bad

    def loss_match_err(self, p: Pass) -> float:
        matches = p.results.get("matches") or {}
        errs = [abs(v - (1.0 - PAPER_ETA)) for v in matches.values() if v is not None]
        return max(errs) if errs else 0.0


# ---------------------------------------------------------------------------
# theory_sweep
# ---------------------------------------------------------------------------

class TheorySweep:
    """Analytic feature vectors only: lossy orbits, capped events, match_loss.

    One op is one (graph, eta, vector) call.  Each graph gets one transmission
    drawn from ETA_GRID, at the cutoff the CLI raises automatically.
    """

    name = "theory_sweep"
    loads = ["engine.build_table", "features.fv_analytic", "features.match_loss",
             "engine.min_cutoff_for_mass"]
    bypasses = ["engine.sample", "engine.write_samples", "engine.ingest_samples",
                "figures", "svg.render", "cli"]

    CAPPED_N_MAX = 1              # below every event total: forces the table path

    def __init__(self, ctx):
        rng = np.random.default_rng(ctx.seed)
        chosen = ctx.specs
        if ctx.smoke:
            chosen = sorted(_one_per_class(ctx.specs, ctx.classes, rng))[:4]
        self.eta = {code: float(rng.choice(ETA_GRID)) for code, _ in chosen}
        # Catalog order, not shuffled: the seed varies the transmissions, and
        # a fixed order keeps allocator and cache effects alike across seeds.
        self.ops = [(kind, code, spec) for code, spec in chosen
                    for kind in ("orbits", "events")]
        self.match = []
        for code, spec in _one_per_class(chosen, ctx.classes, rng):
            eta = float(rng.choice(ETA_GRID))
            self.match.append((code, spec, eta, _exact_event_fv(spec.rank, eta)))

    def setting(self) -> dict:
        return {"graphs": len(self.eta), "eta_grid": list(ETA_GRID),
                "orbits": [list(o) for o in features.DEFAULT_ORBITS],
                "capped_events": list(EVENTS), "capped_n_max": self.CAPPED_N_MAX,
                "match_graphs": len(self.match)}

    def vector_op(self, kind, spec, eta):
        cutoff = engine.min_cutoff_for_mass(spec.rank)
        if kind == "orbits":
            return features.fv_orbits_analytic(spec, features.DEFAULT_ORBITS,
                                               LossModel(eta), cutoff)
        return features.fv_events_analytic(spec, EVENTS, self.CAPPED_N_MAX,
                                           LossModel(eta), cutoff)

    def match_op(self, spec, target):
        cutoff = engine.min_cutoff_for_mass(spec.rank)
        return [features.match_loss(target, spec, i, cutoff_pairs=cutoff)
                for i in range(len(EVENTS))]

    def run_pass(self, p: Pass) -> None:
        vectors = {}
        for kind, code, spec in self.ops:
            vectors[kind, code] = p.op(f"{kind} {code}", self.vector_op,
                                       kind, spec, self.eta[code])
        matches = {}
        for code, spec, _, target in self.match:
            matches[code] = p.op(f"match_loss {code}", self.match_op, spec, target)
        p.results["vectors"], p.results["matches"] = vectors, matches

    def digest(self, p: Pass) -> None:
        p.digests = {f"{kind} {code}": array_digest(fv.values, fv.tail_bound)
                     for (kind, code), fv in p.results["vectors"].items()
                     if fv is not None}
        p.digests.update({f"match {code}": json.dumps(m)
                          for code, m in p.results["matches"].items()})

    def check(self, p: Pass) -> list[str]:
        bad = []
        for code, spec, _, _ in self.match:
            blocks = oracle.blocks(code)
            cutoff = engine.min_cutoff_for_mass(spec.rank)
            # Lossless orbits against sums of Ryser pattern probabilities.
            fv = features.fv_orbits_analytic(spec, features.DEFAULT_ORBITS,
                                             cutoff_pairs=cutoff)
            for orbit, value in zip(features.DEFAULT_ORBITS, fv.values):
                ryser = sum(engine.pattern_probability(spec, pat)
                            for pat in features.orbit_patterns(orbit))
                if abs(value - ryser) > 1e-12 * max(ryser, 1e-300) + ABS_TOL:
                    bad.append(f"{code}: lossless orbit {orbit} {value} != Ryser {ryser}")
            # Open-cap lossless events against the negative-binomial law.
            fv = features.fv_events_analytic(spec, EVENTS, cutoff_pairs=cutoff)
            for k, value in zip(EVENTS, fv.values):
                exact = oracle.event_probability(spec.rank, k)
                if abs(value - exact) > 1e-12 * exact:
                    bad.append(f"{code}: open-cap event {k} {value} != {exact}")
            # The timed lossy vectors against the exact thinned law: a truncated
            # sum may fall short of the exact value by at most its tail bound.
            eta = self.eta[code]
            for kind, members in (
                    ("orbits", [oracle.orbit_members(o) for o in features.DEFAULT_ORBITS]),
                    ("events", [oracle.capped_members(k, self.CAPPED_N_MAX) for k in EVENTS])):
                fv = p.results["vectors"].get((kind, code))
                if fv is None:
                    continue
                for pats, value, tail in zip(members, fv.values, fv.tail_bound):
                    exact = sum(oracle.pattern_probability(blocks, pat, eta) for pat in pats)
                    if not exact - tail - ABS_TOL <= value <= exact + ABS_TOL:
                        bad.append(f"{code}: lossy {kind} value {value} outside "
                                   f"[{exact - tail}, {exact}] at eta {eta}")
        for code, _, eta, _ in self.match:
            found = p.results["matches"].get(code)
            if found is None or any(m is None for m in found):
                bad.append(f"{code}: match_loss found no loss factor ({found})")
        return bad


# ---------------------------------------------------------------------------
# cli_jobs
# ---------------------------------------------------------------------------

# The commands of the README's CLI usage block that the workload covers.  The
# repo records no usage of the CLI, so the mix follows the usage block alone,
# with no weights: a command that takes a graph runs once per graph class (the
# n-th run takes its graph from class (offset + n) mod 10, and the seed picks
# the member: isomorphic graphs cost the same, so a pass costs about the same
# for every seed), its usage variants taking turns; a command that takes no
# graph runs once per usage variant of GRAPHLESS_VARIANTS.
COMMANDS = ("enumerate", "classify", "embed", "simulate", "ingest", "fv",
            "deviation")
GRAPHLESS_VARIANTS = {
    "enumerate": 3,     # JSON, --format csv, --all-candidates
    "classify": 3,      # one, two and three codes
}

# Invalid inputs; the CLI contract gives each of them exit code 2
# (validation error).
_INVALID = ("classify-bad-code", "embed-not-embeddable", "simulate-bad-loss",
            "ingest-bad-line", "ingest-empty", "fv-no-input",
            "ingest-bad-meta", "simulate-negative-seed")

# Invalid inputs that exit 1 with a traceback at the time of writing: known
# defects.  A wrong exit code on them counts in cli.exit_unexpected and
# error_rate, not as a failed op; on every other input it is a failure.
KNOWN_DEFECTS = ("ingest-bad-meta", "simulate-negative-seed")

_ORBITS_ARG = "1,1,1;1,1,1,1;2,1,1"


class CliJobs:
    """A seeded mix of short CLI commands, invoked in process through click.

    One op is one command.  Sample files come from the exact law in
    ``oracle``, written with comments, blank lines and spaced arrays.
    """

    name = "cli_jobs"
    loads = ["cli", "embedding", "catalog", "graphs", "engine.ingest_samples",
             "engine.build_table", "engine.min_cutoff_for_mass"]
    bypasses = ["svg.render", "figures other than the deviation rows"]

    # Shots of every sample file and simulate run: paper_run's shots per
    # graph, so one file costs what one graph's ingest costs there.
    SHOTS = PaperRun.FULL_SHOTS
    SMOKE_SHOTS = 200

    def __init__(self, ctx):
        self.runner = CliRunner()
        self.work = ctx.work
        rng = np.random.default_rng(ctx.seed)
        self.inputs = ctx.work / "inputs"
        self.outs = ctx.work / "outputs"
        if ctx.work.exists():
            shutil.rmtree(ctx.work)
        self.inputs.mkdir(parents=True)
        self.outs.mkdir()
        members: dict[str, list[str]] = {}
        for code, _ in ctx.specs:
            members.setdefault(ctx.classes[code], []).append(code)
        self.shots = self.SMOKE_SHOTS if ctx.smoke else self.SHOTS
        keyed = []
        for offset, command in enumerate(COMMANDS):
            runs = 1 if ctx.smoke else GRAPHLESS_VARIANTS.get(
                command, len(graphs.CLASS_LABELS))
            for n in range(runs):
                label = graphs.CLASS_LABELS[(offset + n) % len(graphs.CLASS_LABELS)]
                code = members[label][int(rng.integers(len(members[label])))]
                keyed.append(((n + 0.5) / runs, self._valid_job(command, n, code, rng)))
        for n, kind in enumerate(_INVALID):
            code = members["2K2"][int(rng.integers(len(members["2K2"])))]
            keyed.append(((n + 0.5) / len(_INVALID), self._invalid_job(kind, code, rng)))
        # Commands interleaved evenly in a fixed order, the same for every seed.
        self.jobs = [job for _, job in sorted(keyed, key=lambda kj: kj[0])]

    def setting(self) -> dict:
        return {"commands": len(self.jobs), "invalid_commands": len(_INVALID),
                "known_defect_commands": list(KNOWN_DEFECTS),
                "shots_per_file": self.shots}

    # -- inputs ------------------------------------------------------------

    def _sample_file(self, name, code, eta, rng) -> Path:
        shots = self.shots
        pats = oracle.sample(oracle.blocks(code), shots, eta, rng)
        lines = [f"# {shots} shots of graph {code} at transmission {eta}", ""]
        style = rng.integers(0, 4, size=shots)
        for row, s in zip(pats.tolist(), style.tolist()):
            if s == 0:
                lines.append("[" + ", ".join(map(str, row)) + "]")
            elif s == 1:
                lines.append("  [" + ",".join(map(str, row)) + "]   ")
            elif s == 2:
                lines.append("[ " + " , ".join(map(str, row)) + " ]")
                lines.append("")
            else:
                lines.append("# shot")
                lines.append("[" + ",  ".join(map(str, row)) + "]")
        path = self.inputs / f"{name}.samples"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        engine.meta_path_for(path).write_text(json.dumps({
            "code": code, "source": "simulated", "seed": None, "loss": eta,
            "threshold": False, "shots": shots, "cutoff_pairs": None,
            "covered_mass": None}, indent=2) + "\n", encoding="utf-8")
        return path

    def _valid_job(self, command, n, code, rng):
        """(kind, args, expected exit code, output files) of the n-th run."""
        out = self.outs / f"{command}-{n}"
        eta = float(rng.choice(ETA_GRID))
        if command == "enumerate":
            kind, extra = (("enumerate-json", []), ("enumerate-csv", ["--format", "csv"]),
                           ("enumerate-all", ["--all-candidates"]))[n % 3]
            return kind, ["enumerate", "--out", self._rel(out), *extra], 0, [out]
        if command == "classify":
            codes = ["".join(rng.choice(["0", "1"], size=10)) for _ in range(n % 3 + 1)]
            return command, ["classify", *codes], 0, []
        if command == "embed":
            return command, ["embed", code], 0, []
        if command == "simulate":
            args = ["simulate", code, "--shots", str(self.shots), "--seed",
                    str(int(rng.integers(0, 2 ** 31))), "--loss", str(eta),
                    "--out", self._rel(out)]
            if n % 2:
                args.append("--threshold")
            return command, args, 0, [out, engine.meta_path_for(out)]
        if command == "ingest":
            path = self._sample_file(f"ingest-{n}", code, eta, rng)
            return command, ["ingest", self._rel(path), "--out", self._rel(out)], 0, [out]
        if command == "fv":
            if n % 4 < 2:
                source = ["--samples", self._rel(self._sample_file(f"fv-{n}", code, eta, rng))]
            else:
                source = ["--code", code, "--loss", str(eta)]
            select = ["--orbits", _ORBITS_ARG] if n % 2 else ["--events", "2,4,6,8"]
            return command, ["fv", *source, *select, "--out", self._rel(out)], 0, [out]
        if command == "deviation":
            path = self._sample_file(f"deviation-{n}", code, eta, rng)
            return command, ["deviation", "--samples", self._rel(path),
                             "--out", self._rel(out)], 0, [out]
        raise ValueError(command)

    def _invalid_job(self, kind, code, rng):
        out = self.outs / kind
        if kind == "classify-bad-code":
            args = ["classify", "".join(rng.choice(["0", "1", "2"], size=9))]
        elif kind == "embed-not-embeddable":
            args = ["embed", "0000000000"]
        elif kind == "simulate-bad-loss":
            args = ["simulate", code, "--shots", "10", "--loss", "1.5", "--out", self._rel(out)]
        elif kind == "ingest-bad-line":
            path = self._sample_file("bad-line", code, 0.9, rng)
            lines = path.read_text().splitlines()
            lines.insert(int(rng.integers(2, len(lines))), "[1, 2, 3]")
            path.write_text("\n".join(lines) + "\n")
            args = ["ingest", self._rel(path)]
        elif kind == "ingest-empty":
            path = self.inputs / "empty.samples"
            path.write_text("# no shots\n\n")
            args = ["ingest", self._rel(path)]
        elif kind == "fv-no-input":
            args = ["fv", "--events", "2,4", "--out", self._rel(out)]
        elif kind == "ingest-bad-meta":
            path = self._sample_file("bad-meta", code, 0.9, rng)
            engine.meta_path_for(path).write_text('{"code": "' + code + '", "loss": ')
            args = ["ingest", self._rel(path)]
        elif kind == "simulate-negative-seed":
            args = ["simulate", code, "--shots", "10", "--seed", "-1", "--out", self._rel(out)]
        else:
            raise ValueError(kind)
        return kind, args, 2, []

    # -- passes ------------------------------------------------------------

    def _rel(self, path: Path) -> str:
        return str(path.relative_to(self.work))

    def command(self, args):
        return self.runner.invoke(cli.cli, args, catch_exceptions=True)

    def run_pass(self, p: Pass) -> None:
        # Commands take paths relative to the work directory, so outputs that
        # echo a path do not depend on where the checkout lives.
        home = os.getcwd()
        os.chdir(self.work)
        try:
            p.results["commands"] = [self._run_job(p, *job) for job in self.jobs]
        finally:
            os.chdir(home)

    def _run_job(self, p: Pass, kind, args, expected, outputs):
        res = p.op(kind, self.command, args, span="cli")
        if res is None:
            return None
        if res.exit_code != expected:
            if kind in KNOWN_DEFECTS:
                p.unexpected_exits += 1
            else:
                p.failures.append(f"{' '.join(args)}: exit {res.exit_code}, expected "
                                  f"{expected}: {res.output[-300:]!r} {res.exception!r}")
        return (res.exit_code, res.output,
                [file_digest(f) for f in outputs if f.exists()])

    def digest(self, p: Pass) -> None:
        p.digests = {}
        for i, ((kind, args, _, _), res) in enumerate(zip(self.jobs, p.results["commands"])):
            p.digests[f"{i} {kind}"] = hashlib.sha256(
                json.dumps(res).encode()).hexdigest()

    def check(self, p: Pass) -> list[str]:
        bad = []
        for (kind, args, expected, outputs), res in zip(self.jobs, p.results["commands"]):
            if res is None or expected != 0 or res[0] != 0:
                continue
            if kind == "enumerate-json":
                counts = json.loads(outputs[0].read_text())["class_counts"]
                if counts != REFERENCE_CLASS_COUNTS:
                    bad.append(f"enumerate: class counts {counts}")
            if kind == "classify":
                for entry in json.loads(res[1]):
                    if not entry["embeddable"]:
                        continue
                    rank = len(oracle.blocks(entry["code"]))
                    if entry["rank"] != rank:
                        bad.append(f"classify {entry['code']}: rank {entry['rank']} != {rank}")
        return bad


WORKLOADS = {w.name: w for w in (PaperRun, TheorySweep, CliJobs)}
