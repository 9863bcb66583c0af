#!/usr/bin/env python3
"""TSNN repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
libtsnn, bench/run_scenarios, bench/tsnn_serve and the benchmark's own
executor (perfbench/tool.cpp and friends) into $CARGO_TARGET_DIR or
.bench_build, and trains the TSNN_FAST zoo there; later runs reuse both.

Workloads (all on the TSNN_FAST zoo scale: 2 conv blocks, width 8):
  sweep_paper  run_scenarios --suite paper on a warm zoo, 4 grid workers,
               8 images per cell: the paper's coding x noise grid.
  serve_mixed  tsnn_serve (2 workers, max_batch 8, deadline 0) driven over
               its line protocol in closed-loop rounds. Clean requests over
               {s-mnist, s-cifar10} x {rate, burst, ttfs, ttas(5)} x 64
               images. The traced run adds the open-loop phases.
  cold_start   an empty zoo directory, then the sweep_paper sweep: dataset
               generation, training, conversion and artifact writes before
               the first image.

Every workload reports the same metrics: --trace 0 the end_to_end set of
BENCHMARK.json, --trace 1 (a separate traced run, spans recorded around
calls into the library) its per_layer set. Figures a workload measures
beyond that set are printed as lines but stay out of the JSON result.
Every run checks the outputs; the last stdout line is the JSON result,
and the exit code is 1 when a check fails.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import stats  # noqa: E402

WORKLOADS = ("sweep_paper", "serve_mixed", "cold_start")
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_REPEATS = 3
MAX_REPEATS = 12
CHILD_TIMEOUT_S = 170
# The per-stage self times of a traced image must cover its sim span to
# within this share (the rest is the replica's own loop and rng setup).
TRACE_TOLERANCE = 0.05
DEFAULT_SEED = 1


class SetupError(Exception):
    """The benchmark cannot run here (no source tree, build failure)."""


# ------------------------------------------------------------------ build --

def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(bdir):
    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(root, need)):
            raise SetupError(f"no {need} here: run from the repository root")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "run_scenarios", "tsnn_serve", "tsnn_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise SetupError(f"build step failed: {' '.join(cmd)} "
                                 f"(see {log.name})")
    return {
        "run_scenarios": os.path.join(bdir, "tsnn", "run_scenarios"),
        "tsnn_serve": os.path.join(bdir, "tsnn", "tsnn_serve"),
        "tool": os.path.join(bdir, "tsnn_perfbench"),
    }


def tool_env(zoo_dir):
    env = dict(os.environ)
    for key in ("TSNN_STEPPED", "TSNN_NO_MMAP", "TSNN_BENCH_IMAGES",
                "TSNN_BENCH_SEED", "TSNN_BENCH_THREADS", "TSNN_BENCH_OUT",
                "TSNN_BENCH_JSON"):
        env.pop(key, None)
    env["TSNN_FAST"] = "1"
    env["TSNN_ZOO_DIR"] = zoo_dir
    return env


def run_child(cmd, env, log_path):
    """Runs `cmd` to completion in its own process group (killed whole on
    timeout). Returns (wall seconds, peak RSS KiB, exit code)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S,
                                lambda: os.killpg(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def ensure_warm_zoo(bins, cfg, zoo_dir, tmp):
    """Trains and converts the zoo models once per build dir."""
    if len(glob.glob(os.path.join(zoo_dir, "*.tsnz"))) >= len(cfg["datasets"]):
        return
    out = os.path.join(tmp, "zoo_prep")
    _, _, code = run_child([bins["run_scenarios"], "--suite", "devices",
                            "--images", "1", "--threads", "4", "--out", out],
                           tool_env(zoo_dir), os.path.join(tmp, "zoo_prep.log"))
    if code != 0:
        raise SetupError("zoo preparation failed")


# ------------------------------------------------------------- provenance --

def tool_config(bins):
    """Provenance and the benchmark's fixed configuration, as
    `tsnn_perfbench info` prints them from perfbench/tool.h."""
    info = {}
    out = subprocess.run([bins["tool"], "info"], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        info[key] = value
    cfg = {key: int(info[key]) for key in (
        "nproc", "sweep_images", "sweep_threads", "serve_threads",
        "serve_max_batch", "serve_images")}
    cfg.update({key: info[key] for key in ("isa", "compiler", "build_type",
                                           "sweep_suite")})
    cfg["datasets"] = info["zoo_datasets"].split(",")
    return cfg


def provenance(cfg, workload, seed, trace, threads):
    root = os.getcwd()
    revision = None
    if os.path.isdir(os.path.join(root, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if git.returncode == 0:
            revision = "git:" + git.stdout.strip()
    if revision is None:
        digest = hashlib.sha256()
        files = [os.path.join(root, "CMakeLists.txt")]
        for top in ("src", "bench", os.path.relpath(HERE, root)):
            for base, _, names in os.walk(os.path.join(root, top)):
                files += [os.path.join(base, n) for n in names]
        for path in sorted(files):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
        revision = "source-sha256:" + digest.hexdigest()[:16]
    return {"workload": workload, "trace": trace, "seed": seed,
            "isa": cfg["isa"], "nproc": cfg["nproc"],
            "worker_threads": threads, "zoo_scale": "TSNN_FAST=1",
            "build_type": cfg["build_type"], "compiler": cfg["compiler"],
            "revision": revision}


# ---------------------------------------------------------------- results --

class Result:
    def __init__(self):
        self.metrics = {}
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def metric(self, name, value, unit, samples):
        self.metrics[name] = {"value": value, "unit": unit}
        self.samples[name] = samples

    def count(self, label, attempted, failed):
        self.attempted += attempted
        self.failed += failed
        print(f"ops {label}: attempted {attempted}, succeeded "
              f"{attempted - failed}, failed {failed}")

    def problem(self, text):
        self.problems.append(text)
        print(f"CHECK FAILED: {text}")

    def emit(self, wanted):
        """Prints every metric as a line and the JSON result holding the
        `wanted` ones (name -> unit); a wanted metric that is missing, in
        another unit or not finite fails the run."""
        for name, m in self.metrics.items():
            note = "" if name in wanted else " [not in the manifest]"
            print(f"metric {name} = {m['value']:.6g} {m['unit']} "
                  f"(n={self.samples[name]}){note}")
        for name, unit in wanted.items():
            m = self.metrics.get(name)
            if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
                self.problem(f"metric {name} ({unit}) was not measured")
        correct = not self.problems and self.failed == 0
        metrics = {name: self.metrics[name] for name in wanted
                   if name in self.metrics}
        print(json.dumps({"correct": correct,
                          "attempted": max(1, self.attempted),
                          "failed": self.failed, "metrics": metrics}))
        return 0 if correct else 1


def manifest_metrics(trace):
    """Name -> unit of the metrics a run reports: the end_to_end set of
    BENCHMARK.json, or its per_layer set for a traced run."""
    with open(MANIFEST) as f:
        doc = json.load(f)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------------ sweeps --

def suite_doc(path):
    """The metrics and rows of a scenario-suite JSON document."""
    with open(path) as f:
        doc = json.load(f)
    rows = [dict(r, scenario=s["name"]) for s in doc["scenarios"]
            for r in s["rows"]]
    return doc["metrics"], rows


def suite_run(bins, ctx, env, tag, suite):
    """One run_scenarios process; returns its measurements and rows."""
    cfg = ctx["cfg"]
    out = os.path.join(ctx["tmp"], tag)
    doc_path = os.path.join(out, "suite.json")
    wall, rss_kb, code = run_child(
        [bins["run_scenarios"], "--suite", suite, "--images",
         str(cfg["sweep_images"]), "--seed", str(ctx["seed"]), "--threads",
         str(cfg["sweep_threads"]), "--out", out, "--json", doc_path], env,
        os.path.join(ctx["tmp"], tag + ".log"))
    if code != 0 or not os.path.exists(doc_path):
        return None
    m, rows = suite_doc(doc_path)
    shutil.rmtree(out, ignore_errors=True)
    return {"wall": wall, "rss_mb": rss_kb / 1024.0,
            "sweep_s": m["sweep_seconds"], "images": m["images_executed"],
            "setup_s": wall - m["sweep_seconds"], "rows": rows,
            "zoo_hits": m["zoo_artifact_hits"], "zoo_loads": m["zoo_loads"]}


def replica_rows(bins, ctx, env, spans):
    """Rows of the sweep suite from the benchmark's own replica, plus the
    replica's other records."""
    tmp = ctx["tmp"]
    out = os.path.join(tmp, "replica.txt")
    doc_path = os.path.join(tmp, "replica.json")
    _, _, code = run_child(
        [bins["tool"], "sweep", "--seed", str(ctx["seed"]), "--spans",
         "1" if spans else "0", "--json", doc_path, "--csv-dir",
         os.path.join(tmp, "csv"), "--out", out], env,
        os.path.join(tmp, "replica.log"))
    if code != 0 or not os.path.exists(doc_path):
        return None, None
    return suite_doc(doc_path)[1], read_records(out)


def compare_rows(result, label, rows, reference):
    """Counts cells whose row differs from the reference row."""
    if rows is None or reference is None:
        result.problem(f"{label}: missing rows")
        return
    bad = sum(1 for a, b in zip(rows, reference) if a != b)
    bad += abs(len(rows) - len(reference))
    result.count(label, max(len(rows), len(reference)), bad)


def rows_digest(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_pin(result, rows, ctx):
    with open(os.path.join(HERE, "pins.json")) as f:
        pin = json.load(f)["sweep_paper"]
    if ((ctx["seed"], ctx["cfg"]["isa"], ctx["cfg"]["sweep_images"]) !=
            (pin["seed"], pin["isa"], pin["images"])):
        print(f"digest pin: not applicable (pinned for seed {pin['seed']}, "
              f"{pin['images']} images, {pin['isa']}); replica comparison only")
        return
    digest = rows_digest(rows)
    print(f"digest pin: {digest} (pinned {pin['rows_sha256']})")
    if digest != pin["rows_sha256"]:
        result.problem("sweep_paper rows differ from the pinned digest")


def repeat(seconds, body):
    """Runs body() MIN_REPEATS times, then again while another run fits
    in `seconds` at the mean duration so far."""
    start = time.perf_counter()
    runs = []
    while len(runs) < MAX_REPEATS:
        elapsed = time.perf_counter() - start
        if (len(runs) >= MIN_REPEATS and
                elapsed + elapsed / len(runs) > seconds):
            break
        runs.append(body(len(runs)))
    return runs


def sweep_metrics(result, reps):
    n = len(reps)
    result.metric("setup_s", stats.median([r["setup_s"] for r in reps]), "s", n)
    result.metric("peak_rss_mb", max(r["rss_mb"] for r in reps), "MB", n)
    result.metric("images_per_s",
                  stats.median([r["images"] / r["sweep_s"] for r in reps]),
                  "1/s", n)


def sweep_paper(bins, ctx, result):
    env = tool_env(ctx["zoo"])
    suite = ctx["cfg"]["sweep_suite"]
    reps = repeat(ctx["seconds"],
                  lambda k: suite_run(bins, ctx, env, f"rep{k}", suite))
    if any(r is None for r in reps):
        result.problem("run_scenarios failed")
        return
    reference, _ = replica_rows(bins, ctx, env, False)
    for k, rep in enumerate(reps):
        compare_rows(result, f"sweep_paper repeat {k} cells", rep["rows"],
                     reference)
    check_pin(result, reps[0]["rows"], ctx)
    sweep_metrics(result, reps)


def cold_start(bins, ctx, result):
    def cold(k):
        zoo = os.path.join(ctx["tmp"], "cold_zoo")
        shutil.rmtree(zoo, ignore_errors=True)
        rep = suite_run(bins, ctx, tool_env(zoo), f"cold{k}",
                        ctx["cfg"]["sweep_suite"])
        if rep is not None:
            rep["artifacts"] = len(glob.glob(os.path.join(zoo, "*.tsnz")))
        return rep

    reps = repeat(ctx["seconds"], cold)
    if any(r is None for r in reps):
        result.problem("run_scenarios failed")
        return
    # Fresh conversion must give the rows the warm zoo's artifacts give.
    warm, _ = replica_rows(bins, ctx, tool_env(ctx["zoo"]), False)
    datasets = len(ctx["cfg"]["datasets"])
    for k, rep in enumerate(reps):
        result.count(f"cold_start repeat {k} artifacts", datasets,
                     datasets - rep["artifacts"])
        if rep["zoo_hits"] != 0:
            result.problem(f"cold repeat {k} hit the artifact cache")
        compare_rows(result, f"cold_start repeat {k} cells (vs warm zoo)",
                     rep["rows"], warm)
    check_pin(result, reps[0]["rows"], ctx)
    sweep_metrics(result, reps)


# ----------------------------------------------------------------- serving --

def write_schedule(ctx, open_loop):
    phases = stats.make_schedule(ctx["seed"], ctx["seconds"],
                                 ctx["cfg"]["serve_images"], open_loop)
    path = os.path.join(ctx["tmp"], "schedule.txt")
    with open(path, "w") as f:
        f.write(stats.schedule_text(phases))
    return phases, path


def read_records(path):
    records = {}
    with open(path) as f:
        for line in f:
            fields = line.split()
            if fields:
                records.setdefault(fields[0], []).append(fields[1:])
    return records


def drive(bins, ctx, phases, schedule, verify):
    out = os.path.join(ctx["tmp"], "drive.txt")
    _, _, code = run_child(
        [bins["tool"], "drive", "--server", bins["tsnn_serve"], "--schedule",
         schedule, "--verify", "1" if verify else "0", "--out", out],
        tool_env(ctx["zoo"]), os.path.join(ctx["tmp"], "drive.log"))
    return (read_records(out) if code == 0 and os.path.exists(out) else None)


def phase_ranges(phases):
    """(name, kind, request ids) of every phase in schedule order."""
    first = 0
    for name, kind, _, reqs in phases:
        yield name, kind, range(first, first + len(reqs))
        first += len(reqs)


def serve_replies(result, phases, records):
    """Per request id: the reply, or None when it failed (err line, no
    reply, or a result that differs from in-process execute_request)."""
    expect = {int(e[0]): e[1:] for e in records.get("E", [])}
    replies = {}
    for r in records.get("R", []):
        rid = int(r[1])
        ok = r[5] == "1" and expect.get(rid) == r[6:9]
        replies[rid] = {"sched": int(r[2]), "send": int(r[3]),
                        "recv": int(r[4]), "queue_us": int(r[9]),
                        "run_us": int(r[10])} if ok else None
    totals = {}
    for name, _, ids in phase_ranges(phases):
        sent, bad = totals.get(name, (0, 0))
        totals[name] = (sent + len(ids),
                        bad + sum(1 for i in ids if replies.get(i) is None))
    for name, (sent, bad) in totals.items():
        result.count(f"serve {name} requests", sent, bad)
    return replies


def pooled_phases(phases):
    """Phase name -> (kind, [id ranges of its rounds]), warm-up excluded."""
    pooled = {}
    for name, kind, ids in phase_ranges(phases):
        if name != "warmup":
            pooled.setdefault(name, (kind, []))[1].append(ids)
    return pooled


def serve_phases(result, phases, replies):
    """Per phase name: open-loop latency p50/p99 (ms, from each request's
    scheduled send), or for the closed phase images_per_s, its completed
    requests per second (one request is one image)."""
    for name, (kind, rounds) in pooled_phases(phases).items():
        got = [[replies.get(i) for i in ids] for ids in rounds]
        n = sum(len(r) for r in got)
        if kind == "open":
            # Each round's percentile, then the median over rounds: a stall
            # that hits one round does not decide the run's tail.
            lat = [[(g["recv"] - g["sched"]) / 1e6 if g else math.inf
                    for g in r] for r in got]
            for q in (50, 99):
                per_round = [stats.percentile(r, q) for r in lat]
                result.metric(f"{name}.p{q}_ms", stats.median(per_round), "ms",
                              n)
                print(f"{name}.p{q}_ms per round: " + ", ".join(
                    f"{v:.3f} (n={len(r)})" for v, r in zip(per_round, lat)))
            late = [(g["send"] - g["sched"]) / 1e6 for r in got for g in r if g]
            if late:
                print(f"{name}: generator lateness p99 = "
                      f"{stats.percentile(late, 99):.3f} ms (n={len(late)})")
        else:
            # Completed requests over each round's busy span; the median
            # over rounds. A failed request does not count as completed.
            rates = []
            for r in got:
                done = [g for g in r if g]
                if done:
                    busy_s = (max(g["recv"] for g in done) -
                              min(g["send"] for g in done)) / 1e9
                    rates.append(len(done) / busy_s)
            print(f"{name} req/s per round: " +
                  ", ".join(f"{v:.1f}" for v in rates))
            result.metric("images_per_s",
                          stats.median(rates) if rates else 0.0, "1/s", n)


def serve_mixed(bins, ctx, result):
    phases, schedule = write_schedule(ctx, open_loop=False)
    records = drive(bins, ctx, phases, schedule, verify=True)
    if records is None:
        result.problem("tsnn_perfbench drive failed")
        return
    replies = serve_replies(result, phases, records)
    setups = [float(s[0]) for s in records.get("SETUP", [])]
    result.metric("setup_s", stats.median(setups), "s", len(setups))
    result.metric("peak_rss_mb", int(records["RSS"][0][0]) / 1024.0, "MB", 1)
    serve_phases(result, phases, replies)
    print(f"server {' '.join(records.get('STATS', [['']])[0])}")


# ------------------------------------------------------------------ traces --

def read_spans(records):
    names = {int(n[0]): n[1] for n in records.get("N", [])}
    spans = []
    for s in records.get("S", []):
        index, parent, name, key, count, start, end = map(int, s)
        spans.append((index, parent, names[name], key, count, start, end))
    return spans


def sim_layers(result, spans, codings):
    """Per-coding simulator metrics from the traced replica's spans."""
    selfs = stats.self_times({s[0]: (s[1], s[5], s[6]) for s in spans})
    by_name = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    for coding in codings:
        sims = by_name.get(f"sim.{coding}", [])
        n = len(sims)
        if n == 0:
            result.problem(f"no traced images for coding {coding}")
            continue

        def per_image_us(spans_, use_self=True):
            total = sum(selfs[s[0]] if use_self else s[6] - s[5]
                        for s in spans_)
            return total / n / 1000.0

        sim_us = per_image_us(sims, use_self=False)
        ref_us = per_image_us(by_name.get(f"ref.{coding}", []), use_self=False)
        result.metric(f"sim.{coding}.us_per_image", sim_us, "us", n)
        result.metric(f"trace.{coding}.overhead_us", sim_us - ref_us, "us", n)
        for layer in ("encode", "readout"):
            result.metric(f"{layer}.{coding}.us",
                          per_image_us(by_name.get(f"{layer}.{coding}", [])),
                          "us", n)
        stage_total = 0.0
        prop_total = 0.0
        macs = 0
        prefix = f"stage.{coding}."
        for name in sorted(k for k in by_name if k.startswith(prefix)):
            stage = name[len(prefix):]
            us = per_image_us(by_name[name])
            stage_total += us
            result.metric(f"{name}.us", us, "us", n)
            result.metric(f"{name}.spikes_out",
                          sum(s[4] for s in by_name[name]), "count", n)
            replay = by_name.get(f"propagate.{coding}.{stage}", [])
            prop_total += per_image_us(replay, use_self=False)
            macs += sum(s[4] for s in replay)
        result.metric(f"propagate.{coding}.us", prop_total, "us", n)
        result.metric(f"fire.{coding}.us", stage_total - prop_total, "us", n)
        result.metric(f"propagate.{coding}.macs", macs, "count", n)
        # Trace sanity: the child self times must account for the sim span.
        sim_ids = {s[0] for s in sims}
        covered = sum(s[6] - s[5] for s in spans if s[1] in sim_ids)
        share = covered / sum(s[6] - s[5] for s in sims)
        print(f"trace sanity {coding}: children cover {share:.4f} of sim "
              f"(tolerance {TRACE_TOLERANCE})")
        if abs(1.0 - share) > TRACE_TOLERANCE:
            result.problem(f"{coding}: stage spans cover only {share:.3f} of "
                           f"the traced sim time")
    return by_name


def zoo_layers(result, by_name):
    loads = by_name.get("zoo.load", [])
    gens = by_name.get("data.generate", [])
    result.metric("zoo.load_s", sum(s[6] - s[5] for s in loads) / 1e9, "s",
                  len(loads))
    result.metric("zoo.hit_ratio",
                  sum(s[4] for s in loads) / max(1, len(loads)), "ratio",
                  len(loads))
    result.metric("data.generate_s", sum(s[6] - s[5] for s in gens) / 1e9, "s",
                  len(gens))


def trace_sweep(bins, ctx, result, zoo_dir):
    """The traced replica of the sweep on the models in `zoo_dir`, plus an
    untraced run_scenarios run there for grid.efficiency. Returns the
    spans by name, or None when a run failed."""
    env = tool_env(zoo_dir)
    rows, records = replica_rows(bins, ctx, env, True)
    untraced = suite_run(bins, ctx, env, "grid", ctx["cfg"]["sweep_suite"])
    if rows is None or untraced is None:
        result.problem("traced sweep failed")
        return None
    compare_rows(result, "sweep cells (grid workers vs traced 1 thread)",
                 untraced["rows"], rows)
    check_pin(result, rows, ctx)
    info = records["I"][0]
    mismatches = int(info[info.index("mismatches") + 1])
    result.count("traced images (replica vs execute_request)",
                 int(info[info.index("images") + 1]), mismatches)
    spans = read_spans(records)
    by_name = sim_layers(result, spans,
                         ("rate", "phase", "burst", "ttfs", "ttas"))
    for kind in ("deletion", "jitter"):
        noise = by_name.get(f"noise.{kind}", [])
        images = len({s[3] for s in noise})
        result.metric(f"noise.{kind}.us",
                      sum(s[6] - s[5] for s in noise) / max(1, images) / 1000.0,
                      "us", images)
    serial_s = sum(s[6] - s[5] for s in spans if s[2].startswith("ref.")) / 1e9
    workers = ctx["cfg"]["sweep_threads"]
    result.metric("grid.efficiency", serial_s / (workers * untraced["sweep_s"]),
                  "ratio", 1)
    result.metric("grid.images", untraced["images"], "count", 1)
    writes = by_name.get("report.write", [])
    result.metric("report.write_s", sum(s[6] - s[5] for s in writes) / 1e9, "s",
                  len(writes))
    return by_name


def trace_sweep_paper(bins, ctx, result):
    by_name = trace_sweep(bins, ctx, result, ctx["zoo"])
    if by_name is not None:
        zoo_layers(result, by_name)


def serve_split(result, phases, records):
    """Queue wait, in-batch wait and execution per request of the
    in-process server, pooled over the measured phases."""
    measured = {i for _, rounds in pooled_phases(phases).values()
                for ids in rounds for i in ids}
    done = [r for r in records.get("R", []) if int(r[1]) in measured]
    failed = sum(1 for r in done if r[8] != "1")
    result.count("in-process server requests", len(measured),
                 failed + len(measured) - len(done))
    batches = {}
    for r in done:
        if r[8] == "1":
            batches.setdefault((r[0], r[7], int(r[4])), []).append(
                (int(r[5]), int(r[3]), int(r[4])))
    queue, wait, execute = [], [], []
    for members in batches.values():
        previous = None
        for done_ns, submit_ns, start_ns in sorted(members):
            begin = start_ns if previous is None else previous
            queue.append((start_ns - submit_ns) / 1000.0)
            wait.append((begin - start_ns) / 1000.0)
            execute.append((done_ns - begin) / 1000.0)
            previous = done_ns
    for name, values in (("queue_wait", queue), ("batch_wait", wait),
                         ("exec", execute)):
        for q in (50, 99):
            result.metric(f"serve.{name}_us.p{q}", stats.percentile(values, q),
                          "us", len(values))
    result.metric("serve.mean_batch", len(queue) / max(1, len(batches)),
                  "count", len(batches))
    # Requests waiting in the server's queue (submitted, not started) at
    # each submit, worst round per open phase name; the warm-up and the
    # closed phases, whose depth their window sets, are left out.
    depth = {}
    for name, (kind, rounds) in pooled_phases(phases).items():
        if kind == "open":
            for ids in rounds:
                waits = [(int(r[3]), int(r[4])) for r in done
                         if int(r[1]) in ids and r[8] == "1"]
                depth[name] = max(depth.get(name, 0),
                                  stats.max_queue_depth(waits))
    print("serve queue depth max per open phase: " +
          ", ".join(f"{name} {d}" for name, d in depth.items()))
    result.metric("serve.max_queue_depth", max(depth.values()), "count",
                  len(depth))
    return sum(queue) + sum(wait) + sum(execute), len(queue)


def trace_serve_mixed(bins, ctx, result):
    phases, schedule = write_schedule(ctx, open_loop=True)
    out = os.path.join(ctx["tmp"], "serve.txt")
    _, _, code = run_child(
        [bins["tool"], "serve", "--schedule", schedule, "--out", out],
        tool_env(ctx["zoo"]), os.path.join(ctx["tmp"], "serve.log"))
    external = drive(bins, ctx, phases, schedule, verify=True)
    if code != 0 or external is None:
        result.problem("traced serve run failed")
        return
    # tsnn_serve under the open-loop phases and the closed loop.
    serve_phases(result, phases, serve_replies(result, phases, external))
    records = read_records(out)
    info = records["I"][0]
    result.count("profiled requests (replica vs execute_request)",
                 int(info[info.index("profiled") + 1]),
                 int(info[info.index("mismatches") + 1]))
    by_name = sim_layers(result, read_spans(records),
                         ("rate", "burst", "ttfs", "ttas"))
    zoo_layers(result, by_name)
    server_us, server_n = serve_split(result, phases, records)

    measured = {i for _, rounds in pooled_phases(phases).values()
                for ids in rounds for i in ids}
    transport, client = [], []
    for r in external.get("R", []):
        if int(r[1]) in measured and r[5] == "1":
            latency_us = (int(r[4]) - int(r[3])) / 1000.0
            client.append(latency_us)
            transport.append(latency_us - int(r[9]) - int(r[10]))
    for q in (50, 99):
        result.metric(f"serve.transport_us.p{q}",
                      stats.percentile(transport, q), "us", len(transport))
    # Mean client latency against the mean of queue + batch wait + exec
    # (in-process run) + transport (tsnn_serve run): 1.0 = fully explained.
    explained = server_us / max(1, server_n) + sum(transport) / len(transport)
    result.metric("serve.split_share", explained / (sum(client) / len(client)),
                  "ratio", len(client))


def trace_cold_start(bins, ctx, result):
    """The zoo layers timed one dataset at a time on an empty zoo, then the
    sweep traced on the models just written."""
    zoo = os.path.join(ctx["tmp"], "cold_zoo")
    shutil.rmtree(zoo, ignore_errors=True)
    out = os.path.join(ctx["tmp"], "zoo.txt")
    _, _, code = run_child([bins["tool"], "zoo", "--out", out], tool_env(zoo),
                           os.path.join(ctx["tmp"], "zoo.log"))
    if code != 0:
        result.problem("traced cold start failed")
        return
    rows = read_records(out).get("Z", [])
    datasets = len(ctx["cfg"]["datasets"])
    result.count("cold_start artifacts", datasets,
                 datasets - sum(1 for z in rows if z[10] == "1"))
    gen = sum(float(z[1]) for z in rows)
    train = sum(float(z[2]) for z in rows)
    samples = sum(int(z[4]) * int(z[5]) for z in rows if z[3] == "1")
    result.metric("data.generate_s", gen, "s", len(rows))
    result.metric("dnn.train_s", train, "s", len(rows))
    result.metric("dnn.train_samples_per_s", samples / train, "1/s", len(rows))
    result.metric("convert.s", sum(float(z[6]) for z in rows), "s", len(rows))
    result.metric("zoo.load_s", sum(float(z[8]) for z in rows), "s", len(rows))
    result.metric("zoo.hit_ratio", sum(int(z[7]) for z in rows) / len(rows),
                  "ratio", len(rows))
    if any(z[3] != "1" or z[7] != "0" for z in rows):
        result.problem("cold start found a warm cache")
    if any(z[9] != "1" for z in rows):
        result.problem("a freshly written artifact did not load back")
    trace_sweep(bins, ctx, result, zoo)


# Each run's function and the configuration key of its worker threads
# (None: one thread).
RUNNERS = {
    ("sweep_paper", 0): (sweep_paper, "sweep_threads"),
    ("serve_mixed", 0): (serve_mixed, "serve_threads"),
    ("cold_start", 0): (cold_start, "sweep_threads"),
    ("sweep_paper", 1): (trace_sweep_paper, None),
    ("serve_mixed", 1): (trace_serve_mixed, "serve_threads"),
    ("cold_start", 1): (trace_cold_start, None),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        wanted = manifest_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        print(f"setup failed: no usable {MANIFEST}: {e}", file=sys.stderr)
        return 2
    bdir = build_dir()
    try:
        bins = build(bdir)
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix="run-", dir=bdir)
    try:
        cfg = tool_config(bins)
        zoo = os.path.join(bdir, "zoo")
        ensure_warm_zoo(bins, cfg, zoo, tmp)
        runner, threads = RUNNERS[(args.workload, args.trace)]
        prov = provenance(cfg, args.workload, args.seed, args.trace,
                          cfg[threads] if threads else 1)
        print("provenance " + json.dumps(prov))
        ctx = {"seed": args.seed, "seconds": args.seconds, "tmp": tmp,
               "zoo": zoo, "cfg": cfg}
        result = Result()
        runner(bins, ctx, result)
        return result.emit(wanted)
    except SetupError as e:
        print(f"setup failed: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
