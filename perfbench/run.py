#!/usr/bin/env python3
"""The repository benchmark: seeded integration workloads through `mui`.

    python3 perfbench/run.py --workload loop-heavy --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds `mui`, the reference adapter and the
benchmark's traced runner from source (perfbench/CMakeLists.txt) into
--build-dir (default .bench_build/perfbench), generates the
workload's inputs from the seed, runs it for --seconds, checks every
verdict against its known answer and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ledger. A wrong verdict exits 1; a broken checkout exits 2.
Inputs and outputs go to --work (default: runs/ beside the build
directory). See perfbench/README.md.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # running leaves the checkout as it was
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

THREADS = 2          # mui batch --jobs / mui serve --threads
LATENCY_LIMIT_MS = 250.0
# serve-open's ladder: offered jobs/s and each rung's share of the run. On
# the 4-core machine this was sized on, the first rung loads the daemon to
# about a fifth, the second to about two fifths, and the third overloads
# it, even when contention from outside slows the machine down or lets it
# run faster by a third. Most requests go to the lightly loaded rungs,
# whose verdict times are reported: queueing multiplies every change in the
# machine's speed. The top rung only has to show the overload: its backlog
# takes about as long again to drain as the rung to send.
SERVE_RUNGS = [(30, 0.5), (60, 0.4), (320, 0.1)]
QUEUE_LIMIT = 4096  # mui serve --queue-limit: the top rung queues, never sheds
# Tail percentile per workload, taken per round of a batch workload and per
# window of SERVE_WINDOW consecutive requests on serve-open's passing rungs,
# and reported as the median over rounds or windows: a percentile pooled
# over a run follows the few seconds in which a shared machine stalls
# (fsync, a neighbour's burst) rather than the program. At least ten
# samples lie beyond each round's or window's percentile, except in
# loop-heavy's rounds of 16 jobs.
TAIL = {"loop-heavy": 90, "campaign-ci": 95, "serve-open": 95}
SERVE_WINDOW = 200
CROSSCHECK_JOBS = 6
SERVE_STARTS = 15
FAILED_STATUSES = {"engine-error", "timeout", "adapter-failure", "shed"}


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---- build --------------------------------------------------------------

def build(root, out):
    for need in ("src", "tools/mui.cpp", "tools/adapter_automaton.cpp",
                 "models/watchdog.muml", "models/railcab.muml"):
        if not os.path.exists(os.path.join(root, need)):
            die(f"not a repository checkout: {need} is missing")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return out


# ---- statistics ---------------------------------------------------------

def pct(values, p):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(1, math.ceil(len(s) * p / 100)) - 1])


def median(values):
    return float(statistics.median(values)) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---- processes ----------------------------------------------------------

def durable_copy(src, dst):
    """Copies a cache log and syncs it, so the program's first fsync'd
    append does not also write back the copy. Each process that appends to
    a copy has exited before the next copy is made, so one file is reused
    and a run does not leave a log behind per round."""
    shutil.copyfile(src, dst)
    fd = os.open(dst, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return dst


def run_measured(cmd, env, stdout_path):
    """Runs cmd to completion; returns (wall s, exit code, rusage)."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, ru


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Run:
    """One benchmark invocation: paths, seed, and the verdict gate."""

    def __init__(self, args, bindir, work):
        self.args, self.bindir, self.work = args, bindir, work
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.mui = os.path.join(bindir, "mui")
        self.env = dict(os.environ, MUI_ADAPTER_PATH=bindir)
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def gate(self, job, status):
        """Counts one attempted job; a definitive verdict other than the
        known answer is wrong, a failed job is counted as failed."""
        self.attempted += 1
        if status in FAILED_STATUSES:
            self.failed += 1
        elif status != job.expect:
            self.wrong.append(f"{job.name}: got {status}, expected {job.expect}")

    def crosscheck(self, jobs):
        """Known answers vs ctl::ReferenceChecker on the concrete product,
        for a sample of this run's jobs (not timed)."""
        manifest = self.path("crosscheck.manifest")
        gen.write_manifest(manifest, jobs)
        out = subprocess.run(
            [os.path.join(self.bindir, "perfbench_ledger"), "crosscheck",
             manifest], capture_output=True, text=True, env=self.env)
        if out.returncode:
            die("crosscheck failed: " + out.stderr.strip())
        lines = out.stdout.splitlines()
        if len(lines) != len(jobs):
            die(f"crosscheck answered {len(lines)} of {len(jobs)} jobs")
        for job, line in zip(jobs, lines):
            name, verdict, _ = line.split()
            if name != job.name or verdict != job.expect:
                self.wrong.append(f"{job.name}: reference checker says "
                                  f"{verdict}, generator {job.expect}")


# ---- batch workloads ----------------------------------------------------

class Batch:
    """Closed-loop `mui batch --jobs 2` rounds until the time is up."""

    def __init__(self, run):
        self.run = run
        self.rounds = []   # per `mui batch` invocation: its measurements

    def round(self, jobs, manifest, group, cache=None, traced=False):
        r = self.run
        n = len(self.rounds)
        out = r.path(f"out{n}.jsonl")
        cmd = [r.mui, "batch", manifest, "--jobs", str(THREADS), "--out", out]
        if cache:
            cmd += ["--cache", cache]
        if traced:
            cmd += ["--journal-out", r.path(f"journal{n}.jsonl"),
                    "--trace-out", r.path(f"trace{n}.json")]
        wall, code, ru = run_measured(cmd, r.env, r.path(f"stdout{n}.txt"))
        if code not in (0, 1):
            die(f"mui batch exited {code}; see {r.path(f'stdout{n}.txt')}")
        with open(out) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        results, summary = lines[:-1], lines[-1]
        if len(results) != len(jobs):
            die(f"mui batch reported {len(results)} of {len(jobs)} jobs")
        by_name = {j.name: j for j in jobs}
        for res in results:
            r.gate(by_name[res["name"]], res["status"])
        self.rounds.append({
            "jobs": len(jobs), "wall": wall, "traced": traced, "group": group,
            "setup": wall - summary["wallMs"] / 1000.0,
            "batch_ms": summary["wallMs"],
            "job_ms": [res["wallMs"] for res in results],
            "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0,
        })

    def end_to_end(self, tail):
        """Medians over the rounds of each group of identical rounds (one
        group when every round is fresh), so a burst of contention from
        outside that slows a few rounds does not move them, averaged over
        the groups; except the median verdict time, which is pooled over
        every job. Throughput is over the batch's own wall time: process
        start-up is setup_s."""
        rounds = [x for x in self.rounds if not x["traced"]]
        groups = {}
        for x in rounds:
            groups.setdefault(x["group"], []).append(x)

        def over_rounds(f):
            return statistics.fmean(median([f(x) for x in g])
                                    for g in groups.values())
        lat = [v for x in rounds for v in x["job_ms"]]
        return {
            "setup_s": metric(over_rounds(lambda x: x["setup"]), "s"),
            "jobs_per_s": metric(
                over_rounds(lambda x: 1000.0 * x["jobs"] / x["batch_ms"]),
                "1/s"),
            # wallMs has microsecond resolution, and most of campaign-ci's
            # jobs are cache hits of a few microseconds: interpolate within
            # the microsecond the median falls in.
            "verdict_ms_p50": metric(
                statistics.median_grouped(lat, interval=0.001) if lat else 0.0,
                "ms"),
            "verdict_ms_tail": metric(
                over_rounds(lambda x: pct(x["job_ms"], tail)), "ms"),
            "cpu_ms_per_job": metric(
                over_rounds(lambda x: 1000.0 * x["cpu"] / x["jobs"]), "ms"),
            "peak_rss_mb": metric(over_rounds(lambda x: x["rss_mb"]), "MB"),
        }, (f"the median over {len(rounds)} rounds of each round's p{tail:g}"
            if len(groups) == 1 else
            f"the mean over {len(groups)} campaigns of the median over its "
            f"rounds ({len(rounds)} in all) of each round's p{tail:g}")

    def overhead_and_busy(self):
        def jps(traced):
            rs = [x for x in self.rounds if x["traced"] == traced]
            return sum(x["jobs"] for x in rs) / sum(x["wall"] for x in rs)
        busy = (sum(sum(x["job_ms"]) for x in self.rounds) /
                (THREADS * sum(x["batch_ms"] for x in self.rounds)))
        return 100.0 * (jps(False) / jps(True) - 1.0), busy


def batch_workload(run, make_round, cache_for=None, groups=1):
    """Runs rounds for --seconds; round r repeats the job list of round
    r - groups if there is one. With --trace 1 every round runs twice,
    untraced and then traced, and the rounds' manifests are then replayed
    through the ledger for half as long again."""
    seconds, trace = run.args.seconds, run.args.trace
    batch = Batch(run)
    manifests = []
    measured = 0.0
    while measured < seconds or len(manifests) < 3:
        r = len(manifests)
        jobs, manifest = make_round(r)
        if r == 0:
            run.crosscheck(jobs[-CROSSCHECK_JOBS:])
        for traced in ((False, True) if trace else (False,)):
            batch.round(jobs, manifest, r % groups,
                        cache=cache_for(r) if cache_for else None,
                        traced=traced)
            measured += batch.rounds[-1]["wall"]
        manifests.append(manifest)
    if not trace:
        return batch.end_to_end(TAIL[run.args.workload])
    overhead, busy = batch.overhead_and_busy()
    ledger = Ledger(run)
    start = time.perf_counter()
    for r, manifest in enumerate(manifests):
        if r and time.perf_counter() - start > seconds / 2:
            break
        ledger.run(manifest, cache_for(r) if cache_for else None)
    layers = ledger.metrics()
    layers["engine.pool_busy_share"] = metric(busy, "share")
    layers["obs.trace_overhead_pct"] = metric(overhead, "%")
    return layers, None


def fresh_rounds(generate):
    """A batch workload whose every round is a freshly generated job list."""
    def workload(run):
        def make_round(r):
            jobs = generate(run.rng, run.work, r)
            manifest = run.path(f"round{r}.manifest")
            gen.write_manifest(manifest, jobs)
            return jobs, manifest
        return batch_workload(run, make_round)
    return workload


def populate_log(run, jobs, name):
    """Runs jobs untimed through `mui batch --cache`; returns the log."""
    manifest = run.path(f"{name}.manifest")
    gen.write_manifest(manifest, jobs)
    log = run.path(f"{name}.cache.jsonl")
    code = subprocess.run([run.mui, "batch", manifest, "--jobs", str(THREADS),
                           "--cache", log], stdout=subprocess.DEVNULL,
                          env=run.env).returncode
    if code not in (0, 1):
        die(f"populating {log} failed ({code})")
    return log


CI_CAMPAIGNS = 4


def campaign_ci(run):
    """CI re-verification: campaigns over shipped models and seeded
    revisions, each run against a copy of the log its previous CI run
    left behind (made untimed, once per campaign)."""
    shipped = os.path.join(os.getcwd(), "models")
    campaigns = []
    for c in range(CI_CAMPAIGNS):
        campaign, previous = gen.campaign_ci(run.rng, run.work, shipped, c)
        manifest = run.path(f"campaign{c}.manifest")
        gen.write_manifest(manifest, campaign)
        campaigns.append((campaign, manifest,
                          populate_log(run, previous, f"previous{c}")))

    def fresh_log(r):
        return durable_copy(campaigns[r % CI_CAMPAIGNS][2],
                            run.path("cache.jsonl"))

    def make_round(r):
        campaign, manifest, _ = campaigns[r % CI_CAMPAIGNS]
        return campaign, manifest
    return batch_workload(run, make_round, cache_for=fresh_log,
                          groups=CI_CAMPAIGNS)


# ---- the ledger (traced runner) -----------------------------------------

class Ledger:
    def __init__(self, bench):
        self.bench = bench
        self.spans, self.jobs_info, self.iterations = [], [], []
        self.jobs = 0
        self.offset = 0

    def run(self, manifest, cache):
        r = self.bench
        k = len(self.jobs_info)
        spans_path = r.path(f"ledger{k}.spans.jsonl")
        journal_path = r.path(f"ledger{k}.journal.jsonl")
        cmd = [os.path.join(r.bindir, "perfbench_ledger"), "run", manifest,
               "--spans", spans_path, "--journal", journal_path]
        if cache:
            cmd += ["--cache", cache]
        out = subprocess.run(cmd, capture_output=True, text=True, env=r.env)
        if out.returncode:
            die("ledger failed: " + out.stderr.strip())
        spans, jobs = [], []
        with open(spans_path) as f:
            for line in f:
                obj = json.loads(line)
                (spans if obj["type"] == "span" else jobs).append(obj)
        # Span ids are positions within one file; make them global.
        for s in spans:
            if s["parent"] >= 0:
                s["parent"] += self.offset
        self.offset += len(spans)
        self.spans += spans
        self.jobs_info += jobs
        self.jobs += len(jobs)
        with open(journal_path) as f:
            self.iterations += [e for e in map(json.loads, f)
                                if e.get("type") == "iteration"]

    def self_times(self):
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for i, s in enumerate(self.spans):
            d = s["end"] - s["start"]
            tot, own, n = out.get(s["name"], (0.0, 0.0, 0))
            out[s["name"]] = (tot + d, own + d - child[i], n + 1)
        return out

    def metrics(self):
        jobs = max(1, self.jobs)
        st = self.self_times()
        it = self.iterations

        def per_job_ms(name):
            return st.get(name, (0.0, 0.0, 0))[1] / 1000.0 / jobs

        def mean_us(name):
            tot, _, n = st.get(name, (0.0, 0.0, 0))
            return tot / n if n else 0.0

        def durations(name):
            return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

        def phase(field):
            return sum(e[field] for e in it)

        loop_jobs = max(1, sum(1 for j in self.jobs_info if j["iterations"]))
        built = [j["contextStates"] for j in self.jobs_info if j["contextStates"]]
        tried = [j for j in self.jobs_info if j["presolveTried"]]
        has_log = "engine.persistent_replay" in st
        states = phase("productStates")
        m = {
            "muml.load_ms": metric(per_job_ms("muml.load"), "ms"),
            "muml.scenario_ms": metric(per_job_ms("muml.scenario"), "ms"),
            "rtsc.context_states": metric(median(built), "count"),
            "analysis.lint_ms": metric(per_job_ms("analysis.lint"), "ms"),
            "analysis.presolve_ms": metric(per_job_ms("analysis.presolve"), "ms"),
            "analysis.presolve_decided_share": metric(
                sum(j["presolved"] for j in tried) / len(tried) if tried else 0.0,
                "share"),
            "engine.cache_hit_share": metric(
                sum(j["cacheHit"] for j in self.jobs_info) / jobs, "share"),
            "engine.cache_lookup_us": metric(mean_us("engine.cache_lookup"), "us"),
            "engine.persistent_append_us": metric(
                mean_us("engine.cache_store") if has_log else 0.0, "us"),
            "engine.persistent_replay_ms": metric(
                mean_us("engine.persistent_replay") / 1000.0, "ms"),
            "synthesis.loop_ms": metric(
                st.get("synthesis.loop", (0.0, 0.0, 0))[0] / 1000.0 / jobs, "ms"),
            "synthesis.iterations": metric(len(it) / loop_jobs, "count"),
            "synthesis.learned_facts": metric(
                phase("learnedFacts") / loop_jobs, "count"),
            "automata.closure_ms": metric(phase("closureMs") / jobs, "ms"),
            "automata.compose_ms": metric(phase("composeMs") / jobs, "ms"),
            "automata.product_states": metric(states / loop_jobs, "count"),
            "automata.compose_ns_per_state": metric(
                1e6 * phase("composeMs") / states if states else 0.0, "ns"),
            "ctl.check_ms": metric(phase("checkMs") / jobs, "ms"),
            "ctl.cex_share": metric(
                sum(1 for e in it if e["cexKind"]) / len(it) if it else 0.0,
                "share"),
            "testing.test_ms": metric(phase("testMs") / jobs, "ms"),
            "testing.test_periods": metric(phase("testPeriods") / loop_jobs,
                                           "count"),
            "testing.spawn_ms": metric(mean_us("testing.spawn") / 1000.0, "ms"),
            "testing.exchange_us_p50": metric(
                median(durations("testing.exchange")), "us"),
            "testing.respawns": metric(
                sum(j["respawns"] for j in self.jobs_info), "count"),
        }
        self.print_table(st, it, jobs)
        return m

    def print_table(self, st, it, jobs):
        """Where a job's time goes: self time per layer, the loop's phases
        taken from its journal."""
        rows = {name: own for name, (_, own, _) in st.items()}
        loop = rows.pop("synthesis.loop", 0.0)
        phases = {f"automata.{p}": 1000.0 * sum(e[f"{p}Ms"] for e in it)
                  for p in ("closure", "compose")}
        phases["ctl.check"] = 1000.0 * sum(e["checkMs"] for e in it)
        phases["testing.test"] = 1000.0 * sum(e["testMs"] for e in it)
        # Adapter calls inside the loop run in its test phase; the rest of
        # the loop's own time is learning and bookkeeping.
        adapter = sum(s["end"] - s["start"] for s in self.spans
                      if s["name"].startswith("testing.") and s["parent"] >= 0
                      and self.spans[s["parent"]]["name"] == "synthesis.loop")
        phases["testing.test"] = max(0.0, phases["testing.test"] - adapter)
        rows.update(phases)
        rows["synthesis.learn+other"] = max(0.0, loop - sum(phases.values()))
        total = sum(rows.values()) or 1.0
        print(f"ledger: {jobs} job(s) through the traced runner; "
              f"self time per layer:")
        for name, us in sorted(rows.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {us / 1000.0 / jobs:10.3f} ms/job "
                  f"{100.0 * us / total:6.1f}%")


# ---- serve-open ---------------------------------------------------------

class Daemon:
    def __init__(self, run, cache, journal=None):
        port_file = run.path(f"port{time.monotonic_ns()}")
        cmd = [run.mui, "serve", "--port", "0", "--port-file", port_file,
               "--threads", str(THREADS), "--cache", cache,
               "--queue-limit", str(QUEUE_LIMIT)]
        if journal:
            cmd += ["--journal-out", journal]
        self.log = open(run.path("serve.log"), "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=self.log,
                                     env=run.env)
        while True:
            if os.path.exists(port_file):
                with open(port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    break
            if self.proc.poll() is not None:
                die("mui serve exited during start-up")
            if time.perf_counter() - start > 30:
                self.stop()
                die("mui serve did not write its port file")
            time.sleep(0.0005)
        self.setup = time.perf_counter() - start
        self.port = int(text)
        self.cpu0 = proc_cpu_s(self.proc.pid)

    def usage(self):
        """(CPU s since start-up, peak RSS MB) of the daemon process."""
        return proc_cpu_s(self.proc.pid) - self.cpu0, proc_hwm_mb(self.proc.pid)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


class Session:
    """One JSONL connection, driven open-loop: each job is sent at its due
    time by this thread while a reader thread collects results."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("r")
        self.send({"schema": 1, "type": "hello", "client": "perfbench",
                   "deadline-ms": 0})
        welcome = json.loads(self.reader.readline())
        if welcome.get("type") != "welcome":
            die(f"unexpected daemon greeting: {welcome}")
        self.results = {}
        self.done = threading.Event()
        self.cond = threading.Condition()
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def _read(self):
        for line in self.reader:
            msg = json.loads(line)
            now = time.perf_counter()
            if msg["type"] in ("result", "shed"):
                with self.cond:
                    self.results[msg["id"]] = (now, msg)
                    self.cond.notify_all()
            elif msg["type"] == "done":
                break
        self.done.set()

    def wait_for(self, count, timeout):
        with self.cond:
            return self.cond.wait_for(lambda: len(self.results) >= count,
                                      timeout)

    def close(self):
        self.send({"schema": 1, "type": "end"})
        self.done.wait(60)
        self.sock.shutdown(socket.SHUT_RDWR)
        self.thread.join()
        self.sock.close()


def offer(run, session, jobs, rate, first_id):
    """Sends jobs at `rate` per second (all at once for rate 0) and waits
    for every reply. Returns per-job (due, sent, reply time, reply)."""
    t0 = time.perf_counter() + 0.01
    sent = []
    for i, job in enumerate(jobs):
        due = t0 + (i / rate if rate else 0.0)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        session.send(job.wire(first_id + i, run.work))
        sent.append((due, time.perf_counter()))
    if not session.wait_for(first_id - 1 + len(jobs), 120):
        die("daemon did not answer every job within 120 s")
    out = []
    for i, job in enumerate(jobs):
        recv, msg = session.results[first_id + i]
        status = msg["status"] if msg["type"] == "result" else "shed"
        run.gate(job, status)
        out.append((sent[i][0], sent[i][1], recv, msg, status))
    return out


def serve_open(run):
    seconds, trace = run.args.seconds, run.args.trace
    hot = gen.serve_hot(run.rng, run.work)
    log = populate_log(run, hot, "hot")
    per_rung = [max(20, int(rate * share * seconds))
                for rate, share in SERVE_RUNGS]
    requests = [gen.serve_request(run.rng, run.work, i, hot)
                for i in range(sum(per_rung))]
    run.crosscheck([j for j in requests if j.formula][:3] + hot[:3])

    def fresh_log():
        return durable_copy(log, run.path("cache.jsonl"))

    # Start-up several times: all but the last only time set-up.
    setups = []
    for _ in range(SERVE_STARTS - 1):
        d = Daemon(run, fresh_log())
        setups.append(d.setup)
        d.stop()
    daemon = Daemon(run, fresh_log(),
                    journal=run.path("serve.journal.jsonl") if trace else None)
    setups.append(daemon.setup)
    rungs = []
    next_id, k = 1, 0
    try:
        session = Session(daemon.port)
        for (rate, _), n in zip(SERVE_RUNGS, per_rung):
            rungs.append((rate, offer(run, session, requests[k:k + n], rate,
                                      next_id)))
            next_id += n
            k += n
        cpu, hwm = daemon.usage()
        session.close()
    finally:
        daemon.stop()

    tail = TAIL["serve-open"]
    table = rung_table(rungs, tail)
    # The highest rate such that it and every lower rung met the limit.
    passing = []
    for rung in table:
        if not rung["ok"]:
            break
        passing.append(rung)
    if trace:
        return serve_layers(run, table, passing, requests, fresh_log)
    lat = [v for rung in passing for v in rung["lat"]]
    windows = [lat[i:i + SERVE_WINDOW]
               for i in range(0, len(lat) - SERVE_WINDOW + 1, SERVE_WINDOW)]
    jobs = sum(len(rung["lat"]) for rung in table)
    print(f"serve-open: saturated by {SERVE_RUNGS[-1][0]} jobs/s, the daemon "
          f"completed {saturated_rate(rungs[-1][1]):.1f} jobs/s")
    return {
        "setup_s": metric(median(setups), "s"),
        "jobs_per_s": metric(passing[-1]["achieved"] if passing else 0.0,
                             "1/s"),
        "verdict_ms_p50": metric(median(lat), "ms"),
        "verdict_ms_tail": metric(
            median([pct(w, tail) for w in windows]) if windows
            else pct(lat, tail), "ms"),
        "cpu_ms_per_job": metric(1000.0 * cpu / jobs, "ms"),
        "peak_rss_mb": metric(hwm, "MB"),
    }, (f"the median over {len(windows)} windows of {SERVE_WINDOW} requests "
        f"on the passing rungs ({len(lat)} in all) of each window's p{tail:g}")


def saturated_rate(res):
    """Completed jobs per second while the top rung's backlog keeps both
    workers busy: after the first tenth of the rung's replies, the median
    over windows of 100 consecutive replies of the rate each window
    completed at. Reads the offered rate if the rung does not saturate the
    daemon."""
    recv = sorted(r[2] for r in res)[len(res) // 10:]
    return median([100 / (recv[i + 100] - recv[i])
                   for i in range(0, len(recv) - 100, 100)])


def rung_table(rungs, tail):
    """Per rung: latency from due time, queue wait (latency minus the
    daemon's run time), run time, send lag, completed jobs per second from
    the first due time to the last reply, and whether the rung met the
    latency limit with no failed job and no growing backlog."""
    table = []
    print(f"serve-open: rate  jobs  p50 ms  p{tail} ms  queue p50/p{tail} ms"
          f"  verdict")
    for rate, res in rungs:
        lat = [1000.0 * (recv - due) for due, _, recv, _, _ in res]
        runs = [msg.get("wallMs", 0.0) for *_, msg, _ in res]
        queue = [a - b for a, b in zip(lat, runs)]
        q = len(lat) // 4
        growing = median(lat[-q:]) > median(lat[:q]) + LATENCY_LIMIT_MS / 4
        failed = any(s in FAILED_STATUSES for *_, s in res)
        ok = pct(lat, tail) <= LATENCY_LIMIT_MS and not growing and not failed
        achieved = len(res) / (max(recv for _, _, recv, *_ in res) - res[0][0])
        table.append({"rate": rate, "lat": lat, "queue": queue, "run": runs,
                      "ok": ok, "achieved": achieved,
                      "shed": sum(s == "shed" for *_, s in res),
                      "lag": [1000.0 * (sent - due) for due, sent, *_ in res]})
        print(f"serve-open: {rate:4d} {len(lat):5d} {median(lat):7.2f} "
              f"{pct(lat, tail):7.2f}  {median(queue):8.2f}/{pct(queue, tail):<8.2f}"
              f"  {'ok' if ok else 'over limit'}")
    return table


def serve_layers(run, table, passing, requests, fresh_log):
    tail = TAIL["serve-open"]
    top = passing[-1] if passing else table[0]
    lag = [v for rung in table for v in rung["lag"]]

    # Trace overhead: the same burst, all due at once, against an untraced
    # and a traced daemon, each with a fresh copy of the cache log.
    burst = requests[:len(requests) // 3]
    rates = {}
    for traced in (False, True):
        d = Daemon(run, fresh_log(), journal=run.path("burst.journal.jsonl")
                   if traced else None)
        try:
            s = Session(d.port)
            start = time.perf_counter()
            res = offer(run, s, burst, 0, 1)
            rates[traced] = len(res) / (max(r[2] for r in res) - start)
            s.close()
        finally:
            d.stop()

    ledger = Ledger(run)
    manifest = run.path("requests.manifest")
    gen.write_manifest(manifest, requests[:len(requests) // 2])
    ledger.run(manifest, fresh_log())
    m = ledger.metrics()
    m.update({
        "engine.pool_busy_share": metric(0.0, "share"),
        "serve.queue_ms_p50": metric(median(top["queue"]), "ms"),
        "serve.queue_ms_tail": metric(pct(top["queue"], tail), "ms"),
        "serve.run_ms_p50": metric(median(top["run"]), "ms"),
        "serve.shed_count": metric(sum(r["shed"] for r in table), "count"),
        "serve.send_lag_ms": metric(pct(lag, tail), "ms"),
        "obs.trace_overhead_pct": metric(
            100.0 * (rates[False] / rates[True] - 1.0), "%"),
    })
    return m, None


SERVE_LAYER_NAMES = ("serve.queue_ms_p50", "serve.queue_ms_tail",
                     "serve.run_ms_p50", "serve.shed_count", "serve.send_lag_ms")
WORKLOADS = {"loop-heavy": fresh_rounds(gen.loop_heavy_round),
             "campaign-ci": campaign_ci, "serve-open": serve_open}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", default=os.path.join(".bench_build",
                                                         "perfbench"))
    ap.add_argument("--work", help="directory for inputs and outputs "
                    "(emptied first; default: runs/ beside the build directory)")
    args = ap.parse_args()
    root = os.getcwd()
    bindir = build(root, os.path.abspath(args.build_dir))
    work = os.path.abspath(args.work or os.path.join(
        os.path.dirname(bindir), "runs",
        f"{args.workload}-{args.seed}-{args.trace}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args, bindir, work)
    metrics, tail_note = WORKLOADS[args.workload](run)
    if args.trace:
        for name in SERVE_LAYER_NAMES:
            metrics.setdefault(name, metric(0.0, "ms" if "ms" in name else "count"))
    else:
        print(f"{args.workload}: verdict_ms_tail is {tail_note}")
    for line in run.wrong[:20]:
        print(f"WRONG VERDICT {line}")
    print(f"{args.workload}: {run.attempted} attempted, {run.failed} failed "
          f"({100.0 * run.failed / max(1, run.attempted):.2f}%)")
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    sys.exit(1 if run.wrong else 0)


if __name__ == "__main__":
    main()
