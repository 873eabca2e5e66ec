"""Seeded workload generator with known answers.

Every generated job is a watchdog integration (the pattern of
models/watchdog.muml) scaled along the dimensions the loop's cost depends
on:

  P        the monitor's idle bound: it must ping within P ticks
  W        the monitor's waiting window: a pong later than W ticks after
           the ping escalates
  R        the response bound of the monitor's role invariant
           AG (monitor.waiting -> AF[1,R] monitor.idle), R <= W
  tickers  extra context roles, each an independent clock of period T;
           they multiply the context (and product) size by T and change
           nothing else
  u        the hidden device's warm-up chain: it refuses pings for u ticks
           after reset
  k        the hidden device's busy chain: it answers k ticks after a ping

By construction the integration is correct iff u <= P, k <= W and, under
the derived property, k <= R. u > P is a reachable deadlock (the monitor's
idle invariant expires while the device refuses) and k > W a reachable
escalation; the semantic pre-solve refutes both. R < k <= W violates only
the bounded response, which the pre-solve cannot decide, so the loop runs.
Under the AG-safety override (SAFETY) R plays no part. Every benchmark run
checks a sample of its own jobs against ctl::ReferenceChecker on the
concrete hidden || context product (`perfbench_ledger crosscheck`), outside
the timed region.

The same (workload, seed) produces byte-identical files.
"""

import os

PATTERN = "Watchdog"
ROLE = "device"
SAFETY = "AG !monitor.escalated"


def watchdog_text(P, W, R, tickers, devices, externals=()):
    """Model text. devices: (name, u, k); externals: (name, impl name)."""
    out = [f"""rtsc monitorRole {{
  output ping;
  input pong;
  clock c;
  location idle invariant c <= {P};
  location waiting invariant c <= {W};
  location escalated;
  initial idle;
  idle -> waiting : emit ping reset c;
  waiting -> idle : trigger pong reset c;
  waiting -> escalated : guard c >= {W};
  escalated -> escalated : ;
}}

rtsc deviceRole {{
  input ping;
  output pong;
  location ready;
  location serving;
  initial ready;
  ready -> serving : trigger ping;
  serving -> ready : emit pong;
}}
"""]
    for j, T in enumerate(tickers):
        out.append(f"""rtsc tick{j}Role {{
  clock t;
  location run invariant t <= {T};
  initial run;
  run -> run : guard t >= {T} reset t;
}}
""")
    out.append("pattern Watchdog {\n"
               "  role monitor uses monitorRole invariant "
               f"\"AG (monitor.waiting -> AF[1,{R}] monitor.idle)\";\n"
               "  role device uses deviceRole;\n")
    for j in range(len(tickers)):
        out.append(f"  role tick{j} uses tick{j}Role;\n")
    out.append("  connector direct;\n"
               f"  constraint \"{SAFETY}\";\n}}\n")
    for name, u, k in devices:
        lines = [f"\nautomaton {name} {{", "  input ping; output pong;"]
        if u > P:
            lines.append("  allow MUI003;")
        lines.append("  initial " + ("w0" if u else "ready") + ";")
        for i in range(u):
            lines.append(f"  w{i} -> {f'w{i + 1}' if i + 1 < u else 'ready'} : ;")
        lines.append("  ready -> ready : ;")
        lines.append("  ready -> b1 : ping / ;")
        for i in range(1, k):
            lines.append(f"  b{i} -> b{i + 1} : ;")
        lines.append(f"  b{k} -> ready : / pong;")
        lines.append("}")
        out.append("\n".join(lines) + "\n")
    for name, impl in externals:
        out.append(f"""
legacy {name} external "adapter_automaton" {{
  input ping;
  output pong;
  arg "%model%";
  arg "{impl}";
}}
""")
    return "".join(out)


def expected(P, W, R, u, k, formula=""):
    ok = u <= P and k <= W and (formula == SAFETY or k <= R)
    return "proven" if ok else "real-error"


class Job:
    __slots__ = ("name", "model", "hidden", "formula", "expect", "pattern",
                 "role")

    def __init__(self, name, model, hidden, expect, formula="",
                 pattern=PATTERN, role=ROLE):
        self.name, self.model, self.hidden = name, model, hidden
        self.expect, self.formula = expect, formula
        self.pattern, self.role = pattern, role

    def manifest_line(self):
        line = (f"job name={self.name} model={self.model} "
                f"pattern={self.pattern} role={self.role} hidden={self.hidden}")
        if self.formula:
            line += ' formula="' + self.formula + '"'
        return line

    def wire(self, ident, base):
        job = {"schema": 1, "type": "job", "id": ident, "name": self.name,
               "model": os.path.join(base, self.model),
               "pattern": self.pattern, "role": self.role,
               "hidden": self.hidden}
        if self.formula:
            job["formula"] = self.formula
        return job

    def again(self, name):
        """The same content under another name: a cache key repeat."""
        return Job(name, self.model, self.hidden, self.expect, self.formula,
                   self.pattern, self.role)


def write_manifest(path, jobs):
    with open(path, "w") as f:
        f.write("".join(j.manifest_line() + "\n" for j in jobs))


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def _device(rng, P, W, R, kind):
    """(u, k) of a device that is correct (kind "ok") or has the given
    fault: "response" (R < k <= W), "escalate" or "deadlock". The seed
    moves u and k only a little, so the work a job takes depends mostly on
    its stratum."""
    u = rng.randint(0, 2)
    k = rng.randint(max(1, R - 1), R)
    if kind == "response":
        k = rng.randint(R + 1, min(W, R + 2))
    elif kind == "escalate":
        k = W + rng.randint(1, 3)
    elif kind == "deadlock":
        u = P + rng.randint(1, 3)
    return u, k


def _single(rng, work, name, shape, kind, formula=""):
    """A model file with one hidden device, and its job. The device is
    named after the job, so no two generated jobs share a cache key."""
    P, W, R, tickers = shape
    u, k = _device(rng, P, W, R, kind)
    model, hidden = f"{name}.muml", f"dev_{name}"
    _write(os.path.join(work, model),
           watchdog_text(P, W, R, tickers, [(hidden, u, k)]))
    return Job(name, model, hidden, expected(P, W, R, u, k, formula), formula)


# Loop-heavy strata: (P, W, R, tickers). One correct and one faulty job of
# each stratum per round, so every run sees the same mix. Faults are
# response violations, so the pre-solve declines every job. Each job scales
# its stratum's bounds by a seeded factor within +-15%: job times then fill
# the range between strata instead of forming clusters, so the median and
# the tail do not jump between two clusters from run to run.
LOOP_STRATA = [(100, 60, 56, ()), (80, 40, 36, ()), (60, 30, 26, ()),
               (48, 24, 20, (2,)), (40, 20, 16, (3,)), (30, 16, 12, (4,)),
               (20, 10, 8, (2, 3))]
# Each round also has two small jobs whose hidden device is served by the
# reference adapter process (a `legacy ... external` clause), under the
# derived property (liveness) or the AG-safety override, alternating by
# round. They skip the pre-solve and the cache by design, so spawning and
# per-step exchanges dominate them; they are the benchmark's measure of
# out-of-process legacies.
ADAPTER_STRATA = [(8, 4, 3), (10, 5, 4), (12, 6, 5), (16, 8, 6)]


def _external(rng, work, name, P, W, R, kind, formula):
    u, k = _device(rng, P, W, R, kind)
    model = f"{name}.muml"
    _write(os.path.join(work, model),
           watchdog_text(P, W, R, (), [(f"impl_{name}", u, k)],
                         externals=[("dev", f"impl_{name}")]))
    return Job(name, model, "dev", expected(P, W, R, u, k, formula), formula)


def loop_heavy_round(rng, work, r):
    jobs = []
    # Stratum order, not shuffled: with two workers a round's makespan
    # depends on which jobs come last, and that should not vary by seed.
    for s, (P, W, R, tickers) in enumerate(LOOP_STRATA):
        for kind in ("ok", "response"):
            f = rng.uniform(0.85, 1.15)
            w = round(W * f)
            shape = (round(P * f), w, w - (W - R), tickers)
            jobs.append(_single(rng, work, f"r{r}s{s}{kind[0]}", shape, kind))
    P, W, R = ADAPTER_STRATA[r % len(ADAPTER_STRATA)]
    formula, fault = (("", "response"), (SAFETY, "escalate"))[r % 2]
    for kind in ("ok", fault):
        jobs.append(_external(rng, work, f"r{r}x{kind[0]}", P, W, R, kind,
                              formula))
    return jobs


# Shipped-model jobs for campaign-ci: (model, hidden, formula, expect).
# Verdicts are the ones models/*.muml document and the golden tests pin.
SHIPPED = [
    ("watchdog", "deviceCompliant", "", "proven"),
    ("watchdog", "deviceSlow", "", "proven"),
    ("watchdog", "deviceCrawl", "", "real-error"),
    ("watchdog", "deviceMute", "", "real-error"),
    ("watchdog", "deviceDeaf", "", "real-error"),
    ("watchdog", "deviceCompliant", SAFETY, "proven"),
    ("watchdog", "deviceSlow", SAFETY, "proven"),
    ("watchdog", "deviceCrawl", SAFETY, "real-error"),
    ("railcab", "rearShipped", "", "proven"),
    ("railcab", "rearFaulty", "", "real-error"),
    ("railcab", "rearShipped", "AG !(rearRole.convoy && frontRole.noConvoy)",
     "proven"),
]
SHIPPED_PATTERN = {"watchdog": ("Watchdog", "device"),
                   "railcab": ("DistanceCoordination", "rearRole")}
CI_KINDS = ("ok", "escalate", "ok", "deadlock", "ok", "escalate")
# Each revision also carries three ticker roles, which multiply its context
# by their product (60 to 120). Scenario building and the pre-solve then
# cost a revision's miss about 10 ms, so they, rather than the fsync of the
# miss's append (whose latency on a shared disk swings by an order of
# magnitude from minute to minute), set the campaign's throughput.
CI_TICKERS = ((3, 5, 7), (4, 5, 6), (3, 4, 9))
# The devices of a revision the previous CI run covered, by revision parity:
# one half of CI_KINDS or the other.
CI_PREVIOUS = ((0, 1, 3), (2, 4, 5))


def campaign_ci(rng, work, shipped_dir, c, revisions=18):
    """One CI campaign: (campaign jobs, previous-run jobs).

    The unique pool holds the shipped-model jobs on a comment-only revision
    of each shipped file (some under their derived properties, which run
    the loop on these small models) and seeded revisions of the watchdog
    with six devices and three ticker roles each under the AG-safety
    override, which the pre-solve decides. The campaign runs every unique
    job in a seeded order and then a repeat of each, again shuffled. The
    previous CI run covered half the devices of every generated revision
    (CI_PREVIOUS): the shipped files have a new revision, so every campaign
    misses on the same shipped jobs. Every seed thus gives a campaign with
    the same number of misses, hits and repeats in each ticker class, which
    only the order and the devices' u and k tell apart.
    """
    shipped = []
    for tag, src in (("watchdog", "watchdog.muml"), ("railcab", "railcab.muml")):
        with open(os.path.join(shipped_dir, src)) as f:
            text = f.read()
        model = f"c{c}_{tag}.muml"
        _write(os.path.join(work, model),
               text + f"\n# ci revision {c}-{rng.getrandbits(32):08x}\n")
        pattern, role = SHIPPED_PATTERN[tag]
        for i, (t, hidden, formula, expect) in enumerate(SHIPPED):
            if t == tag:
                shipped.append(Job(f"c{c}{tag[0]}{i}", model, hidden, expect,
                                   formula, pattern, role))
    revised, previous = [], []
    for r in range(revisions):
        P, W = 3 + r % 4, 3 + r % 3
        R = W - 1
        devs = []
        for d, kind in enumerate(CI_KINDS):
            u, k = _device(rng, P, W, R, kind)
            devs.append((f"dev{d}", u, k))
            revised.append(Job(f"c{c}v{r}d{d}", f"c{c}_rev{r}.muml", f"dev{d}",
                               expected(P, W, R, u, k, SAFETY), SAFETY))
        _write(os.path.join(work, f"c{c}_rev{r}.muml"),
               watchdog_text(P, W, R, CI_TICKERS[r % len(CI_TICKERS)], devs))
        previous += [revised[-len(CI_KINDS) + d] for d in CI_PREVIOUS[r % 2]]
    pool = shipped + revised
    repeats = [j.again(f"c{c}x{i}") for i, j in enumerate(pool)]
    rng.shuffle(pool)
    rng.shuffle(repeats)
    return pool + repeats, previous


# serve-open requests cycle through five kinds: three small loop-heavy
# jobs, one repeat of a job whose result the daemon's log already holds, and
# one AG-safety job on a fresh small revision (decided by the pre-solve).
# Every miss is appended to the log with an fsync. With three fifths loop
# jobs the median and the p95 are both loop jobs, whose time is the work
# itself rather than the round trip or the fsync, which on a shared machine
# vary far more from run to run.
SERVE_KINDS = ("loop", "hit", "loop", "presolve", "loop")
SERVE_LOOP_STRATA = [(24, 10, 8, ()), (20, 8, 6, (2,)), (30, 12, 10, ())]


def serve_hot(rng, work, n=8):
    return [_single(rng, work, f"hot{i}", (6, 4, 3, ()),
                    ("ok", "escalate")[i % 2], SAFETY) for i in range(n)]


def serve_request(rng, work, i, hot):
    kind, j = SERVE_KINDS[i % len(SERVE_KINDS)], i // len(SERVE_KINDS)
    if kind == "hit":
        return rng.choice(hot).again(f"q{i}")
    if kind == "presolve":
        W = rng.randint(3, 5)
        return _single(rng, work, f"q{i}", (rng.randint(4, 8), W, W - 1, ()),
                       ("ok", "escalate")[j % 2], SAFETY)
    shape = SERVE_LOOP_STRATA[j % len(SERVE_LOOP_STRATA)]
    return _single(rng, work, f"q{i}", shape, ("ok", "response")[j % 2])
