#!/usr/bin/env python3
"""End-to-end benchmark of repair-cli.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the program from source with
dune (into .bench_build), makes the workload's inputs from the seed,
sets up three times, then measures for about S seconds and checks every
output. Human-readable lines go to stdout; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, measured by perfbench/layers from outside the program.
Workloads, metrics and the layer map are described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_ROOT = ".bench_work"
CLI = os.path.join(BUILD_DIR, "default", "bin", "repair_cli.exe")
PROBE = os.path.join(BUILD_DIR, "default", "perfbench", "layers", "layers.exe")

OFFICE_FDS = "facility -> city; facility room -> floor"
OFFICE_ATTRS = "facility room city floor"
OFFICE_ROWS = 250000
HARD_FDS = "A -> B; B -> C"
HARD_ATTRS = "A B C D"
HARD_JOBS = 8  # of each kind
HARD_S_ROWS = 25000
HARD_U_ROWS = 2500
SETUP_REPEATS = 3

# Counts that must repeat exactly between two traced runs of one seed.
STRUCTURAL = [
    "relational.groups", "srepair.blocks", "srepair.conflict_edges",
    "graph.cover_size", "batch.journal_records", "serve.cache_hits",
    "serve.cache_misses", "stream.ticks", "stream.summaries",
]


class Failure(Exception):
    """The benchmark cannot run at all: no result line is printed."""


def say(*parts):
    print(*parts, flush=True)


# ---------- processes ----------

class Proc:
    """A finished program process: wall time, exit code, peak RSS."""

    def __init__(self, wall_s, code, rss_mb, err):
        self.wall_s, self.code, self.rss_mb, self.err = wall_s, code, rss_mb, err


def run_proc(argv):
    """Run [argv] to completion; stdout is discarded, stderr returned."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = p.stderr.read()
    p.stderr.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, p.returncode, ru.ru_maxrss / 1024.0,
                err.decode(errors="replace"))


def cli(*args):
    return [os.path.abspath(CLI), *args]


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(need):
            raise Failure("%s is missing: run from the repository root" % need)
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    r = subprocess.run(
        cmd + ["build", "--root", ".", "--build-dir", BUILD_DIR,
               "./bin/repair_cli.exe", "./perfbench/layers/layers.exe"],
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        raise Failure("build failed")


def environment(seed):
    def first_line(argv):
        try:
            r = subprocess.run(argv, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=10)
            out = r.stdout.decode().strip()
            return out if r.returncode == 0 and out else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    return "env seed=%d nproc=%d ocaml=%s git=%s" % (
        seed, os.cpu_count() or 0, first_line(["ocamlopt", "-version"]),
        first_line(["git", "rev-parse", "--short", "HEAD"]))


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def distance_of(stderr_text, kind):
    """The distance=... field of the program's '<kind>: distance=' line."""
    for line in stderr_text.splitlines():
        if line.startswith(kind + ": distance="):
            return line.split("distance=", 1)[1].split()[0]
    return None


# ---------- measurement loop ----------

def passes(seconds, one_pass):
    """Run [one_pass] while the measured time, plus half a pass, stays
    within [seconds] (at least once), so a run measures about [seconds]
    give or take half a pass. Returns pass times."""
    times = []
    while not times or sum(times) + statistics.median(times) / 2 <= seconds:
        t0 = time.perf_counter()
        one_pass(len(times))
        times.append(time.perf_counter() - t0)
    return times


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.lines = []  # human-readable metric lines

    def op(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def show(self, name, value, unit, note=""):
        self.lines.append("%-26s %14.4f %-6s %s" % (name, value, unit, note))


def setup(args, once):
    """Run the set-up [SETUP_REPEATS] times (once when tracing, which
    reports no set-up time); its median duration."""
    times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        once()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------- office-cli ----------

def office_setup(work, args):
    table = os.path.join(work, "office.csv")

    def once():
        p = run_proc(cli("generate", "-f", OFFICE_FDS, "-a", OFFICE_ATTRS,
                         "--size", str(OFFICE_ROWS), "--domain", "1000",
                         "--noise", "0.05", "--seed", str(args.seed), "-o", table))
        if p.code != 0:
            raise Failure("generate failed: " + p.err)
    return table, setup(args, once)


def office_repairs(work, table, res, outputs):
    """One s-repair and one u-repair process over [table]."""
    procs = {}
    for kind in ("s-repair", "u-repair"):
        out = os.path.join(work, kind + ".csv")
        p = run_proc(cli(kind, "-f", OFFICE_FDS, table, "-o", out))
        procs[kind] = p
        ok = p.code == 0
        if ok:
            h = file_hash(out)
            if kind in outputs:
                ok = outputs[kind][0] == h
            else:
                outputs[kind] = (h, out, distance_of(p.err, kind))
        res.op(ok, "%s exited %d or changed output" % (kind, p.code))
    return procs


def check_office(table, res, outputs):
    """The full check of the first outputs (later ones matched by hash)."""
    inp = checks.read_table_file(table)
    fds = checks.parse_fds(OFFICE_FDS)
    for kind, check in (("s-repair", checks.check_s_repair),
                        ("u-repair", checks.check_u_repair)):
        if kind not in outputs:
            continue
        _, out, dist = outputs[kind]
        errs = check(fds, inp, checks.read_table_file(out), dist) if dist else [
            "no distance line"]
        res.op(not errs, "%s: %s" % (kind, "; ".join(errs)))


def office_cli(args, work, res):
    table, setup_s = office_setup(work, args)
    outputs, s_walls, u_walls, rss = {}, [], [], []

    def one_pass(_):
        procs = office_repairs(work, table, res, outputs)
        s_walls.append(procs["s-repair"].wall_s)
        u_walls.append(procs["u-repair"].wall_s)
        rss.append(max(p.rss_mb for p in procs.values()))

    if args.trace:
        return probe_twice(res, lambda _: ["office", table])
    passes(args.seconds, one_pass)
    check_office(table, res, outputs)
    res.show("srepair_s", statistics.median(s_walls), "s", "n=%d" % len(s_walls))
    res.show("urepair_s", statistics.median(u_walls), "s", "n=%d" % len(u_walls))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(s + u for s, u in zip(s_walls, u_walls)),
        "srepair_ms": 1000 * statistics.median(s_walls),
        "urepair_ms": 1000 * statistics.median(u_walls),
        "peak_rss_mb": statistics.median(rss),
    }


# ---------- hard-batch ----------

def hard_setup(work, args):
    jobs = []
    for k in range(HARD_JOBS):
        for kind, rows in (("s-repair", HARD_S_ROWS), ("u-repair", HARD_U_ROWS)):
            jid = "%s-%d" % (kind[0], k)
            jobs.append({
                "id": jid, "kind": kind, "fds": HARD_FDS,
                "input": os.path.join(work, jid + ".csv"),
                "output": os.path.join(work, jid + ".out.csv"),
                "seed": args.seed * 100 + len(jobs), "rows": rows})
    manifest = os.path.join(work, "manifest.json")

    def once():
        for j in jobs:
            p = run_proc(cli("generate", "-f", HARD_FDS, "-a", HARD_ATTRS,
                             "--size", str(j["rows"]), "--domain", "1000",
                             "--noise", "0.05", "--seed", str(j["seed"]),
                             "-o", j["input"]))
            if p.code != 0:
                raise Failure("generate failed: " + p.err)
        with open(manifest, "w") as f:
            json.dump({"jobs": [{k: j[k] for k in ("id", "kind", "fds", "input",
                                                    "output")} for j in jobs]}, f)
    return jobs, manifest, setup(args, once)


def read_journal(path):
    """The journal's records: '@len:crc:payload' lines of JSON."""
    records = []
    with open(path, "rb") as f:
        for line in f:
            payload = line.split(b":", 2)[2] if line.startswith(b"@") else line
            records.append(json.loads(payload))
    return records


def hard_batch_run(work, manifest, jobs, res, job_ms, outputs, n):
    """One batch process. Records each job's committed wall_ms in
    [job_ms] by kind, and its output hash and distance in [outputs]."""
    journal = os.path.join(work, "journal-%d.jsonl" % n)
    summary = os.path.join(work, "summary-%d.json" % n)
    p = run_proc(cli("batch", manifest, "--journal", journal, "--domains", "2",
                     "-o", summary))
    try:
        with open(summary) as f:
            quarantined = json.load(f)["quarantined"]
        commits = {r["job"]: r for r in read_journal(journal)
                   if r["event"] == "commit"}
    except (OSError, ValueError, KeyError, IndexError):
        quarantined, commits = None, {}
    res.op(p.code == 0 and quarantined == 0,
           "batch exited %d with %s quarantined jobs: %s" % (
               p.code, quarantined, p.err.strip()))
    for j in jobs:
        c = commits.get(j["id"])
        ok = c is not None
        if ok:
            job_ms[j["kind"]].append(c["wall_ms"])
            h = file_hash(j["output"])
            ok = outputs.setdefault(j["id"], (h, c["distance"])) == (h, c["distance"])
        res.op(ok, "job %s missing, quarantined or changed" % j["id"])
    return p, journal


def check_hard(jobs, res, outputs):
    """The full check of every job's output (repeats matched by hash)."""
    fds = checks.parse_fds(HARD_FDS)
    for j in jobs:
        if j["id"] not in outputs:
            continue
        check = checks.check_s_repair if j["kind"] == "s-repair" else checks.check_u_repair
        errs = check(fds, checks.read_table_file(j["input"]),
                     checks.read_table_file(j["output"]), outputs[j["id"]][1])
        res.op(not errs, "job %s: %s" % (j["id"], "; ".join(errs)))


def hard_batch(args, work, res):
    jobs, manifest, setup_s = hard_setup(work, args)
    job_ms, outputs, procs = {"s-repair": [], "u-repair": []}, {}, []

    def one_pass(n):
        procs.append(hard_batch_run(work, manifest, jobs, res, job_ms, outputs, n))

    if args.trace:
        one_pass(0)
        one_pass(1)
        check_hard(jobs, res, outputs)
        probe_dir = os.path.join(work, "probe")
        os.makedirs(probe_dir)
        layers = probe_twice(
            res, lambda k: ["batch", manifest, procs[k][1], probe_dir])
        batch_s = statistics.median(p.wall_s for p, _ in procs)
        layers["par.batch_efficiency"] = layers["batch.job_s"] / (2 * batch_s)
        return layers
    passes(args.seconds, one_pass)
    check_hard(jobs, res, outputs)
    batch_s = statistics.median(p.wall_s for p, _ in procs)
    res.show("batch_s", batch_s, "s", "n=%d" % len(procs))
    return {
        "setup_s": setup_s,
        "wall_s": batch_s,
        "srepair_ms": statistics.median(job_ms["s-repair"] or [0.0]),
        "urepair_ms": statistics.median(job_ms["u-repair"] or [0.0]),
        "peak_rss_mb": statistics.median(p.rss_mb for p, _ in procs),
    }


# ---------- serve-mixed ----------

class Daemon:
    """A `repair-cli serve --socket` process at 1 domain, default config."""

    live = set()  # stopped by main() whatever happens

    def __init__(self, work):
        self.sock = os.path.join(work, "serve.sock")
        if os.path.exists(self.sock):
            os.remove(self.sock)
        self.err = open(os.path.join(work, "serve.err"), "wb")
        self.proc = subprocess.Popen(
            cli("serve", "--socket", "serve.sock", "--metrics-out", "metrics.json"),
            cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err)
        Daemon.live.add(self)
        deadline = time.monotonic() + 30
        while True:
            try:
                c = Client(self.sock)
                ok = b'"ok":true' in c.call(b'{"id":0,"op":"ping"}\n')
                c.close()
                if ok:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise Failure("the serve daemon did not come up")
            time.sleep(0.01)

    def stop(self):
        """SIGTERM (graceful drain); returns (exit code, peak RSS MB)."""
        Daemon.live.discard(self)
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, status, ru = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = ru.ru_maxrss / 1024.0
        self.err.close()
        return self.proc.returncode, getattr(self, "rss_mb", 0.0)


class Client:
    """One connection; closed loop: the next request goes out only after
    the reply to the previous one has arrived."""

    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.s.connect(os.path.relpath(path))
        self.f = self.s.makefile("rb")

    def call(self, line):
        self.s.sendall(line)
        reply = self.f.readline()
        if not reply:
            raise OSError("connection closed")
        return reply

    def close(self):
        self.f.close()
        self.s.close()


def serve_setup(work, args):
    mix = os.path.join(work, "mix.jsonl")
    daemon = []

    def once():
        p = run_proc([os.path.abspath(PROBE), "mix", str(args.seed), mix])
        if p.code != 0:
            raise Failure("mix generation failed: " + p.err)
        if daemon:
            daemon.pop().stop()
        daemon.append(Daemon(work))
    setup_s = setup(args, once)
    with open(mix, "rb") as f:
        lines = f.read().splitlines(keepends=True)
    return lines, daemon[0], setup_s


def serve_pass(daemon, lines):
    """Send the mix once; (latency ms, reply line) per request."""
    c = Client(daemon.sock)
    out = []
    try:
        for line in lines:
            t0 = time.perf_counter()
            reply = c.call(line)
            out.append(((time.perf_counter() - t0) * 1000.0, reply))
    finally:
        c.close()
    return out


def replay(base, deltas_texts):
    """The stream session's materialized table after the deltas."""
    rows = dict(base.rows)
    for text in deltas_texts:
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            if d["op"] == "insert":
                rows[d["id"]] = (float(d.get("weight", 1.0)),
                                 tuple(str(v) for v in d["tuple"]))
            else:
                del rows[d["id"]]
    return checks.Table(base.attrs, rows)


def write_table(table, path):
    with open(path, "w") as f:
        f.write(",".join(["#id", "#weight"] + table.attrs) + "\n")
        for i in sorted(table.rows):
            w, t = table.rows[i]
            f.write(",".join([str(i), "%g" % w] + list(t)) + "\n")


def check_serve(work, requests, replies, res):
    """Every reply ok; every repaired table checked; the last stream
    distance equal to a cold s-repair of the replayed table."""
    base, deltas, last_stream = None, [], None
    for req, (_, raw) in zip(requests, replies):
        reply = json.loads(raw)
        op = req["op"]
        errs = [] if reply.get("ok") is True else ["not ok: %s" % reply.get("error")]
        if not errs and op in ("s-repair", "u-repair"):
            check = checks.check_s_repair if op == "s-repair" else checks.check_u_repair
            errs = check(checks.parse_fds(req["fds"]), checks.read_table(req["table"]),
                         checks.read_table(reply["table"]), reply["distance"])
        if op == "stream":
            if req.get("table"):
                base = checks.read_table(req["table"])
            else:
                deltas.append(req["deltas"])
            last_stream = reply
        res.op(not errs, "request %s (%s): %s" % (req.get("id"), op, "; ".join(errs)))
    if base is None or last_stream is None or not last_stream.get("ok"):
        return
    table = replay(base, deltas)
    path = os.path.join(work, "materialized.csv")
    write_table(table, path)
    p = run_proc(cli("s-repair", "-f", OFFICE_FDS, path, "-o",
                     os.path.join(work, "cold.csv")))
    cold = distance_of(p.err, "s-repair")
    errs = checks.check_s_repair(checks.parse_fds(OFFICE_FDS), table,
                                 checks.read_table(last_stream["table"]),
                                 last_stream["distance"])
    if p.code != 0 or cold is None or not checks.same_number(cold, last_stream["distance"]):
        errs.append("stream distance %r, cold s-repair %r" % (
            last_stream["distance"], cold))
    res.op(not errs, "final stream state: %s" % "; ".join(errs))


def serve_mixed(args, work, res):
    lines, daemon, setup_s = serve_setup(work, args)
    requests = [json.loads(l) for l in lines]
    kinds = [r["op"] if r["op"] != "stream" or not r.get("table") else "stream-init"
             for r in requests]
    lat, walls = {}, []

    def one_pass(_):
        t0 = time.perf_counter()
        replies = serve_pass(daemon, lines)
        walls.append(time.perf_counter() - t0)
        for kind, (ms, _) in zip(kinds, replies):
            lat.setdefault(kind, []).append(ms)
        check_serve(work, requests, replies, res)

    try:
        if args.trace:
            one_pass(0)
        else:
            passes(args.seconds, one_pass)
    finally:
        code, rss = daemon.stop()
    res.op(code == 0, "serve exited %d" % code)
    repair = lat["s-repair"] + lat["u-repair"] + lat["classify"]
    if args.trace:
        layers = probe_twice(res, lambda _: ["serve", os.path.join(work, "mix.jsonl")])
        inproc = layers.pop("_op.request_ms")
        layers["serve.socket_ms"] = statistics.median(repair) - inproc
        layers["trace.coverage.request"] = inproc / statistics.median(repair)
        layers["trace.coverage.stream"] = (
            layers.pop("_op.stream_ms") / statistics.median(lat["stream"]))
        return layers
    for name, xs in (("repair", repair), ("stream", lat["stream"])):
        n, med, p, tail = checks.summary(xs)
        res.show(name + "_p50_ms", med, "ms", "n=%d" % n)
        if p is not None:
            res.show("%s_p%g_ms" % (name, p), tail, "ms", "n=%d" % n)
    res.show("requests_per_s", len(lines) * len(walls) / sum(walls), "1/s",
             "closed loop, 1 connection")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "srepair_ms": statistics.median(lat["s-repair"]),
        "urepair_ms": statistics.median(lat["u-repair"]),
        "peak_rss_mb": rss,
    }


# ---------- traced runs ----------

def probe_twice(res, args_of_run):
    """Run the layer probe twice, with arguments [args_of_run(k)]; the
    structural counts of the two runs must agree."""
    runs = []
    for k in range(2):
        r = subprocess.run([os.path.abspath(PROBE), *args_of_run(k)],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if r.returncode != 0:
            raise Failure("layer probe failed: " + r.stderr.decode())
        runs.append(json.loads(r.stdout.decode().strip().splitlines()[-1]))
    for k in STRUCTURAL + [k for k in runs[0] if k.endswith(".alloc_mb")]:
        a, b = runs[0].get(k, 0.0), runs[1].get(k, 0.0)
        res.op(a == b, "structural count %s differs: %r vs %r" % (k, a, b))
    return runs[0]


# ---------- main ----------

WORKLOADS = {
    "office-cli": office_cli,
    "hard-batch": hard_batch,
    "serve-mixed": serve_mixed,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
        work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        # Everything the run and its processes write stays in the checkout.
        os.makedirs(os.path.join(work, "tmp"))
        os.environ["TMPDIR"] = os.path.abspath(os.path.join(work, "tmp"))
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        res = Result()
        try:
            build()
            say("# " + environment(args.seed))
            values = WORKLOADS[args.workload](args, work, res)
        finally:
            for d in list(Daemon.live):
                d.stop()
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass
    except (Failure, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec}
    for k, m in metrics.items():
        res.show(k, m["value"], m["unit"])
    res.show("failed_frac", res.failed / max(1, res.attempted), "ratio",
             "%d of %d operations" % (res.failed, res.attempted))
    for line in res.lines:
        say(line)
    for e in res.errors[:20]:
        say("# FAILED " + e)
    say(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                    "failed": res.failed, "metrics": metrics}))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
