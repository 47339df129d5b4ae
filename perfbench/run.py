#!/usr/bin/env python3
"""Benchmark of the k-center (with outliers) program: MapReduce round 1, the
round-2 radius search, and streaming.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mr-round1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first run compiles the program and the benchmark from source with sbt
(into the sbt `target/` directories); later runs reuse that build while the
sources are unchanged. Each run is one JVM with a pinned heap and `local[nproc]`
Spark. The last line of standard output is the run's JSON result
(`--workload all` instead ends with a table of every workload's metrics).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("mr-round1", "round2-wiki", "stream-higgs")
HEAP = "3g"
SHUFFLE_PARTITIONS = 16
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Spark on JDK 17 needs these module opens.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads, so a changed source forces a rebuild."""
    h = hashlib.sha256()
    tops = ["build.sbt", "project", "src/main", "jobs", "perfbench/build.sbt", "perfbench/project",
            "perfbench/src/main"]
    for top in tops:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "project") and not d.startswith("."))
            files += [os.path.join(base, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """The runtime classpath of the benchmark, building it first if needed."""
    stamp = source_stamp()
    stamp_file = os.path.join(CACHE, "stamp")
    cp_file = os.path.join(CACHE, "classpath")
    if os.path.isfile(stamp_file) and os.path.isfile(cp_file):
        with open(stamp_file) as f:
            fresh = f.read().strip() == stamp
        with open(cp_file) as f:
            cp = f.read().strip()
        if fresh and all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export perfbench/Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        done = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    lines = [l for l in done.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("build failed", 3)
    cp = lines[-1].strip()
    os.makedirs(CACHE, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cp + "\n")
    with open(stamp_file, "w") as f:
        f.write(stamp + "\n")
    return cp


def run_one(cp, workload, seed, seconds, trace):
    """Runs one workload in its own JVM; returns (exit code, stdout lines)."""
    nproc = len(os.sched_getaffinity(0))
    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-XX:ActiveProcessorCount=%d" % nproc, "-Xms" + HEAP, "-Xmx" + HEAP,
           "-XX:+UseG1GC", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-Dspark.master=local[%d]" % nproc,
           "-Dspark.sql.shuffle.partitions=%d" % SHUFFLE_PARTITIONS,
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"] + JVM_OPENS + [
           "-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", CACHE]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(CACHE, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 4)
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro"))):
        fail("the program's sources (build.sbt, src/main/scala/repro) are not next to perfbench/")

    cp = classpath()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        code, lines = run_one(cp, w, args.seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        if code != 0 or not lines or not lines[-1].startswith("{"):
            fail("%s exited with code %d without a result" % (w, code), code or 5)
        results.append((w, json.loads(lines[-1])))
    if args.workload == "all":
        print("%-13s %-24s %14s %-8s %s" % ("workload", "metric", "value", "unit", "correct/attempted/failed"))
        for w, r in results:
            for m, v in r["metrics"].items():
                print("%-13s %-24s %14.6g %-8s %s/%d/%d" % (w, m, v["value"], v["unit"], r["correct"],
                                                           r["attempted"], r["failed"]))
    sys.exit(0)


if __name__ == "__main__":
    main()
