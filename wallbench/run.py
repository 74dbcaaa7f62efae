#!/usr/bin/env python3
"""Wall-clock benchmark of the Odyssey reproduction.

Compiles the repository's Scala sources together with the harness in
wallbench/src (with the Scala compiler that ships in Spark's jars), then
runs one workload in a fresh JVM with a pinned heap and collector.

    python3 wallbench/run.py --workload node-ed --seed 1 --seconds 20 --trace 0
    python3 wallbench/run.py --self-test

The last line of standard output is the JSON result. Build products, Spark's
local directories, traces and determinism fingerprints go to .bench_build/ in the
checkout; nothing is written outside it.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("node-ed", "cluster")

# Pinned per workload: a fixed heap (Xms = Xmx) and a named collector.
# node-ed runs one query thread; SerialGC made its passes faster than
# ParallelGC, and -Xbatch compiles in the foreground, so JIT work finishes
# during warm-up instead of competing with timed passes. The cluster
# workload runs four Spark task threads, which a single-threaded collector
# stalls, so it uses ParallelGC with four GC threads.
JVM = {
    "node-ed": ["-Xms2g", "-Xmx2g", "-XX:+UseSerialGC", "-Xbatch"],
    "cluster": ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=4"],
    "self-test": ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=4"],
}
COMMON_FLAGS = ["-XX:+AlwaysPreTouch", "-XX:-UsePerfData"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 600


def fail(msg, code=2):
    print(f"wallbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(pathlib.Path(submit).resolve().parent.parent)
    jars = pathlib.Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        fail("no Spark installation with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        fail(f"program sources not found: {main} is missing")
    files = sorted(main.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    if not files:
        fail("no Scala sources to compile")
    return files


def build(jars):
    """Compile once per distinct source tree; returns (classes dir, stamp)."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()[:16]
    classes = BUILD / "classes"
    stamp_file = BUILD / "stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes, stamp
    BUILD.mkdir(exist_ok=True)
    staging = BUILD / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    t0 = time.time()
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={tmp_dir()}",
           "-cp", str(jars / "*"), "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(staging)] + [str(f) for f in files]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp_file.write_text(stamp)
    print(f"wallbench: built {len(files)} sources in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes, stamp


def tmp_dir():
    d = BUILD / "tmp"
    d.mkdir(parents=True, exist_ok=True)
    return d


def run_java(main_class, flags, args, jars, classes, stamp):
    resources = BENCH / "src" / "main" / "resources"
    cp = os.pathsep.join([str(classes), str(resources), str(jars / "*")])
    flags = flags + COMMON_FLAGS
    cmd = (["java"] + flags +
           [f"-Djava.io.tmpdir={tmp_dir()}", f"-Dwallbench.root={ROOT}",
            f"-Dwallbench.stamp={stamp}", f"-Dwallbench.jvmflags={' '.join(flags)}",
            "-cp", cp, main_class] + args)
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out", code=3)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run the harness's own tests")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    jars = spark_jars()
    classes, stamp = build(jars)
    if a.self_test:
        code = run_java("wallbench.SelfTest", JVM["self-test"], [], jars, classes, stamp)
    else:
        code = run_java("wallbench.Main", JVM[a.workload],
                        [a.workload, str(a.seed), str(a.seconds), str(a.trace)],
                        jars, classes, stamp)
    sys.exit(code)


if __name__ == "__main__":
    main()
