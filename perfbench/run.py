#!/usr/bin/env python3
"""Builds the CLEO benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload plan-c1 --seed 1 --seconds 1 --trace 0
    python3 perfbench/run.py --selftest

The benchmark's Scala sources live in bench/src/main/scala/repro/perfbench,
which the repository's `bench` sbt project compiles. The first run builds it
with sbt and caches the classpath under .bench_build/perfbench, keyed by a
hash of the sources; later runs start the JVM directly. The last line of
stdout is the result as one JSON object.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SOURCES = ["build.sbt", "project/build.properties", "src/main", "jobs", "bench/src/main"]
REQUIRED = ["build.sbt", "src/main/scala/repro", "bench/src/main/scala/repro/perfbench"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# Spark on JDK 17 needs the module system opened the way build.sbt opens it.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    digest = hashlib.sha256(ROOT.encode())
    for source in SOURCES:
        path = os.path.join(ROOT, source)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(f.encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def classpath():
    for required in REQUIRED:
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"{required} not found; run from the root of the repository")
    os.makedirs(OUT, exist_ok=True)
    stamp = source_stamp()
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            cached_stamp, cp = fh.read().split("\n")[:2]
        if cached_stamp == stamp and all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp

    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    sbt_opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in sbt_opts:
        env["SBT_OPTS"] = (sbt_opts + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           "bench/compile", "export bench/Compile/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr, flush=True)
    try:
        build = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if build.returncode != 0:
        sys.stderr.write(build.stdout[-4000:])
        fail("build failed", 1)
    lines = [line.strip() for line in build.stdout.splitlines() if line.strip()]
    cp = next((line for line in reversed(lines) if not line.startswith("[")), "")
    if not cp or not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        sys.stderr.write(build.stdout[-4000:])
        fail("could not read the classpath from sbt", 1)
    with open(cp_file, "w") as fh:
        fh.write(stamp + "\n" + cp + "\n")
    return cp


def main():
    cp = classpath()
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    cmd = [java, "-Xmx3g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={os.path.join(OUT, 'spark')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(OUT, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1",
           "-Djdk.reflect.useDirectMethodHandleAccessor=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, "repro.perfbench.Main"] + sys.argv[1:]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
