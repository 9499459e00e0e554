#!/usr/bin/env python3
"""Continuous top-k benchmark: build once, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload regular --seed 1 --seconds 10 --trace 0

It builds the benchmark together with the repository's main sources (once
per source change, with sbt, into .bench_build/), then runs one workload in
a single JVM and passes its output through. The last line of stdout is the
JSON result. Build output goes to stderr.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build")
STAMP = os.path.join(BUILD, "classpath.stamp")
CLASSPATH = os.path.join(BUILD, "classpath.txt")

# Heap is fixed here: the repository's sbt forks default to -Xmx48g.
# The recompilation cutoff keeps hot tree methods from staying
# deoptimized after profile pollution across algorithm shapes.
JVM_OPTS = [
    "-Xms1g", "-Xmx4g",
    "-XX:PerMethodRecompilationCutoff=-1",
    "-XX:ReservedCodeCacheSize=512m",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(2)


def source_stamp():
    h = hashlib.sha256()
    for top in (SOURCES, os.path.join(BENCH, "src"), os.path.join(BENCH, "project")):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p[len(ROOT):].encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    with open(os.path.join(BENCH, "build.sbt"), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def build_env():
    env = dict(os.environ)
    if not env.get("SPARK_HOME"):
        submit = shutil.which("spark-submit")
        if not submit:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        repos = os.path.expanduser("~/.sbt/repositories")
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
        env["SBT_OPTS"] = " ".join(opts)
    # Spark and the JVM write scratch files under the checkout only.
    env.pop("SPARK_LOCAL_DIRS", None)
    return env


def build(env):
    """Compiles once per source change; returns the runtime classpath."""
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        fail("no repository sources at src/main/scala/repro: run from the root of a checkout")
    stamp = source_stamp()
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read() == stamp:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global"),
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "[error]" in lines[-1]:
        fail("build failed")
    cp = lines[-1].strip()
    with open(CLASSPATH, "w") as fh:
        fh.write(cp)
    with open(STAMP, "w") as fh:
        fh.write(stamp)
    return cp


def main(argv):
    env = build_env()
    cp = build(env)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java"] + JVM_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp, "perfbench.Main"] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
