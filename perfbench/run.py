#!/usr/bin/env python3
"""Run one workload of the Verdict benchmark.

    python3 perfbench/run.py --workload aqp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run builds the benchmark (the
program's sources plus perfbench/src) with sbt; later runs reuse the build
while the sources are unchanged. The measurement runs in a fresh JVM whose
last line of standard output is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

BENCH = "perfbench"
WORK = os.path.join(BENCH, ".work")
CLASSPATH = os.path.join(WORK, "classpath.txt")
SOURCES = ["src/main", "jobs", os.path.join(BENCH, "src"),
           os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project")]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600

JVM_OPTIONS = [
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
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
    "-XX:+UseParallelGC",
    "-XX:-UsePerfData",  # no hsperfdata files outside the checkout
]
HEAP = "3g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if "target" not in d.split(os.sep))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd[:3])} ...")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Compile with sbt and record the runtime classpath; skip when the
    sources are the ones last built."""
    digest = source_digest()
    stamp = CLASSPATH + ".sha256"
    if os.path.exists(CLASSPATH) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == digest:
                with open(CLASSPATH) as g:
                    return g.read().strip(), digest
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g",
            "-XX:-UsePerfData"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    out_path = os.path.join(WORK, "build.log")
    with open(out_path, "w") as out:
        code = run_bounded([sbt, "--batch", "-Dsbt.log.noformat=true",
                            "export Runtime/fullClasspath"],
                           BUILD_TIMEOUT_S, cwd=BENCH, env=env,
                           stdout=out, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL)
    with open(out_path) as f:
        lines = [l.strip() for l in f if l.strip()]
    if code != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write("".join(l + "\n" for l in lines[-30:]))
        fail(f"build failed (exit {code}); see {out_path}")
    cp = lines[-1]
    with open(CLASSPATH, "w") as f:
        f.write(cp)
    with open(stamp, "w") as f:
        f.write(digest)
    return cp, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # a terminated run still stops its JVM (see run_bounded)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (os.path.isdir("src/main/scala/repro") and os.path.isdir("jobs")):
        fail("run from the root of a checkout: the program sources are missing")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    os.makedirs(WORK, exist_ok=True)
    cp, digest = build()

    cores = len(os.sched_getaffinity(0))
    parallelism = min(cores, 4)
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    local = os.path.abspath(os.path.join(WORK, "spark-local"))
    for d in (tmp, local):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    env = dict(os.environ, SPARK_MASTER=f"local[{parallelism}]",
               SPARK_LOCAL_DIRS=local, PERFBENCH_SOURCE=digest[:16])
    cmd = (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}"] + JVM_OPTIONS +
           ["-cp", cp, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--data", os.path.abspath(os.path.join(WORK, "data")),
            "--heap", HEAP, "--cores", str(cores)])
    code = run_bounded(cmd, RUN_TIMEOUT_S, env=env, stdin=subprocess.DEVNULL)
    shutil.rmtree(local, ignore_errors=True)
    shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
