#!/usr/bin/env python3
"""Build the TDH benchmark harness if needed, then run one workload.

    python3 tdh_bench/run.py --workload crowd_bp --seed 0 --seconds 40 --trace 0

Run from the repository root. The first run compiles the program and the
harness with sbt (the benchmark's own build in this directory depends on the
repository's build) and caches the runtime classpath in `.bench_build/`,
keyed by a hash of every source and build file; later runs start the JVM
directly with fixed flags. The last line of standard output is the result.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
WORKLOADS = ("crowd_bp", "infer_sweep", "spark_her")
MAIN_CLASS = "tdhbench.Main"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Fixed JVM settings: under default G1 with an unpinned heap, TdhLocal.run
# times spread several times wider than under the parallel collector with a
# pinned heap. The --add-opens list is the one Spark's launcher adds on JDK 17.
JVM_FLAGS = [
    "-XX:+UseParallelGC", "-Xms2g", "-Xmx2g", "-XX:-UsePerfData",
    "-Djava.net.preferIPv4Stack=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def log(msg):
    print("[tdh_bench] " + msg, file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads, in a stable order."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for base in (ROOT / "project", HERE / "project"):
        files += sorted(p for p in base.glob("*") if p.is_file())
    for base in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return [f for f in files if f.is_file()]


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def run_group(cmd, cwd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(stamp):
    """Compile with sbt and cache the runtime classpath."""
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.is_file():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=%s "
                           "-Dsbt.offline=true -Xmx3g" % repos)
    sbt = shutil.which("sbt")
    if sbt is None:
        sys.exit("tdh_bench: sbt is not on PATH")
    log("building with sbt (first run in this checkout)")
    t0 = time.time()
    code, out = run_group(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "export Runtime/fullClasspath"],
        HERE, BUILD_TIMEOUT_S, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    (OUT / "build.log").write_text(out)
    if code != 0:
        sys.stderr.write(out[-4000:])
        sys.exit("tdh_bench: build failed (exit %d), log in .bench_build/build.log" % code)
    cp = [line for line in out.splitlines() if line.startswith("/") and ".jar" in line]
    if not cp:
        sys.exit("tdh_bench: sbt printed no classpath")
    (OUT / "classpath.txt").write_text(cp[-1].strip() + "\n")
    (OUT / "stamp.txt").write_text(stamp + "\n")
    log("built in %.0f s" % (time.time() - t0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit("tdh_bench: %s holds no program sources (build.sbt, src/main/scala)" % ROOT)
    OUT.mkdir(exist_ok=True)
    stamp = source_hash()
    stamp_file = OUT / "stamp.txt"
    if not stamp_file.is_file() or stamp_file.read_text().strip() != stamp:
        build(stamp)
    classpath = (OUT / "classpath.txt").read_text().strip()

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    tmp = OUT / "tmp"
    tmp.mkdir(exist_ok=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java)] + JVM_FLAGS + [
        "-Djava.io.tmpdir=%s" % tmp,
        "-Dtdhbench.outDir=%s" % OUT,
        "-Dtdhbench.sparkLocalDir=%s" % (OUT / "spark-local"),
        "-Dtdhbench.warehouseDir=%s" % (OUT / "spark-warehouse"),
        "-Dtdhbench.commit=%s" % commit,
        "-Dtdhbench.sourceHash=%s" % stamp,
        "-cp", classpath, MAIN_CLASS,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    try:
        code, out = run_group(cmd, ROOT, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("tdh_bench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [line for line in out.splitlines() if line.strip()]
    result = [line for line in lines if line.startswith('{"correct"')]
    for line in lines:
        if line not in result:
            print(line)
    if result:
        print(result[-1], flush=True)
    sys.exit(code if result else (code or 1))


if __name__ == "__main__":
    main()
