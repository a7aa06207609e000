#!/usr/bin/env python3
"""Verdict benchmark: builds the repository and the benchmark from source,
then runs one workload in a JVM and passes its output through.

Usage (from the repository root):
  python3 verdictbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result JSON. The build (sbt,
offline) runs on the first call in a checkout and whenever a source file
changes; its output, Spark's scratch files and the trace spans go under
.bench_build/ in the checkout.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH, "src", "main")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
WORKLOADS = ("fit_grid", "clean_grid")
RUN_LIMIT_S = 175  # a run, after any build, must end within 180 s

JVM_OPTIONS = os.path.join(BENCH, "jvm.options")


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for top in SOURCES:
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith((".scala", ".java"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the classpath of an identical source tree exists."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        sys.exit("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env and shutil.which("spark-submit"):
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the JVM's scratch files inside the checkout.
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           "-J-XX:-UsePerfData", f"-J-Djava.io.tmpdir={tmp}"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        cmd += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    cmd += ["compile", "export Runtime/fullClasspath"]
    log("building: " + " ".join(cmd[1:]))
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=BENCH, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "verdictbench" not in lines[-1]:
        sys.exit(f"build failed (sbt exit code {proc.returncode})")
    classpath = lines[-1].strip()
    os.makedirs(BUILD, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(classpath + "\n")
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    log(f"built in {time.time() - t0:.1f} s")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        sys.exit("no repository sources next to the benchmark (src/main/scala/repro)")
    classpath = build()

    work = os.path.join(BUILD, "run")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    with open(JVM_OPTIONS) as fh:
        options = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
    cmd = [java] + options + [f"-Djava.io.tmpdir={tmp}",
                              f"-Dlog4j2.configurationFile={os.path.join(BENCH, 'log4j2.properties')}"]
    cmd += ["-cp", classpath, "verdictbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--references", os.path.join(BENCH, "reference.txt"),
            "--work-dir", work,
            "--trace-out", os.path.join(BUILD, "traces", f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run exceeded {RUN_LIMIT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
