#!/usr/bin/env python3
"""Benchmark of the S/C reproduction: MV refresh time, plan quality and
optimizer time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds the program and the harness with sbt when their sources changed (the
first run in a checkout), then runs the harness in one JVM. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
metrics, end-to-end with `--trace 0` and per-layer with `--trace 1`. Every
run also writes its metrics, with sample counts and run conditions, under
`.bench_build/perfbench/results/`. `--smoke` runs a tiny configuration of
every workload and checks the harness against BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_FILES = os.path.join(HERE, "target")
MAIN = "repro.perfbench.Main"
HEAP = "-Xmx3g"
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_files():
    """Every file the build reads: the program's and the harness's."""
    skip = {"target", ".bsp", ".bench_build", ".git", "project"}
    for top in ("src", "jobs", "perfbench/src"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            for f in sorted(files):
                yield os.path.join(d, f)
    for f in ("build.sbt", "project/build.properties", "perfbench/build.sbt",
              "perfbench/project/build.properties"):
        yield os.path.join(ROOT, f)
    project = os.path.join(ROOT, "project")
    for f in sorted(os.listdir(project)):
        if f.endswith((".sbt", ".scala")):
            yield os.path.join(project, f)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_bounded(cmd, limit_s, **kw):
    """Runs cmd in its own process group; kills the group at the limit and
    waits for it. Returns (exit code or None on timeout, stdout lines)."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE,
                            text=True, **kw)
    deadline = time.monotonic() + limit_s
    lines = []
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                lines.append(line.strip())
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, limit_s)
        return proc.wait(timeout=max(1.0, deadline - time.monotonic())), lines
    except subprocess.TimeoutExpired:
        log(f"{cmd[0]} exceeded {limit_s:.0f} s; stopping it")
        return None, lines
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def build():
    """Compiles with sbt when the sources differ from the last build."""
    stamp_file = os.path.join(BUILD, "stamp")
    stamp = source_stamp()
    have = all(os.path.exists(os.path.join(RUN_FILES, f))
               for f in ("classpath.txt", "javaopts.txt"))
    if have and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                return False
    log("building the program and the harness with sbt")
    env = dict(os.environ, COURSIER_MODE="offline")
    opts = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    code, _ = run_bounded(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeRunFiles"],
                          BUILD_LIMIT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL)
    if code != 0:
        sys.exit("perfbench: build failed")
    os.makedirs(BUILD, exist_ok=True)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return True


def java_command(args, work):
    with open(os.path.join(RUN_FILES, "classpath.txt")) as fh:
        cp = fh.read().strip()
    with open(os.path.join(RUN_FILES, "javaopts.txt")) as fh:
        # The program's own test JVM options (module opens, Spark system
        # properties), with a heap sized for a shared machine.
        opts = [o for o in fh.read().split("\n") if o and not o.startswith("-Xmx")]
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # No perf-data file in the system's /tmp.
    return ["java", *opts, HEAP, "-XX:-UsePerfData",
            f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
            f"-Djava.io.tmpdir={tmp}", "-cp", cp, MAIN, *args,
            "--work-dir", work, "--results-dir", os.path.join(BUILD, "results")]


def check_smoke(lines):
    """Checks the smoke cases against BENCHMARK.json. Returns problems."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    cases = {c["case"]: c["result"] for c in lines}
    problems = []
    for w in ("tpcds-io", "dag-opt"):
        for t in ("0", "1"):
            r = cases.get(f"{w} trace={t}")
            if r is None:
                problems.append(f"{w} trace={t}: no result")
                continue
            got = r["metrics"]
            names = [m["name"] for m in want[t]]
            if list(got) != names:
                problems.append(f"{w} trace={t}: metrics {sorted(set(got) ^ set(names))} "
                                "differ from BENCHMARK.json")
            for m in want[t]:
                g = got.get(m["name"], {})
                if g.get("unit") != m["unit"] or not isinstance(g.get("samples"), int):
                    problems.append(f"{w} trace={t}: {m['name']} lacks unit {m['unit']} "
                                    "or a sample count")
                elif t == "0" and g["samples"] < 1:
                    problems.append(f"{w}: end-to-end {m['name']} has no samples")
            if r["failed"] != 0:
                problems.append(f"{w} trace={t}: failures {r['failures']}")
    corrupted = {n.split(" ", 1)[1]: r for n, r in cases.items() if n.startswith("corrupted ")}
    if not corrupted:
        problems.append("no corrupted-output case")
    for mv, c in corrupted.items():
        if c["failed"] < 1 or not any(mv in f for f in c["failures"]) \
                or c["metrics"]["failed_frac"]["value"] <= 0:
            problems.append(f"corrupted output of {mv} was not counted as failed")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    # Turn SIGTERM into an exit, so the finally blocks stop the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not a.smoke and not a.workload:
        ap.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        sys.exit("perfbench: no program to measure here (build.sbt and src/ are missing)")
    for tool in ("sbt", "java"):
        if shutil.which(tool) is None:
            sys.exit(f"perfbench: {tool} is not on PATH")

    start = time.monotonic()
    built = build()
    limit = 900 if a.smoke else (
        (BUILD_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start))
    work = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    args = ["--smoke"] if a.smoke else ["--workload", a.workload, "--seed", str(a.seed),
                                        "--seconds", str(a.seconds), "--trace", a.trace]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    try:
        code, lines = run_bounded(java_command(args, work), max(30.0, limit), cwd=work, env=env,
                                  stdin=subprocess.DEVNULL)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if a.smoke:
        problems = [] if code == 0 else [f"harness exited with {code}"]
        problems += check_smoke([json.loads(l) for l in lines if l.startswith('{"case"')])
        for p in problems:
            print(f"SMOKE FAILED: {p}")
        print("smoke: " + ("FAILED" if problems else "OK"))
        sys.exit(1 if problems else 0)
    if code != 0 or not lines:
        sys.exit(f"perfbench: harness failed (exit {code})")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: harness printed no result")


if __name__ == "__main__":
    main()
