#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload pair_stream --seed 1 --seconds 25 --trace 0

Run from the repository root. The script

  1. builds perfbench/ (and the emx libraries under src/) with CMake into
     $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
  2. prepares the artefacts (tokenizer, fp32 checkpoint, int8 EMXM
     container, 10^5-record catalog) before any measured run, once per
     source tree: they are prepared again whenever src/ or perfbench/
     change;
  3. runs the workload in a fresh process with pinned thread counts; the
     binary reads the metric names and units from BENCHMARK.json and
     checks its result line against them before printing it.

Workloads: pair_stream, catalog_zipf, finetune. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, writes a
chrome://tracing file under the build directory and records its own
overhead. Full reports (run metadata, host-speed canaries, diagnostics)
land in <build>/reports/.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("pair_stream", "catalog_zipf", "finetune")
# Kernel thread-pool size (EMX_NUM_THREADS). One thread runs every kernel
# inline on its caller: with a second pool worker, fine-tuning's run-to-run
# spread rose from ~5% to ~60% on a 4-vCPU VM whose vCPUs change speed
# independently. The binary pins each run to one vCPU (see main.cc).
POOL_THREADS = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout, env=None):
    """Runs cmd with output to log_path; returns the exit code."""
    with open(log_path, "w") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def tail(path, n=40):
    try:
        return "".join(Path(path).read_text(errors="replace").splitlines(True)[-n:])
    except OSError:
        return ""


def build(build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        if run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"],
                      build_dir / "configure.log", BUILD_TIMEOUT_S) != 0:
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            log("configure failed:\n" + tail(build_dir / "configure.log"))
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", str(build_dir), "--target", "perfbench",
                   "-j", jobs], build_dir / "build.log", BUILD_TIMEOUT_S) != 0:
        log("build failed:\n" + tail(build_dir / "build.log"))
        return False
    return True


def prepare(binary, artefacts, build_dir, source):
    """Prepares the artefacts for this source tree; a lock keeps concurrent
    runs out. READY holds the source id they were prepared from."""
    with open(build_dir / "artefacts.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ready = artefacts / "READY"
        if ready.exists() and ready.read_text().strip() == source:
            return True
        shutil.rmtree(artefacts, ignore_errors=True)
        artefacts.mkdir(parents=True)
        log("preparing artefacts")
        rc = run_logged([str(binary), "prepare", "--artefacts", str(artefacts)],
                        build_dir / "prepare.log", BUILD_TIMEOUT_S,
                        env=dict(os.environ, EMX_NUM_THREADS="4"))
        if rc != 0:
            log("prepare failed:\n" + tail(build_dir / "prepare.log"))
            return False
        ready.write_text(source + "\n")
    return True


def source_id(root):
    """A hash of the sources the binary and the artefacts are made from:
    src/, perfbench/src/ and perfbench/CMakeLists.txt. Documentation and
    scripts are left out, so editing them keeps the artefacts."""
    digest = hashlib.sha256()
    inputs = [root / "src", BENCH_DIR / "src", BENCH_DIR / "CMakeLists.txt"]
    for top in inputs:
        for path in sorted([top] if top.is_file() else top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def git_sha(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return sha.stdout.strip() if sha.returncode == 0 else "unavailable"


def selftest(build_dir):
    if not build(build_dir):
        return 1
    if run_logged(["cmake", "--build", str(build_dir), "--target",
                   "perfbench_test"], build_dir / "test_build.log",
                  BUILD_TIMEOUT_S) != 0:
        log("test build failed:\n" + tail(build_dir / "test_build.log"))
        return 1
    return subprocess.run([str(build_dir / "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    if args.selftest:
        return selftest(build_dir)
    if args.workload is None:
        parser.error("--workload is required")
    spec = BENCH_DIR.parent / "BENCHMARK.json"
    if not spec.exists():
        log("BENCHMARK.json not found next to perfbench/")
        return 1
    if not build(build_dir):
        return 1
    binary = build_dir / "perfbench"
    artefacts = build_dir / "artefacts"
    source = source_id(root)
    if not prepare(binary, artefacts, build_dir, source):
        return 1

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (build_dir / "reports").mkdir(exist_ok=True)
    cmd = [str(binary), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--artefacts", str(artefacts),
           "--spec", str(spec),
           "--report", str(build_dir / "reports" / f"{tag}.json")]
    if args.trace:
        (build_dir / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(build_dir / "traces" / f"{tag}.json")]
    env = dict(os.environ,
               EMX_NUM_THREADS=str(POOL_THREADS),
               PERFBENCH_SOURCE_ID=source, PERFBENCH_GIT_SHA=git_sha(root))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run timed out")
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        log(f"run failed with exit code {proc.returncode}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
