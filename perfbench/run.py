#!/usr/bin/env python3
"""Builds the CDBS benchmark from the repository sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <query_corpus|serve_mixed>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles ../src together with the workload runner. The build goes to
$CARGO_TARGET_DIR (default: .bench_build) under the repository root; stores
and span dumps go to <build dir>/work.

Before the runner's output this prints one `env {...}` line recording the
source revision, compiler, CPU model, CPU count, L3 size and the filesystem
holding the store directory. The last line of stdout is the runner's JSON
result. Exit status: the runner's (0 ok, 1 wrong answers, 2 setup error);
2 when the build fails, 3 when the run overruns its time limit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path))


def run_logged(cmd, log, timeout):
    """Runs `cmd`, appending its output to `log`; True on success."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            out.write("timed out: %s\n" % " ".join(cmd))
            return False


def build(out_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    cmake_dir = os.path.join(out_dir, "perfbench-cmake")
    log = os.path.join(out_dir, "perfbench-build.log")
    os.makedirs(out_dir, exist_ok=True)
    open(log, "w").close()
    jobs = str(len(os.sched_getaffinity(0)))
    ok = (os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")) or
          run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log,
                     BUILD_TIMEOUT_S))
    ok = ok and run_logged(["cmake", "--build", cmake_dir, "-j", jobs,
                            "--target", "cdbs_perf"], log, BUILD_TIMEOUT_S)
    if not ok:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        return None
    return os.path.join(cmake_dir, "cdbs_perf")


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def compiler(out_dir):
    cache = os.path.join(out_dir, "perfbench-cmake", "CMakeCache.txt")
    path = "c++"
    for line in read_first(cache, "").splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return path


def cpu_model():
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if read_first(os.path.join(base, index, "level")) == "3":
                return read_first(os.path.join(base, index, "size"))
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Type and device of the mount holding `path` (longest prefix)."""
    path = os.path.realpath(path)
    best = ("", "unknown", "unknown")
    for line in read_first("/proc/mounts", "").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best[0]):
            best = (mount, fields[2], fields[0])
    return "%s on %s (mounted at %s)" % (best[1], best[2], best[0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(out_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    env = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compiler": compiler(out_dir),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3_size(),
        "store_fs": filesystem_of(workdir),
    }
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
