#!/usr/bin/env python3
"""Builds the release `pxml` daemon and the benchmark, then runs one
benchmark workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run files go to `.bench_work`. Cargo's output goes to
stderr, so the last stdout line is the benchmark's result object.
"""

import hashlib
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
RUN_TIMEOUT_S = 175


def revision():
    """The git commit if this is a checkout with .git, plus a digest of
    the sources that are built (a plain copy has no git metadata)."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    for p in files + [ROOT / "Cargo.lock", ROOT / "Cargo.toml"]:
        if p.is_file():
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def build(env, *args):
    done = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"e2ebench: cargo build {' '.join(args)} failed")


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        sys.exit("e2ebench: run from the repository root (no Cargo.toml or crates/ here)")
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build(env, "-p", "pxml-cli", "--bin", "pxml")
    build(env, "--manifest-path", str(HERE / "Cargo.toml"))
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cmd = [str(target / "release" / "pxml-e2ebench"), *sys.argv[1:],
           "--pxml", str(target / "release" / "pxml"),
           "--work", os.path.relpath(work, ROOT),
           "--revision", revision()]
    # A session of its own, so a timeout can stop the daemons too.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("e2ebench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
