"""Kill-and-resume: SIGKILL a sweep mid-grid, resume, compare artifacts.

This is the acceptance test for the sweep subsystem's central promise:
progress persists after every completed cell, so even an uncatchable
SIGKILL loses at most the in-flight cell, and the artifact a resumed
run finally produces is byte-for-byte identical to an uninterrupted
run's.  The sweep runs as a real ``python -m repro sweep`` subprocess —
no in-process shortcuts — throttled via ``REPRO_SWEEP_CELL_DELAY`` so
the kill reliably lands mid-grid, at ``--jobs 1`` and on the process
pool at ``--jobs 2``.  A second test kills a sweep from inside one
cell's job, mid-batch, and counts the stubs the cells before it left.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
GRID = "n3-smoke"
GRID_CELLS = 12  # |sample_adversaries(3, 7, 6)| x |ks=(1, 2)|


def _env(cell_delay: float = 0.0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if cell_delay:
        env["REPRO_SWEEP_CELL_DELAY"] = str(cell_delay)
    else:
        env.pop("REPRO_SWEEP_CELL_DELAY", None)
    return env


def _assert_no_process_outlives(marker: str, seconds: float = 10.0) -> None:
    """No process whose command line names ``marker`` is left running:
    the killed sweep's pool workers must exit with it."""
    proc = Path("/proc")
    if not proc.is_dir():
        return
    deadline = time.monotonic() + seconds
    while True:
        left = []
        for cmdline in proc.glob("[0-9]*/cmdline"):
            try:
                if marker in cmdline.read_bytes().decode(errors="replace"):
                    left.append(cmdline.parent.name)
            except OSError:
                continue  # exited while we looked
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert not left, f"processes outlived the killed sweep: {left}"


def _sweep_command(checkpoint_dir: Path, artifact: Path, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "--grid",
        GRID,
        "--checkpoint-dir",
        str(checkpoint_dir),
        "--output",
        str(artifact),
        *extra,
    ]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sigkilled_sweep_resumes_to_byte_identical_artifact(tmp_path, jobs):
    # 1. The reference: one uninterrupted run, always in-process.
    straight_art = tmp_path / "straight.json"
    completed = subprocess.run(
        _sweep_command(tmp_path / "straight", straight_art),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    reference = straight_art.read_bytes()

    # 2. The victim: same grid, throttled, SIGKILLed once >= 2 cells
    #    (but not all of them) are checkpointed.
    killed_dir = tmp_path / "killed"
    killed_art = tmp_path / "killed.json"
    stub_dir = killed_dir / "cells"
    victim = subprocess.Popen(
        _sweep_command(killed_dir, killed_art, "--jobs", jobs),
        env=_env(cell_delay=0.5),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            stubs = list(stub_dir.glob("*.json")) if stub_dir.is_dir() else []
            if len(stubs) >= 2:
                break
            assert victim.poll() is None, "sweep finished before the kill"
            time.sleep(0.05)
        else:
            raise AssertionError("no checkpoints appeared before deadline")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
    assert victim.returncode == -signal.SIGKILL
    _assert_no_process_outlives(str(killed_dir))
    survivors = len(list(stub_dir.glob("*.json")))
    assert 2 <= survivors < GRID_CELLS
    assert not killed_art.exists()

    # 3. Resume from the checkpoint; the artifact must match byte for byte.
    resumed = subprocess.run(
        _sweep_command(killed_dir, killed_art, "--resume", "--jobs", jobs),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "resumed from checkpoint" in resumed.stdout
    assert killed_art.read_bytes() == reference


#: Runs the grid in one batch, in a child process that is SIGKILLed
#: from inside the job of cell ``KILLED_AT`` once the cells before it
#: have had time to finish.  Later cells hold their workers until the
#: sweep is gone, so exactly the cells before ``KILLED_AT`` complete.
_KILL_MID_BATCH = """
import os, signal, sys, time
from repro.engine import Engine
from repro.engine.jobs import JOB_KINDS
from repro.sweep import SweepDriver, load_grid

checkpoint_dir, jobs, killed_at = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
grid = load_grid("n3-smoke")
index_of = {cell.payload(grid): cell.index for cell in grid.cells()}
sweep_pid = os.getpid()
compute_cell = JOB_KINDS["sweep"]

def cell(payload):
    index = index_of[payload]
    if index == killed_at:
        time.sleep(2.0)
        os.kill(sweep_pid, signal.SIGKILL)
    if index >= killed_at:
        while os.getppid() == sweep_pid:
            time.sleep(0.05)
        os._exit(0)
    return compute_cell(payload)

JOB_KINDS["sweep"] = cell
SweepDriver(grid, checkpoint_dir, engine=Engine(jobs=jobs)).run()
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_killed_mid_batch_keeps_one_stub_per_completed_cell(
    tmp_path, jobs
):
    killed_at = 5
    victim = subprocess.run(
        [
            sys.executable,
            "-c",
            _KILL_MID_BATCH,
            str(tmp_path),
            jobs,
            str(killed_at),
        ],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    stubs = sorted(path.name for path in (tmp_path / "cells").glob("*.json"))
    assert [int(name[:5]) for name in stubs] == list(range(killed_at))


def test_rerun_without_resume_flag_is_refused(tmp_path):
    first = subprocess.run(
        _sweep_command(tmp_path / "ckpt", tmp_path / "a.json", "--limit", "1"),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert first.returncode == 2, first.stdout + first.stderr
    again = subprocess.run(
        _sweep_command(tmp_path / "ckpt", tmp_path / "a.json"),
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert again.returncode != 0
    assert "--resume" in again.stdout + again.stderr
