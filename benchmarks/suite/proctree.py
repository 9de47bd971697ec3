"""CPU time and peak memory of a process tree, read from ``/proc``.

The benchmark measures the program from outside: it never asks a server
how busy it was, it reads the kernel's accounting for every process the
server tree holds.  Roles follow how the program starts processes:

* ``root`` — the process the benchmark spawned (the ``repro serve`` shard,
  the ``repro fleet serve`` router, or the offline child);
* ``main`` — a process that ``exec``'d its own command line under the root
  (the fleet's ``repro serve`` shards);
* ``worker`` — a forked copy of its parent (pool workers: same command
  line as the process that forked them).

CPU of children that ended and were reaped inside the tree (the offline
workload's short-lived pool workers) shows up in the parent's ``cutime`` /
``cstime`` and is booked to ``worker``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ProcInfo:
    ppid: int
    ticks: int  # utime + stime of the process itself
    child_ticks: int  # cutime + cstime of its reaped children
    zombie: bool
    cmdline: bytes
    hwm_kb: int  # VmHWM, peak resident set


def _read_stat(pid: int):
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read()
    # Field 2 (comm) may hold spaces and parentheses; fields 3.. follow
    # the last ')'.  Field k sits at rest[k - 3].
    rest = data[data.rindex(b")") + 2:].split()
    ppid = int(rest[1])
    ticks = int(rest[11]) + int(rest[12])
    child_ticks = int(rest[13]) + int(rest[14])
    return ppid, ticks, child_ticks, rest[0] == b"Z"


def _read_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    return 0  # kernel threads and zombies carry no memory lines


def _parents() -> Dict[int, int]:
    parents = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            parents[int(name)] = _read_stat(int(name))[0]
        except (OSError, ValueError, IndexError):
            continue  # exited while we listed
    return parents


def tree_pids(root: int) -> list:
    """``root`` and every live descendant."""
    children: Dict[int, list] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    pids, stack = [], [root]
    while stack:
        pid = stack.pop()
        pids.append(pid)
        stack.extend(children.get(pid, ()))
    return pids


def snapshot(root: int) -> Dict[int, ProcInfo]:
    """Accounting of every process in the tree under ``root``."""
    infos = {}
    for pid in tree_pids(root):
        try:
            ppid, ticks, child_ticks, zombie = _read_stat(pid)
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
            hwm = _read_hwm_kb(pid)
        except (OSError, ValueError, IndexError):
            continue
        infos[pid] = ProcInfo(ppid, ticks, child_ticks, zombie, cmdline, hwm)
    return infos


def role(pid: int, infos: Dict[int, ProcInfo], root: int) -> str:
    if pid == root:
        return "root"
    parent = infos.get(infos[pid].ppid)
    if parent is not None and parent.cmdline == infos[pid].cmdline:
        return "worker"
    return "main"


def cpu_ms_by_role(
    before: Dict[int, ProcInfo], after: Dict[int, ProcInfo], root: int
) -> Dict[str, float]:
    """CPU [ms] the tree spent between two snapshots, per role."""
    spent = {"root": 0, "main": 0, "worker": 0}
    for pid, info in after.items():
        prev = before.get(pid)
        spent[role(pid, after, root)] += info.ticks - (prev.ticks if prev else 0)
        spent["worker"] += info.child_ticks - (prev.child_ticks if prev else 0)
    return {name: ticks * 1000.0 / CLOCK_TICKS for name, ticks in spent.items()}


def peak_rss_mb(infos: Dict[int, ProcInfo]) -> float:
    """Sum of ``VmHWM`` over the live (non-zombie) processes [MB]."""
    return sum(info.hwm_kb for info in infos.values() if not info.zombie) / 1024.0


def process_group_alive(pgid: int) -> bool:
    """True while any non-zombie process of group ``pgid`` exists."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        rest = data[data.rindex(b")") + 2:].split()
        if rest[0] != b"Z" and int(rest[2]) == pgid:
            return True
    return False
