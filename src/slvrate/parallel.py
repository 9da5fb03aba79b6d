"""Independent jobs split across forked worker processes.

A plain fork rather than a multiprocessing pool: the children inherit the
job closures and the data they read, so nothing but their outputs is
pickled, and the parent computes a share itself instead of idling. Fork is
safe here because the process has no other threads: slvrate defaults
OPENBLAS_NUM_THREADS to 1 before numpy loads.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import BinaryIO, Callable


def usable_cores() -> int:
    """The cores this process may run on, read afresh on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(share: Callable[[int, int], list], n: int, workers: int) -> list:
    """``share(k, w)`` for k in 0..w-1, with w = min(workers, n), merged so
    that item i of the result is item i // w of share i % w. Share 0 runs in
    this process, the others in forked children. When anything raises,
    every child still running is killed, and every child is reaped."""
    w = min(workers, n)
    if w <= 1 or not hasattr(os, "fork"):
        return share(0, 1)
    children = []  # (pid, read end of its pipe) of the children not yet reaped
    try:
        for k in range(1, w):
            children.append(_fork_share(share, k, w))
        shares = [share(0, w)]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            shares.append(_unpickle_share(pid, status, payload))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    merged = [None] * n
    for k, items in enumerate(shares):
        merged[k::w] = items
    return merged


def _fork_share(share: Callable[[int, int], list], k: int, w: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs ``share(k, w)``, pickles ``(True, items)`` or
    ``(False, exception)`` to a pipe and exits; returns its pid and the
    pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    code = 1
    try:  # the child never returns into the caller's frames
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, share(k, w)))
        except BaseException as err:  # the parent re-raises it
            payload = _pickled_error(err)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(err: BaseException) -> bytes:
    """``(False, err)`` pickled, or with ``err`` replaced by a RuntimeError
    holding its repr when it does not survive a pickle round trip."""
    try:
        payload = pickle.dumps((False, err))
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((False, RuntimeError(f"forked worker raised {err!r}")))


def _unpickle_share(pid: int, status: int, payload: bytes) -> list:
    """The share a reaped child sent, or the exception it sent raised."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"forked worker {pid} exited with status {code}")
    ok, value = pickle.loads(payload)  # written by this program's own child
    if not ok:
        raise value
    return value
