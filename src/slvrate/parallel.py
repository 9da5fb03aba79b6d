"""Independent items mapped across forked worker processes.

A plain fork rather than a multiprocessing pool: the children inherit the
item function and the data it reads, so nothing but their outputs is
pickled, and the parent computes a share itself instead of idling. Fork is
safe here because the process has no other threads: slvrate defaults
OPENBLAS_NUM_THREADS to 1 before numpy loads, and where numpy loaded first,
``fork_map`` holds numpy's bundled OpenBLAS pool at one thread while its
children run, since idle helper threads spin on the cores they need.

``fork_map`` owns the order of the items and the choice of the error
raised: its callers write the per-item function only, and get the serial
loop's result, or its first error, for every worker count.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
from typing import BinaryIO, Callable


def usable_cores() -> int:
    """The cores this process may run on, read afresh on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(fn: Callable[[int], object], n: int, workers: int) -> list:
    """``[fn(0), ..., fn(n - 1)]`` across w = min(workers, n) processes.

    Share k runs items k, k + w, k + 2w, ... and stops at its first
    Exception; share 0 runs in this process, the others in forked children,
    whose items must pickle. When items raise, the error of the lowest
    failing index is raised, which is the error a serial loop would raise
    first. When anything else goes wrong, every child still running is
    killed, and every child is reaped. numpy's OpenBLAS pool runs one
    thread from the first fork until every child is reaped.
    """
    w = min(workers, n)
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(i) for i in range(n)]
    pool = _openblas_pool()
    threads = pool[0]() if pool else 1
    if threads != 1:
        pool[1](1)
    children = []  # (pid, read end of its pipe) of the children not yet reaped
    try:
        for k in range(1, w):
            children.append(_fork_share(fn, k, n, w))
        shares = [_share(fn, 0, n, w)]
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
        if threads != 1:
            pool[1](threads)
    # share k's first failure is item k + len(items) * w; every lower item
    # of every share ran before that share's own first failure
    failures = [(k + len(items) * w, err) for k, (items, err) in enumerate(shares)
                if err is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    merged = [None] * n
    for k, (items, _err) in enumerate(shares):
        merged[k::w] = items
    return merged


@functools.cache
def _openblas_pool() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS that numpy bundles,
    or None, after one warning line naming the cause, where numpy's BLAS
    exports no such calls (MKL, a system OpenBLAS)."""
    import ctypes  # numpy has imported it already

    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches what it links
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError) as err:
        import logging

        logging.getLogger(__name__).warning(
            "forked workers keep numpy's BLAS threads, which cannot be set to one: %s", err
        )
        return None


def _share(fn: Callable[[int], object], k: int, n: int, w: int) -> tuple[list, Exception | None]:
    """(outputs, None) of items k, k + w, ... below n, or (the outputs
    before the first Exception, that exception)."""
    items = []
    for i in range(k, n, w):
        try:
            items.append(fn(i))
        except Exception as err:
            return items, err
    return items, None


def _fork_share(fn: Callable[[int], object], k: int, n: int, w: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs share k, pickles it to a pipe and exits;
    returns its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    code = 1
    try:  # the child never returns into the caller's frames
        os.close(read_fd)
        items, err = _share(fn, k, n, w)
        payload = pickle.dumps((items, None if err is None else _portable(err)))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _portable(err: Exception) -> Exception:
    """``err``, or a RuntimeError holding its repr when it does not survive
    a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"forked worker raised {err!r}")


def _unpickle_share(pid: int, status: int, payload: bytes) -> tuple[list, Exception | None]:
    """The share a reaped child sent; a child that died before sending it
    is a RuntimeError."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"forked worker {pid} exited with status {code}")
    return pickle.loads(payload)  # written by this program's own child
