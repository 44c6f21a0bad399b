"""The decode worker and the shared region whose pages it reads.

The two directions of an encoder layer share nothing until the layer
above reads them, so a forward pass without a cache may run them at
once: this process runs the forward direction while its decode worker,
a child forked by the first such pass, runs the backward one
(run_both).  The worker runs the same numpy calls on the same
operands, so its rows are the bits this process would compute.  A
worker thread made decoding slower, since the directions' Python step
code takes turns at the interpreter lock, and a process has a lock of
its own.

Weights.  The shared region is a memfd file of SHARED_BYTES (256 MiB)
of address space, mapped shared before the worker forks, so the worker
reads the parent's live pages.  Every parameter dict the program makes
places the encoder's tensors (encoder.param_shapes) in one block of it
through aligned_views: init_params draws into one, load_model reads
into one, and fit's best copy takes one, each the same size for a given
config; the embedding tables and crf.trans stay in private memory,
since the worker never reads them.  A request carries the byte offsets
of its direction's six weights and no weight, and weights edited in
place, as training and gradient checks do between decodes, are read as
they are.  A direction whose six weights are not all C-contiguous
float64 arrays in the region (hand-made weights, or a full region)
runs in this process.  A block whose last view is gone serves the next
block of the same size, whose pages are then already in place, so a
repeated build or load faults in no fresh page; the file gives no page
back.  A child forked from the parent other than the worker gets a
private copy of the region's used bytes at the same address
(_Region.detach), so its arrays are a snapshot of the fork, as with
any other memory: the fork costs that copy.

Dispatch.  This module alone decides where a pass without a cache runs
its backward directions.  A pass is sent when its longest sentence has
FORK_MIN_TOKENS tokens or more, the process may run on 2 CPUs or more,
os.memfd_create exists (Linux) and no other Python thread runs, since
one could hold a lock at the fork or send a request of its own.  At
paper dimensions a worker already forked wins from 2 tokens on
(CHANGES.md has the curves), but FORK_MIN_TOKENS stays 6 until a
benchmark workload with shorter passes can measure a lower one, its
first fork included.  The parent sends the weights' offsets and the sentences' input rows down
one pipe, and the worker sends its top hidden rows (B, n, h) back up
another; nothing is pickled, and no request names its direction.  When
the fork or a send fails, or the worker dies or fails before it
replies, the parent reaps it and runs the direction itself, with the
same results and the same errors, and the next pass forks a fresh
worker; when the parent's own direction raises, it kills the worker,
whose reply no call would read.

Lifetime.  The worker keeps the code it was forked with, points fds
0-2 at /dev/null and closes every other fd it inherited but its own
pipes, so no reader of the parent's stdout waits for it, ignores
SIGINT, leaves only through os._exit, so it runs no atexit handler and
flushes no stdio buffer it inherited, and dies with its parent: the
kernel kills it when the parent does (PR_SET_PDEATHSIG), also in the
middle of a request, and it exits when its requests pipe closes.
close_worker() stops it, as an atexit handler does, and a child forked
from the parent forgets it, closing its copies of the worker's pipes
without killing it.
"""

import atexit
import contextlib
import ctypes
import math
import mmap
import os
import signal
import threading
import warnings
import weakref

import numpy as np

# bytes of address space in the shared region; a memfd file is charged
# only for the pages it holds, so the unused space costs no memory
SHARED_BYTES = 2 ** 28

_MAP_FAILED = ctypes.c_void_p(-1).value
_MREMAP_MAYMOVE, _MREMAP_FIXED = 1, 2
_PR_SET_PDEATHSIG = 1

# a pass whose longest sentence has fewer tokens runs both directions in
# this process (module docstring, Dispatch)
FORK_MIN_TOKENS = 6


def _libc():
    """The C library's mmap, mremap and prctl, through ctypes."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mmap.restype = libc.mremap.restype = ctypes.c_void_p
    libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                          ctypes.c_int, ctypes.c_int, ctypes.c_long)
    libc.mremap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                            ctypes.c_int, ctypes.c_void_p)
    libc.prctl.restype = ctypes.c_int
    libc.prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    return libc


def _mapped(address):
    """`address` as an mmap or mremap call returned it; OSError if the
    call failed."""
    if address in (None, _MAP_FAILED):
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno))
    return address


class _Region:
    """The shared region: `capacity` bytes of one memfd file, mapped
    shared at one address that a forked decode worker inherits, so that
    it reads the parent's live pages (module docstring, Weights).

    block() carves page-rounded blocks from the start.  A block whose
    last view is gone goes on a free list by size and serves the next
    block of that size, whose pages are then already in place; the file
    gives no page back.  When neither a freed block nor the rest of the
    region fits, block() returns None.  In a forked child other than the
    worker, detach() puts a private copy of the used bytes at the same
    address, and the child takes no more blocks from it.
    """

    def __init__(self, capacity):
        self.libc = _libc()
        fd = os.memfd_create("attnseg-params")
        try:
            os.ftruncate(fd, capacity)
            self.address = _mapped(self.libc.mmap(
                None, capacity, mmap.PROT_READ | mmap.PROT_WRITE,
                mmap.MAP_SHARED, fd, 0))
        finally:
            os.close(fd)
        self.buffer = (ctypes.c_char * capacity).from_address(self.address)
        self.capacity = capacity
        self.used = 0
        self.free = {}
        self.lock = threading.Lock()

    def block(self, nbytes):
        """A writable, page-aligned uint8 array of nbytes in the region,
        or None if it has no room."""
        size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        with self.lock:
            freed = self.free.setdefault(size, [])
            if freed:
                offset = freed.pop()
            elif self.used + size <= self.capacity:
                offset, self.used = self.used, self.used + size
            else:
                return None
        block = np.frombuffer(self.buffer, np.uint8, nbytes, offset)
        # on the array: numpy makes it the base of every view of the
        # block, since its own base is no array, so it outlives them all.
        # A list append takes no lock, so this may run inside block()
        weakref.finalize(block, freed.append, offset)
        return block

    def offset(self, array):
        """The byte offset in the region of a C-contiguous float64 array
        that lies in its blocks, or None."""
        start = array.__array_interface__["data"][0] - self.address
        if (array.dtype == np.float64 and array.flags.c_contiguous
                and 0 <= start and start + array.nbytes <= self.used):
            return start
        return None

    def detach(self):
        """In a forked child other than the decode worker: replace the
        used bytes by a private copy at the same address, so the child's
        arrays hold what they held at the fork and the parent's later
        writes do not reach them, nor theirs the parent's."""
        size = self.used
        if size:
            copy = _mapped(self.libc.mmap(
                None, size, mmap.PROT_READ | mmap.PROT_WRITE,
                mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS, -1, 0))
            ctypes.memmove(copy, self.address, size)
            _mapped(self.libc.mremap(copy, size, size,
                                     _MREMAP_MAYMOVE | _MREMAP_FIXED, self.address))


# this process's shared region, made by the first call that needs one
_region = None
_region_lock = threading.Lock()


def _shared_region():
    """This process's shared region, made if there is none; None where
    os.memfd_create is missing or the region cannot be made."""
    global _region
    with _region_lock:
        if _region is None and hasattr(os, "memfd_create"):
            with contextlib.suppress(OSError):
                _region = _Region(SHARED_BYTES)
        return _region


def aligned_views(shapes, dtypes=None, shared=True):
    """Name -> an uninitialised, C-contiguous array of shapes[name], of
    dtypes[name] where given and float64 otherwise, each starting on a
    64-byte boundary, all views into one block.

    With `shared` the block lies in this process's shared region, where
    the decode worker reads it in place, and once no view of it is left
    its pages serve the next block of the same size.  Without, or when
    the region is full or missing, the block is a private one on the
    heap.
    """
    types = [np.dtype((dtypes or {}).get(name, np.float64)) for name in shapes]
    starts, end = [], 0
    for shape, t in zip(shapes.values(), types):
        starts.append(end)
        end += -(-math.prod(shape) * t.itemsize // 64) * 64
    region = _shared_region() if shared else None
    block = None if region is None else region.block(end)
    if block is None:
        block = np.empty(end + 63, dtype=np.uint8)
        block = block[-block.ctypes.data % 64:]
    return {name: block[start:start + math.prod(shape) * t.itemsize].view(t)
            .reshape(shape)
            for (name, shape), t, start in zip(shapes.items(), types, starts)}


def _read(fd, array):
    """Fill a C-contiguous array from the pipe `fd` and return it;
    EOFError if the pipe closes first."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("the decode worker's pipe closed")
        view = view[got:]
    return array


def _write(fd, *arrays):
    """Write the bytes of each array, in order, into the pipe `fd`."""
    for array in arrays:
        view = memoryview(np.ascontiguousarray(array)).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _keep_only(fds):
    """In the decode worker: point fds 0-2 at /dev/null and close every
    other fd but `fds`, so that no reader of an inherited pipe waits for
    the worker.  Returns `fds`, each moved above 2 if it was not."""
    kept = []
    for fd in fds:
        while fd < 3:
            fd = os.dup(fd)
        kept.append(fd)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in range(3):
        os.dup2(null, fd)
    start = 3
    for fd in sorted(kept):
        os.closerange(start, fd)
        start = fd + 1
    os.closerange(start, os.sysconf("SC_OPEN_MAX"))
    return kept


def _serve(requests, replies, region):
    """The decode worker's loop: read a request from the `requests`
    pipe, run the direction it asks for, and write the sentences' top
    hidden rows into the `replies` pipe, until the requests pipe closes.

    A request is int64 (a, h, d, memory span or -1, B), the byte offsets
    in `region`, the shared region inherited at the fork, of the
    direction's six encoder.WEIGHTS and the B sentences' lengths, then
    the sentences' (n_i, d) float64 input rows."""
    # the encoder imports this module; in the worker both are loaded
    from .encoder import WEIGHTS, _direction_shapes, _run_direction
    while True:
        try:
            head = _read(requests, np.empty(5 + len(WEIGHTS), dtype=np.int64))
        except EOFError:
            return
        a, h, d, span, batch, *offsets = (int(v) for v in head)
        lengths = _read(requests, np.empty(batch, dtype=np.int64))
        inputs = [_read(requests, np.empty((m, d))) for m in lengths]
        params = {name: np.frombuffer(region.buffer, np.float64,
                                      math.prod(shape), offset).reshape(shape)
                  for name, shape, offset in zip(WEIGHTS, _direction_shapes(a, h, d),
                                                 offsets)}
        state = _run_direction(params, "", inputs, False,
                               None if span < 0 else span)
        _write(replies, *(state.tape[p, :m, :h] for p, m in enumerate(lengths)))


# set in this process while it forks the decode worker, and so in the
# worker, where the fork handler must leave the shared region shared
_forking_worker = False


class _Worker:
    """The decode worker of this process, a forked child that runs the
    backward direction of forward passes without a cache (module
    docstring).

    send() writes a request into the `requests` pipe: the offsets of the
    direction's weights in `region`, the shared region the worker
    inherits, and its inputs; rows() reads the reply from the `replies`
    pipe.  The child points fds 0-2 at /dev/null and closes every other
    fd it inherited but its own two, leaves only through os._exit, so it
    runs no atexit handler and flushes no stdio buffer it inherited,
    ignores SIGINT, so a Ctrl-C reaches only the parent, and dies with
    this process, whose death the kernel signals to it with SIGKILL.
    """

    def __init__(self, region):
        global _forking_worker
        self.pid = None
        self.fds = []
        parent = os.getpid()
        try:
            self.fds += os.pipe() + os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 and later warn when a process with other
                # threads forks, and OpenBLAS's worker threads count.
                # They are the only others (_dispatch), OpenBLAS stops
                # them before a fork and starts them again when next
                # needed, and the child runs only numpy code and leaves
                # by os._exit
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, "
                    r"use of fork\(\) may lead to deadlocks in the child\.",
                    DeprecationWarning)
                _forking_worker = True
                try:
                    pid = os.fork()
                finally:
                    _forking_worker = False
        except OSError:
            self.close()
            raise
        requests_in, self.requests, self.replies, replies_out = self.fds
        if pid == 0:
            status = 1
            try:
                # a parent that died before the call has left no one to
                # signal the worker
                region.libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
                if os.getppid() == parent:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    _serve(*_keep_only((requests_in, replies_out)), region)
                    status = 0
            finally:
                os._exit(status)
        self.pid = pid
        os.close(requests_in)
        os.close(replies_out)
        self.fds = [self.requests, self.replies]

    def exited(self):
        """Whether the worker has exited, reaping it if so."""
        with contextlib.suppress(ChildProcessError):
            if not os.waitpid(self.pid, os.WNOHANG)[0]:
                return False
        self.pid = None
        return True

    def send(self, offsets, shape, inputs, memory_span):
        """Ask the worker to run a direction over `inputs`, its six
        weights at these offsets in the region and of the shapes that
        shape, (a, h, d), gives."""
        head = [*shape, -1 if memory_span is None else memory_span, len(inputs)]
        _write(self.requests, np.array(head + offsets + [len(x) for x in inputs],
                                       dtype=np.int64), *inputs)

    def rows(self, lengths, hidden):
        """The top hidden rows (B, n, h) of the direction run sent last,
        over sentences of these lengths, longest first; None if the
        worker failed or died before it replied."""
        rows = np.empty((len(lengths), lengths[0], hidden))
        try:
            for p, m in enumerate(lengths):
                _read(self.replies, rows[p, :m])
        except (EOFError, OSError):
            return None
        return rows

    def close(self):
        """Kill and reap the worker, and close this process's ends of
        its pipes."""
        for fd in self.fds:
            os.close(fd)
        self.fds = []
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None


# this process's decode worker, forked by the first forward pass that
# dispatches to it
_worker = None


def close_worker():
    """Stop this process's decode worker, if it has one.  The next
    forward pass that dispatches forks a fresh one, with the code and
    module state of that moment."""
    global _worker
    worker, _worker = _worker, None
    if worker is not None:
        worker.close()


def _after_fork_in_child():
    # in a forked child other than the decode worker: the worker is the
    # parent's, to neither use nor kill, so only close the child's copies
    # of its pipes; the shared region becomes a private snapshot, and the
    # child's next block makes a region of its own.  Should the copy fail
    # (an mmap with no memory left), Python reports the OSError and the
    # child's tensors stay shared with the parent
    global _worker, _region, _region_lock
    if _forking_worker:
        return
    worker, _worker = _worker, None
    if worker is not None:
        worker.pid = None
        worker.close()
    region, _region, _region_lock = _region, None, threading.Lock()
    if region is not None:
        region.detach()


atexit.register(close_worker)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _dispatch(weights, inputs, memory_span):
    """This process's decode worker, once it has been sent the direction
    with these six weights over `inputs`, longest first: forked if there
    is none, or if the last one has exited, which is reaped.  None if
    the longest input has fewer than FORK_MIN_TOKENS rows, the process
    may not run on 2 CPUs, another thread runs, a weight lies outside
    the region (a process has one region while it has a worker), or the
    fork or the send failed, which leaves no worker."""
    global _worker
    if not (len(inputs[0]) >= FORK_MIN_TOKENS and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1):
        return None
    if _worker is not None and _worker.exited():
        close_worker()
    offsets = [None if _region is None else _region.offset(w) for w in weights]
    if None in offsets:
        return None
    (a, h), d = weights[0].shape, weights[1].shape[1]
    try:
        if _worker is None:
            _worker = _Worker(_region)
        _worker.send(offsets, (a, h, d), inputs, memory_span)
    except OSError:
        close_worker()
        return None
    return _worker


def run_both(run, runs, weights, memory_span):
    """(run(*runs[0]), run(*runs[1])), the rows of two direction runs
    given as (prefix, inputs) pairs, where run(*runs[1]) is the
    direction over those inputs, longest first, with these six weights
    and this memory span.  The decode worker runs the second while this
    process runs the first, where it can take it (_dispatch); where it
    cannot, or fails or dies, this process runs it too, so the results
    and errors are the same either way."""
    worker = _dispatch(weights, runs[1][1], memory_span)
    if not worker:
        return run(*runs[0]), run(*runs[1])
    try:
        first = run(*runs[0])
        second = worker.rows([len(x) for x in runs[1][1]], first.shape[2])
    except BaseException:
        # its reply would answer the next request
        close_worker()
        raise
    if second is None:
        close_worker()
        second = run(*runs[1])
    return first, second
