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
follows one rule: the encoder's tensors (encoder.param_shapes) lie in
one block of the region, of one size for a given config, through
aligned_views (init_params draws into one, load_model reads into one,
and fit's best copy takes one), and every other tensor, the embedding
tables and crf.trans, which the worker never reads, is a plain array
that owns its memory.  A request carries the byte offsets of its
direction's six weights and no weight, and weights edited in place, as
training and gradient checks do between decodes, are read as they are.
A direction whose six weights are not all C-contiguous float64 arrays
in the region (hand-made weights, or a full region) runs in this
process.  A block whose last view is gone serves the next block of the
same size, whose pages are then already in place, so a repeated build
or load faults in no fresh page; the file gives no page back.  The
region is mapped by one Python mmap object, which every block views,
so the mapping lives as long as the region or any view of its blocks
does, and the process holds one more fd, the mmap's copy of the memfd,
for as long.  A child forked from the parent other than the worker
gets a private copy of the region's used bytes at the same address
(_Region.detach), so its arrays are a snapshot of the fork, as with
any other memory: the fork costs that copy.  The child drops the
region itself at the fork, so its snapshot is unmapped, and its fd
closed, with its last view.

Dispatch.  This module alone decides where a pass without a cache runs
its backward directions, in run_both, the one function that runs both
directions of a pass, in this process and in the worker alike through
_rows.  A pass is sent when its longest sentence has FORK_MIN_TOKENS
tokens or more, the process may run on 2 CPUs or more, no other Python
thread runs, since one could hold a lock at the fork or send a request
of its own, and the six weights lie in the shared region, which needs
os.memfd_create (Linux).  At paper dimensions a worker already forked
wins from 2 tokens on (CHANGES.md has the curves) when passes of many
lengths alternate, but back-to-back passes of 1-8 tokens ran faster in
this process at every length, so the traffic decides, and
FORK_MIN_TOKENS stays 6 until a benchmark workload with shorter passes
can measure a lower one, its first fork included.  Parent and worker
hold one end each of one socket pair, their channel; the socket module
is imported where a worker is made, so a process that never forks one
never loads it.  The parent writes the offsets of the direction's six
weight arrays and the sentences' input rows into it, and the worker
writes back its top hidden rows as one (B, n, h) block; nothing is
pickled, and no request names its direction.  A dead worker is found
where it fails a request: the send fails (EPIPE, since the worker's
end is closed) or the reply ends early (end of file, or ECONNRESET
where the worker left bytes unread).  When the fork or a send fails,
or the worker dies or fails before it replies, the parent reaps it and
runs the direction itself, with the same results and the same errors,
and the next pass forks a fresh worker.  When the fork or a send is
interrupted (a KeyboardInterrupt, a MemoryError), the parent reaps the
worker and lets the exception through, so no half-sent request is left
in the channel; when the parent's own direction raises, it kills the
worker, whose reply no call would read.

Lifetime.  The worker keeps the code it was forked with, points fds
0-2 at /dev/null and closes every other fd it inherited but its end
of the channel, so no reader of the parent's stdout waits for it,
ignores SIGINT, leaves only through os._exit, so it runs no atexit
handler and flushes no stdio buffer it inherited, and dies with its
parent: the kernel kills it when the parent does (PR_SET_PDEATHSIG),
also in the middle of a request, and it exits when the parent's end of
the channel closes.  close_worker() stops it, as an atexit handler
does, and a child forked from the parent forgets it, closing its copy
of the parent's end without killing it.
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

from . import encoder

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

    `buffer` is the mmap object of the mapping, and every block is a
    numpy view of it, so the kernel unmaps the region once neither the
    region nor any view of its blocks is left; until then the mmap
    holds a copy of the memfd's fd.  block() carves page-rounded blocks
    from the start, under the module's _region_lock (aligned_views).  A
    block whose last view is gone goes on a free list by size and
    serves the next block of that size, whose pages are then already in
    place; the file gives no page back.  When neither a freed block nor
    the rest of the region fits, block() returns None.  In a forked
    child other than the worker, detach() puts a private copy of the
    used bytes at the same address, and the child takes no more blocks
    from it.
    """

    def __init__(self, capacity):
        self.libc = _libc()
        # the mmap holds a copy of the memfd's fd of its own; the file
        # closes this one
        with open(os.memfd_create("attnseg-params"), "r+b") as file:
            file.truncate(capacity)
            self.buffer = mmap.mmap(file.fileno(), capacity)
        self.address = ctypes.addressof(ctypes.c_char.from_buffer(self.buffer))
        self.used = 0
        self.free = {}

    def block(self, nbytes):
        """A writable, page-aligned uint8 array of nbytes in the region,
        or None if it has no room."""
        size = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        freed = self.free.setdefault(size, [])
        if freed:
            offset = freed.pop()
        elif self.used + size <= len(self.buffer):
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


# this process's shared region, made by the first block that needs one;
# the lock guards making it and carving its blocks
_region = None
_region_lock = threading.Lock()


def aligned_views(shapes):
    """Name -> an uninitialised, C-contiguous float64 array of
    shapes[name], each starting on a 64-byte boundary, all views into one
    block.

    The block lies in this process's shared region, made if there is
    none, where the decode worker reads it in place, and once no view of
    it is left its pages serve the next block of the same size.  When the
    region is full or cannot be made (os.memfd_create is missing), the
    block is a private one on the heap.
    """
    global _region
    starts, end = [], 0
    for shape in shapes.values():
        starts.append(end)
        end += -(-math.prod(shape) * 8 // 64) * 64
    with _region_lock:
        if _region is None and hasattr(os, "memfd_create"):
            with contextlib.suppress(OSError):
                _region = _Region(SHARED_BYTES)
        block = None if _region is None else _region.block(end)
    if block is None:
        block = np.empty(end + 63, dtype=np.uint8)
        block = block[-block.ctypes.data % 64:]
    return {name: block[start:start + math.prod(shape) * 8].view(np.float64)
            .reshape(shape)
            for (name, shape), start in zip(shapes.items(), starts)}


def _read(fd, array):
    """Fill a C-contiguous array from the channel `fd` and return it;
    EOFError if the channel closes first."""
    view = memoryview(array).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError("the decode worker's channel closed")
        view = view[got:]
    return array


def _write(fd, *arrays):
    """Write the bytes of each array, in order, into the channel `fd`."""
    for array in arrays:
        view = memoryview(np.ascontiguousarray(array)).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _keep_only(fd):
    """In the decode worker: point fds 0-2 at /dev/null and close every
    other fd but `fd`, so that no reader of an inherited pipe waits for
    the worker.  The shared region's mmap loses its copy of the memfd's
    fd but keeps its mapping, and the worker, which leaves by os._exit,
    never frees it.  Returns `fd`, moved above 2 if it was not."""
    while fd < 3:
        fd = os.dup(fd)
    null = os.open(os.devnull, os.O_RDWR)
    for std in range(3):
        os.dup2(null, std)
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    return fd


def _serve(channel):
    """The decode worker's loop: read a request from the `channel`, run
    the direction it asks for through _rows, as run_both runs its own,
    and write its top hidden rows (B, n, h) back as one block, until the
    parent's end of the channel closes.

    A request is int64 (a, h, d, memory span or -1, B), the byte offsets
    in the shared region, inherited at the fork, of the direction's six
    weight arrays and the B sentences' lengths, then the sentences'
    (n_i, d) float64 input rows."""
    while True:
        try:
            a, h, d, span, batch = map(int, _read(channel, np.empty(5, np.int64)))
        except EOFError:
            return
        shapes = encoder._direction_shapes(a, h, d)
        rest = _read(channel, np.empty(len(shapes) + batch, dtype=np.int64))
        offsets, lengths = rest[:len(shapes)], rest[len(shapes):]
        inputs = [_read(channel, np.empty((m, d))) for m in lengths]
        weights = [np.frombuffer(_region.buffer, np.float64, math.prod(shape),
                                 offset).reshape(shape)
                   for shape, offset in zip(shapes, offsets)]
        _write(channel, _rows(weights, inputs, None if span < 0 else span))


# set in this process while it forks the decode worker, and so in the
# worker, where the fork handler must leave the shared region shared
_forking_worker = False


class _Worker:
    """The decode worker of this process, a forked child that runs the
    backward direction of forward passes without a cache (module
    docstring).

    send() writes a request into the `channel`, this process's end of a
    socket pair: the offsets of the direction's weights in the shared
    region, which the worker inherits, and its inputs; rows() reads the
    reply from it.  The child points fds 0-2 at /dev/null and closes
    every other fd it inherited but its own end, leaves only through
    os._exit, so it runs no atexit handler and flushes no stdio buffer
    it inherited, ignores SIGINT, so a Ctrl-C reaches only the parent,
    and dies with this process, whose death the kernel signals to it
    with SIGKILL.
    """

    def __init__(self):
        global _forking_worker
        # imported here, not at the module head, so that a process
        # which never forks a worker never loads socket and the
        # modules it pulls in
        import socket

        self.pid = None
        parent = os.getpid()
        self.channel, theirs = (end.detach() for end in socket.socketpair())
        try:
            with warnings.catch_warnings():
                # Python 3.12 and later warn when a process with other
                # threads forks, and OpenBLAS's worker threads count.
                # They are the only others (run_both), OpenBLAS stops
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
        except BaseException:
            os.close(theirs)
            self.close()
            raise
        if pid == 0:
            status = 1
            try:
                # a parent that died before the call has left no one to
                # signal the worker
                _region.libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
                if os.getppid() == parent:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    _serve(_keep_only(theirs))
                    status = 0
            finally:
                os._exit(status)
        self.pid = pid
        os.close(theirs)

    def send(self, offsets, shape, inputs, memory_span):
        """Ask the worker to run a direction over `inputs`, its six
        weights at these offsets in the region and of the shapes that
        shape, (a, h, d), gives."""
        head = [*shape, -1 if memory_span is None else memory_span, len(inputs)]
        _write(self.channel, np.array(head + offsets + [len(x) for x in inputs],
                                      dtype=np.int64), *inputs)

    def rows(self, shape):
        """The top hidden rows, of this (B, n, h) shape, of the direction
        run sent last; None if the worker failed or died before it
        replied."""
        try:
            return _read(self.channel, np.empty(shape))
        except (EOFError, OSError):
            return None

    def close(self):
        """Kill and reap the worker, and close this process's end of the
        channel."""
        if self.channel is not None:
            os.close(self.channel)
            self.channel = None
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
    # parent's, to neither use nor kill, so only close the child's copy
    # of the parent's end of its channel; the shared region becomes a
    # private snapshot, which the child's arrays alone keep mapped, so
    # it is unmapped with their last view, and the child's next block
    # makes a region of its own.  Should the copy fail (an mmap with no
    # memory left), Python reports the OSError and the child's tensors
    # stay shared with the parent
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


def _rows(weights, inputs, memory_span):
    """The top hidden rows (B, n, h) of the direction run with these six
    weights over `inputs`, longest first; the run's other state goes as
    soon as its tape is read."""
    state = encoder._run_direction(weights, inputs, False, memory_span)
    return state.tape[:, :, :weights[0].shape[1]]


def run_both(runs, memory_span):
    """The top hidden rows (B, n, h) of two direction runs, given as
    (weights, inputs) pairs, each over its inputs, longest first, with
    this memory span.  The decode worker runs the second while this
    process runs the first, where the rules of the module docstring's
    Dispatch let it take it: forked if there is none, and sent the
    offsets of the second run's six weights and its inputs.  Where they
    do not, or the fork or the send fails, this process runs both;
    where the fork or the send is interrupted by any other exception,
    it closes the worker and re-raises.
    When the worker fails or dies before it replies, this process
    closes and reaps it and runs the second too, so the results and
    errors are the same either way; when this process's own run raises,
    it kills the worker, whose reply no call would read."""
    global _worker
    weights, inputs = runs[1]
    worker = None
    # a process has one region while it has a worker
    if (len(inputs[0]) >= FORK_MIN_TOKENS and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1
            and _region is not None):
        offsets = [_region.offset(w) for w in weights]
        if None not in offsets:
            (a, h), d = weights[0].shape, weights[1].shape[1]
            try:
                if _worker is None:
                    _worker = _Worker()
                _worker.send(offsets, (a, h, d), inputs, memory_span)
                worker = _worker
            except BaseException as exc:
                # the worker has died (no reader is left), or the send
                # stopped partway and the worker would read the next
                # request as the rest of this one
                close_worker()
                if not isinstance(exc, OSError):
                    raise
    if worker is None:
        return _rows(*runs[0], memory_span), _rows(*runs[1], memory_span)
    try:
        first = _rows(*runs[0], memory_span)
        second = worker.rows(first.shape)
    except BaseException:
        # its reply would answer the next request
        close_worker()
        raise
    if second is None:
        close_worker()
        second = _rows(weights, inputs, memory_span)
    return first, second
