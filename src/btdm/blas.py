"""Thread control for numpy's OpenBLAS.

The solver's dense products are small (a desk-size Jacobian is 640 x 176), so
extra BLAS threads add little wall time, double the CPU time, and busy-wait
whenever the cores are shared: with another CPU-bound process on a 2-core
host a fit ran 5x slower with two BLAS threads than with one. Fits therefore
run BLAS single-threaded, which also makes seeded iterates independent of the
host's core count.

Only OpenBLAS is handled, through its own setter called via ctypes; with any
other BLAS every function here does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

from numpy.linalg import _umath_linalg

# (setter, getter) symbol pairs for OpenBLAS's thread count, most specific
# first: NumPy wheels bundle a renamed 64-bit-integer build, plain builds
# export the unprefixed names.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _lookup_openblas():
    """(set_num_threads, get_num_threads) of numpy's OpenBLAS, or None.

    The symbols are looked up through numpy's linear-algebra extension
    module, whose dependencies include the BLAS it calls, whether bundled in
    the wheel or linked from the system. None when that BLAS is not OpenBLAS.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return setter, getter
    return None


# Resolved once at import, so that a forked process calls the inherited
# function pointers instead of going through the dynamic loader again.
OPENBLAS = _lookup_openblas()

_lock = threading.Lock()
_depth = 0
_saved_threads = 1


def pin_to_one_thread():
    """Process-pool initializer: run BLAS single-threaded in this worker.

    Workers already occupy the cores, so BLAS threads inside them only
    oversubscribe and busy-wait. Setting OPENBLAS_NUM_THREADS in the parent
    cannot do this: a forked worker inherits the thread count OpenBLAS read
    when the parent loaded it. A worker forked inside single_threaded()
    already runs one thread and makes no call. Never raises, since a failing
    initializer breaks the whole pool.
    """
    if OPENBLAS is not None and OPENBLAS[1]() != 1:
        OPENBLAS[0](1)


@contextlib.contextmanager
def single_threaded():
    """Run BLAS on one thread inside the block, then restore the old count.

    Nested and concurrent blocks share one pin: the first to enter saves the
    count, the last to leave restores it. The count is set only when it
    changes: OpenBLAS stops its threads when the process forks, and the next
    set call in either process starts new ones, which busy-wait for about
    0.1 s of CPU before they sleep. A process forked inside the block thus
    inherits one thread and starts none.
    """
    global _depth, _saved_threads
    if OPENBLAS is None:
        yield
        return
    set_threads, get_threads = OPENBLAS
    with _lock:
        if _depth == 0:
            _saved_threads = get_threads()
            if _saved_threads != 1:
                set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved_threads != 1:
                set_threads(_saved_threads)
