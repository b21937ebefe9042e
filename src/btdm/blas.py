"""Thread control for numpy's OpenBLAS.

The solver's dense products are small (the desk-size Gauss-Newton matrix is
176 x 176), so extra BLAS threads add little wall time, double the CPU time,
and busy-wait whenever the cores are shared: with another CPU-bound process on
a 2-core host a fit ran 5x slower with two BLAS threads than with one. btdm
therefore pins BLAS to one thread for good, which also makes seeded iterates
independent of the host's core count.

Only OpenBLAS is handled, through its own setter called via ctypes; with any
other BLAS pin_to_one_thread does nothing.
"""

from __future__ import annotations

import ctypes

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


def pin_to_one_thread():
    """Run numpy's OpenBLAS on one thread in this process from now on.

    Called at the start of every fit and before the solver's group pool is
    forked; never undone. The count is set only when it differs from 1:
    OpenBLAS stops its threads when the process forks, and the next set call
    in either process starts new ones, which busy-wait for about 0.1 s of CPU
    before they sleep. Pool workers forked from the pinned parent therefore
    inherit one thread and never call the setter.
    """
    if OPENBLAS is not None and OPENBLAS[1]() != 1:
        OPENBLAS[0](1)
