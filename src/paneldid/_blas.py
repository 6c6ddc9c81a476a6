"""Run a block with the bundled OpenBLAS libraries on one thread.

A product that OpenBLAS splits over threads sums in another order than on
one thread, so seeded outputs would depend on the thread count. The numpy
and scipy wheels each bundle their own OpenBLAS (numpy's with 64-bit
integers, whose symbols end in `64_`); `single_thread` pins both. Where no
such library is found (another BLAS, another packaging) it changes nothing.
"""

from __future__ import annotations

import ctypes
import glob
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import scipy


@lru_cache(maxsize=None)
def _thread_controls() -> tuple[tuple[Callable, Callable], ...]:
    """The (get, set) thread-count functions of each bundled OpenBLAS, looked up once."""
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "lib*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((get, put))
                    break
    return tuple(found)


@contextmanager
def single_thread() -> Iterator[None]:
    """Pin every bundled OpenBLAS to one thread, restoring each count on exit.

    The count is process-wide: blocks may nest in one thread, but blocks
    that overlap in several threads restore the count when the first ends.
    """
    controls = _thread_controls()
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
