"""A process-local cap of OpenBLAS at one thread for small dense algebra.

The Galerkin matrices have 25 to 165 columns, and splitting their products
and factorizations across threads only adds overhead.  numpy and scipy each
load their own OpenBLAS, and each exports a getter and a setter of its thread
count (`scipy_openblas_set_num_threads64_` in numpy's copy,
`scipy_openblas_set_num_threads` in scipy's).  The setters are looked up once,
at import, among the OpenBLAS libraries the process has loaded (about 0.5 ms,
which no call then pays).  `single_thread` reads no environment variable and
sets none, and where no setter is found (another BLAS, or no /proc/self/maps
to list the loaded libraries) it does nothing.  The thread count is
process-wide state: a block running in another Python thread at the same time
sees it.
"""

import contextlib
import ctypes
import importlib

__all__ = ["single_thread"]

_SYMBOLS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def _loaded_openblas():
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            return sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []


def _thread_controls():
    """(getter, setter) of each loaded OpenBLAS that exports both."""
    for module in ("numpy", "scipy.linalg"):  # each loads its OpenBLAS
        importlib.import_module(module)
    controls = []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter, setter = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


_CONTROLS = _thread_controls()


@contextlib.contextmanager
def single_thread():
    """Run the block with every OpenBLAS found at one thread.

    A library already at one thread is left alone; the others get back their
    previous count on exit.
    """
    restore = []
    for getter, setter in _CONTROLS:
        count = getter()
        if count > 1:
            setter(1)
            restore.append((setter, count))
    try:
        yield
    finally:
        for setter, count in restore:
            setter(count)
