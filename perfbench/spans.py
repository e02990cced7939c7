"""In-memory span tracing of the lenstri layers, installed from outside the
package.

A traced function is wrapped at every module-level binding it has in the
package, so a call through ``models.lens_elliptic_gamma`` is recorded just
like one through ``special_functions.lens_elliptic_gamma``.  Each thread
appends to its own buffers and keeps its own stack of open spans, so the
parent of a span is always on the same thread; verify spans that a sweep's
worker threads run are roots on their thread and are tied to their sweep by
the operation id.  Nothing is written until :meth:`Tracer.write`.

A span keeps its wall-clock start and end and the CPU time its thread spent
inside it.  Self times are CPU times: under the interpreter lock a sweep's
worker threads take turns, and wall-clock self time would also count the
turns of the other threads.
"""

from __future__ import annotations

import array
import threading
import zipfile
from time import perf_counter, thread_time

import numpy as np
from numpy.lib import format as npformat

FLAG_UNCONVERGED = 1
FLAG_CALLBACK = 2

# per span: INTS int32 fields and TIMES float64 fields
INTS = ("name", "parent", "op", "work", "flag")
TIMES = ("start", "end", "cpu")
_NAME, _PARENT, _OP, _WORK, _FLAG = range(len(INTS))
_START, _END, _CPU = range(len(TIMES))
_ZERO_TIMES = (0.0,) * len(TIMES)

SPECIAL_FUNCTIONS = ("elliptic_gamma", "lens_elliptic_gamma",
                     "lens_gamma_appendix", "lens_theta", "theta4",
                     "qpochhammer_inf")
WEIGHTS = ("weight_elliptic", "weight_qlimit", "weight_gamma", "single_spin",
           "q_function")
INTEGRATORS = ("periodic_integrate", "line_integrate")
_SCALARS = (int, float, complex)


class _ThreadBuffer:
    __slots__ = ("thread", "ints", "times", "count", "stack")

    def __init__(self, thread: int):
        self.thread = thread
        self.ints = array.array("i")
        self.times = array.array("d")
        self.count = 0
        self.stack = []


def _points(args, result) -> int:
    """z points of one call: the largest array argument (or array spin
    angle), so a batched call counts the same work as its scalar loop."""
    n = 1
    for a in args:
        if not isinstance(a, _SCALARS):
            x = getattr(a, "x", a)
            if isinstance(x, np.ndarray):
                n = max(n, x.size)
    return n


def _nodes(args, result) -> int:
    return result.nodes_used


def _terms(args, result) -> int:
    return result.terms_used


class Tracer:
    """Records spans (name, start, end, CPU time, parent, thread, operation
    id, work count, flags) around the wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._patches = []
        #: id of the operation in progress; set by the workload loop
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _make(self, fn, nid: int, flag: int, work):
        """``fn`` wrapped in a span named by ``nid``; ``work`` reads the
        work count from the arguments and result."""
        local, new_buffer = self._local, self._buffer

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            idx = buf.count
            buf.count = idx + 1
            buf.ints.extend((nid, stack[-1] if stack else -1, self.op, 0, flag))
            buf.times.extend(_ZERO_TIMES)
            stack.append(idx)
            t0, c0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = thread_time(), perf_counter()
                stack.pop()
                j = idx * len(TIMES)
                buf.times[j + _START] = t0
                buf.times[j + _END] = t1
                buf.times[j + _CPU] = c1 - c0
            if work is not None:
                i = idx * len(INTS)
                buf.ints[i + _WORK] = work(args, result)
                if getattr(result, "converged", True) is False:
                    buf.ints[i + _FLAG] |= FLAG_UNCONVERGED
            return result

        traced.__wrapped__ = fn
        return traced

    def _with_callback(self, traced):
        """For numerics: the integrand or summand (first argument) becomes
        a span named after the span that made the numerics call (a verify_*
        or kappa span), so its own time belongs to the caller."""
        def numerics_call(f, *args, **kwargs):
            buf = self._buffer()
            nid = (buf.ints[buf.stack[-1] * len(INTS) + _NAME] if buf.stack
                   else self._id("callback"))
            return traced(self._make(f, nid, FLAG_CALLBACK, None),
                          *args, **kwargs)
        numerics_call.__wrapped__ = traced.__wrapped__
        return numerics_call

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of the lenstri modules given by name."""
        sf, models = modules["special_functions"], modules["models"]
        numerics, verify, cli = (modules["numerics"], modules["verify"],
                                 modules["cli"])
        targets = [(sf, f, f"special_functions.{f}", _points)
                   for f in SPECIAL_FUNCTIONS]
        targets.append((sf, "_log_product_2d",
                        "special_functions.log_product_2d", _points))
        for attr, name in (("weight_elliptic", "weight_elliptic"),
                           ("weight_qlimit", "weight_qlimit"),
                           ("weight_gamma", "weight_gamma"),
                           ("single_spin_elliptic", "single_spin"),
                           ("single_spin_qlimit", "single_spin"),
                           ("single_spin_gamma", "single_spin"),
                           ("q_function", "q_function"),
                           ("kappa_elliptic", "kappa"),
                           ("kappa_qlimit", "kappa")):
            targets.append((models, attr, f"models.{name}",
                            None if name == "kappa" else _points))
        for attr in INTEGRATORS:
            targets.append((numerics, attr, f"numerics.{attr}", _nodes))
        targets.append((numerics, "bilateral_sum", "numerics.bilateral_sum",
                        _terms))
        targets += [(verify, attr, f"verify.{attr}", None)
                    for attr in sorted(vars(verify))
                    if attr.startswith("verify_")]
        targets.append((verify, "pole_diagnostics", "verify.pole_diagnostics",
                        None))
        targets.append((cli, "run_sweep", "cli.run_sweep", None))

        for mod, attr, name, work in targets:
            orig = getattr(mod, attr)
            wrapped = self._make(orig, self._id(name), 0, work)
            if mod is numerics:
                wrapped = self._with_callback(wrapped)
            for m in modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, val))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._patches):
            setattr(mod, key, val)
        self._patches.clear()

    def thread_spans(self):
        """(thread, ints, times) per thread: views of the span buffers as
        arrays of shape (spans, len(INTS)) and (spans, len(TIMES)); parents
        index the spans of the same thread."""
        for buf in self._buffers:
            yield (buf.thread,
                   np.frombuffer(buf.ints, np.int32).reshape(-1, len(INTS)),
                   np.frombuffer(buf.times, np.float64).reshape(-1, len(TIMES)))

    def write(self, path) -> None:
        """One .npz: span names, then one column per field over all spans
        in thread order; ``parent`` is a global span index (-1 for a root).
        Columns are built and written one at a time to bound memory."""
        parts = list(self.thread_spans())
        counts = np.array([len(ints) for _, ints, _ in parts], np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

        def column(k, times=False):
            cols = [t[:, k] if times else i[:, k] for _, i, t in parts]
            return np.concatenate(cols) if cols else np.zeros(0)

        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as zf:
            def put(key, arr):
                with zf.open(f"{key}.npy", "w", force_zip64=True) as fh:
                    npformat.write_array(fh, np.asanyarray(arr))
            put("names", np.array(self.names))
            put("thread", np.repeat([t for t, _, _ in parts], counts)
                .astype(np.int32))
            for k, field in enumerate(INTS):
                col = column(k)
                if field == "parent":
                    col = np.where(col >= 0, col + np.repeat(offsets, counts),
                                   -1)
                put(field, col)
            for k, field in enumerate(TIMES):
                put(field, column(k, times=True))


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, cases: int, kappa_hits: int,
                  kappa_misses: int) -> dict:
    """Per-layer figures of a traced pass.  Counts and self times are per
    identity instance (``cases``); rates and ratios are not."""
    names = tracer.names
    nn = len(names) + 1              # the last id stands for "no parent"
    layer = np.array([n.partition(".")[0] for n in names] + [""])
    is_sf = np.append(layer[:-1] == "special_functions", False)
    is_verify = np.append((layer[:-1] == "verify")
                          & (np.array(names) != "verify.pole_diagnostics"),
                          False)
    self_t, cpu_in = np.zeros(nn), np.zeros(nn)
    work, calls, unconverged = np.zeros(nn), np.zeros(nn), np.zeros(nn)
    sf_points = 0.0
    sweeps, top_verify = [], []
    run_sweep = tracer._id("cli.run_sweep")
    for _, ints, times in tracer.thread_spans():
        name, parent = ints[:, _NAME], ints[:, _PARENT]
        cpu = times[:, _CPU]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=cpu[has_parent],
                            minlength=len(cpu))
        self_t += np.bincount(name, weights=cpu - child, minlength=nn)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], nn - 1)
        entry = (ints[:, _FLAG] & FLAG_CALLBACK) == 0
        e_name = name[entry]
        calls += np.bincount(e_name, minlength=nn)
        work += np.bincount(e_name, weights=ints[entry, _WORK], minlength=nn)
        cpu_in += np.bincount(e_name, weights=cpu[entry], minlength=nn)
        unconverged += np.bincount(
            name[(ints[:, _FLAG] & FLAG_UNCONVERGED) != 0], minlength=nn)
        sf_entry = entry & is_sf[name] & ~is_sf[parent_name]
        sf_points += float(ints[sf_entry, _WORK].sum())
        sel = entry & is_verify[name] & ~is_verify[parent_name]
        top_verify += zip(ints[sel, _OP].tolist(), times[sel, _START].tolist(),
                          times[sel, _END].tolist(), cpu[sel].tolist())
        sel = name == run_sweep
        sweeps += zip(ints[sel, _OP].tolist(), times[sel, _START].tolist(),
                      times[sel, _END].tolist())

    per_case = 1.0 / max(cases, 1)

    def get(arr, name):
        return float(arr[tracer._id(name)])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    sf_self = float(self_t[is_sf].sum())
    m["special_functions.points"] = sf_points * per_case
    m["special_functions.self_s"] = sf_self * per_case
    m["special_functions.points_per_s"] = rate(sf_points, sf_self)
    for f in SPECIAL_FUNCTIONS:
        m[f"special_functions.{f}.points"] = get(work, f"special_functions.{f}") * per_case
        m[f"special_functions.{f}.self_s"] = get(self_t, f"special_functions.{f}") * per_case
    kernel = "special_functions.log_product_2d"
    m[f"{kernel}.calls"] = get(calls, kernel) * per_case
    m[f"{kernel}.self_s"] = get(self_t, kernel) * per_case

    for f in WEIGHTS:
        m[f"models.{f}.points"] = get(work, f"models.{f}") * per_case
        m[f"models.{f}.self_s"] = get(self_t, f"models.{f}") * per_case
    m["models.kappa.misses"] = kappa_misses * per_case
    m["models.kappa.hit_ratio"] = rate(kappa_hits, kappa_hits + kappa_misses)
    m["models.kappa.self_s"] = get(self_t, "models.kappa") * per_case

    for f in INTEGRATORS:
        name = f"numerics.{f}"
        m[f"{name}.calls"] = get(calls, name) * per_case
        m[f"{name}.nodes"] = get(work, name) * per_case
        m[f"{name}.self_s"] = get(self_t, name) * per_case
        m[f"{name}.unconverged"] = get(unconverged, name) * per_case
    m["numerics.bilateral_sum.terms"] = get(work, "numerics.bilateral_sum") * per_case
    m["numerics.bilateral_sum.self_s"] = get(self_t, "numerics.bilateral_sum") * per_case
    # node throughput of the integrators, integrands included
    m["numerics.nodes_per_s"] = rate(
        sum(get(work, f"numerics.{f}") for f in INTEGRATORS),
        sum(get(cpu_in, f"numerics.{f}") for f in INTEGRATORS))

    m["verify.self_s"] = float(self_t[is_verify].sum()) * per_case
    poles = "verify.pole_diagnostics"
    m[f"{poles}.calls"] = get(calls, poles) * per_case
    m[f"{poles}.self_s"] = get(self_t, poles) * per_case

    # sweep wall time not covered by any verify_* span, and the verify_*
    # CPU time per second of sweep wall time (1.0 = serial)
    by_op: dict[int, list] = {}
    for op, start, end, _ in top_verify:
        by_op.setdefault(op, []).append((start, end))
    sweep_wall, uncovered = 0.0, 0.0
    for op, lo, hi in sweeps:
        sweep_wall += hi - lo
        uncovered += (hi - lo) - _union_length(by_op.get(op, []), lo, hi)
    m["cli.run_sweep.self_s"] = uncovered * per_case
    m["cli.run_sweep.concurrency"] = rate(sum(v[3] for v in top_verify),
                                          sweep_wall)
    return m
