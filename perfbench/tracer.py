"""Per-layer spans around calls into kstruct's modules, made from outside.

Installing a Tracer replaces every public function that a kstruct module
holds in its namespace (its own and those it imported from sibling
modules) with a wrapper that records a span, so a call from
``kstruct.testing`` into ``tau_and_leave_one_out`` opens a ``kendall``
span.  A layer's self time is the duration of its spans minus the part
covered by their child spans; the rest of the traced wall time is
unattributed.  Dense eigen/SVD calls made inside ``run_test`` and the
tracemalloc peaks of the covariance estimate and of the null-law stage
are recorded as counters beside the spans.  Nothing in the package is
edited: ``uninstall`` puts every original back.
"""

import functools
import hashlib
import inspect
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("kendall", "covariance", "projection", "sblock", "indexing",
          "testing", "simulation")
# methods reached through objects rather than module names
_METHODS = (("projection", "ProjectionOperator", ("apply", "dense")),
            ("covariance", "CovarianceEstimate", ("dense",)))
_DENSE_EIG = ("eigh", "eigvalsh", "eig", "eigvals", "svd", "pinv")
_KERNEL_ENTRIES = ("tau_and_leave_one_out", "kendall_tau_vector", "leave_one_out")
_STATISTICS = ("statistic_euclidean", "statistic_max")
_DATAGEN = ("sample_gaussian_with_tau", "build_tau_matrix")

_MB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("layer", "name", "t0", "child", "stat_end")

    def __init__(self, layer, name, t0):
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.stat_end = None


class _PeakRegion:
    """Largest traced-memory growth over a stretch of execution."""

    def __init__(self, base):
        self.base = base
        self.top = base


class Tracer:
    def __init__(self, package):
        self._package = package
        self._patches = []
        self._stack = []
        self._regions = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.run_tests = 0
        self.kernel_calls = 0
        self.pair_terms = 0
        self.kernel_digests = set()
        self.eig_calls = 0
        self.eig_s = 0.0
        self.null_s = 0.0
        self.covariance_peak = 0
        self.null_peak = 0
        self._eig_depth = 0

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {name: getattr(self._package, name) for name in LAYERS}
        by_module = {m.__name__: name for name, m in mods.items()}
        wrapped = {}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = by_module.get(obj.__module__)
                if layer is None:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj, layer, "%s.%s" % (layer, obj.__name__))
                self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, methods in _METHODS:
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(fn, layer, "%s.%s.%s" % (layer, cls_name, meth)))
        for name in _DENSE_EIG:
            self._patch(np.linalg, name, self._wrap_eig(getattr(np.linalg, name)))
        tracemalloc.start()

    def uninstall(self):
        tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer, label):
        short = label.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(layer, short, args)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, label)

        return traced

    def _wrap_eig(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counted = self._eig_depth == 0 and any(
                f.name == "run_test" for f in self._stack
            )
            self._eig_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._eig_depth -= 1
                if counted:
                    self.eig_calls += 1
                    self.eig_s += time.perf_counter() - t0

        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, layer, name, args):
        if layer == "kendall" and name in _KERNEL_ENTRIES and args:
            self._kernel_hook(args[0])
        elif layer == "covariance" and not self._inside("covariance"):
            self._open_region()
        elif name == "run_test":
            self.run_tests += 1
        frame = _Frame(layer, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame, label):
        now = time.perf_counter()
        self._stack.pop()
        dur = now - frame.t0
        self.self_s[frame.layer] += dur - frame.child
        self.incl_s[label] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += dur
        if frame.layer == "covariance" and not self._inside("covariance"):
            self.covariance_peak = max(self.covariance_peak, self._close_region())
        elif frame.name in _STATISTICS and parent is not None and parent.name == "run_test":
            # everything run_test does after the statistic is the p-value stage
            parent.stat_end = now
            self._open_region()
        elif frame.name == "run_test" and frame.stat_end is not None:
            self.null_s += now - frame.stat_end
            self.null_peak = max(self.null_peak, self._close_region())

    def _inside(self, layer):
        return any(f.layer == layer for f in self._stack)

    def _kernel_hook(self, data):
        # counted once per entry into the kernel; its cost is kept out of
        # every layer's self time and shows as unattributed
        t0 = time.perf_counter()
        X = np.ascontiguousarray(np.asarray(data, dtype=float))
        if X.ndim == 2:
            n, d = X.shape
            self.kernel_calls += 1
            self.pair_terms += n * (n - 1) * (d * (d - 1) // 2)
            self.kernel_digests.add(hashlib.sha1(X.tobytes()).hexdigest())
        if self._stack:
            self._stack[-1].child += time.perf_counter() - t0

    # -- memory regions ------------------------------------------------------

    def _fold_peak(self):
        current, peak = tracemalloc.get_traced_memory()
        for region in self._regions:
            region.top = max(region.top, peak)
        tracemalloc.reset_peak()
        return current

    def _open_region(self):
        self._regions.append(_PeakRegion(self._fold_peak()))

    def _close_region(self):
        self._fold_peak()
        region = self._regions.pop()
        return region.top - region.base

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s, passes):
        """Per-pass layer metrics for a traced stretch of ``wall_s`` seconds."""
        per = 1.0 / passes
        attributed = sum(self.self_s[layer] for layer in LAYERS)
        kernel_s = self.self_s["kendall"]
        out = {
            "trace.wall_s": (wall_s * per, "s/pass"),
            "unattributed_s": ((wall_s - attributed) * per, "s/pass"),
        }
        for layer in LAYERS:
            key = "%s.self_s" % layer if layer in ("testing", "simulation") else "%s.busy_s" % layer
            out[key] = (self.self_s[layer] * per, "s/pass")
        out.update({
            "kendall.calls": (self.kernel_calls * per, "count/pass"),
            "kendall.pair_terms": (self.pair_terms * per, "count/pass"),
            "kendall.pair_terms_per_s": (
                self.pair_terms / kernel_s if kernel_s > 0 else 0.0, "1/s"),
            "kendall.distinct_inputs_ratio": (
                len(self.kernel_digests) / self.kernel_calls if self.kernel_calls else 0.0,
                "ratio"),
            "covariance.peak_mb": (self.covariance_peak / _MB, "MB"),
            "testing.statistic_s": (
                sum(self.incl_s["testing.%s" % s] for s in _STATISTICS) * per, "s/pass"),
            "testing.null_s": (self.null_s * per, "s/pass"),
            "testing.null_peak_mb": (self.null_peak / _MB, "MB"),
            "testing.dense_eig_per_test": (
                self.eig_calls / self.run_tests if self.run_tests else 0.0, "count"),
            "testing.dense_eig_s": (self.eig_s * per, "s/pass"),
            "simulation.datagen_s": (
                sum(self.incl_s["simulation.%s" % s] for s in _DATAGEN) * per, "s/pass"),
        })
        return out
