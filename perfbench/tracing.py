"""Attribute-level tracing of ``braidrep``, installed from the benchmark's side.

Public functions get span wrappers: each span records its name, its op id,
its parent span, start and end, and adds its duration to the parent's child
time, so a span's self time is its duration minus its children's.  Scalar
arithmetic is far too hot to time per call, so the ``CycloNum``,
``LaurentPoly`` and ``RationalFunction`` operators get counters only; their
cost comes from replaying a reservoir sample of the captured operands under a
timer (``replay_kernels``).

Wrappers replace the attribute in every loaded ``braidrep`` module that binds
the same function object (``from .x import f`` makes copies), and each wrapper
carries ``MARK`` so ``wrapped_attributes`` can prove an untraced run clean.
"""

from __future__ import annotations

import importlib
import math
import random
import statistics
import sys
import time

MARK = "_perfbench_original"
MAX_SPANS = 100_000
RESERVOIR = 64

# (module, attribute, span name); the layer is the part before the dot
SPANS = (
    ("cli", "sweep_row", "cli.sweep_row"),
    ("braid", "parse_word", "braid.parse_word"),
    ("laurent", "poly_gcd", "laurent.poly_gcd"),
    ("cyclo", "CycloNum.inverse", "cyclo.inverse"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "mat_inverse", "linalg.mat_inverse"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "determinant", "linalg.determinant"),
    ("gassner", "evaluate_word", "gassner.evaluate_word"),
    ("artin", "derive_unreduced_matrix", "artin.derive_unreduced"),
    ("hermitian", "verify_invariance", "hermitian.verify_invariance"),
    ("hermitian", "form_determinant", "hermitian.form_determinant"),
    ("hermitian", "specialize_form", "hermitian.specialize_form"),
    ("hermitian", "signature", "hermitian.signature"),
    ("spectral", "specialize_rep", "spectral.specialize_rep"),
    ("spectral", "degeneracy_agreement", "spectral.degeneracy_agreement"),
    ("spectral", "burnside_irreducibility", "spectral.burnside"),
    ("spectral", "fixed_vector_space_dim", "spectral.fixed_space"),
    ("spectral", "unipotent_commutator", "spectral.unipotent_commutator"),
    ("spectral", "flag_unipotency_check", "spectral.flag_check"),
    ("topology", "homology_decomposition", "topology.decompose"),
    ("topology", "genus_riemann_hurwitz", "topology.genus_rh"),
    ("topology", "dm_report", "topology.dm"),
    ("topology", "classify", "topology.classify"),
)

# (module, attribute, counter name); aliases such as __rmul__ share a counter
COUNTERS = (
    ("cyclo", "CycloNum.__mul__", "cyclo.mul"),
    ("cyclo", "CycloNum.__rmul__", "cyclo.mul"),
    ("cyclo", "CycloNum.__add__", "cyclo.add"),
    ("cyclo", "CycloNum.__radd__", "cyclo.add"),
    ("cyclo", "specialize_poly", "cyclo.specialize_poly"),
    ("laurent", "LaurentPoly.__mul__", "laurent.poly_mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.poly_mul"),
    ("laurent", "RationalFunction.__add__", "laurent.rf_add"),
    ("laurent", "RationalFunction.__radd__", "laurent.rf_add"),
    ("laurent", "RationalFunction.__mul__", "laurent.rf_mul"),
    ("laurent", "RationalFunction.__rmul__", "laurent.rf_mul"),
)

# kernels whose operands are sampled: name -> (wrapped attribute, keyed by d)
KERNELS = {
    "cyclo.mul": ("CycloNum.__mul__", True),
    "cyclo.inverse": ("CycloNum.inverse", True),
    "laurent.poly_mul": ("LaurentPoly.__mul__", False),
    "laurent.poly_gcd": ("poly_gcd", False),
    "linalg.mat_mul": ("mat_mul", False),
}


class Reservoir:
    """Uniform sample of at most ``size`` items, with O(1) work per skipped
    item (Li's algorithm L): ``hit()`` says whether to ``take`` this one."""

    __slots__ = ("size", "items", "seen", "next", "w", "rng")

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.items = []
        self.seen = 0
        self.next = 1
        self.rng = rng
        self.w = math.exp(math.log(rng.random() or 1e-12) / size)

    def hit(self) -> bool:
        self.seen += 1
        return self.seen == self.next

    def take(self, item):
        if len(self.items) < self.size:
            self.items.append(item)
            self.next = self.seen + 1
            if len(self.items) == self.size:
                self._skip()
            return
        self.items[self.rng.randrange(self.size)] = item
        self.w *= math.exp(math.log(self.rng.random() or 1e-12) / self.size)
        self._skip()

    def _skip(self):
        u = self.rng.random() or 1e-12
        self.next = self.seen + int(math.log(u) / math.log(1.0 - self.w)) + 1


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "braidrep" or name.startswith("braidrep."))]


def _resolve(module: str, attr: str):
    """(owner, name) for 'f' in braidrep.<module> or 'Class.method'."""
    owner = sys.modules[f"braidrep.{module}"]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def wrapped_attributes() -> list:
    """Every braidrep module or class attribute still carrying a wrapper."""
    found = []
    for mod in _modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if hasattr(v, MARK)]
    return found


class Tracer:
    """Installs the wrappers, holds spans and counters until ``uninstall``."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.spans = []          # (id, parent id, op id, name, t0, t1)
        self.dropped = 0
        self.agg = {}            # span name -> [calls, total_s, self_s]
        self.counts = {}         # counter name -> [calls]
        self.gcd_useful = 0
        self.samples = {}        # (kernel, d or None) -> Reservoir
        self.originals = {}      # kernel -> unwrapped callable
        self.stack = [[0, 0.0]]  # [span id, child seconds]; index 0 is the root
        self.next_id = 1
        self.op_id = 0
        self.op_count = 0
        self.op_s = 0.0
        self.uncovered_s = 0.0
        self._patches = []       # (owner, name, original)

    # -- installation --------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        orig = owner.__dict__[name]
        wrapper = make(orig)
        setattr(wrapper, MARK, orig)
        wrapper.__name__ = getattr(orig, "__name__", name)
        if isinstance(owner, type):
            targets = [(owner, name)]
        else:
            targets = [(mod, key) for mod in _modules()
                       for key, value in vars(mod).items() if value is orig]
        for tgt, key in targets:
            self._patches.append((tgt, key, orig))
            setattr(tgt, key, wrapper)
        for kernel, (kattr, _) in KERNELS.items():
            if kattr == attr and kernel.split(".")[0] == module:
                self.originals[kernel] = orig

    def install(self):
        for module, _, _ in SPANS + COUNTERS:
            importlib.import_module(f"braidrep.{module}")
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda orig, name=name: self._span(orig, name))
        for module, attr, name in COUNTERS:
            self._patch(module, attr, lambda orig, name=name: self._counter(orig, name))

    def uninstall(self):
        for tgt, key, orig in reversed(self._patches):
            setattr(tgt, key, orig)
        self._patches.clear()

    def _reservoir(self, kernel: str, d=None) -> Reservoir:
        res = self.samples.get((kernel, d))
        if res is None:
            res = self.samples[(kernel, d)] = Reservoir(RESERVOIR, self.rng)
        return res

    # -- wrappers ------------------------------------------------------------

    def _span(self, orig, name: str):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        kernel = name if name in KERNELS else None
        keyed = kernel is not None and KERNELS[kernel][1]
        is_gcd = name == "laurent.poly_gcd"

        def span(*args, **kwargs):
            if kernel is not None:
                res = self._reservoir(kernel, args[0].d if keyed else None)
                if res.hit():
                    res.take(args)
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent[0], self.op_id, name, t0, t1))
                else:
                    self.dropped += 1
            if is_gcd and not result.is_one():
                self.gcd_useful += 1
            return result

        return span

    def _counter(self, orig, name: str):
        cell = self.counts.setdefault(name, [0])
        kernel = name if name in KERNELS else None
        if kernel is None:
            def counter(*args):
                cell[0] += 1
                return orig(*args)
            return counter
        keyed = KERNELS[kernel][1]
        samples = self.samples

        def sampled(a, b):
            cell[0] += 1
            if type(b) is type(a):  # scalar-by-int products are not sampled
                key = (kernel, a.d if keyed else None)
                res = samples.get(key) or self._reservoir(*key)
                if res.hit():
                    res.take((a, b))
            return orig(a, b)

        return sampled

    # -- ops -----------------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one op as the root span and return its result."""
        self.op_id += 1
        root = self.stack[0]
        root[0], root[1] = 0, 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter() - t0
            self.op_count += 1
            self.op_s += dur
            self.uncovered_s += dur - root[1]

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-span totals and calls, counters, and self time per layer."""
        out = {}
        for name, (calls, total, _) in self.agg.items():
            out[f"{name}_calls"] = calls
            out[f"{name}_s"] = total
        for name, (calls,) in self.counts.items():
            out[f"{name}_calls"] = calls
        selfs = {}
        for name, (_, _, self_s) in self.agg.items():
            layer = name.split(".")[0]
            selfs[layer] = selfs.get(layer, 0.0) + self_s
        for layer, value in selfs.items():
            out[f"{layer}.self_s"] = value
        out["laurent.poly_gcd_useful_calls"] = self.gcd_useful
        out["trace.ops"] = self.op_count
        out["trace.op_s"] = self.op_s
        out["trace.uncovered_s"] = self.uncovered_s
        out["trace.uncovered_frac"] = self.uncovered_s / self.op_s if self.op_s else 0.0
        out["trace.spans"] = len(self.spans) + self.dropped
        return out

    def replay_kernels(self, budget_s: float = 0.05) -> dict:
        """Median seconds per call of each sampled kernel, replayed on the
        unwrapped function; keyed (kernel, d) for the cyclotomic kernels."""
        out = {}
        for (kernel, d), res in self.samples.items():
            fn = self.originals.get(kernel)
            if fn is None or not res.items:
                continue
            items = res.items
            reps = []
            spent = 0.0
            while spent < budget_s or len(reps) < 3:
                t0 = time.perf_counter()
                for args in items:
                    fn(*args)
                dt = time.perf_counter() - t0
                spent += dt
                reps.append(dt / len(items))
                if len(reps) >= 200:
                    break
            out[(kernel, d)] = (statistics.median(reps), res.seen)
        return out
