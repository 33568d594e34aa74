"""Span recording around zetalab's public functions, and the reducer that
turns recorded spans into per-layer metrics.

The recorder wraps module attributes (the names callers look up), so
zetalab's source is never edited.  A span records its name, start, end,
parent span, operation id and thread.  A span opened on a thread with no
open span of its own (a worker of a thread pool) takes as parent the
innermost open span of the harness thread, which submitted the work, and
the operation id current at that moment.

The reducer is pure: it takes a `SpanTable` and returns numbers, so the
tests can feed it hand-made spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import threading
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

import numpy as np

# Scalar entry points of zeta_core; only the outermost of a nest counts.
SCALAR = frozenset(
    "zeta_core." + n
    for n in ("zeta", "chi", "log_chi", "log_gamma", "theta", "hardy_z",
              "functional_equation_residual")
)
HARNESS_OP = "harness.op"
HARNESS_PASS = "harness.pass"

# Height bands for the zeta_grid per-point rates, by a block's largest |t|.
BANDS = (("t_lt_2e3", 0.0, 2e3), ("t_2e3_1.5e4", 2e3, 1.5e4), ("t_ge_1.5e4", 1.5e4, math.inf))

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _alloc_key(name: str) -> str | None:
    if name == "zeta_core.zeta_grid":
        return name
    if layer_of(name) == "euler_product":
        return "euler_product"
    return None


class Recorder:
    """Collects spans in flat arrays; thread-safe for concurrent opens."""

    def __init__(self, track_alloc: bool = False):
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.thread = array("i")
        self.attrs: dict[int, dict] = {}
        self._threads: dict[int, int] = {}
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self.current_op = -1
        self.track_alloc = track_alloc
        self._alloc_depth = 0
        self._alloc_owner: str | None = None
        self.alloc_peak: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else -1
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.current_op)
            self.thread.append(self._threads.setdefault(tid, len(self._threads)))
            self.end.append(math.nan)
            stack.append(idx)
            if self.track_alloc:
                self._alloc_enter(self._names[name_id])
            self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            if self.track_alloc:
                self._alloc_exit(self._names[self.name[idx]])

    # tracemalloc runs only while a tracked span is open, so it does not
    # tax the rest of the pass; the peak of each such window is charged
    # to the span kind that opened it.
    def _alloc_enter(self, name: str) -> None:
        key = _alloc_key(name)
        if key is None:
            return
        if self._alloc_depth == 0:
            tracemalloc.start()
            self._alloc_owner = key
        self._alloc_depth += 1

    def _alloc_exit(self, name: str) -> None:
        if _alloc_key(name) is None:
            return
        self._alloc_depth -= 1
        if self._alloc_depth == 0:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            owner = self._alloc_owner
            self.alloc_peak[owner] = max(self.alloc_peak.get(owner, 0.0), peak)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A harness span around a block."""
        idx = self.open(self.name_id(name))
        if attrs:
            self.attrs[idx] = attrs
        try:
            yield idx
        finally:
            self.close(idx)

    def table(self) -> "SpanTable":
        ends = np.frombuffer(self.end, dtype=np.float64).copy()
        if np.isnan(ends).any():
            raise RuntimeError("span table taken while spans are still open")
        return SpanTable(
            names=list(self._names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=ends,
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            op=np.frombuffer(self.op, dtype=np.int64).copy(),
            thread=np.frombuffer(self.thread, dtype=np.int32).copy(),
            attrs=dict(self.attrs),
            alloc_peak_mb=dict(self.alloc_peak),
        )


@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    thread: np.ndarray
    attrs: dict[int, dict] = field(default_factory=dict)
    alloc_peak_mb: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows, attrs=None, alloc_peak_mb=None) -> "SpanTable":
        """rows: (name, start, end, parent, op, thread) tuples, for tests."""
        names = sorted({r[0] for r in rows})
        ids = {n: i for i, n in enumerate(names)}
        cols = list(zip(*rows)) if rows else [[]] * 6
        return cls(
            names=names,
            name=np.array([ids[n] for n in cols[0]], dtype=np.int32),
            start=np.array(cols[1], dtype=np.float64),
            end=np.array(cols[2], dtype=np.float64),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int64),
            thread=np.array(cols[5], dtype=np.int32),
            attrs=dict(attrs or {}),
            alloc_peak_mb=dict(alloc_peak_mb or {}),
        )

    def __len__(self) -> int:
        return self.start.size

    def label(self, i: int) -> str:
        return self.names[self.name[i]]

    def labels(self) -> list[str]:
        return [self.names[k] for k in self.name.tolist()]


# ---------------------------------------------------------------- wrapping

def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs) -> dict:
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bound


def _grid_attrs(fn):
    def attrs(args, kwargs, result):
        pts = np.asarray(args[0] if args else kwargs["s_values"], dtype=np.complex128).ravel()
        t = np.abs(pts.imag)
        return {
            "points": int(pts.size),
            "sum_t": float(np.maximum(t, 1.0).sum()),
            "max_t": float(t.max(initial=0.0)),
            "sigma_max": float(pts.real.max(initial=0.0)),
            "pts": pts.copy(),
        }
    return attrs


def _n_attrs(fn, key="N"):
    bound = _bind(fn)
    return lambda args, kwargs, result: {"N": int(bound(args, kwargs)[key])}


def _flip_attrs(fn):
    bound = _bind(fn)

    def attrs(args, kwargs, result):
        return {
            "N": int(bound(args, kwargs)["N"]),
            "predicted": len(result.predicted_hits),
            "confirmed": len(result.confirmed_hits),
        }
    return attrs


def _factor_attrs(fn, kind):
    bound = _bind(fn)

    def attrs(args, kwargs, result):
        a = bound(args, kwargs)
        m = int(a["level"].m)
        if kind == "meansquare":
            anchors = 1 if a["grid"] is None else int(np.asarray(a["grid"]).size)
            return {"factors": m * int(a["N"]) * anchors}
        return {"factors": m * (int(a["N"]) + int(a["trials"]))}
    return attrs


# (module, attribute, span name, attribute extractor factory or None).
# Modules that import a function by name get their own entry, because the
# caller looks the name up in its own namespace.
TARGETS = [
    ("zeta_core", "zeta_grid", "zeta_core.zeta_grid", _grid_attrs),
    *[("zeta_core", n.split(".")[1], n, None) for n in sorted(SCALAR)],
    ("zeta_core", "chi_lower_bound_check", "zeta_core.chi_lower_bound_check", None),
    ("shift_search", "scan_disk_hits", "shift_search.scan_disk_hits",
     _n_attrs),
    ("shift_search", "joint_beatty_hits", "shift_search.joint_beatty_hits",
     _n_attrs),
    ("shift_search", "corollary_sis_density", "shift_search.corollary_sis_density",
     _n_attrs),
    ("shift_search", "left_half_flip", "shift_search.left_half_flip", _flip_attrs),
    ("shift_search", "sigma_alpha", "beatty.sigma_alpha", None),
    ("beatty", "sigma_alpha", "beatty.sigma_alpha", None),
    ("beatty", "rayleigh_partition_check", "beatty.rayleigh_partition_check",
     functools.partial(_n_attrs, key="n_max")),
    ("beatty", "exclusion_scan", "beatty.exclusion_scan", None),
    ("equidist", "weyl_sum", "equidist.weyl_sum", _n_attrs),
    ("equidist", "joint_beatty_weyl", "equidist.joint_beatty_weyl", _n_attrs),
    ("euler_product", "validate_shift_sequence", "equidist.validate_shift_sequence", None),
    ("dirichlet", "uniqueness_bound", "dirichlet.uniqueness_bound", None),
    ("dirichlet", "verify_distinct_beyond_b", "dirichlet.verify_distinct_beyond_b", None),
    ("dirichlet", "find_mu", "dirichlet.find_mu", None),
    ("dirichlet", "dirichlet_eval", "dirichlet.dirichlet_eval", None),
    ("euler_product", "mean_square_discrete", "euler_product.mean_square_discrete",
     lambda f: _factor_attrs(f, "meansquare")),
    ("euler_product", "empirical_limit_theorem", "euler_product.empirical_limit_theorem",
     lambda f: _factor_attrs(f, "limit")),
    ("euler_product", "bergman_sup_bound", "euler_product.bergman_sup_bound", None),
    ("euler_product", "first_n_primes", "primes.first_n_primes", None),
    ("euler_product", "is_prime", "primes.is_prime", None),
    ("primes", "first_n_primes", "primes.first_n_primes", None),
    ("primes", "primes_up_to", "primes.primes_up_to", None),
    ("cli", "run", "cli.run", None),
    ("cli", "warn_unknown_keys", "config.warn_unknown_keys", None),
    ("cli", "config_roundtrip", "config.config_roundtrip", None),
]
# Methods and classmethods, wrapped on the class: (module, class, attr, name).
CLASS_TARGETS = [
    ("config", "ExperimentConfig", "as_dict", "config.ExperimentConfig.as_dict"),
    ("euler_product", "TruncationLevel", "of", "euler_product.TruncationLevel.of"),
]


def _wrap(rec: Recorder, fn, name: str, attrs_factory):
    nid = rec.name_id(name)
    attrs_fn = attrs_factory(fn) if attrs_factory else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs_fn is not None:
            rec.attrs[idx] = attrs_fn(args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Installs wrappers on zetalab's module attributes; `remove` restores
    the originals."""

    def __init__(self, package, rec: Recorder):
        self._saved: list[tuple[object, str, object]] = []
        for mod_name, attr, name, factory in TARGETS:
            mod = getattr(package, mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, _wrap(rec, orig, name, factory))
        for mod_name, cls_name, attr, name in CLASS_TARGETS:
            cls = getattr(getattr(package, mod_name), cls_name)
            raw = cls.__dict__[attr]
            self._saved.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(_wrap(rec, raw.__func__, name, None)))
            else:
                setattr(cls, attr, _wrap(rec, raw, name, None))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


# ---------------------------------------------------------------- reducer

def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_of(tab: SpanTable) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(len(tab))]
    for i, p in enumerate(tab.parent.tolist()):
        if p >= 0:
            kids[p].append(i)
    return kids


def self_times(tab: SpanTable, kids=None) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.
    Children on other threads may overlap each other; their union counts."""
    kids = children_of(tab) if kids is None else kids
    out = tab.end - tab.start
    for i, ks in enumerate(kids):
        if ks:
            s0, e0 = tab.start[i], tab.end[i]
            out[i] -= union_length(
                (max(tab.start[k], s0), min(tab.end[k], e0)) for k in ks
                if tab.end[k] > s0 and tab.start[k] < e0
            )
    return out


def _under(tab: SpanTable, pred) -> tuple[list[bool], list[bool]]:
    """(matches, has a matching ancestor) for every span.  A parent is
    always recorded before its children, so one forward pass suffices."""
    match = [bool(pred(n)) for n in tab.labels()]
    under = [False] * len(match)
    for i, p in enumerate(tab.parent.tolist()):
        if p >= 0:
            under[i] = match[p] or under[p]
    return match, under


def outermost(tab: SpanTable, pred) -> list[int]:
    """Spans matching pred that have no ancestor matching pred."""
    match, under = _under(tab, pred)
    return [i for i, (a, b) in enumerate(zip(match, under)) if a and not b]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def confirmation_calls(tab: SpanTable, kids, flip: int) -> list[int]:
    """The zeta_grid children of a left_half_flip span that confirm its
    predictions: the flip's own line lies left of 1/2, its mirrored scan
    right of it."""
    return [k for k in kids[flip] if tab.label(k) == "zeta_core.zeta_grid"
            and tab.attrs.get(k, {}).get("sigma_max", 1.0) < 0.5]


def us_per_point(tab: SpanTable, grid, bands) -> dict[str, float]:
    """Microseconds per point of the zeta_grid spans `grid`, for each
    (name, lo, hi) band of a block's largest |t|; 0 for an empty band."""
    out = {}
    for name, lo, hi in bands:
        sel = [i for i in grid if lo <= tab.attrs.get(i, {}).get("max_t", 0.0) < hi]
        busy = sum(float(tab.end[i] - tab.start[i]) for i in sel)
        out[name] = 1e6 * _ratio(busy, sum(tab.attrs[i]["points"] for i in sel))
    return out


def reduce_spans(tab: SpanTable) -> dict[str, float]:
    """Per-layer metrics from one traced pass (see bench/README.md)."""
    kids = children_of(tab)
    own = self_times(tab, kids)
    dur = tab.end - tab.start
    labels = tab.labels()
    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(labels):
        by_name.setdefault(n, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(indices):
        return float(sum(dur[i] for i in indices))

    def attr_sum(indices, key):
        return sum(tab.attrs.get(i, {}).get(key, 0) for i in indices)

    def layer_pred(layer):
        return lambda n: layer_of(n) == layer

    m: dict[str, float] = {}

    # zeta_core: the vectorised kernel
    grid = idx("zeta_core.zeta_grid")
    points = attr_sum(grid, "points")
    grid_busy = busy(grid)
    grid_wall = union_length((tab.start[i], tab.end[i]) for i in grid)
    m["zeta_core.zeta_grid.calls"] = len(grid)
    m["zeta_core.zeta_grid.points"] = points
    m["zeta_core.zeta_grid.points_per_call"] = _ratio(points, len(grid))
    m["zeta_core.zeta_grid.busy_s"] = grid_busy
    m["zeta_core.zeta_grid.parallelism"] = _ratio(grid_busy, grid_wall)
    m["zeta_core.zeta_grid.ns_per_point_t"] = 1e9 * _ratio(grid_busy, attr_sum(grid, "sum_t"))
    for band, rate in us_per_point(tab, grid, BANDS).items():
        m[f"zeta_core.zeta_grid.us_per_point.{band}"] = rate
    m["zeta_core.zeta_grid.peak_alloc_mb"] = tab.alloc_peak_mb.get("zeta_core.zeta_grid", 0.0)
    scalar = outermost(tab, lambda n: n in SCALAR)
    m["zeta_core.scalar.calls"] = len(scalar)
    m["zeta_core.scalar.busy_s"] = busy(scalar)
    m["zeta_core.chi_lower_bound_check.busy_s"] = busy(idx("zeta_core.chi_lower_bound_check"))

    # shift_search: scans, their points and the flip confirmations
    ss_all = [i for i, n in enumerate(labels) if layer_of(n) == "shift_search"]
    ss_top = outermost(tab, layer_pred("shift_search"))
    in_ss = _under(tab, layer_pred("shift_search"))[1]
    ss_grid = [i for i in grid if in_ss[i]]
    ss_points = attr_sum(ss_grid, "points")
    shifts = attr_sum(ss_top, "N")
    m["shift_search.self_s"] = float(sum(own[i] for i in ss_all))
    m["shift_search.shifts"] = shifts
    m["shift_search.points_per_shift"] = _ratio(ss_points, shifts)
    if ss_grid:
        pts = np.concatenate([tab.attrs[i]["pts"] for i in ss_grid if "pts" in tab.attrs.get(i, {})])
        distinct = np.unique(np.stack([pts.real, pts.imag]), axis=1).shape[1]
        m["shift_search.unique_point_ratio"] = _ratio(distinct, pts.size)
    else:
        m["shift_search.unique_point_ratio"] = 0.0
    flips = idx("shift_search.left_half_flip")
    predicted = attr_sum(flips, "predicted")
    confirm_calls, confirm_s = 0, 0.0
    for f in flips:
        own_line = confirmation_calls(tab, kids, f)
        confirm_calls += len(own_line)
        if own_line:
            confirm_s += tab.end[f] - min(tab.start[k] for k in own_line)
    m["shift_search.flip.confirm_ratio"] = _ratio(attr_sum(flips, "confirmed"), predicted)
    m["shift_search.flip.confirm_calls"] = confirm_calls
    m["shift_search.flip.confirm_s"] = float(confirm_s)

    # beatty
    m["beatty.busy_s"] = busy(outermost(tab, layer_pred("beatty")))
    sig = outermost(tab, lambda n: n == "beatty.sigma_alpha")
    m["beatty.sigma_alpha.calls"] = len(sig)
    m["beatty.sigma_alpha.us_per_call"] = 1e6 * _ratio(busy(sig), len(sig))
    ray = idx("beatty.rayleigh_partition_check")
    m["beatty.rayleigh.ns_per_term"] = 1e9 * _ratio(busy(ray), attr_sum(ray, "N"))
    m["beatty.exclusion_scan.busy_s"] = busy(idx("beatty.exclusion_scan"))

    # equidist
    weyl = idx("equidist.weyl_sum") + idx("equidist.joint_beatty_weyl")
    terms = attr_sum(weyl, "N")
    m["equidist.busy_s"] = busy(outermost(tab, layer_pred("equidist")))
    m["equidist.terms"] = terms
    m["equidist.ns_per_term"] = 1e9 * _ratio(busy(weyl), terms)

    # dirichlet
    m["dirichlet.busy_s"] = busy(outermost(tab, layer_pred("dirichlet")))
    m["dirichlet.find_mu.calls"] = len(idx("dirichlet.find_mu"))
    m["dirichlet.dirichlet_eval.calls"] = len(idx("dirichlet.dirichlet_eval"))

    # euler_product and primes
    ep_all = [i for i, n in enumerate(labels) if layer_of(n) == "euler_product"]
    ep_self = float(sum(own[i] for i in ep_all))
    factors = attr_sum(ep_all, "factors")
    m["euler_product.self_s"] = ep_self
    m["euler_product.factors"] = factors
    m["euler_product.ns_per_factor"] = 1e9 * _ratio(ep_self, factors)
    m["euler_product.peak_alloc_mb"] = tab.alloc_peak_mb.get("euler_product", 0.0)
    m["primes.busy_s"] = busy(outermost(tab, layer_pred("primes")))

    # cli and config
    m["cli.self_s"] = float(sum(own[i] for i in idx("cli.run")))
    m["config.busy_s"] = busy(outermost(tab, layer_pred("config")))

    # time inside experiments that no layer span covers
    ops = idx(HARNESS_OP)
    m["trace.unattributed_share"] = _ratio(float(sum(own[i] for i in ops)), busy(ops))
    return m


def invariant_counts(tab: SpanTable, m: dict[str, float]) -> dict[str, float]:
    """Work counts that must not depend on the seed, from a traced pass
    and its reduced metrics `m`.  Flip confirmations are left out: their
    number is the number of predicted hits, which is data."""
    kids = children_of(tab)
    confirm = {k for f in range(len(tab)) if tab.label(f) == "shift_search.left_half_flip"
               for k in confirmation_calls(tab, kids, f)}
    grid = [i for i in range(len(tab))
            if tab.label(i) == "zeta_core.zeta_grid" and i not in confirm]
    return {
        "zeta_grid.points": sum(tab.attrs[i]["points"] for i in grid),
        "zeta_grid.sum_t": sum(tab.attrs[i]["sum_t"] for i in grid),
        "shift_search.shifts": m["shift_search.shifts"],
        "euler_product.factors": m["euler_product.factors"],
        "equidist.terms": m["equidist.terms"],
        "beatty.sigma_alpha.calls": m["beatty.sigma_alpha.calls"],
    }


def layer_coverage(tab: SpanTable) -> dict[str, float]:
    """Split the traced pass's wall time into layer self time on the
    harness thread, worker time (the union of pool spans per parent),
    harness glue and time inside experiments that no layer covers."""
    kids = children_of(tab)
    own = self_times(tab, kids)
    out: dict[str, float] = {}
    main_thread = int(tab.thread[np.argmin(tab.start)]) if len(tab) else 0
    for i in range(len(tab)):
        if int(tab.thread[i]) != main_thread:
            continue
        name = tab.label(i)
        key = "unattributed" if name == HARNESS_OP else layer_of(name)
        out[key] = out.get(key, 0.0) + float(own[i])
        pool = [k for k in kids[i] if int(tab.thread[k]) != main_thread]
        if pool:
            # the harness thread waited on its workers: charge the covered
            # wall time once, to the workers' layer
            layer = layer_of(tab.label(pool[0]))
            out[layer] = out.get(layer, 0.0) + union_length(
                (max(tab.start[k], tab.start[i]), min(tab.end[k], tab.end[i])) for k in pool)
    return out
