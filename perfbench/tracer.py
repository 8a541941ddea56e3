"""Per-layer tracing for the kcorr benchmark, installed from outside ``src/``.

The tracer wraps public functions of each kcorr module and rebinds every
module-level name that refers to the original, because kcorr imports by name
(``buchberger`` is also bound in ``varieties``, ``make_correspondence`` in
``pairing``, ``randomgen``, ``session`` and ``bimod``, and so on).  Class
methods are patched on the class.  Two function tables that hold callables,
``laws.LAW_FAMILIES`` and ``cli.SESSION_COMMANDS``, are handled by the
workloads and by :func:`install` respectively.

A *span* wrapper times the call and keeps a stack, so each layer gets
inclusive time (``busy_s``, counted once when a layer re-enters itself) and
self time (``self_s``, minus the time covered by child spans).  A *count*
wrapper only counts.  Calls are recorded only while ``Tracer.op`` names an
op, so set-up work outside the timed region never shows.  Spans are kept in
memory and written out at the end of the run; kernel-level spans (normal
forms, matrix products) are aggregated per op instead of kept one by one.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

# (metric prefix, module, attribute path); a prefix may cover several functions.
SPANS = (
    ("groebner.buchberger", "kcorr.exactalg.groebner", "buchberger"),
    ("groebner.normal_form", "kcorr.exactalg.groebner", "GroebnerBasis.normal_form"),
    ("matrix.mul", "kcorr.exactalg.matrix", "Matrix.__mul__"),
    ("parser.parse_poly", "kcorr.exactalg.parser", "parse_poly"),
    ("varieties.product", "kcorr.varieties", "product"),
    ("varieties.make_morphism", "kcorr.varieties", "make_morphism"),
    ("corrcat.make_correspondence", "kcorr.corrcat", "make_correspondence"),
    ("corrcat.make_corr_morphism", "kcorr.corrcat", "make_corr_morphism"),
    ("corrcat.corner_eval", "kcorr.corrcat", "corner_eval"),
    ("pairing.compose_objects", "kcorr.pairing", "compose_objects"),
    ("pairing.compose_morphisms", "kcorr.pairing", "compose_morphisms"),
    ("functors.pullback", "kcorr.functors", "pullback_obj"),
    ("functors.pushforward", "kcorr.functors", "pushforward_obj"),
    ("functors.box", "kcorr.functors", "box_product"),
    ("functors.torus", "kcorr.functors", "to_automorphism_object"),
    ("functors.torus", "kcorr.functors", "to_torus_object"),
    ("bimod", "kcorr.bimod", "to_bimodule"),
    ("bimod", "kcorr.bimod", "from_bimodule"),
    ("bimod", "kcorr.bimod", "make_presentation"),
    ("bimod", "kcorr.bimod", "bimodule_hom_valid"),
    ("bimod", "kcorr.bimod", "big_lift"),
    ("bimod", "kcorr.bimod", "restrict_base"),
    ("bimod", "kcorr.bimod", "big_pullback"),
    ("bimod", "kcorr.bimod", "big_pushforward"),
    ("k0.rank", "kcorr.k0", "rank"),
    ("k0.certificate", "kcorr.k0", "pt_conjugation_certificate"),
    ("randomgen", "kcorr.randomgen", "random_scalar"),
    ("randomgen", "kcorr.randomgen", "random_poly"),
    ("randomgen", "kcorr.randomgen", "sample_point"),
    ("randomgen", "kcorr.randomgen", "sample_map"),
    ("randomgen", "kcorr.randomgen", "random_conjugator"),
    ("randomgen", "kcorr.randomgen", "random_object"),
    ("randomgen", "kcorr.randomgen", "conjugate_object"),
    ("randomgen", "kcorr.randomgen", "random_endo_matrix"),
    ("randomgen", "kcorr.randomgen", "random_morphism_from"),
    ("randomgen", "kcorr.randomgen", "random_endomorphism"),
    ("randomgen", "kcorr.randomgen", "random_aut_object"),
    ("session.parse_session", "kcorr.session", "parse_session"),
)

COUNTS = (
    ("groebner.basis_eq", "kcorr.exactalg.groebner", "GroebnerBasis.__eq__"),
    ("matrix.init", "kcorr.exactalg.matrix", "Matrix.__init__"),
    ("poly.mul", "kcorr.exactalg.poly", "Poly.__mul__"),
    ("varieties.construct", "kcorr.varieties", "AffVariety.__init__"),
)

# Called too often to keep one record each; still timed and nested.
HOT = frozenset({"groebner.normal_form", "matrix.mul", "corrcat.corner_eval",
                 "parser.parse_poly", "randomgen"})

MAX_RECORDS = 100_000


def _buchberger_key(gens, ambient=None):
    gens = tuple(g for g in gens if not g.is_zero())
    if ambient is None and gens:
        ambient = gens[0].ambient
    if ambient is None:
        return ("<none>",)
    return (ambient.vars, ambient.field, ambient.order, gens)


def _entry_products(a, b):
    """Products of nonzero entry pairs that any realisation of a*b must form."""
    if a.ncols != b.nrows:
        return 0
    col_nnz = [0] * a.ncols
    for row in a.rows:
        for k, e in enumerate(row):
            if not e.rep.is_zero():
                col_nnz[k] += 1
    total = 0
    for k, row in enumerate(b.rows):
        if col_nnz[k]:
            total += col_nnz[k] * sum(1 for e in row if not e.rep.is_zero())
    return total


class Tracer:
    """Spans and counts for one process; record only while ``op`` is set."""

    def __init__(self):
        self.op = None
        self.stack = []          # frames: [seconds covered by child spans, span id]
        self.active = {}         # name -> depth, so busy counts the outermost call
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.counts = {}
        self.records = []        # (op, span id, parent span id, name, start, end)
        self.dropped = 0
        self.hot_per_op = {}     # (op, name) -> [calls, seconds]
        self.buchberger_keys = set()
        self.certificates_found = 0
        self.internal_violations = 0
        self.debug_on = 0            # commands entered with debug validation on
        self._next_id = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn):
        tracer = self
        hot = name in HOT
        is_command = name.startswith("cli.command.")
        from kcorr import config
        from kcorr.errors import InternalLawViolation

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            if name == "groebner.buchberger":
                tracer.buchberger_keys.add(_buchberger_key(*args, **kwargs))
            elif name == "matrix.mul":
                tracer.count("matrix.mul.entry_products", _entry_products(*args))
            elif is_command and config.debug_enabled():
                tracer.debug_on += 1
            depth = tracer.active.get(name, 0)
            tracer.active[name] = depth + 1
            parent = tracer.stack[-1][1] if tracer.stack else None
            frame = [0.0, tracer._next_id]
            tracer._next_id += 1
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except InternalLawViolation as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.internal_violations += 1
                raise
            finally:
                end = perf_counter()
                elapsed = end - start
                tracer.stack.pop()
                tracer.active[name] = depth
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if depth == 0:
                    tracer.busy[name] = tracer.busy.get(name, 0.0) + elapsed
                tracer.self_time[name] = (tracer.self_time.get(name, 0.0)
                                          + elapsed - frame[0])
                if hot:
                    agg = tracer.hot_per_op.setdefault((tracer.op, name), [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                elif len(tracer.records) < MAX_RECORDS:
                    tracer.records.append((tracer.op, frame[1], parent, name,
                                           start, end))
                else:
                    tracer.dropped += 1
            if name == "k0.certificate" and result is not None:
                tracer.certificates_found += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed function and rebind every name bound to it."""
        import kcorr.cli  # noqa: F401  (not imported by the package itself)
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, module_name, path in table:
                module = importlib.import_module(module_name)
                make = self.span if kind == "span" else self.counter
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, make(name, original))
                    self._undo.append((cls, attr, original))
                else:
                    original = getattr(module, path)
                    self._rebind(original, make(name, original))
        cli = sys.modules["kcorr.cli"]
        original_table = dict(cli.SESSION_COMMANDS)
        for word, (handler, lo, hi) in original_table.items():
            cli.SESSION_COMMANDS[word] = (
                self.span(f"cli.command.{word}", handler), lo, hi)
        self._undo.append((cli.SESSION_COMMANDS, None, original_table))

    def _rebind(self, original, wrapper):
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "kcorr" and not module_name.startswith("kcorr."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)

    # -- output -------------------------------------------------------------

    def summary(self):
        """Plain-data totals, also what a child process hands to its parent."""
        return {
            "calls": self.calls, "busy": self.busy, "self": self.self_time,
            "counts": self.counts,
            "buchberger_distinct": len(self.buchberger_keys),
            "certificates_found": self.certificates_found,
            "internal_violations": self.internal_violations,
            "debug_on": self.debug_on,
        }

    def dump(self):
        return {
            "spans": [list(r) for r in self.records],
            "spans_dropped": self.dropped,
            "hot_per_op": [[op, name, calls, seconds] for (op, name), (calls, seconds)
                           in self.hot_per_op.items()],
        }


def merge_summaries(summaries):
    """Sum per-process summaries (``distinct`` is per process, so it adds)."""
    total = {"calls": {}, "busy": {}, "self": {}, "counts": {},
             "buchberger_distinct": 0, "certificates_found": 0,
             "internal_violations": 0, "debug_on": 0}
    for s in summaries:
        for key in ("calls", "busy", "self", "counts"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for key in ("buchberger_distinct", "certificates_found",
                    "internal_violations", "debug_on"):
            total[key] += s[key]
    return total


# Fixed here rather than read from kcorr, because BENCHMARK.json lists the
# per-layer metrics these names produce.
LAW_FAMILY_NAMES = (
    "pairing-bifunctor", "pairing-units", "pairing-associativity",
    "pairing-square-strict", "box-compose-objects", "box-unit-square",
    "torus-isomorphism", "pull-push-functoriality", "box-graph",
    "box-compose-morphisms", "bimod-pullback-chain", "bimod-pushforward-chain",
    "torus-pullback-naturality", "torus-pushforward-naturality",
)
LAW_FIELDS = ("F5", "Q")
COMMAND_WORDS = ("validate", "compose", "pullback", "pushforward", "box", "rho",
                 "rho-inv", "k0", "compare-bimodule", "laws")


def per_layer_spec():
    """Every per-layer metric as (name, unit), in report order."""
    spec = [
        ("groebner.buchberger.calls", "count"), ("groebner.buchberger.busy_s", "s"),
        ("groebner.buchberger.distinct", "count"),
        ("groebner.buchberger.useful_ratio", "ratio"),
        ("groebner.normal_form.calls", "count"), ("groebner.normal_form.busy_s", "s"),
        ("groebner.basis_eq.calls", "count"),
        ("matrix.mul.calls", "count"), ("matrix.mul.entry_products", "count"),
        ("matrix.mul.busy_s", "s"), ("matrix.init.calls", "count"),
        ("poly.mul.calls", "count"),
    ]
    for name in ("corrcat.make_correspondence", "corrcat.make_corr_morphism",
                 "corrcat.corner_eval"):
        spec += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    for name in ("pairing.compose_objects", "pairing.compose_morphisms"):
        spec += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"),
                 (f"{name}.self_s", "s")]
    for name in ("functors.pullback", "functors.pushforward", "functors.box",
                 "functors.torus", "bimod", "k0.rank", "k0.certificate",
                 "randomgen"):
        spec += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    spec.insert(spec.index(("k0.certificate.busy_s", "s")) + 1,
                ("k0.certificate.found_ratio", "ratio"))
    spec += [
        ("varieties.construct.calls", "count"),
        ("varieties.product.calls", "count"), ("varieties.product.busy_s", "s"),
        ("varieties.make_morphism.calls", "count"),
        ("varieties.make_morphism.busy_s", "s"),
        ("parser.parse_poly.calls", "count"), ("parser.parse_poly.busy_s", "s"),
        ("session.parse_session.busy_s", "s"),
    ]
    spec += [(f"cli.command.{word}.busy_s", "s") for word in COMMAND_WORDS]
    spec += [("cli.startup_s", "s")]
    spec += [(f"laws.family.{fam}.{fld}.case_ms", "ms")
             for fam in LAW_FAMILY_NAMES for fld in LAW_FIELDS]
    spec += [("internal_law_violation.count", "count"),
             ("trace.overhead_ratio", "ratio")]
    return spec


def layer_metrics(summary, case_ms, startup_s, overhead_ratio):
    """Per-layer metric values from a merged summary.

    ``case_ms`` maps (family, field) to per-case times in ms; ``startup_s``
    lists child start-up times (empty for in-process workloads).
    """
    calls, busy, self_time = summary["calls"], summary["busy"], summary["self"]
    counts = summary["counts"]
    values = {}
    for name, unit in per_layer_spec():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(base, counts.get(base, 0))
        elif kind == "busy_s":
            values[name] = busy.get(base, 0.0)
        elif kind == "self_s":
            values[name] = self_time.get(base, 0.0)
        elif name == "matrix.mul.entry_products":
            values[name] = counts.get(name, 0)
    buch_calls = calls.get("groebner.buchberger", 0)
    values["groebner.buchberger.distinct"] = summary["buchberger_distinct"]
    values["groebner.buchberger.useful_ratio"] = (
        summary["buchberger_distinct"] / buch_calls if buch_calls else 0.0)
    cert_calls = calls.get("k0.certificate", 0)
    values["k0.certificate.found_ratio"] = (
        summary["certificates_found"] / cert_calls if cert_calls else 0.0)
    values["cli.startup_s"] = statistics.median(startup_s) if startup_s else 0.0
    for fam in LAW_FAMILY_NAMES:
        for fld in LAW_FIELDS:
            times = case_ms.get((fam, fld))
            values[f"laws.family.{fam}.{fld}.case_ms"] = (
                statistics.median(times) if times else 0.0)
    values["internal_law_violation.count"] = summary["internal_violations"]
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_spec()}


def write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
