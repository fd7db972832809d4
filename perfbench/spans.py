"""In-memory span tracer installed around the public functions of tcores.

The tracer replaces a function at every name where callers look it up:
module attributes in each loaded ``tcores`` module and class attributes
(so ``__rmul__ = __mul__`` aliases are caught too).  Each call records one
span (name, start, end, parent) in flat arrays; self time is a span's
duration minus the durations of its direct children.  Nothing inside the
package is edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import time
from array import array
from fractions import Fraction

# verifier function -> identity name as the reports spell it
IDENTITIES = {
    "verify_multiset_formula": "multiset-formula",
    "verify_exploded_relations": "exploded-relations",
    "verify_nekrasov_okounkov": "nekrasov-okounkov",
    "verify_sin_family": "sin-family",
    "verify_poly_s_family": "poly-s-family",
    "verify_jacobi": "jacobi",
    "verify_macdonald": "macdonald",
    "verify_tcore_lemmas": "tcore-lemmas",
    "verify_multiplication": "multiplication",
    "verify_hook_content": "hook-content",
    "verify_sin_lemma": "sin-lemma",
    "verify_classical_crosschecks": "classical-cross-checks",
    "verify_golden_tables": "golden-tables",
}

# layers with spans; halfint has only its object count
LAYERS = (
    "partitions", "coding", "exploded", "weights", "rings", "qseries", "identities", "cli",
)

# per-layer metrics, each (name, unit); the order is the report order
METRICS = [
    ("partitions.enumerate.items", "count"),
    ("partitions.enumerate.self_s", "s"),
    ("partitions.hooks.calls", "count"),
    ("partitions.hooks.self_s", "s"),
    ("partitions.conjugate.calls", "count"),
    ("partitions.objects", "count"),
    ("partitions.core_filter.hit_ratio", "ratio"),
    ("halfint.objects", "count"),
    ("coding.core_coding.calls", "count"),
    ("coding.core_coding.self_s", "s"),
    ("coding.coding_to_core.calls", "count"),
    ("coding.coding_to_core.self_s", "s"),
    ("coding.enumerate_codings.self_s", "s"),
    ("coding.bead_relations.self_s", "s"),
    ("exploded.window.calls", "count"),
    ("exploded.window.self_s", "s"),
    ("exploded.relations.self_s", "s"),
    ("exploded.region_ledger.calls", "count"),
    ("exploded.region_ledger.self_s", "s"),
    ("exploded.render.self_s", "s"),
    ("weights.ledgers.calls", "count"),
    ("weights.ledgers.self_s", "s"),
    ("rings.poly_mul.calls", "count"),
    ("rings.poly_mul.term_pairs", "count"),
    ("rings.poly_mul.self_s", "s"),
    ("rings.poly_add.calls", "count"),
    ("rings.poly_add.self_s", "s"),
    ("qseries.series_mul.calls", "count"),
    ("qseries.series_mul.self_s", "s"),
    ("qseries.exp.calls", "count"),
    ("qseries.exp.self_s", "s"),
    ("qseries.inverse.self_s", "s"),
    ("qseries.partition_sum.self_s", "s"),
    ("qseries.macdonald.self_s", "s"),
    ("qseries.schur_principal.self_s", "s"),
    ("qseries.max_coeff_bits", "bits"),
    *((f"identities.{name}.s", "s") for name in IDENTITIES.values()),
    ("identities.compare.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    ("layer.untraced.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# span name -> (module, qualified attribute) of every function it covers
SPANS = {
    "partitions.enumerate": [
        ("partitions", "enumerate_partitions"), ("partitions", "enumerate_t_cores"),
    ],
    "partitions.hooks": [("partitions", "Partition.hooks")],
    "partitions.conjugate": [("partitions", "Partition.conjugate")],
    "partitions.other": [
        ("partitions", "Partition.is_t_core"), ("partitions", "Partition.contents"),
        ("partitions", "Partition.small_hook_counts"),
    ],
    "coding.core_coding": [("coding", "core_coding")],
    "coding.coding_to_core": [("coding", "coding_to_core")],
    "coding.enumerate_codings": [("coding", "enumerate_codings")],
    "coding.bead_relations": [("coding", "bead_relation_checks")],
    "coding.other": [
        ("coding", name) for name in (
            "bead_set", "validate_coding", "coding_size", "content_coding",
            "content_coding_size", "is_content_coding_image", "cores_from_codings",
            "class_sorted_coding",
        )
    ],
    "exploded.window": [("exploded", "ExplodedWindow.__init__")],
    "exploded.relations": [
        ("exploded", name) for name in (
            "check_translation_relations", "check_fold", "check_fold_ledger",
            "check_triangle_ledger", "cell_box_map", "ExplodedWindow.boxes",
        )
    ],
    "exploded.region_ledger": [("exploded", "region_ledger")],
    "exploded.render": [("exploded", "render")],
    "weights.ledgers": [
        ("weights", name) for name in (
            "hook_shift_ledger", "coding_difference_ledger", "parity_coding_ledger",
            "content_ledger", "parity_normalize", "evaluate",
        )
    ],
    "rings.poly_mul": [("rings", "Poly.__mul__")],
    "rings.poly_add": [("rings", "Poly.__add__")],
    "qseries.series_mul": [("qseries", "TruncatedSeries.__mul__")],
    "qseries.exp": [("qseries", "TruncatedSeries.exp")],
    "qseries.inverse": [("qseries", "TruncatedSeries.inverse")],
    "qseries.partition_sum": [("qseries", "partition_sum_series")],
    "qseries.macdonald": [
        ("qseries", "macdonald_lhs"), ("qseries", "macdonald_rhs"),
        ("qseries", "macdonald_terms"),
    ],
    "qseries.schur_principal": [("qseries", "schur_principal")],
    "qseries.other": [
        ("qseries", name) for name in (
            "TruncatedSeries.__add__", "TruncatedSeries.__sub__",
            "TruncatedSeries.__pow__", "TruncatedSeries.log", "eta_like_product",
            "geometric_multiples", "one_minus_power", "log_one_minus_power",
        )
    ],
    "identities.compare": [
        ("identities", "_exact_compare"),
        ("qseries", "TruncatedSeries.first_mismatch"),
        ("qseries", "TruncatedSeries.max_abs_difference"),
    ],
    "identities.suite": [("identities", "run_suite")],
    **{
        f"identities.verify.{identity}": [("identities", fn)]
        for fn, identity in IDENTITIES.items()
    },
    "cli.main": [("cli", "main")],
}

# spans behind a named metric; each needs at least one of its sites, while a
# missing site elsewhere (the "*.other" spans, say) is skipped and reported,
# so renaming or inlining a helper does not stop a traced run
NAMED_SPANS = {name.rpartition(".")[0] for name, _ in METRICS} | {
    f"identities.verify.{identity}" for identity in IDENTITIES.values()
}

# series results whose coefficient sizes feed qseries.max_coeff_bits
BITS_SPANS = {"qseries.exp", "qseries.inverse", "qseries.partition_sum", "qseries.macdonald"}


def coeff_bits(series) -> int:
    """Largest numerator or denominator bit length among exact coefficients."""
    best = 0
    for c in getattr(series, "coeffs", ()):
        values = c.terms.values() if hasattr(c, "terms") else (c,)
        for v in values:
            if isinstance(v, Fraction):
                best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
            elif isinstance(v, int):
                best = max(best, v.bit_length())
    return best


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; `metrics` turns them into METRICS."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts = {
            "partitions.enumerate.items": 0,
            "partitions.objects": 0,
            "halfint.objects": 0,
            "rings.poly_mul.term_pairs": 0,
            "qseries.max_coeff_bits": 0,
            "core_filter.tested": 0,
            "core_filter.cores": 0,
        }
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # sites not found, as "module.qualname"

    # -- recording -----------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            # one span per item produced, so consumer time stays outside
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    if name == "partitions.enumerate":
                        counts["partitions.enumerate.items"] += 1
                    yield item

            return gen_wrapper

        pre = post = None
        if name == "rings.poly_mul":
            def pre(args):
                other = args[1]
                counts["rings.poly_mul.term_pairs"] += len(args[0].terms) * (
                    len(other.terms) if hasattr(other, "terms") else 1
                )
        elif name == "partitions.enumerate":
            # enumerate_t_cores: partitions it tested and cores it kept
            def pre(args):
                return counts["partitions.enumerate.items"]

            def post(result, before):
                counts["core_filter.tested"] += counts["partitions.enumerate.items"] - before
                counts["core_filter.cores"] += len(result)
        elif name in BITS_SPANS:
            def post(result, before):
                bits = coeff_bits(result)
                if bits > counts["qseries.max_coeff_bits"]:
                    counts["qseries.max_coeff_bits"] = bits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre else None
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post:
                post(result, before)
            return result

        return wrapper

    def _counting_init(self, key, init):
        counts = self.counts

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def _replace(self, original, replacement):
        """Swap `original` for `replacement` at every tcores lookup site."""
        owners = []
        for modname, module in list(sys.modules.items()):
            if modname != "tcores" and not modname.startswith("tcores."):
                continue
            owners.append(module)
            owners.extend(
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == modname
            )
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not reachable from tcores")

    def install(self):
        modules = {
            name: importlib.import_module(f"tcores.{name}")
            for name in ("partitions", "halfint", "coding", "exploded", "weights",
                         "rings", "qseries", "identities", "cli")
        }
        for span, sites in SPANS.items():
            found = 0
            for modname, qualname in sites:
                try:
                    owner, attr = _resolve(modules[modname], qualname)
                    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                    self._replace(original, self._wrap(span, original))
                except (AttributeError, LookupError):  # KeyError is a LookupError
                    self.missing.append(f"{modname}.{qualname}")
                else:
                    found += 1
            if not found and span in NAMED_SPANS:
                raise LookupError(f"span {span}: none of {sites} is in tcores")
        for key, cls in (("partitions.objects", modules["partitions"].Partition),
                         ("halfint.objects", modules["halfint"].HalfInt)):
            self._replace(cls.__init__, self._counting_init(key, cls.__init__))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------

    def span_totals(self, pauses=((), ())):
        """Per span name: call count, self seconds, inclusive seconds.

        `pauses` are (starts, ends) of intervals that belong to no span,
        such as meter slices run from a signal handler; they are cut out of
        every span they fall in.
        """
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        p_starts, p_ends = pauses
        dur = [0.0] * n
        for i in range(n):
            a, b = starts[i], ends[i]
            d = b - a
            k = bisect.bisect_right(p_ends, a)
            while k < len(p_starts) and p_starts[k] < b:
                d -= min(b, p_ends[k]) - max(a, p_starts[k])
                k += 1
            dur[i] = d
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            entry = totals[self.names[self.span_name[i]]]
            entry[0] += 1
            entry[1] += dur[i] - child[i]
            entry[2] += dur[i]
        return totals

    def metrics(self, wall_s: float, pauses=((), ())) -> dict[str, float]:
        """Every METRICS value except trace.overhead_s, for one traced pass
        of `wall_s` seconds with `pauses` cut out (see span_totals)."""
        totals = self.span_totals(pauses)
        counts = self.counts
        tested = counts["core_filter.tested"]
        out = {
            key: counts[key] for key in (
                "partitions.enumerate.items", "partitions.objects", "halfint.objects",
                "rings.poly_mul.term_pairs", "qseries.max_coeff_bits",
            )
        }
        out["partitions.core_filter.hit_ratio"] = counts["core_filter.cores"] / tested if tested else 0.0
        for identity in IDENTITIES.values():
            out[f"identities.{identity}.s"] = totals.get(f"identities.verify.{identity}", (0, 0.0, 0.0))[2]
        for metric, _unit in METRICS:
            if metric.startswith(("layer.", "trace.")) or metric in out:
                continue
            span, _, kind = metric.rpartition(".")
            out[metric] = totals.get(span, (0, 0.0, 0.0))[0 if kind == "calls" else 1]
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for span, (_n, s, _incl) in totals.items():
            layer_s[span.split(".", 1)[0]] += s
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layer_s[layer]
        # pass time outside every span: the benchmark's own loop plus
        # top-level code that no wrapper covers
        out["layer.untraced.self_s"] = wall_s - sum(layer_s.values())
        return out
