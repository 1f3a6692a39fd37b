"""Per-layer tracing of prismlab, installed at runtime from outside the library.

``Tracer.install()`` replaces each traced function or method with a wrapper
everywhere it is looked up: in its defining module or class, under aliases
such as ``__rmul__ = __mul__``, and in every module that imported it by
name. ``Tracer.restore()`` puts every original back.

Each wrapped call is a span. A span records its name, start, end, parent span
and job id. Field arithmetic is the exception: it runs millions of times a
run, so its calls are folded into their parent's accounting instead of being
kept one by one. A span's self time is its duration minus the time covered
by its child spans; a child's share includes its wrapper's own bookkeeping,
so tracing cost is charged to no layer's self time.
"""
from __future__ import annotations

import json
import time
from array import array

LAYERS = ("field", "series", "linalg", "pdalg", "strat", "connops", "galois",
          "serialize", "cli")

# Traced names by layer: a function, "Class.method", or "prefix*" for every
# function of the module whose name starts with prefix.
TRACED = {
    "field": ("FieldElement.__mul__", "FieldElement.__add__", "FieldElement.__sub__",
              "FieldElement.__neg__", "FieldElement.invert", "FieldElement.val",
              "FieldElement.dist_to_integers", "FieldSpec.element"),
    "series": ("TruncSeries.__mul__", "TruncSeries.__add__", "TruncSeries.__sub__",
               "TruncSeries.__neg__", "TruncSeries.__pow__", "TruncSeries.compose",
               "TruncSeries.reversion", "TruncSeries.invert_unit",
               "TruncSeries.derivative", "TruncSeries.shift_down",
               "rewrite_in_uniformizer", "lambda_approx"),
    "linalg": ("Matrix.__mul__", "Matrix.__add__", "Matrix.__sub__", "Matrix.__neg__",
               "Matrix.scale", "Matrix.transpose", "Matrix.apply", "Matrix.rref",
               "Matrix.rank", "Matrix.kernel_basis", "Matrix.column_pivots",
               "Matrix.charpoly", "Matrix.trace", "Matrix.is_zero", "eval_poly",
               "poly_deflate"),
    "pdalg": ("PDElement.__mul__", "PDElement.__add__", "PDElement.__sub__",
              "PDElement.__neg__", "PDElement.scale", "PDElement.gamma",
              "PDElement.__pow__", "face", "degeneracy", "one_plus_a_x_pow"),
    "strat": ("from_connection", "to_connection", "check_leibniz", "check_cocycle",
              "operator_family", "multiplication_by_t_power", "verify_key_lemma",
              "LogConnection.operator", "LogConnection.residual_matrix"),
    "connops": ("tensor", "dual", "bk_twist", "change_uniformizer", "kummer_sen_operator",
                "split_eigenvalues", "residual_sen", "probe_nilpotency",
                "check_nilpotent", "classify_ndR", "cohomology", "reduction_ses",
                "matrix_gauss_val"),
    "galois": ("action_kernel", "converges_at", "h_series", "d0_check",
               "tau_power_kernel"),
    "serialize": ("canonical_json", "parse_rational", "parse_field", "parse_element",
                  "parse_valuation", "parse_series", "parse_matrix", "parse_connection",
                  "parse_stratification", "parse_kernel", "encode_rational",
                  "encode_field", "encode_element", "encode_valuation", "encode_series",
                  "encode_matrix", "encode_connection", "encode_stratification",
                  "encode_kernel", "encode_valuation_list", "encode_verdict"),
    "cli": ("main", "build_parser", "_lenient_connection", "_read_json", "_emit",
            "_field_from", "_scalar_choice", "cmd_*"),
}
# JSON decoding is defined in the cli module but is serialize's work.
MOVED = {("cli", "_loads"): "serialize"}
FOLDED = "field"  # layer whose calls are not kept as span records


def _group(layer, name):
    """Inclusive-time group: serialize's parse and encode functions each
    share one, so nested calls are counted once."""
    if layer == "serialize":
        return "serialize.encode" if name.startswith(("encode", "canonical")) \
            else "serialize.parse"
    return f"{layer}.{name}"


class Tracer:
    def __init__(self, lib, record_limit=500_000):
        self.lib = lib
        self.record_limit = record_limit
        self.job = -1
        self.names = []            # index -> "layer.name"
        self.layer_of = []         # index -> layer
        self.calls = []
        self.self_s = []
        self.groups = {}           # group -> index into incl/depth
        self.group_of = []
        self.incl = []
        self.depth = []
        self.stack = []            # frames [child time, span id]
        self.root_s = 0.0          # time covered by spans with no parent
        self.counts = {"matmul_products": 0, "matmul_zero_products": 0,
                       "pd_term_pairs": 0, "pd_mul_calls": 0, "matmul_calls": 0,
                       "bytes_in": 0, "bytes_out": 0}
        self.reject_s = 0.0
        self.spans = {"name": array("i"), "parent": array("i"), "job": array("i"),
                      "start": array("d"), "end": array("d")}
        self.dropped = 0
        self._patched = []         # (owner, attribute, original)

    # --- installing -------------------------------------------------------

    def _targets(self):
        """(layer, name, owner, attribute) for every traced callable."""
        for layer, names in TRACED.items():
            mod = getattr(self.lib, layer)
            for name in names:
                if name.endswith("*"):
                    for attr in sorted(vars(mod)):
                        if attr.startswith(name[:-1]) and callable(getattr(mod, attr)):
                            yield layer, attr, mod, attr
                elif "." in name:
                    cls, attr = name.split(".")
                    yield layer, name, getattr(mod, cls), attr
                else:
                    yield layer, name, mod, name
        for (modname, attr), layer in MOVED.items():
            yield layer, attr, getattr(self.lib, modname), attr

    def _owners(self):
        """Every namespace that can hold a reference: the modules and their classes."""
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            yield mod
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    yield value

    def install(self):
        owners = list(self._owners())
        wrappers = set()
        for layer, name, owner, attr in self._targets():
            original = vars(owner)[attr]
            if id(original) in wrappers:
                continue
            wrapper = self._wrap(original, layer, name)
            wrappers.add(id(wrapper))
            for ns in owners:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, value))
                        setattr(ns, key, wrapper)

    def restore(self):
        for ns, key, value in reversed(self._patched):
            setattr(ns, key, value)
        self._patched.clear()

    # --- the wrapper ------------------------------------------------------

    def _index(self, layer, name):
        nid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        group = _group(layer, name)
        if group not in self.groups:
            self.groups[group] = len(self.incl)
            self.incl.append(0.0)
            self.depth.append(0)
        self.group_of.append(self.groups[group])
        return nid

    def _hook(self, name):
        counts = self.counts
        if name == "Matrix.__mul__":
            def hook(args, result, dur, failed):
                a, b = args[0], args[1]
                if type(b) is not type(a):
                    return
                n, k, p = a.nrows, a.ncols, b.ncols
                col_nz = [0] * k
                for row in a.rows:
                    for t, x in enumerate(row):
                        if any(x.coords):
                            col_nz[t] += 1
                live = sum(col_nz[t] * sum(1 for x in row if any(x.coords))
                           for t, row in enumerate(b.rows))
                counts["matmul_calls"] += 1
                counts["matmul_products"] += n * k * p
                counts["matmul_zero_products"] += n * k * p - live
            return hook
        if name == "PDElement.__mul__":
            def hook(args, result, dur, failed):
                a, b = args[0], args[1]
                if type(b) is type(a):
                    counts["pd_mul_calls"] += 1
                    counts["pd_term_pairs"] += len(a.terms) * len(b.terms)
            return hook
        if name == "_loads":
            def hook(args, result, dur, failed):
                counts["bytes_in"] += len(args[0].encode())
            return hook
        if name == "canonical_json":
            def hook(args, result, dur, failed):
                if not failed:
                    counts["bytes_out"] += len(result.encode())
            return hook
        if name == "main":
            def hook(args, result, dur, failed):
                if failed or result == 2:
                    self.reject_s += dur
            return hook
        return None

    def _wrap(self, fn, layer, name):
        nid = self._index(layer, name)
        gid = self.group_of[nid]
        record = layer != FOLDED
        hook = self._hook(name)
        clock = time.perf_counter
        stack, calls, self_s = self.stack, self.calls, self.self_s
        incl, depth = self.incl, self.depth
        sp = self.spans
        s_name, s_parent, s_job = sp["name"], sp["parent"], sp["job"]
        s_start, s_end = sp["start"], sp["end"]
        tracer = self

        def wrapper(*args, **kwargs):
            w0 = clock()
            parent = stack[-1] if stack else None
            psid = parent[1] if parent is not None else -1
            sid = psid
            if record:
                if len(s_start) < tracer.record_limit:
                    sid = len(s_start)
                    s_name.append(nid)
                    s_parent.append(psid)
                    s_job.append(tracer.job)
                    s_start.append(0.0)
                    s_end.append(0.0)
                else:
                    tracer.dropped += 1
            frame = [0.0, sid]
            stack.append(frame)
            depth[gid] += 1
            failed, result = True, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[0]
                depth[gid] -= 1
                if not depth[gid]:
                    incl[gid] += dur
                if sid != psid:
                    s_start[sid] = t0
                    s_end[sid] = t1
                if hook is not None:
                    hook(args, result, dur, failed)
                if parent is not None:
                    parent[0] += clock() - w0
                else:
                    tracer.root_s += dur

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --- results ------------------------------------------------------------

    def _by_name(self, key):
        return [i for i, n in enumerate(self.names) if n == key]

    def calls_of(self, key):
        return sum(self.calls[i] for i in self._by_name(key))

    def incl_of(self, key):
        layer, name = key.split(".", 1)
        gid = self.groups.get(_group(layer, name))
        return 0.0 if gid is None else self.incl[gid]

    def layer_self(self, layer):
        return sum(s for s, lay in zip(self.self_s, self.layer_of) if lay == layer)

    def counts_snapshot(self):
        """Every count the trace keeps, for determinism checks."""
        out = {name: c for name, c in zip(self.names, self.calls)}
        out.update(self.counts)
        out["spans"] = len(self.spans["start"]) + self.dropped
        return out

    def write_spans(self, path):
        sp = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "fields": ["id", "parent", "job", "name",
                                            "start_s", "end_s"]}) + "\n")
            for i in range(len(sp["start"])):
                fh.write(json.dumps([i, sp["parent"][i], sp["job"][i],
                                     self.names[sp["name"][i]],
                                     round(sp["start"][i], 9), round(sp["end"][i], 9)]) + "\n")
