"""Span tracing of unipdec's layers, installed from outside the package.

Each traced function is replaced by a wrapper at every binding through
which unipdec code can reach it: the defining module, every unipdec module
that imported it by name (`blocks` imports `group_order_poly`, `verify`
imports `find_char`), and the class for methods.  Each call records a span
(name, parent span, start, end) in memory; `metrics` derives call counts,
busy time (outermost spans of a name only, so recursion is not counted
twice) and self time (duration minus the time covered by child spans).
`write` dumps the spans of the pass as TSV when the pass is over.
"""

from __future__ import annotations

import functools
import sys
import time

# (metric prefix, module, attribute or Class.attribute, stats to report)
TARGETS = (
    ("blocks.tree_check", "unipdec.blocks", "tree_check", ("calls", "busy_s", "self_s")),
    ("blocks.block_partition", "unipdec.blocks", "block_partition",
     ("calls", "busy_s", "self_s")),
    ("degrees.group_order_poly", "unipdec.degrees", "group_order_poly",
     ("calls", "busy_s", "self_s")),
    ("cyclo.DensePoly.mul", "unipdec.cyclo", "DensePoly.__mul__",
     ("calls", "self_s", "coeff_ops")),
    ("cyclo.DensePoly.divmod", "unipdec.cyclo", "DensePoly.divmod",
     ("calls", "busy_s", "self_s", "coeff_ops")),
    ("cyclo.FactoredPoly.expand", "unipdec.cyclo", "FactoredPoly.expand",
     ("calls", "busy_s", "self_s")),
    ("cyclo.FactoredPoly.new", "unipdec.cyclo", "FactoredPoly.__post_init__", ("calls",)),
    ("degrees.catalog", "unipdec.degrees", "catalog", ("builds", "busy_s")),
    ("degrees.defect", "unipdec.degrees", "defect", ("calls",)),
    ("degrees.perversity", "unipdec.degrees", "perversity", ("calls",)),
    ("degrees.find_char", "unipdec.degrees", "find_char", ("calls",)),
    ("labels.resolve_label", "unipdec.labels", "resolve_label", ("calls",)),
    ("labels.parse_label", "unipdec.labels", "parse_label", ("calls",)),
    ("tables.parse", "unipdec.tables", "parse", ("calls", "busy_s", "self_s")),
    ("tables.emit", "unipdec.tables", "emit", ("busy_s",)),
    ("tables.sample_admissible", "unipdec.tables", "DecompTable.sample_admissible",
     ("calls", "busy_s", "self_s")),
    ("tables.resolve", "unipdec.tables", "DecompTable.resolve", ("calls",)),
    ("tables.free_and_defined", "unipdec.tables", "DecompTable.free_and_defined",
     ("calls",)),
    ("tables.is_admissible", "unipdec.tables", "DecompTable.is_admissible",
     ("calls", "accept_ratio")),
    ("verify.check_degrees", "unipdec.verify", "check_degrees", ("busy_s",)),
    ("verify.check_unitriangular", "unipdec.verify", "check_unitriangular", ("busy_s",)),
    ("verify.check_craven", "unipdec.verify", "check_craven", ("busy_s",)),
    ("verify.check_steinberg_mults", "unipdec.verify", "check_steinberg_mults",
     ("busy_s",)),
    ("verify.ParamBox.bounds", "unipdec.verify", "ParamBox.bounds", ("calls",)),
    ("hc.hc_induce", "unipdec.hc", "hc_induce", ("calls",)),
    ("hc.induction_matrix", "unipdec.hc", "induction_matrix", ("calls",)),
    ("verify.decompose_in_columns", "unipdec.verify", "decompose_in_columns", ("calls",)),
    ("fourier.dl_multiplicity", "unipdec.fourier", "dl_multiplicity", ("calls",)),
    ("weyl.char_value_B", "unipdec.weyl", "char_value_B", ("calls",)),
    ("weyl.induce", "unipdec.weyl", "induce", ("busy_s",)),
    ("hecke.count_simples", "unipdec.hecke", "count_simples", ("busy_s",)),
    ("roots.positive_roots", "unipdec.roots", "positive_roots", ("builds", "busy_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "coeff_ops": "count",
         "builds": "count", "accept_ratio": "ratio"}


def _mul_ops(args):
    a, b = args[0], args[1]
    la = len(a.coeffs)
    return la * len(b.coeffs) if hasattr(b, "coeffs") else la


def _divmod_ops(args):
    a, b = args[0], args[1]
    lb = len(b.coeffs)
    return max(0, len(a.coeffs) - lb + 1) * lb


# per-call operation counts, computed from the operands before the call
OP_COUNTERS = {"cyclo.DensePoly.mul": _mul_ops, "cyclo.DensePoly.divmod": _divmod_ops}


def metric_names():
    """Every per-layer (name, unit) this module reports, in report order."""
    return [(f"{prefix}.{stat}", UNITS[stat])
            for prefix, _, _, stats in TARGETS for stat in stats]


class Tracer:
    """Records spans of the TARGETS functions while installed."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.span_name = []
        self.span_parent = []
        self.span_start = []
        self.span_end = []
        self.span_nested = []
        self.ops = [0] * len(TARGETS)
        self.accepted = [0] * len(TARGETS)
        self._stack = []
        self._depth = [0] * len(TARGETS)
        self._restore = []
        self._misses_before = {}
        self.builds = {}

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "unipdec" or name.startswith("unipdec."))]
        for idx, (prefix, modname, attr, stats) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                scopes = [owner]
            else:
                scopes = modules
            original = owner.__dict__[attr]
            if "builds" in stats:
                self._misses_before[idx] = (original, original.cache_info().misses)
            wrapper = self._wrap(idx, original, OP_COUNTERS.get(prefix),
                                 "accept_ratio" in stats)
            for scope in scopes:
                for key, value in list(vars(scope).items()):
                    if value is original:
                        setattr(scope, key, wrapper)
                        self._restore.append((scope, key, original))

    def uninstall(self):
        for scope, key, original in reversed(self._restore):
            setattr(scope, key, original)
        self._restore = []
        for idx, (original, before) in self._misses_before.items():
            self.builds[idx] = original.cache_info().misses - before

    def _wrap(self, idx, fn, count_ops, count_accepted):
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        stack, depth, ops, accepted = self._stack, self._depth, self.ops, self.accepted
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if count_ops is not None:
                ops[idx] += count_ops(args)
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            nested.append(depth[idx] > 0)
            ends.append(0)
            stack.append(sid)
            depth[idx] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                depth[idx] -= 1
                stack.pop()
            if count_accepted and result:
                accepted[idx] += 1
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- results --------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the recorded spans, keyed by metric name;
        call after uninstall()."""
        n = len(TARGETS)
        calls = [0] * n
        busy = [0] * n
        own = [0] * n
        child = [0] * len(self.span_name)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[sid]
        for sid, idx in enumerate(self.span_name):
            calls[idx] += 1
            own[idx] += durations[sid] - child[sid]
            if not self.span_nested[sid]:
                busy[idx] += durations[sid]
        out = {}
        for idx, (prefix, _, _, stats) in enumerate(TARGETS):
            values = {"calls": calls[idx], "busy_s": busy[idx] / 1e9,
                      "self_s": own[idx] / 1e9, "coeff_ops": self.ops[idx],
                      "accept_ratio": self.accepted[idx] / calls[idx] if calls[idx] else 0.0}
            if idx in self.builds:
                values["builds"] = self.builds[idx]
            for stat in stats:
                out[f"{prefix}.{stat}"] = values[stat]
        return out

    def write(self, path, trace_id):
        """Write the spans as TSV: one header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(f"# trace {trace_id}\nspan\tparent\tname\tstart_ns\tend_ns\n")
            for sid, idx in enumerate(self.span_name):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.names[idx]}\t"
                         f"{self.span_start[sid]}\t{self.span_end[sid]}\n")
