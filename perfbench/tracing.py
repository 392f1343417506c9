"""Spans and counters around the calls into each module of the program.

The wrappers are installed from here, on every ``weyldouble`` module that
holds a wrapped name (``cli`` imports ``nichols_dim`` and others by name),
so nothing inside the program changes.  Each wrapped call records one span
(name, start, end, parent) in memory; the spans are written out when the
traced round ends.  Self time of a span is its duration minus the time its
child spans cover.  The very hot calls (the ``Scalar`` operators and
``Bicharacter.value``) are only counted, and ``polys.p_gcd`` is timed
without storing its spans.
"""

import functools
import json
import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        # one entry per span; parent is the index of the enclosing span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.child_time = [0.0]
        self.calls = {}        # name -> number of spans
        self.inclusive = {}    # name -> time in outermost spans of that name
        self.self_time = {}    # name -> span time minus child span time
        self.counts = {}       # counter name -> value
        self.task_keys = {}    # set name -> distinct keys in the current task
        self.distinct = {}     # set name -> sum over tasks of distinct keys
        self.cells = []        # (counter name, [calls]) of the counted calls

    # recording ------------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.inclusive[name] = 0.0
            self.self_time[name] = 0.0
        return self.name_ids[name]

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def see(self, set_name, key):
        self.task_keys.setdefault(set_name, set()).add(key)

    def end_task(self):
        for set_name, keys in self.task_keys.items():
            self.distinct[set_name] = self.distinct.get(set_name, 0) + len(keys)
        self.task_keys = {}

    def spanned(self, name, fn, before=None, after=None, keep=True):
        """fn wrapped in a span; before(args, kwargs) -> state and
        after(state, result) record counts at the same boundary.  With
        keep=False the span enters the call, self-time and parent
        accounting but is not stored, for calls too frequent to store."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child_time = self.stack, self.child_time
        calls, self_time, inclusive = self.calls, self.self_time, self.inclusive
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            if keep:
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = stack[-1]   # descendants attach to the stored ancestor
            stack.append(idx)
            child_time.append(0.0)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                stack.pop()
                inner = child_time.pop()
                elapsed = t1 - t0
                child_time[-1] += elapsed
                if keep:
                    starts[idx] = t0
                    ends[idx] = t1
                calls[name] += 1
                self_time[name] += elapsed - inner
                if depth[0] == 0:
                    inclusive[name] += elapsed
            if after:
                after(state, result)
            return result
        return wrapper

    def counted(self, name, fn):
        cell = [0]
        self.cells.append((name, cell))

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def flush_counters(self):
        for name, cell in self.cells:
            self.count(name, cell[0])
            cell[0] = 0

    # output ---------------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as handle:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, handle)


def replace_everywhere(owner_module, attr, wrapper):
    """Install wrapper for owner_module.attr on every program module that
    holds the same object under any name."""
    original = getattr(owner_module, attr)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "weyldouble" or name.startswith("weyldouble.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(tracer):
    """Wrap the entry points of every layer of the imported program."""
    from weyldouble import (bicharacter, cli, double, freealg, groupoid,
                            linalg, lusztig, polys, scalar, serialize)

    def wrap_function(module, attr, name, before=None, after=None, keep=True):
        replace_everywhere(module, attr, tracer.spanned(
            name, getattr(module, attr), before, after, keep))

    def wrap_method(cls, attr, name, before=None, after=None):
        setattr(cls, attr, tracer.spanned(name, getattr(cls, attr), before, after))

    def count_method(cls, attr, name):
        setattr(cls, attr, tracer.counted(name, getattr(cls, attr)))

    # polys / scalar
    # p_gcd runs more often than the Scalar operators: its spans are
    # timed and attributed but not stored
    wrap_function(polys, "p_gcd", "polys.gcd", keep=False)
    for attr, name in (("__mul__", "scalar.mul_calls"), ("__add__", "scalar.add_calls"),
                       ("inverse", "scalar.inverse_calls"), ("__eq__", "scalar.eq_calls")):
        count_method(scalar.Scalar, attr, name)

    # linalg
    def rank_cells(args, kwargs):
        m = args[0]
        tracer.count("linalg.rank_cells", len(m) * len(m[0]) if m and m[0] else 0)
    wrap_function(linalg, "rank", "linalg.rank", before=rank_cells)
    wrap_function(linalg, "rref", "linalg.rref")
    wrap_function(linalg, "nullspace", "linalg.nullspace")
    wrap_function(linalg, "mat_mul", "linalg.mat_mul")

    # bicharacter
    wrap_method(bicharacter.Bicharacter, "reflect", "bicharacter.reflect")
    count_method(bicharacter.Bicharacter, "value", "bicharacter.value_calls")
    wrap_function(bicharacter, "mat_inverse_int", "bicharacter.mat_inverse_int")
    init = bicharacter.Bicharacter.__init__

    def counted_init(self, ctx, entries):
        init(self, ctx, entries)
        tracer.count("bicharacter.instances")
        tracer.see("bicharacter.keys", (self.ctx, self.key))
    bicharacter.Bicharacter.__init__ = counted_init

    # groupoid
    wrap_function(groupoid, "explore", "groupoid.explore",
                  after=lambda state, scheme: tracer.count(
                      "groupoid.objects", len(scheme.objects)))

    def morphisms_before(args, kwargs):
        scheme, key = args[0], args[1]
        cap = args[2] if len(args) > 2 else kwargs.get(
            "morphism_cap", groupoid.DEFAULT_MORPHISM_CAP)
        return scheme._cache.get(("from", key, cap)) is not None

    def morphisms_after(cached, result):
        if not cached and result is not None:
            tracer.count("groupoid.morphism_states", len(result))
    wrap_function(groupoid, "morphisms_from", "groupoid.morphisms_from",
                  morphisms_before, morphisms_after)
    wrap_function(groupoid, "real_roots", "groupoid.real_roots")
    wrap_function(groupoid, "is_finite", "groupoid.is_finite")

    # freealg
    def gram_before(args, kwargs):
        chi, mu = args[0], tuple(args[1])
        built = mu not in chi._cache.get("gram", {})
        if built:
            tracer.count("freealg.gram_builds")
            tracer.see("freealg.gram_keys", (chi.ctx, chi.key, mu))
        pairs = chi._cache.get("gram_pairs", {})
        return chi, len(pairs)

    def gram_after(state, result):
        chi, before = state
        tracer.count("freealg.derivation_pairs",
                     len(chi._cache.get("gram_pairs", {})) - before)
    wrap_function(freealg, "gram_matrix", "freealg.gram", gram_before, gram_after)
    wrap_function(freealg, "nichols_dim", "freealg.nichols_dim")
    wrap_function(freealg, "nichols_is_zero", "freealg.nichols_is_zero")
    wrap_function(freealg, "e_plus", "freealg.e_plus")

    # double
    wrap_method(double.DoubleElement, "__mul__", "double.mul",
                before=lambda args, kwargs: tracer.count(
                    "double.mul_term_pairs",
                    len(args[0].terms) * len(args[1].terms)))
    wrap_method(double.DoubleMap, "apply", "double.apply")
    wrap_function(double, "blocks", "double.blocks")
    wrap_function(double, "is_zero_in_u", "double.is_zero_in_u")
    wrap_function(double, "reduce_mod_nichols", "double.reduce_mod_nichols")

    # lusztig
    for attr, name in (("build_lusztig_map", "lusztig.build_map"),
                       ("chain_apply", "lusztig.chain_apply"),
                       ("solve_ratio_mod_nichols", "lusztig.solve_ratio"),
                       ("coxeter_check", "lusztig.coxeter"),
                       ("longest_factorization", "lusztig.longest"),
                       ("check_defining_relations", "lusztig.relations"),
                       ("nichols_characterization", "lusztig.characterization")):
        wrap_function(lusztig, attr, name)

    # cli / serialize
    wrap_function(cli, "load_bicharacter", "cli.load")
    wrap_function(serialize, "dump_json", "serialize.dump")


def layer_metrics(tracer):
    """The per-layer metrics of one traced round, by name."""
    tracer.flush_counters()
    c, t, s, n = tracer.counts, tracer.inclusive, tracer.self_time, tracer.calls

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "polys.gcd_calls": n.get("polys.gcd", 0),
        "polys.gcd_s": s.get("polys.gcd", 0),
        "scalar.mul_calls": c.get("scalar.mul_calls", 0),
        "scalar.add_calls": c.get("scalar.add_calls", 0),
        "scalar.inverse_calls": c.get("scalar.inverse_calls", 0),
        "scalar.eq_calls": c.get("scalar.eq_calls", 0),
        "linalg.rank_s": t.get("linalg.rank", 0),
        "linalg.rank_cells": c.get("linalg.rank_cells", 0),
        "linalg.rref_s": t.get("linalg.rref", 0),
        "linalg.nullspace_s": t.get("linalg.nullspace", 0),
        "linalg.mat_mul_s": t.get("linalg.mat_mul", 0),
        "linalg.mat_mul_calls": n.get("linalg.mat_mul", 0),
        "bicharacter.reflect_s": t.get("bicharacter.reflect", 0),
        "bicharacter.reflect_calls": n.get("bicharacter.reflect", 0),
        "bicharacter.value_calls": c.get("bicharacter.value_calls", 0),
        "bicharacter.mat_inverse_int_s": t.get("bicharacter.mat_inverse_int", 0),
        "bicharacter.instances_per_key": ratio(
            c.get("bicharacter.instances", 0), tracer.distinct.get("bicharacter.keys", 0)),
        "groupoid.explore_s": t.get("groupoid.explore", 0),
        "groupoid.objects": c.get("groupoid.objects", 0),
        "groupoid.morphisms_from_s": t.get("groupoid.morphisms_from", 0),
        "groupoid.morphisms_from_calls": n.get("groupoid.morphisms_from", 0),
        "groupoid.morphism_states": c.get("groupoid.morphism_states", 0),
        "groupoid.real_roots_s": t.get("groupoid.real_roots", 0),
        "groupoid.is_finite_s": t.get("groupoid.is_finite", 0),
        "freealg.gram_s": s.get("freealg.gram", 0),
        "freealg.gram_builds": c.get("freealg.gram_builds", 0),
        "freealg.gram_builds_per_key": ratio(
            c.get("freealg.gram_builds", 0), tracer.distinct.get("freealg.gram_keys", 0)),
        "freealg.derivation_pairs": c.get("freealg.derivation_pairs", 0),
        "freealg.nichols_dim_s": t.get("freealg.nichols_dim", 0),
        "freealg.nichols_is_zero_s": t.get("freealg.nichols_is_zero", 0),
        "freealg.e_plus_s": t.get("freealg.e_plus", 0),
        "double.mul_s": t.get("double.mul", 0),
        "double.mul_calls": n.get("double.mul", 0),
        "double.mul_term_pairs": c.get("double.mul_term_pairs", 0),
        "double.apply_s": t.get("double.apply", 0),
        "double.blocks_s": t.get("double.blocks", 0),
        "double.is_zero_in_u_s": t.get("double.is_zero_in_u", 0),
        "double.is_zero_in_u_calls": n.get("double.is_zero_in_u", 0),
        "double.reduce_mod_nichols_s": t.get("double.reduce_mod_nichols", 0),
        "lusztig.build_map_s": t.get("lusztig.build_map", 0),
        "lusztig.build_map_calls": n.get("lusztig.build_map", 0),
        "lusztig.chain_apply_s": t.get("lusztig.chain_apply", 0),
        "lusztig.solve_ratio_s": t.get("lusztig.solve_ratio", 0),
        "lusztig.coxeter_s": t.get("lusztig.coxeter", 0),
        "lusztig.longest_s": t.get("lusztig.longest", 0),
        "lusztig.relations_s": t.get("lusztig.relations", 0),
        "lusztig.characterization_s": t.get("lusztig.characterization", 0),
        "cli.load_s": t.get("cli.load", 0),
        "serialize.dump_s": t.get("serialize.dump", 0),
    }
