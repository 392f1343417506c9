"""JSON and DOT serialization of bicharacters, schemes, and root data.

All exports use canonical scalar rendering and sorted keys so identical
inputs produce byte-identical output.
"""

import hashlib
import json

from .bicharacter import Bicharacter
from .scalar import (BackendMismatch, CYCLOTOMIC, ScalarContext, parse_scalar,
                     render_scalar)


def context_to_json(ctx):
    if ctx.backend == CYCLOTOMIC:
        return {"backend": "cyclotomic", "order": ctx.order}
    return {"backend": "parameters", "names": list(ctx.names)}


def context_from_json(desc):
    if desc["backend"] == "cyclotomic":
        return ScalarContext.cyclotomic(desc["order"])
    if desc["backend"] == "parameters":
        return ScalarContext.parameters(*desc["names"])
    raise ValueError(f"unknown backend {desc.get('backend')!r}")


def bicharacter_to_json(chi):
    return {
        "rank": chi.rank,
        "scalar": context_to_json(chi.ctx),
        "q": [[render_scalar(x) for x in row] for row in chi.entries],
    }


def bicharacter_from_json(data, ctx=None):
    """The bicharacter described by data; pass ctx to load several
    objects into one scalar context, so that they share its instances."""
    declared = context_from_json(data["scalar"])
    if ctx is None:
        ctx = declared
    elif ctx != declared:
        raise BackendMismatch("bicharacter declared in a different scalar context")
    rank = data["rank"]
    rows = data["q"]
    if len(rows) != rank or any(len(r) != rank for r in rows):
        raise ValueError("matrix shape does not match the declared rank")
    entries = [[parse_scalar(ctx, cell) for cell in row] for row in rows]
    return Bicharacter.interned(ctx, entries)


def object_label(chi):
    """Short stable hash of the canonical entry matrix."""
    digest = hashlib.sha256(
        ";".join(",".join(render_scalar(x) for x in row)
                 for row in chi.entries).encode()).hexdigest()
    return digest[:12]


def scheme_to_json(scheme):
    keys = list(scheme.objects)
    labels = {key: object_label(scheme.objects[key]) for key in keys}
    return {
        "status": "complete" if scheme.complete else f"truncated({scheme.cap})",
        "source": labels[scheme.source_key],
        "objects": {labels[key]: bicharacter_to_json(scheme.objects[key])
                    for key in keys},
        "cartan": {labels[key]: [list(row) for row in scheme.cartan[key]]
                   for key in scheme.cartan},
        "edges": [{"from": labels[key], "p": p, "to": labels[target]}
                  for (key, p), target in sorted(
                      scheme.edges.items(),
                      key=lambda kv: (labels[kv[0][0]], kv[0][1]))],
    }


def scheme_from_json(data):
    from .groupoid import CartanScheme
    objects = {}
    ctx = None
    for label, desc in data["objects"].items():
        chi = bicharacter_from_json(desc, ctx)
        objects[label] = chi
        ctx = chi.ctx
    by_label = {label: chi.key for label, chi in objects.items()}
    edges = {(by_label[e["from"]], e["p"]): by_label[e["to"]]
             for e in data["edges"]}
    cartan = {by_label[label]: tuple(tuple(row) for row in mat)
              for label, mat in data["cartan"].items()}
    return CartanScheme(by_label[data["source"]],
                        {chi.key: chi for chi in objects.values()},
                        edges, cartan, data["status"] == "complete")


def scheme_to_dot(scheme):
    labels = {key: object_label(scheme.objects[key]) for key in scheme.objects}
    lines = ["digraph cartan_scheme {"]
    for key in scheme.objects:
        cartan = scheme.cartan.get(key)
        mat = "\\n".join(" ".join(str(c) for c in row) for row in cartan or ())
        lines.append(f'  "{labels[key]}" [label="{labels[key]}\\n{mat}"];')
    for (key, p), target in sorted(scheme.edges.items(),
                                   key=lambda kv: (labels[kv[0][0]], kv[0][1])):
        lines.append(f'  "{labels[key]}" -> "{labels[target]}" '
                     f'[label="{p + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphisms_to_json(scheme, morphisms):
    labels = {key: object_label(scheme.objects[key]) for key in scheme.objects}
    return [{"source": labels[m.source], "target": labels[m.target],
             "word": [p + 1 for p in m.word],
             "matrix": [list(row) for row in m.matrix]}
            for m in sorted(morphisms, key=lambda m: (len(m.word), m.word))]


def roots_to_json(scheme, entries):
    labels = {key: object_label(scheme.objects[key]) for key in scheme.objects}
    return {
        labels[entry.key]: {
            "positive": [list(r) for r in entry.positive],
            "m_table": [list(row) for row in entry.m_table],
        }
        for entry in entries
    }


def dump_json(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
