"""Built-in example bicharacters with frozen expected results.

Expected values carry provenance tags: "classical" for textbook root
system data, "bfs" for counts frozen from the exhaustive orbit /
morphism search of this engine, "defn" for direct consequences of the
definitions.
"""

from dataclasses import dataclass, field

from .bicharacter import Bicharacter
from .scalar import ScalarContext, parse_scalar


@dataclass
class CatalogEntry:
    name: str
    note: str
    context: dict        # ScalarContext description
    matrix: list         # rows of scalar literals
    expected: dict = field(default_factory=dict)

    def build(self):
        ctx = _context_of(self.context)
        entries = [[parse_scalar(ctx, cell) for cell in row] for row in self.matrix]
        return Bicharacter.interned(ctx, entries)


def _context_of(desc):
    if desc["backend"] == "cyclotomic":
        return ScalarContext.cyclotomic(desc["order"])
    return ScalarContext.parameters(*desc["names"])


def _cartan_entry(name, note, matrix, names=("q",), **expected):
    return CatalogEntry(name, note,
                        {"backend": "parameters", "names": list(names)},
                        matrix, expected)


CATALOG = {}

for entry in [
    _cartan_entry(
        "A1", "rank 1, generic q",
        [["q"]],
        orbit_size=("defn", 1), positive_roots=("classical", 1),
        weyl_order=("classical", 2), cartan=("defn", [[2]])),
    _cartan_entry(
        "A2", "symmetric Cartan type A2, q_ij = q^(d_i c_ij), generic q",
        [["q^2", "q^-1"], ["q^-1", "q^2"]],
        orbit_size=("defn", 1), positive_roots=("classical", 3),
        weyl_order=("classical", 6), coxeter_m=("classical", 3),
        cartan=("defn", [[2, -1], [-1, 2]])),
    _cartan_entry(
        "B2", "symmetric Cartan type B2, d = (2, 1), generic q",
        [["q^4", "q^-2"], ["q^-2", "q^2"]],
        orbit_size=("defn", 1), positive_roots=("classical", 4),
        weyl_order=("classical", 8), coxeter_m=("classical", 4),
        cartan=("defn", [[2, -1], [-2, 2]])),
    _cartan_entry(
        "G2", "symmetric Cartan type G2, d = (3, 1), generic q",
        [["q^6", "q^-3"], ["q^-3", "q^2"]],
        orbit_size=("defn", 1), positive_roots=("classical", 6),
        weyl_order=("classical", 12), coxeter_m=("classical", 6),
        cartan=("defn", [[2, -1], [-3, 2]])),
    _cartan_entry(
        "A3", "symmetric Cartan type A3, generic q",
        [["q^2", "q^-1", "1"], ["q^-1", "q^2", "q^-1"], ["1", "q^-1", "q^2"]],
        orbit_size=("defn", 1), positive_roots=("classical", 6),
        weyl_order=("classical", 24),
        cartan=("defn", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])),
    CatalogEntry(
        "A2-zeta3", "A2 at a primitive third root of unity",
        {"backend": "cyclotomic", "order": 3},
        [["z^2", "z^-1"], ["z^-1", "z^2"]],
        {"orbit_size": ("bfs", 1), "positive_roots": ("classical", 3),
         "weyl_order": ("classical", 6), "coxeter_m": ("bfs", 3),
         "cartan": ("defn", [[2, -1], [-1, 2]]),
         "simple_heights": ("defn", [3, 3])}),
    CatalogEntry(
        "A2-zeta4", "A2 at a primitive fourth root of unity (q_ii = -1)",
        {"backend": "cyclotomic", "order": 4},
        [["z^2", "z^-1"], ["z^-1", "z^2"]],
        {"orbit_size": ("bfs", 1), "positive_roots": ("classical", 3),
         "weyl_order": ("classical", 6), "coxeter_m": ("bfs", 3),
         "cartan": ("defn", [[2, -1], [-1, 2]]),
         "simple_heights": ("defn", [2, 2])}),
    _cartan_entry(
        "A2-super", "rank-2 super type: q_11 = q^2, q_12 q_21 = q^-2, q_22 = -1",
        [["q^2", "q^-2"], ["1", "-1"]],
        orbit_size=("bfs", 6), positive_roots=("bfs", 3),
        weyl_order=("bfs", 6), coxeter_m=("bfs", 3),
        cartan=("defn", [[2, -1], [-1, 2]])),
    _cartan_entry(
        "A2-twoparam", "two-parameter Cartan type A2 (chi not symmetric)",
        [["q^2", "r"], ["q^-2*r^-1", "q^2"]],
        names=("q", "r"),
        orbit_size=("bfs", 2), positive_roots=("classical", 3),
        weyl_order=("bfs", 6), coxeter_m=("classical", 3),
        cartan=("defn", [[2, -1], [-1, 2]])),
]:
    CATALOG[entry.name] = entry


def catalog_entry(name):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; "
                       f"available: {', '.join(sorted(CATALOG))}")
    return CATALOG[name]
