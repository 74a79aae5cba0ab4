"""JSON persistence for codewords, hybrid codewords, and codebooks.

Complex entries are stored as [re, im] pairs of plain floats, which JSON
round-trips bit-exactly (shortest-round-trip formatting).  Hybrid analog
matrices are stored as 0-based phase indices so the quantization
constraint survives the disk exactly.  Each file is one line of JSON
encoded by json.dumps, whose C encoder json.dump never runs: a codeword or
hybrid in one shot, a codebook one entry at a time (so its whole document
is never held), the entries' texts joined into the text json.dumps gives
for the whole.  The bytes are the ones json.dump wrote.  Loaders check
every field they read and raise ValueError naming the file and the first
bad field; a non-finite entry is one.  save_codeword refuses non-finite
entries too, naming the entry, as NaN is not JSON (a HybridCodeword cannot
hold them).
"""

import json
import sys

import numpy as np

from .arrays import _count, _finite
from .codebook import CodebookEntry, HierarchicalCodebook
from .practical import HybridCodeword

__all__ = [
    "save_codeword",
    "load_codeword",
    "save_hybrid",
    "load_hybrid",
    "save_codebook",
    "load_codebook",
]


def _write(text, path):
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def _read(path, parse):
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _field(doc, key, kind, where=""):
    """doc[key], checked to be of type kind; where prefixes the field name."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where.rstrip('.') or 'document'} is not a JSON object")
    if key not in doc:
        raise ValueError(f"missing field {where}{key}")
    if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
        raise ValueError(f"field {where}{key} has type {type(doc[key]).__name__}")
    return doc[key]


def _is_number(x):
    # type(), not isinstance(): a bool is not a number here; an int must
    # convert to a float
    return type(x) is float or type(x) is int and abs(x) <= sys.float_info.max


def _is_pair(p):
    return type(p) is list and len(p) == 2 and all(map(_is_number, p))


def _to_pairs(v):
    # one tolist() of the (n, 2) float view: the Python floats that a loop
    # over the numpy scalars' real and imaginary parts gives, in far fewer calls
    v = np.asarray(v, dtype=complex, order="C")
    return v.view(float).reshape(len(v), 2).tolist()


def _complex(doc, key, size=None, where=""):
    """A complex array stored as [re, im] pairs, of the given size if any."""
    pairs = _field(doc, key, list, where)
    if not all(map(_is_pair, pairs)) or size is not None and len(pairs) != size:
        raise ValueError(f"field {where}{key} must be {size or 'a list of'} "
                         "[re, im] number pairs")
    return np.array([complex(re, im) for re, im in pairs])


def _hybrid_doc(h):
    return {"n_rf": h.n_rf, "b": h.bits,
            "analog_phase_indices": h.phase_indices.astype(int).tolist(),
            "digital": _to_pairs(h.digital)}


def _entry_doc(e):
    return {"coverage": list(e.coverage), "ideal": _to_pairs(e.ideal),
            "hybrid": _hybrid_doc(e.hybrid) if e.hybrid else None}


def _hybrid(doc, where=""):
    n_rf = _count(f"field {where}n_rf", _field(doc, "n_rf", int, where), 1)
    b, rows = _field(doc, "b", int, where), _field(doc, "analog_phase_indices", list, where)
    if not all(type(r) is list and len(r) == n_rf and all(type(i) is int for i in r)
               for r in rows):
        raise ValueError(f"field {where}analog_phase_indices must be rows of {n_rf} integers")
    digital = _complex(doc, "digital", n_rf, where)
    try:  # HybridCodeword checks b, the index range and that there are rows
        return HybridCodeword(rows, b, digital)
    except ValueError as exc:
        raise ValueError(f"{where.rstrip('.')}: {exc}" if where else str(exc)) from exc


def _entry(doc, where):
    coverage = _field(doc, "coverage", list, where)
    if not _is_pair(coverage):
        raise ValueError(f"field {where}coverage must be a [lo, hi] number pair")
    hybrid = _field(doc, "hybrid", (dict, type(None)), where)
    return CodebookEntry(
        tuple(coverage),
        _complex(doc, "ideal", where=where),
        None if hybrid is None else _hybrid(hybrid, where + "hybrid."),
    )


def _codebook(doc):
    n, m = _field(doc, "n", int), _field(doc, "m", int)
    layers = _field(doc, "layers", list)
    if not all(isinstance(layer, list) for layer in layers):
        raise ValueError("field layers must be a list of lists of entries")
    layers = [[_entry(e, f"layers[{s}][{i}].") for i, e in enumerate(layer)]
              for s, layer in enumerate(layers)]
    return HierarchicalCodebook(n, m, _field(doc, "seed", int), layers,
                                method=_field(doc, "method", str),
                                hw=_field(doc, "hw", (dict, type(None))))


def save_codeword(v, path):
    v = _finite("codeword", v, complex)
    _write(json.dumps({"n": int(v.size), "entries": _to_pairs(v)}), path)


def load_codeword(path):
    return _read(path, lambda doc: _finite(
        "codeword", _complex(doc, "entries", _field(doc, "n", int)), complex))


def save_hybrid(h, path):
    _write(json.dumps(_hybrid_doc(h)), path)


def load_hybrid(path):
    return _read(path, _hybrid)


def save_codebook(cb, path):
    # json.dumps of the whole document, spelled out: each entry's document
    # is encoded as soon as it is made, so no whole document is ever held
    head = json.dumps({"n": cb.n, "m": cb.m, "s": cb.s, "seed": cb.seed, "method": cb.method,
                       "hw": cb.hw})
    layers = ", ".join("[" + ", ".join(json.dumps(_entry_doc(e)) for e in layer) + "]"
                       for layer in cb.layers)
    _write(head[:-1] + ', "layers": [' + layers + "]}", path)


def load_codebook(path):
    return _read(path, _codebook)
