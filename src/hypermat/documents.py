"""Tensor documents: the JSON file format of the command-line interface.

A document is a UTF-8 JSON object with fields exactly

    {"rank": int, "dim": int,
     "entries": [{"index": [int, ...], "value": "p/q"}, ...]}

Input index arrays may be in any order (they canonicalize on load); two
entries landing on the same canonical index are an error rather than
last-wins. Values are rational strings, with "/1" optional for integers
(``rational.as_scalar`` gives the exact grammar; decimals, exponents and
zero denominators are rejected); bare JSON integers are accepted on
input. Output documents always carry sorted canonical indices in
lexicographic order and omit zero entries. A document of rank above
MAX_RANK, or with more than ``tensor.MAX_ENTRIES`` ordered indices
(dim ** rank), is rejected before any index is enumerated.
"""

from __future__ import annotations

import json

from .rational import as_scalar, format_scalar
from .tensor import MAX_ENTRIES, SymTensor

MAX_RANK = 64


def tensor_from_document(doc) -> SymTensor:
    if not isinstance(doc, dict):
        raise ValueError("tensor document must be a JSON object")
    missing = {"rank", "dim", "entries"} - doc.keys()
    if missing:
        raise ValueError(f"tensor document lacks fields: {sorted(missing)}")
    rank, dim, raw_entries = doc["rank"], doc["dim"], doc["entries"]
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (rank, dim)):
        raise ValueError("rank and dim must be integers")
    # the rank first, so that dim ** rank is never formed for a huge rank
    if rank > MAX_RANK or rank > 0 and dim ** rank > MAX_ENTRIES:
        raise ValueError(
            f"rank {rank}, dim {dim} is over the size bound: at most rank "
            f"{MAX_RANK} and {MAX_ENTRIES} ordered indices (dim ** rank)")
    if not isinstance(raw_entries, list):
        raise ValueError("entries must be a list")
    pairs = []
    for entry in raw_entries:
        if not isinstance(entry, dict) or {"index", "value"} - entry.keys():
            raise ValueError(f"malformed entry: {entry!r}")
        index = entry["index"]
        if not isinstance(index, list):
            raise ValueError(f"entry index must be a list: {entry!r}")
        pairs.append((tuple(index), as_scalar(entry["value"])))
    return SymTensor.from_entries(rank, dim, pairs)


def tensor_to_document(tensor: SymTensor) -> dict:
    entries = [{"index": list(key), "value": format_scalar(value)}
               for key, value in tensor.items_sorted()]
    return {"rank": tensor.rank, "dim": tensor.dim, "entries": entries}


def load_tensor(path) -> SymTensor:
    with open(path, encoding="utf-8") as handle:
        return tensor_from_document(json.load(handle))

