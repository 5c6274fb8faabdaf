"""Typed subgraph file format: versioned, sorted, diff-friendly text.

One file per subgraph. Header lines pin the format version, signature and
counts; vertex lines then edge lines follow, both sorted, each once (a
file out of order is refused, not sorted). Scores are written with
repr() so they reload bit-exactly. Edge lines are written from a
subgraph's columns and parsed straight into them: no per-edge object is
built either way. A graph directory is read as a whole: its
files share one object per predicate.
"""

from __future__ import annotations

from pathlib import Path

from .localgraph import EDGE_CODES, TypedSubgraph, _columns
from .model import TypedPredicate, VersionMismatch, _atomic_writer

FORMAT_VERSION = 1
MAGIC = "entgraph-subgraph"
_HEADER_KEYS = ("kind", "types", "vertices", "edges")


def subgraph_filename(signature: tuple[str, ...]) -> str:
    prefix = "bi" if len(signature) == 2 else "uni"
    return f"{prefix}__" + "__".join(signature) + ".graph"


# the kind and map fields of an E line, by edge code, and back
_EDGE_TEXT = tuple(f"{kind}\t{amap.format()}" for kind, amap in EDGE_CODES)
_CODE_OF_TEXT = {(kind, amap.format()): code for code, (kind, amap) in enumerate(EDGE_CODES)}
_EDGE_NAMES = ", ".join(f"{kind} {amap.format()}" for kind, amap in EDGE_CODES)


def write_subgraph(subgraph: TypedSubgraph, path: str | Path) -> None:
    tokens = list(subgraph.token_ids)
    header = [
        f"{MAGIC} v{FORMAT_VERSION}",
        f"kind={subgraph.kind}",
        "types=" + ",".join(subgraph.signature),
        f"vertices={len(tokens)}",
        f"edges={len(subgraph.scores)}",
        *(f"V\t{token}" for token in tokens),
    ]
    with _atomic_writer(path) as fh:
        fh.write("\n".join(header) + "\n")
        for p, h, c, s in zip(
            subgraph.premise_ids, subgraph.hypothesis_ids, subgraph.codes, subgraph.scores
        ):
            fh.write(f"E\t{tokens[p]}\t{tokens[h]}\t{_EDGE_TEXT[c]}\t{s!r}\n")


def read_subgraph(
    path: str | Path, predicates: dict[str, TypedPredicate] | None = None
) -> TypedSubgraph:
    """Parse one subgraph file straight into edge columns.

    ``predicates`` maps tokens to parsed predicates; a token found there is
    reused and a new one is added, so files read with one table share
    vertex objects. ``E`` endpoints resolve only against this file's ``V``
    lines, which come first; each header key comes at most once, before
    them. Any other line but a blank one is refused, and so are V and E
    lines out of order.
    """
    predicates = {} if predicates is None else predicates
    header: dict[str, str] = {}
    vertices: list[TypedPredicate] = []
    ids: dict[str, int] = {}
    premise_ids, hypothesis_ids, codes, scores = _columns()
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith(MAGIC):
            raise ValueError(f"{path}: not a subgraph file")
        version = first[len(MAGIC):].strip()
        if version != f"v{FORMAT_VERSION}":
            raise VersionMismatch(
                f"{path}: format {version or '?'} unsupported (expected v{FORMAT_VERSION})"
            )
        for lineno, line in enumerate(fh, start=2):
            if line.startswith("E\t"):
                fields = line.split("\t")
                if len(fields) != 6:
                    raise ValueError(f"{path}:{lineno}: edge line has {len(fields)} fields, not 6")
                _, prem, hyp, kind, amap, score = fields
                p, h = ids.get(prem), ids.get(hyp)
                if p is None or h is None:
                    missing = prem if p is None else hyp
                    raise ValueError(f"{path}:{lineno}: edge endpoint {missing!r} has no V line")
                code = _CODE_OF_TEXT.get((kind, amap))
                if code is None:
                    raise ValueError(
                        f"{path}:{lineno}: {kind} {amap} is not an edge kind and argument "
                        f"map; expected one of {_EDGE_NAMES}"
                    )
                try:
                    scores.append(float(score))
                except ValueError:
                    bad = score.strip()
                    raise ValueError(f"{path}:{lineno}: bad edge score {bad!r}") from None
                premise_ids.append(p)
                hypothesis_ids.append(h)
                codes.append(code)
            elif line.startswith("V\t"):
                if codes:
                    raise ValueError(f"{path}:{lineno}: V line after the E lines")
                token = line[2:].strip()
                vertex = predicates.get(token)
                if vertex is None:
                    try:
                        vertex = predicates[token] = TypedPredicate.parse_token(token)
                    except ValueError as exc:
                        raise ValueError(f"{path}:{lineno}: {exc}") from None
                ids[token] = len(vertices)
                vertices.append(vertex)
            elif line.strip():
                key, eq, value = line.partition("=")
                key = key.strip()
                if not eq or key not in _HEADER_KEYS:
                    raise ValueError(
                        f"{path}:{lineno}: unknown line {line.strip()!r}; expected "
                        + ", ".join(f"{k}=" for k in _HEADER_KEYS) + ", V or E"
                    )
                if vertices:
                    raise ValueError(f"{path}:{lineno}: {key}= line after the V lines")
                if key in header:
                    raise ValueError(f"{path}:{lineno}: second {key}= line")
                header[key] = value.strip()
    if "types" not in header:
        raise ValueError(f"{path}: missing types header")
    types = tuple(t for t in header["types"].split(",") if t)
    kind = {1: "univalent", 2: "bivalent"}.get(len(types))
    if header.get("kind", kind) != kind:
        raise ValueError(
            f"{path}: kind={header['kind']} does not match types={header['types']}"
        )
    for key, found in (("vertices", vertices), ("edges", codes)):
        if key in header and header[key] != str(len(found)):
            raise ValueError(f"{path}: {key}={header[key]} but {len(found)} found")
    try:
        return TypedSubgraph.from_columns(
            types, vertices, premise_ids, hypothesis_ids, codes, scores
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_graph_dir(directory: str | Path) -> dict[tuple[str, ...], TypedSubgraph]:
    """Every ``*.graph`` file of a directory by signature, the inverse of
    ``write_graph_dir``; a predicate held by several files is one object."""
    predicates: dict[str, TypedPredicate] = {}
    subgraphs = {}
    for path in sorted(Path(directory).glob("*.graph")):
        sub = read_subgraph(path, predicates)
        if sub.signature in subgraphs:
            raise ValueError(f"{path}: second subgraph for types {','.join(sub.signature)}")
        subgraphs[sub.signature] = sub
    return subgraphs


def write_graph_dir(subgraphs: dict, directory: str | Path) -> list[Path]:
    """Write every subgraph into a directory, then delete stale ones.

    A ``*.graph`` file this call did not write is left from an earlier run
    and is removed, so the directory holds exactly these subgraphs.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for signature in sorted(subgraphs):
        p = directory / subgraph_filename(signature)
        write_subgraph(subgraphs[signature], p)
        paths.append(p)
    for stale in set(directory.glob("*.graph")) - set(paths):
        stale.unlink()
    return paths
