"""Typed subgraph file format: versioned, sorted, diff-friendly text.

One file per subgraph. Header lines pin the format version, signature and
counts; vertex lines then edge lines follow, both sorted. Scores are
written with repr() so they reload bit-exactly. A graph directory is read
as a whole: its files share one object per predicate.
"""

from __future__ import annotations

from pathlib import Path

from .localgraph import ArgMap, EntailmentEdge, TypedSubgraph
from .model import TypedPredicate, VersionMismatch, _atomic_writer

FORMAT_VERSION = 1
MAGIC = "entgraph-subgraph"


def subgraph_filename(signature: tuple[str, ...]) -> str:
    prefix = "bi" if len(signature) == 2 else "uni"
    return f"{prefix}__" + "__".join(signature) + ".graph"


def write_subgraph(subgraph: TypedSubgraph, path: str | Path) -> None:
    lines = [
        f"{MAGIC} v{FORMAT_VERSION}",
        f"kind={subgraph.kind}",
        "types=" + ",".join(subgraph.signature),
        f"vertices={len(subgraph.vertices)}",
        f"edges={len(subgraph.edges)}",
    ]
    for v in sorted(subgraph.vertices, key=lambda p: p.token()):
        lines.append(f"V\t{v.token()}")
    for e in subgraph.edges:
        lines.append(
            "E\t{}\t{}\t{}\t{}\t{}".format(
                e.premise.token(), e.hypothesis.token(), e.kind,
                e.arg_map.format(), repr(e.score),
            )
        )
    with _atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_subgraph(
    path: str | Path, predicates: dict[str, TypedPredicate] | None = None
) -> TypedSubgraph:
    """Parse one subgraph file.

    ``predicates`` maps tokens to parsed predicates; a token found there is
    reused and a new one is added, so files read with one table share
    vertex objects. ``E`` endpoints resolve only against this file's ``V``
    lines.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ValueError(f"{path}: not a subgraph file")
    version = lines[0][len(MAGIC):].strip()
    if version != f"v{FORMAT_VERSION}":
        raise VersionMismatch(
            f"{path}: format {version or '?'} unsupported (expected v{FORMAT_VERSION})"
        )
    predicates = {} if predicates is None else predicates
    header: dict[str, str] = {}
    by_token: dict[str, TypedPredicate] = {}
    edge_fields: list[list[str]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("V\t"):
            token = line[2:].strip()
            vertex = predicates.get(token)
            if vertex is None:
                vertex = predicates[token] = TypedPredicate.parse_token(token)
            by_token[token] = vertex
        elif line.startswith("E\t"):
            edge_fields.append(line.split("\t"))
        else:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    if "types" not in header:
        raise ValueError(f"{path}: missing types header")
    types = tuple(t for t in header["types"].split(",") if t)
    kind = {1: "univalent", 2: "bivalent"}.get(len(types))
    if header.get("kind", kind) != kind:
        raise ValueError(
            f"{path}: kind={header['kind']} does not match types={header['types']}"
        )
    edges: list[EntailmentEdge] = []
    for _, prem, hyp, edge_kind, amap, score in edge_fields:
        premise, hypothesis = by_token.get(prem), by_token.get(hyp)
        if premise is None or hypothesis is None:
            missing = prem if premise is None else hyp
            raise ValueError(f"{path}: edge endpoint {missing!r} has no V line")
        edges.append(
            EntailmentEdge(premise, hypothesis, edge_kind, ArgMap.parse(amap), float(score))
        )
    for key, found in (("vertices", by_token), ("edges", edges)):
        if key in header and int(header[key]) != len(found):
            raise ValueError(f"{path}: {key}={header[key]} but {len(found)} found")
    return TypedSubgraph(types, by_token.values(), edges)


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
