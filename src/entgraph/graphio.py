"""Typed subgraph file format: versioned, sorted, diff-friendly text.

One file per subgraph. Header lines pin the format version, signature and
counts; vertex lines then edge lines follow, both sorted. Scores are
written with repr() so they reload bit-exactly.
"""

from __future__ import annotations

import os
from pathlib import Path

from .localgraph import ArgMap, EntailmentEdge, TypedSubgraph
from .model import TypedPredicate

FORMAT_VERSION = 1
MAGIC = "entgraph-subgraph"


class VersionMismatch(ValueError):
    """File declares a format version this code does not read."""


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
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _write_text_atomic(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory, then rename it over.

    An interrupted write leaves the previous file (or none) in place, never
    a truncated one, and removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_subgraph(path: str | Path) -> TypedSubgraph:
    header, vertices, edges = _parse(Path(path).read_text(encoding="utf-8"), path)
    return TypedSubgraph(header["types"], vertices, edges)


def read_header(path: str | Path) -> dict:
    """Header and vertex list only; edge records are not parsed."""
    header, vertices, _ = _parse(
        Path(path).read_text(encoding="utf-8"), path, with_edges=False
    )
    header["vertex_list"] = vertices
    return header


def _parse(text: str, path, with_edges: bool = True):
    lines = text.splitlines()
    if not lines or not lines[0].startswith(MAGIC):
        raise ValueError(f"{path}: not a subgraph file")
    version = lines[0][len(MAGIC):].strip()
    if version != f"v{FORMAT_VERSION}":
        raise VersionMismatch(
            f"{path}: format {version or '?'} unsupported (expected v{FORMAT_VERSION})"
        )
    header: dict = {"version": version}
    # each vertex token is parsed once; edges share the parsed objects
    by_token: dict[str, TypedPredicate] = {}
    edge_fields: list[list[str]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("V\t"):
            token = line[2:].strip()
            by_token[token] = TypedPredicate.parse_token(token)
        elif line.startswith("E\t"):
            if with_edges:
                edge_fields.append(line.split("\t"))
        else:
            key, _, value = line.partition("=")
            header[key.strip()] = value.strip()
    if "types" not in header:
        raise ValueError(f"{path}: missing types header")
    header["types"] = tuple(t for t in header["types"].split(",") if t)
    for key in ("vertices", "edges"):
        if key in header:
            header[key] = int(header[key])
    vertices = list(by_token.values())
    edges: list[EntailmentEdge] = []
    for fields in edge_fields:
        _, prem, hyp, kind, amap, score = fields
        premise, hypothesis = by_token.get(prem), by_token.get(hyp)
        if premise is None or hypothesis is None:
            missing = prem if premise is None else hyp
            raise ValueError(f"{path}: edge endpoint {missing!r} has no V line")
        edges.append(
            EntailmentEdge(premise, hypothesis, kind, ArgMap.parse(amap), float(score))
        )
    if with_edges:
        if header.get("vertices") not in (None, len(vertices)):
            raise ValueError(f"{path}: vertex count mismatch")
        if header.get("edges") not in (None, len(edges)):
            raise ValueError(f"{path}: edge count mismatch")
    return header, vertices, edges


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
