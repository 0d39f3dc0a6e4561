"""Edge-list IO.

The on-disk format is the plain whitespace-separated edge list used by SNAP
and most influence-maximization codebases::

    # optional comment lines
    <source> <target> [probability]

A missing probability column defaults to 1.0 (topology-only files, to be
weighted afterwards).  A compact binary round-trip via ``.npz`` is also
provided for large generated datasets.
"""

from __future__ import annotations

import gzip
import io
import zlib
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from repro.errors import EdgeError, GraphError
from repro.graph.digraph import DiGraph

PathLike = Union[str, Path]

#: Largest node count (and, less one, node id) an edge list may name: the
#: CSR arrays index nodes with int64.
_MAX_NODES = int(np.iinfo(np.int64).max)


def _open_text(path: PathLike, mode: str) -> TextIO:
    """Open a path as text, transparently gzipped for ``.gz`` suffixes.

    SNAP dumps ship as ``*.txt.gz``; accepting them directly saves the
    decompress-to-disk step on every dataset download.  Reads map bytes
    that are not UTF-8 to lone surrogates, so such a byte fails the parse
    of its own line (or is ignored inside a comment) instead of failing a
    whole decode block.
    """
    errors = "surrogateescape" if mode == "r" else "strict"
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8", errors=errors)
    return open(path, mode, encoding="utf-8", errors=errors)


def write_edge_list(graph: DiGraph, destination: Union[PathLike, TextIO]) -> None:
    """Write ``graph`` as a text edge list with probabilities.

    A ``.gz`` destination path is written gzip-compressed.
    """
    close = False
    if isinstance(destination, (str, Path)):
        handle: TextIO = _open_text(destination, "w")
        close = True
    else:
        handle = destination
    try:
        handle.write(f"# nodes {graph.n} edges {graph.m}\n")
        for u, v, p in graph.edges():
            handle.write(f"{u} {v} {p:.10g}\n")
    finally:
        if close:
            handle.close()


def read_edge_list(
    source: Union[PathLike, TextIO],
    n: int = 0,
    default_probability: float = 1.0,
) -> DiGraph:
    """Parse a text edge list into a :class:`DiGraph`.

    Parameters
    ----------
    source:
        Path or open text handle.  A ``.gz`` path is read through gzip
        transparently (SNAP edge lists ship gzipped).
    n:
        Node count.  If 0, inferred as ``max endpoint + 1`` (or taken from a
        leading ``# nodes N edges M`` header when present).
    default_probability:
        Used for rows with only two columns.

    Every malformed input raises :class:`~repro.errors.GraphError`, with
    the line number where there is one: a missing file, a line with bytes
    that are not UTF-8, a truncated or corrupt ``.gz`` stream, a node id
    or header node count outside int64, or a node count too large to
    allocate.
    """
    close = False
    if isinstance(source, (str, Path)):
        try:
            handle: TextIO = _open_text(source, "r")
        except OSError as exc:
            raise GraphError(f"cannot open edge list: {exc}") from exc
        close = True
    else:
        handle = source
    sources = []
    targets = []
    probs = []
    header_n = 0
    line_no = 0
    try:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header_n = max(header_n, _parse_header_n(line, line_no))
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(
                    f"line {line_no}: expected 'u v [p]', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                p = float(parts[2]) if len(parts) == 3 else default_probability
            except ValueError as exc:
                raise GraphError(f"line {line_no}: unparseable edge {line!r}") from exc
            if not (0 <= u < _MAX_NODES and 0 <= v < _MAX_NODES):
                raise EdgeError(
                    f"line {line_no}: node ids must lie in [0, {_MAX_NODES}), "
                    f"got {line!r}"
                )
            sources.append(u)
            targets.append(v)
            probs.append(p)
    except (EOFError, OSError, zlib.error, UnicodeDecodeError) as exc:
        # A truncated or corrupt .gz stream, or a caller's strict text
        # handle meeting bytes that are not UTF-8.
        raise GraphError(
            f"cannot read the edge list past line {line_no}: {exc}"
        ) from exc
    finally:
        if close:
            handle.close()

    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if n == 0:
        inferred = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if len(src) else 0
        n = max(header_n, inferred)
    return DiGraph.from_arrays(n, src, dst, np.asarray(probs, dtype=np.float64))


def _parse_header_n(line: str, line_no: int) -> int:
    """Extract N from a ``# nodes N edges M`` header; 0 if absent."""
    tokens = line.lstrip("#").split()
    for i, token in enumerate(tokens):
        if token == "nodes" and i + 1 < len(tokens):
            try:
                n = int(tokens[i + 1])
            except ValueError:
                return 0
            if n > _MAX_NODES:
                raise GraphError(
                    f"line {line_no}: header node count {n} exceeds {_MAX_NODES}"
                )
            return n
    return 0


def edge_list_to_string(graph: DiGraph) -> str:
    """Render the edge list format to a string (small graphs / tests)."""
    buffer = io.StringIO()
    write_edge_list(graph, buffer)
    return buffer.getvalue()


def save_npz(graph: DiGraph, path: PathLike) -> None:
    """Save a graph to a compressed ``.npz`` archive."""
    src, dst, probs = graph.edge_arrays()
    np.savez_compressed(
        path,
        n=np.asarray([graph.n], dtype=np.int64),
        sources=src,
        targets=dst,
        probabilities=probs,
    )


def load_npz(path: PathLike) -> DiGraph:
    """Load a graph previously written by :func:`save_npz`."""
    with np.load(path) as data:
        required = {"n", "sources", "targets", "probabilities"}
        missing = required - set(data.files)
        if missing:
            raise GraphError(f"npz archive missing arrays: {sorted(missing)}")
        return DiGraph.from_arrays(
            int(data["n"][0]),
            data["sources"],
            data["targets"],
            data["probabilities"],
        )
