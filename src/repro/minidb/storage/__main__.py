"""Storage inspection CLI: ``python -m repro.minidb.storage stat <dir>``.

Reads MANIFEST.json, the data file and the WAL without opening (and so
without recovering) the database, so it is safe on a directory left
behind by a crash; a non-empty WAL means recovery would replay on top
of what it reports. Per table: rows, segments, their *live* bytes, the
indexed columns (rebuilt on open, they own no bytes), and the footprint
— bytes stored versus the bytes the same segments take with every
column plain, the effect of ``REPRO_ENCODE``. *Dead* bytes are the rest
of the data file: segments of dropped or replaced tables and segments
merged into newer ones (a checkpoint rewrites the image once they
outweigh the live bytes), plus any uncommitted tail, which the next open
cuts off. A segment that fails its checksum is skipped.
"""

from __future__ import annotations

import json
import os
import sys

from repro.errors import StorageError
from repro.minidb.storage.segment import (
    FILE_HEADER_SIZE,
    decode_segment,
    encode_segment,
    read_generation,
    segment_shape,
)

_USAGE = "usage: python -m repro.minidb.storage stat <database-dir>"


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _table_lines(handle, name: str, entry: dict) -> list[str]:
    rows = stored = plain = dict_columns = 0
    for offset, length, _ in entry["segments"]:
        handle.seek(offset)
        data = handle.read(length)
        try:
            count, dicts = segment_shape(data)
            plain += len(encode_segment(decode_segment(data), False))
        except StorageError:
            continue
        rows, stored = rows + count, stored + length
        dict_columns += dicts
    columns = ", ".join(spec["column"] for spec in entry["indexes"].values())
    ratio = f"{stored / plain:.2f}" if plain else "1.00"
    return [f"table {name}: {rows} rows, {len(entry['segments'])} segments, "
            f"{stored} bytes live, indexes on {columns or 'none'}",
            f"table {name} footprint: {stored} bytes stored ({dict_columns} "
            f"dict columns), {plain} bytes plain, ratio {ratio}"]


def stat(directory: str) -> str:
    """Human-readable storage report for *directory*."""
    manifest_path = os.path.join(directory, "MANIFEST.json")
    data_path = os.path.join(directory, "data.pages")
    wal_size = _size(os.path.join(directory, "wal.log"))
    wal_line = (f"wal.log: {wal_size} bytes"
                + (" (recovery would replay)" if wal_size else ""))
    lines = [f"database directory: {directory}"]
    if not os.path.exists(manifest_path):
        return "\n".join(lines + [
            "no MANIFEST.json (fresh or never checkpointed)",
            f"data.pages: {_size(data_path)} bytes", wal_line])
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    tables = sorted(manifest["tables"].items())
    lines.append(f"checkpoint epoch: {manifest['epoch']}")
    if "page_size" in manifest:
        lines += [f"data.pages: {_size(data_path)} bytes", wal_line,
                  "page format of an older version: the first checkpoint "
                  "rewrites it as segments"]
        for name, entry in tables:
            pages = entry["heap_pages"]
            lines.append(f"table {name}: {sum(n for _, n in pages)} rows, "
                         f"{len(pages)} heap pages")
        return "\n".join(lines)
    if read_generation(data_path) != manifest["generation"]:
        data_path += ".tmp"  # a rewritten image not yet renamed in place
    live = sum(length for _, entry in tables
               for _, length, _ in entry["segments"])
    dead = max(0, _size(data_path) - FILE_HEADER_SIZE - live)
    lines += [f"image generation: {manifest['generation']}",
              f"data.pages: {_size(data_path)} bytes, {live} live, "
              f"{dead} dead", wal_line]
    with open(data_path, "rb") as handle:
        for name, entry in tables:
            lines += _table_lines(handle, name, entry)
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "stat":
        print(_USAGE, file=sys.stderr)
        return 2
    if not os.path.isdir(argv[1]):
        print(f"not a directory: {argv[1]}", file=sys.stderr)
        return 2
    print(stat(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
