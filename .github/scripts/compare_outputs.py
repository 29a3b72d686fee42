"""Compare the outputs of two runs of the same commands, cell by cell.

usage: python compare_outputs.py BASE_DIR HEAD_DIR

Every file under BASE_DIR is compared with the file of the same relative
path under HEAD_DIR.  Identical bytes are fine.  Otherwise each moved cell is
printed: a CSV cell by row and column, a JSON leaf by its key path (the
`wall_clock_s` fields are skipped, as a run's wall time always moves), a
binary PGM pixel by row and column.  Exits 1 when anything moved, so that a
speed change that claims to leave the outputs as they are is held to it.
"""

import csv
import io
import json
import sys
from pathlib import Path

_SHOWN = 20  # moved cells printed per file


def _leaves(obj, path=""):
    """(key path, value) of every leaf of a JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key != "wall_clock_s":
                yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _csv_cells(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    header = rows[0] if rows else []
    for r, row in enumerate(rows[1:], start=1):
        for c, value in enumerate(row):
            yield f"row {r} {header[c] if c < len(header) else c}", value


def _pgm_pixels(data: bytes):
    _, size, maxval, pixels = data.split(b"\n", 3)
    width = int(size.split()[0])
    step = 2 if int(maxval) > 255 else 1
    for i in range(0, len(pixels), step):
        yield (f"pixel ({i // step // width}, {i // step % width})",
               int.from_bytes(pixels[i:i + step], "big"))


def moved_cells(name: str, base: bytes, head: bytes) -> list[str]:
    """The cells of one file that differ, as printable lines."""
    if name.endswith(".json"):
        cells = dict(_leaves(json.loads(base))), dict(_leaves(json.loads(head)))
    elif name.endswith(".csv"):
        cells = dict(_csv_cells(base)), dict(_csv_cells(head))
    elif name.endswith(".pgm") and base.startswith(b"P5") and head.startswith(b"P5"):
        cells = dict(_pgm_pixels(base)), dict(_pgm_pixels(head))
    else:
        return [] if base == head else ["the bytes differ"]
    old, new = cells
    return [f"{key}: {old.get(key, '(none)')} -> {new.get(key, '(none)')}"
            for key in sorted(old.keys() | new.keys(), key=str)
            if old.get(key) != new.get(key)]


def main(base_dir: Path, head_dir: Path) -> int:
    names = sorted({p.relative_to(d).as_posix() for d in (base_dir, head_dir)
                    for p in d.rglob("*") if p.is_file()})
    moved = 0
    for name in names:
        base, head = base_dir / name, head_dir / name
        if not (base.exists() and head.exists()):
            print(f"{name}: only in {'base' if base.exists() else 'head'}")
            moved += 1
            continue
        base, head = base.read_bytes(), head.read_bytes()
        lines = moved_cells(name, base, head)
        if base == head:
            print(f"{name}: identical")
        elif not lines:
            print(f"{name}: the same cells (the wall clock aside)")
        else:
            print(f"{name}: {len(lines)} cell{'s' * (len(lines) > 1)} moved")
        for line in lines[:_SHOWN]:
            print(f"  {line}")
        if len(lines) > _SHOWN:
            print(f"  ... and {len(lines) - _SHOWN} more")
        moved += bool(lines)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]), Path(sys.argv[2])))
