"""Seeded "gappy" copy of a data directory written by `synth.write_dataset`.

Blanks channel fields in runs of rows. A short run (at most the loader's
MAX_INTERP_GAP rows) is interpolated by the loader; a long run makes the
loader drop its rows. Each run blanks 1 or 2 channels, is written as either
"" or "nan", lies strictly inside its file and shares no row and no
neighbouring row with another run, so every short run has clean neighbours
and the rows the loader must drop are exactly the rows of the long runs.
The program sees only the files; the counts are returned to the benchmark.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

TOKENS = ("", "nan")
LONG_SHARE = 0.25          # share of runs that are long
SPACING = (40, 200)        # clean rows before each run, inclusive range


def make_gappy_copy(src: Path, dst: Path, seed: int, max_interp_gap: int) -> dict:
    """Write the gappy copy of `src` into `dst`; return what was blanked."""
    rng = random.Random(f"gappy-{seed}")
    manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
    channels = manifest["schema"]["channel_columns"]
    delimiter = manifest["schema"]["delimiter"]
    kinds = ("interpolated", "dropped")
    fields = {k: {t or "empty": 0 for t in TOKENS} for k in kinds}
    rows = {k: {t or "empty": 0 for t in TOKENS} for k in kinds}
    runs = {k: 0 for k in kinds}
    total_rows = 0
    dst.mkdir(parents=True)
    for entry in manifest["files"]:
        lines = (src / entry["file"]).read_text(encoding="utf-8").splitlines()
        total_rows += len(lines)
        row = rng.randint(*SPACING)
        while True:
            kind = "dropped" if rng.random() < LONG_SHARE else "interpolated"
            length = (rng.randint(max_interp_gap + 1, 3 * max_interp_gap) if kind == "dropped"
                      else rng.randint(1, max_interp_gap))
            if row + length >= len(lines) - 1:
                break
            cols = rng.sample(channels, rng.randint(1, 2))
            token = rng.choice(TOKENS)
            for i in range(row, row + length):
                parts = lines[i].split(delimiter)
                for c in cols:
                    parts[c] = token
                lines[i] = delimiter.join(parts)
            runs[kind] += 1
            rows[kind][token or "empty"] += length
            fields[kind][token or "empty"] += length * len(cols)
            row += length + rng.randint(*SPACING)
        (dst / entry["file"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    shutil.copyfile(src / "manifest.json", dst / "manifest.json")
    affected = sum(sum(v.values()) for v in rows.values())
    return {
        "seed": seed,
        "rows_total": total_rows,
        "runs": runs,
        "rows_blanked": rows,
        "fields_blanked": fields,
        "rows_dropped": sum(rows["dropped"].values()),
        "rows_affected_share": affected / total_rows,
    }
