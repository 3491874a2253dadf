"""BAD: coroutines reach blocking I/O through sync helpers.

No coroutine here calls a blocking primitive itself: the ``open()``
lives three frames away from ``_handle_export``
(``_handle_export -> persist_rows -> _write_row -> open``), and the
``Path.write_text`` method call one frame below ``_handle_manifest``.
Only the interprocedural closure sees the chains.
"""

import json


def _write_row(path, row):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def persist_rows(directory, rows):
    for index, row in enumerate(rows):
        _write_row(f"{directory}/{index}.json", row)


def _write_manifest(path, rows):
    path.write_text(json.dumps({"rows": len(rows)}))


async def _handle_export(ctx):
    rows = ctx.collect()
    persist_rows(ctx.export_dir, rows)
    return {"exported": len(rows)}


async def _handle_manifest(ctx):
    _write_manifest(ctx.manifest_path, ctx.collect())
    return {"ok": True}
