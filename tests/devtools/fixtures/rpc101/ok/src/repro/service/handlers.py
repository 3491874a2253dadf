"""OK: the blocking writes happen behind an executor hop.

``_write_row`` and ``_write_manifest`` are handed to ``run_in_executor``
*by reference* — never called from a coroutine, so no call edge exists
and the event loop is never blocked.  The pure helpers on the request
path do no I/O.
"""

import asyncio
import json


def _write_row(path, row):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(row) + "\n")


def _write_manifest(path, rows):
    path.write_text(json.dumps({"rows": len(rows)}))


def shape_payload(rows):
    return {"rows": rows, "count": len(rows)}


async def _handle_export(ctx):
    rows = ctx.collect()
    loop = asyncio.get_running_loop()
    for index, row in enumerate(rows):
        path = f"{ctx.export_dir}/{index}.json"
        await loop.run_in_executor(None, _write_row, path, row)
    return shape_payload(rows)


async def _handle_manifest(ctx):
    loop = asyncio.get_running_loop()
    rows = ctx.collect()
    await loop.run_in_executor(None, _write_manifest, ctx.manifest_path, rows)
    return {"ok": True}
