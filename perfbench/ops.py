"""Running clpart commands as fresh processes and checking what they write.

An op is a list of clpart commands run one after another, each in a fresh
interpreter started the way the ``clpart`` console script starts it, with
``src`` on PYTHONPATH.  Wall time runs from process start to exit and peak
memory is the child's ``ru_maxrss`` from ``os.wait4``.  An op fails on a
non-zero exit, a timeout or a failed output check.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

CLI_MAIN = "import sys; from clpart.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 120.0
PARTITION = re.compile(r"\[(?:[1-9][0-9]*(?:,[1-9][0-9]*)*)?\]\Z")


@dataclass
class Context:
    """Where ops run: the checkout, a scratch directory inside it, a deadline."""

    root: Path
    tmp: Path
    deadline: float
    golden: dict = field(default_factory=dict)
    python: str = field(init=False, default=sys.executable)
    env: dict = field(init=False)

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        # Cache bytecode in the checkout, as an installed package has it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)


def op_seed(seed: int, index: int) -> int:
    """The --seed of op ``index`` in a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"clpart-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(ctx: Context, argv, stdout_path: Path, timeout: float) -> dict:
    """Run ``argv`` to completion; wall seconds, exit code and peak RSS in MB."""
    timeout = max(0.1, min(timeout, ctx.deadline - time.monotonic()))
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "timed_out": proc.returncode < 0 and wall >= timeout}


def reference_s(ctx: Context, stdout_path: Path) -> float:
    """Wall seconds of one run of perfbench/reference.py."""
    proc = spawn(ctx, [ctx.python, str(ctx.root / "perfbench" / "reference.py")],
                 stdout_path, OP_TIMEOUT_S)
    if proc["rc"] != 0:
        raise RuntimeError(f"perfbench/reference.py exited {proc['rc']}")
    return proc["wall_s"]


def render(template, seed: int, out: Path) -> list[str]:
    return [tok.replace("{seed}", str(seed)).replace("{out}", str(out)) for tok in template]


def golden_key(template, seed: int) -> str:
    return " ".join(render(template, seed, Path("{out}")))


def run_op(ctx: Context, workload: str, commands, seed: int, tag: str, traced: bool = False,
           reference: bool = False) -> dict:
    """Run one op and check its outputs; the op directory is removed afterwards.

    With ``reference``, perfbench/reference.py runs right before each command
    and its wall seconds are kept in the record's ``ref_s``.
    """
    opdir = ctx.tmp / tag
    opdir.mkdir(parents=True)
    record = {"tag": tag, "seed": seed, "wall_s": 0.0, "rss_mb": 0.0, "errors": [],
              "command_s": [], "ref_s": [], "digests": [], "traces": []}
    try:
        for j, template in enumerate(commands):
            out = opdir / f"out{j}.json"
            args = render(template, seed, out)
            if traced:
                trace_path = opdir / f"trace{j}.json"
                argv = [ctx.python, str(ctx.root / "perfbench" / "tracing.py"), str(trace_path), "--", *args]
            else:
                argv = [ctx.python, "-c", CLI_MAIN, *args]
            stdout_path = opdir / f"stdout{j}.txt"
            if reference:
                record["ref_s"].append(reference_s(ctx, stdout_path))
            proc = spawn(ctx, argv, stdout_path, OP_TIMEOUT_S)
            record["wall_s"] += proc["wall_s"]
            record["command_s"].append(proc["wall_s"])
            record["rss_mb"] = max(record["rss_mb"], proc["rss_mb"])
            errors = _check_command(workload, template, args, out, stdout_path, proc)
            digests = {"stdout": sha256_file(stdout_path),
                       "payload": sha256_file(out) if out.exists() else None}
            expected = ctx.golden.get(golden_key(template, seed))
            if expected is not None and expected != digests:
                errors.append(f"digests {digests} differ from the golden {expected}")
            record["digests"].append(digests)
            record["errors"] += [f"{args[0]}: {e}" for e in errors]
            if traced and proc["rc"] == 0:
                with open(trace_path) as fh:
                    record["traces"].append(json.load(fh))
            if errors:
                break
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    record["ok"] = not record["errors"]
    return record


def _flag(args, name):
    return args[args.index(name) + 1]


def _check_command(workload, template, args, out: Path, stdout_path: Path, proc) -> list[str]:
    if proc["timed_out"]:
        return [f"timed out after {proc['wall_s']:.1f} s"]
    if proc["rc"] != 0:
        with open(str(stdout_path) + ".err", "rb") as fh:
            tail = fh.read()[-300:].decode(errors="replace").strip()
        return [f"exit {proc['rc']}: {tail}"]
    errors = []
    if "--output" in args:
        errors += _check_manifest(out)
        if errors:
            return errors
        with open(out) as fh:
            payload = json.load(fh)
        if args[0] == "sample":
            errors += _check_counts(payload, int(_flag(args, "--trials")), 0)
        elif args[0] == "graphs":
            errors += _check_counts(payload, int(_flag(args, "--trials")),
                                    payload.get("discarded_disconnected", -1))
    if args[0] == "verify":
        lines = stdout_path.read_text().strip().splitlines()
        if not lines or lines[-1] != "all checks passed":
            errors.append(f"last line {lines[-1:]!r}, expected 'all checks passed'")
    return errors


def _check_manifest(out: Path) -> list[str]:
    if not out.exists():
        return ["no output file"]
    try:
        with open(str(out) + ".manifest.json") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    if manifest.get("outputs", {}).get(str(out)) != sha256_file(out):
        return ["manifest digest does not match the bytes written"]
    return []


def _check_counts(payload, trials: int, discarded: int) -> list[str]:
    errors = []
    total = 0
    for entry in payload["entries"]:
        total += entry["count"]
        text = entry["partition"]
        parts = [int(x) for x in text[1:-1].split(",")] if PARTITION.match(text) and text != "[]" else []
        if not PARTITION.match(text) or parts != sorted(parts, reverse=True):
            errors.append(f"unparseable partition {text!r}")
    if total + discarded != trials:
        errors.append(f"counts {total} + discarded {discarded} != trials {trials}")
    return errors
