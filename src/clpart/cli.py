"""Command-line front end.

Subcommands:
  pmf     exact masses and tables for the partition measures
  sample  Markov-chain sampling of the base measure
  graphs  random-graph p-Sylow experiments
  verify  identity / recursion / chain verification suites

Exit codes: 0 success, 1 verification failure (in verify, also a kernel row
that does not sum to 1 or parts recursions that disagree), 2 usage or domain
error (also an output file that cannot be written, or a stdout that cannot
be written: one "cannot write stdout" line), 3 internal error (a
RuntimeError or ArithmeticError elsewhere, such as the sampler's column-count
abort or a kernel row that does not sum to 1).  Randomized commands require
an explicit --seed; every file output gets a <output>.manifest.json recording
the full parameter set and a digest, and re-running the same command
reproduces the bytes.  A file output is streamed: the serializer's bytes chunks are
written in blocks to a temporary file beside it, hashed on the way, and the
file is renamed into place, then the manifest the same way.  A command that
fails before the payload's rename leaves both files as they were; one whose
manifest then fails leaves the new payload beside the old manifest.  Standard
output gets the whole payload in one write, so a failed command prints none
of it.

Each command runs in a fresh process, so this module's imports are paid per
command: ``hashlib`` is imported where a file is written and ``json`` where
JSON is written, and ``verify``, which writes neither, loads neither.  For the
same reason the process ends as soon as its output is flushed: ``main()``
called without arguments, as the console script and ``python -m clpart.cli``
call it, leaves by ``os._exit`` and skips the interpreter's teardown, which
no output needs.  ``main(argv_list)`` returns its exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import suppress
from fractions import Fraction

from . import __version__
from .measures import (
    Family,
    normalization_check,
    pmf_parts,
    pmf_size,
    pmf_via_conjugate,
    solve_parts_recursion,
    tabulate,
    deformed_series_check,
    truncated_series_check,
)
from .partitions import Partition, require_int
from .qseries import (
    as_fraction,
    clipped,
    even_numerators,
    fraction_str,
    kernel_numerators,
    require_decimal_exponent,
    require_prime,
    verify_euler_identity,
    verify_qbinomial,
)
from .sampler import (
    DEFAULT_CUTOFF,
    SamplerConfig,
    empirical_distribution,
    initial_column_distribution,
    kernel_row,
    sample_partitions,
)
from .sandpile import DEFAULT_VALUATION_CAP, run_experiment


def _parse_fraction(text: str) -> Fraction:
    """The rational ``text`` names (a/b, an integer or a decimal string), read
    by ``as_fraction``, so a side may run past Python's int-to-str digit limit."""
    require_decimal_exponent(text)  # before the try, so its message is kept
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        shown, length = clipped(text)
        hint = "; ".join(filter(None, (length, "use a/b or an integer")))
        raise ValueError(f"cannot parse rational {shown!r} ({hint})") from None


# Bytes per block written to a file: _blocks joins the serializers' chunks
# (table entries, CSV rows, sample lines) into blocks of at least this size.
BLOCK_BYTES = 1 << 20


def _blocks(chunks):
    """The bytes chunks joined into blocks of at least BLOCK_BYTES, the last
    one maybe shorter; a chunk of that size or more is a block of its own."""
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= BLOCK_BYTES:
            yield b"".join(block)
            block, size = [], 0
    if block:
        yield b"".join(block)


def _atomic_write(path: str, blocks) -> str:
    """Write the bytes blocks to a temporary file beside ``path``, rename it
    onto ``path`` and return the sha256 of the bytes written.

    The temporary name has a fixed length, so any name the file system takes
    for ``path`` is taken.  On any error the temporary file is removed and
    ``path`` is left as it was; an OSError (of the open, a write or the
    rename) is raised as a ValueError naming ``path``.
    """
    import hashlib

    digest = hashlib.sha256()
    tmp = os.path.join(os.path.dirname(path), f".clpart-{os.getpid():08x}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for block in blocks:
                digest.update(block)
                fh.write(block)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # none was made, or its name is refused as well
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ValueError(f"cannot write {path}: {exc.strerror}") from None
        raise
    return digest.hexdigest()


def _write_output(args, chunks, command: str, params: dict) -> None:
    """Write the bytes chunks to ``args.output`` and its manifest, or to stdout."""
    if args.output is None:
        sys.stdout.flush()  # the lines printed before the payload go first
        sys.stdout.buffer.write(b"".join(chunks))
        return
    import errno
    import json

    manifest_path = args.output + ".manifest.json"
    try:  # a name the payload takes but its manifest does not: refuse before either is written
        name_max = os.pathconf(os.path.dirname(args.output) or ".", "PC_NAME_MAX")
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    if len(os.fsencode(os.path.basename(manifest_path))) > name_max:
        raise ValueError(f"cannot write {args.output}: {os.strerror(errno.ENAMETOOLONG)}")
    manifest = {
        "command": command,
        "params": params,
        "seed": params.get("seed"),
        "version": __version__,
        "outputs": {args.output: _atomic_write(args.output, _blocks(chunks))},
    }
    _atomic_write(manifest_path, [f"{json.dumps(manifest, indent=2, sort_keys=True)}\n".encode()])


def _entry_halves(mid: str, rad: str) -> tuple[bytes, bytes]:
    """A table entry's JSON text without its opening brace and count, as the
    bytes before and after its partition."""
    return (f'\n      "mid": "{mid}",\n      "partition": "'.encode(),
            f'",\n      "rad": "{rad}"\n    }}'.encode())


def _dumps(obj):
    """The JSON text of ``obj`` (indent 2, sorted keys, final newline) as bytes chunks.

    ``obj`` is a dict, encoded whole by the encoder, or a table with
    ``json_parts()``: the table's other keys are encoded by the encoder and
    its entries are written here, in the encoder's layout, a few chunks per
    entry.  Each distinct mass's entry text is encoded once, as the bytes
    before and after the partition.
    """
    import json

    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    if isinstance(obj, dict):
        yield f"{encoder.encode(obj)}\n".encode()
        return
    # An entry is an object two levels deep, its keys in sorted order;
    # partitions and fraction strings need no JSON escaping.
    head, entries = obj.json_parts(_entry_halves)
    # strings are encoded with \n escaped, so this is the top-level key
    before, _, after = encoder.encode({**head, "entries": []}).partition('\n  "entries": []')
    yield before.encode() + b'\n  "entries": ['
    opening = b"\n    {"
    for lam, count, (left, right) in entries:
        yield opening if count is None else b'%s\n      "count": %d,' % (opening, count)
        yield left
        yield str(lam).encode()
        yield right
        opening = b",\n    {"
    yield (b"]" if opening == b"\n    {" else b"\n  ]") + f"{after}\n".encode()


# ---------------------------------------------------------------- pmf

# The pmf flags that select a mode or shape its output, with their defaults.
_PMF_MODE_FLAGS = {"partition": None, "max_size": None, "n": None, "a": None, "format": "json"}


def _refuse_unread(args, mode: str, reads) -> None:
    """Raise ValueError naming a mode flag that was given but that ``mode`` does not read."""
    for flag, default in _PMF_MODE_FLAGS.items():
        value = getattr(args, flag)
        if flag not in reads and value != default:
            raise ValueError(f"--{flag.replace('_', '-')} {value} does not apply to {mode}")


def cmd_pmf(args) -> int:
    p = require_prime(args.p)
    measure = args.measure

    if measure in ("size", "parts"):
        Family("cl", p, args.u, args.r)  # marginals of the base measure: no u or r
        flag = "n" if measure == "size" else "a"
        _refuse_unread(args, f"--measure {measure}", {flag})
        value = getattr(args, flag)
        if value is None:
            raise ValueError(f"--measure {measure} needs --{flag}")
        mass = pmf_size(value, p) if measure == "size" else pmf_parts(value, p)
        where = {"argument": value}
    else:
        if (args.partition is None) == (args.max_size is None):
            raise ValueError("give exactly one of --partition or --max-size")
        u = _parse_fraction(args.u) if args.u is not None else None
        if args.max_size is not None:
            _refuse_unread(args, "--max-size", {"max_size", "format"})
            if measure == "cl-conjugate":  # the base measure's oracle form: no table of its own
                Family("cl", p, u, args.r)
                raise ValueError(f"measure {measure!r} has no table; use cl")
            dist = tabulate(p, args.max_size, measure=measure, u=u, r=args.r)
            print(dist.constant)
            print(f"table total + tail = {dist.normalization_enclosure()}")
            if args.format == "csv":
                payload = (f"{','.join(row)}\n".encode() for row in dist.to_csv_rows())
            else:
                payload = _dumps(dist)
            _write_output(args, payload, "pmf", _param_dict(args))
            return 0
        _refuse_unread(args, "--partition", {"partition"})
        family = Family("cl" if measure == "cl-conjugate" else measure, p, u, args.r)
        lam = Partition.from_string(args.partition)
        mass = pmf_via_conjugate(lam, p) if measure == "cl-conjugate" else family.mass(lam)
        where = {"partition": str(lam)}

    print(mass.constant)
    payload = _dumps({
        "measure": measure, "p": p, **where,
        "rational": fraction_str(mass.rational),
        "mass": mass.enclosure().to_json(),
    })
    _write_output(args, payload, "pmf", _param_dict(args))
    return 0


# ---------------------------------------------------------------- sample


def cmd_sample(args) -> int:
    p = require_prime(args.p)
    cutoff = _parse_fraction(args.cutoff)
    config = SamplerConfig(p=p, seed=args.seed, initial_tail_cutoff=cutoff)
    if args.summary:
        dist = empirical_distribution(config, args.trials)
        payload = _dumps(dist)
    else:
        lines = {}  # a run has few distinct partitions: render each once
        payload = (lines.get(lam) or lines.setdefault(lam, f"{lam}\n".encode())
                   for lam in sample_partitions(config, args.trials))
    _write_output(args, payload, "sample", _param_dict(args))
    return 0


# ---------------------------------------------------------------- graphs


def cmd_graphs(args) -> int:
    p = require_prime(args.p)
    q = _parse_fraction(args.q)
    result = run_experiment(args.n, q, p, args.trials, args.seed,
                            cap=args.cap, method=args.method)
    payload = _dumps(result)
    _write_output(args, payload, "graphs", _param_dict(args))
    return 0


# ---------------------------------------------------------------- verify


def _run_checks(checks) -> int:
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{'all checks passed' if not failures else f'{failures} check(s) FAILED'}")
    return 0 if failures == 0 else 1


def _identity_checks(primes, depth):
    for p in primes:
        s, q = Fraction(1, p), Fraction(1, p * p)
        check = verify_euler_identity(s, q, depth)
        yield (f"euler-series s=1/{p} q=1/{p*p} terms={depth}", check.agree,
               f"lhs={float(check.lhs):.12f} rhs={check.rhs} tail<={float(check.truncation_bound):.3e}")
        for r in range(1, 6):
            for x in (1, 2):
                qb = verify_qbinomial(r, Fraction(1, p), x)
                yield (f"q-binomial r={r} q=1/{p} x={x}", qb.agree,
                       f"both sides = {fraction_str(qb.lhs)}")
        for u in ([Fraction(1, 2)] + ([Fraction(2)] if p > 2 else [])):
            partial, rhs, tail, agree = deformed_series_check(p, u, min(depth, 40))
            yield (f"deformed-series p={p} u={u}", agree,
                   f"partial={float(partial):.12f} rhs={rhs} tail<={float(tail):.3e}")
        for r in range(1, 6):
            partial, rhs, tail, agree = truncated_series_check(p, r, min(depth, 40))
            yield (f"truncated-series p={p} r={r}", agree,
                   f"partial={float(partial):.12f} rhs={fraction_str(rhs)} tail<={float(tail):.3e}")
        # the cells up to size 30 of the series checks' table
        total, agree = normalization_check(p, min(depth, 30), min(depth, 40))
        yield (f"normalization p={p} max_size={min(depth, 30)}", agree,
               f"total+tail = {total}")


def _recursion_checks(primes, a_max):
    for p in primes:
        try:
            values = solve_parts_recursion(p, a_max)
        except ArithmeticError as exc:  # the two recursions disagree
            ok, detail = False, str(exc)
        else:
            closed = [pmf_parts(a, p) for a in range(a_max + 1)]
            ok = all(v.rational == c.rational for v, c in zip(values, closed))
            detail = "both recursions and the closed form agree exactly"
        yield (f"parts-recursions-vs-closed-form p={p} a<={a_max}", ok, detail)


def _chain_checks(primes, a_max):
    for p in primes:
        parts = [pmf_parts(a, p).rational for a in range(a_max + 1)]  # refuses a_max > MAX_PARTS
        try:
            for a in range(a_max + 1):
                kernel_row(a, p)  # raises unless the row's exact sum is 1
            ok_rows, detail = True, "exact row sums = 1"
        except ArithmeticError as exc:
            ok_rows, detail = False, str(exc)
        yield (f"kernel-row-sums p={p} a<={a_max}", ok_rows, detail)
        # With P(j) = n_j / d_j, E = (1/p^2)_k = N_k / p^(k(k+1)), k = floor((a-b)/2),
        # and K(a, b) = c / p^binom(a+1,2), the identity P(b) / (p^binom(a+1,2) P(a) E)
        # = K(a, b) cross-multiplies to n_b d_a p^(k(k+1)) = c n_a d_b N_k, all ints.
        evens = even_numerators(p, a_max // 2)
        ok_ratio = True
        for a in range(a_max + 1):
            n_a, d_a = parts[a].numerator, parts[a].denominator
            for b, c in enumerate(kernel_numerators(a, p)):
                k = (a - b) // 2
                if (parts[b].numerator * d_a * p ** (k * (k + 1))
                        != c * n_a * parts[b].denominator * evens[k]):
                    ok_ratio = False
        yield (f"kernel-ratio-identity p={p} a<={a_max}", ok_ratio,
               "P(b) / (p^binom(a+1,2) P(a) (1/p^2)_floor((a-b)/2)) = K(a,b) exactly")
        entries = initial_column_distribution(p, DEFAULT_CUTOFF)
        try:
            ok_init = [mass for _, mass in entries] == solve_parts_recursion(p, len(entries) - 1)
            detail = f"{len(entries)} heights retained, tail below {DEFAULT_CUTOFF}"
        except ArithmeticError as exc:  # the two recursions disagree
            ok_init, detail = False, str(exc)
        yield (f"initial-column-distribution p={p}", ok_init, detail)


def cmd_verify(args) -> int:
    try:
        primes = [int(tok) for tok in args.p.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse prime list {args.p!r}") from None
    if not primes:
        raise ValueError("empty prime list")
    for p in primes:
        require_prime(p)
    require_int(args.depth, "depth", 1)
    require_int(args.a_max, "a-max", 0)
    if args.suite == "identities":
        return _run_checks(_identity_checks(primes, args.depth))
    if args.suite == "recursions":
        return _run_checks(_recursion_checks(primes, args.a_max))
    return _run_checks(_chain_checks(primes, args.a_max))


# ---------------------------------------------------------------- wiring


def _param_dict(args) -> dict:
    skip = {"func", "output"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key not in skip and value is not None:
            out[key] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clpart",
        description="Cohen-Lenstra partition measures: exact tables, sampling, graph experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="exact masses and tables")
    p_pmf.add_argument("--measure", required=True,
                       choices=["cl", "cl-conjugate", "deformed", "truncated", "size", "parts"])
    p_pmf.add_argument("--p", required=True, type=int, help="prime")
    p_pmf.add_argument("--partition", help='partition in bracket form, e.g. "[3,1]"')
    p_pmf.add_argument("--max-size", type=int, help="tabulate all partitions up to this size")
    p_pmf.add_argument("--n", type=int, help="size argument for --measure size")
    p_pmf.add_argument("--a", type=int, help="parts argument for --measure parts")
    p_pmf.add_argument("--u", help="deformation parameter (rational, 0 < u < p)")
    p_pmf.add_argument("--r", type=int, help="parts bound for the truncated measure")
    p_pmf.add_argument("--format", choices=["json", "csv"], default="json")
    p_pmf.add_argument("--output")
    p_pmf.set_defaults(func=cmd_pmf)

    p_sample = sub.add_parser("sample", help="Markov-chain sampling")
    p_sample.add_argument("--p", required=True, type=int)
    p_sample.add_argument("--trials", required=True, type=int)
    p_sample.add_argument("--seed", required=True, type=int)
    p_sample.add_argument("--cutoff", default=f"{DEFAULT_CUTOFF}",
                          help="initial-column tail cutoff (rational)")
    p_sample.add_argument("--summary", action="store_true",
                          help="write a frequency table instead of one partition per line")
    p_sample.add_argument("--output")
    p_sample.set_defaults(func=cmd_sample)

    p_graphs = sub.add_parser("graphs", help="random-graph p-Sylow experiments")
    p_graphs.add_argument("--n", required=True, type=int)
    p_graphs.add_argument("--q", required=True, help="edge probability (rational in (0,1))")
    p_graphs.add_argument("--p", required=True, type=int)
    p_graphs.add_argument("--trials", required=True, type=int)
    p_graphs.add_argument("--seed", required=True, type=int)
    p_graphs.add_argument("--cap", type=int, default=DEFAULT_VALUATION_CAP, help="valuation cap")
    p_graphs.add_argument("--method", choices=["plocal", "snf"], default="plocal")
    p_graphs.add_argument("--output")
    p_graphs.set_defaults(func=cmd_graphs)

    p_verify = sub.add_parser("verify", help="verification suites")
    p_verify.add_argument("--suite", required=True,
                          choices=["identities", "recursions", "chain"])
    p_verify.add_argument("--p", default="2,3", help="comma-separated primes")
    p_verify.add_argument("--depth", type=int, default=40,
                          help="series truncation depth for identity checks")
    p_verify.add_argument("--a-max", dest="a_max", type=int, default=30)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _run(argv) -> int:
    """The exit code of the command ``argv`` names; an OSError from writing
    stdout propagates."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code.

    A stdout that cannot be written (a closed pipe, a full disk) is an
    output error like an unwritable --output: one "cannot write stdout" line
    on stderr and exit 2.  Only the standard streams' writes raise an
    OSError this far: file outputs raise theirs as ValueError and worker
    failures as RuntimeError.

    With ``argv`` None the command line is the process's own (the console
    script, ``python -m clpart.cli``), and main does not return: it flushes
    stdout and stderr and ends the process with ``os._exit``.  That skips the
    interpreter's teardown (clearing modules, its last collections, freeing
    every object), 9-13 ms per command on 2 vCPUs with Python 3.11, which no
    output needs: every file is renamed into place and every worker reaped
    by then, and no thread or atexit handler is left.  An exception main
    does not catch propagates as it would.  With an argv list main returns.
    """
    try:
        code = _run(argv)
        if argv is None:
            sys.stdout.flush()
            sys.stderr.flush()
    except OSError as exc:  # stdout still holds what it could not write: no further flush
        with suppress(OSError):  # stderr may fail as well
            print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr, flush=True)
        code = 2
    if argv is None:
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
