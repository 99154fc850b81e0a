"""Command-line surface: mutate, complete, theta, plot, check, companions.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 verification failure.  Completed outputs are cached in a .gcsdiag-cache
directory (override with GCSDIAG_CACHE) under a hash of the request and of
the package sources; cache writes are atomic renames, cache hits are
byte-identical to fresh runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys
from fractions import Fraction

from .scatter import (
    _reorder,
    apply_Tk,
    check_consistency,
    complete_rank2,
    dump_diagram,
    equivalence_check,
    initial_diagram,
    initial_diagram_prin,
    slice_to_X,
    tk_order_boost,
)
from .seed import (
    ClusterState,
    c_vectors,
    cluster_variable_text,
    epsilon,
    g_vectors,
    langlands_dual,
    left_companion,
    mutate_cluster,
    mutate_seed,
    mutation_walk,
    parse_seed_file,
    right_companion,
    serialize_seed_file,
)
from .theta import EndpointNotGeneric, generic_near, sign_coherence_check, theta, theta_report


class CliError(Exception):
    """A failure that `main` prints as `Error: <message>` on stderr and exits with code."""

    def __init__(self, message, code):
        super().__init__(message)
        self.exit_code = code


def _read_input(path):
    """The text of an input file; one that cannot be read or is not UTF-8 is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = exc
    raise CliError("cannot read %s: %s" % (path, reason), 2)


def _load_seed(path):
    text = _read_input(path)
    try:
        fixed, seed = parse_seed_file(text)
    except (ValueError, KeyError) as exc:
        raise CliError("seed file parse error: %s" % exc, 2)
    return text, fixed, seed


def _parse_word(word, fixed):
    if not word:
        return ()
    try:
        out = tuple(int(x) - 1 for x in word.split(","))
    except ValueError:
        raise CliError("bad mutation word %r" % word, 2)
    for k in out:
        if k not in fixed.unfrozen:
            raise CliError("index %d is not unfrozen" % (k + 1,), 3)
    return out


def _parse_vec(text, name):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise CliError("bad %s vector %r" % (name, text), 2)


def _cache_dir(out):
    env = os.environ.get("GCSDIAG_CACHE")
    if env:
        return env
    base = os.path.dirname(os.path.abspath(out)) if out else os.getcwd()
    return os.path.join(base, ".gcsdiag-cache")


@functools.lru_cache(maxsize=1)
def _code_digest():
    """Digest of the package's own sources, so a code change misses the cache."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\x00" + fh.read())
    return h.hexdigest()


def _cached_text(key_parts, producer, no_cache, out):
    if no_cache:
        return producer()
    key = hashlib.sha256("\x00".join([_code_digest()] + key_parts).encode("utf-8")).hexdigest()
    cdir = _cache_dir(out)
    path = os.path.join(cdir, key)
    # the cache is best effort: an entry that cannot be read or decoded is a
    # miss, and a result that cannot be stored is returned uncached
    with contextlib.suppress(OSError, UnicodeError):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    text = producer()
    with contextlib.suppress(OSError):
        os.makedirs(cdir, exist_ok=True)
        _write_atomic(path, text)
    return text


def _write_atomic(path, text):
    """Write text to path through a temporary file in its directory, with the mode open() gives."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".gcsdiag-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # refuses an existing name
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)
        raise


def _emit(text, out):
    if out:
        try:
            _write_atomic(out, text)
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (out, exc.strerror or exc), 2)
    else:
        sys.stdout.write(text)


def _build_diagram(fixed, seed, order, variant):
    if order < 1:
        raise CliError("order must be >= 1", 3)
    try:
        if variant in ("left", "right"):
            fixed, seed = (left_companion if variant == "left" else right_companion)(fixed, seed)
        build = initial_diagram_prin if variant in ("Aprin", "X") else initial_diagram
        diag = complete_rank2(build(fixed, seed, order))
        return slice_to_X(diag) if variant == "X" else diag
    except ValueError as exc:
        raise CliError(str(exc), 3)
    except RuntimeError as exc:  # completion stalled: a verification failure
        raise CliError(str(exc), 4)
    except (OverflowError, MemoryError):  # a wall's coefficient list does not fit
        raise CliError("order %d is too large" % order, 3)


def mutate(seed_file, word, out):
    """Mutate a seed and report basis vectors and cluster variables."""
    _, fixed, seed = _load_seed(seed_file)
    w = _parse_word(word, fixed)
    state = ClusterState(fixed, seed)
    try:
        for k in w:
            state = mutate_cluster(state, k)
    except ValueError as exc:
        raise CliError(str(exc), 4)
    sd = state.seed
    lines = [serialize_seed_file(fixed, sd).rstrip("\n")]
    lines.append("epsilon %s" % " ".join(str(x) for row in epsilon(fixed, sd) for x in row))
    lines.append("c %s" % " ".join(str(x) for row in c_vectors(sd) for x in row))
    lines.append("g %s" % " ".join(str(x) for row in g_vectors(sd) for x in row))
    for i, expr in enumerate(state.exprs):
        lines.append("x.%d %s" % (i + 1, cluster_variable_text(expr, state.xs)))
    _emit("\n".join(lines) + "\n", out)


def complete(seed_file, order, variant, out, no_cache):
    """Complete the scattering diagram and dump its walls."""
    text, fixed, seed = _load_seed(seed_file)

    def produce():
        return dump_diagram(_build_diagram(fixed, seed, order, variant), variant)

    _emit(_cached_text(["complete", text, str(order), variant], produce, no_cache, out), out)


def theta_cmd(seed_file, order, m0, q, out, no_cache):
    """Enumerate broken lines and print the theta report."""
    text, fixed, seed = _load_seed(seed_file)
    m0v = _parse_vec(m0, "m0")
    if len(m0v) != fixed.n or any(x.denominator != 1 for x in m0v):
        raise CliError("--m0 must be %d integers, got %r" % (fixed.n, m0), 2)
    m0v = tuple(int(x) for x in m0v)
    qv = _parse_vec(q, "Q")
    if len(qv) != 2:
        raise CliError("--q must be 2 rationals, got %r" % (q,), 2)

    def produce():
        diag = _build_diagram(fixed, seed, order, "A")
        how = "off the support to" if diag.on_support(qv) else None
        try:
            if how is None:
                try:
                    return theta_report(diag, theta(diag, qv, m0v, order))
                except EndpointNotGeneric:
                    how = "to a generic point"
            point = generic_near(diag, qv, m0v, order)
            res = theta(diag, point, m0v, order)
        except (ValueError, RuntimeError) as exc:
            raise CliError(str(exc), 3)
        return "note: endpoint perturbed %s (%s,%s)\n" % ((how,) + point) + theta_report(diag, res)

    _emit(_cached_text(["theta", text, str(order), m0, q], produce, no_cache, out), out)


# ---------------------------------------------------------------------------
# plotting


def _f6(x):
    return "%.6g" % float(x)


def _svg(elements, size=640):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (size, size, size, size))
    axes = ('<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>'
            '<line x1="%d" y1="0" x2="%d" y2="%d" stroke="#ddd"/>'
            % (size // 2, size, size // 2, size // 2, size // 2, size))
    return head + axes + "".join(elements) + "</svg>\n"


def _to_px(p, scale, size):
    return (size / 2 + float(p[0]) * scale, size / 2 - float(p[1]) * scale)


def _parse_frac_pair(txt):
    a, b = txt.strip("()").split(",")
    return (Fraction(a), Fraction(b))


def _plot_dump(text):
    size, scale = 640, 60
    radius = size / 2
    elems = []
    for line in text.splitlines():
        head, _, label = line.partition(" f=")
        parts = head.split()
        if not parts or parts[0] not in ("line", "ray"):
            continue
        fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        dx, dy = _parse_frac_pair(fields["direction"])
        norm = (float(dx) ** 2 + float(dy) ** 2) ** 0.5
        ux, uy = float(dx) / norm, float(dy) / norm
        ends = [(ux * radius / scale, uy * radius / scale)]
        if parts[0] == "line":
            ends.append((-ends[0][0], -ends[0][1]))
        else:
            ends.append((0, 0))
        (x1, y1), (x2, y2) = (_to_px(e, scale, size) for e in ends)
        elems.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
                     % (_f6(x1), _f6(y1), _f6(x2), _f6(y2)))
        lx, ly = _to_px((ux * 0.8 * radius / scale, uy * 0.8 * radius / scale), scale, size)
        elems.append('<text x="%s" y="%s" font-size="10">%s</text>'
                     % (_f6(lx), _f6(ly), label.replace("&", "&amp;").replace("<", "&lt;")))
    return _svg(elems, size)


def _plot_theta(text):
    size, scale = 640, 60
    elems = []
    colors = ["#c00", "#06c", "#080", "#a0a", "#c60", "#066"]
    header = None
    idx = 0
    for line in text.splitlines():
        if line.startswith("theta "):
            header = dict(p.split("=", 1) for p in line.split()[1:])
            continue
        if not line.startswith("line "):
            continue
        head, _, trail = line.partition(" trail=")
        fields = dict(p.split("=", 1) for p in head.split()[1:] if "=" in p)
        Q = _parse_frac_pair(header["Q"])
        pts = []
        if fields["points"] != "-":
            pts = [_parse_frac_pair(p) for p in fields["points"].split(";")]
        # trail exponents give the travel direction -m of each segment
        exps = []
        for piece in trail.split(" -> "):
            zpart = piece[piece.index("z^(") + 3:piece.index(")", piece.index("z^("))]
            exps.append(tuple(int(x) for x in zpart.split(",")))
        first_end = pts[0] if pts else Q
        m0 = exps[0]
        start = (first_end[0] + 4 * m0[0], first_end[1] + 4 * m0[1])
        poly = [start] + pts + [Q]
        px = " ".join("%s,%s" % (_f6(x), _f6(y))
                      for x, y in (_to_px(p, scale, size) for p in poly))
        elems.append('<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
                     % (px, colors[idx % len(colors)]))
        ex, ey = _to_px(poly[0], scale, size)
        elems.append('<text x="%s" y="%s" font-size="10">z^(%s)</text>'
                     % (_f6(ex), _f6(ey), ",".join(str(x) for x in exps[-1])))
        idx += 1
    return _svg(elems, size)


def plot(input_file, out):
    """Render a diagram dump or theta report as a deterministic SVG."""
    body = _read_input(input_file)
    if body.startswith("note:"):
        body = body.partition("\n")[2]
    if body.startswith("order "):
        what, render = "diagram dump", _plot_dump
    elif body.startswith("theta "):
        what, render = "theta report", _plot_theta
    else:
        raise CliError("unrecognized input: expected a diagram dump or theta report", 2)
    try:
        svg = render(body)
    except (ValueError, KeyError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise CliError("malformed %s: %r" % (what, exc), 2)
    _emit(svg, out)


# ---------------------------------------------------------------------------
# verification


def check(seed_file, order, depth, out):
    """Run consistency, mutation-equivalence, sign-coherence and Laurent checks."""
    _, fixed, seed = _load_seed(seed_file)
    if depth < 0:
        raise CliError("depth must be >= 0", 3)
    if fixed.n != 2 or len(fixed.unfrozen) != 2:
        raise CliError("check needs a rank-2 seed without frozen directions: "
                       "T_k needs plane exponents", 3)
    lines = []
    failed = False

    try:
        top = max(tk_order_boost(fixed, seed, k) for k in fixed.unfrozen)
    except ValueError as exc:
        raise CliError(str(exc), 3)
    # a T_k image's terms up to order come from terms up to order * boost_k <= order * top
    full = _build_diagram(fixed, seed, order * top, "A")
    diag = _reorder(full, order)
    ok, mono = check_consistency(diag)
    lines.append("consistency: %s" % ("pass" if ok else "FAIL at z^(%s)" % (",".join(map(str, mono)))))
    failed |= not ok

    for k in fixed.unfrozen:
        try:
            dk = _reorder(apply_Tk(full, k), order)
            d2 = complete_rank2(initial_diagram(fixed, mutate_seed(fixed, seed, k), order))
            ok = equivalence_check(dk, d2)
        except (ValueError, RuntimeError) as exc:
            lines.append("mutation-equivalence k=%d: FAIL (%s)" % (k + 1, exc))
            failed = True
            continue
        lines.append("mutation-equivalence k=%d: %s" % (k + 1, "pass" if ok else "FAIL"))
        failed |= not ok

    ok, word = sign_coherence_check(fixed, seed, depth)
    lines.append("sign-coherence depth=%d: %s" % (
        depth, "pass" if ok else "FAIL at word %s" % (",".join(str(k + 1) for k in word))))
    failed |= not ok

    def cluster_step(state, k):
        try:
            return mutate_cluster(state, k)
        except ValueError:
            return None  # a non-Laurent exchange; reported at this word

    # mutate_cluster proves each new variable Laurent, so the first failed
    # step is the first non-Laurent word
    bad = next((w for w, state in mutation_walk(fixed, ClusterState(fixed, seed), min(depth, 4),
                                                cluster_step) if state is None), None)
    lines.append("laurent: %s" % (
        "pass" if bad is None else "FAIL at word %s" % (",".join(str(k + 1) for k in bad))))
    failed |= bad is not None

    _emit("\n".join(lines) + "\n", out)
    if failed:
        raise CliError("verification failed", 4)


def companions(seed_file, out):
    """Print the left/right companion and Langlands dual data."""
    _, fixed, seed = _load_seed(seed_file)
    blocks = []
    for name, builder in (("left", left_companion), ("right", right_companion),
                          ("langlands", langlands_dual)):
        try:
            f2, s2 = builder(fixed, seed)
        except ValueError as exc:
            blocks.append("%s: unavailable (%s)" % (name, exc))
            continue
        blocks.append("%s:\n%s" % (name, serialize_seed_file(f2, s2).rstrip("\n")))
    _emit("\n".join(blocks) + "\n", out)


# ---------------------------------------------------------------------------
# argument parsing


def _parser(prog):
    """The argument parser, and the option strings that take a value."""
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Generalized cluster scattering diagrams with exact arithmetic.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    actions = []

    def command(func, name, infile="SEED_FILE"):
        cmd = commands.add_parser(name, help=func.__doc__, description=func.__doc__,
                                  allow_abbrev=False)
        cmd.set_defaults(func=func)
        cmd.add_argument(infile.lower(), metavar=infile)

        def option(*names, **kwargs):
            actions.append(cmd.add_argument(*names, **kwargs))

        option("--out", help="write to this file instead of stdout")
        return option

    option = command(mutate, "mutate")
    option("--word", default="", help="comma-separated 1-based mutation word")
    option = command(complete, "complete")
    option("--order", default=6, type=int)
    option("--variant", default="A", choices=["A", "Aprin", "X", "left", "right"])
    option("--no-cache", action="store_true")
    option = command(theta_cmd, "theta")
    option("--order", default=6, type=int)
    option("--m0", required=True, help="initial exponent, e.g. 0,-1")
    option("--q", "--Q", dest="q", required=True, help="endpoint, e.g. 3/2,1")
    option("--no-cache", action="store_true")
    command(plot, "plot", "INPUT_FILE")
    option = command(check, "check")
    option("--order", default=8, type=int)
    option("--depth", default=5, type=int)
    command(companions, "companions")
    return parser, {name for a in actions if a.nargs is None for name in a.option_strings}


def _join_values(argv, valued):
    """argv with each option that takes a value joined to the next token as `--opt=value`.

    An option takes the next token whatever it begins with.  argparse alone
    refuses a separate value that begins with "-" unless it reads as a plain
    number, so `--m0 -2,-2` would be a usage error.
    """
    out, tokens = [], iter(argv)
    for tok in tokens:
        if tok == "--":  # every token after it is positional
            return out + [tok] + list(tokens)
        value = next(tokens, None) if tok in valued else None
        out.append(tok if value is None else tok + "=" + value)
    return out


def main(args=None, prog_name=None):
    """Run one command and exit: 0 on success, 2 on a usage error, else the CliError's code."""
    parser, valued = _parser(prog_name or "gcsdiag")
    opts = vars(parser.parse_args(_join_values(sys.argv[1:] if args is None else args, valued)))
    run = opts.pop("func")
    try:
        run(**opts)
    except CliError as exc:
        sys.stderr.write("Error: %s\n" % exc)
        sys.exit(exc.exit_code)
    except KeyboardInterrupt:
        sys.stderr.write("\nAborted!\n")
        sys.exit(1)
    except BrokenPipeError:  # the reader of stdout has gone
        # stdout's buffer is flushed again at exit, so send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
