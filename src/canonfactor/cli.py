"""Batch command line front end.

Deliberately import-light at module level: all numeric imports happen
inside the handlers, after every flag value and the weight spec are
parsed, so --help and a malformed command line, INI file, flag value or
weight spec answer without importing numpy (an unknown weight family or
an unreadable file may come after it).

Exit codes: 0 ok, 1 acceptance failures, 2 configuration problems
(including a malformed command line, a non-finite number, and any path
that cannot be read or written), 3 domain errors from the modules, a
floating-point breakdown (kind=domain) and any other exception
(kind=internal), 4 convergence errors.  Failures print a single
machine-parsable line ``canonfactor: error kind=... detail=...`` on
stderr.
"""

import argparse
import configparser
import math
import sys
import warnings


class ConfigError(Exception):
    pass


# -- argument plumbing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error raises ConfigError, so it becomes one error line
    and exit 2 like every other configuration problem."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _finite(text):
    """A finite float (argparse type)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _positive(text):
    """A finite float > 0 (argparse type)."""
    value = _finite(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"not positive: {text!r}")
    return value


def _build_parser():
    p = _Parser(
        prog="canonfactor",
        description="Canonical systems: forward/inverse spectral problems, "
                    "wave transforms, and triangular factorization.")
    p.add_argument("--config", help="INI file; [common] plus per-command "
                                    "sections; flags override")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for property-test instance generation")
    sub = p.add_subparsers(dest="command", required=True)

    fw = sub.add_parser("forward", help="transfer matrices / density samples "
                                        "from a Hamiltonian file")
    fw.add_argument("--hamiltonian", required=True)
    fw.add_argument("--times", default="", help="comma list of t values")
    fw.add_argument("--z", default="", help="comma list of complex z")
    fw.add_argument("--density-grid", default="",
                    help="a:b:n real grid for boundary density samples")
    fw.add_argument("--out", default="-", help="output file, - for stdout")

    wy = sub.add_parser("weyl", help="Weyl function values on a z grid")
    wy.add_argument("--hamiltonian", required=True)
    wy.add_argument("--z", required=True, help="comma list of complex z")
    wy.add_argument("--tol-weyl", type=_finite, default=1e-10)
    wy.add_argument("--out", default="-")

    sz = sub.add_parser("szego", help="K(mu, iy) table for a weight")
    sz.add_argument("--weight", required=True,
                    help="family spec like step:inner=2,half_width=1 or "
                         "constant:c=2, or @FILE / file:FILE")
    sz.add_argument("--y", default="1", help="comma list of heights y > 0")
    sz.add_argument("--out", default="-")

    a2 = sub.add_parser("a2", help="A2 characteristics of a half-line function")
    a2.add_argument("--function", required=True, help="#halfline v1 file")
    a2.add_argument("--tail", type=_finite, default=None,
                    help="constant tail if the file has none")
    a2.add_argument("--window", type=_finite, default=2.0)
    a2.add_argument("--out", default="-")

    dc = sub.add_parser("decompose", help="L1+L2 split of a half-line function")
    dc.add_argument("--function", required=True)
    dc.add_argument("--out-f1", required=True)
    dc.add_argument("--out-f2", required=True)
    dc.add_argument("--out", default="-")

    iv = sub.add_parser("invert", help="weight -> Hamiltonian file")
    iv.add_argument("--weight", required=True)
    iv.add_argument("--span", type=_positive, required=True,
                    help="R: H lives on [0,R]")
    iv.add_argument("--cells", type=int, required=True)
    iv.add_argument("--truncate", type=_positive, default=None,
                    help="truncate the weight to [-j, j] first")
    iv.add_argument("--out-hamiltonian", required=True)
    iv.add_argument("--out", default="-")

    tr = sub.add_parser("transform", help="F_mu f samples and isometry residual")
    tr.add_argument("--hamiltonian", required=True)
    tr.add_argument("--function", required=True)
    tr.add_argument("--z", default="", help="comma list of complex z")
    tr.add_argument("--weight", default="",
                    help="weight for the isometry residual (optional)")
    tr.add_argument("--x-truncation", type=_positive, default=1e3)
    tr.add_argument("--out", default="-")

    fz = sub.add_parser("factorize", help="weight -> triangular factor + report")
    fz.add_argument("--weight", required=True)
    fz.add_argument("--window", type=_positive, required=True,
                    help="R: discretize on [0, R]")
    fz.add_argument("--cells", type=int, required=True)
    fz.add_argument("--out-factor", default="")
    fz.add_argument("--out-cholesky", default="")
    fz.add_argument("--out", default="-")

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.add_argument("--only", default="", help="comma list of criterion numbers")
    vf.add_argument("--out", default="-")
    return p


def _merge_config(parser, argv):
    """Let an INI file supply defaults; explicit flags still win."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return parser.parse_args(argv)
    cp = configparser.ConfigParser()
    try:
        with open(known.config) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {known.config}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"bad config {known.config}: {exc}")
    spa = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    # first bare token that names a subcommand (a flag value like the
    # config path itself can come earlier)
    command = next((a for a in argv if a in spa.choices), None)
    child = spa.choices.get(command)
    dests = {a.dest for a in child._actions} if child is not None else set()
    top = {a.dest for a in parser._actions}
    anywhere = {a.dest for p in spa.choices.values() for a in p._actions}
    defaults = {}
    # a key that no option takes would be dropped silently; a [common]
    # key may serve another command
    for section, takes in (("common", top | anywhere), (command, top | dests)):
        if section and cp.has_section(section):
            for key, val in cp.items(section):
                if key.replace("-", "_") not in takes:
                    raise ConfigError(
                        f"config {known.config}: key {key!r} in [{section}] "
                        "is no option of "
                        f"{'any' if section == 'common' else section} command")
                defaults[key.replace("-", "_")] = val
    # push defaults for the invoked subcommand onto its own parser: that
    # both satisfies required options and lets argparse type-convert the
    # string values; leftovers go on the top-level parser
    if child is not None:
        child_defaults = {k: v for k, v in defaults.items() if k in dests}
        child.set_defaults(**child_defaults)
        for a in child._actions:
            if a.required and a.dest in child_defaults:
                a.required = False
        defaults = {k: v for k, v in defaults.items() if k not in dests}
    parser.set_defaults(**defaults)
    # string defaults hit each action's type= during parsing, so the
    # config file never needs its own conversion table
    return parser.parse_args(argv)


def _parse_list(text, kind):
    """Comma list of finite numbers of the given kind (float or complex)."""
    try:
        values = [kind(s.strip()) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {kind.__name__} list {text!r}: {exc}")
    if not all(math.isfinite(abs(v)) for v in values):
        raise ConfigError(f"bad {kind.__name__} list {text!r}: not finite")
    return values


def _resolve_weight(spec):
    """The weight of a spec, parsed before numpy is imported."""
    for prefix in ("@", "file:"):
        if spec.startswith(prefix):
            from .measures import read_weight
            return read_weight(spec[len(prefix):])
    name, _, rest = spec.partition(":")
    params = {}
    for item in rest.split(","):
        if not item.strip():
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ConfigError(f"weight parameter {item!r} is not key=value")
        try:
            params[key.strip()] = _finite(val)
        except argparse.ArgumentTypeError:
            raise ConfigError(f"weight parameter {item!r} is not a finite "
                              "number")
    from .measures import WEIGHT_FAMILIES, weight_by_name
    name = name.strip()
    if name not in WEIGHT_FAMILIES:
        raise ConfigError(f"unknown weight family {name!r}; know "
                          f"{sorted(WEIGHT_FAMILIES)}")
    try:
        return weight_by_name(name, **params)
    except TypeError as exc:
        raise ConfigError(f"unknown weight spec {spec!r}: {exc}")


class _Out:
    """stdout or a file, with deterministic newline-joined writes."""

    def __init__(self, target):
        self.target = target
        self.lines = []

    def write(self, line):
        self.lines.append(line)

    def close(self):
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.target in ("-", ""):
            sys.stdout.write(text)
        else:
            with open(self.target, "w") as fh:
                fh.write(text)


def _fmt(x):
    return repr(float(x))


def _fmtc(z):
    z = complex(z)
    return f"{_fmt(z.real)} {_fmt(z.imag)}"


# -- handlers ------------------------------------------------------------------

def _cmd_forward(args, out):
    ts = _parse_list(args.times, float)
    zs = _parse_list(args.z, complex)
    if args.density_grid:
        try:
            a, b, n = args.density_grid.split(":")
            a, b, n = float(a), float(b), int(n)
            if not (math.isfinite(a) and math.isfinite(b) and n >= 1):
                raise ValueError("need finite a, b and an integer n >= 1")
        except ValueError as exc:
            raise ConfigError(f"bad density grid {args.density_grid!r}: {exc}")
    from .hamiltonian import read_hamiltonian
    from .solver import transfer_matrix
    ham = read_hamiltonian(args.hamiltonian)
    if ts and zs:
        out.write("# t Re(z) Im(z) m00 m01 m10 m11 (Re Im each)")
        for t in ts:
            for z in zs:
                M = transfer_matrix(ham, t, z).m
                cells = " ".join(_fmtc(M[i, j]) for i in (0, 1) for j in (0, 1))
                out.write(f"{_fmt(t)} {_fmtc(z)} {cells}")
    if args.density_grid:
        import numpy as np
        from .weyl import spectral_density
        xs = np.linspace(a, b, n)
        dens = spectral_density(ham, xs)
        out.write("# x density")
        for x, w in zip(xs, np.atleast_1d(dens)):
            out.write(f"{_fmt(x)} {_fmt(w)}")
    return 0


def _cmd_weyl(args, out):
    zs = _parse_list(args.z, complex)
    if not zs:
        raise ConfigError("--z names no point")
    from .hamiltonian import read_hamiltonian
    from .weyl import weyl_sweep
    import numpy as np
    ham = read_hamiltonian(args.hamiltonian)
    m, d = weyl_sweep(ham, np.array(zs), tol=args.tol_weyl)
    worst = float(np.max(d))
    if worst > args.tol_weyl:
        from .errors import ConvergenceError
        raise ConvergenceError(
            f"Weyl disk diameter {worst:.3e} above tol {args.tol_weyl:.1e}")
    out.write("# Re(z) Im(z) Re(m) Im(m) disk_diameter")
    for z, mv, dv in zip(zs, m, d):
        out.write(f"{_fmtc(z)} {_fmtc(mv)} {_fmt(dv)}")
    return 0


def _cmd_szego(args, out):
    ys = _parse_list(args.y, float)
    mu = _resolve_weight(args.weight)
    from .weyl import szego_K
    out.write("# y K(mu, iy)")
    for y in ys:
        out.write(f"{_fmt(y)} {_fmt(szego_K(mu, 1j * y))}")
    return 0


def _cmd_a2(args, out):
    from .halfline import a2_classical, a2_ell1, read_halfline
    f = read_halfline(args.function, tail=args.tail)
    out.write(f"a2_classical={_fmt(a2_classical(f))}")
    out.write(f"a2_ell1={_fmt(a2_ell1(f, window=args.window))}")
    return 0


def _cmd_decompose(args, out):
    from .halfline import (decompose_L1_L2, norm_L1, norm_L1_plus_L2, norm_L2,
                           read_halfline, write_halfline)
    f = read_halfline(args.function)
    f1, f2 = decompose_L1_L2(f)
    write_halfline(f1, args.out_f1)
    write_halfline(f2, args.out_f2)
    out.write(f"norm_l1_plus_l2={_fmt(norm_L1_plus_L2(f))}")
    out.write(f"norm_l1_f1={_fmt(norm_L1(f1))}")
    out.write(f"norm_l2_f2={_fmt(norm_L2(f2))}")
    return 0


def _cmd_invert(args, out):
    mu = _resolve_weight(args.weight)
    from .accelerant import truncate_weight
    from .hamiltonian import write_hamiltonian
    from .inverse import inverse_spectral
    if args.truncate is not None:
        mu = truncate_weight(mu, args.truncate)
    ham, report = inverse_spectral(mu, args.span, args.cells, report=True)
    write_hamiltonian(ham, args.out_hamiltonian)
    out.write(f"cells={report.n_cells}")
    out.write(f"eta={_fmt(report.eta)}")
    out.write(f"cond={_fmt(report.cond)}")
    out.write(f"max_det_dev={_fmt(report.max_det_dev)}")
    out.write(f"ill_conditioned={report.ill_conditioned}")
    out.write(f"min_eig={_fmt(report.min_eig)}")
    out.write(f"max_eig={_fmt(report.max_eig)}")
    out.write(f"pe_floor={_fmt(report.pe_floor)}")
    out.write(f"max_reflection={_fmt(report.max_reflection)}")
    return 0


def _cmd_transform(args, out):
    zs = _parse_list(args.z, complex)
    mu = _resolve_weight(args.weight) if args.weight else None
    from .halfline import read_halfline
    from .hamiltonian import read_hamiltonian
    from .transform import f_mu_apply, isometry_residual
    ham = read_hamiltonian(args.hamiltonian)
    f = read_halfline(args.function)
    if zs:
        import numpy as np
        vals = f_mu_apply(ham, f, np.array(zs))
        out.write("# Re(z) Im(z) Re(Ff) Im(Ff)")
        for z, v in zip(zs, np.atleast_1d(vals)):
            out.write(f"{_fmtc(z)} {_fmtc(v)}")
    if mu is not None:
        res = isometry_residual(ham, mu, f, X=args.x_truncation)
        out.write(f"isometry_residual={_fmt(res)}")
    return 0


def _cmd_factorize(args, out):
    mu = _resolve_weight(args.weight)
    from .factorize import (build_toeplitz, cholesky_oracle,
                            factor_via_transform, write_matrix)
    A, report = factor_via_transform(mu, args.window, args.cells)
    if args.out_factor:
        write_matrix(A, args.out_factor)
    if args.out_cholesky:
        wh = build_toeplitz(mu, args.cells, args.window / args.cells)
        write_matrix(cholesky_oracle(wh.matrix), args.out_cholesky)
    for line in str(report).splitlines():
        out.write(line)
    return 0


def _cmd_verify(args, out):
    indices = None
    if args.only.strip():
        try:
            indices = [int(s) for s in args.only.split(",") if s.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad criterion list {args.only!r}: {exc}")
        if not indices:
            raise ConfigError(f"criterion list {args.only!r} names none")
    from .acceptance import run_acceptance
    results = run_acceptance(indices=indices, printer=out.write,
                             seed=args.seed)
    failed = [r.index for r in results if not r.passed]
    out.write(f"passed {len(results) - len(failed)}/{len(results)}")
    return 1 if failed else 0


_HANDLERS = {
    "forward": _cmd_forward,
    "weyl": _cmd_weyl,
    "szego": _cmd_szego,
    "a2": _cmd_a2,
    "decompose": _cmd_decompose,
    "invert": _cmd_invert,
    "transform": _cmd_transform,
    "factorize": _cmd_factorize,
    "verify": _cmd_verify,
}


def _fail(kind, detail, code):
    """Print the one error line (whitespace collapsed) and return code."""
    detail = " ".join(str(detail).split())
    print(f"canonfactor: error kind={kind} detail={detail}", file=sys.stderr)
    return code


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _merge_config(_build_parser(), argv)
    except ConfigError as exc:
        return _fail("config", exc, 2)

    from .errors import ConvergenceError, DomainError
    out = _Out(getattr(args, "out", "-"))
    try:
        with warnings.catch_warnings():
            # a floating-point warning means the numerics broke down on
            # this input: one error line, never a nan printed as a result
            warnings.simplefilter("error", RuntimeWarning)
            code = _HANDLERS[args.command](args, out)
        out.close()
    except (ConfigError, OSError) as exc:
        # OSError: an input that cannot be read or an output that cannot
        # be written, such as a directory or a missing parent directory
        return _fail("config", exc, 2)
    except (DomainError, RuntimeWarning) as exc:
        return _fail("domain", exc, 3)
    except ConvergenceError as exc:
        return _fail("convergence", exc, 4)
    except Exception as exc:
        # an untyped error is a defect, never a failed verification (1)
        return _fail("internal", f"{type(exc).__name__}: {exc}", 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
