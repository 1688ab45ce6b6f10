"""Command-line interface.

Subcommands:
  analyze  closed-form cycle structure for one (q, n), optional brute check
  graph    full functional graph of one system, as DOT or JSON
  sweep    prime-averaged period counts against the analytic mean
  ffield   function-field densities, means and oscillation series
  verify   the cross-validation battery (quick or full scope)

Exit codes: 0 success, 1 invariant violation or failed verification,
2 bad input (including an unwritable --output), 3 resource cap exceeded,
4 internal error (an unexpected exception, reported in one line; this
includes a verify check that crashes rather than fails).

Each command imports only the layers it runs: `graph` and `analyze
--a/--brute` the array modules `finite_field` and `graph_engine`,
`verify` the battery, `sweep` numpy for its sieve.  The closed forms
(`analyze`, every `ffield` mode), --help and their refusals never load
numpy.

Each command builds only its own parser, from the `COMMANDS` table.
The full argparse tree is built only for top-level help and top-level
usage errors (no or an unknown command, leftover arguments), so every
help and error text is the one the full tree prints.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import function_field, mean_values, monomial
from .errors import InputRangeError, InvariantViolation, ResourceCapError
from .numtheory import check_prime_power, check_range
from .reporting import comment_header, envelope, ff_csv, render_json, sweep_csv

#: Characters of a report handed to the file per write.
WRITE_CHUNK = 2**20


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True, help="prime power field size")
    p.add_argument("--n", type=int, required=True, help="exponent, >= 2")
    p.add_argument(
        "--a", type=int, default=1, help="coefficient index, 1 <= a < q"
    )
    p.add_argument(
        "--brute",
        action="store_true",
        help="also enumerate the graph and cross-check",
    )


def _graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--format", choices=("dot", "json"), default="json")


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, required=True, help="exact period")
    p.add_argument("--s", type=int, default=1, help="field degree p^s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True, help="prime bound")
    p.add_argument(
        "--checkpoints",
        type=str,
        default=None,
        help="comma-separated report points, e.g. 100,1000,10000",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--threads", type=int, default=1)


def _ffield_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="cycle length")
    p.add_argument("--n", type=int, default=None, help="exponent for means")
    p.add_argument("--t", type=int, default=None, help="degree bound")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--density", action="store_true", help="Dirichlet density of S_r"
    )
    mode.add_argument(
        "--dmean", action="store_true", help="Dirichlet mean period counts"
    )
    mode.add_argument(
        "--oscillate", action="store_true", help="natural-density series"
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scope", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=0)


#: command -> (its line in the top-level help, what adds its arguments)
COMMANDS = {
    "analyze": ("closed-form structure of x -> a x^n", _analyze_args),
    "graph": ("full functional graph of one system", _graph_args),
    "sweep": ("prime-averaged period counts", _sweep_args),
    "ffield": ("densities over F_q(T)", _ffield_args),
    "verify": ("cross-validation battery", _verify_args),
}


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    COMMANDS[command][1](p)
    p.add_argument(
        "--output", type=str, default=None, help="write to file, not stdout"
    )


def _build_parser() -> argparse.ArgumentParser:
    """The full tree, for top-level help and top-level usage errors."""
    parser = argparse.ArgumentParser(
        prog="monodyn",
        description="cycle structure of monomial maps on finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=text), command)
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse with the named command's parser alone, the way the full
    tree's subparser would; any other line goes to the full tree."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"monodyn {argv[0]}")
        _add_arguments(parser, argv[0])
        # starting from `command` keeps vars(args) in the full tree's order
        args, rest = parser.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
        # leftovers: the full tree reports them with its own usage
    return _build_parser().parse_args(argv)


def _config(args) -> dict:
    """A report's config: every parsed option but the command, --output
    and --threads, in parser order."""
    skip = ("command", "output", "threads")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _cmd_analyze(args) -> tuple:
    p, s = check_prime_power(args.q)
    prof = monomial.profile(args.q, args.n)
    result = {
        "q": args.q,
        "n": args.n,
        "q_star": monomial.q_star(args.q, args.n),
        "r_hat": prof.r_hat,
        "bijective": monomial.is_bijective(args.q, args.n),
        "fixed_point_system": monomial.is_fixed_point_system(args.q, args.n),
        "periodic_by_period": prof.per_period,
        "cycles_by_length": prof.per_length,
        "periodic_total": sum(prof.per_period.values()),
        "cycle_total": sum(prof.per_length.values()),
    }
    if args.a != 1 or args.brute:
        from . import finite_field, graph_engine

        spec = finite_field.make_field(p, s)
        sys_ = graph_engine.monomial_system(spec, args.n, args.a)
        if args.brute:
            st = graph_engine.build(sys_)
            rep = graph_engine.dichotomy_report(sys_, st, strict=False)
            result["brute"] = {
                **graph_engine.census(st),
                "has_nonzero_fixed": rep.has_nonzero_fixed,
                "match": rep.passed,
            }
        else:
            fixed = graph_engine.is_mth_power(spec, args.a, args.n - 1)
            result["has_nonzero_fixed"] = fixed
    return _config(args), result, None


def _cmd_graph(args) -> tuple:
    p, s = check_prime_power(args.q)
    from . import finite_field, graph_engine

    spec = finite_field.make_field(p, s)
    sys_ = graph_engine.monomial_system(spec, args.n, args.a)
    st = graph_engine.build(sys_)
    if args.format == "dot":
        return _config(args), st, graph_engine.export_dot
    return _config(args), graph_engine.orbit_document(sys_, st), None


def _parse_checkpoints(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InputRangeError(f"bad checkpoint list: {text!r}") from None


def _cmd_sweep(args) -> tuple:
    check_range(args.threads, "--threads", 1, mean_values.MAX_WORKERS)
    rep = mean_values.empirical_mean(
        args.r,
        args.s,
        args.n,
        args.t,
        checkpoints=_parse_checkpoints(args.checkpoints),
        workers=args.threads,
    )
    return _config(args), rep, sweep_csv if args.format == "csv" else None


def _cmd_ffield(args) -> tuple:
    q = args.q
    if args.format == "csv" and not args.oscillate:
        raise InputRangeError("--format csv is written only by --oscillate")
    mode = "density" if args.density else "dmean" if args.dmean else "oscillate"
    reads = {"density": ("r",), "dmean": ("n", "r"), "oscillate": ("r", "t")}[mode]
    for name in ("n", "t"):
        if name not in reads and getattr(args, name) is not None:
            raise InputRangeError(f"--{name} is not read by --{mode}")
    if any(getattr(args, name) is None for name in reads):
        needs = " and ".join(f"--{name}" for name in reads)
        raise InputRangeError(f"--{mode} requires {needs}")
    inputs = {"q": q, **{name: getattr(args, name) for name in reads}}
    config = {**inputs, "mode": mode}
    if args.density:
        result = {
            **inputs,
            "dirichlet_density": function_field.dirichlet_density_S(q, args.r),
            "subsequence_limits": function_field.subsequence_limits(q, args.r),
        }
        return config, result, None
    if args.dmean:
        d = function_field.dirichlet_D_K(q, args.n, args.r)
        result = {**inputs, "dirichlet_D": d, "dirichlet_C": d / args.r}
        return config, result, None
    rep = function_field.oscillation_experiment(q, args.r, args.t)
    config["format"] = args.format
    return config, rep, ff_csv if args.format == "csv" else None


def _cmd_verify(args) -> tuple[str, int]:
    from .verify import run_verification

    results = run_verification(args.scope, args.seed)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{status}  {r.name}  [{r.seconds:.2f}s]{extra}")
    n_ok = sum(r.ok for r in results)
    ok = n_ok == len(results)
    lines.append(
        f"{'OK' if ok else 'FAILED'}: {n_ok}/{len(results)} "
        f"checks passed (scope={args.scope}, seed={args.seed})"
    )
    return "\n".join(lines) + "\n", 0 if ok else 1


def _write(fh, text: str) -> None:
    """Write text WRITE_CHUNK characters at a time, so that no encoded
    copy of a whole report is made beside it."""
    for lo in range(0, len(text), WRITE_CHUNK):
        fh.write(text[lo : lo + WRITE_CHUNK])


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    code, line = 0, None
    try:
        if args.command == "verify":
            text, code = _cmd_verify(args)
        else:
            # every _cmd_* but verify returns (config, result, writer); it is
            # looked up per call, so a replaced _cmd_* is the one that runs
            config, result, writer = globals()["_cmd_" + args.command](args)
            if writer is None:  # the JSON envelope
                text = render_json(envelope(args.command, config, result))
            else:
                text = writer(result, comment_header(args.command, config))
    except InputRangeError as exc:
        code, line = 2, f"error: {exc}"
    except ResourceCapError as exc:
        code, line = 3, f"error: {exc}"
    except InvariantViolation as exc:
        code, line = 1, f"invariant violated: {exc}"
    except Exception as exc:
        # a defect, not a verdict: exit 1 stays "a cross-check failed"
        text = " ".join(f"{type(exc).__name__}: {exc}".split())
        code, line = 4, f"error: internal: {text}"
    else:
        try:
            if args.output is None:
                _write(sys.stdout, text)
            else:
                with open(args.output, "w") as fh:
                    _write(fh, text)
        except OSError as exc:
            target = args.output or "standard output"
            code, line = 2, f"error: cannot write {target}: {exc.strerror or exc}"
    if line is not None:
        # a run of over 40 digits, such as a huge q or n, is shown as its
        # first 12 digits and its length
        line = re.sub(r"\d{41,}", lambda m: f"{m[0][:12]}...({len(m[0])} digits)", line)
        print(line, file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())
