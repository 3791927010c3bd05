"""Command-line interface.

One subcommand per task, JSON on stdout, diagnostics on stderr.  Output is
deterministic: identical arguments and seeds give byte-identical payloads,
so everything here is scriptable and golden-testable.  Exit codes: 0 ok,
1 domain error (or failed verification), 2 usage error, 3 budget exceeded.
"""

import argparse
import json
import sys

from .checks import run_checks
from .errors import BudgetError, DomainError, InconclusiveError
from .flagalg import (
    dimension,
    express,
    lemma_reduce,
    lincomb_to_json,
    multi_product,
)
from .poly import poly_to_json, x_var
from .rational import Q, as_q, fmt_q
from .construction import (
    build,
    certify_det_nonzero,
    context,
    context_to_json,
    jacobian_at,
    jacobian_symbolic,
    params_from_json,
    params_to_json,
    point_densities,
    unique_full_t_monomial,
)
from .solver import SolveOptions, default_params, probe_ball, solve
from .tournaments import (
    are_isomorphic,
    automorphism_count,
    canonicalize,
    encode,
    enumerate_exact,
    induced,
    is_canonical,
    is_strongly_connected,
    parse,
    strongly_connected_components,
    to_adjacency,
)
from .tournamentons import density, from_json, sample, to_json
from .words import (
    cfl_factorize,
    enumerate_lyndon,
    is_lyndon,
    is_lyndon_tournament,
    lex_compare,
    multi_shuffle,
    parse_word,
    serialize_word,
    sigma_rank,
    tournament_less,
    tournament_of,
    word_of,
)

# designated exposure of every module operation; the test suite audits
# that each appears exactly once
SUBCOMMAND_OPS = {
    "enumerate": ["enumerate_exact", "automorphism_count", "is_strongly_connected"],
    "canon": ["parse", "encode", "canonicalize", "are_isomorphic", "tournament_less"],
    "scc": ["strongly_connected_components"],
    "word": ["word_of", "tournament_of", "sigma_rank", "direct_sum"],
    "lyndon": ["is_lyndon", "is_lyndon_tournament", "enumerate_lyndon", "lex_compare"],
    "factorize": ["cfl_factorize"],
    "shuffle": ["shuffle", "multi_shuffle"],
    "product": ["product", "multi_product", "poly_arithmetic"],
    "express": ["express", "lemma_reduce", "evaluate"],
    "dimension": ["dimension"],
    "density": ["density", "validate"],
    "build-wk": ["context", "build", "default_params"],
    "jacobian": ["jacobian_at", "symbolic_density", "partial_derivative"],
    "certify": ["certify_det_nonzero", "unique_full_t_monomial", "det_rational"],
    "solve": ["solve"],
    "probe": ["probe_ball", "point_densities"],
    "sample": ["sample"],
    "verify": ["normalization_check"],
}


def _emit(payload, pretty):
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise DomainError("cannot read %s: %s" % (path, e)) from None
    except ValueError as e:
        raise DomainError("%s is not valid JSON: %s" % (path, e)) from None


def _target_value(text):
    """'p/q' and integer literals are exact; anything else is a float."""
    text = text.strip()
    if "/" in text:
        return as_q(text)
    try:
        return Q(int(text))
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise DomainError("cannot parse target %r" % text) from None


def _params_for(ctx, path):
    if path is None:
        return default_params(ctx)
    return params_from_json(ctx, _load_json(path))


def _cmd_enumerate(args):
    classes = enumerate_exact(args.n)
    if args.strong:
        classes = [T for T in classes if is_strongly_connected(T)]
    out = {"n": args.n, "count": len(classes),
           "tournaments": [encode(T) for T in classes]}
    if args.aut:
        out["aut"] = [automorphism_count(T) for T in classes]
    return out


def _cmd_canon(args):
    T = parse(args.tournament)
    C = canonicalize(T)
    out = {"canonical": encode(C), "is_canonical": is_canonical(T)}
    if args.adjacency:
        out["adjacency"] = to_adjacency(C)
    if args.against is not None:
        S = parse(args.against)
        out["isomorphic"] = are_isomorphic(T, S)
        if tournament_less(T, S):
            out["order"] = "less"
        elif tournament_less(S, T):
            out["order"] = "greater"
        else:
            out["order"] = "equal"
    return out


def _cmd_scc(args):
    T = parse(args.tournament)
    parts = strongly_connected_components(T)
    return {
        "count": len(parts),
        "parts": [list(p) for p in parts],
        "components": [encode(canonicalize(induced(T, p))) for p in parts],
    }


def _cmd_word(args):
    if args.invert is not None:
        w = parse_word(args.invert)
        return {"tournament": encode(tournament_of(w))}
    if args.tournament is None:
        raise DomainError("need a tournament encoding or --invert")
    T = parse(args.tournament)
    w = word_of(T)
    return {
        "word": serialize_word(w),
        "letters": [
            {"name": l.name, "size": l.size, "rank": sigma_rank(l.tournament)}
            for l in w
        ],
    }


def _cmd_lyndon(args):
    if args.list:
        if args.k is None:
            raise DomainError("--list needs --k")
        found = enumerate_lyndon(args.k)
        return {"k": args.k, "count": len(found),
                "tournaments": [encode(T) for T in found]}
    if args.tournament is not None:
        T = parse(args.tournament)
        return {"tournament": encode(T), "lyndon": is_lyndon_tournament(T)}
    if args.word is None:
        raise DomainError("need --word, --tournament, or --list")
    w = parse_word(args.word)
    if args.compare is not None:
        verdict = lex_compare(w, parse_word(args.compare))
        return {"order": {-1: "less", 0: "equal", 1: "greater"}[verdict]}
    return {"word": serialize_word(w), "lyndon": is_lyndon(w)}


def _cmd_factorize(args):
    w = parse_word(args.word)
    return {"factors": [serialize_word(f) for f in cfl_factorize(w)]}


def _cmd_shuffle(args):
    words = [parse_word(w) for w in args.words]
    combo = multi_shuffle(words)
    return {
        "terms": [
            {"word": serialize_word(w), "coeff": c}
            for w, c in sorted(combo.items(), key=lambda kv: kv[0].ranks)
        ]
    }


def _cmd_product(args):
    parts = [parse(enc) for enc in args.tournaments]
    combo = multi_product(parts)
    return {"terms": lincomb_to_json(combo)}


def _cmd_express(args):
    T = parse(args.tournament)
    if args.lemma:
        gamma, alphas = lemma_reduce(T)
        return {"gamma": fmt_q(gamma), "alphas": lincomb_to_json(alphas)}
    p = express(T)
    out = {"polynomial": poly_to_json(p)}
    if args.at is not None:
        data = _load_json(args.at)
        if not isinstance(data, dict):
            raise DomainError("%s must map letter encodings to densities" % args.at)
        point = {x_var(enc): as_q(v) for enc, v in data.items()}
        out["value"] = fmt_q(p.evaluate(point))
    return out


def _cmd_dimension(args):
    return {"dimension": dimension(args.k)}


def _cmd_density(args):
    T = parse(args.tournament)
    W = from_json(_load_json(args.tournamenton))
    return {"density": fmt_q(density(T, W))}


def _cmd_build_wk(args):
    ctx = context(args.k)
    p = _params_for(ctx, args.params)
    W = build(ctx, p)
    return {
        "context": context_to_json(ctx),
        "params": params_to_json(p),
        "tournamenton": to_json(W),
    }


def _cmd_jacobian(args):
    ctx = context(args.k)
    if args.symbolic:
        J = jacobian_symbolic(ctx)
        return {"symbolic": [[poly_to_json(e) for e in row] for row in J]}
    p = _params_for(ctx, args.params)
    J = jacobian_at(ctx, p)
    return {"jacobian": [[fmt_q(e) for e in row] for row in J]}


def _cmd_certify(args):
    ctx = context(args.k)
    out = {}
    if args.leading:
        out["leading_coefficient"] = fmt_q(unique_full_t_monomial(ctx)[1])
    cert = certify_det_nonzero(ctx, trials=args.trials, seed=args.seed)
    out.update(
        {
            "det": fmt_q(cert["det"]),
            "trials_used": cert["trials_used"],
            "point": params_to_json(cert["point"]),
        }
    )
    return out


def _cmd_solve(args):
    ctx = context(args.k)
    targets = [_target_value(x) for x in args.targets]
    t = None
    if args.t is not None:
        t = _load_json(args.t)
        if isinstance(t, dict):
            if "t" not in t:
                raise DomainError("%s has no \"t\" entry" % args.t)
            t = t["t"]
        if not (isinstance(t, list) and all(isinstance(row, list) for row in t)):
            raise DomainError("%s: t must be a list of lists" % args.t)
    opts = SolveOptions()
    if args.tolerance is not None:
        opts = SolveOptions(tolerance=args.tolerance)
    rep = solve(ctx, targets, t=t, options=opts, want_trace=args.trace)
    out = {
        "status": rep.status,
        "attempts": rep.attempts,
        "runs": rep.runs,
        "iterations": rep.iterations,
        "residual": rep.residual,
        "s": list(rep.s),
        "s_rational": [fmt_q(v) for v in rep.s_rational] if rep.s_rational else None,
        "verification": rep.verification,
        "detail": rep.detail,
    }
    if args.trace:
        out["trace"] = rep.trace
    return out


def _cmd_probe(args):
    ctx = context(args.k)
    if args.x0 is not None:
        x0 = [float(_target_value(x)) for x in args.x0.split(",")]
    else:
        x0 = [float(v) for v in point_densities(ctx, default_params(ctx))]
    return probe_ball(ctx, x0, args.eps, args.samples, seed=args.seed)


def _cmd_sample(args):
    if args.count < 1:
        raise DomainError("need --count >= 1")
    W = from_json(_load_json(args.tournamenton))
    draws = [encode(sample(W, args.n, args.seed + i)) for i in range(args.count)]
    return {"n": args.n, "seed": args.seed, "tournaments": draws}


def _cmd_verify(args):
    report = run_checks(args.level, budget_seconds=args.budget_seconds)
    sys.stderr.write(
        "verify %s: %d checks in %.1fs\n"
        % (args.level, len(report["checks"]), report["seconds"])
    )
    payload = {
        "level": report["level"],
        "ok": report["ok"],
        "checks": [
            {"name": c["name"], "ok": c["ok"], "detail": c["detail"]}
            for c in report["checks"]
        ],
    }
    return payload


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indented JSON instead of the compact form")

    ap = argparse.ArgumentParser(
        prog="tourlyn",
        description="exact tournament limit calculations: enumeration, Lyndon "
                    "words, density polynomials, and the block construction",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="canonical tournaments on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strong", action="store_true",
                   help="only strongly connected classes")
    p.add_argument("--aut", action="store_true",
                   help="include automorphism counts")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical form of a tournament")
    p.add_argument("tournament")
    p.add_argument("--against", help="second tournament to compare with")
    p.add_argument("--adjacency", action="store_true",
                   help="include the canonical adjacency matrix")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("scc", parents=[common],
                       help="strongly connected components in condensation order")
    p.add_argument("tournament")
    p.set_defaults(fn=_cmd_scc)

    p = sub.add_parser("word", parents=[common],
                       help="the word of a tournament, or --invert a word")
    p.add_argument("tournament", nargs="?")
    p.add_argument("--invert", help="word to turn back into a tournament")
    p.set_defaults(fn=_cmd_word)

    p = sub.add_parser("lyndon", parents=[common],
                       help="Lyndon tests and the Lyndon tournament list")
    p.add_argument("--word")
    p.add_argument("--tournament")
    p.add_argument("--compare", help="second word; reports the lexicographic order")
    p.add_argument("--list", action="store_true",
                   help="list non-trivial Lyndon tournaments up to --k vertices")
    p.add_argument("--k", type=int)
    p.set_defaults(fn=_cmd_lyndon)

    p = sub.add_parser("factorize", parents=[common],
                       help="Chen-Fox-Lyndon factorization of a word")
    p.add_argument("word")
    p.set_defaults(fn=_cmd_factorize)

    p = sub.add_parser("shuffle", parents=[common],
                       help="shuffle product of two or more words")
    p.add_argument("words", nargs="+")
    p.set_defaults(fn=_cmd_shuffle)

    p = sub.add_parser("product", parents=[common],
                       help="flag product of tournaments")
    p.add_argument("tournaments", nargs="+")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("express", parents=[common],
                       help="density polynomial in Lyndon letter densities")
    p.add_argument("tournament")
    p.add_argument("--lemma", action="store_true",
                   help="show the reduction data instead of the polynomial")
    p.add_argument("--at", help="JSON file of letter densities; evaluates there")
    p.set_defaults(fn=_cmd_express)

    p = sub.add_parser("dimension", parents=[common],
                       help="dimension of the k-vertex profile region")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("density", parents=[common],
                       help="exact density of a tournament in a step tournamenton")
    p.add_argument("tournament")
    p.add_argument("--tournamenton", required=True, help="JSON file")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("build-wk", parents=[common],
                       help="the block construction at given or default parameters")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--params", help="JSON file with s and t")
    p.set_defaults(fn=_cmd_build_wk)

    p = sub.add_parser("jacobian", parents=[common],
                       help="Jacobian of the density map, exact or symbolic")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--params", help="JSON file with s and t")
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(fn=_cmd_jacobian)

    p = sub.add_parser("certify", parents=[common],
                       help="certify the Jacobian determinant nonzero at a "
                            "random rational point")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--leading", action="store_true",
                   help="include the full-t monomial coefficient")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("solve", parents=[common],
                       help="recover s from target densities",
                       description="Recover s from target densities.  The "
                                   "status is converged (verified exactly), "
                                   "unreachable (k = 4: the target violates "
                                   "96 t(4:110111)^3 >= t(3:101)^4, so no "
                                   "W_4(s, t) attains it; no Newton run), "
                                   "unreachable-at-t (k = 4, 5: for two "
                                   "letters whose s-forms are power sums P, "
                                   "Q of degrees p, p + 1, P^(p+1) / Q^p "
                                   "lies outside (min_m w_m, sum_m w_m], "
                                   "so no s attains it at this t; no Newton "
                                   "run), singular-jacobian or "
                                   "no-convergence; the last two say what "
                                   "the solver did, not that the target is "
                                   "unattained.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("targets", nargs="+",
                   help="one per letter, as 'p/q' or a decimal")
    p.add_argument("--t", help="JSON file fixing the t parameters")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--trace", action="store_true",
                   help="include per-iteration data")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("probe", parents=[common],
                       help="empirical solvability rate on a ball of targets")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", help="comma-separated center; defaults to the "
                                "densities at default parameters")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("sample", parents=[common],
                       help="random tournaments drawn from a step tournamenton")
    p.add_argument("--tournamenton", required=True, help="JSON file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", parents=[common],
                       help="run the self-verification suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--budget-seconds", type=float)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        payload = args.fn(args)
    except BudgetError as e:
        sys.stderr.write("budget exceeded: %s\n" % e)
        return 3
    except (DomainError, InconclusiveError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    _emit(payload, args.pretty)
    if args.command == "verify" and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
