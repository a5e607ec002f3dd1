"""Command-line entry points.

Every command reads algebra documents, runs one pipeline stage, prints a
deterministic report to stdout (and to --out when given), and exits with
0 when every check passes or the computation succeeds, 1 on a verified
negative (a failing law, "not similar", no term found), 2 on usage or
input errors (and on an exceeded generation cap), 3 on an internal error:
a computed object that lacks a property the theory guarantees
(`InconsistencyError`), reported on an `internal-error:` line, and 4 when
the computation ran out of memory (`MemoryError`), reported on a
`resource-error:` line.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from .core import CapExceededError, FiniteAlgebra
from .congruences import Partition, congruence_lattice, is_congruence, structure_report
from .centrality import (
    InconsistencyError,
    centralizer,
    centralizes,
    check_centrality_laws,
    is_abelian,
    two_term_condition,
)
from .diffterm import (
    certificate_from_operation,
    check_wdt_laws,
    search_wdt,
)
from .diffalg import (
    arrow_graph,
    delta_congruence,
    difference_algebra,
    range_of_class,
    verify_diffalg_theorems,
)
from .similarity import bridge_construct, diff_of, freese_ring, is_similar
from .generator import (
    build_field,
    config_from_dict,
    config_to_dict,
    generate_example,
    verify_claims,
)
from .documents import (
    DocumentError,
    parse_algebra,
    parse_partition_argument,
    serialize_algebra,
    serialize_report,
)
from .report import CheckItem, Report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(prog="finalg", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def alg_cmd(name, help_text, second=False, cap=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="infile", required=True, help="algebra document")
        if second:
            p.add_argument("--in2", dest="infile2", help="second algebra document")
        p.add_argument("--out", dest="outfile", help="write the report here as well")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="generation cap override")
        return p

    alg_cmd("con", "congruence lattice, covers, monolith")
    p = alg_cmd("centralizer", "the largest congruence centralizing theta modulo delta", cap=False)
    p.add_argument("--delta", required=True)
    p.add_argument("--theta", required=True)
    p = alg_cmd("abelian", "is theta abelian (modulo delta)?", cap=False)
    p.add_argument("--theta", required=True)
    p.add_argument("--delta", default=None)
    p = alg_cmd(
        "wdt-verify", "verify a basic ternary operation as a weak difference term", cap=False
    )
    p.add_argument("--d", required=True, help="name of the candidate ternary operation")
    p.add_argument("--scope", default="A", help="comma list from A,A2,A3")
    p = alg_cmd("wdt-search", "search the ternary term clone for a weak difference term")
    p = alg_cmd("diffalg", "difference algebra of an abelian congruence, with theorem checks")
    p.add_argument("--theta", required=True)
    p.add_argument("--d", default=None, help="basic operation to use as the weak difference term")
    p.add_argument("--phi", default=None, help="also report the diagonal congruence for this phi")
    p = alg_cmd("ranges", "ranges of the classes of an abelian congruence")
    p.add_argument("--theta", required=True)
    p.add_argument("--d", default=None)
    p = alg_cmd("arrow", "positive-translation arrow graph of one centralizer class")
    p.add_argument("--theta", required=True)
    p.add_argument("--d", default=None)
    p.add_argument("--rep", type=int, default=None, help="element whose class to analyze")
    p = sub.add_parser("field", help="build and verify a finite field")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--modulus", default=None, help="ascending coefficients, comma separated")
    p.add_argument("--out", dest="outfile")
    p = alg_cmd("freese", "hom-set ring over a transversal, checked against the division ring")
    p.add_argument("--theta", required=True)
    p.add_argument("--d", default=None)
    p.add_argument("--transversal", default=None, help="comma list, one element per class")
    p = alg_cmd("similar", "are two subdirectly irreducible algebras similar?", second=True)
    p.add_argument("--d", default=None)
    p.add_argument("--d2", default=None)
    p = alg_cmd("bridge", "construct and verify a similarity bridge", second=True)
    p.add_argument("--mode", choices=["canonical", "from-iso"], default="canonical")
    p.add_argument("--d", default=None)
    p.add_argument("--d2", default=None)
    p = sub.add_parser("generate", help="generate a witness algebra from a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p = sub.add_parser("verify-claims", help="verify the claims of a generated algebra document")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile")
    p = sub.add_parser("laws", help="law sweeps on one algebra or on random algebras")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--size-max", type=int, default=4)
    p.add_argument("--out", dest="outfile")
    p.add_argument("--cap", type=int, default=3000)
    return top


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_algebra(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read '{path}': {exc}") from None


def _certificate(algebra: FiniteAlgebra, op_name: str | None, cap: int | None):
    """A verified weak-difference-term certificate: from a named basic
    operation when given, otherwise by clone search."""
    if op_name is not None:
        cert = certificate_from_operation(algebra, op_name)
        if not cert.verdict:
            raise DocumentError(f"operation '{op_name}' is not a weak difference term")
        return cert
    cert = search_wdt(algebra, cap=cap or 10**5)
    if cert is None:
        raise DocumentError("no weak difference term found in the ternary clone")
    return cert


def _fmt_partition(p: Partition) -> str:
    return "|".join(",".join(str(x) for x in blk) for blk in p.blocks)


def _random_algebra(rng: random.Random, size_max: int) -> FiniteAlgebra:
    n = rng.randint(2, size_max)
    ops = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(0, 2)
        table = [rng.randrange(n) for _ in range(n**arity)]
        ops.append((f"f{i}", arity, table))
    return FiniteAlgebra(n, ops)


def run_command(argv) -> tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2, ""
    command_echo = "finalg " + " ".join(str(a) for a in argv)
    started = time.monotonic()

    try:
        code, report = _dispatch(args)
    except (DocumentError, ValueError, KeyError) as exc:
        text = f"# finalg report\ncommand: {command_echo}\nerror: {exc}\n"
        return 2, text
    except CapExceededError as exc:
        text = f"# finalg report\ncommand: {command_echo}\nerror: {exc}\n"
        return 2, text
    except InconsistencyError as exc:
        text = f"# finalg report\ncommand: {command_echo}\ninternal-error: {exc}\n"
        return 3, text
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        text = f"# finalg report\ncommand: {command_echo}\nresource-error: out of memory{detail}\n"
        return 4, text

    text = serialize_report(report, command=command_echo)
    outfile = getattr(args, "outfile", None)
    if outfile and args.command != "generate":
        with open(outfile, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code, text


def _dispatch(args) -> tuple[int, Report]:
    cmd = args.command

    if cmd == "field":
        if args.q is not None:
            p, k = _factor_prime_power(args.q)
        elif args.p is not None:
            p, k = args.p, args.k
        else:
            raise DocumentError("field needs --q or --p")
        modulus = None
        if args.modulus:
            modulus = [int(c) for c in args.modulus.split(",")]
        f = build_field(p, k, modulus)
        items = [
            CheckItem(
                id="field-axioms",
                anchor="generator/field-axioms",
                statement=f"GF({f.q}) with characteristic {f.p}, degree {f.k}, "
                f"modulus {f.modulus}",
                passed=True,
            )
        ]
        return 0, Report("finite field", tuple(items))

    if cmd == "generate":
        with open(args.config, "r", encoding="utf-8") as fh:
            config = config_from_dict(json.load(fh))
        gen = generate_example(config)
        doc = serialize_algebra(
            gen.algebra,
            labels={"mu": gen.mu, "alpha": gen.alpha},
            generator=config_to_dict(config),
        )
        with open(args.outfile, "w", encoding="utf-8") as fh:
            fh.write(doc)
        items = [
            CheckItem(
                id="generated",
                anchor="generator/emit",
                statement=f"algebra with {gen.algebra.size} elements and "
                f"{len(gen.algebra.operations)} operations written to {args.outfile}",
                passed=True,
            )
        ]
        return 0, Report("generate", tuple(items))

    if cmd == "verify-claims":
        algebra, labels, genmeta = _load(args.infile)
        if genmeta is None:
            raise DocumentError("document carries no generator configuration")
        gen = generate_example(config_from_dict(genmeta))
        if gen.algebra != algebra:
            raise DocumentError("document does not match its generator configuration")
        report = verify_claims(gen)
        return (0 if report.passed else 1), report

    if cmd == "laws":
        if args.infile:
            algebra, _, _ = _load(args.infile)
            cert = None
            try:
                cert = search_wdt(algebra, cap=args.cap)
            except CapExceededError:
                cert = None
            report = check_centrality_laws(algebra, certificate=cert, seed=args.seed)
            if cert is not None:
                report = report.merged(check_wdt_laws(algebra, cert, seed=args.seed))
            return (0 if report.passed else 1), report
        rng = random.Random(args.seed)
        items = []
        bad = 0
        for i in range(args.count):
            algebra = _random_algebra(rng, args.size_max)
            lat = congruence_lattice(algebra)
            ok = True
            for theta in lat.elements:
                cent = centralizer(algebra, Partition.zero(algebra.size), theta)
                oracle = Partition.zero(algebra.size)
                for cand in lat.elements:
                    if centralizes(algebra, cand, theta, Partition.zero(algebra.size)).holds:
                        if oracle.leq(cand):
                            oracle = cand
                if cent != oracle:
                    ok = False
            try:
                cert = search_wdt(algebra, cap=args.cap)
            except CapExceededError:
                cert = None
            if cert is not None and cert.verdict:
                for theta in lat.elements:
                    if is_abelian(algebra, theta) != two_term_condition(algebra, theta).holds:
                        ok = False
            if not ok:
                bad += 1
                items.append(
                    CheckItem(
                        id=f"random-{i}",
                        anchor="laws/random-sweep",
                        statement=f"algebra #{i} (size {algebra.size})",
                        passed=False,
                        witness=[(op.name, op.arity, op.table) for op in algebra.operations],
                    )
                )
        items.append(
            CheckItem(
                id="sweep-summary",
                anchor="laws/random-sweep",
                statement=f"{args.count} random algebras swept with seed {args.seed}",
                passed=bad == 0,
            )
        )
        return (0 if bad == 0 else 1), Report("law sweep", tuple(items))

    # remaining commands read one algebra
    algebra, labels, _ = _load(args.infile)
    cap = getattr(args, "cap", None)

    if cmd == "con":
        lat = congruence_lattice(algebra) if cap is None else congruence_lattice(algebra, cap=cap)
        rep = structure_report(lat)
        items = [
            CheckItem(
                id="lattice",
                anchor="congruences/lattice",
                statement=f"{len(lat)} congruences; "
                + "; ".join(_fmt_partition(p) for p in lat.elements),
                passed=True,
            ),
            CheckItem(
                id="covers",
                anchor="congruences/covers",
                statement="; ".join(
                    f"{_fmt_partition(c.lower)} < {_fmt_partition(c.upper)}" for c in rep.covers
                ),
                passed=True,
            ),
            CheckItem(
                id="monolith",
                anchor="congruences/monolith",
                statement=(
                    f"monolith {_fmt_partition(rep.monolith)}; subdirectly irreducible"
                    if rep.is_si
                    else "no monolith; not subdirectly irreducible"
                ),
                passed=True,
            ),
        ]
        return 0, Report("congruence lattice", tuple(items))

    if cmd == "centralizer":
        delta = parse_partition_argument(args.delta, algebra.size, labels)
        theta = parse_partition_argument(args.theta, algebra.size, labels)
        result = centralizer(algebra, delta, theta)
        items = [
            CheckItem(
                id="centralizer",
                anchor="centrality/centralizer",
                statement=f"({_fmt_partition(delta)} : {_fmt_partition(theta)}) = "
                f"{_fmt_partition(result)}",
                passed=True,
            )
        ]
        return 0, Report("centralizer", tuple(items))

    if cmd == "abelian":
        theta = parse_partition_argument(args.theta, algebra.size, labels)
        delta = (
            parse_partition_argument(args.delta, algebra.size, labels)
            if args.delta
            else Partition.zero(algebra.size)
        )
        if not is_congruence(algebra, delta):
            raise DocumentError(f"--delta {_fmt_partition(delta)} is not a congruence")
        verdict = centralizes(algebra, theta, theta, delta)
        items = [
            CheckItem(
                id="abelian",
                anchor="centrality/abelian",
                statement=f"{_fmt_partition(theta)} abelian modulo {_fmt_partition(delta)}",
                passed=verdict.holds,
                witness=verdict.witness,
            )
        ]
        return (0 if verdict.holds else 1), Report("abelianness", tuple(items))

    if cmd == "wdt-verify":
        scope = tuple(
            {"A": 1, "A2": 2, "A3": 3}[part.strip()] for part in args.scope.split(",")
        )
        cert = certificate_from_operation(algebra, args.d, scope=scope)
        items = [
            CheckItem(
                id="wdt-verify",
                anchor="wdt/verify",
                statement=f"'{args.d}' as weak difference term on scope {args.scope}; "
                f"{len(cert.checked)} congruence pairs checked",
                passed=cert.verdict,
                witness=cert.failure,
            )
        ]
        return (0 if cert.verdict else 1), Report("weak difference term", tuple(items))

    if cmd == "wdt-search":
        cert = search_wdt(algebra, cap=cap or 10**5)
        if cert is None:
            items = [
                CheckItem(
                    id="wdt-search",
                    anchor="wdt/search",
                    statement="no weak difference term in the ternary clone",
                    passed=False,
                )
            ]
            return 1, Report("weak difference term search", tuple(items))
        items = [
            CheckItem(
                id="wdt-search",
                anchor="wdt/search",
                statement=f"found table {cert.d}",
                passed=True,
            )
        ]
        return 0, Report("weak difference term search", tuple(items))

    theta = (
        parse_partition_argument(args.theta, algebra.size, labels)
        if getattr(args, "theta", None)
        else None
    )

    if cmd == "diffalg":
        cert = _certificate(algebra, args.d, cap)
        da = difference_algebra(algebra, theta, cert)
        report = verify_diffalg_theorems(da)
        summary = CheckItem(
            id="difference-algebra",
            anchor="difference-algebra/summary",
            statement=f"|D| = {da.algebra.size}; derived congruence "
            f"{_fmt_partition(da.phi)}; transversal {da.transversal}",
            passed=True,
        )
        extra = ()
        if getattr(args, "phi", None):
            phi = parse_partition_argument(args.phi, algebra.size, labels)
            dc = delta_congruence(da.pair, phi)
            classes = "; ".join(
                ",".join(str(da.pair.pairs[i]) for i in blk) for blk in dc.partition.blocks
            )
            extra = (
                CheckItem(
                    id="diagonal-congruence",
                    anchor="difference-algebra/diagonal-for-phi",
                    statement=f"diagonal congruence for phi {_fmt_partition(phi)}: {classes}",
                    passed=True,
                ),
            )
        report = Report(report.title, (summary,) + extra + report.items)
        return (0 if report.passed else 1), report

    if cmd == "ranges":
        cert = _certificate(algebra, args.d, cap)
        da = difference_algebra(algebra, theta, cert)
        items = []
        for blk in theta.blocks:
            rng = range_of_class(da, blk)
            items.append(
                CheckItem(
                    id=f"range-{blk[0]}",
                    anchor="difference-algebra/range",
                    statement=f"class {blk}: range {rng.elements} inside the derived class "
                    f"group at {rng.zero}",
                    passed=True,
                )
            )
        return 0, Report("ranges", tuple(items))

    if cmd == "arrow":
        cert = _certificate(algebra, args.d, cap)
        da = difference_algebra(algebra, theta, cert)
        blocks = (
            [da.alpha.block_of(args.rep)] if args.rep is not None else list(da.alpha.blocks)
        )
        items = []
        for blk in blocks:
            graph = arrow_graph(da, blk)
            edges = "; ".join(
                f"{c1} -> {sorted(graph.reach[c1])}" for c1 in graph.nodes
            )
            items.append(
                CheckItem(
                    id=f"arrow-{blk[0]}",
                    anchor="difference-algebra/arrow",
                    statement=f"class {blk}: {edges}",
                    passed=True,
                )
            )
        return 0, Report("arrow graph", tuple(items))

    if cmd == "freese":
        cert = _certificate(algebra, args.d, cap)
        if args.transversal:
            transversal = [int(x) for x in args.transversal.split(",")]
        else:
            transversal = [blk[0] for blk in theta.blocks]
        ring = freese_ring(algebra, theta, transversal, cert)
        items = [
            CheckItem(
                id="freese-ring",
                anchor="similarity/freese",
                statement=f"hom-set ring of size {len(ring.carrier)} matches the division ring "
                f"of size {ring.division_ring_size}; canonical isomorphism verified",
                passed=True,
            )
        ]
        return 0, Report("hom-set ring", tuple(items))

    if cmd == "similar":
        if not getattr(args, "infile2", None):
            raise DocumentError("similar needs --in2")
        other, labels2, _ = _load(args.infile2)
        cert_a = _certificate(algebra, args.d, cap)
        cert_b = _certificate(other, args.d2, cap)
        verdict = is_similar(algebra, other, cert_a, cert_b)
        items = [
            CheckItem(
                id="similar",
                anchor="similarity/similar",
                statement=f"D(left) has {verdict.left.algebra.size} elements, D(right) "
                f"{verdict.right.algebra.size}",
                passed=verdict.similar,
                witness=None if not verdict.isomorphism else tuple(verdict.isomorphism.images),
            )
        ]
        return (0 if verdict.similar else 1), Report("similarity", tuple(items))

    if cmd == "bridge":
        cert_a = _certificate(algebra, args.d, cap)
        if args.mode == "canonical":
            d_of_a = diff_of(algebra, cert_a)
            if not d_of_a.monolith_abelian:
                raise DocumentError("canonical bridge needs an abelian monolith")
            bridge = bridge_construct(
                algebra, d_of_a.algebra, "canonical-to-d", cert_a=cert_a
            )
            return (0 if bridge.report.passed else 1), bridge.report
        if not getattr(args, "infile2", None):
            raise DocumentError("bridge --mode from-iso needs --in2")
        other, _, _ = _load(args.infile2)
        cert_b = _certificate(other, args.d2, cap)
        try:
            bridge = bridge_construct(algebra, other, "from-iso", cert_a=cert_a, cert_b=cert_b)
        except ValueError as exc:
            items = [
                CheckItem(
                    id="bridge",
                    anchor="bridge/existence",
                    statement=str(exc),
                    passed=False,
                )
            ]
            return 1, Report("similarity bridge", tuple(items))
        return (0 if bridge.report.passed else 1), bridge.report

    raise DocumentError(f"unhandled command '{cmd}'")


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            if q != 1:
                raise DocumentError("--q must be a prime power")
            return p, k
    raise DocumentError("--q must be a prime power")


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    raise SystemExit(code)
