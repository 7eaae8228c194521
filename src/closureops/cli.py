"""Command-line interface: one subcommand per construction, JSON in, JSON out.

Every invocation reads one or two JSON documents (formats in
:mod:`closureops.jsonio`), writes exactly one report to stdout (or ``--out``),
and exits with:

* 0 — success;
* 1 — mathematically invalid input (:class:`InvalidClosureTable`,
  :class:`AxiomsViolated`, :class:`DoesNotRespect`, :class:`NotIntersectionClosed`,
  :class:`MissingTopBottom`); the report naming the witnesses is still emitted;
* 2 — malformed input (unreadable file, bad JSON, :class:`SchemaError`,
  :class:`MissingEntry`, :class:`GroundSetTooLarge`, a foreign subset or
  ground set, unknown flags), or a report the output cannot take;
* 3 — internal error: a failed self-check (:class:`WitnessVerificationFailed`)
  or any other exception, named by its type, such as the library errors no
  input can raise (:class:`NotAChain`, :class:`NotClosed`, …); a bug, never
  a property of the input, and the report is a JSON error document.

Diagnostics go to stderr; stdout carries only the report.  Output is
deterministic: equal inputs produce byte-equal output.  A JSON report is the
text of ``json.dumps(report, indent=2, ensure_ascii=False)`` plus a newline,
rendered by :mod:`closureops.jsonio` without building the document.  The
``topology``, ``hasse`` and ``mobius`` reports are rendered in full as lists
of pieces, then written a piece at a time, so no byte goes out before the
last check has run.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys
from contextlib import nullcontext
from typing import Any

from . import jsonio
from .complexity import complexity_profile, meet_irreducibles
from .complexity import _binary_witness, _weak_order_witness
from .core import Topology, _validate_images
from .errors import (
    AxiomsViolated,
    DoesNotRespect,
    ForeignMask,
    GroundSetMismatch,
    GroundSetTooLarge,
    InvalidClosureTable,
    MissingEntry,
    MissingTopBottom,
    NotIntersectionClosed,
    SchemaError,
    WitnessVerificationFailed,
)
from .generators import intersect_generate
from .labeling import canonical_labeling, minimal_labeling
from .menus import additive_representation, kreps_operator, kreps_representation
from .poset import FinitePoset, _dot_pieces

__all__ = ["main", "build_parser"]

_MALFORMED = (
    OSError,
    SchemaError,
    ForeignMask,
    MissingEntry,
    GroundSetTooLarge,
    GroundSetMismatch,
)
_MATH_FAILURE = (NotIntersectionClosed, MissingTopBottom)

# A report is its text, or a list of text pieces whose join is that text.
Report = str | list[str]


def _load(path: str) -> Any:
    """Parse a JSON file; input the parser cannot take is malformed input.

    Besides :class:`json.JSONDecodeError`, the decoder rejects bytes that are
    not UTF-8 (:class:`UnicodeDecodeError`), integers longer than CPython's
    int-string limit (:class:`ValueError`) and nesting deeper than the
    recursion limit (:class:`RecursionError`); all become :class:`SchemaError`.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path} is not readable JSON: {exc}") from None


def _operator_from_path(path: str) -> Topology:
    """Read an operator from either an operator-table or a topology document."""
    doc = _load(path)
    if isinstance(doc, dict) and "map" in doc:
        return Topology._validated(*jsonio.operator_images_from(doc))
    if isinstance(doc, dict) and "closed_sets" in doc:
        return jsonio.topology_from(doc)
    raise SchemaError(
        f'{path} holds neither an operator table ("map") nor a topology '
        f'("closed_sets")'
    )


def _run_validate(args: argparse.Namespace) -> tuple[Report, int]:
    report = _validate_images(*jsonio.operator_images_from(_load(args.table)))
    if not report.ok:
        print("validation failed: " + "; ".join(report.summary()), file=sys.stderr)
    return jsonio.validation_doc(report), 0 if report.ok else 1


def _run_topology(args: argparse.Namespace) -> tuple[Report, int]:
    if args.from_table:
        operator = Topology._validated(
            *jsonio.operator_images_from(_load(args.from_table))
        )
    elif args.from_labels:
        operator = jsonio.labeling_from(_load(args.from_labels)).classifier()
    else:
        ground, weak_orders, binary = jsonio.generators_from(
            _load(args.from_generators)
        )
        operator = intersect_generate(ground, [*weak_orders, *binary])
    return jsonio.topology_pieces(operator), 0


def _run_complexity(args: argparse.Namespace) -> tuple[Report, int]:
    operator = jsonio.topology_from(_load(args.topology))
    return jsonio.profile_doc(complexity_profile(operator)), 0


def _run_decompose(args: argparse.Namespace) -> tuple[Report, int]:
    operator = jsonio.topology_from(_load(args.topology))
    stage = _weak_order_witness if args.kind == "weak-orders" else _binary_witness
    generators, report = stage(meet_irreducibles(operator))
    return jsonio.decomposition_doc(operator.ground, args.kind, generators, report), 0


def _run_labels(args: argparse.Namespace) -> tuple[Report, int]:
    operator = jsonio.topology_from(_load(args.topology))
    labeling = minimal_labeling(operator) if args.minimal else canonical_labeling(operator)
    return jsonio.labeling_doc(labeling), 0


def _run_menu_rep(args: argparse.Namespace) -> tuple[Report, int]:
    if args.style == "kreps" and args.operator:  # refused before the preference is read
        raise SchemaError("--operator only applies to --style additive")
    preference = jsonio.preference_from(_load(args.preference))
    menus_checked = preference.ground.full_bits
    if args.style == "kreps":
        representation = kreps_representation(preference)
        verification = {
            "axioms_ok": True,
            "signature_sound": True,
            "represents_preference": True,
            "menus_checked": menus_checked,
        }
        document = jsonio.kreps_doc(representation)
        return jsonio.verified_doc(document, jsonio.flat_doc(verification)), 0
    if args.operator:
        operator = _operator_from_path(args.operator)
    else:
        operator = kreps_operator(preference)
    representation = additive_representation(preference, operator)
    verification = {
        "respects_operator": True,
        "exact_reproduction": True,
        "menus_checked": menus_checked,
    }
    document = jsonio.additive_doc(representation)
    return jsonio.verified_doc(document, jsonio.flat_doc(verification)), 0


def _run_mobius(args: argparse.Namespace) -> tuple[Report, int]:
    topology = jsonio.topology_from(_load(args.topology))
    rows = FinitePoset.from_topology(topology).mobius_walk()
    return jsonio.mobius_pieces(topology, rows), 0


def _run_hasse(args: argparse.Namespace) -> tuple[Report, int]:
    topology = jsonio.topology_from(_load(args.topology))
    poset = FinitePoset.from_topology(topology)
    if args.dot:
        return _dot_pieces(poset), 0
    return jsonio.hasse_pieces(topology, poset.upper_cover_indices()), 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``closureops`` command line."""
    parser = argparse.ArgumentParser(
        prog="closureops",
        description="Finite closure operators: validation, topologies, "
        "decompositions, complexity, labelings, menu representations.",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write the report here instead of stdout"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check a table against the closure axioms")
    sub.add_argument("--table", required=True, metavar="F")
    sub.set_defaults(run=_run_validate)

    sub = commands.add_parser("topology", help="closed sets of an operator")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-table", metavar="F")
    source.add_argument("--from-labels", metavar="F")
    source.add_argument("--from-generators", metavar="F")
    sub.set_defaults(run=_run_topology)

    sub = commands.add_parser("complexity", help="complexity profile of a topology")
    sub.add_argument("--topology", required=True, metavar="F")
    sub.set_defaults(run=_run_complexity)

    sub = commands.add_parser("decompose", help="optimal generator decomposition")
    sub.add_argument("--topology", required=True, metavar="F")
    sub.add_argument("--kind", required=True, choices=["weak-orders", "binary"])
    sub.set_defaults(run=_run_decompose)

    sub = commands.add_parser("labels", help="labeling correspondence inducing a topology")
    sub.add_argument("--topology", required=True, metavar="F")
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--canonical", action="store_true")
    mode.add_argument("--minimal", action="store_true")
    sub.set_defaults(run=_run_labels)

    sub = commands.add_parser("menu-rep", help="state-space representation of a preference")
    sub.add_argument("--preference", required=True, metavar="F")
    sub.add_argument("--style", required=True, choices=["kreps", "additive"])
    sub.add_argument(
        "--operator",
        metavar="G",
        help="operator table or topology file (additive style only; defaults "
        "to the preference's own Kreps operator)",
    )
    sub.set_defaults(run=_run_menu_rep)

    sub = commands.add_parser("mobius", help="Möbius table of a topology's inclusion order")
    sub.add_argument("--topology", required=True, metavar="F")
    sub.set_defaults(run=_run_mobius)

    sub = commands.add_parser("hasse", help="Hasse diagram of a topology")
    sub.add_argument("--topology", required=True, metavar="F")
    sub.add_argument("--dot", action="store_true", help="emit Graphviz DOT text")
    sub.set_defaults(run=_run_hasse)

    return parser


def _write(report: Report, out: str | None) -> None:
    """Write the report, a string or a list of pieces, and a newline, one
    ``write`` call each: joining the pieces would copy the report.  A handle
    that encodes to anything but UTF-8 may fail on a name, so it takes the
    report in one write, which fails before any byte of it goes out."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as handle:
        pieces = [report] if isinstance(report, str) else report
        encoding = getattr(handle, "encoding", None)
        if encoding and codecs.lookup(encoding).name != "utf-8":
            pieces = ["".join(pieces)]
        for piece in pieces:
            handle.write(piece)
        handle.write("\n")


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # One parser per process, built on the first call rather than at import;
    # argparse keeps no state from one parse to the next.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report, code = args.run(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except _MALFORMED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidClosureTable as exc:
        print(f"error: {exc}", file=sys.stderr)
        report, code = jsonio.validation_doc(exc.report), 1
    except AxiomsViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        report, code = jsonio.axioms_doc(exc.report), 1
    except DoesNotRespect as exc:
        print(f"error: {exc}", file=sys.stderr)
        report = jsonio.flat_doc({"error": str(exc), "witness": exc.witness})
        code = 1
    except _MATH_FAILURE as exc:
        print(f"error: {exc}", file=sys.stderr)
        report, code = jsonio.flat_doc({"error": str(exc)}), 1
    except Exception as exc:  # a failed self-check, or any other bug
        error = str(exc)
        if not isinstance(exc, WitnessVerificationFailed):
            error = f"{type(exc).__name__}: {error}"
        print(f"internal error: {error}", file=sys.stderr)
        report, code = jsonio.flat_doc({"error": error, "internal": True}), 3
    try:
        _write(report, args.out)
    except (OSError, UnicodeEncodeError) as exc:  # a stdout that cannot take the names
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
