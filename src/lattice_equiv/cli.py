"""Command line surface.

Subcommands map one-to-one onto the library: invariants, equiv, canon,
vmin, census, classes-by-volume, build-lv, barany, scan-primitivity.
Exit codes: 0 success, 1 "not equivalent / nothing found", 2 usage
error, 3 bad input.  All diagnostics go to stderr; stdout carries only
the answer (JSON, CSV, or the equiv verdict line).
"""

import argparse
import json
import sys
from fractions import Fraction
from math import log
from pathlib import Path

from .census import (
    build_volume_representatives,
    census,
    classes_by_volume,
    primitivity_scan,
)
from .constructions import orthant_hull_construction, shave
from .equivalence import (
    CLI_MODES,
    canonical_polygon,
    canonical_triangle,
    decide,
)
from .errors import LatticeError, ParseError
from .geometry import (LatticePolytope, Region, _hull_polytope, _int_points,
                       _whole, convex_hull_2d, normalized_volume)
from .invariants import (
    lattice_height_vector,
    primitive_decomposition,
    volume_vector,
)
from .lattices import shrink_to_minimal_volume, sublattice_info


def parse_polytope(text):
    """Parse a polytope document: {"dim": d, "points": [[...], ...]}.

    'dim' and the points pass the library's checks, `geometry._whole`
    and `geometry._int_points`, whose errors come back as ParseError.  The
    convex hull is taken in every dimension (from dimension 3 on, the
    vertices by `geometry._hull_of`'s meet rule, in input order,
    duplicates dropped, through `geometry._hull_polytope`); a True second
    return value flags input points that were not vertices (dropped with
    a warning by the CLI).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("polytope document must be a JSON object")
    dim = doc.get("dim")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise ParseError("'points' must be a nonempty array")
    try:
        clean, _ = _int_points(points, _whole(dim, 1, "'dim'"))
    except LatticeError as exc:
        raise ParseError(str(exc)) from exc
    if dim >= 3:
        # DegenerateInput unless the points span space.
        poly = _hull_polytope(tuple(dict.fromkeys(clean)), dim)
    else:
        poly = (convex_hull_2d(clean) if dim == 2 else
                LatticePolytope(1, tuple({min(clean), max(clean)})))
    return poly, set(poly.vertices) != set(clean)


def polytope_document(poly):
    return {"dim": poly.dim, "points": [list(v) for v in poly.vertices]}


def _load(path):
    poly, dropped = parse_polytope(Path(path).read_text(encoding="utf-8"))
    if dropped:
        print(f"warning: {path}: input points are not all vertices; "
              "using their convex hull", file=sys.stderr)
    return poly


def _map_json(amap):
    return {
        "matrix": [[str(x) for x in row] for row in amap.matrix],
        "translation": [str(x) for x in amap.translation],
        "determinant": str(amap.determinant),
    }


def _verts(poly):
    return [list(v) for v in poly.vertices]


def _safe_normvol(poly):
    try:
        return normalized_volume(poly)
    except LatticeError:
        return None


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _log_ratios(h, k, a):
    """(log K / log H, log A / log H), or (None, None) when |H| <= 1
    leaves them undefined."""
    if h <= 1:
        return None, None
    return log(k) / log(h), log(a) / log(h)


def emit_census_csv(rows):
    """CSV text for (param, |H|, |K|, |A|) rows; ratio fields are empty
    when |H| <= 1 leaves the logarithm ratios undefined."""
    lines = ["param,H,K,A,logK_over_logH,logA_over_logH"]
    for param, h, k, a in rows:
        ratios = ",".join("" if r is None else f"{r:.6f}"
                          for r in _log_ratios(h, k, a))
        lines.append(f"{param},{h},{k},{a},{ratios}")
    return "\n".join(lines) + "\n"


def _cmd_invariants(args):
    poly = _load(args.polytope)
    # From dimension 3 on, the polytope's record holds its volume vector.
    w = (poly._record[0] if poly.dim >= 3
         else volume_vector(poly.vertices, poly.dim))
    prim = primitive_decomposition(w)
    heights = lattice_height_vector(poly.vertices, poly.dim)
    abs_heights, undefined = heights.abs_signature()
    info = sublattice_info(poly)
    _emit({
        "dim": poly.dim,
        "vertex_count": len(poly.vertices),
        "vertices": _verts(poly),
        "normalized_volume": _safe_normvol(poly),
        "volume_vector": {
            "entries": list(w.entries),
            "combinations": [list(c) for c in w.combinations()],
        },
        "primitive": {
            "content": prim.content,
            "direction": list(prim.direction),
        },
        "lattice_heights": {
            "blocks": [list(block) for block in heights.blocks],
            "abs_multiset": list(abs_heights),
            "undefined_count": undefined,
        },
        "sublattice_index": info.index,
        "attains_minimal_volume": info.index == 1,
    })
    return 0


def _cmd_equiv(args):
    first = _load(args.first)
    second = _load(args.second)
    result = decide(first, second, CLI_MODES[args.mode])
    if not result:
        print("not-equivalent")
        return 1
    print("equivalent")
    if args.witness:
        _emit({"bijection": list(result.bijection), **_map_json(result.map)})
    return 0


def _cmd_canon(args):
    poly = _load(args.polytope)
    form = args.form
    if form == "auto":
        form = "triangle" if len(poly.vertices) == 3 else "polygon"
    if form == "triangle":
        tri = canonical_triangle(poly)
        _emit({
            "form": "triangle",
            "g": tri.g, "b": tri.b, "a": tri.a,
            "key": list(tri.key),
            "vertices": _verts(tri.as_polytope()),
        })
    else:
        _emit({
            "form": "polygon",
            "vertices": _verts(canonical_polygon(poly)),
        })
    return 0


def _cmd_vmin(args):
    poly = _load(args.polytope)
    info = sublattice_info(poly)
    shrunk, move = shrink_to_minimal_volume(poly)
    _emit({
        "sublattice_index": info.index,
        "attains_minimal_volume": info.index == 1,
        "normalized_volume": _safe_normvol(poly),
        "minimal_volume": _safe_normvol(shrunk),
        "vertices": _verts(shrunk),
        "map": _map_json(move),
    })
    return 0


def radius(text):
    """A --ball-r or --orthant-ball-r value: a rational radius R, or
    sqrt(Q) for a rational squared radius Q.  Returns the parameter as
    printed (str of R, or the sqrt argument as given) and the keyword
    arguments for Region.ball / Region.orthant_ball."""
    if text.startswith("sqrt(") and text.endswith(")"):
        return text, {"radius_sq": Fraction(text[5:-1])}
    r = Fraction(text)
    return str(r), {"radius": r}


def _regions(args):
    """(parameter, region) rows: all balls, then boxes, then orthant balls."""
    return ([(p, Region.ball(**kw)) for p, kw in args.ball_r]
            + [(str(s), Region.box(s)) for s in args.box_side]
            + [(p, Region.orthant_ball(**kw)) for p, kw in args.orthant_ball_r])


def _cmd_census(args):
    regions = _regions(args)
    if not regions:
        print("error: give at least one --ball-r/--box-side/--orthant-ball-r",
              file=sys.stderr)
        return 2
    results = [(param, census(region, workers=args.workers))
               for param, region in regions]
    if args.csv:
        print(emit_census_csv(
            [(param, c.h, c.k, c.a) for param, c in results]), end="")
        return 0
    payload = []
    for param, c in results:
        ratios = _log_ratios(c.h, c.k, c.a)
        payload.append({
            "region": c.region.label(),
            "param": param,
            "h": c.h, "k": c.k, "a": c.a,
            "log_k_over_log_h": ratios[0],
            "log_a_over_log_h": ratios[1],
            "volume_histogram": {str(v): n for v, n in c.volume_histogram},
        })
    _emit(payload)
    return 0


def _cmd_classes_by_volume(args):
    # Both shapes are exact and search no box; the two box fields stay
    # in the document as constants.
    _emit({
        "volume": args.volume,
        "shape": args.shape,
        "count": classes_by_volume(args.volume, shape=args.shape),
        "box_side": None,
        "box_complete_guaranteed": True,
    })
    return 0


def _cmd_build_lv(args):
    reps = build_volume_representatives(args.volume)
    _emit({
        "volume": args.volume,
        "count": len(reps),
        "representatives": [{
            "divisor": sublattice_info(rep).index,
            "normalized_volume": normalized_volume(rep),
            "vertices": _verts(rep),
        } for rep in reps],
    })
    return 0


def _cmd_barany(args):
    if (args.r is None) == (args.radius_sq is None):
        print("error: give exactly one of --r, --radius-sq", file=sys.stderr)
        return 2
    report = orthant_hull_construction(r=args.r, radius_sq=args.radius_sq)
    shaved, removed = shave(report.augmented, report.added_points)
    _emit({
        "radius_sq": str(report.radius_sq),
        "p": report.p,
        "case": report.case,
        "base_vertices": _verts(report.base),
        "augmented_vertices": _verts(report.augmented),
        "b": [list(v) for v in report.b],
        "base_volume": normalized_volume(report.base),
        "augmented_volume": normalized_volume(report.augmented),
        "volume_delta": report.volume_delta,
        "added_lattice_points": [list(v) for v in report.added_points],
        "identity_holds": report.identity_holds,
        "shave_round_trip": {
            "removed_volume": removed,
            "recovers_base": shaved == report.base,
        },
    })
    return 0


def _cmd_scan_primitivity(args):
    regions = _regions(args)
    if len(regions) != 1:
        print("error: give exactly one region", file=sys.stderr)
        return 2
    _, region = regions[0]
    report = primitivity_scan(region, workers=args.workers)
    _emit({
        "region": region.label(),
        "examined": report.examined,
        "counterexamples": [_verts(p) for p in report.counterexamples],
    })
    return 0 if report.counterexamples else 1


def _region_flags(sub):
    sub.add_argument("--ball-r", action="append", type=radius, default=[],
                     metavar="R", help="ball of radius R around the origin; "
                                       "R is rational or sqrt(Q) for a "
                                       "rational Q")
    sub.add_argument("--box-side", action="append", type=int, default=[],
                     metavar="S", help="box [0, S]^2")
    sub.add_argument("--orthant-ball-r", action="append", type=radius,
                     default=[], metavar="R",
                     help="nonnegative quadrant of the radius-R ball; R as "
                          "for --ball-r")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker processes for the polygon search and "
                          "canonical forms (at most one per lattice point "
                          "of the region is started); the affine keys and "
                          "index tests run in the parent process")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lattice-equiv",
        description="Exact classification of convex lattice polytopes.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("invariants",
                          help="volume vector, heights, sublattice index")
    sub.add_argument("polytope")
    sub.set_defaults(handler=_cmd_invariants)

    sub = subs.add_parser("equiv", help="decide equivalence of two polytopes")
    sub.add_argument("--mode", choices=sorted(CLI_MODES), default="affine")
    sub.add_argument("--witness", action="store_true",
                     help="print the realizing map and vertex bijection")
    sub.add_argument("first")
    sub.add_argument("second")
    sub.set_defaults(handler=_cmd_equiv)

    sub = subs.add_parser("canon", help="canonical form of a polygon")
    sub.add_argument("--form", choices=("auto", "triangle", "polygon"),
                     default="auto")
    sub.add_argument("polytope")
    sub.set_defaults(handler=_cmd_canon)

    sub = subs.add_parser("vmin",
                          help="sublattice index and minimal-volume shrink")
    sub.add_argument("polytope")
    sub.set_defaults(handler=_cmd_vmin)

    sub = subs.add_parser("census",
                          help="H/K/A counts over one or more regions")
    _region_flags(sub)
    sub.add_argument("--csv", action="store_true")
    sub.set_defaults(handler=_cmd_census)

    sub = subs.add_parser("classes-by-volume",
                          help="unimodular classes of a given volume")
    sub.add_argument("--volume", type=int, required=True)
    sub.add_argument("--shape", choices=("all", "triangles"), default="all")
    sub.set_defaults(handler=_cmd_classes_by_volume)

    sub = subs.add_parser("build-lv",
                          help="volume-V representatives, one per affine "
                               "class and divisor")
    sub.add_argument("--volume", type=int, required=True)
    sub.set_defaults(handler=_cmd_build_lv)

    sub = subs.add_parser("barany",
                          help="doubled quarter-ball hull, its cap, and the "
                               "shave round trip")
    sub.add_argument("--r", type=Fraction, default=None)
    sub.add_argument("--radius-sq", type=Fraction, default=None)
    sub.set_defaults(handler=_cmd_barany)

    sub = subs.add_parser("scan-primitivity",
                          help="search a region for imprimitive volume "
                               "vectors with index-1 difference lattice")
    _region_flags(sub)
    sub.set_defaults(handler=_cmd_scan_primitivity)

    return parser


def run_command(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (LatticeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    entry()
