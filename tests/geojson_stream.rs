//! Large-document GeoJSON ingest smoke test.
//!
//! Real GIS layers arrive as multi-megabyte GeoJSON `MultiPolygon`s with
//! holes. This test builds a synthetic layer of ≥10⁵ vertices (a grid of
//! donuts: one outer ring + one hole each), pushes it through the
//! serializer and the parser, and then through the full clip pipeline —
//! the round trip must be vertex-exact (Rust's shortest-roundtrip float
//! formatting guarantees it) and the clipped result must validate with
//! zero violations.

use polyclip::datagen::donut;
use polyclip::geom::geojson::{from_geojson, to_geojson};
use polyclip::geom::region_area;
use polyclip::prelude::*;

/// A disjoint grid of donuts totalling at least `min_vertices` vertices.
fn donut_field(min_vertices: usize) -> PolygonSet {
    let per_ring = 64usize;
    let per_donut: usize = donut(0x6e55, Point::new(0.0, 0.0), 1.2, per_ring, 0.45)
        .contours()
        .iter()
        .map(|c| c.len())
        .sum();
    let count = min_vertices.div_ceil(per_donut);
    let cols = (count as f64).sqrt().ceil() as usize;
    let mut contours = Vec::new();
    for i in 0..count {
        let (row, col) = (i / cols, i % cols);
        let center = Point::new(col as f64 * 3.0, row as f64 * 3.0);
        let d = donut(i as u64 ^ 0x6e55, center, 1.2, per_ring, 0.45);
        contours.extend(d.contours().iter().cloned());
    }
    PolygonSet::from_contours(contours)
}

#[test]
fn hundred_thousand_vertex_multipolygon_round_trips_and_clips() {
    let field = donut_field(100_000);
    let n_vertices: usize = field.contours().iter().map(|c| c.len()).sum();
    assert!(n_vertices >= 100_000, "generator too small: {n_vertices}");

    // Serialize as a MultiPolygon and parse it back: the document is
    // multi-megabyte, the round trip must be loss-free.
    let doc = to_geojson(&field, true);
    assert!(doc.len() > 1_000_000, "document suspiciously small");
    let parsed = from_geojson(&doc).expect("serializer output must parse");
    assert_eq!(parsed.contours().len(), field.contours().len());
    for (a, b) in field.contours().iter().zip(parsed.contours()) {
        assert_eq!(a.points(), b.points(), "round trip moved a vertex");
    }

    // Clip the parsed layer against a window covering roughly half of it,
    // through the hardened slab-partitioned pipeline. An unoptimized build
    // would spend minutes sweeping 10⁵ edges, so debug builds clip a
    // carved sub-layer of the parsed document; release builds clip all of
    // it. The round trip above is always full-size.
    let layer = if cfg!(debug_assertions) {
        PolygonSet::from_contours(parsed.contours()[..200].to_vec())
    } else {
        parsed.clone()
    };
    let bbox = layer.bbox();
    let mid_x = bbox.xmin + (bbox.xmax - bbox.xmin) * 0.5;
    let window = PolygonSet::from_xy(&[
        (bbox.xmin - 1.0, bbox.ymin - 1.0),
        (mid_x, bbox.ymin - 1.0),
        (mid_x, bbox.ymax + 1.0),
        (bbox.xmin - 1.0, bbox.ymax + 1.0),
    ]);
    let opts = ClipOptions {
        validate_output: true,
        ..ClipOptions::default()
    };
    let r =
        try_clip_pair_slabs(&layer, &window, BoolOp::Intersection, 8, &opts).expect("clip failed");
    let rep = validate(&r.output);
    assert!(
        rep.violations.is_empty(),
        "clipped GeoJSON layer left violations: {}",
        rep.violations.len()
    );

    // Area sanity: the window cuts columns, not donut area ratios — the
    // clipped area must be positive and strictly below the layer's.
    let (full, cut) = (region_area(&layer), region_area(&r.output));
    assert!(cut > 0.0 && cut < full, "cut {cut} vs full {full}");

    // And the clipped result serializes again without error.
    let doc2 = to_geojson(&r.output, true);
    let reparsed = from_geojson(&doc2).expect("clip output must serialize");
    assert!((region_area(&reparsed) - cut).abs() <= 1e-9 * (1.0 + cut));
}
