//! Differential fuzz target: engine vs Foster–Overfelt on mutated WKT.
//!
//! Two small polygon sets are decoded from the byte stream, round-tripped
//! through WKT with byte-level corruption (so the pair the clippers see
//! includes whatever parser salvage produced), and fed to both the
//! scanbeam engine and the independent Foster–Overfelt oracle. Cases
//! outside the oracle's contract (self-intersecting or sub-rounding
//! near-contact input, typed engine rejections) are skipped — the oracle
//! of this target is *agreement*: for every supported case, the two
//! implementations' outputs must enclose the same region to within
//! [`ORACLE_REL_TOL`], measured by the band-integration comparator.

use libfuzzer_sys::fuzz_target;
use polyclip::geom::{wkt, Contour, Point, PolygonSet};
use polyclip::prelude::*;

/// Small lattice-coordinate polygon set: coincidences, collinear runs and
/// shared edges are likely rather than measure-zero.
fn decode_set(bytes: &mut impl Iterator<Item = u8>) -> PolygonSet {
    let mut contours = Vec::new();
    let n_contours = 1 + bytes.next().unwrap_or(0) as usize % 3;
    for _ in 0..n_contours {
        let n_pts = bytes.next().unwrap_or(0) as usize % 9;
        let mut pts = Vec::with_capacity(n_pts);
        for _ in 0..n_pts {
            let x = bytes.next().unwrap_or(0) as i8 as f64 / 8.0;
            let y = bytes.next().unwrap_or(0) as i8 as f64 / 8.0;
            pts.push(Point::new(x, y));
        }
        contours.push(Contour::from_raw(pts));
    }
    let mut p = PolygonSet::new();
    *p.contours_mut() = contours;
    p
}

/// WKT round trip with byte mutations; falls back to the original when the
/// corruption broke the syntax (same as a read error).
fn mutate_via_wkt(p: &PolygonSet, bytes: &mut impl Iterator<Item = u8>) -> PolygonSet {
    let mut text = wkt::to_wkt(p).into_bytes();
    let n_mutations = bytes.next().unwrap_or(0) as usize % 8;
    for _ in 0..n_mutations {
        if text.is_empty() {
            break;
        }
        let pos = bytes.next().unwrap_or(0) as usize % text.len();
        text[pos] = bytes.next().unwrap_or(b' ');
    }
    String::from_utf8(text)
        .ok()
        .and_then(|t| wkt::from_wkt(&t).ok())
        .unwrap_or_else(|| p.clone())
}

fuzz_target!(|data: &[u8]| {
    let mut bytes = data.iter().copied();
    let subject = mutate_via_wkt(&decode_set(&mut bytes), &mut bytes);
    let clip_p = mutate_via_wkt(&decode_set(&mut bytes), &mut bytes);

    let flags = bytes.next().unwrap_or(0);
    let op = [
        BoolOp::Intersection,
        BoolOp::Union,
        BoolOp::Difference,
        BoolOp::Xor,
    ][flags as usize % 4];
    let grid = [GridConfig::default(), GridConfig::refined()][(flags >> 2) as usize % 2];
    let n_slabs = 1 + (flags >> 3) as usize % 4;

    let fo = FosterOverfeltOracle;
    let reference = match fo.clip(&subject, &clip_p, op) {
        Ok(out) => out,
        Err(OracleError::Unsupported(_)) => return, // outside the contract
        Err(OracleError::Failed(e)) => panic!("FO oracle failed on supported input: {e}"),
    };
    let engine = ScanbeamOracle::new(n_slabs).with_options(ClipOptions {
        grid,
        ..ClipOptions::default()
    });
    let out = match engine.clip(&subject, &clip_p, op) {
        Ok(out) => out,
        Err(_) => return, // typed rejection is a valid outcome
    };

    let d = compare_outputs(&out, &reference);
    assert!(
        d.within_tolerance(ORACLE_REL_TOL),
        "{:?} {grid:?} p={n_slabs}: engine and Foster–Overfelt disagree: \
         engine area {:.12}, oracle area {:.12}, sym-diff {:.3e}\n\
         subject: {}\nclip: {}",
        op,
        d.area_a,
        d.area_b,
        d.sym_diff_area,
        wkt::to_wkt(&subject),
        wkt::to_wkt(&clip_p),
    );
});
