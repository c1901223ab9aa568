//! Property tests for the zero-copy dataset encode/decode path: every
//! `DataObject` shape round-trips exactly, and the computed encoded length
//! always matches the bytes actually produced.
//!
//! The EBD2 format is also pinned byte for byte: [`reference_encode`] is a
//! straightforward per-element encoder written from the format layout in
//! `eth_data::io::binary`, and the production encoder must reproduce it
//! exactly. Spill chunks, journals and recorded series written by older
//! builds depend on those bytes not moving.

use bytes::{BufMut, Bytes, BytesMut};
use eth::data::crc::crc32;
use eth::data::field::{Attribute, AttributeSet};
use eth::data::io::binary::{decode, encode, encoded_len};
use eth::data::{DataObject, PointCloud, UniformGrid, Vec3};
use eth::transport::message::{decode_dataset, encode_dataset, encoded_dataset_len};
use proptest::prelude::*;

/// `(encoded length, body CRC)` of [`fixed_points`] and [`fixed_grid`],
/// recorded from the per-element encoder.
const GOLDEN_POINTS: (usize, u32) = (36_069, 0xD5D3_A748);
const GOLDEN_GRID: (usize, u32) = (1_338, 0x17D0_E882);

fn reference_put_vec3(buf: &mut BytesMut, v: Vec3) {
    buf.put_f32_le(v.x);
    buf.put_f32_le(v.y);
    buf.put_f32_le(v.z);
}

fn reference_put_attributes(buf: &mut BytesMut, attrs: &AttributeSet) {
    buf.put_u32_le(attrs.len() as u32);
    for (name, attr) in attrs.iter() {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
        match attr {
            Attribute::Scalar(v) => {
                buf.put_u8(0);
                buf.put_u64_le(v.len() as u64);
                for &x in v {
                    buf.put_f32_le(x);
                }
            }
            Attribute::Vector(v) => {
                buf.put_u8(1);
                buf.put_u64_le(v.len() as u64);
                for &x in v {
                    reference_put_vec3(buf, x);
                }
            }
            Attribute::Id(v) => {
                buf.put_u8(2);
                buf.put_u64_le(v.len() as u64);
                for &x in v {
                    buf.put_u64_le(x);
                }
            }
        }
    }
}

/// The EBD2 layout written one element at a time: the test oracle for
/// [`encode`].
fn reference_encode(obj: &DataObject) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(b"EBD2");
    match obj {
        DataObject::Points(p) => {
            buf.put_u8(1);
            buf.put_u64_le(p.len() as u64);
            for &pos in p.positions() {
                reference_put_vec3(&mut buf, pos);
            }
            reference_put_attributes(&mut buf, p.attributes());
        }
        DataObject::Grid(g) => {
            buf.put_u8(2);
            for d in g.dims() {
                buf.put_u64_le(d as u64);
            }
            reference_put_vec3(&mut buf, g.origin());
            reference_put_vec3(&mut buf, g.spacing());
            reference_put_attributes(&mut buf, g.attributes());
        }
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// A fixed dataset with every attribute kind, for the golden checksum.
fn fixed_points() -> DataObject {
    let n = 1000;
    let mut cloud = PointCloud::from_positions(
        (0..n)
            .map(|i| Vec3::new(i as f32 * 0.5, -(i as f32) * 0.25, (i % 7) as f32))
            .collect(),
    );
    cloud
        .set_attribute("mass", Attribute::Scalar((0..n).map(|i| i as f32 * 1e-3).collect()))
        .unwrap();
    cloud
        .set_attribute(
            "vel",
            Attribute::Vector((0..n).map(|i| Vec3::splat(i as f32 - 500.0)).collect()),
        )
        .unwrap();
    cloud
        .set_attribute(
            "id",
            Attribute::Id((0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect()),
        )
        .unwrap();
    DataObject::Points(cloud)
}

fn fixed_grid() -> DataObject {
    let mut grid =
        UniformGrid::new([9, 7, 5], Vec3::new(-1.0, 0.5, 2.0), Vec3::splat(0.125)).unwrap();
    let n = grid.num_vertices();
    grid.set_attribute(
        "temp",
        Attribute::Scalar((0..n).map(|i| (i as f32 * 0.1).cos()).collect()),
    )
    .unwrap();
    DataObject::Grid(grid)
}

/// The EBD2 body checksum (the trailer word) of `wire`. The CRC-32 of a
/// whole EBD2 buffer is the constant CRC residue, so a golden value must
/// be taken over the body.
fn body_crc(wire: &[u8]) -> u32 {
    crc32(&wire[..wire.len() - 4])
}

#[test]
fn golden_encoding_is_pinned() {
    let points = encode(&fixed_points());
    assert_eq!(points.len(), GOLDEN_POINTS.0);
    assert_eq!(body_crc(&points), GOLDEN_POINTS.1);
    let grid = encode(&fixed_grid());
    assert_eq!(grid.len(), GOLDEN_GRID.0);
    assert_eq!(body_crc(&grid), GOLDEN_GRID.1);
    // The whole-buffer CRC of any EBD2 buffer is the CRC-32 residue.
    assert_eq!(crc32(&points), 0x2144_DF1C);
    assert_eq!(crc32(&grid), 0x2144_DF1C);
}

#[test]
fn empty_cloud_matches_reference() {
    let obj = DataObject::Points(PointCloud::new());
    assert_eq!(encode(&obj), reference_encode(&obj));
    assert_eq!(decode(encode(&obj)).unwrap(), obj);
}

fn arb_vec3() -> impl Strategy<Value = Vec3> {
    (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0)
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_points() -> impl Strategy<Value = DataObject> {
    (prop::collection::vec(arb_vec3(), 0..40), 0u64..u64::MAX).prop_map(|(pos, salt)| {
        let n = pos.len();
        let mut cloud = PointCloud::from_positions(pos);
        // Attributes of every kind, sized to the cloud, varied by `salt`.
        let f = |i: usize| (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ salt;
        cloud
            .set_attribute(
                "s",
                Attribute::Scalar((0..n).map(|i| f(i) as f32 * 1e-12 - 3.0).collect()),
            )
            .unwrap();
        cloud
            .set_attribute(
                "v",
                Attribute::Vector(
                    (0..n)
                        .map(|i| Vec3::new(f(i) as f32 * 1e-12, -(i as f32), 0.25 * i as f32))
                        .collect(),
                ),
            )
            .unwrap();
        cloud
            .set_attribute("id", Attribute::Id((0..n).map(f).collect()))
            .unwrap();
        DataObject::Points(cloud)
    })
}

fn arb_grid() -> impl Strategy<Value = DataObject> {
    (2usize..6, 2usize..6, 2usize..6, arb_vec3(), 0.01f32..2.0)
        .prop_map(|(nx, ny, nz, origin, h)| {
            let mut grid = UniformGrid::new([nx, ny, nz], origin, Vec3::splat(h)).unwrap();
            let n = grid.num_vertices();
            grid.set_attribute(
                "field",
                Attribute::Scalar((0..n).map(|i| (i as f32).sin()).collect()),
            )
            .unwrap();
            DataObject::Grid(grid)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point clouds with every attribute kind survive the wire exactly.
    #[test]
    fn points_roundtrip(obj in arb_points()) {
        let wire = encode(&obj);
        prop_assert_eq!(wire.len(), encoded_len(&obj));
        prop_assert_eq!(&wire, &reference_encode(&obj));
        let back = decode(wire).unwrap();
        prop_assert_eq!(obj, back);
    }

    /// Grids survive the wire exactly.
    #[test]
    fn grids_roundtrip(obj in arb_grid()) {
        let wire = encode(&obj);
        prop_assert_eq!(wire.len(), encoded_len(&obj));
        prop_assert_eq!(&wire, &reference_encode(&obj));
        let back = decode(wire).unwrap();
        prop_assert_eq!(obj, back);
    }

    /// The transport-layer wrappers agree with the data-layer encoder.
    #[test]
    fn transport_wrappers_agree(obj in arb_points()) {
        let payload = encode_dataset(&obj);
        prop_assert_eq!(payload.len(), encoded_dataset_len(&obj));
        let back = decode_dataset(payload).unwrap();
        prop_assert_eq!(obj, back);
    }

    /// Truncating an encoded payload anywhere must error, never panic.
    #[test]
    fn truncation_fails_cleanly(obj in arb_points(), frac in 0.0f64..1.0) {
        let wire = encode(&obj).to_vec();
        let cut = ((wire.len() as f64) * frac) as usize;
        if cut < wire.len() {
            let got = decode(bytes::Bytes::from(wire[..cut].to_vec()));
            prop_assert!(got.is_err());
        }
    }
}
