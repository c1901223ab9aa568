//! ETH binary data format (`.ebd`).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   : b"EBD2"
//! kind    : u8           1 = points, 2 = grid
//! -- points --
//! count   : u64
//! pos     : count * 3 * f32
//! -- grid --
//! dims    : 3 * u64
//! origin  : 3 * f32
//! spacing : 3 * f32
//! -- both --
//! n_attr  : u32
//! per attribute:
//!   name_len : u32, name bytes (utf-8)
//!   type     : u8   0 = scalar, 1 = vector, 2 = id
//!   len      : u64
//!   payload  : len * {4, 12, 8} bytes
//! -- trailer --
//! crc     : u32          CRC-32 (IEEE) of every byte above
//! ```
//!
//! Version 2 (`EBD2`) appends the integrity trailer: [`decode`] verifies
//! the checksum *before* parsing and returns [`DataError::Corrupt`] on a
//! mismatch, so a flipped payload byte — a chaos-injected wire fault, a
//! torn disk write — is detected at the codec layer instead of being
//! parsed into a silently wrong dataset (or rendered). A wrong magic word
//! is still the distinct [`DataError::Format`]: version skew and protocol
//! confusion are framing errors, not corruption.
//!
//! The encoder allocates the exact [`encoded_len`] once, fills each array
//! with one `chunks_exact_mut` pass, and hands the buffer to [`Bytes`]
//! without a copy, so the same bytes can be shipped over the transport
//! layer without re-serialization.

use crate::crc::crc32;
use crate::dataset::DataObject;
use crate::error::{DataError, Result};
use crate::field::{Attribute, AttributeSet};
use crate::grid::UniformGrid;
use crate::points::PointCloud;
use crate::vec3::Vec3;
use bytes::{Buf, Bytes};
use std::fs::File;
use std::io::{Read as _, Write as _};
use std::path::Path;

const MAGIC: &[u8; 4] = b"EBD2";

/// Bytes appended after the body: the CRC-32 integrity trailer.
const TRAILER_BYTES: usize = 4;

const KIND_POINTS: u8 = 1;
const KIND_GRID: u8 = 2;

const ATTR_SCALAR: u8 = 0;
const ATTR_VECTOR: u8 = 1;
const ATTR_ID: u8 = 2;

/// Write cursor over the presized output buffer. Each `put_*` splits its
/// bytes off the front, so an array is one bounds check plus one
/// `chunks_exact_mut` pass, never a per-element growth check.
struct Writer<'a> {
    rest: &'a mut [u8],
}

impl<'a> Writer<'a> {
    fn take(&mut self, n: usize) -> &'a mut [u8] {
        let (head, tail) = std::mem::take(&mut self.rest).split_at_mut(n);
        self.rest = tail;
        head
    }

    fn put(&mut self, bytes: &[u8]) {
        self.take(bytes.len()).copy_from_slice(bytes);
    }

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn put_f32s(&mut self, v: &[f32]) {
        for (out, x) in self.take(v.len() * 4).chunks_exact_mut(4).zip(v) {
            out.copy_from_slice(&x.to_le_bytes());
        }
    }

    fn put_vec3s(&mut self, v: &[Vec3]) {
        for (out, p) in self.take(v.len() * 12).chunks_exact_mut(12).zip(v) {
            out[0..4].copy_from_slice(&p.x.to_le_bytes());
            out[4..8].copy_from_slice(&p.y.to_le_bytes());
            out[8..12].copy_from_slice(&p.z.to_le_bytes());
        }
    }

    fn put_u64s(&mut self, v: &[u64]) {
        for (out, x) in self.take(v.len() * 8).chunks_exact_mut(8).zip(v) {
            out.copy_from_slice(&x.to_le_bytes());
        }
    }
}

fn get_vec3(buf: &mut Bytes) -> Result<Vec3> {
    if buf.remaining() < 12 {
        return Err(DataError::Format("truncated vec3".into()));
    }
    Ok(Vec3::new(buf.get_f32_le(), buf.get_f32_le(), buf.get_f32_le()))
}

fn put_attributes(w: &mut Writer, attrs: &AttributeSet) {
    w.put_u32(attrs.len() as u32);
    for (name, attr) in attrs.iter() {
        w.put_u32(name.len() as u32);
        w.put(name.as_bytes());
        match attr {
            Attribute::Scalar(v) => {
                w.put_u8(ATTR_SCALAR);
                w.put_u64(v.len() as u64);
                w.put_f32s(v);
            }
            Attribute::Vector(v) => {
                w.put_u8(ATTR_VECTOR);
                w.put_u64(v.len() as u64);
                w.put_vec3s(v);
            }
            Attribute::Id(v) => {
                w.put_u8(ATTR_ID);
                w.put_u64(v.len() as u64);
                w.put_u64s(v);
            }
        }
    }
}

fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(DataError::Format(format!("truncated {what}")))
    } else {
        Ok(())
    }
}

/// Split `len * stride` bytes off the front of `buf` without copying.
/// `Bytes::split_to` shares the allocation, so the payload slice views the
/// wire buffer directly; the element conversion below is the only copy.
fn take(buf: &mut Bytes, len: usize, stride: usize, what: &str) -> Result<Bytes> {
    let bytes = len
        .checked_mul(stride)
        .ok_or_else(|| DataError::Format(format!("{what} length overflow")))?;
    need(buf, bytes, what)?;
    Ok(buf.split_to(bytes))
}

fn f32s_from(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn vec3s_from(raw: &[u8]) -> Vec<Vec3> {
    raw.chunks_exact(12)
        .map(|c| {
            Vec3::new(
                f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                f32::from_le_bytes([c[8], c[9], c[10], c[11]]),
            )
        })
        .collect()
}

fn u64s_from(raw: &[u8]) -> Vec<u64> {
    raw.chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

/// Decode the attribute section. Returns owned `(name, attribute)` pairs so
/// the caller can move them into the dataset instead of cloning.
fn get_attributes(buf: &mut Bytes) -> Result<Vec<(String, Attribute)>> {
    need(buf, 4, "attribute count")?;
    let n_attr = buf.get_u32_le() as usize;
    let mut attrs = Vec::with_capacity(n_attr);
    for _ in 0..n_attr {
        need(buf, 4, "attribute name length")?;
        let name_len = buf.get_u32_le() as usize;
        need(buf, name_len, "attribute name")?;
        let name_bytes = buf.split_to(name_len);
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| DataError::Format("attribute name is not utf-8".into()))?
            .to_string();
        need(buf, 9, "attribute header")?;
        let ty = buf.get_u8();
        let len = buf.get_u64_le() as usize;
        let attr = match ty {
            ATTR_SCALAR => Attribute::Scalar(f32s_from(&take(buf, len, 4, "scalar payload")?)),
            ATTR_VECTOR => Attribute::Vector(vec3s_from(&take(buf, len, 12, "vector payload")?)),
            ATTR_ID => Attribute::Id(u64s_from(&take(buf, len, 8, "id payload")?)),
            other => {
                return Err(DataError::Format(format!("unknown attribute type {other}")))
            }
        };
        attrs.push((name, attr));
    }
    Ok(attrs)
}

fn attributes_encoded_len(attrs: &AttributeSet) -> usize {
    4 + attrs
        .iter()
        .map(|(name, attr)| {
            4 + name.len()
                + 9
                + match attr {
                    Attribute::Scalar(v) => v.len() * 4,
                    Attribute::Vector(v) => v.len() * 12,
                    Attribute::Id(v) => v.len() * 8,
                }
        })
        .sum::<usize>()
}

/// Exact size of [`encode`]'s output for `obj`, from the format layout in
/// the module docs. Lets the encoder allocate once with no slack and no
/// mid-encode growth copies.
pub fn encoded_len(obj: &DataObject) -> usize {
    5 + match obj {
        DataObject::Points(p) => 8 + p.len() * 12 + attributes_encoded_len(p.attributes()),
        DataObject::Grid(g) => 24 + 24 + attributes_encoded_len(g.attributes()),
    } + TRAILER_BYTES
}

/// Encode a dataset into a fresh byte buffer.
pub fn encode(obj: &DataObject) -> Bytes {
    let mut out = vec![0u8; encoded_len(obj)];
    let body_len = out.len() - TRAILER_BYTES;
    let (body, trailer) = out.split_at_mut(body_len);
    let mut w = Writer { rest: body };
    w.put(MAGIC);
    match obj {
        DataObject::Points(p) => {
            w.put_u8(KIND_POINTS);
            w.put_u64(p.len() as u64);
            w.put_vec3s(p.positions());
            put_attributes(&mut w, p.attributes());
        }
        DataObject::Grid(g) => {
            w.put_u8(KIND_GRID);
            for d in g.dims() {
                w.put_u64(d as u64);
            }
            w.put_vec3s(&[g.origin(), g.spacing()]);
            put_attributes(&mut w, g.attributes());
        }
    }
    assert!(w.rest.is_empty(), "encoded_len out of sync with encode");
    trailer.copy_from_slice(&crc32(body).to_le_bytes());
    Bytes::from(out)
}

/// Decode a dataset from bytes produced by [`encode`].
///
/// Check order: magic first (wrong magic is a [`DataError::Format`] —
/// version skew, not bit rot), then the CRC-32 trailer over the whole
/// body ([`DataError::Corrupt`] on mismatch), and only then the parse.
/// A corrupted buffer therefore never reaches the structural decoder.
pub fn decode(buf: Bytes) -> Result<DataObject> {
    need(&buf, 5, "header")?;
    if &buf[..4] != MAGIC {
        return Err(DataError::Format(format!(
            "bad magic {:?}, expected {MAGIC:?}",
            &buf[..4]
        )));
    }
    need(&buf, 5 + TRAILER_BYTES, "integrity trailer")?;
    let body_len = buf.len() - TRAILER_BYTES;
    let stored = u32::from_le_bytes([
        buf[body_len],
        buf[body_len + 1],
        buf[body_len + 2],
        buf[body_len + 3],
    ]);
    let computed = crc32(&buf[..body_len]);
    if stored != computed {
        return Err(DataError::Corrupt(format!(
            "dataset checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    // body minus the (verified) magic and the trailer, sharing the
    // allocation
    let mut buf = buf.slice(4..body_len);
    match buf.get_u8() {
        KIND_POINTS => {
            need(&buf, 8, "point count")?;
            let count = buf.get_u64_le() as usize;
            let pos = vec3s_from(&take(&mut buf, count, 12, "positions")?);
            let mut cloud = PointCloud::from_positions(pos);
            for (name, attr) in get_attributes(&mut buf)? {
                cloud.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Points(cloud))
        }
        KIND_GRID => {
            need(&buf, 24, "grid dims")?;
            let dims = [
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
                buf.get_u64_le() as usize,
            ];
            let origin = get_vec3(&mut buf)?;
            let spacing = get_vec3(&mut buf)?;
            let mut grid = UniformGrid::new(dims, origin, spacing)?;
            for (name, attr) in get_attributes(&mut buf)? {
                grid.set_attribute(&name, attr)?;
            }
            Ok(DataObject::Grid(grid))
        }
        other => Err(DataError::Format(format!("unknown dataset kind {other}"))),
    }
}

/// Write a dataset to a `.ebd` file.
pub fn write_file(obj: &DataObject, path: &Path) -> Result<()> {
    let bytes = encode(obj);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Read a dataset from a `.ebd` file.
pub fn read_file(path: &Path) -> Result<DataObject> {
    let mut f = File::open(path)?;
    let mut v = Vec::new();
    f.read_to_end(&mut v)?;
    decode(Bytes::from(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> DataObject {
        let mut c = PointCloud::from_positions(vec![
            Vec3::new(0.5, 1.5, 2.5),
            Vec3::new(-1.0, 0.0, 3.0),
        ]);
        c.set_attribute("mass", Attribute::Scalar(vec![1.0, 2.0])).unwrap();
        c.set_attribute(
            "vel",
            Attribute::Vector(vec![Vec3::ONE, Vec3::new(0.0, -1.0, 0.5)]),
        )
        .unwrap();
        c.set_attribute("id", Attribute::Id(vec![42, 7])).unwrap();
        DataObject::Points(c)
    }

    fn sample_grid() -> DataObject {
        let mut g =
            UniformGrid::new([3, 2, 2], Vec3::new(1.0, 2.0, 3.0), Vec3::splat(0.5)).unwrap();
        g.set_attribute(
            "temp",
            Attribute::Scalar((0..12).map(|i| i as f32 * 0.25).collect()),
        )
        .unwrap();
        DataObject::Grid(g)
    }

    #[test]
    fn points_roundtrip_in_memory() {
        let obj = sample_points();
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn grid_roundtrip_in_memory() {
        let obj = sample_grid();
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("eth-data-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.ebd");
        let obj = sample_points();
        write_file(&obj, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(obj, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoded_len_is_exact() {
        for obj in [
            sample_points(),
            sample_grid(),
            DataObject::Points(PointCloud::new()),
        ] {
            assert_eq!(encode(&obj).len(), encoded_len(&obj));
        }
    }

    #[test]
    fn rejects_wrong_attribute_length() {
        // Corrupt a scalar attribute's length field: the integrity trailer
        // catches the flip before the structural parse even runs.
        let obj = sample_points();
        let raw = encode(&obj).to_vec();
        // The first attribute ("mass") starts after magic(4) + kind(1) +
        // count(8) + 2 positions(24) + n_attr(4) = 41; its header is
        // name_len(4) + "mass"(4) + type(1), then len: u64 at offset 50.
        let mut bad = raw.clone();
        bad[50] = 1; // claim 1 element instead of 2
        assert!(matches!(
            decode(Bytes::from(bad)),
            Err(DataError::Corrupt(_))
        ));
    }

    #[test]
    fn any_payload_byte_flip_is_detected_as_corruption() {
        // The acceptance property: flipping ANY byte past the magic makes
        // decode fail with the corruption error (the magic bytes instead
        // fail as Format — version skew, not bit rot).
        for obj in [sample_points(), sample_grid()] {
            let raw = encode(&obj).to_vec();
            for offset in 0..raw.len() {
                let mut bad = raw.clone();
                bad[offset] ^= 0x01;
                match decode(Bytes::from(bad)) {
                    Err(DataError::Format(_)) if offset < 4 => {}
                    Err(DataError::Corrupt(_)) if offset >= 4 => {}
                    other => panic!("flip at {offset}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn trailer_stripped_before_parse() {
        // A valid buffer must decode with the trailer present (i.e. the
        // trailer is not mistaken for attribute data).
        let obj = sample_grid();
        let bytes = encode(&obj);
        assert_eq!(bytes.len(), encoded_len(&obj));
        assert_eq!(decode(bytes).unwrap(), obj);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample_points()).to_vec();
        raw[0] = b'X';
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(DataError::Format(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = encode(&sample_points()).to_vec();
        // Chop at a spread of offsets; every prefix must fail cleanly,
        // never panic.
        for cut in [0, 3, 4, 5, 12, 13, 20, full.len() - 1] {
            let r = decode(Bytes::from(full[..cut].to_vec()));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut raw = encode(&sample_grid()).to_vec();
        raw[4] = 99;
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn empty_cloud_roundtrips() {
        let obj = DataObject::Points(PointCloud::new());
        let back = decode(encode(&obj)).unwrap();
        assert_eq!(obj, back);
    }
}
