//! RGB images and the paper's image-quality metric (RMSE).

use eth_data::error::{DataError, Result};
use eth_data::Vec3;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;

/// A linear-RGB image; channel values nominally in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<Vec3>,
}

impl Image {
    /// Solid-color image.
    pub fn filled(width: usize, height: usize, color: Vec3) -> Image {
        Image {
            width,
            height,
            pixels: vec![color; width * height],
        }
    }

    /// Black image.
    pub fn black(width: usize, height: usize) -> Image {
        Image::filled(width, height, Vec3::ZERO)
    }

    pub fn from_pixels(width: usize, height: usize, pixels: Vec<Vec3>) -> Result<Image> {
        if pixels.len() != width * height {
            return Err(DataError::InvalidArgument(format!(
                "pixel buffer holds {} values for a {width}x{height} image",
                pixels.len()
            )));
        }
        Ok(Image {
            width,
            height,
            pixels,
        })
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn pixels(&self) -> &[Vec3] {
        &self.pixels
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Vec3 {
        self.pixels[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, c: Vec3) {
        self.pixels[y * self.width + x] = c;
    }

    /// Root-mean-square error against a reference image, over all pixels and
    /// channels, in the same `[0, 1]` units as the pixel data. This is the
    /// metric of Table II in the paper.
    pub fn rmse(&self, reference: &Image) -> Result<f64> {
        if self.width != reference.width || self.height != reference.height {
            return Err(DataError::InvalidArgument(format!(
                "image sizes differ: {}x{} vs {}x{}",
                self.width, self.height, reference.width, reference.height
            )));
        }
        if self.pixels.is_empty() {
            return Ok(0.0);
        }
        let mut acc = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&reference.pixels) {
            let d = *a - *b;
            acc += (d.x as f64).powi(2) + (d.y as f64).powi(2) + (d.z as f64).powi(2);
        }
        Ok((acc / (self.pixels.len() * 3) as f64).sqrt())
    }

    /// Mean absolute per-channel difference; a secondary quality metric.
    pub fn mean_abs_diff(&self, reference: &Image) -> Result<f64> {
        if self.width != reference.width || self.height != reference.height {
            return Err(DataError::InvalidArgument("image sizes differ".into()));
        }
        if self.pixels.is_empty() {
            return Ok(0.0);
        }
        let mut acc = 0.0f64;
        for (a, b) in self.pixels.iter().zip(&reference.pixels) {
            let d = *a - *b;
            acc += d.x.abs() as f64 + d.y.abs() as f64 + d.z.abs() as f64;
        }
        Ok(acc / (self.pixels.len() * 3) as f64)
    }

    /// Fraction of pixels that differ from the reference by more than `tol`
    /// in any channel.
    pub fn fraction_changed(&self, reference: &Image, tol: f32) -> Result<f64> {
        if self.width != reference.width || self.height != reference.height {
            return Err(DataError::InvalidArgument("image sizes differ".into()));
        }
        if self.pixels.is_empty() {
            return Ok(0.0);
        }
        let changed = self
            .pixels
            .iter()
            .zip(&reference.pixels)
            .filter(|(a, b)| {
                let d = **a - **b;
                d.x.abs() > tol || d.y.abs() > tol || d.z.abs() > tol
            })
            .count();
        Ok(changed as f64 / self.pixels.len() as f64)
    }

    /// Structural similarity (SSIM) against a reference image, on the
    /// luma channel with an 8×8 window, mean over windows. 1.0 = identical.
    ///
    /// The paper notes that "quantifying the perceptive value of the image
    /// produced is an active research problem" and expects harness users to
    /// plug in "more sophisticated metrics explicitly targeted at measuring
    /// the perception quality of an image" — SSIM is the standard first
    /// step beyond RMSE.
    pub fn ssim(&self, reference: &Image) -> Result<f64> {
        if self.width != reference.width || self.height != reference.height {
            return Err(DataError::InvalidArgument("image sizes differ".into()));
        }
        if self.pixels.is_empty() {
            return Ok(1.0);
        }
        let luma = |img: &Image| -> Vec<f64> {
            img.pixels
                .iter()
                .map(|c| 0.2126 * c.x as f64 + 0.7152 * c.y as f64 + 0.0722 * c.z as f64)
                .collect()
        };
        let a = luma(self);
        let b = luma(reference);
        const WIN: usize = 8;
        // standard SSIM constants for data range L = 1.0
        const C1: f64 = 0.01 * 0.01;
        const C2: f64 = 0.03 * 0.03;
        let mut total = 0.0f64;
        let mut windows = 0usize;
        let mut wy = 0;
        while wy < self.height {
            let mut wx = 0;
            while wx < self.width {
                let mut n = 0.0f64;
                let (mut sa, mut sb, mut saa, mut sbb, mut sab) = (0.0, 0.0, 0.0, 0.0, 0.0);
                for y in wy..(wy + WIN).min(self.height) {
                    for x in wx..(wx + WIN).min(self.width) {
                        let i = y * self.width + x;
                        let (va, vb) = (a[i], b[i]);
                        n += 1.0;
                        sa += va;
                        sb += vb;
                        saa += va * va;
                        sbb += vb * vb;
                        sab += va * vb;
                    }
                }
                let mu_a = sa / n;
                let mu_b = sb / n;
                let var_a = (saa / n - mu_a * mu_a).max(0.0);
                let var_b = (sbb / n - mu_b * mu_b).max(0.0);
                let cov = sab / n - mu_a * mu_b;
                let ssim = ((2.0 * mu_a * mu_b + C1) * (2.0 * cov + C2))
                    / ((mu_a * mu_a + mu_b * mu_b + C1) * (var_a + var_b + C2));
                total += ssim;
                windows += 1;
                wx += WIN;
            }
            wy += WIN;
        }
        Ok(total / windows as f64)
    }

    /// Fraction of non-background pixels (any channel above `tol`); a crude
    /// coverage measure used by the tests to check renderers drew something.
    pub fn coverage(&self, tol: f32) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let lit = self
            .pixels
            .iter()
            .filter(|p| p.x > tol || p.y > tol || p.z > tol)
            .count();
        lit as f64 / self.pixels.len() as f64
    }

    /// Write as binary PPM (P6), sRGB-ish gamma 2.2, 8-bit.
    pub fn write_ppm(&self, path: &Path) -> Result<()> {
        let f = File::create(path)?;
        let mut w = BufWriter::new(f);
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width * 3);
        for y in 0..self.height {
            row.clear();
            for x in 0..self.width {
                let c = self.get(x, y);
                for ch in [c.x, c.y, c.z] {
                    let v = ch.clamp(0.0, 1.0).powf(1.0 / 2.2);
                    row.push((v * 255.0 + 0.5) as u8);
                }
            }
            w.write_all(&row)?;
        }
        Ok(())
    }

    /// Encode as an 8-bit RGB PNG, using the same sRGB-ish gamma-2.2
    /// quantization as [`Image::write_ppm`], so the PNG and PPM artifacts
    /// of one frame show identical pixels.
    ///
    /// The encoder is self-contained (no compression library in the
    /// build): the IDAT zlib stream uses *stored* deflate blocks — larger
    /// than compressed output but bit-exact, deterministic, and valid for
    /// every PNG decoder. Determinism matters: the campaign service's
    /// byte-identical-results contract extends to the PNGs it streams.
    pub fn to_png(&self) -> Vec<u8> {
        // Filtered scanlines: filter byte 0 (None) + RGB row.
        let mut raw = Vec::with_capacity(self.height * (1 + self.width * 3));
        for y in 0..self.height {
            raw.push(0u8);
            for x in 0..self.width {
                let c = self.get(x, y);
                for ch in [c.x, c.y, c.z] {
                    let v = ch.clamp(0.0, 1.0).powf(1.0 / 2.2);
                    raw.push((v * 255.0 + 0.5) as u8);
                }
            }
        }

        // zlib wrapper (RFC 1950) around stored deflate blocks (RFC 1951).
        let mut z = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
        z.extend_from_slice(&[0x78, 0x01]); // CMF/FLG: deflate, 32K window
        let mut chunks = raw.chunks(65_535).peekable();
        loop {
            let Some(block) = chunks.next() else {
                // empty image: one final empty stored block
                z.extend_from_slice(&[0x01, 0x00, 0x00, 0xFF, 0xFF]);
                break;
            };
            let last = chunks.peek().is_none();
            z.push(last as u8); // BFINAL, BTYPE=00 (stored)
            let len = block.len() as u16;
            z.extend_from_slice(&len.to_le_bytes());
            z.extend_from_slice(&(!len).to_le_bytes());
            z.extend_from_slice(block);
            if last {
                break;
            }
        }
        z.extend_from_slice(&adler32(&raw).to_be_bytes());

        let mut png = Vec::with_capacity(z.len() + 64);
        png.extend_from_slice(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);
        let mut ihdr = Vec::with_capacity(13);
        ihdr.extend_from_slice(&(self.width as u32).to_be_bytes());
        ihdr.extend_from_slice(&(self.height as u32).to_be_bytes());
        // bit depth 8, color type 2 (RGB), deflate, no interlace
        ihdr.extend_from_slice(&[8, 2, 0, 0, 0]);
        png_chunk(&mut png, b"IHDR", &ihdr);
        png_chunk(&mut png, b"IDAT", &z);
        png_chunk(&mut png, b"IEND", &[]);
        png
    }

    /// Read a binary PPM written by [`Image::write_ppm`] (P6, maxval 255).
    pub fn read_ppm(path: &Path) -> Result<Image> {
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        // Parse the three header fields, skipping whitespace/comments.
        let mut pos = 0usize;
        let mut field = |raw: &[u8]| -> Result<String> {
            // skip whitespace and comments
            loop {
                while pos < raw.len() && raw[pos].is_ascii_whitespace() {
                    pos += 1;
                }
                if pos < raw.len() && raw[pos] == b'#' {
                    while pos < raw.len() && raw[pos] != b'\n' {
                        pos += 1;
                    }
                } else {
                    break;
                }
            }
            let start = pos;
            while pos < raw.len() && !raw[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err(DataError::Format("truncated PPM header".into()));
            }
            Ok(std::str::from_utf8(&raw[start..pos])
                .map_err(|_| DataError::Format("non-utf8 PPM header".into()))?
                .to_string())
        };
        let magic = field(&raw)?;
        if magic != "P6" {
            return Err(DataError::Format(format!("not a P6 PPM (got '{magic}')")));
        }
        let width: usize = field(&raw)?
            .parse()
            .map_err(|_| DataError::Format("bad PPM width".into()))?;
        let height: usize = field(&raw)?
            .parse()
            .map_err(|_| DataError::Format("bad PPM height".into()))?;
        let maxval: usize = field(&raw)?
            .parse()
            .map_err(|_| DataError::Format("bad PPM maxval".into()))?;
        if maxval != 255 {
            return Err(DataError::Format(format!("unsupported maxval {maxval}")));
        }
        pos += 1; // single whitespace after maxval
        let need = width * height * 3;
        if raw.len() < pos + need {
            return Err(DataError::Format("truncated PPM pixel data".into()));
        }
        let mut pixels = Vec::with_capacity(width * height);
        for i in 0..width * height {
            let o = pos + i * 3;
            let decode = |b: u8| ((b as f32) / 255.0).powf(2.2);
            pixels.push(Vec3::new(
                decode(raw[o]),
                decode(raw[o + 1]),
                decode(raw[o + 2]),
            ));
        }
        Image::from_pixels(width, height, pixels)
    }
}

/// Adler-32 over `data` (RFC 1950 §8.2), for the zlib trailer.
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let (mut a, mut b) = (1u32, 0u32);
    // 5552 is the largest run that cannot overflow u32 before reduction
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Append one PNG chunk: length, type, payload, CRC-32 over type+payload.
fn png_chunk(out: &mut Vec<u8>, kind: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(payload);
    let mut crc = eth_data::crc::Crc32::new();
    crc.update(kind);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_size() {
        assert!(Image::from_pixels(2, 2, vec![Vec3::ZERO; 3]).is_err());
        assert!(Image::from_pixels(2, 2, vec![Vec3::ZERO; 4]).is_ok());
    }

    /// Minimal stored-deflate inflater for the tests: enough to decode
    /// exactly what [`Image::to_png`] emits (BTYPE=00 blocks only).
    fn inflate_stored(z: &[u8]) -> Vec<u8> {
        assert!(z.len() >= 6, "zlib stream too short");
        let mut out = Vec::new();
        let mut pos = 2; // skip CMF/FLG
        loop {
            let header = z[pos];
            assert_eq!(header & 0x06, 0, "not a stored block");
            let len = u16::from_le_bytes([z[pos + 1], z[pos + 2]]) as usize;
            let nlen = u16::from_le_bytes([z[pos + 3], z[pos + 4]]);
            assert_eq!(!(len as u16), nlen, "stored-block length check");
            pos += 5;
            out.extend_from_slice(&z[pos..pos + len]);
            pos += len;
            if header & 1 == 1 {
                break;
            }
        }
        assert_eq!(
            u32::from_be_bytes(z[pos..pos + 4].try_into().unwrap()),
            adler32(&out),
            "zlib adler32 trailer"
        );
        out
    }

    #[test]
    fn png_structure_and_pixels_roundtrip() {
        let mut img = Image::black(3, 2);
        img.set(0, 0, Vec3::new(1.0, 0.0, 0.0));
        img.set(2, 1, Vec3::new(0.25, 0.5, 0.75));
        let png = img.to_png();
        // signature
        assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']);
        // walk the chunks, verifying every CRC
        let mut pos = 8;
        let mut kinds = Vec::new();
        let mut idat = Vec::new();
        while pos < png.len() {
            let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
            let kind = &png[pos + 4..pos + 8];
            let payload = &png[pos + 8..pos + 8 + len];
            let crc = u32::from_be_bytes(png[pos + 8 + len..pos + 12 + len].try_into().unwrap());
            let mut check = kind.to_vec();
            check.extend_from_slice(payload);
            assert_eq!(crc, eth_data::crc::crc32(&check), "chunk CRC");
            kinds.push(kind.to_vec());
            if kind == b"IDAT" {
                idat.extend_from_slice(payload);
            }
            if kind == b"IHDR" {
                assert_eq!(u32::from_be_bytes(payload[0..4].try_into().unwrap()), 3);
                assert_eq!(u32::from_be_bytes(payload[4..8].try_into().unwrap()), 2);
                assert_eq!(&payload[8..13], &[8, 2, 0, 0, 0]);
            }
            pos += 12 + len;
        }
        assert_eq!(kinds.first().map(|k| &k[..]), Some(&b"IHDR"[..]));
        assert_eq!(kinds.last().map(|k| &k[..]), Some(&b"IEND"[..]));
        // scanlines carry the same gamma-2.2 bytes the PPM path writes
        let raw = inflate_stored(&idat);
        assert_eq!(raw.len(), 2 * (1 + 3 * 3));
        let quant = |v: f32| (v.clamp(0.0, 1.0).powf(1.0 / 2.2) * 255.0 + 0.5) as u8;
        assert_eq!(raw[0], 0, "filter byte");
        assert_eq!(&raw[1..4], &[quant(1.0), 0, 0]);
        let last = &raw[raw.len() - 3..];
        assert_eq!(last, &[quant(0.25), quant(0.5), quant(0.75)]);
        // deterministic: same image, same bytes
        assert_eq!(png, img.to_png());
    }

    #[test]
    fn png_handles_large_and_empty_images() {
        // > 65535 raw bytes forces multiple stored blocks
        let big = Image::filled(160, 140, Vec3::splat(0.5));
        let png = big.to_png();
        let mut pos = 8;
        let mut idat = Vec::new();
        while pos < png.len() {
            let len = u32::from_be_bytes(png[pos..pos + 4].try_into().unwrap()) as usize;
            if &png[pos + 4..pos + 8] == b"IDAT" {
                idat.extend_from_slice(&png[pos + 8..pos + 8 + len]);
            }
            pos += 12 + len;
        }
        let raw = inflate_stored(&idat);
        assert_eq!(raw.len(), 140 * (1 + 160 * 3));
        let quant = (0.5f32.powf(1.0 / 2.2) * 255.0 + 0.5) as u8;
        assert!(raw[1..].iter().enumerate().all(|(i, &b)| {
            let row_len = 1 + 160 * 3;
            ((i + 1) % row_len == 0 && b == 0) || b == quant
        }));
    }

    #[test]
    fn rmse_identical_is_zero() {
        let a = Image::filled(4, 4, Vec3::splat(0.5));
        assert_eq!(a.rmse(&a).unwrap(), 0.0);
    }

    #[test]
    fn rmse_of_known_difference() {
        let a = Image::filled(2, 2, Vec3::ZERO);
        let b = Image::filled(2, 2, Vec3::splat(0.5));
        // every channel differs by 0.5 -> rmse = 0.5
        assert!((a.rmse(&b).unwrap() - 0.5).abs() < 1e-9);
        assert!((a.mean_abs_diff(&b).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rmse_size_mismatch_errors() {
        let a = Image::black(2, 2);
        let b = Image::black(2, 3);
        assert!(a.rmse(&b).is_err());
    }

    #[test]
    fn coverage_counts_lit_pixels() {
        let mut a = Image::black(2, 2);
        a.set(0, 0, Vec3::new(0.9, 0.0, 0.0));
        assert!((a.coverage(0.01) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fraction_changed_threshold() {
        let a = Image::black(2, 1);
        let mut b = Image::black(2, 1);
        b.set(0, 0, Vec3::splat(0.2));
        assert_eq!(a.fraction_changed(&b, 0.1).unwrap(), 0.5);
        assert_eq!(a.fraction_changed(&b, 0.3).unwrap(), 0.0);
    }

    #[test]
    fn ssim_identical_is_one() {
        let a = Image::filled(16, 16, Vec3::splat(0.4));
        assert!((a.ssim(&a).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_penalizes_structure_loss_more_than_uniform_shift() {
        // A constant brightness shift keeps structure (high SSIM); shuffling
        // structure at the same RMSE scores much lower.
        let mut base = Image::black(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                base.set(x, y, Vec3::splat(if (x / 4 + y / 4) % 2 == 0 { 0.8 } else { 0.2 }));
            }
        }
        let mut shifted = base.clone();
        for y in 0..32 {
            for x in 0..32 {
                let c = shifted.get(x, y);
                shifted.set(x, y, c + Vec3::splat(0.1));
            }
        }
        let mut scrambled = Image::black(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                // same values, structure destroyed (stripes vs checkers)
                scrambled.set(x, y, Vec3::splat(if x % 2 == 0 { 0.8 } else { 0.2 }));
            }
        }
        let s_shift = base.ssim(&shifted).unwrap();
        let s_scramble = base.ssim(&scrambled).unwrap();
        assert!(s_shift > 0.7, "uniform shift ssim {s_shift}");
        assert!(
            s_scramble < s_shift - 0.2,
            "structure loss should score lower: {s_scramble} vs {s_shift}"
        );
    }

    #[test]
    fn ssim_bounded_and_symmetric() {
        let mut a = Image::black(16, 16);
        let mut b = Image::black(16, 16);
        for i in 0..16 {
            a.set(i, i, Vec3::splat(0.9));
            b.set(i, 15 - i, Vec3::splat(0.9));
        }
        let ab = a.ssim(&b).unwrap();
        let ba = b.ssim(&a).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!((-1.0..=1.0).contains(&ab));
        assert!(a.ssim(&Image::black(8, 8)).is_err());
    }

    #[test]
    fn ppm_roundtrip() {
        let dir = std::env::temp_dir().join("eth-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("img.ppm");
        let mut img = Image::black(3, 2);
        img.set(0, 0, Vec3::new(1.0, 0.0, 0.0));
        img.set(2, 1, Vec3::new(0.25, 0.5, 0.75));
        img.write_ppm(&path).unwrap();
        let back = Image::read_ppm(&path).unwrap();
        assert_eq!(back.width(), 3);
        assert_eq!(back.height(), 2);
        // 8-bit + gamma roundtrip: small quantization error allowed
        assert!(img.rmse(&back).unwrap() < 0.01);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ppm_rejects_garbage() {
        let dir = std::env::temp_dir().join("eth-image-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ppm");
        std::fs::write(&path, b"P3\n1 1\n255\n0 0 0\n").unwrap();
        assert!(Image::read_ppm(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
