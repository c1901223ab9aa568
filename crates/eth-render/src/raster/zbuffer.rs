//! The sparse chunk z-buffer shared by the chunked rasterizers.
//!
//! [`splat`](super::splat) and [`triangle`](super::triangle) cut their
//! primitives into rayon chunks. Each chunk depth-tests its fragments
//! against a z-buffer of its own, so `fragments` counts the landings
//! against that chunk-local buffer. The chunks' winners then merge into
//! the frame in chunk order with the same strict `<`, which keeps, per
//! pixel, the nearest fragment and on a depth tie the first one in input
//! order: the image any single serial pass over the input would draw.
//!
//! Contract, in the order a fragment meets it:
//! * the caller computes the fragment's depth and pixel, nothing else,
//! * [`ChunkZBuffer::write`] (or `write_clipped`, which first drops
//!   off-image fragments) depth-tests it (strict `<`),
//! * only a fragment that lands is shaded (the `shade` closure runs once
//!   per landing), so the normal, the transfer function and
//!   [`crate::shading::Lighting::shade`] are paid per winner, not per
//!   covered pixel.
//!
//! Memory: each rayon worker reuses one full-size scratch buffer
//! (`map_init`); a finished chunk hands over its winners as a compact
//! `(pixel, depth, color)` list and resets only the pixels it touched.

use crate::framebuffer::Framebuffer;
use eth_data::Vec3;
use rayon::prelude::*;

/// One chunk's private depth/color buffer plus the pixels it has touched.
pub(crate) struct ChunkZBuffer {
    width: usize,
    height: usize,
    depth: Vec<f32>,
    color: Vec<Vec3>,
    touched: Vec<u32>,
}

/// A chunk's nearest fragment at one pixel.
struct Winner {
    pixel: u32,
    depth: f32,
    color: Vec3,
}

impl ChunkZBuffer {
    fn new(width: usize, height: usize) -> ChunkZBuffer {
        assert!(
            width * height <= u32::MAX as usize,
            "image too large for a chunk z-buffer"
        );
        ChunkZBuffer {
            width,
            height,
            depth: vec![f32::INFINITY; width * height],
            color: vec![Vec3::ZERO; width * height],
            touched: Vec::new(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Depth-tested write at an in-image pixel: the fragment lands only if
    /// it is strictly nearer than the chunk's current one, and only then is
    /// `shade` called for its color. Returns true if it landed.
    #[inline]
    pub(crate) fn write(
        &mut self,
        x: usize,
        y: usize,
        depth: f32,
        shade: impl FnOnce() -> Vec3,
    ) -> bool {
        debug_assert!(x < self.width && y < self.height);
        let i = y * self.width + x;
        let old = self.depth[i];
        if depth < old {
            // Depths only ever fall, so a pixel still at infinity is one
            // this chunk has not touched yet.
            if old == f32::INFINITY {
                self.touched.push(i as u32);
            }
            self.depth[i] = depth;
            self.color[i] = shade();
            true
        } else {
            false
        }
    }

    /// [`ChunkZBuffer::write`] with bounds clipping: fragments off the image
    /// are discarded unshaded.
    #[inline]
    pub(crate) fn write_clipped(
        &mut self,
        x: isize,
        y: isize,
        depth: f32,
        shade: impl FnOnce() -> Vec3,
    ) -> bool {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return false;
        }
        self.write(x as usize, y as usize, depth, shade)
    }

    /// Hand over this chunk's winners and reset the pixels it touched, so
    /// the buffer is clean for the worker's next chunk.
    fn drain(&mut self) -> Vec<Winner> {
        let winners = self
            .touched
            .iter()
            .map(|&p| {
                let i = p as usize;
                let w = Winner {
                    pixel: p,
                    depth: self.depth[i],
                    color: self.color[i],
                };
                self.depth[i] = f32::INFINITY;
                w
            })
            .collect();
        self.touched.clear();
        winners
    }
}

/// Rasterize `items` in chunks of `chunk` into a `width × height` frame
/// cleared to `background`. `draw(chunk_index, chunk, zbuffer)` draws one
/// chunk into its worker's scratch buffer and returns that chunk's stats;
/// the stats come back in chunk order.
pub(crate) fn rasterize_chunks<T, S, F>(
    items: &[T],
    chunk: usize,
    width: usize,
    height: usize,
    background: Vec3,
    draw: F,
) -> (Framebuffer, Vec<S>)
where
    T: Sync,
    S: Send,
    F: Fn(usize, &[T], &mut ChunkZBuffer) -> S + Sync,
{
    let parts: Vec<(Vec<Winner>, S)> = items
        .par_chunks(chunk)
        .enumerate()
        .map_init(
            || ChunkZBuffer::new(width, height),
            |zb, (ci, part)| {
                let stats = draw(ci, part, zb);
                (zb.drain(), stats)
            },
        )
        .collect();
    let mut fb = Framebuffer::new(width, height, background);
    let mut stats = Vec::with_capacity(parts.len());
    for (winners, s) in parts {
        for w in winners {
            let i = w.pixel as usize;
            fb.write(i % width, i / width, w.depth, w.color);
        }
        stats.push(s);
    }
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_landing_fragments_are_shaded() {
        let mut zb = ChunkZBuffer::new(4, 4);
        let mut shaded = 0;
        let mut shade = |c: f32| {
            shaded += 1;
            Vec3::splat(c)
        };
        assert!(zb.write(1, 1, 2.0, || shade(0.5)));
        assert!(!zb.write(1, 1, 3.0, || shade(0.7)));
        assert!(
            !zb.write(1, 1, 2.0, || shade(0.9)),
            "a depth tie keeps the first"
        );
        assert!(!zb.write_clipped(-1, 0, 0.1, || shade(0.2)));
        assert!(!zb.write_clipped(0, 4, 0.1, || shade(0.2)));
        assert_eq!(shaded, 1);
    }

    #[test]
    fn drain_emits_each_touched_pixel_once_and_resets_it() {
        let mut zb = ChunkZBuffer::new(3, 2);
        zb.write(2, 1, 5.0, || Vec3::splat(0.1));
        zb.write(2, 1, 4.0, || Vec3::splat(0.2));
        zb.write(0, 0, 1.0, || Vec3::splat(0.3));
        let w = zb.drain();
        let got: Vec<_> = w.iter().map(|w| (w.pixel, w.depth, w.color)).collect();
        assert_eq!(
            got,
            vec![(5, 4.0, Vec3::splat(0.2)), (0, 1.0, Vec3::splat(0.3))]
        );
        assert!(zb.depth.iter().all(|&d| d == f32::INFINITY));
        assert!(zb.drain().is_empty());
    }

    #[test]
    fn chunks_merge_in_order_and_the_first_chunk_wins_ties() {
        // One fragment per item, all on pixel (1, 0): two at depth 1.0,
        // then two nearer ones that tie. Chunks of one item each.
        let items = [(1.0f32, 0.2f32), (1.0, 0.4), (0.5, 0.6), (0.5, 0.8)];
        for threads in 1..=3 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (fb, stats) = pool.install(|| {
                rasterize_chunks(&items, 1, 2, 1, Vec3::ZERO, |_, part, zb| {
                    let (d, c) = part[0];
                    zb.write(1, 0, d, || Vec3::splat(c)) as u64
                })
            });
            assert_eq!(
                stats,
                vec![1, 1, 1, 1],
                "each chunk lands against its own buffer"
            );
            assert_eq!(fb.color_at(1, 0), Vec3::splat(0.6));
            assert_eq!(fb.depth_at(1, 0), 0.5);
            assert_eq!(fb.depth_at(0, 0), f32::INFINITY);
        }
    }
}
