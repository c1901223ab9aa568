//! Gaussian splatter renderer.
//!
//! The paper's second geometry-based particle technique: each point becomes
//! a single screen-aligned impostor "rendered to the screen using a
//! specialized shader function that manipulates the triangle normal at each
//! pixel to model a sphere" (Section IV-C). We implement exactly that
//! impostor trick in software: the footprint is a disc whose per-pixel
//! normals are reconstructed from the disc parameterization, giving the
//! appearance of a shaded sphere without any sphere geometry.
//!
//! Cost shape: O(N) times the footprint area. The paper observed Gaussian
//! splat outperforming VTK points and attributed it to "a superior
//! implementation"; this splatter does not reproduce that. At 10⁶ HACC
//! particles and 640×480 every footprint is 1–3 px and none is sub-pixel,
//! so the single-fragment path below never runs, and each particle walks
//! its whole disc where VTK points writes a 3×3 block. Measured on a
//! 2-vCPU Xeon (one 10⁶ block, the benchmark's first orbit camera, median
//! of 9 frames), splat vs points per sampling ratio:
//!
//! | ratio | splat, all fragments shaded | splat, winners shaded | points |
//! |---|---|---|---|
//! | 1.0 | 505 ms | 179 ms | 110–111 ms |
//! | 0.5 | 242 ms | 113 ms | 49–56 ms |
//! | 0.25 | 135 ms | 77 ms | 26–31 ms |
//! | 0.1 | 71 ms | 39 ms | 15 ms |
//!
//! The points column spans two builds of unchanged code. The middle
//! column is this code: fragments are depth-tested against the
//! chunk's z-buffer before the normal is built and shaded (the sparse
//! chunk z-buffer, `raster::zbuffer`), so only winners pay for
//! [`Lighting::shade`].

use crate::camera::Camera;
use crate::color::TransferFunction;
use crate::framebuffer::Framebuffer;
use crate::raster::zbuffer::rasterize_chunks;
use crate::shading::Lighting;
use eth_data::{PointCloud, Vec3};

/// Statistics returned by the splatter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SplatStats {
    pub points_in: usize,
    pub points_projected: usize,
    pub fragments: u64,
    /// Splats that collapsed to a single fragment (sub-pixel footprint).
    pub subpixel_splats: u64,
}

/// Render a point cloud as sphere impostors of world-space `radius`.
pub fn render_splats(
    cloud: &PointCloud,
    scalar: Option<&str>,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    background: Vec3,
    radius: f32,
) -> (Framebuffer, SplatStats) {
    let scalars = scalar.and_then(|name| cloud.scalar(name).ok());
    let positions = cloud.positions();
    let max_footprint_px = 16.0f32;

    let chunk = (positions.len() / (rayon::current_num_threads() * 4)).max(4096);
    let (fb, chunk_stats) = rasterize_chunks(
        positions,
        chunk,
        camera.width,
        camera.height,
        background,
        |ci, ps, zb| {
            let mut stats = SplatStats {
                points_in: ps.len(),
                ..Default::default()
            };
            let base = ci * chunk;
            // Sub-pixel impostors all face the camera, so their shading
            // collapses to a per-albedo affine map computed once per chunk.
            let (flat_scale, flat_add) = {
                let n = -camera.forward();
                let white = lighting.shade(Vec3::ONE, n, -camera.forward());
                let black = lighting.shade(Vec3::ZERO, n, -camera.forward());
                (white - black, black)
            };
            for (i, &p) in ps.iter().enumerate() {
                let Some((fx, fy, depth)) = camera.project(p) else {
                    continue;
                };
                stats.points_projected += 1;
                let value = match scalars {
                    Some(s) => s[base + i],
                    None => depth,
                };
                let albedo = tf.color(value);
                let r_px = (camera.pixels_per_world_unit(depth) * radius)
                    .min(max_footprint_px);
                if r_px < 0.75 {
                    // Sub-pixel footprint: single center-facing fragment.
                    let color = || albedo.mul_elem(flat_scale) + flat_add;
                    if zb.write_clipped(fx as isize, fy as isize, depth, color) {
                        stats.fragments += 1;
                    }
                    stats.subpixel_splats += 1;
                    continue;
                }
                let cx = fx as isize;
                let cy = fy as isize;
                let ir = r_px.ceil() as isize;
                let inv_r = 1.0 / r_px;
                // The disc's on-screen rows and columns; off-screen ones
                // could never land.
                let dy_lo = (-ir).max(0isize.saturating_sub(cy));
                let dy_hi = ir.min((zb.height() as isize - 1).saturating_sub(cy));
                let dx_lo = (-ir).max(0isize.saturating_sub(cx));
                let dx_hi = ir.min((zb.width() as isize - 1).saturating_sub(cx));
                for dy in dy_lo..=dy_hi {
                    for dx in dx_lo..=dx_hi {
                        let nx = dx as f32 * inv_r;
                        let ny = -(dy as f32) * inv_r; // screen y is down
                        let rr = nx * nx + ny * ny;
                        if rr > 1.0 {
                            continue;
                        }
                        let nz = (1.0 - rr).sqrt();
                        let frag_depth = depth - nz * radius;
                        // Reconstruct the sphere normal from the impostor
                        // parameterization (the "shader trick" of the
                        // paper), for the fragments that land only.
                        let shade = || {
                            let normal = camera.right() * nx + camera.up() * ny
                                - camera.forward() * nz;
                            lighting.shade(albedo, normal, -camera.forward())
                        };
                        if zb.write((cx + dx) as usize, (cy + dy) as usize, frag_depth, shade) {
                            stats.fragments += 1;
                        }
                    }
                }
            }
            stats
        },
    );
    let stats = chunk_stats
        .into_iter()
        .fold(SplatStats::default(), |a, b| SplatStats {
            points_in: a.points_in + b.points_in,
            points_projected: a.points_projected + b.points_projected,
            fragments: a.fragments + b.fragments,
            subpixel_splats: a.subpixel_splats + b.subpixel_splats,
        });
    (fb, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Colormap;

    fn cam(px: usize) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, -5.0, 0.0),
            Vec3::ZERO,
            Vec3::new(0.0, 0.0, 1.0),
            45.0,
            px,
            px,
        )
    }

    fn tf() -> TransferFunction {
        TransferFunction::new(Colormap::Gray, 0.0, 1.0)
    }

    #[test]
    fn splat_fills_a_disc() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, stats) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            0.5,
        );
        assert_eq!(stats.points_projected, 1);
        assert!(stats.fragments > 4, "fragments {}", stats.fragments);
        // center pixel covered
        assert!(fb.depth_at(32, 32).is_finite());
    }

    #[test]
    fn tiny_radius_collapses_to_single_fragment() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (_, stats) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            1e-4,
        );
        assert_eq!(stats.fragments, 1);
        assert_eq!(stats.subpixel_splats, 1);
    }

    #[test]
    fn sphere_shading_darkens_toward_rim() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let light_along_view = Lighting {
            light_dir: Vec3::new(0.0, -1.0, 0.0),
            specular: 0.0,
            ..Lighting::default()
        };
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(128),
            &light_along_view,
            Vec3::ZERO,
            0.8,
        );
        let center = fb.color_at(64, 64);
        // scan from the left edge: first covered pixel is the leftmost rim
        let mut rim = None;
        for x in 0..64 {
            if fb.depth_at(x, 64).is_finite() {
                rim = Some(fb.color_at(x, 64));
                break;
            }
        }
        let rim = rim.expect("disc has a rim");
        assert!(
            center.x > rim.x,
            "center {center:?} should outshine rim {rim:?}"
        );
    }

    #[test]
    fn splat_depth_bulges_toward_viewer() {
        let cloud = PointCloud::from_positions(vec![Vec3::ZERO]);
        let (fb, _) = render_splats(
            &cloud,
            None,
            &tf(),
            &cam(64),
            &Lighting::default(),
            Vec3::ZERO,
            0.5,
        );
        // center of the sphere is nearer than the silhouette depth (5.0)
        let d = fb.depth_at(32, 32);
        assert!(d < 5.0 && d > 4.0, "depth {d}");
    }

    #[test]
    fn deterministic_across_runs() {
        let pos: Vec<Vec3> = (0..3000)
            .map(|i| {
                let t = i as f32 * 0.017;
                Vec3::new(t.sin(), t.cos() * 0.3, (i % 40) as f32 * 0.02 - 0.4)
            })
            .collect();
        let cloud = PointCloud::from_positions(pos);
        let l = Lighting::default();
        let (a, _) = render_splats(&cloud, None, &tf(), &cam(64), &l, Vec3::ZERO, 0.05);
        let (b, _) = render_splats(&cloud, None, &tf(), &cam(64), &l, Vec3::ZERO, 0.05);
        assert_eq!(a, b);
    }
}
