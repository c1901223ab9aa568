//! Integration contracts for the HLBVH render hot path (DESIGN.md §14):
//! full-resolution frames are byte-identical whichever builder produced
//! the tree and however many threads render it, and progressive
//! refinement walks a monotone RMSE ladder down to the exact frame.

use eth_data::{PointCloud, Vec3};
use eth_render::camera::Camera;
use eth_render::color::{Colormap, TransferFunction};
use eth_render::ray::sphere::SphereRaycaster;
use eth_render::shading::Lighting;
use eth_render::tile::DEFAULT_TILE;

/// Deterministic scatter in [-1, 1]³.
fn scatter(n: usize, seed: u64) -> Vec<Vec3> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut rnd = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) as f32 * 2.0 - 1.0
    };
    (0..n).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect()
}

fn cam(w: usize, h: usize) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, -3.2, 0.6),
        Vec3::ZERO,
        Vec3::new(0.0, 0.0, 1.0),
        45.0,
        w,
        h,
    )
}

fn tf() -> TransferFunction {
    TransferFunction::new(Colormap::Viridis, 0.0, 4.0)
}

#[test]
fn hlbvh_frame_is_byte_identical_to_median_baseline() {
    let cloud = PointCloud::from_positions(scatter(30_000, 11));
    let hl = SphereRaycaster::build(&cloud, None, 0.01);
    let md = SphereRaycaster::build_median(&cloud, None, 0.01);
    let camera = cam(160, 120);
    let lighting = Lighting::default();
    let (fa, sa) = hl.render(&camera, &tf(), &lighting, Vec3::ZERO);
    let (fb, sb) = md.render(&camera, &tf(), &lighting, Vec3::ZERO);
    assert!(sa.hits > 0, "scene must actually be visible");
    assert_eq!(sa.hits, sb.hits);
    assert_eq!(fa, fb, "tree shape leaked into the image");
}

#[test]
fn frames_are_identical_across_thread_counts_and_tile_sizes() {
    let cloud = PointCloud::from_positions(scatter(20_000, 3));
    let rc = SphereRaycaster::build(&cloud, None, 0.01);
    let camera = cam(128, 96);
    let lighting = Lighting::default();
    let (reference, _) = rc.render_tiled(&camera, &tf(), &lighting, Vec3::ZERO, DEFAULT_TILE);

    // one worker thread
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let (serial, _) = pool.install(|| {
        let rc1 = SphereRaycaster::build(&cloud, None, 0.01);
        rc1.render_tiled(&camera, &tf(), &lighting, Vec3::ZERO, DEFAULT_TILE)
    });
    assert_eq!(reference, serial, "thread count leaked into the image");

    // tile size is a pure scheduling knob
    for tile in [4usize, 32, 256] {
        let (ft, _) = rc.render_tiled(&camera, &tf(), &lighting, Vec3::ZERO, tile);
        assert_eq!(reference, ft, "tile size {tile} changed the image");
    }
}

#[test]
fn progressive_rmse_ladder_is_monotone_and_ends_exact() {
    let cloud = PointCloud::from_positions(scatter(15_000, 5));
    let rc = SphereRaycaster::build(&cloud, None, 0.01);
    let camera = cam(128, 96);
    let lighting = Lighting::default();
    let (full, full_stats) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO);
    let (prog, prog_stats, passes) =
        rc.render_progressive(&camera, &tf(), &lighting, Vec3::ZERO, 16);

    assert_eq!(prog, full, "progressive did not converge to the exact frame");
    assert_eq!(prog_stats.rays, full_stats.rays, "every pixel traced exactly once");
    assert!(passes.len() >= 4, "stride 16 → passes at 16/8/4/2/1");
    assert!(passes[0].rmse > 0.0, "coarse pass must differ from converged");
    for w in passes.windows(2) {
        assert!(
            w[1].rmse <= w[0].rmse,
            "RMSE went up: {} -> {}",
            w[0].rmse,
            w[1].rmse
        );
        assert!(w[1].stride < w[0].stride);
    }
    assert_eq!(passes.last().unwrap().stride, 1);
    assert_eq!(passes.last().unwrap().rmse, 0.0);
}

#[test]
fn hlbvh_build_is_reproducible_for_large_scatters() {
    // Bigger than any unit-test scene: radix sort + treelet emission must
    // be deterministic run to run at full parallelism.
    let centers = scatter(120_000, 9);
    let a = eth_render::ray::bvh::SphereBvh::build(&centers, 0.01);
    let b = eth_render::ray::bvh::SphereBvh::build(&centers, 0.01);
    assert_eq!(a.num_nodes(), b.num_nodes());
    let camera = cam(64, 48);
    let cloud = PointCloud::from_positions(centers);
    let rc = SphereRaycaster::build(&cloud, None, 0.01);
    let lighting = Lighting::default();
    let (f1, _) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO);
    let (f2, _) = rc.render(&camera, &tf(), &lighting, Vec3::ZERO);
    assert_eq!(f1, f2);
}

/// FNV-1a over 32-bit words.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn raycast_frame_is_pinned() {
    // Recorded before the SIMD packet kernel and the SoA ray setup: the
    // frame's colors and depths, and the traversal count, must not drift.
    let centers = scatter(40_000, 17);
    let mut cloud = PointCloud::from_positions(centers.clone());
    let values = centers.iter().map(|c| c.length() * 2.0).collect();
    cloud
        .set_attribute("v", eth_data::field::Attribute::Scalar(values))
        .unwrap();
    let rc = SphereRaycaster::build(&cloud, Some("v"), 0.008);
    let (fb, stats) = rc.render(&cam(160, 120), &tf(), &Lighting::default(), Vec3::splat(0.1));
    let colors = fnv(fb
        .color_buffer()
        .iter()
        .flat_map(|c| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]));
    let depths = fnv(fb.depth_buffer().iter().map(|d| d.to_bits()));
    assert_eq!(colors, 0x33cc_9c08_ea64_d427, "colors drifted");
    assert_eq!(depths, 0x4a35_0e4e_9690_3804, "depths drifted");
    assert_eq!(stats.hits, 9_193);
    assert_eq!(stats.traversal_steps, 517_919);
    assert_eq!(stats.build_ops, 207_223);
}
