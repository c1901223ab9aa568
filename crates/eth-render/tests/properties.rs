//! Property-based tests for the rendering substrates.

use eth_render::camera::{Camera, Ray};
use eth_render::color::{Colormap, TransferFunction};
use eth_render::composite::{composite_binary_swap, composite_direct};
use eth_render::framebuffer::Framebuffer;
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::ray::bvh::{RayPacket, SphereBvh, SphereHit, PACKET_WIDTH};
use eth_data::field::Attribute;
use eth_data::{UniformGrid, Vec3};
use proptest::prelude::*;

fn arb_vec3(r: f32) -> impl Strategy<Value = Vec3> {
    (-r..r, -r..r, -r..r).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// A hit's bits: `t`, `prim`, `position`, `normal`.
type HitBits = (u32, u32, [u32; 3], [u32; 3]);

fn bits(hit: Option<SphereHit>) -> Option<HitBits> {
    let v = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
    hit.map(|h| (h.t.to_bits(), h.prim, v(h.position), v(h.normal)))
}

/// Run both packet kernels directly — not through the dispatch, so the
/// portable one stays covered on AVX2 hosts — and hold each to the
/// scalar traversal: every filled lane equals a scalar `intersect` of its
/// ray bit for bit, and the two kernels agree on all eight lanes and on
/// the step count.
fn check_kernels(bvh: &SphereBvh, rays: &[Ray], t_max: f32) -> Result<(), TestCaseError> {
    let packet = RayPacket::from_rays(rays);
    let mut portable_steps = 0;
    let portable = bvh.intersect_packet_portable(&packet, t_max, &mut portable_steps);
    for (l, ray) in rays.iter().enumerate() {
        let mut steps = 0;
        let scalar = bvh.intersect(ray, t_max, &mut steps);
        prop_assert_eq!(
            bits(portable[l]),
            bits(scalar),
            "portable lane {} vs scalar: {:?} vs {:?} on {:?}",
            l,
            portable[l],
            scalar,
            ray
        );
    }
    let mut simd_steps = 0;
    if let Some(simd) = bvh.intersect_packet_avx2(&packet, t_max, &mut simd_steps) {
        for l in 0..PACKET_WIDTH {
            prop_assert_eq!(bits(simd[l]), bits(portable[l]), "avx2 lane {} vs portable", l);
        }
        prop_assert_eq!(simd_steps, portable_steps, "kernels counted different steps");
    }
    let mut dispatched_steps = 0;
    let dispatched = bvh.intersect_packet(&packet, t_max, &mut dispatched_steps);
    prop_assert_eq!(dispatched.map(bits), portable.map(bits));
    prop_assert_eq!(dispatched_steps, portable_steps);
    Ok(())
}

/// Whether every ray's direction has lane 0's sign on each axis. The
/// packet orders children by lane 0's direction and a scalar walk by its
/// own, so on an exact tie in `t` (coincident spheres) only such bundles
/// promise the same first-found sphere.
fn same_octant(rays: &[Ray]) -> bool {
    let octant = |r: &Ray| [r.dir.x >= 0.0, r.dir.y >= 0.0, r.dir.z >= 0.0];
    rays.iter().all(|r| octant(r) == octant(&rays[0]))
}

/// `lanes` coherent rays from `origin` around direction `base`.
fn bundle(origin: Vec3, base: Vec3, lanes: usize, spread: f32) -> Vec<Ray> {
    (0..lanes)
        .map(|l| {
            let jitter = Vec3::new(l as f32, (l * l) as f32 * 0.3, -(l as f32) * 0.7) * spread;
            Ray {
                origin,
                dir: (base + jitter).normalized(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BVH intersection must agree with brute force for random scenes/rays.
    #[test]
    fn bvh_matches_brute_force(
        centers in prop::collection::vec(arb_vec3(3.0), 1..120),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let bvh = SphereBvh::build(&centers, radius);
        let ray = Ray { origin, dir: (target - origin).normalized() };
        let mut steps = 0;
        let fast = bvh.intersect(&ray, f32::MAX, &mut steps);
        let slow = bvh.intersect_brute_force(&ray, f32::MAX);
        match (fast, slow) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!((a.t - b.t).abs() < 1e-3,
                "t mismatch: {} vs {}", a.t, b.t),
            (a, b) => prop_assert!(false, "hit disagreement: {a:?} vs {b:?}"),
        }
    }

    /// The HLBVH (Morton-order) build and the median-split build must find
    /// the identical nearest hit — same t to the bit — for random scatters,
    /// since a closest-hit query is independent of tree shape.
    #[test]
    fn hlbvh_agrees_with_median_split(
        centers in prop::collection::vec(arb_vec3(3.0), 1..200),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let hl = SphereBvh::build(&centers, radius);
        let md = SphereBvh::build_median(&centers, radius);
        let ray = Ray { origin, dir: (target - origin).normalized() };
        let mut steps = 0;
        let a = hl.intersect(&ray, f32::MAX, &mut steps);
        let b = md.intersect(&ray, f32::MAX, &mut steps);
        prop_assert_eq!(a.map(|h| h.t.to_bits()), b.map(|h| h.t.to_bits()));
        prop_assert_eq!(a.map(|h| h.prim), b.map(|h| h.prim));
    }

    /// Packet traversal must equal scalar traversal lane by lane, bitwise,
    /// for random scatters and random coherent ray bundles.
    #[test]
    fn packet_lanes_agree_with_scalar(
        centers in prop::collection::vec(arb_vec3(3.0), 1..150),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
        lanes in 1usize..9,
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let bvh = SphereBvh::build(&centers, radius);
        let base = (target - origin).normalized();
        let rays: Vec<Ray> = (0..lanes)
            .map(|l| {
                let jitter = Vec3::new(l as f32 * 1e-3, 0.0, l as f32 * 5e-4);
                Ray { origin, dir: (base + jitter).normalized() }
            })
            .collect();
        let packet = RayPacket::from_rays(&rays);
        let mut psteps = 0;
        let lane_hits = bvh.intersect_packet(&packet, f32::MAX, &mut psteps);
        for (l, ray) in rays.iter().enumerate() {
            let mut ssteps = 0;
            let scalar = bvh.intersect(ray, f32::MAX, &mut ssteps);
            prop_assert_eq!(
                lane_hits[l].map(|h| (h.prim, h.t.to_bits())),
                scalar.map(|h| (h.prim, h.t.to_bits())),
                "lane {} diverged", l
            );
        }
    }

    /// Compositing is associative/commutative: any grouping of buffers
    /// produces the same image.
    #[test]
    fn composite_order_independent(
        seed in 0u64..500,
        n in 2usize..7,
    ) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut make = |_i: usize| {
            let mut fb = Framebuffer::new(8, 8, Vec3::ZERO);
            for y in 0..8 {
                for x in 0..8 {
                    if rnd() > 0.5 {
                        fb.write(x, y, rnd() * 10.0, Vec3::splat(rnd()));
                    }
                }
            }
            fb
        };
        let bufs: Vec<Framebuffer> = (0..n).map(&mut make).collect();
        let (direct, _) = composite_direct(bufs.clone());
        let mut rev = bufs.clone();
        rev.reverse();
        let (direct_rev, _) = composite_direct(rev);
        let (swap, _) = composite_binary_swap(bufs);
        prop_assert_eq!(direct.color_buffer(), direct_rev.color_buffer());
        prop_assert_eq!(direct.color_buffer(), swap.color_buffer());
    }

    /// Projection followed by primary-ray casting must pass near the point.
    #[test]
    fn project_ray_consistency(
        eye in arb_vec3(6.0),
        p in arb_vec3(1.0),
        fov in 20.0f32..90.0,
    ) {
        prop_assume!((p - eye).length() > 2.0);
        let cam = Camera::look_at(eye, Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), fov, 128, 128);
        if let Some((fx, fy, depth)) = cam.project(p) {
            prop_assume!((0.0..128.0).contains(&fx) && (0.0..128.0).contains(&fy));
            prop_assume!(depth > 0.5);
            let ray = cam.primary_ray(fx as usize, fy as usize);
            let t = (p - ray.origin).dot(ray.dir);
            let closest = (ray.at(t) - p).length();
            // within the footprint of ~1.5 pixels at that depth
            let px_size = 1.0 / cam.pixels_per_world_unit(depth);
            prop_assert!(closest <= px_size * 2.0,
                "closest {closest} vs pixel {px_size}");
        }
    }

    /// Transfer functions stay in gamut and are monotone in normalize().
    #[test]
    fn transfer_function_sane(lo in -100.0f32..100.0, width in 0.1f32..100.0, v in -200.0f32..200.0) {
        let tf = TransferFunction::new(Colormap::Viridis, lo, lo + width);
        let t = tf.normalize(v);
        prop_assert!((0.0..=1.0).contains(&t));
        let c = tf.color(v);
        for ch in [c.x, c.y, c.z] {
            prop_assert!((0.0..=1.0).contains(&ch));
        }
    }

    /// Marching cubes output vertices always lie inside the (padded) grid
    /// bounds and the mesh validates, for random smooth fields.
    #[test]
    fn isosurface_vertices_in_bounds(seed in 0u64..200, iso in -0.5f32..0.5) {
        let n = 10usize;
        let mut g = UniformGrid::new([n, n, n], Vec3::splat(-1.0), Vec3::splat(2.0 / 9.0)).unwrap();
        let mut vals = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let p = g.vertex_position(i, j, k);
                    let s = seed as f32 * 0.01;
                    vals.push((p.x * 3.0 + s).sin() * (p.y * 2.0 - s).cos() + 0.3 * (p.z * 4.0).sin());
                }
            }
        }
        g.set_attribute("f", Attribute::Scalar(vals)).unwrap();
        let (mesh, stats) = extract_isosurface(&g, "f", iso).unwrap();
        prop_assert!(mesh.validate());
        let bounds = g.bounds().padded(1e-4);
        for &p in &mesh.positions {
            prop_assert!(bounds.contains(p), "vertex {p:?} escaped the grid");
        }
        prop_assert_eq!(stats.triangles as usize, mesh.num_triangles());
    }

    /// Framebuffer depth test is idempotent and monotone: writing the same
    /// fragment twice changes nothing; a farther fragment never lands.
    #[test]
    fn framebuffer_depth_test_monotone(
        d1 in 0.1f32..100.0,
        d2 in 0.1f32..100.0,
    ) {
        let mut fb = Framebuffer::new(1, 1, Vec3::ZERO);
        fb.write(0, 0, d1, Vec3::new(1.0, 0.0, 0.0));
        let landed = fb.write(0, 0, d2, Vec3::new(0.0, 1.0, 0.0));
        prop_assert_eq!(landed, d2 < d1);
        prop_assert_eq!(fb.depth_at(0, 0), d1.min(d2));
        // idempotence: re-writing the winner at its own depth is rejected
        let again = fb.write(0, 0, d1.min(d2), Vec3::splat(0.5));
        prop_assert!(!again);
    }

    /// RMSE is a metric: symmetric, zero iff identical, triangle-ish.
    #[test]
    fn rmse_is_symmetric(seed in 0u64..300) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) as f32
        };
        let mut mk = || {
            let pixels: Vec<Vec3> = (0..64).map(|_| Vec3::new(rnd(), rnd(), rnd())).collect();
            eth_render::Image::from_pixels(8, 8, pixels).unwrap()
        };
        let a = mk();
        let b = mk();
        let ab = a.rmse(&b).unwrap();
        let ba = b.rmse(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert_eq!(a.rmse(&a).unwrap(), 0.0);
        prop_assert!(ab >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Coherent bundles of 1–8 lanes (partial packets included), with
    /// and without a finite `t_max`.
    #[test]
    fn packet_kernels_match_scalar(
        centers in prop::collection::vec(arb_vec3(3.0), 1..150),
        origin in arb_vec3(8.0),
        target in arb_vec3(2.0),
        radius in 0.05f32..0.5,
        (lanes, t_max) in (1usize..9, 0.0f32..16.0),
    ) {
        prop_assume!((target - origin).length() > 1e-3);
        let bvh = SphereBvh::build(&centers, radius);
        let rays = bundle(origin, target - origin, lanes, 1e-3);
        check_kernels(&bvh, &rays, t_max)?;
        check_kernels(&bvh, &rays, f32::MAX)?;
    }

    /// Axis-parallel rays (zero direction components, either sign of
    /// zero) over grid-snapped centers, so that origins land exactly on
    /// slab planes: `0 · ∞` is NaN in the slab test.
    #[test]
    fn packet_kernels_match_scalar_on_axis_parallel_rays(
        cells in prop::collection::vec((0i32..12, 0i32..12, 0i32..12), 1..120),
        origin in (0i32..12, 0i32..12, 0i32..12),
        nonzero in 1u32..8,
        signs in 0u32..8,
        zero_signs in 0u32..8,
        lanes in 1usize..9,
    ) {
        let grid = |(x, y, z): (i32, i32, i32)| Vec3::new(x as f32, y as f32, z as f32) * 0.25;
        let centers: Vec<Vec3> = cells.into_iter().map(grid).collect();
        let bvh = SphereBvh::build(&centers, 0.25);
        let component = |axis: u32| {
            let sign = if signs >> axis & 1 == 1 { -1.0f32 } else { 1.0 };
            if nonzero >> axis & 1 == 1 {
                sign * (1.0 + axis as f32)
            } else if zero_signs >> axis & 1 == 1 {
                -0.0
            } else {
                0.0
            }
        };
        let dir = Vec3::new(component(0), component(1), component(2)).normalized();
        let start = grid(origin) - dir * 4.0;
        let rays: Vec<Ray> = (0..lanes)
            .map(|l| {
                // lanes step along the zero axes on the 0.25 grid
                let step = Vec3::new(
                    if dir.x == 0.0 { 0.25 } else { 0.0 },
                    if dir.y == 0.0 { 0.25 } else { 0.0 },
                    if dir.z == 0.0 { 0.25 } else { 0.0 },
                );
                Ray { origin: start + step * (l as f32 * 0.5), dir }
            })
            .collect();
        check_kernels(&bvh, &rays, f32::MAX)?;
    }

    /// Origins inside a sphere: the near root is behind the origin and
    /// the far root must win.
    #[test]
    fn packet_kernels_match_scalar_from_inside_a_sphere(
        centers in prop::collection::vec(arb_vec3(2.0), 1..100),
        pick in 0usize..100,
        offset in arb_vec3(1.0),
        dir in arb_vec3(1.0),
        radius in 0.1f32..0.6,
        lanes in 1usize..9,
    ) {
        prop_assume!(dir.length() > 1e-2);
        let inside = centers[pick % centers.len()] + offset * (radius * 0.5);
        let bvh = SphereBvh::build(&centers, radius);
        check_kernels(&bvh, &bundle(inside, dir, lanes, 2e-3), f32::MAX)?;
    }

    /// Grazing rays: tangent to a sphere to within a few ulps, so the
    /// discriminant sits at zero and lanes split between hit and miss.
    #[test]
    fn packet_kernels_match_scalar_on_grazing_rays(
        centers in prop::collection::vec(arb_vec3(2.0), 1..100),
        pick in 0usize..100,
        dir in arb_vec3(1.0),
        side in arb_vec3(1.0),
        radius in 0.05f32..0.5,
        lanes in 1usize..9,
    ) {
        let d = dir.normalized();
        let u = d.cross(side).normalized();
        prop_assume!(dir.length() > 1e-2 && u.length() > 0.5);
        let c = centers[pick % centers.len()];
        let bvh = SphereBvh::build(&centers, radius);
        let rays: Vec<Ray> = (0..lanes)
            .map(|l| {
                let miss = 1.0 + (l as f32 - 3.5) * 2e-7;
                Ray { origin: c + u * (radius * miss) - d * 6.0, dir: d }
            })
            .collect();
        check_kernels(&bvh, &rays, f32::MAX)?;
    }

    /// Coincident centers: many spheres tie on `t`, and the first found
    /// must win in every kernel, as in the scalar walk.
    #[test]
    fn packet_kernels_match_scalar_on_coincident_centers(
        spots in prop::collection::vec(arb_vec3(2.0), 1..4),
        copies in 2usize..40,
        extra in prop::collection::vec(arb_vec3(2.0), 0..40),
        origin in arb_vec3(8.0),
        radius in 0.05f32..0.5,
        lanes in 1usize..9,
    ) {
        let mut centers = extra;
        for i in 0..copies {
            centers.insert(i * 7 % (centers.len() + 1), spots[i % spots.len()]);
        }
        let target = spots[0];
        prop_assume!((target - origin).length() > 1.0);
        let bvh = SphereBvh::build(&centers, radius);
        let rays = bundle(origin, target - origin, lanes, 1e-3);
        prop_assume!(same_octant(&rays));
        check_kernels(&bvh, &rays, f32::MAX)?;
    }
}
