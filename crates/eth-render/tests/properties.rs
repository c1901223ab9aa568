//! Property-based tests for the rendering substrates.

use eth_render::camera::{Camera, Ray};
use eth_render::color::{Colormap, TransferFunction};
use eth_render::composite::{composite_binary_swap, composite_direct};
use eth_render::framebuffer::Framebuffer;
use eth_render::geometry::marching_cubes::extract_isosurface;
use eth_render::geometry::mesh::TriangleMesh;
use eth_render::raster::splat::{render_splats, SplatStats};
use eth_render::raster::triangle::{rasterize_mesh, RasterStats};
use eth_render::ray::bvh::{RayPacket, SphereBvh, SphereHit, PACKET_WIDTH};
use eth_render::shading::Lighting;
use eth_data::field::Attribute;
use eth_data::{PointCloud, UniformGrid, Vec3};
use proptest::prelude::*;
use rayon::prelude::*;

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

// ---------------------------------------------------------------------
// Chunked rasterizers against the per-chunk-framebuffer oracle.
//
// The oracles below are the splatter and the triangle rasterizer as they
// were before the sparse chunk z-buffer: every rayon chunk draws into a
// full framebuffer of its own, shading each covered fragment before its
// depth test, and the chunk buffers merge in a `reduce` over
// `composite_in`. The production rasterizers must reproduce their images
// bit for bit and every stats field, at any thread count.

/// The oracles' depth-tested write with bounds clipping: fragments off
/// the image are discarded.
fn write_clipped(fb: &mut Framebuffer, x: isize, y: isize, depth: f32, color: Vec3) -> bool {
    if x < 0 || y < 0 || x as usize >= fb.width() || y as usize >= fb.height() {
        return false;
    }
    fb.write(x as usize, y as usize, depth, color)
}

/// The pre-z-buffer splatter (test-local oracle).
fn oracle_splats(
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
    positions
        .par_chunks(chunk)
        .enumerate()
        .map(|(ci, ps)| {
            let mut fb = Framebuffer::new(camera.width, camera.height, background);
            let mut stats = SplatStats {
                points_in: ps.len(),
                ..Default::default()
            };
            let base = ci * chunk;
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
                let r_px = (camera.pixels_per_world_unit(depth) * radius).min(max_footprint_px);
                if r_px < 0.75 {
                    let color = albedo.mul_elem(flat_scale) + flat_add;
                    if write_clipped(&mut fb, fx as isize, fy as isize, depth, color) {
                        stats.fragments += 1;
                    }
                    stats.subpixel_splats += 1;
                    continue;
                }
                let cx = fx as isize;
                let cy = fy as isize;
                let ir = r_px.ceil() as isize;
                let inv_r = 1.0 / r_px;
                for dy in -ir..=ir {
                    for dx in -ir..=ir {
                        let nx = dx as f32 * inv_r;
                        let ny = -(dy as f32) * inv_r;
                        let rr = nx * nx + ny * ny;
                        if rr > 1.0 {
                            continue;
                        }
                        let nz = (1.0 - rr).sqrt();
                        let normal =
                            camera.right() * nx + camera.up() * ny - camera.forward() * nz;
                        let frag_depth = depth - nz * radius;
                        let color = lighting.shade(albedo, normal, -camera.forward());
                        let (x, y) = (cx.wrapping_add(dx), cy.wrapping_add(dy));
                        if write_clipped(&mut fb, x, y, frag_depth, color) {
                            stats.fragments += 1;
                        }
                    }
                }
            }
            (fb, stats)
        })
        .reduce(
            || (Framebuffer::new(camera.width, camera.height, background), SplatStats::default()),
            |(mut fa, sa), (fb, sb)| {
                fa.composite_in(&fb);
                (
                    fa,
                    SplatStats {
                        points_in: sa.points_in + sb.points_in,
                        points_projected: sa.points_projected + sb.points_projected,
                        fragments: sa.fragments + sb.fragments,
                        subpixel_splats: sa.subpixel_splats + sb.subpixel_splats,
                    },
                )
            },
        )
}

/// The pre-z-buffer triangle rasterizer (test-local oracle).
fn oracle_mesh(
    mesh: &TriangleMesh,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    background: Vec3,
) -> (Framebuffer, RasterStats) {
    let projected: Vec<Option<(f32, f32, f32, usize)>> = mesh
        .positions
        .iter()
        .enumerate()
        .map(|(i, &p)| camera.project(p).map(|(x, y, d)| (x, y, d, i)))
        .collect();
    let chunk = (mesh.indices.len() / (rayon::current_num_threads() * 4)).max(1024);
    mesh.indices
        .par_chunks(chunk)
        .map(|tris| {
            let mut fb = Framebuffer::new(camera.width, camera.height, background);
            let mut stats = RasterStats {
                triangles_in: tris.len(),
                ..Default::default()
            };
            for t in tris {
                let (Some(a), Some(b), Some(c)) = (
                    projected[t[0] as usize],
                    projected[t[1] as usize],
                    projected[t[2] as usize],
                ) else {
                    continue;
                };
                if oracle_fill(mesh, tf, camera, lighting, &mut fb, [a, b, c], &mut stats) {
                    stats.triangles_rasterized += 1;
                }
            }
            (fb, stats)
        })
        .reduce(
            || (Framebuffer::new(camera.width, camera.height, background), RasterStats::default()),
            |(mut fa, sa), (fb, sb)| {
                fa.composite_in(&fb);
                (
                    fa,
                    RasterStats {
                        triangles_in: sa.triangles_in + sb.triangles_in,
                        triangles_rasterized: sa.triangles_rasterized + sb.triangles_rasterized,
                        fragments: sa.fragments + sb.fragments,
                    },
                )
            },
        )
}

fn oracle_fill(
    mesh: &TriangleMesh,
    tf: &TransferFunction,
    camera: &Camera,
    lighting: &Lighting,
    fb: &mut Framebuffer,
    [a, b, c]: [(f32, f32, f32, usize); 3],
    stats: &mut RasterStats,
) -> bool {
    let min_x = a.0.min(b.0).min(c.0).floor().max(0.0) as usize;
    let max_x = (a.0.max(b.0).max(c.0).ceil() as isize).min(fb.width() as isize - 1);
    let min_y = a.1.min(b.1).min(c.1).floor().max(0.0) as usize;
    let max_y = (a.1.max(b.1).max(c.1).ceil() as isize).min(fb.height() as isize - 1);
    if max_x < min_x as isize || max_y < min_y as isize {
        return false;
    }
    let area = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
    if area.abs() < 1e-12 {
        return false;
    }
    let inv_area = 1.0 / area;
    let (na, nb, nc) = (mesh.normals[a.3], mesh.normals[b.3], mesh.normals[c.3]);
    let (sa, sb, sc) = (mesh.scalars[a.3], mesh.scalars[b.3], mesh.scalars[c.3]);
    let view_dir = -camera.forward();
    let mut landed = false;
    for py in min_y..=max_y as usize {
        for px in min_x..=max_x as usize {
            let x = px as f32 + 0.5;
            let y = py as f32 + 0.5;
            let w0 = ((b.0 - x) * (c.1 - y) - (b.1 - y) * (c.0 - x)) * inv_area;
            let w1 = ((c.0 - x) * (a.1 - y) - (c.1 - y) * (a.0 - x)) * inv_area;
            let w2 = 1.0 - w0 - w1;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            let iz0 = w0 / a.2;
            let iz1 = w1 / b.2;
            let iz2 = w2 / c.2;
            let depth = 1.0 / (iz0 + iz1 + iz2);
            let (pw0, pw1, pw2) = (iz0 * depth, iz1 * depth, iz2 * depth);
            let normal = na * pw0 + nb * pw1 + nc * pw2;
            let scalar = sa * pw0 + sb * pw1 + sc * pw2;
            let color = lighting.shade(tf.color(scalar), normal, view_dir);
            if fb.write(px, py, depth, color) {
                stats.fragments += 1;
            }
            landed = true;
        }
    }
    landed
}

/// Bits of a framebuffer: every color channel and depth, so `-0.0` and
/// NaN payloads count.
fn frame_bits(fb: &Framebuffer) -> (Vec<[u32; 3]>, Vec<u32>) {
    (
        fb.color_buffer().iter().map(|c| [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]).collect(),
        fb.depth_buffer().iter().map(|d| d.to_bits()).collect(),
    )
}

/// Run `f` on a pool of `threads` workers.
fn on_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

/// A small xorshift stream for expanding a proptest seed into a large
/// scene: proptest draws the shape, the stream fills it in.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn unit(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 40) as f32 / 16_777_216.0
    }

    fn range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.unit()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.unit() * n as f32) as usize % n
    }
}

/// A camera on a circle of radius `dist` around the origin, looking at
/// it: with a cloud spanning ±`extent`, some points sit behind the eye,
/// some off-screen and some straddle the image edges.
fn scene_camera(angle: f32, dist: f32, width: usize, height: usize) -> Camera {
    let eye = Vec3::new(angle.cos() * dist, angle.sin() * dist, 0.3 * dist);
    Camera::look_at(eye, Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0), 50.0, width, height)
}

/// A cloud of `n` points in `±extent` whose every `dup_every`-th point
/// copies an earlier point's position (often in an earlier chunk) with a
/// different scalar, so depth ties between chunks decide pixels.
fn tie_cloud(seed: u64, n: usize, extent: f32, dup_every: usize) -> PointCloud {
    let mut s = Stream::new(seed);
    let mut pos: Vec<Vec3> = Vec::with_capacity(n);
    for i in 0..n {
        let p = if i > 0 && i % dup_every == 0 {
            pos[s.index(i)]
        } else {
            Vec3::new(
                s.range(-extent, extent),
                s.range(-extent, extent),
                s.range(-extent, extent),
            )
        };
        pos.push(p);
    }
    let values: Vec<f32> = (0..n).map(|_| s.unit()).collect();
    let mut cloud = PointCloud::from_positions(pos);
    cloud.set_attribute("v", Attribute::Scalar(values)).unwrap();
    cloud
}

/// A mesh of about `n` small random triangles, some behind the eye, some
/// off-screen, some degenerate, some sharing vertices. One in four is
/// repeated at once and every one again after all of them, each copy with
/// its own scalars, so depth ties arise within chunks and between them.
fn random_mesh(seed: u64, n: usize, extent: f32, size: f32) -> TriangleMesh {
    let mut s = Stream::new(seed);
    let mut corners = Vec::with_capacity(n);
    while corners.len() < n {
        let base = Vec3::new(
            s.range(-extent, extent),
            s.range(-extent, extent),
            s.range(-extent, extent),
        );
        let corner = |s: &mut Stream| {
            base + Vec3::new(s.range(-size, size), s.range(-size, size), s.range(-size, size))
        };
        let (a, b) = (corner(&mut s), corner(&mut s));
        // one in sixteen degenerate (a repeated corner)
        let c = if s.index(16) == 0 { a } else { corner(&mut s) };
        corners.push([a, b, c]);
        if s.index(4) == 0 {
            corners.push([a, b, c]);
        }
    }
    let mut m = TriangleMesh::new();
    for pass in 0..2 {
        for (t, tri) in corners.iter().enumerate() {
            let mut v = [0u32; 3];
            for (k, &p) in tri.iter().enumerate() {
                let normal = Vec3::new(s.range(-1.0, 1.0), s.range(-1.0, 1.0), s.range(-1.0, 1.0));
                // shared vertices: reuse the previous triangle's last one
                v[k] = if k == 0 && pass == 0 && t > 0 && s.index(4) == 0 {
                    (m.num_vertices() - 1) as u32
                } else {
                    m.push_vertex(p, normal, s.unit())
                };
            }
            m.push_triangle(v[0], v[1], v[2]);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The splatter equals the per-chunk-framebuffer oracle bit for bit,
    /// with every stats field, on 1–3 threads. Depths in the cloud span
    /// 0.1–10× the camera distance, so footprints run from sub-pixel to
    /// the 16 px clamp within one frame.
    #[test]
    fn splatter_matches_per_chunk_framebuffer_oracle(
        seed in 0u64..1_000_000,
        n in 12_289usize..16_000,
        log_radius in -3.0f32..-0.5,
        dup_every in 3usize..40,
        angle in 0.0f32..std::f32::consts::TAU,
        dist in 1.5f32..6.0,
        (width, height) in (24usize..96, 24usize..96),
        by_depth in 0u8..4,
    ) {
        let cloud = tie_cloud(seed, n, 3.0, dup_every);
        let radius = 10f32.powf(log_radius);
        let camera = scene_camera(angle, dist, width, height);
        let tf = TransferFunction::new(Colormap::Viridis, 0.0, 1.0);
        let lighting = Lighting::default();
        let scalar = if by_depth == 0 { None } else { Some("v") };
        let background = Vec3::new(0.1, 0.2, 0.3);
        for threads in 1..=3 {
            let ((got, got_stats), (want, want_stats)) = on_pool(threads, || {
                (
                    render_splats(&cloud, scalar, &tf, &camera, &lighting, background, radius),
                    oracle_splats(&cloud, scalar, &tf, &camera, &lighting, background, radius),
                )
            });
            prop_assert_eq!(got_stats, want_stats, "stats on {} threads", threads);
            prop_assert!(frame_bits(&got) == frame_bits(&want), "image bits on {} threads", threads);
        }
    }

    /// The triangle rasterizer equals the per-chunk-framebuffer oracle bit
    /// for bit, with every stats field, on 1–3 threads, for random meshes
    /// whose second half repeats the first with other scalars.
    #[test]
    fn triangle_rasterizer_matches_per_chunk_framebuffer_oracle(
        seed in 0u64..1_000_000,
        n in 1_537usize..2_400,
        size in 0.01f32..0.6,
        angle in 0.0f32..std::f32::consts::TAU,
        dist in 1.5f32..6.0,
        (width, height) in (24usize..96, 24usize..96),
    ) {
        let mesh = random_mesh(seed, n, 2.5, size);
        let camera = scene_camera(angle, dist, width, height);
        let tf = TransferFunction::new(Colormap::Viridis, 0.0, 1.0);
        let lighting = Lighting::default();
        let background = Vec3::new(0.3, 0.2, 0.1);
        for threads in 1..=3 {
            let ((got, got_stats), (want, want_stats)) = on_pool(threads, || {
                (
                    rasterize_mesh(&mesh, &tf, &camera, &lighting, background),
                    oracle_mesh(&mesh, &tf, &camera, &lighting, background),
                )
            });
            prop_assert_eq!(got_stats, want_stats, "stats on {} threads", threads);
            prop_assert!(frame_bits(&got) == frame_bits(&want), "image bits on {} threads", threads);
        }
    }
}

/// Coincident splats in different chunks: the first in input order wins
/// the pixel, as in one serial pass.
#[test]
fn coincident_splats_keep_the_first_across_chunks() {
    let n = 3 * 4096 + 1;
    let mut pos = vec![Vec3::new(50.0, 50.0, 50.0); n]; // far outside the view
    let mut values = vec![0.5; n];
    for (i, v) in [(5, 0.9), (4096 + 5, 0.1), (3 * 4096, 0.3)] {
        pos[i] = Vec3::ZERO;
        values[i] = v;
    }
    let mut cloud = PointCloud::from_positions(pos);
    cloud.set_attribute("v", Attribute::Scalar(values)).unwrap();
    let camera = scene_camera(-std::f32::consts::FRAC_PI_2, 5.0, 64, 64);
    let tf = TransferFunction::new(Colormap::Gray, 0.0, 1.0);
    let lighting = Lighting { specular: 0.0, ..Lighting::default() };
    let mut alone = PointCloud::from_positions(vec![Vec3::ZERO]);
    alone.set_attribute("v", Attribute::Scalar(vec![0.9])).unwrap();
    let (first, _) = render_splats(&alone, Some("v"), &tf, &camera, &lighting, Vec3::ZERO, 0.1);
    for threads in 1..=3 {
        let (fb, stats) = on_pool(threads, || {
            render_splats(&cloud, Some("v"), &tf, &camera, &lighting, Vec3::ZERO, 0.1)
        });
        assert_eq!(stats.points_projected, n);
        assert!(frame_bits(&fb) == frame_bits(&first), "{threads} threads: a later tie won");
    }
}
