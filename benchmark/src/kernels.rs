//! The benchmark's own kernels: seeded inputs, the kernel written with the
//! public `KernelBuilder`, and a host-side reference that never touches
//! the simulator. Every kernel only reads its inputs and writes its
//! outputs, so it can be launched any number of times on one `Gpu`.

use nocl::{Arg, Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};
use sim_prng::Prng;

/// An owned kernel with its generated inputs and expected output.
pub struct Job {
    pub kernel: Kernel,
    pub launch: Launch,
    /// Scalar arguments, in parameter order, ahead of the buffers.
    pub scalars: Vec<u32>,
    /// Input buffers, in parameter order, after the scalars.
    pub inputs: Vec<Vec<u32>>,
    /// What the output buffer (the last parameter) must hold afterwards.
    pub want: Vec<u32>,
}

/// A job's buffers on one `Gpu`, ready to launch.
pub struct Loaded {
    pub args: Vec<Arg>,
    pub out: nocl::Buffer<u32>,
    /// Bytes copied host → device by `alloc_from`.
    pub input_bytes: usize,
}

impl Job {
    /// Allocate the inputs and the output on `gpu`.
    pub fn load(&self, gpu: &mut Gpu) -> Loaded {
        let mut args: Vec<Arg> = self.scalars.iter().map(|&s| s.into()).collect();
        for data in &self.inputs {
            args.push((&gpu.alloc_from(data)).into());
        }
        let out = gpu.alloc::<u32>(self.want.len() as u32);
        args.push((&out).into());
        Loaded { args, out, input_bytes: self.inputs.iter().map(|d| d.len() * 4).sum() }
    }
}

/// The launch geometry the workloads use: 128-thread blocks, 16 of them
/// per paper-geometry SM (2,048 threads), so each of `sms` SMs gets work.
pub fn paper_launch(sms: u32) -> Launch {
    Launch::new(16 * sms, 128)
}

const LCG_MUL: u32 = 1_664_525;
const LCG_ADD: u32 = 1_013_904_223;

/// `alu_converged`: every thread runs the same `iters`-trip loop over
/// warp-uniform values (`a`, `b`, `d`) and two hart-affine accumulators
/// (`c`, `e`), and stores once at the end. The seed picks the four
/// starting constants only, so control flow never diverges.
pub fn alu_converged(seed: u64, iters: u32, launch: Launch) -> Job {
    let mut r = Prng::seed_from_u64(seed ^ 0xA1);
    let k: [u32; 4] = std::array::from_fn(|_| r.next_u32());

    let mut kb = KernelBuilder::new("alu_converged");
    let n = kb.param_u32("iters");
    let ks: Vec<Expr> = (0..4).map(|j| kb.param_u32(&format!("k{j}"))).collect();
    let out = kb.param_ptr("out", Elem::U32);
    let (i, a, b, c, d, e) = (
        kb.var_u32("i"),
        kb.var_u32("a"),
        kb.var_u32("b"),
        kb.var_u32("c"),
        kb.var_u32("d"),
        kb.var_u32("e"),
    );
    kb.assign(&a, ks[0].clone());
    kb.assign(&b, ks[1].clone());
    kb.assign(&c, kb.global_id() + ks[2].clone());
    kb.assign(&d, ks[3].clone());
    kb.assign(&e, kb.global_id());
    kb.for_(i.clone(), Expr::u32(0), n, Expr::u32(1), |k| {
        k.assign(&a, a.clone() * Expr::u32(LCG_MUL) + Expr::u32(LCG_ADD));
        k.assign(&b, (b.clone() ^ a.clone()) + (i.clone() << Expr::u32(3)));
        k.assign(&d, (d.clone() >> Expr::u32(5)) ^ (d.clone() << Expr::u32(7)) ^ b.clone());
        k.assign(&c, c.clone() + a.clone());
        k.assign(&e, e.clone() + (d.clone() & Expr::u32(0xff)));
        k.assign(&a, a.clone() + b.clone() * ks[2].clone());
        k.assign(&c, c.clone() - (b.clone() >> Expr::u32(9)));
    });
    kb.store(&out, kb.global_id(), c.clone() ^ e.clone() ^ d.clone());

    let threads = launch.grid_dim * launch.block_dim;
    let want = (0..threads)
        .map(|gid| {
            let (mut a, mut b, mut c, mut d, mut e) =
                (k[0], k[1], gid.wrapping_add(k[2]), k[3], gid);
            for i in 0..iters {
                a = a.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
                b = (b ^ a).wrapping_add(i << 3);
                d = (d >> 5) ^ (d << 7) ^ b;
                c = c.wrapping_add(a);
                e = e.wrapping_add(d & 0xff);
                a = a.wrapping_add(b.wrapping_mul(k[2]));
                c = c.wrapping_sub(b >> 9);
            }
            c ^ e ^ d
        })
        .collect();
    let mut scalars = vec![iters];
    scalars.extend(k);
    Job { kernel: kb.finish(), launch, scalars, inputs: vec![], want }
}

fn gcd_steps(mut x: u32, mut y: u32, mut on_step: impl FnMut(u32)) -> u32 {
    while y != 0 {
        let t = x % y;
        x = y;
        y = t;
        on_step(t);
    }
    x
}

/// `lanes_divergent`: seeded per-lane operand pairs drive a Euclid loop
/// whose trip count differs lane by lane, then a two-level `if_else` on
/// seeded predicate bits; six more per-lane values stay live across both,
/// which is more than the 3/8 VRF holds for 64 warps.
pub fn lanes_divergent(seed: u64, len: u32, launch: Launch) -> Job {
    let mut r = Prng::seed_from_u64(seed ^ 0xD1);
    let xs: Vec<u32> = (0..len).map(|_| r.range_u32(1, 1_000_000)).collect();
    let ys: Vec<u32> = (0..len).map(|_| r.range_u32(1, 1_000_000)).collect();
    let qs: Vec<u32> = (0..len).map(|_| r.next_u32()).collect();

    let mut kb = KernelBuilder::new("lanes_divergent");
    let n = kb.param_u32("len");
    let pa = kb.param_ptr("a", Elem::U32);
    let pb = kb.param_ptr("b", Elem::U32);
    let pq = kb.param_ptr("q", Elem::U32);
    let out = kb.param_ptr("out", Elem::U32);
    let (i, x, y, t, q) =
        (kb.var_u32("i"), kb.var_u32("x"), kb.var_u32("y"), kb.var_u32("t"), kb.var_u32("q"));
    let v: Vec<Expr> = (0..6).map(|j| kb.var_u32(&format!("v{j}"))).collect();
    let bit = |q: &Expr, b: u32| (q.clone() & Expr::u32(b)).ne_(Expr::u32(0));
    kb.for_(i.clone(), kb.global_id(), n, kb.global_threads(), |k| {
        k.assign(&x, pa.at(i.clone()));
        k.assign(&y, pb.at(i.clone()));
        k.assign(&q, pq.at(i.clone()));
        k.assign(&v[0], x.clone() ^ q.clone());
        k.assign(&v[1], y.clone() + q.clone());
        k.assign(&v[2], x.clone() * Expr::u32(3) + y.clone());
        k.assign(&v[3], q.clone() >> Expr::u32(3));
        k.assign(&v[4], x.clone() & y.clone());
        k.assign(&v[5], x.clone() | q.clone());
        k.while_(y.clone().ne_(Expr::u32(0)), |k| {
            k.assign(&t, x.clone() % y.clone());
            k.assign(&x, y.clone());
            k.assign(&y, t.clone());
            k.assign(&v[0], v[0].clone() + t.clone());
        });
        k.if_else(
            bit(&q, 1),
            |k| {
                k.if_else(
                    bit(&q, 2),
                    |k| k.assign(&v[1], v[1].clone() * Expr::u32(5) + v[2].clone()),
                    |k| k.assign(&v[2], v[2].clone() ^ v[3].clone()),
                );
            },
            |k| {
                k.if_else(
                    bit(&q, 4),
                    |k| k.assign(&v[3], v[3].clone() + v[4].clone()),
                    |k| k.assign(&v[4], v[4].clone() - v[5].clone()),
                );
            },
        );
        k.store(&out, i.clone(), v.iter().fold(x.clone(), |acc, vj| acc + vj.clone()));
    });

    let want = (0..len as usize)
        .map(|i| {
            let (x, y, q) = (xs[i], ys[i], qs[i]);
            let mut v =
                [x ^ q, y.wrapping_add(q), x.wrapping_mul(3).wrapping_add(y), q >> 3, x & y, x | q];
            let g = gcd_steps(x, y, |t| v[0] = v[0].wrapping_add(t));
            match (q & 1 != 0, q & 2 != 0, q & 4 != 0) {
                (true, true, _) => v[1] = v[1].wrapping_mul(5).wrapping_add(v[2]),
                (true, false, _) => v[2] ^= v[3],
                (false, _, true) => v[3] = v[3].wrapping_add(v[4]),
                (false, _, false) => v[4] = v[4].wrapping_sub(v[5]),
            }
            v.iter().fold(g, |acc, &vj| acc.wrapping_add(vj))
        })
        .collect();
    Job { kernel: kb.finish(), launch, scalars: vec![len], inputs: vec![xs, ys, qs], want }
}

/// Histogram bins per thread block in `mem_bound`'s third phase.
const BINS: u32 = 256;

/// `mem_bound`: three phases over `len`-word buffers. Unit-stride
/// `c = a + b`; a seeded gather `a[idx[i]]` scattered through a seeded
/// permutation; and a per-block shared-memory histogram of `a`'s low byte
/// built with `atomic_add` between barriers and flushed with plain
/// stores. The output buffer is `c ‖ d ‖ one histogram per block`.
pub fn mem_bound(seed: u64, len: u32, launch: Launch) -> Job {
    let mut r = Prng::seed_from_u64(seed ^ 0xE1);
    let a: Vec<u32> = (0..len).map(|_| r.next_u32()).collect();
    let b: Vec<u32> = (0..len).map(|_| r.next_u32()).collect();
    let idx: Vec<u32> = (0..len).map(|_| r.range_u32(0, len)).collect();
    let mut perm: Vec<u32> = (0..len).collect();
    r.shuffle(&mut perm);

    let mut kb = KernelBuilder::new("mem_bound");
    let n = kb.param_u32("len");
    let pa = kb.param_ptr("a", Elem::U32);
    let pb = kb.param_ptr("b", Elem::U32);
    let pidx = kb.param_ptr("idx", Elem::U32);
    let pperm = kb.param_ptr("perm", Elem::U32);
    let out = kb.param_ptr("out", Elem::U32);
    let hist = kb.shared("hist", Elem::U32, BINS);
    let i = kb.var_u32("i");
    let (gid, stride) = (kb.global_id(), kb.global_threads());
    kb.for_(i.clone(), gid.clone(), n.clone(), stride.clone(), |k| {
        k.store(&out, i.clone(), pa.at(i.clone()) + pb.at(i.clone()));
    });
    kb.for_(i.clone(), gid.clone(), n.clone(), stride.clone(), |k| {
        k.store(&out, n.clone() + pperm.at(i.clone()), pa.at(pidx.at(i.clone())));
    });
    kb.for_(i.clone(), kb.thread_idx(), Expr::u32(BINS), kb.block_dim(), |k| {
        k.store(&hist, i.clone(), Expr::u32(0));
    });
    kb.barrier();
    kb.for_(i.clone(), gid, n.clone(), stride, |k| {
        k.atomic_add(&hist, pa.at(i.clone()) & Expr::u32(BINS - 1), Expr::u32(1));
    });
    kb.barrier();
    let flush = n.clone() * Expr::u32(2) + kb.block_idx() * Expr::u32(BINS);
    kb.for_(i.clone(), kb.thread_idx(), Expr::u32(BINS), kb.block_dim(), |k| {
        k.store(&out, flush.clone() + i.clone(), hist.at(i.clone()));
    });

    let threads = launch.grid_dim * launch.block_dim;
    let n = len as usize;
    let mut want = vec![0u32; 2 * n + (launch.grid_dim * BINS) as usize];
    for i in 0..n {
        want[i] = a[i].wrapping_add(b[i]);
        want[n + perm[i] as usize] = a[idx[i] as usize];
        let block = (i as u32 % threads) / launch.block_dim;
        want[2 * n + (block * BINS + (a[i] & (BINS - 1))) as usize] += 1;
    }
    Job { kernel: kb.finish(), launch, scalars: vec![len], inputs: vec![a, b, idx, perm], want }
}

/// `launch_storm`'s kernel: `out[i] = in[i] * 3 + k` over one 2,048-thread
/// wave — under 2,000 issues, little more than the prologue every launch
/// pays on each of the 64 warps. `k` is a scalar argument so successive
/// launches have distinguishable outputs.
pub fn tiny(seed: u64, launch: Launch) -> Job {
    let mut r = Prng::seed_from_u64(seed ^ 0xF1);
    let len = launch.grid_dim * launch.block_dim;
    let xs: Vec<u32> = (0..len).map(|_| r.next_u32()).collect();
    let mut kb = KernelBuilder::new("tiny");
    let k = kb.param_u32("k");
    let input = kb.param_ptr("in", Elem::U32);
    let out = kb.param_ptr("out", Elem::U32);
    kb.store(&out, kb.global_id(), input.at(kb.global_id()) * Expr::u32(3) + k);
    let want = xs.iter().map(|&x| tiny_value(x, 0)).collect();
    Job { kernel: kb.finish(), launch, scalars: vec![0], inputs: vec![xs], want }
}

/// What [`tiny`] stores for input word `x` and scalar argument `k`.
pub fn tiny_value(x: u32, k: u32) -> u32 {
    x.wrapping_mul(3).wrapping_add(k)
}
