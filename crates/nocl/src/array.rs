//! Bulk array combinators: `map`, `zip_map`, `reduce`, `scan`, `fill`,
//! `iota` — a Thrust-flavoured layer over the kernel IR.
//!
//! Section 5.1 of the paper observes that high-level bulk operations are
//! largely *safe by construction* (every access is derived from the loop
//! bound), which is how array languages like Futhark keep software
//! bounds-checking cheap. This module provides that programming model on
//! top of the CHERI-SIMT stack: combinators build the kernels, the modes
//! decide how safety is enforced (hardware capabilities, software checks,
//! or not at all).
//!
//! Combinator closures receive and return [`Expr`]s, so arbitrary IR
//! expressions can be fused into a single generated kernel:
//!
//! ```
//! use cheri_simt::{CheriMode, CheriOpts, SmConfig};
//! use nocl::{Gpu, Launch};
//! use nocl_kir::{Expr, Mode};
//!
//! let mut gpu = Gpu::new(SmConfig::small(CheriMode::On(CheriOpts::optimised())), Mode::PureCap);
//! let xs = gpu.iota(100).unwrap();                            // 0, 1, 2, ...
//! let doubled = gpu.map("x2", &xs, |x| x * Expr::u32(2)).unwrap();
//! let total = gpu.reduce("sum", &doubled, 0u32, |a, b| a + b).unwrap();
//! assert_eq!(total, (0..100u32).map(|v| 2 * v).sum());
//! ```

use crate::{Arg, Buffer, DeviceScalar, Gpu, Launch, LaunchError};
use nocl_kir::{Elem, Expr, KernelBuilder};

/// 4-byte element types usable in reductions and scans (narrow elements
/// would overflow their own type when combined).
pub trait WordScalar: DeviceScalar {
    /// Lift a host value to an IR literal.
    fn to_expr(self) -> Expr;
}

impl WordScalar for u32 {
    fn to_expr(self) -> Expr {
        Expr::u32(self)
    }
}

impl WordScalar for i32 {
    fn to_expr(self) -> Expr {
        Expr::i32(self)
    }
}

impl WordScalar for f32 {
    fn to_expr(self) -> Expr {
        Expr::f32(self)
    }
}

impl Gpu {
    fn array_geometry(&self, n: u32) -> Launch {
        let bd = 256u32.min(self.device().config().threads());
        let grid = n.div_ceil(bd).clamp(1, 64);
        Launch::new(grid, bd)
    }

    /// `out[i] = f(in[i])`. `name` names the generated kernel.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn map<T: DeviceScalar>(
        &mut self,
        name: &str,
        input: &Buffer<T>,
        f: impl Fn(Expr) -> Expr,
    ) -> Result<Buffer<T>, LaunchError> {
        let out = self.alloc::<T>(input.len());
        let mut k = KernelBuilder::new(&format!("array_map_{name}"));
        let len = k.param_u32("len");
        let src = k.param_ptr("in", T::ELEM);
        let dst = k.param_ptr("out", T::ELEM);
        let i = k.var_u32("i");
        k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
            k.store(&dst, i.clone(), f(src.at(i.clone())));
        });
        let kernel = k.finish();
        self.launch(
            &kernel,
            self.array_geometry(input.len()),
            &[input.len().into(), input.into(), (&out).into()],
        )?;
        Ok(out)
    }

    /// `out[i] = f(a[i], b[i])`.
    ///
    /// # Errors
    ///
    /// Fails if the inputs differ in length, or on launch failure.
    pub fn zip_map<T: DeviceScalar>(
        &mut self,
        name: &str,
        a: &Buffer<T>,
        b: &Buffer<T>,
        f: impl Fn(Expr, Expr) -> Expr,
    ) -> Result<Buffer<T>, LaunchError> {
        if a.len() != b.len() {
            return Err(LaunchError::Config(format!(
                "zip_map over mismatched lengths {} and {}",
                a.len(),
                b.len()
            )));
        }
        let out = self.alloc::<T>(a.len());
        let mut k = KernelBuilder::new(&format!("array_zip_{name}"));
        let len = k.param_u32("len");
        let pa = k.param_ptr("a", T::ELEM);
        let pb = k.param_ptr("b", T::ELEM);
        let dst = k.param_ptr("out", T::ELEM);
        let i = k.var_u32("i");
        k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
            k.store(&dst, i.clone(), f(pa.at(i.clone()), pb.at(i.clone())));
        });
        let kernel = k.finish();
        self.launch(
            &kernel,
            self.array_geometry(a.len()),
            &[a.len().into(), a.into(), b.into(), (&out).into()],
        )?;
        Ok(out)
    }

    /// Fold the whole array with an associative, commutative `f` and its
    /// identity, returning the result to the host. Two launches: block
    /// partials, then a single-block fold of the partials.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn reduce<T: WordScalar>(
        &mut self,
        name: &str,
        input: &Buffer<T>,
        identity: T,
        f: impl Fn(Expr, Expr) -> Expr,
    ) -> Result<T, LaunchError> {
        let geometry = self.array_geometry(input.len());
        let bd = geometry.block_dim;
        let partials = self.alloc::<T>(geometry.grid_dim);

        let build = |kname: &str, bd: u32, identity: &T, f: &dyn Fn(Expr, Expr) -> Expr| {
            let mut k = KernelBuilder::new(kname);
            let len = k.param_u32("len");
            let src = k.param_ptr("in", T::ELEM);
            let dst = k.param_ptr("out", T::ELEM);
            let tile = k.shared("tile", T::ELEM, bd);
            let i = k.var_u32("i");
            let acc = k.var("acc", T::ELEM.loaded_ty());
            k.assign(&acc, identity.to_expr());
            k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
                k.assign(&acc, f(acc.clone(), src.at(i.clone())));
            });
            k.store(&tile, k.thread_idx(), acc.clone());
            k.barrier();
            let s = k.var_u32("s");
            k.assign(&s, Expr::u32(bd / 2));
            k.while_(s.clone().gt(Expr::u32(0)), |k| {
                k.if_(k.thread_idx().lt(s.clone()), |k| {
                    k.store(
                        &tile,
                        k.thread_idx(),
                        f(tile.at(k.thread_idx()), tile.at(k.thread_idx() + s.clone())),
                    );
                });
                k.barrier();
                k.assign(&s, s.clone() >> Expr::u32(1));
            });
            k.if_(k.thread_idx().eq_(Expr::u32(0)), |k| {
                k.store(&dst, k.block_idx(), tile.at(Expr::u32(0)));
            });
            k.finish()
        };

        let k1 = build(&format!("array_reduce_{name}_{bd}"), bd, &identity, &f);
        self.launch(&k1, geometry, &[input.len().into(), input.into(), (&partials).into()])?;

        // Fold the partials with a single block.
        let out = self.alloc::<T>(1);
        let k2 = build(&format!("array_reduce_fin_{name}_{bd}"), bd, &identity, &f);
        self.launch(
            &k2,
            Launch::new(1, bd),
            &[partials.len().into(), (&partials).into(), (&out).into()],
        )?;
        Ok(self.read(&out)[0])
    }

    /// Inclusive prefix scan with an associative `f`: three launches
    /// (per-block scans, a scan of the block totals, offset application).
    ///
    /// # Errors
    ///
    /// Fails if the array needs more resident blocks than one block can
    /// re-scan (length > block_dim²·64), or on launch failure.
    pub fn scan<T: WordScalar>(
        &mut self,
        name: &str,
        input: &Buffer<T>,
        identity: T,
        f: impl Fn(Expr, Expr) -> Expr,
    ) -> Result<Buffer<T>, LaunchError> {
        // Recurse through a dynamic closure type so the block-sums scan does
        // not monomorphise a fresh instance per recursion level.
        self.scan_impl(name, input, identity, &f)
    }

    fn scan_impl<T: WordScalar>(
        &mut self,
        name: &str,
        input: &Buffer<T>,
        identity: T,
        f: &dyn Fn(Expr, Expr) -> Expr,
    ) -> Result<Buffer<T>, LaunchError> {
        let bd = 256u32.min(self.device().config().threads());
        let nblocks = input.len().div_ceil(bd);
        if nblocks > bd {
            return Err(LaunchError::Config(format!(
                "scan of {} elements needs {nblocks} blocks > one block of {bd}",
                input.len()
            )));
        }
        let out = self.alloc::<T>(input.len());
        let sums = self.alloc::<T>(nblocks);

        // Phase 1: Hillis–Steele scan within each block (identity-padded).
        let mut k = KernelBuilder::new(&format!("array_scan1_{name}_{bd}"));
        let len = k.param_u32("len");
        let src = k.param_ptr("in", T::ELEM);
        let dst = k.param_ptr("out", T::ELEM);
        let dsums = k.param_ptr("sums", T::ELEM);
        let buf = k.shared("buf", T::ELEM, 2 * bd);
        let gid = k.var_u32("gid");
        let pin = k.var_u32("pin");
        let pout = k.var_u32("pout");
        let v = k.var("v", T::ELEM.loaded_ty());
        k.assign(&gid, k.global_id());
        k.assign(&pout, Expr::u32(0));
        k.assign(&v, identity.to_expr());
        k.if_(gid.clone().lt(len.clone()), |k| {
            k.assign(&v, src.at(gid.clone()));
        });
        k.store(&buf, k.thread_idx(), v.clone());
        k.barrier();
        let d = k.var_u32("d");
        k.assign(&d, Expr::u32(1));
        k.while_(d.clone().lt(Expr::u32(bd)), |k| {
            k.assign(&pin, pout.clone());
            k.assign(&pout, pout.clone() ^ Expr::u32(1));
            let srcidx = pin.clone() * Expr::u32(bd) + k.thread_idx();
            let dstidx = pout.clone() * Expr::u32(bd) + k.thread_idx();
            k.if_else(
                k.thread_idx().ge(d.clone()),
                |k| {
                    let combined = f(
                        buf.at(pin.clone() * Expr::u32(bd) + k.thread_idx() - d.clone()),
                        buf.at(srcidx.clone()),
                    );
                    k.store(&buf, dstidx.clone(), combined);
                },
                |k| {
                    k.store(&buf, dstidx.clone(), buf.at(srcidx.clone()));
                },
            );
            k.barrier();
            k.assign(&d, d.clone() << Expr::u32(1));
        });
        k.if_(gid.clone().lt(len.clone()), |k| {
            k.store(&dst, gid.clone(), buf.at(pout.clone() * Expr::u32(bd) + k.thread_idx()));
        });
        k.if_(k.thread_idx().eq_(Expr::u32(bd - 1)), |k| {
            k.store(&dsums, k.block_idx(), buf.at(pout.clone() * Expr::u32(bd) + k.thread_idx()));
        });
        let k1 = k.finish();
        self.launch(
            &k1,
            Launch::new(nblocks, bd),
            &[input.len().into(), input.into(), (&out).into(), (&sums).into()],
        )?;

        if nblocks > 1 {
            // Phase 2: scan the block totals (single block).
            let scanned_sums = self.scan_impl(&format!("{name}_sums"), &sums, identity, f)?;
            // Phase 3: fold each block's predecessor total into its elements.
            let mut k = KernelBuilder::new(&format!("array_scan3_{name}_{bd}"));
            let len = k.param_u32("len");
            let data = k.param_ptr("data", T::ELEM);
            let offs = k.param_ptr("offs", T::ELEM);
            let gid = k.var_u32("gid");
            k.assign(&gid, k.global_id());
            k.if_(gid.clone().lt(len.clone()) & k.block_idx().gt(Expr::u32(0)), |k| {
                let prev = offs.at(k.block_idx() - Expr::u32(1));
                k.store(&data, gid.clone(), f(prev, data.at(gid.clone())));
            });
            let k3 = k.finish();
            self.launch(
                &k3,
                Launch::new(nblocks, bd),
                &[input.len().into(), (&out).into(), (&scanned_sums).into()],
            )?;
        }
        Ok(out)
    }

    /// A buffer of `n` copies of `value`.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn fill<T: WordScalar>(&mut self, n: u32, value: T) -> Result<Buffer<T>, LaunchError> {
        let out = self.alloc::<T>(n);
        let mut k = KernelBuilder::new("array_fill");
        let len = k.param_u32("len");
        let v = match T::ELEM.loaded_ty() {
            nocl_kir::Ty::F32 => k.param_f32("v"),
            nocl_kir::Ty::I32 => k.param_i32("v"),
            _ => k.param_u32("v"),
        };
        let dst = k.param_ptr("out", T::ELEM);
        let i = k.var_u32("i");
        k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
            k.store(&dst, i.clone(), v.clone());
        });
        let kernel = k.finish();
        let varg: Arg = match T::ELEM {
            Elem::F32 => {
                let mut bytes = Vec::new();
                value.extend_bytes(&mut bytes);
                f32::from_bytes(&bytes).into()
            }
            _ => {
                let mut bytes = Vec::new();
                value.extend_bytes(&mut bytes);
                u32::from_bytes(&bytes).into()
            }
        };
        self.launch(&kernel, self.array_geometry(n), &[n.into(), varg, (&out).into()])?;
        Ok(out)
    }

    /// The sequence `0, 1, ..., n-1`.
    ///
    /// # Errors
    ///
    /// Propagates launch failures.
    pub fn iota(&mut self, n: u32) -> Result<Buffer<u32>, LaunchError> {
        let out = self.alloc::<u32>(n);
        let mut k = KernelBuilder::new("array_iota");
        let len = k.param_u32("len");
        let dst = k.param_ptr("out", Elem::U32);
        let i = k.var_u32("i");
        k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
            k.store(&dst, i.clone(), i.clone());
        });
        let kernel = k.finish();
        self.launch(&kernel, self.array_geometry(n), &[n.into(), (&out).into()])?;
        Ok(out)
    }
}
