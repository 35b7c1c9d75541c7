//! VecGCD: element-wise greatest common divisor — heavily divergent loop
//! trip counts and a hot integer divider.

use crate::util::*;
use crate::{BenchError, NoclBench, Scale};
use cheri_simt::KernelStats;
use nocl::{Gpu, Launch};
use nocl_kir::{Elem, Expr, Kernel, KernelBuilder};

/// `c[i] = gcd(a[i], b[i])` by Euclid's algorithm.
pub(super) struct VecGcd;

pub(crate) fn kernel() -> Kernel {
    let mut k = KernelBuilder::new("VecGCD");
    let len = k.param_u32("len");
    let a = k.param_ptr("a", Elem::U32);
    let b = k.param_ptr("b", Elem::U32);
    let c = k.param_ptr("c", Elem::U32);
    let i = k.var_u32("i");
    let x = k.var_u32("x");
    let y = k.var_u32("y");
    let t = k.var_u32("t");
    k.for_(i.clone(), k.global_id(), len, k.global_threads(), |k| {
        k.assign(&x, a.at(i.clone()));
        k.assign(&y, b.at(i.clone()));
        k.while_(y.clone().ne_(Expr::u32(0)), |k| {
            k.assign(&t, x.clone() % y.clone());
            k.assign(&x, y.clone());
            k.assign(&y, t.clone());
        });
        k.store(&c, i.clone(), x.clone());
    });
    k.finish()
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl NoclBench for VecGcd {
    fn name(&self) -> &'static str {
        "VecGCD"
    }

    fn description(&self) -> &'static str {
        "Vectorised greatest common divisor"
    }

    fn origin(&self) -> &'static str {
        "In house"
    }

    fn example_kernel(&self) -> nocl_kir::Kernel {
        kernel()
    }

    fn run(&self, gpu: &mut Gpu, scale: Scale) -> Result<KernelStats, BenchError> {
        let n: u32 = match scale {
            Scale::Test => 512,
            Scale::Paper => 8_192,
        };
        let xs: Vec<u32> = rand_u32s(0x6CD0, n as usize).iter().map(|v| v + 1).collect();
        let ys: Vec<u32> = rand_u32s(0x6CD1, n as usize).iter().map(|v| v + 1).collect();
        let want: Vec<u32> = xs.iter().zip(&ys).map(|(&x, &y)| gcd(x, y)).collect();

        let a = gpu.alloc_from(&xs);
        let b = gpu.alloc_from(&ys);
        let c = gpu.alloc::<u32>(n);
        let bd = block_dim(gpu, 64);
        let grid = (n / bd).clamp(1, 32);
        let stats = gpu.launch(
            &kernel(),
            Launch::new(grid, bd),
            &[n.into(), (&a).into(), (&b).into(), (&c).into()],
        )?;
        check_eq("VecGCD", &gpu.read(&c), &want)?;
        Ok(stats)
    }
}
