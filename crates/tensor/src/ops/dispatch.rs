//! One source body per hot kernel, two instantiations of it.
//!
//! The workspace is compiled for the target's baseline (x86-64: SSE2, 128-bit
//! vectors). The hot kernels are written width-independently — plain `f32`
//! loops the compiler vectorises at whatever width the enclosing function may
//! use — so the same `#[inline(always)]` body can be instantiated a second
//! time inside a `#[target_feature(enable = "avx2")]` function, where it
//! compiles to 256-bit code, and [`simd_dispatch!`] picks between the two per
//! call from [`simd_lanes`].
//!
//! **Why the choice cannot change a bit.** Only `avx2` is enabled — never
//! `fma` — no body calls `mul_add`, and rustc never contracts `a * b + c`, so
//! both instantiations perform the same sequence of correctly-rounded `f32`
//! operations per output element; reductions are written in a fixed order
//! (`matmul_raw`'s 4-group k-order, [`super::vmath::sum_row`]'s lane order)
//! that the vector width does not enter. Results are host-independent, and
//! each module's tests pin body ≡ dispatched entry to the bit.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f32` lanes per vector of the instantiation the dispatched kernels run on
/// this host: 8 where AVX2 is detected, 4 otherwise (the baseline build). The
/// first call publishes the answer as the `tensor.simd_lanes` gauge.
pub fn simd_lanes() -> usize {
    // Relaxed: the value publishes no other data, and detection is idempotent.
    static LANES: AtomicUsize = AtomicUsize::new(0);
    match LANES.load(Ordering::Relaxed) {
        0 => {
            #[cfg(target_arch = "x86_64")]
            let lanes = if std::arch::is_x86_feature_detected!("avx2") {
                8
            } else {
                4
            };
            #[cfg(not(target_arch = "x86_64"))]
            let lanes = 4;
            delrec_obs::gauge!("tensor.simd_lanes").set(lanes as f64);
            LANES.store(lanes, Ordering::Relaxed);
            lanes
        }
        lanes => lanes,
    }
}

/// Define `fn $name(args)` as the runtime-dispatched entry to the
/// `#[inline(always)]` kernel body `$body` (same arguments, optionally const
/// generics): on x86-64 with AVX2 it calls a `#[target_feature]` twin
/// whose only statement is the call to `$body` — so the arithmetic exists
/// once in source — and everywhere else `$body` itself.
macro_rules! simd_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident $(<$(const $cg:ident: $cgt:ty),+>)? ($($arg:ident: $ty:ty),* $(,)?)
            => $body:ident
    ) => {
        $(#[$meta])*
        $vis fn $name $(<$(const $cg: $cgt),+>)? ($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                /// The kernel body instantiated with 256-bit vectors.
                ///
                /// # Safety
                /// The running CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn avx2 $(<$(const $cg: $cgt),+>)? ($($arg: $ty),*) {
                    $body $(::<$($cg),+>)? ($($arg),*)
                }
                if $crate::ops::dispatch::simd_lanes() == 8 {
                    // SAFETY: `simd_lanes` returns 8 only after
                    // `is_x86_feature_detected!("avx2")` reported AVX2 on
                    // this CPU, which is the twin's one requirement.
                    return unsafe { avx2 $(::<$($cg),+>)? ($($arg),*) };
                }
            }
            $body $(::<$($cg),+>)? ($($arg),*)
        }
    };
}
pub(crate) use simd_dispatch;

/// Print which instantiation `kernel`'s dispatched entry takes on this host,
/// so a body-vs-entry test run on a host without AVX2 says that it compared
/// the body with itself instead of passing silently.
#[cfg(test)]
pub(crate) fn report_instantiation(kernel: &str) {
    match simd_lanes() {
        8 => println!("{kernel}: entry ran the 256-bit AVX2 twin, compared with the baseline body"),
        _ => println!(
            "{kernel}: no AVX2 here — the entry IS the baseline body, compared with itself"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_published_as_a_gauge() {
        let lanes = simd_lanes();
        assert!(lanes == 4 || lanes == 8);
        let gauge = delrec_obs::global().gauge("tensor.simd_lanes").get();
        assert_eq!(gauge, lanes as f64);
        assert_eq!(simd_lanes(), lanes, "the answer is fixed for the process");
    }
}
