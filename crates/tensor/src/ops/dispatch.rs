//! One source body per hot kernel, two or three instantiations of it.
//!
//! The workspace is compiled for the target's baseline (x86-64: SSE2, 128-bit
//! vectors). The hot kernels are written width-independently — plain `f32`
//! loops the compiler vectorises at whatever width the enclosing function may
//! use — so the same `#[inline(always)]` body can be instantiated a second
//! time inside a `#[target_feature(enable = "avx2")]` function, where it
//! compiles to 256-bit code, and [`simd_dispatch!`] picks between the two per
//! call from [`simd_lanes`]. An entry that opts in with a leading `avx512f;`
//! gets a third, `#[target_feature(enable = "avx512f")]` instantiation, picked
//! from [`scan_simd_lanes`]: only the item-index scan's wide-panel entry does
//! (`gemm::wide_panel_range`). The LM's kernels stay at two, because a 512-bit
//! twin measured slower on their 8- and 16-wide panels (DESIGN.md, negative
//! result c).
//!
//! **Why the choice cannot change a bit.** No body calls `mul_add`, and rustc
//! never contracts `a * b + c` into a fused multiply-add: it emits no LLVM
//! `contract` flag and no `fmuladd` intrinsic for plain `f32` arithmetic. So
//! every instantiation performs the same sequence of correctly-rounded `f32`
//! operations per output element, even the `avx512f` one, whose feature makes
//! FMA instructions *available* (LLVM's `avx512f` implies `fma`; `avx2` does
//! not) without the compiler being allowed to use them for this code.
//! Reductions are written in a fixed order (`matmul_raw`'s 4-group k-order,
//! [`super::vmath::sum_row`]'s lane order) that the vector width does not
//! enter. Results are host-independent, and each module's tests pin body ≡
//! dispatched entry to the bit. For the 512-bit twin those are
//! `gemm::tests::dispatched_panel_kernels_are_bitwise_their_baseline_body`
//! and `tests/gemm_properties.rs::wide_scan_is_bitwise_matmul_raw`: both
//! compare it with code compiled for the baseline target, which has no FMA,
//! and one contracted product would round once instead of twice and change a
//! bit.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `f32` lanes per vector of the instantiation the dispatched kernels run on
/// this host: 8 where AVX2 is detected, 4 otherwise (the baseline build). The
/// first call publishes the answer as the `tensor.simd_lanes` gauge.
pub fn simd_lanes() -> usize {
    static LANES: AtomicUsize = AtomicUsize::new(0);
    detected_once(&LANES, "tensor.simd_lanes", || {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return 8;
        }
        4
    })
}

/// `f32` lanes per vector of the instantiation the wide-panel scan entry
/// (`simd_dispatch!` with `avx512f;`) runs on this host: 16 where AVX-512F is
/// detected, otherwise [`simd_lanes`]. The first call — the first wide
/// dispatch — publishes the answer as the `tensor.scan_simd_lanes` gauge.
pub fn scan_simd_lanes() -> usize {
    static LANES: AtomicUsize = AtomicUsize::new(0);
    detected_once(&LANES, "tensor.scan_simd_lanes", || {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 16;
        }
        simd_lanes()
    })
}

/// `detect`'s answer, computed on the first call and cached in `cell`, which
/// also publishes it as the gauge `gauge`.
fn detected_once(cell: &AtomicUsize, gauge: &str, detect: impl FnOnce() -> usize) -> usize {
    // Relaxed: the value publishes no other data, and detection is idempotent.
    match cell.load(Ordering::Relaxed) {
        0 => {
            let lanes = detect();
            delrec_obs::global().gauge(gauge).set(lanes as f64);
            cell.store(lanes, Ordering::Relaxed);
            lanes
        }
        lanes => lanes,
    }
}

/// Define `fn $name(args)` as the runtime-dispatched entry to the
/// `#[inline(always)]` kernel body `$body` (same arguments, optionally const
/// generics): on x86-64 with AVX2 it calls a `#[target_feature]` twin
/// whose only statement is the call to `$body` — so the arithmetic exists
/// once in source — and everywhere else `$body` itself. A leading `avx512f;`
/// adds a 512-bit twin, taken first where [`scan_simd_lanes`] reports 16.
macro_rules! simd_dispatch {
    (avx512f; $($entry:tt)*) => {
        $crate::ops::dispatch::simd_dispatch!(@entry [avx512f] $($entry)*);
    };
    (
        @entry [$($wide:ident)?]
        $(#[$meta:meta])*
        $vis:vis fn $name:ident $(<$(const $cg:ident: $cgt:ty),+>)? ($($arg:ident: $ty:ty),* $(,)?)
            => $body:ident
    ) => {
        $(#[$meta])*
        $vis fn $name $(<$(const $cg: $cgt),+>)? ($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                $crate::ops::dispatch::simd_dispatch!(
                    @twin [$($wide)?] $body $(<$(const $cg: $cgt),+>)? ($($arg: $ty),*)
                );
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
    (@twin [] $($unused:tt)*) => {};
    (
        @twin [avx512f] $body:ident $(<$(const $cg:ident: $cgt:ty),+>)? ($($arg:ident: $ty:ty),*)
    ) => {
        /// The kernel body instantiated with 512-bit vectors.
        ///
        /// # Safety
        /// The running CPU must support AVX-512F.
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn avx512f $(<$(const $cg: $cgt),+>)? ($($arg: $ty),*) {
            $body $(::<$($cg),+>)? ($($arg),*)
        }
        if $crate::ops::dispatch::scan_simd_lanes() == 16 {
            // SAFETY: `scan_simd_lanes` returns 16 only after
            // `is_x86_feature_detected!("avx512f")` reported AVX-512F on this
            // CPU, which is the twin's one requirement.
            return unsafe { avx512f $(::<$($cg),+>)? ($($arg),*) };
        }
    };
    ($($entry:tt)*) => {
        $crate::ops::dispatch::simd_dispatch!(@entry [] $($entry)*);
    };
}
pub(crate) use simd_dispatch;

/// Print which instantiation `kernel`'s dispatched entry takes on this host,
/// given the lane count its entry dispatches on ([`simd_lanes`], or
/// [`scan_simd_lanes`] for the wide-panel entry), so a body-vs-entry test run
/// on a host without AVX2 or AVX-512F says what it compared instead of
/// passing silently.
#[cfg(test)]
pub(crate) fn report_instantiation(kernel: &str, lanes: usize) {
    match lanes {
        16 => println!(
            "{kernel}: entry ran the 512-bit AVX-512F twin, compared with the baseline body"
        ),
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

    #[test]
    fn wide_detection_is_published_as_a_gauge() {
        let lanes = scan_simd_lanes();
        report_instantiation("the wide-panel scan entry", lanes);
        assert!(lanes == 16 || lanes == simd_lanes());
        let gauge = delrec_obs::global().gauge("tensor.scan_simd_lanes").get();
        assert_eq!(gauge, lanes as f64);
        assert_eq!(
            scan_simd_lanes(),
            lanes,
            "the answer is fixed for the process"
        );
    }
}
