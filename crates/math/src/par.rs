//! Parallel execution helpers.
//!
//! The paper provisions `nc_NTT` parallel NTT cores and `P_intra`
//! intra-operation parallelism in DSP slices (Sec. III, Table I); the
//! software mirror of that is two distinct layers:
//!
//! * **Lanes** (`P_intra`): the branch-free NTT butterflies in
//!   [`crate::ntt`] and the 4-wide pointwise kernels in
//!   [`crate::modops`] / [`crate::poly`] keep the *serial* path fast.
//!   They live below this module and never involve threads.
//! * **Coarse grain** (`nc_NTT`): OS threads are only worth spawning
//!   when each unit of work is large enough to amortise scope
//!   setup/teardown (a scoped `std::thread` spawn costs tens of
//!   microseconds). This module is the single scheduling point:
//!   [`for_each_indexed`] splits a mutable slice into at most
//!   [`effective_threads`] contiguous chunks and [`map_indexed`] does
//!   the same for indexed map-style work. Both spawn through
//!   [`fan_out`], which is also how the serving driver runs one request
//!   per worker at once (`fxhenn::serve`).
//!
//! # The spawn rule
//!
//! Every call carries a `grain_elems` hint — the approximate number of
//! element-operations one item costs (`n` for a pointwise limb pass,
//! `n log2 n` for an NTT, [`GRAIN_COARSE`] for ciphertext-sized items).
//! A call spawns exactly when
//!
//! * the mode allows at least 2 threads ([`Parallelism::Auto`]: the
//!   host's hardware threads, [`Parallelism::Threads`]`(k)`: `k`), and
//! * `items * grain_elems` is at least [`SPAWN_FLOOR_ELEMS`],
//!
//! and runs inline on the caller's thread otherwise. Like the paper's
//! `nc_NTT`, the rule is fixed at build time from a measurement
//! (DESIGN §8), not re-measured per process, so every process with the
//! same mode and host width makes the same choices.
//!
//! Tests override the floor per thread with [`with_dispatch_threshold`]
//! (`0` forces genuine spawns on tiny slices, [`u64::MAX`] inlining).
//!
//! # Determinism
//!
//! Every closure writes only its own element and computes values that
//! do not depend on scheduling, so the result is bit-identical whatever
//! the dispatch choice — including the fully serial path. Tests can pin
//! the behaviour per thread with [`with_parallelism`]; both the mode
//! override and the threshold override are captured from the caller and
//! re-installed inside every spawned worker (like the ambient
//! [`budget`]), so nested kernel calls inside workers honour the
//! caller's pin instead of silently reverting to the global mode.
//!
//! Without the `parallel` cargo feature (or with
//! [`Parallelism::Serial`]), everything runs inline on the caller's
//! thread and this module adds zero overhead.

use crate::budget;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// How the helpers schedule their work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Use up to the machine's available hardware threads (the default),
    /// subject to [`SPAWN_FLOOR_ELEMS`]. Runs inline on single-core
    /// hosts.
    Auto,
    /// Run everything inline on the calling thread.
    Serial,
    /// Allow up to exactly this many worker threads (>= 2). The spawn
    /// floor still applies: combine with [`with_dispatch_threshold`]`(0)`
    /// to force spawning for tiny work, as the serial-vs-parallel
    /// equivalence tests do.
    Threads(usize),
}

// Encoding: 0 = Auto, 1 = Serial, k >= 2 = Threads(k).
static GLOBAL_MODE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL_MODE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn encode(p: Parallelism) -> usize {
    match p {
        Parallelism::Auto => 0,
        Parallelism::Serial => 1,
        Parallelism::Threads(k) => k.max(2),
    }
}

fn decode(v: usize) -> Parallelism {
    match v {
        0 => Parallelism::Auto,
        1 => Parallelism::Serial,
        k => Parallelism::Threads(k),
    }
}

/// Sets the process-wide default scheduling mode.
pub fn set_parallelism(p: Parallelism) {
    GLOBAL_MODE.store(encode(p), Ordering::SeqCst);
}

/// The scheduling mode in effect for the calling thread (the
/// [`with_parallelism`] override if one is active, otherwise the global
/// default).
pub fn parallelism() -> Parallelism {
    let local = LOCAL_MODE.with(|m| m.get());
    decode(local.unwrap_or_else(|| GLOBAL_MODE.load(Ordering::SeqCst)))
}

/// Runs `f` with a thread-local scheduling override, restoring the
/// previous override afterwards (also on panic-free early return).
pub fn with_parallelism<R>(p: Parallelism, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_MODE.with(|m| m.set(self.0));
        }
    }
    let prev = LOCAL_MODE.with(|m| m.replace(Some(encode(p))));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Grain hints
// ---------------------------------------------------------------------------

/// Grain hint for items that each carry ciphertext-or-larger work
/// (keyswitch digits, per-output inference chains): always clears
/// [`SPAWN_FLOOR_ELEMS`], so such items spawn whenever the mode allows
/// it.
pub const GRAIN_COARSE: usize = 1 << 40;

/// Grain hint for one O(n) pass over a length-`n` limb (pointwise
/// add/sub/mul, automorphism, scalar ops).
#[inline]
pub const fn grain_linear(n: usize) -> usize {
    n
}

/// Grain hint for one O(n log n) NTT pass over a length-`n` limb.
#[inline]
pub fn grain_ntt(n: usize) -> usize {
    n.saturating_mul(n.max(2).ilog2() as usize)
}

// ---------------------------------------------------------------------------
// Spawn floor + per-thread override
// ---------------------------------------------------------------------------

/// The fewest element-operations (`items * grain_elems`) a call must
/// carry before it spawns. Set from measurements on 2 vCPUs (DESIGN §8):
/// a two-way spawn loses to inline on every pointwise pass (65k and
/// below) and on a 4-limb NTT at N = 4096 (197k), and wins on an 8-limb
/// NTT at N = 8192 (852k) and on the key-switch limb fan-out.
pub const SPAWN_FLOOR_ELEMS: u64 = 1 << 19;

thread_local! {
    static LOCAL_THRESHOLD: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` with a thread-local override of [`SPAWN_FLOOR_ELEMS`] (in
/// element-operations), restoring the previous override afterwards.
/// `0` makes every eligible call spawn; [`u64::MAX`] makes every call
/// run inline. The override is captured into spawned workers like the
/// scheduling mode, so nested calls see it too.
pub fn with_dispatch_threshold<R>(elems: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THRESHOLD.with(|t| t.set(self.0));
        }
    }
    let prev = LOCAL_THRESHOLD.with(|t| t.replace(Some(elems)));
    let _restore = Restore(prev);
    f()
}

/// The dispatch threshold [`Parallelism::Auto`] applies on the calling
/// thread: the [`with_dispatch_threshold`] override if one is active,
/// otherwise [`SPAWN_FLOOR_ELEMS`], or [`u64::MAX`] ("never spawns")
/// on a host with fewer than 2 hardware threads.
pub fn dispatch_threshold() -> u64 {
    match LOCAL_THRESHOLD.with(|t| t.get()) {
        Some(t) => t,
        None if hardware_threads() < 2 => u64::MAX,
        None => SPAWN_FLOOR_ELEMS,
    }
}

/// The width [`Parallelism::Auto`] fans out to; 1 without the
/// `parallel` feature.
fn hardware_threads() -> usize {
    #[cfg(feature = "parallel")]
    return rayon::current_num_threads();
    #[cfg(not(feature = "parallel"))]
    1
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

thread_local! {
    static LIMB_DELAY: Cell<Option<Duration>> = const { Cell::new(None) };
}

/// Fault-injection hook: runs `f` with every limb-scheduling call
/// ([`for_each_indexed`] / [`map_indexed`]) on this thread taking
/// `delay` longer. Models a slow or contended kernel so deadline tests
/// can hang the hot path on purpose. The delay is charged to the budget
/// clock ([`budget::now`]), not slept, so a budgeted run stops after the
/// same scheduling points however fast the kernels are and however
/// loaded the host is. The override and the time it charged are
/// thread-local and restored afterwards.
pub fn with_limb_delay<R>(delay: Duration, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Duration>, Duration);
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMB_DELAY.with(|d| d.set(self.0));
            budget::set_charged(self.1);
        }
    }
    let prev = LIMB_DELAY.with(|d| d.replace(Some(delay)));
    let _restore = Restore(prev, budget::charged());
    f()
}

fn injected_limb_delay() {
    if let Some(d) = LIMB_DELAY.with(|d| d.get()) {
        budget::set_charged(budget::charged() + d);
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Number of worker threads the calling thread's mode allows; 1 means
/// "run inline". [`planned_threads`] also applies the spawn floor.
pub fn effective_threads() -> usize {
    if !cfg!(feature = "parallel") {
        return 1;
    }
    match parallelism() {
        Parallelism::Serial => 1,
        Parallelism::Threads(k) => k,
        Parallelism::Auto => hardware_threads(),
    }
}

/// The number of chunks the dispatcher would run `items` pieces of work
/// in, given the per-item `grain_elems` hint; 1 means "inline". This is
/// the spawn rule of the module docs. Callers with materially different
/// serial and fan-out code paths (e.g. the scratch-reusing keyswitch)
/// use this to pick a path up front.
pub fn planned_threads(items: usize, grain_elems: usize) -> usize {
    let width = effective_threads().min(items);
    let floor = LOCAL_THRESHOLD
        .with(|t| t.get())
        .unwrap_or(SPAWN_FLOOR_ELEMS);
    let work = (items as u64).saturating_mul(grain_elems as u64);
    if width >= 2 && work >= floor {
        width
    } else {
        1
    }
}

/// Caller context captured at the dispatch point and re-installed inside
/// every spawned worker, so deep callees observe the caller's ambient
/// budget and budget clock, scheduling-mode pin and threshold override
/// exactly as if they ran inline.
#[cfg(feature = "parallel")]
struct Ambient {
    budget: Option<budget::Budget>,
    charged: Duration,
    mode: Option<usize>,
    threshold: Option<u64>,
}

#[cfg(feature = "parallel")]
impl Ambient {
    fn capture() -> Self {
        Self {
            budget: budget::current(),
            charged: budget::charged(),
            mode: LOCAL_MODE.with(|m| m.get()),
            threshold: LOCAL_THRESHOLD.with(|t| t.get()),
        }
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        // Workers are fresh scoped threads with empty thread-locals; no
        // restore is needed, but setting before running means nested
        // dispatch calls inside `f` see the caller's overrides.
        LOCAL_MODE.with(|m| m.set(self.mode));
        LOCAL_THRESHOLD.with(|t| t.set(self.threshold));
        budget::set_charged(self.charged);
        match &self.budget {
            Some(b) => budget::with_budget(b, f),
            None => f(),
        }
    }
}

/// Runs `f(i, item)` for every item side by side and returns the
/// results in item order. The kernel fan-outs below and the serving
/// driver's waves both spawn their threads through here.
///
/// Every spawned item gets a scoped thread of its own that first
/// installs the caller's ambient context (budget, budget clock,
/// scheduling-mode pin and threshold override). With
/// `first_on_caller` the calling thread runs item 0 itself once the
/// others are spawned, so `n` items cost `n - 1` threads; otherwise
/// the caller only waits. A panic in any item propagates to the
/// caller. Without the `parallel` feature every item runs inline, in
/// order. `f` is taken as a trait object so that the spawning code is
/// compiled once per item type, not once per calling closure.
pub fn fan_out<T: Send, R: Send>(
    items: Vec<T>,
    first_on_caller: bool,
    f: &(dyn Fn(usize, T) -> R + Sync),
) -> Vec<R> {
    #[cfg(feature = "parallel")]
    {
        let ambient = &Ambient::capture();
        std::thread::scope(|s| {
            let mut items = items.into_iter().enumerate();
            let first = if first_on_caller { items.next() } else { None };
            let spawned: Vec<_> = items
                .map(|(i, item)| s.spawn(move || ambient.install(|| f(i, item))))
                .collect();
            let mut out = Vec::with_capacity(spawned.len() + 1);
            out.extend(first.map(|(i, item)| f(i, item)));
            for handle in spawned {
                match handle.join() {
                    Ok(r) => out.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = first_on_caller;
        items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect()
    }
}

/// Applies `f(index, &mut item)` to every element. `grain_elems` is the
/// approximate element-operation cost of one item (see [`grain_linear`],
/// [`grain_ntt`], [`GRAIN_COARSE`]). When the spawn rule holds
/// ([`planned_threads`]) the slice is split into at most
/// [`effective_threads`] contiguous chunks, each on a [`fan_out`]
/// thread; otherwise it runs inline.
///
/// `f` must be a pure function of its index and element for the result
/// to be schedule-independent; every caller in this workspace satisfies
/// that (per-limb modular arithmetic with disjoint outputs).
pub fn for_each_indexed<T, F>(items: &mut [T], grain_elems: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    injected_limb_delay();
    let threads = planned_threads(items.len(), grain_elems);
    if threads > 1 {
        let chunk = items.len().div_ceil(threads);
        fan_out(
            items.chunks_mut(chunk).collect(),
            false,
            &|ci, slab: &mut [T]| {
                for (off, item) in slab.iter_mut().enumerate() {
                    f(ci * chunk + off, item);
                }
            },
        );
    } else {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
    }
}

/// Computes `[f(0), f(1), .., f(count - 1)]` under the same spawn rule
/// as [`for_each_indexed`].
pub fn map_indexed<T, F>(count: usize, grain_elems: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    injected_limb_delay();
    let threads = planned_threads(count, grain_elems);
    if threads > 1 {
        let chunk = count.div_ceil(threads);
        let starts = (0..count).step_by(chunk).collect();
        fan_out(starts, false, &|_, lo: usize| {
            (lo..(lo + chunk).min(count)).map(&f).collect::<Vec<T>>()
        })
        .into_iter()
        .flatten()
        .collect()
    } else {
        (0..count).map(&f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_override_runs_inline() {
        with_parallelism(Parallelism::Serial, || {
            assert_eq!(effective_threads(), 1);
            let mut v = vec![0u64; 17];
            for_each_indexed(&mut v, 1, |i, x| *x = i as u64 * 3);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
        });
    }

    #[test]
    fn forced_threads_match_serial_results() {
        let serial = with_parallelism(Parallelism::Serial, || {
            map_indexed(103, 1, |i| (i as u64).wrapping_mul(0x9E37_79B9))
        });
        let threaded = with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(3), || {
                map_indexed(103, 1, |i| (i as u64).wrapping_mul(0x9E37_79B9))
            })
        });
        assert_eq!(serial, threaded);
    }

    #[test]
    fn forced_threads_for_each_matches_serial() {
        let run = |p, threshold| {
            with_dispatch_threshold(threshold, || {
                with_parallelism(p, || {
                    let mut v = vec![0u64; 41];
                    for_each_indexed(&mut v, 1, |i, x| *x = (i as u64 + 7).pow(2));
                    v
                })
            })
        };
        assert_eq!(
            run(Parallelism::Serial, u64::MAX),
            run(Parallelism::Threads(4), 0)
        );
    }

    #[test]
    fn override_is_scoped_and_restored() {
        let before = parallelism();
        with_parallelism(Parallelism::Threads(5), || {
            assert_eq!(parallelism(), Parallelism::Threads(5));
            with_parallelism(Parallelism::Serial, || {
                assert_eq!(parallelism(), Parallelism::Serial);
            });
            assert_eq!(parallelism(), Parallelism::Threads(5));
        });
        assert_eq!(parallelism(), before);
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        let mut empty: Vec<u64> = Vec::new();
        for_each_indexed(&mut empty, 1, |_, _| unreachable!());
        assert!(map_indexed(0, 1, |i| i).is_empty());
        assert_eq!(map_indexed(1, 1, |i| i + 1), vec![1]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn threads_mode_reports_requested_width() {
        with_parallelism(Parallelism::Threads(3), || {
            assert_eq!(effective_threads(), 3);
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn threshold_override_is_scoped_and_restored() {
        let outer = LOCAL_THRESHOLD.with(|t| t.get());
        with_dispatch_threshold(42, || {
            assert_eq!(dispatch_threshold(), 42);
            with_dispatch_threshold(7, || assert_eq!(dispatch_threshold(), 7));
            assert_eq!(dispatch_threshold(), 42);
        });
        assert_eq!(LOCAL_THRESHOLD.with(|t| t.get()), outer);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn spawn_rule_is_a_fixed_function_of_work_and_width() {
        let half = (SPAWN_FLOOR_ELEMS / 2) as usize;
        let answers = move || {
            with_parallelism(Parallelism::Threads(2), || {
                (planned_threads(2, half - 1), planned_threads(2, half))
            })
        };
        assert_eq!(answers(), (1, 2));
        let fresh = std::thread::spawn(answers).join().expect("fresh thread");
        assert_eq!(fresh, (1, 2), "a fresh thread must decide alike");
        if rayon::current_num_threads() >= 2 {
            assert_eq!(dispatch_threshold(), SPAWN_FLOOR_ELEMS);
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn grain_guard_runs_small_work_inline() {
        let caller = std::thread::current().id();
        // Work far below the threshold must never leave the caller's
        // thread even when the mode allows three workers.
        with_dispatch_threshold(1 << 20, || {
            with_parallelism(Parallelism::Threads(3), || {
                assert_eq!(planned_threads(4, 1), 1);
                let tids = map_indexed(4, 1, |_| std::thread::current().id());
                assert!(tids.iter().all(|&t| t == caller));
            });
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn threshold_zero_forces_genuine_spawn() {
        let caller = std::thread::current().id();
        with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(2), || {
                assert_eq!(planned_threads(2, 1), 2);
                let tids = map_indexed(2, 1, |_| std::thread::current().id());
                assert!(
                    tids.iter().all(|&t| t != caller),
                    "threshold 0 must dispatch every chunk to a worker"
                );
            });
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn mode_override_propagates_into_workers() {
        // Regression: workers used to start with an empty LOCAL_MODE and
        // silently reverted to the global mode for nested kernel calls.
        with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(2), || {
                let modes = map_indexed(2, 1, |_| parallelism());
                assert!(
                    modes.iter().all(|&m| m == Parallelism::Threads(2)),
                    "workers must observe the caller's with_parallelism pin, got {modes:?}"
                );
            });
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn serial_pin_inside_worker_prevents_nested_spawn() {
        with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(2), || {
                let ok = map_indexed(2, 1, |_| {
                    // A worker pinning Serial must keep nested dispatch
                    // on its own thread even with a zero threshold.
                    with_parallelism(Parallelism::Serial, || {
                        let me = std::thread::current().id();
                        let nested = map_indexed(4, 1, |_| std::thread::current().id());
                        nested.iter().all(|&t| t == me)
                    })
                });
                assert!(ok.iter().all(|&b| b), "nested spawn escaped a Serial pin");
            });
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn ambient_budget_reaches_worker_threads() {
        use crate::budget::{Budget, Progress};
        let b = Budget::with_deadline(Duration::ZERO);
        budget::with_budget(&b, || {
            with_dispatch_threshold(0, || {
                with_parallelism(Parallelism::Threads(2), || {
                    let seen =
                        map_indexed(4, 1, |_| budget::check("worker", Progress::done(0)).is_err());
                    assert!(
                        seen.iter().all(|&stopped| stopped),
                        "every worker must observe the caller's expired budget"
                    );
                });
            });
        });
    }

    #[test]
    fn fan_out_keeps_item_order_and_runs_the_first_item_on_the_caller() {
        let caller = std::thread::current().id();
        let run = |first_on_caller| {
            fan_out(vec![10u64, 20, 30], first_on_caller, &|i, x| {
                (i as u64 + x, std::thread::current().id())
            })
        };
        let shared = run(true);
        let values: Vec<u64> = shared.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, [10, 21, 32]);
        assert_eq!(shared[0].1, caller);
        #[cfg(feature = "parallel")]
        {
            assert!(shared[1..].iter().all(|(_, t)| *t != caller));
            assert!(run(false).iter().all(|(_, t)| *t != caller));
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn fan_out_forwards_the_budget_clock_and_pins() {
        let hour = Duration::from_secs(3600);
        with_limb_delay(hour, || {
            injected_limb_delay();
            let seen = with_parallelism(Parallelism::Threads(4), || {
                fan_out(vec![(); 2], true, &|_, ()| {
                    (budget::charged(), parallelism())
                })
            });
            assert!(
                seen.iter().all(|&s| s == (hour, Parallelism::Threads(4))),
                "{seen:?}"
            );
        });
    }

    #[test]
    fn planned_threads_respects_mode_and_grain() {
        with_parallelism(Parallelism::Serial, || {
            assert_eq!(planned_threads(100, GRAIN_COARSE), 1);
        });
        #[cfg(feature = "parallel")]
        with_dispatch_threshold(0, || {
            with_parallelism(Parallelism::Threads(3), || {
                assert_eq!(planned_threads(5, 1), 3);
                assert_eq!(planned_threads(2, 1), 2);
                assert_eq!(planned_threads(1, GRAIN_COARSE), 1);
            });
        });
        #[cfg(feature = "parallel")]
        with_dispatch_threshold(u64::MAX, || {
            with_parallelism(Parallelism::Threads(3), || {
                assert_eq!(planned_threads(100, GRAIN_COARSE), 1);
            });
        });
    }

    #[test]
    fn grain_helpers_are_sane() {
        assert_eq!(grain_linear(4096), 4096);
        assert_eq!(grain_ntt(4096), 4096 * 12);
        assert_eq!(grain_ntt(0), 0);
    }

    #[test]
    fn limb_delay_is_applied_and_restored() {
        use crate::budget::{Budget, Progress};
        // An hour per scheduling point: sleeping it would hang the test,
        // charging it to the budget clock takes no time.
        let hour = Duration::from_secs(3600);
        let b = Budget::with_deadline(hour + hour / 2);
        let t0 = std::time::Instant::now();
        with_limb_delay(hour, || {
            let mut v = vec![0u64; 3];
            for_each_indexed(&mut v, 1, |i, x| *x = i as u64);
            assert!(b.check("limb", Progress::done(1)).is_ok());
            assert!(b.elapsed() >= hour);
            let _ = map_indexed(2, 1, |i| i);
            let stop = b.check("limb", Progress::done(2)).unwrap_err();
            assert!(stop.elapsed >= 2 * hour);
        });
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "the delay must not sleep"
        );
        assert!(
            LIMB_DELAY.with(|d| d.get()).is_none(),
            "delay must not leak"
        );
        assert!(
            b.check("after", Progress::done(2)).is_ok(),
            "charged time must not leak"
        );
    }
}
