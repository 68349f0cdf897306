//! Asymmetric fences for hazard publication (the light/heavy pair of
//! Dice et al.'s asymmetric Dekker, as in folly's hazard pointers).
//!
//! A hazard-pointer reader must order its hazard store before the load that
//! validates it; a reclaimer must order its unlink before the loads of its
//! scan.  The readers' side runs once per hop, the reclaimer's once per
//! `scan_threshold` retires, so the hardware barrier moves to the reclaimer:
//!
//! * [`light`] (reader, per publication) is a compiler fence: it stops the
//!   compiler from sinking the hazard store below the validating re-read,
//!   but issues no instruction.
//! * [`heavy`] (reclaimer, per scan) is `membarrier(PRIVATE_EXPEDITED)`: the
//!   kernel runs a full memory barrier on every CPU currently running a
//!   thread of this process before the call returns.
//!
//! Under `cfg(miri)`, off linux x86_64, or where the kernel refuses
//! registration (`ENOSYS`, or `EPERM` under a seccomp filter) both sides are
//! `fence(SeqCst)`: the symmetric pair, with the classic argument.  The mode
//! is decided once per process by [`asymmetric`].

use std::sync::atomic::{compiler_fence, fence, Ordering};
use std::sync::OnceLock;

/// `membarrier` commands (`linux/membarrier.h`).
mod cmd {
    pub const QUERY: usize = 0;
    pub const PRIVATE_EXPEDITED: usize = 1 << 3;
    pub const REGISTER_PRIVATE_EXPEDITED: usize = 1 << 4;
}

/// True when this process uses the asymmetric pair.  The first call
/// registers the process for private expedited membarrier; every later call
/// returns the cached outcome.
pub(crate) fn asymmetric() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| supported() && sys::membarrier(cmd::REGISTER_PRIVATE_EXPEDITED) == Some(0))
}

/// True when the kernel advertises private expedited membarrier.
fn supported() -> bool {
    sys::membarrier(cmd::QUERY).is_some_and(|mask| mask & cmd::PRIVATE_EXPEDITED != 0)
}

/// The reader's half: orders a preceding hazard store before a following
/// validating load, given that reclaimers run [`heavy`] with the same mode.
#[inline(always)]
pub(crate) fn light(asymmetric: bool) {
    if asymmetric {
        compiler_fence(Ordering::SeqCst);
    } else {
        fence(Ordering::SeqCst);
    }
}

/// The reclaimer's half: once it returns, every hazard store some reader
/// ordered with [`light`] before its validating load is visible to this
/// thread, or that validating load observes this thread's prior unlink.
pub(crate) fn heavy(asymmetric: bool) {
    if asymmetric {
        // Registration succeeded, so the command cannot fail; a failure
        // would leave readers unfenced and every free unsound.
        assert_eq!(
            sys::membarrier(cmd::PRIVATE_EXPEDITED),
            Some(0),
            "membarrier(PRIVATE_EXPEDITED) failed after registration"
        );
    } else {
        fence(Ordering::SeqCst);
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod sys {
    const SYS_MEMBARRIER: usize = 324;

    /// `membarrier(cmd, 0, 0)`; `None` when the kernel returns an error.
    pub fn membarrier(cmd: usize) -> Option<usize> {
        let ret: isize;
        // SAFETY: `membarrier` reads and writes no user memory; the asm
        // follows the x86_64 syscall ABI (number and result in rax,
        // arguments in rdi/rsi/rdx, rcx and r11 clobbered) and uses no
        // stack.  It is not `nomem`: the call is a barrier, so the compiler
        // must not move memory accesses across it.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER as isize => ret,
                in("rdi") cmd,
                in("rsi") 0usize,
                in("rdx") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        usize::try_from(ret).ok()
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod sys {
    /// No `membarrier` here: every query fails and the symmetric pair runs.
    pub fn membarrier(_cmd: usize) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    #[test]
    fn mode_agrees_with_query_mask() {
        // A kernel that advertises the command but refuses registration
        // would fall back; report it rather than silently test only the
        // symmetric pair.
        let supported = supported();
        assert_eq!(
            asymmetric(),
            supported,
            "membarrier advertises PRIVATE_EXPEDITED={supported}, but the resolved mode differs"
        );
    }

    #[test]
    fn heavy_repeats_while_a_peer_spins() {
        let mode = asymmetric();
        let stop = AtomicBool::new(false);
        let spins = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    spins.fetch_add(1, Ordering::Relaxed);
                    light(mode);
                }
            });
            while spins.load(Ordering::Relaxed) == 0 {
                std::hint::spin_loop();
            }
            for _ in 0..1000 {
                heavy(mode);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn symmetric_pair_is_callable() {
        light(false);
        heavy(false);
    }
}
