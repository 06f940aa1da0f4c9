//! Idle-priority spinners that keep every CPU busy while `serve-mix`
//! runs.
//!
//! A guest with no cpuidle driver halts an idle vCPU, and the host
//! scheduler decides when it runs again. On a shared host that wake-up
//! wait varies from run to run by more than a served job's whole latency,
//! and a server at low load wakes a halted vCPU for nearly every job. One
//! spinner per CPU at `SCHED_IDLE` keeps the vCPUs from halting, the
//! effect of booting with `idle=poll`: any runnable thread of the server
//! or the client preempts a spinner at once, so it takes no CPU time they
//! want.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// The name each spinner thread carries, so its CPU time can be told
/// apart from the client's (see [`crate::procfs::threads_cpu_seconds`]).
pub const THREAD_NAME: &str = "idle-spin";

/// `SCHED_IDLE` from `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

/// `struct sched_param` from `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`.
fn set_idle_policy() -> Result<(), String> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid, initialised `struct sched_param` that
    // outlives the call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setscheduler(SCHED_IDLE): {}", std::io::Error::last_os_error()))
    }
}

/// Running spinners; dropping them stops and joins every one.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// One spinner per CPU this process may run on. Fails, with every
    /// spinner already started stopped again, if a thread cannot lower
    /// its priority: a spinner at normal priority would take CPU time
    /// from the server.
    pub fn start() -> Result<Spinners, String> {
        let cpus = thread::available_parallelism().map_or(1, usize::from);
        let mut spinners = Spinners { stop: Arc::new(AtomicBool::new(false)), threads: Vec::new() };
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        for _ in 0..cpus {
            let (stop, ready) = (spinners.stop.clone(), ready_tx.clone());
            let handle = thread::Builder::new()
                .name(THREAD_NAME.into())
                .spawn(move || {
                    let policy = set_idle_policy();
                    let ok = policy.is_ok();
                    let _ = ready.send(policy);
                    // Relaxed: the flag publishes no other data.
                    while ok && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
                .map_err(|e| format!("spawn {THREAD_NAME}: {e}"))?;
            spinners.threads.push(handle);
        }
        drop(ready_tx);
        for _ in 0..cpus {
            ready_rx.recv().map_err(|_| format!("a {THREAD_NAME} thread exited early"))??;
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
