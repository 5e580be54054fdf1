//! The benchmark's unsafe corner: two C library calls `std` does not
//! expose, `setsockopt(TCP_QUICKACK)` and glibc's `malloc_trim`.
//!
//! The daemon does not set `TCP_NODELAY` on its connections, so with the
//! kernel's delayed acknowledgements a reply can sit in the daemon's
//! socket until the client's next request carries the acknowledgement
//! for the previous one: on a pipelining client, replies then take about
//! one inter-arrival gap, and whether they do changes from connection to
//! connection. The load generator acknowledges every read at once, so the
//! latencies it reports are the daemon's own work.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_void};
use std::net::TcpStream;
use std::os::fd::AsRawFd;

const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// Returns the heap memory the allocator keeps after frees to the kernel,
/// so a peak resident set measured from here covers what the measured
/// work allocates, not what earlier work left cached in the allocator
/// (without it the per-pass peak of `suite_batch` grew pass after pass).
pub fn trim_heap() {
    // SAFETY: `malloc_trim` takes no pointers and is safe to call at any
    // time; its return value only says whether memory was released.
    unsafe {
        malloc_trim(0);
    }
}

/// Asks the kernel to acknowledge received data immediately (Linux
/// leaves quick-ack mode on its own, so call it after every read).
/// Best effort: a failure only brings delayed acknowledgements back.
pub fn quick_ack(stream: &TcpStream) {
    let on: c_int = 1;
    // SAFETY: the descriptor is open for as long as `stream` is borrowed,
    // and the option value points at a live `c_int` whose size is passed
    // as the length.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        );
    }
}
