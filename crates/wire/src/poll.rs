//! A minimal `poll(2)` binding: the one system call the serving loop
//! needs to sleep until a socket is ready, a [`Waker`](crate::Waker)
//! rings, or a timeout ends.
//!
//! The workspace builds offline without `libc`, so the call is declared
//! here by hand. This is the only module of `oddci-wire` allowed
//! `unsafe` code, and it holds exactly one `unsafe` block.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable, or a connection waiting on a listener.
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// One entry of the array `poll(2)` waits on (`struct pollfd`).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    /// Written by the kernel. The serving loop retries every socket after
    /// a wake (non-blocking calls are cheap), so it never reads this.
    #[allow(dead_code)]
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type NFds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NFds = std::ffi::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes, and returns
/// how many are ready. A timeout, or a signal that interrupts the wait,
/// returns 0. The timeout rounds up to whole milliseconds, so a short
/// deadline never turns into a busy spin.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd` structs, valid for `fds.len()` elements for the whole call;
    // the kernel reads `fd`/`events` and writes only `revents` within it.
    // A stale or closed descriptor is reported as POLLNVAL, not UB.
    let n = unsafe { sys_poll(fds.as_mut_ptr(), fds.len() as NFds, ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return match e.kind() {
            io::ErrorKind::Interrupted => Ok(0),
            _ => Err(e),
        };
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_on_an_idle_socket_and_wakes_on_a_readable_one() {
        let (mut a, b) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let t = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_millis(20)).expect("poll"), 0);
        assert!(
            t.elapsed() >= Duration::from_millis(15),
            "waited out the timeout"
        );
        a.write_all(&[1]).expect("write");
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).expect("poll"), 1);
    }

    #[test]
    fn a_connected_socket_is_writable_at_once() {
        let (a, _b) = UnixStream::pair().expect("socket pair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        assert_eq!(wait(&mut fds, Duration::from_secs(5)).expect("poll"), 1);
    }
}
