//! Cross-thread wakeups for a [`WireServer`](crate::WireServer)'s serving
//! loop.
//!
//! The loop sleeps in `poll(2)` on its sockets plus the read end of a
//! socket pair. A thread that hands the loop work over a channel (a
//! dispatch worker's task batch, a shard's heartbeat reply, a carousel
//! broadcast) sends first and then calls [`Waker::wake`], which writes one
//! byte to the pair and so ends the wait at once.
//!
//! An armed flag coalesces wakes: only the wake that arms it writes, so
//! at most one byte is ever in flight however many replies land. The
//! loop's half of the protocol is order-sensitive. It drains the pair,
//! disarms, and only then drains its reply channels. A loop that drained
//! first and disarmed after could miss a reply sent in between: that
//! reply's wake found the flag still armed and wrote nothing, so the loop
//! would sleep on a reply that is already waiting. The `serve-wake` and
//! `serve-wake-lost` model-checker scenarios pin both orders.

use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable handle that interrupts a serving loop's readiness wait.
/// Cheap to clone; every clone rings the same loop.
#[derive(Debug, Clone)]
pub struct Waker {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    armed: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// A fresh waker, not yet armed. Pass it to
    /// [`WireServer::bind`](crate::WireServer::bind) and keep clones
    /// wherever the loop's work is produced.
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            inner: Arc::new(Inner {
                armed: AtomicBool::new(false),
                tx,
                rx,
            }),
        })
    }

    /// Wakes the loop. Call it *after* publishing the work the loop
    /// should pick up. A wake while one is already pending costs one
    /// atomic swap and no system call.
    pub fn wake(&self) {
        // Release pairs with the Acquire of the loop's disarming swap in
        // `reset`: whatever the caller queued before waking is visible to
        // the loop once it disarms, even when this wake wrote no byte.
        if !self.inner.armed.swap(true, Ordering::AcqRel) {
            // At most one byte is in flight (the flag coalesces), so the
            // pair's buffer cannot be full; a failed write can only mean
            // the loop's end is gone, and then nobody needs waking.
            let _ = (&self.inner.tx).write(&[1]);
        }
    }

    /// The descriptor the loop polls for readability.
    pub(crate) fn fd(&self) -> RawFd {
        self.inner.rx.as_raw_fd()
    }

    /// Consumes pending wakes: drains the pair, then disarms. The loop
    /// calls this at the top of every pass, *before* it drains its reply
    /// channels — see the module docs for why the order matters.
    pub(crate) fn reset(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.inner.rx).read(&mut buf) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Empty (WouldBlock), or the pair is gone: nothing left.
                _ => break,
            }
        }
        self.inner.armed.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{wait, PollFd, POLLIN};
    use std::time::Duration;

    fn readable(w: &Waker) -> bool {
        let mut fds = [PollFd::new(w.fd(), POLLIN)];
        wait(&mut fds, Duration::ZERO).expect("poll") == 1
    }

    #[test]
    fn wakes_coalesce_until_reset() {
        let w = Waker::new().expect("waker");
        assert!(!readable(&w));
        w.wake();
        w.clone().wake();
        assert!(readable(&w));
        w.reset();
        assert!(!readable(&w), "reset drains every pending byte");
        w.wake();
        assert!(readable(&w), "a wake after reset arms again");
    }
}
