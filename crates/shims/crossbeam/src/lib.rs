//! Hermetic shim of the `crossbeam::channel` API subset this workspace
//! uses: [`channel::bounded`] MPMC channels with blocking `send`/`recv`,
//! non-blocking `try_send`/`try_recv`, `recv_timeout`, and crossbeam's
//! disconnection semantics (a `recv` on an empty channel whose senders
//! are all dropped returns `Err`).
//!
//! Built on `std::sync::{Mutex, Condvar}`, so slower than real
//! crossbeam: every operation takes the lock, and every wake-up is a
//! system call and usually a context switch, where crossbeam spins
//! briefly before it parks.  Batched payloads amortize the lock, and the
//! wake policy below keeps the wake-ups few.
//!
//! **Wake policy.**  The channel counts, under its mutex, the senders
//! blocked on a full queue and the receivers blocked on an empty one,
//! and signals a condition variable only when that count is non-zero:
//!
//! * a push wakes one blocked receiver;
//! * a pop (`recv`, `recv_timeout`, `try_recv`) releases the blocked
//!   senders only once the queue has drained to `cap / 2`.  A producer
//!   that filled a shallow queue then refills half of it per wake-up,
//!   instead of being woken (and switched to) once per item.  A release
//!   wakes every blocked sender, and a sender that wakes before one
//!   (spuriously) goes back to waiting.
//!
//! The progress guarantees are crossbeam's, save the half-drain delay:
//! `send` returns as soon as there is room unless it is already blocked,
//! a blocked sender resumes by the time its queue has drained to half,
//! and a blocked receiver resumes on the first push.  Disconnection
//! wakes every blocked thread on the other side.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Senders waiting on `not_full` and not yet released.
        blocked_senders: usize,
        /// Receivers waiting on `not_empty`.
        blocked_receivers: usize,
        /// Sender releases so far; a blocked sender waits for this to
        /// move past the value it blocked at.
        releases: u64,
    }

    struct Inner<T> {
        cap: usize,
        state: Mutex<State<T>>,
        /// Signaled by a push while a receiver is blocked, and when all
        /// senders drop.
        not_empty: Condvar,
        /// Signaled by a pop that leaves the queue at most half full
        /// while a sender is blocked, and when all receivers drop.
        not_full: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state
                .lock()
                .expect("channel mutex poisoned by a panicking thread")
        }

        /// Pop the front item of a non-empty queue; release the blocked
        /// senders once the queue has drained to half.
        fn pop(&self, mut st: MutexGuard<'_, State<T>>) -> T {
            let v = st.queue.pop_front().expect("pop on a non-empty queue");
            let release = st.blocked_senders > 0 && st.queue.len() <= self.cap / 2;
            if release {
                st.blocked_senders = 0;
                st.releases = st.releases.wrapping_add(1);
            }
            drop(st);
            if release {
                self.not_full.notify_all();
            }
            v
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent value like upstream.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]; carries the unsent value
    /// like upstream.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The queue is at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when empty and disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time (channel still connected).
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Sending half (cloneable).
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half (cloneable).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Create a bounded MPMC channel of capacity `cap` (≥ 1).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            cap: cap.max(1),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                blocked_senders: 0,
                blocked_receivers: 0,
                releases: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue; `Err` if every
        /// receiver has been dropped.  Once blocked, a sender waits for
        /// the queue to drain to half before it tries again.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let inner = &*self.inner;
            let mut st = inner.lock();
            // `releases` when this sender last blocked.
            let mut blocked_at = None;
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if blocked_at != Some(st.releases) {
                    if st.queue.len() < inner.cap {
                        st.queue.push_back(value);
                        let wake = st.blocked_receivers > 0;
                        drop(st);
                        if wake {
                            inner.not_empty.notify_one();
                        }
                        return Ok(());
                    }
                    blocked_at = Some(st.releases);
                    st.blocked_senders += 1;
                }
                st = inner.not_full.wait(st).expect("channel mutex poisoned");
            }
        }

        /// Enqueue if there is room, without blocking.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = &*self.inner;
            let mut st = inner.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if st.queue.len() >= inner.cap {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            let wake = st.blocked_receivers > 0;
            drop(st);
            if wake {
                inner.not_empty.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Block until an item arrives; `Err` once empty with all
        /// senders dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let inner = &*self.inner;
            let mut st = inner.lock();
            loop {
                if !st.queue.is_empty() {
                    return Ok(inner.pop(st));
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.blocked_receivers += 1;
                st = inner.not_empty.wait(st).expect("channel mutex poisoned");
                st.blocked_receivers -= 1;
            }
        }

        /// Like [`recv`](Self::recv) with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let inner = &*self.inner;
            let mut st = inner.lock();
            loop {
                if !st.queue.is_empty() {
                    return Ok(inner.pop(st));
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.blocked_receivers += 1;
                let (guard, _) = inner
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .expect("channel mutex poisoned");
                st = guard;
                st.blocked_receivers -= 1;
            }
        }

        /// Non-blocking receive (`Err(Timeout)` when empty,
        /// `Err(Disconnected)` when empty with all senders dropped).
        pub fn try_recv(&self) -> Result<T, RecvTimeoutError> {
            let inner = &*self.inner;
            let st = inner.lock();
            if !st.queue.is_empty() {
                return Ok(inner.pop(st));
            }
            if st.senders == 0 {
                Err(RecvTimeoutError::Disconnected)
            } else {
                Err(RecvTimeoutError::Timeout)
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.inner.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn fifo_order_single_thread() {
            let (tx, rx) = bounded(8);
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let got: Vec<i32> = std::iter::from_fn(|| rx.recv().ok()).collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (tx, rx) = bounded::<u8>(2);
            let tx2 = tx.clone();
            drop(tx);
            tx2.send(9).unwrap();
            drop(tx2);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn bounded_send_blocks_until_recv() {
            let (tx, rx) = bounded(1);
            tx.send(1u32).unwrap();
            let h = thread::spawn(move || {
                tx.send(2).unwrap(); // Must block until the main thread recvs.
                tx.send(3).unwrap();
            });
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
            h.join().unwrap();
        }

        #[test]
        fn try_send_never_blocks() {
            let (tx, rx) = bounded(1);
            assert_eq!(tx.try_send(1u8), Ok(()));
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(tx.try_send(3), Ok(()));
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
        }

        #[test]
        fn send_fails_when_receiver_gone() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert_eq!(tx.send(5u8), Err(SendError(5)));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = bounded(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            let h = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                tx.send(7u8).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
            h.join().unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        /// Spin until `n` senders are blocked on `rx`'s channel.  The
        /// sender counts itself under the lock before it waits, so no
        /// sleep decides anything here.
        fn wait_blocked<T>(rx: &Receiver<T>, n: usize) {
            while rx.inner.lock().blocked_senders < n {
                thread::yield_now();
            }
        }

        /// A sender blocked on a full `bounded(8)` stays blocked through
        /// three pops and resumes after the fourth, whichever way `pop`
        /// receives.
        fn blocked_sender_resumes_at_half(pop: fn(&Receiver<u32>) -> Option<u32>) {
            let (tx, rx) = bounded(8);
            for i in 0..8 {
                tx.send(i).unwrap();
            }
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let h = thread::spawn(move || {
                tx.send(8).unwrap();
                done_tx.send(()).unwrap();
            });
            wait_blocked(&rx, 1);
            let releases = rx.inner.lock().releases;
            for i in 0..3 {
                assert_eq!(pop(&rx), Some(i));
                let st = rx.inner.lock();
                let seen = (st.blocked_senders, st.releases, st.queue.len());
                drop(st);
                // Not released, so its item cannot have been queued.
                assert_eq!(seen, (1, releases, 7 - i as usize));
                assert!(done_rx.try_recv().is_err());
            }
            assert_eq!(pop(&rx), Some(3));
            done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the blocked sender resumes once 4 of 8 are popped");
            h.join().unwrap();
            let rest: Vec<u32> = std::iter::from_fn(|| pop(&rx)).collect();
            assert_eq!(rest, vec![4, 5, 6, 7, 8]);
        }

        #[test]
        fn recv_releases_blocked_sender_at_half() {
            blocked_sender_resumes_at_half(|rx| rx.recv().ok());
        }

        #[test]
        fn recv_timeout_releases_blocked_sender_at_half() {
            blocked_sender_resumes_at_half(|rx| rx.recv_timeout(Duration::from_secs(30)).ok());
        }

        #[test]
        fn try_recv_releases_blocked_sender_at_half() {
            blocked_sender_resumes_at_half(|rx| rx.try_recv().ok());
        }

        /// Every item arrives and every thread ends, for 2–4 senders and
        /// receivers at capacities 1–4, with receivers on all three
        /// receive calls.  A lost wake-up would hang a thread; the run is
        /// joined with a timeout so that shows as a failure.
        #[test]
        fn stress_loses_no_wakeup() {
            const PER_SENDER: u64 = 500;
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let run = thread::spawn(move || {
                for senders in 2..=4u64 {
                    for receivers in 2..=4usize {
                        for cap in 1..=4 {
                            let (tx, rx) = bounded(cap);
                            let producers: Vec<_> = (0..senders)
                                .map(|s| {
                                    let tx = tx.clone();
                                    thread::spawn(move || {
                                        for i in 0..PER_SENDER {
                                            tx.send(s * PER_SENDER + i).unwrap();
                                        }
                                    })
                                })
                                .collect();
                            drop(tx);
                            let consumers: Vec<_> = (0..receivers)
                                .map(|r| {
                                    let rx = rx.clone();
                                    thread::spawn(move || {
                                        let mut got = Vec::new();
                                        loop {
                                            let next = match r % 3 {
                                                0 => rx
                                                    .recv()
                                                    .map_err(|_| RecvTimeoutError::Disconnected),
                                                1 => rx.recv_timeout(Duration::from_millis(1)),
                                                _ => rx.try_recv(),
                                            };
                                            match next {
                                                Ok(v) => got.push(v),
                                                Err(RecvTimeoutError::Timeout) => {
                                                    thread::yield_now()
                                                }
                                                Err(RecvTimeoutError::Disconnected) => break got,
                                            }
                                        }
                                    })
                                })
                                .collect();
                            drop(rx);
                            for p in producers {
                                p.join().unwrap();
                            }
                            let mut all: Vec<u64> = consumers
                                .into_iter()
                                .flat_map(|c| c.join().unwrap())
                                .collect();
                            all.sort_unstable();
                            assert!(
                                all.iter().copied().eq(0..senders * PER_SENDER),
                                "{senders} senders, {receivers} receivers, cap {cap}"
                            );
                        }
                    }
                }
                done_tx.send(()).unwrap();
            });
            done_rx
                .recv_timeout(Duration::from_secs(120))
                .expect("every sender and receiver finished: no lost wake-up");
            run.join().unwrap();
        }
    }
}
