//! Offline stand-in for the `crossbeam` channel API used by this
//! workspace: unbounded and bounded MPMC channels with hang-up
//! detection, built on `Mutex<VecDeque>` + `Condvar`. Semantics match
//! crossbeam where the workspace relies on them:
//!
//! * both `Sender` and `Receiver` are `Clone` (MPMC — replicated
//!   Qworkers pull from one stream);
//! * `send` fails only when every receiver is gone;
//! * `recv`/`iter` block until a message arrives or every sender is
//!   gone and the queue is drained;
//! * on a [`channel::bounded`] channel, `send` blocks while the queue
//!   is at capacity (backpressure) and wakes either when space frees
//!   up or when the last receiver disconnects (then it fails).

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Signalled when a message is consumed (bounded senders wait on
        /// this for space) and when the last receiver disconnects.
        space: Condvar,
        /// `None` = unbounded.
        capacity: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    fn make<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make(None)
    }

    /// Create a bounded MPMC channel holding at most `cap` messages
    /// (at least 1). `send` blocks while the channel is full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        make(Some(cap.max(1)))
    }

    /// Error returned by `send` when all receivers are gone; carries the
    /// unsent message back to the caller.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by `try_send`; carries the unsent message back to
    /// the caller, distinguishing a full bounded queue from a channel
    /// whose receivers are all gone.
    pub enum TrySendError<T> {
        /// The bounded queue is at capacity.
        Full(T),
        /// All receivers have disconnected.
        Disconnected(T),
    }

    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "Full(..)",
                TrySendError::Disconnected(_) => "Disconnected(..)",
            })
        }
    }

    impl<T> std::fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(match self {
                TrySendError::Full(_) => "sending on a full channel",
                TrySendError::Disconnected(_) => "sending on a disconnected channel",
            })
        }
    }

    /// Error returned by `recv` when the channel is drained and closed.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by `try_recv`.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            let mut queue = self.inner.queue.lock().unwrap();
            if let Some(cap) = self.inner.capacity {
                while queue.len() >= cap {
                    if self.inner.receivers.load(Ordering::Acquire) == 0 {
                        return Err(SendError(msg));
                    }
                    queue = self.inner.space.wait(queue).unwrap();
                }
                // All receivers may have hung up while we slept.
                if self.inner.receivers.load(Ordering::Acquire) == 0 {
                    return Err(SendError(msg));
                }
            }
            queue.push_back(msg);
            drop(queue);
            self.inner.ready.notify_one();
            Ok(())
        }

        /// Non-blocking send: fails with [`TrySendError::Full`] instead
        /// of blocking when a bounded queue is at capacity.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            if self.inner.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            let mut queue = self.inner.queue.lock().unwrap();
            if let Some(cap) = self.inner.capacity {
                if queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            queue.push_back(msg);
            drop(queue);
            self.inner.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect.
                let _guard = self.inner.queue.lock().unwrap();
                self.inner.ready.notify_all();
            }
        }
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.inner.queue.lock().unwrap();
            loop {
                if let Some(msg) = queue.pop_front() {
                    drop(queue);
                    self.inner.space.notify_one();
                    return Ok(msg);
                }
                if self.inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                queue = self.inner.ready.wait(queue).unwrap();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.inner.queue.lock().unwrap();
            match queue.pop_front() {
                Some(msg) => {
                    drop(queue);
                    self.inner.space.notify_one();
                    Ok(msg)
                }
                None if self.inner.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking iterator: yields until the channel is closed and empty.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// Non-blocking iterator: yields what is queued right now.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }

        /// Number of queued messages (diagnostic).
        pub fn len(&self) -> usize {
            self.inner.queue.lock().unwrap().len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.inner.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver gone: wake senders blocked on a full
                // bounded queue so they observe the disconnect.
                let _guard = self.inner.queue.lock().unwrap();
                self.inner.space.notify_all();
            }
        }
    }

    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn mpmc_fanout_consumes_each_message_once() {
        let (tx, rx) = unbounded();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            handles.push(std::thread::spawn(move || rx.iter().count()));
        }
        drop(rx);
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn bounded_send_blocks_until_space_frees_up() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..50 {
                tx.send(i).unwrap();
            }
        });
        // The producer can be at most capacity ahead of the consumer; a
        // full drain still sees every message exactly once, in order.
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_send_fails_when_receiver_hangs_up_mid_block() {
        let (tx, rx) = bounded(1);
        tx.send(0).unwrap(); // fill the queue
        let blocked = std::thread::spawn(move || tx.send(1));
        // Give the sender time to block on the full queue, then hang up.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(rx);
        assert!(
            blocked.join().unwrap().is_err(),
            "blocked send must fail once all receivers are gone"
        );
    }

    #[test]
    fn try_send_distinguishes_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        assert!(tx.try_send(0).is_ok());
        assert!(matches!(tx.try_send(1), Err(TrySendError::Full(1))));
        assert_eq!(rx.recv(), Ok(0));
        assert!(tx.try_send(2).is_ok());
        drop(rx);
        assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
        // Unbounded channels are never Full.
        let (utx, urx) = unbounded();
        for i in 0..100 {
            assert!(utx.try_send(i).is_ok());
        }
        assert_eq!(urx.len(), 100);
    }

    #[test]
    fn bounded_never_exceeds_capacity() {
        let (tx, rx) = bounded(3);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.recv(), Ok(0));
        tx.send(3).unwrap();
        assert_eq!(rx.len(), 3);
    }
}
