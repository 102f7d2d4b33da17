//! Cross-request coalescing scheduler.
//!
//! Concurrent `/v1/eval` requests against the same model are funneled
//! into a per-model queue; a dedicated worker drains the queue and hands
//! *batches* of requests to the backend in one call. The backend (the
//! root crate) concatenates the fixed-shape padded environment tables of
//! §5.2.1 so the whole batch runs through the tall-GEMM pipeline as a
//! single evaluation — each request's answer is bit-identical to what a
//! serial evaluation would have produced (see `deepmd_core::batch` for
//! the proof and its test).
//!
//! The queue is bounded: once `max_depth` requests are waiting, further
//! submissions fail fast with [`SubmitError::QueueFull`] and the HTTP
//! layer answers 429, which is the backpressure contract.
//!
//! The worker is work-conserving: it sleeps only while the queue is
//! empty, and on waking takes `min(pending, max_batch)` at once. A batch
//! is therefore whatever queued while the previous one ran — requests
//! coalesce exactly when they would otherwise have waited, and a request
//! never waits on a timer for peers that may not come. A caller that
//! cannot start its next step before this answer (an MD driver) pays no
//! idle time for the batching.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Executes one batch of requests. Implementations group by whatever the
/// request encodes (e.g. precision) and may split a batch internally;
/// they must return exactly one response per request, in order.
pub trait BatchBackend: Send + Sync + 'static {
    type Req: Send + 'static;
    type Resp: Send + 'static;

    fn run_batch(&self, requests: Vec<Self::Req>) -> Vec<Self::Resp>;
}

/// Tuning knobs for the scheduler.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Most requests coalesced into one backend call.
    pub max_batch: usize,
    /// Most requests waiting in the queue; beyond this, submissions are
    /// rejected (429).
    pub max_depth: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_depth: 256,
        }
    }
}

/// Why a submission was not enqueued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at `max_depth`; the caller should answer 429.
    QueueFull,
    /// The request carried a deadline shorter than the queue wait the
    /// recent batch-wait histogram predicts; admitting it would only burn
    /// a batch slot on an answer the client has already given up on. The
    /// estimate is returned so the caller can put it in the error body.
    DeadlineExceeded {
        /// Predicted queue wait at admission time, microseconds.
        estimated_wait_us: u64,
    },
    /// The batcher is draining for shutdown.
    ShuttingDown,
}

struct Ticket<B: BatchBackend> {
    request: B::Req,
    reply: mpsc::Sender<B::Resp>,
    enqueued: Instant,
}

struct Shared<B: BatchBackend> {
    queue: Mutex<QueueState<B>>,
    arrived: Condvar,
    backend: B,
    opts: BatchOptions,
}

struct QueueState<B: BatchBackend> {
    pending: VecDeque<Ticket<B>>,
    draining: bool,
}

/// The coalescing scheduler: submit requests from any thread, its one
/// worker evaluates them in batches.
pub struct Batcher<B: BatchBackend> {
    shared: Arc<Shared<B>>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl<B: BatchBackend> Batcher<B> {
    pub fn new(backend: B, opts: BatchOptions) -> Self {
        assert!(opts.max_batch >= 1, "max_batch must be at least 1");
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                pending: VecDeque::new(),
                draining: false,
            }),
            arrived: Condvar::new(),
            backend,
            opts,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dp-batch".into())
                .spawn(move || worker_loop(&shared))
                .expect("spawn batch worker")
        };
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// Enqueue a request and block until its response is ready.
    ///
    /// Returns `QueueFull` immediately when the queue is at `max_depth`
    /// — the caller maps that to 429 without ever blocking, which is
    /// what keeps an overloaded daemon responsive.
    pub fn submit(&self, request: B::Req) -> Result<B::Resp, SubmitError> {
        self.submit_with_deadline(request, None)
    }

    /// [`submit`](Self::submit) with deadline-aware admission: when the
    /// caller has `deadline` left, the request is bounced up front with
    /// [`SubmitError::DeadlineExceeded`] if the queue is non-empty and
    /// the recent batch-wait histogram (`serve.eval.wait_us`, p90)
    /// predicts a longer wait than the deadline allows. An empty queue
    /// always admits — the request then waits at most for the batch in
    /// flight — and so does an empty histogram (no evidence beats no
    /// admission).
    pub fn submit_with_deadline(
        &self,
        request: B::Req,
        deadline: Option<Duration>,
    ) -> Result<B::Resp, SubmitError> {
        let (reply, inbox) = mpsc::channel();
        {
            let mut q = self.shared.queue.lock().unwrap();
            if q.draining {
                return Err(SubmitError::ShuttingDown);
            }
            if q.pending.len() >= self.shared.opts.max_depth {
                dp_obs::counter(dp_obs::serve::EVAL_REJECTED).add(1);
                return Err(SubmitError::QueueFull);
            }
            if let Some(d) = deadline {
                if !q.pending.is_empty() {
                    let snap = dp_obs::hist::global(dp_obs::serve::EVAL_WAIT_US).snapshot();
                    if snap.count > 0 {
                        let estimated_wait_us = snap.quantile(0.9);
                        if Duration::from_micros(estimated_wait_us) > d {
                            dp_obs::counter(dp_obs::serve::EVAL_DEADLINE_REJECTED).add(1);
                            return Err(SubmitError::DeadlineExceeded { estimated_wait_us });
                        }
                    }
                }
            }
            q.pending.push_back(Ticket {
                request,
                reply,
                enqueued: Instant::now(),
            });
            self.shared.arrived.notify_one();
        }
        // A dropped sender (worker panic) surfaces as ShuttingDown rather
        // than a poisoned wait.
        inbox.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Current queue depth (for /metrics and tests).
    pub fn depth(&self) -> usize {
        self.shared.queue.lock().unwrap().pending.len()
    }

    /// Stop accepting work, evaluate everything already queued, and join
    /// the worker: what dropping the batcher does, made explicit.
    pub fn drain(self) {
        drop(self);
    }

    fn begin_drain(&self) {
        let mut q = self.shared.queue.lock().unwrap();
        q.draining = true;
        self.shared.arrived.notify_all();
    }
}

impl<B: BatchBackend> Drop for Batcher<B> {
    fn drop(&mut self) {
        self.begin_drain();
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

fn worker_loop<B: BatchBackend>(shared: &Shared<B>) {
    loop {
        let batch = {
            let mut q = shared.queue.lock().unwrap();
            // Sleep only while nothing waits (or until the drain signal),
            // then take what queued while the last batch ran.
            while q.pending.is_empty() {
                if q.draining {
                    return;
                }
                q = shared.arrived.wait(q).unwrap();
            }
            let take = q.pending.len().min(shared.opts.max_batch);
            q.pending.drain(..take).collect::<Vec<_>>()
        };

        let now = Instant::now();
        for t in &batch {
            dp_obs::hist::global(dp_obs::serve::EVAL_WAIT_US)
                .record(now.duration_since(t.enqueued).as_micros() as u64);
        }
        dp_obs::counter(dp_obs::serve::EVAL_BATCHES).add(1);
        dp_obs::counter(dp_obs::serve::EVAL_BATCHED_REQUESTS).add(batch.len() as u64);
        if batch.len() >= 2 {
            dp_obs::counter(dp_obs::serve::EVAL_COALESCED).add(1);
        }
        dp_obs::hist::global(dp_obs::serve::EVAL_BATCH_SIZE).record(batch.len() as u64);

        let (requests, replies): (Vec<_>, Vec<_>) =
            batch.into_iter().map(|t| (t.request, t.reply)).unzip();
        let responses = shared.backend.run_batch(requests);
        assert_eq!(
            responses.len(),
            replies.len(),
            "backend must answer every request in the batch"
        );
        for (resp, reply) in responses.into_iter().zip(replies) {
            // A receiver gone away just means the client disconnected.
            let _ = reply.send(resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Backend that tags every response with the batch it ran in, so
    /// tests can observe coalescing directly.
    struct Recorder {
        batches: AtomicUsize,
        delay: Duration,
        /// When set, the first batch holds the worker until it is opened.
        gate: Mutex<Option<Gate>>,
    }

    struct Gate {
        entered: mpsc::Sender<()>,
        open: mpsc::Receiver<()>,
    }

    impl BatchBackend for Recorder {
        type Req = u64;
        type Resp = (u64, usize, usize); // (input doubled, batch seq, batch size)

        fn run_batch(&self, requests: Vec<u64>) -> Vec<Self::Resp> {
            let seq = self.batches.fetch_add(1, Ordering::SeqCst);
            let gate = self.gate.lock().unwrap().take();
            if let Some(gate) = gate {
                gate.entered.send(()).unwrap();
                gate.open.recv().unwrap();
            }
            std::thread::sleep(self.delay);
            let size = requests.len();
            requests.into_iter().map(|r| (r * 2, seq, size)).collect()
        }
    }

    fn recorder(delay_ms: u64) -> Recorder {
        Recorder {
            batches: AtomicUsize::new(0),
            delay: Duration::from_millis(delay_ms),
            gate: Mutex::new(None),
        }
    }

    #[test]
    fn concurrent_submissions_coalesce_into_one_batch() {
        let (entered_tx, entered) = mpsc::channel();
        let (open, open_rx) = mpsc::channel();
        let backend = Recorder {
            gate: Mutex::new(Some(Gate {
                entered: entered_tx,
                open: open_rx,
            })),
            ..recorder(0)
        };
        let batcher = Arc::new(Batcher::new(
            backend,
            BatchOptions {
                max_batch: 16,
                max_depth: 64,
            },
        ));
        // A first request holds the worker inside its batch…
        let b = Arc::clone(&batcher);
        let first = std::thread::spawn(move || b.submit(100).unwrap());
        entered.recv().unwrap();
        // …while eight more queue behind it…
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(i).unwrap())
            })
            .collect();
        while batcher.depth() < 8 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // …and the worker, once free, takes all eight as one batch.
        open.send(()).unwrap();
        assert_eq!(first.join().unwrap(), (200, 0, 1));
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, ((i as u64) * 2, 1, 8), "{results:?}");
        }
    }

    #[test]
    fn batches_never_exceed_max_batch() {
        let batcher = Arc::new(Batcher::new(
            recorder(0),
            BatchOptions {
                max_batch: 3,
                max_depth: 64,
            },
        ));
        let handles: Vec<_> = (0..9u64)
            .map(|i| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(i).unwrap())
            })
            .collect();
        for h in handles {
            let (_, _, size) = h.join().unwrap();
            assert!(size <= 3, "batch of {size} exceeds max_batch=3");
        }
    }

    #[test]
    fn full_queue_rejects_with_queue_full() {
        // One slow worker, queue depth 2: the third concurrent submit
        // must bounce while the first occupies the worker.
        let batcher = Arc::new(Batcher::new(
            recorder(300),
            BatchOptions {
                max_batch: 1,
                max_depth: 2,
            },
        ));
        // Occupy the worker…
        let b0 = Arc::clone(&batcher);
        let first = std::thread::spawn(move || b0.submit(1).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        // …fill the queue…
        let fillers: Vec<_> = (0..2u64)
            .map(|i| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(10 + i))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(batcher.depth(), 2);
        // …and watch the next submission bounce immediately.
        let t = Instant::now();
        assert_eq!(batcher.submit(99), Err(SubmitError::QueueFull));
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "backpressure must not block"
        );
        first.join().unwrap();
        for f in fillers {
            f.join().unwrap().unwrap();
        }
    }

    #[test]
    fn deadline_admission_rejects_predicted_long_waits() {
        // Flood the global wait histogram so its p90 stays ~60 s no
        // matter what the other (concurrently running) batch tests
        // record into it.
        let h = dp_obs::hist::global(dp_obs::serve::EVAL_WAIT_US);
        for _ in 0..4096 {
            h.record(60_000_000);
        }
        let batcher = Arc::new(Batcher::new(
            recorder(200),
            BatchOptions {
                max_batch: 1,
                max_depth: 8,
            },
        ));
        // Empty queue admits regardless of the histogram — the idle
        // worker starts the request at once.
        let b0 = Arc::clone(&batcher);
        let first = std::thread::spawn(move || {
            b0.submit_with_deadline(1, Some(Duration::from_millis(1)))
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(50));
        // The worker is busy with request 1; park one more to make the
        // queue non-empty…
        let b1 = Arc::clone(&batcher);
        let second = std::thread::spawn(move || b1.submit(2).unwrap());
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(batcher.depth(), 1);
        // …and a 1 ms deadline against a ~60 s predicted wait bounces
        // immediately, with the estimate attached.
        let t = Instant::now();
        match batcher.submit_with_deadline(3, Some(Duration::from_millis(1))) {
            Err(SubmitError::DeadlineExceeded { estimated_wait_us }) => {
                assert!(estimated_wait_us > 1_000, "estimate {estimated_wait_us}us");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "deadline rejection must not block"
        );
        // A deadline longer than the prediction is admitted normally.
        let (doubled, _, _) = batcher
            .submit_with_deadline(4, Some(Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(doubled, 8);
        assert_eq!(first.join().unwrap().0, 2);
        assert_eq!(second.join().unwrap().0, 4);
    }

    #[test]
    fn drain_finishes_queued_work_then_rejects() {
        let batcher = Batcher::new(
            recorder(20),
            BatchOptions {
                max_batch: 4,
                max_depth: 16,
            },
        );
        let batcher = Arc::new(batcher);
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let b = Arc::clone(&batcher);
                std::thread::spawn(move || b.submit(i))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Everything submitted before the drain completes successfully.
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().0, (i as u64) * 2);
        }
        let owned = Arc::try_unwrap(batcher).unwrap_or_else(|arc| {
            // All submitters joined, so this is the only strong ref.
            panic!("{} refs still alive", Arc::strong_count(&arc))
        });
        owned.drain();
    }

    #[test]
    fn submissions_after_drain_are_rejected() {
        let batcher = Batcher::new(recorder(0), BatchOptions::default());
        batcher.begin_drain();
        assert_eq!(batcher.submit(1), Err(SubmitError::ShuttingDown));
    }
}
