//! Asynchronous deck jobs: submit, poll, drain.
//!
//! An MD deck takes seconds to hours, so `POST /v1/jobs` cannot answer
//! inline — it records the deck, returns an id, and a pool of worker
//! threads picks jobs up FIFO. Clients poll `GET /v1/jobs/{id}` for a
//! typed state machine: `queued → running → done | failed`. The store
//! keeps every finished job's summary in memory for the daemon's
//! lifetime (jobs are few and summaries small; the heavyweight
//! artifacts — trajectories, checkpoints, traces — live in the job's
//! state directory on disk).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What actually executes a deck. The daemon supplies a runner that
/// calls into the root crate's `app::run`; tests supply stubs.
pub trait JobRunner: Send + Sync + 'static {
    /// Run the job to completion. `Ok` carries a JSON summary string
    /// (the job's `result` field); `Err` a typed failure.
    fn run(&self, id: &str, deck: &str) -> Result<String, JobFailure>;
}

/// A typed failure, mirroring the CLI's exit-code classes so a polled
/// job reports the same taxonomy as a foreground `dpmd` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Stable class string: "deck" | "io" | "checkpoint" | "fault" | "run" | "panic".
    pub class: &'static str,
    pub message: String,
}

/// Job lifecycle states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done { result: String },
    Failed { failure: JobFailure },
}

impl JobState {
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// A snapshot of one job for status responses.
#[derive(Debug, Clone)]
pub struct JobView {
    pub id: String,
    pub state: JobState,
    /// Seconds the job has existed / took to finish.
    pub age_secs: f64,
    /// Seconds spent running (0 while queued).
    pub run_secs: f64,
}

struct JobRecord {
    id: String,
    deck: String,
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

struct StoreState {
    jobs: HashMap<String, JobRecord>,
    /// FIFO of queued job ids.
    queue: std::collections::VecDeque<String>,
    next_id: u64,
    draining: bool,
}

struct Inner {
    state: Mutex<StoreState>,
    work: Condvar,
}

/// Shared job store; clone the `Arc` freely across handler and worker
/// threads.
pub struct JobStore {
    inner: Arc<Inner>,
}

impl Clone for JobStore {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for JobStore {
    fn default() -> Self {
        Self::new()
    }
}

impl JobStore {
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(StoreState {
                    jobs: HashMap::new(),
                    queue: std::collections::VecDeque::new(),
                    next_id: 1,
                    draining: false,
                }),
                work: Condvar::new(),
            }),
        }
    }

    /// Enqueue a deck; returns the new job id, or `None` when draining.
    pub fn submit(&self, deck: String) -> Option<String> {
        let mut s = self.inner.state.lock().unwrap();
        if s.draining {
            return None;
        }
        let id = format!("job-{}", s.next_id);
        s.next_id += 1;
        s.jobs.insert(
            id.clone(),
            JobRecord {
                id: id.clone(),
                deck,
                state: JobState::Queued,
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        s.queue.push_back(id.clone());
        dp_obs::counter(dp_obs::serve::JOBS_SUBMITTED).add(1);
        self.inner.work.notify_one();
        Some(id)
    }

    /// Snapshot one job.
    pub fn get(&self, id: &str) -> Option<JobView> {
        let s = self.inner.state.lock().unwrap();
        s.jobs.get(id).map(view)
    }

    /// Snapshot all jobs, newest first.
    pub fn list(&self) -> Vec<JobView> {
        let s = self.inner.state.lock().unwrap();
        let mut all: Vec<_> = s.jobs.values().map(view).collect();
        all.sort_by(|a, b| b.id.len().cmp(&a.id.len()).then(b.id.cmp(&a.id)));
        all
    }

    /// Counts per state: (queued, running, done, failed).
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let s = self.inner.state.lock().unwrap();
        let mut c = (0, 0, 0, 0);
        for j in s.jobs.values() {
            match j.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done { .. } => c.2 += 1,
                JobState::Failed { .. } => c.3 += 1,
            }
        }
        c
    }

    /// Stop accepting submissions and wake idle workers so they exit.
    /// Jobs already queued or running are allowed to finish.
    pub fn drain(&self) {
        let mut s = self.inner.state.lock().unwrap();
        s.draining = true;
        self.inner.work.notify_all();
    }

    /// Claim the next queued job; blocks until work arrives or the store
    /// drains. Workers call this in a loop and exit on `None`.
    fn claim_next(&self) -> Option<(String, String)> {
        let mut s = self.inner.state.lock().unwrap();
        loop {
            if let Some(id) = s.queue.pop_front() {
                let j = s.jobs.get_mut(&id).expect("queued job exists");
                j.state = JobState::Running;
                j.started = Some(Instant::now());
                return Some((id, j.deck.clone()));
            }
            if s.draining {
                return None;
            }
            s = self.inner.work.wait(s).unwrap();
        }
    }

    fn finish(&self, id: &str, outcome: Result<String, JobFailure>) {
        let mut s = self.inner.state.lock().unwrap();
        if let Some(j) = s.jobs.get_mut(id) {
            j.finished = Some(Instant::now());
            j.state = match outcome {
                Ok(result) => {
                    dp_obs::counter(dp_obs::serve::JOBS_COMPLETED).add(1);
                    JobState::Done { result }
                }
                Err(failure) => {
                    dp_obs::counter(dp_obs::serve::JOBS_FAILED).add(1);
                    JobState::Failed { failure }
                }
            };
        }
    }
}

fn view(j: &JobRecord) -> JobView {
    let end = j.finished.unwrap_or_else(Instant::now);
    JobView {
        id: j.id.clone(),
        state: j.state.clone(),
        age_secs: end.duration_since(j.submitted).as_secs_f64(),
        run_secs: j
            .started
            .map(|s| end.duration_since(s).as_secs_f64())
            .unwrap_or(0.0),
    }
}

/// Spawn `n` worker threads draining the store through `runner`. The
/// returned handles join once the store drains and the queue empties.
pub fn spawn_workers(
    store: &JobStore,
    runner: Arc<dyn JobRunner>,
    n: usize,
) -> Vec<std::thread::JoinHandle<()>> {
    assert!(n >= 1, "need at least one job worker");
    (0..n)
        .map(|i| {
            let store = store.clone();
            let runner = Arc::clone(&runner);
            std::thread::Builder::new()
                .name(format!("dp-job-{i}"))
                .spawn(move || {
                    while let Some((id, deck)) = store.claim_next() {
                        // A panicking deck must not take the worker down:
                        // report it as a failed job and keep serving.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                runner.run(&id, &deck)
                            }))
                            .unwrap_or_else(|p| {
                                let msg = p
                                    .downcast_ref::<&str>()
                                    .map(|s| s.to_string())
                                    .or_else(|| p.downcast_ref::<String>().cloned())
                                    .unwrap_or_else(|| "job panicked".into());
                                Err(JobFailure {
                                    class: "panic",
                                    message: msg,
                                })
                            });
                        store.finish(&id, outcome);
                    }
                })
                .expect("spawn job worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    struct Scripted;

    impl JobRunner for Scripted {
        fn run(&self, _id: &str, deck: &str) -> Result<String, JobFailure> {
            match deck {
                "ok" => Ok("{\"steps\":10}".into()),
                "boom" => panic!("deck exploded"),
                _ => Err(JobFailure {
                    class: "deck",
                    message: format!("unknown deck '{deck}'"),
                }),
            }
        }
    }

    fn terminal(s: &JobState) -> bool {
        matches!(s, JobState::Done { .. } | JobState::Failed { .. })
    }

    fn settle(store: &JobStore, id: &str) -> JobView {
        for _ in 0..200 {
            let v = store.get(id).unwrap();
            if terminal(&v.state) {
                return v;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never settled");
    }

    #[test]
    fn jobs_run_to_done_failed_and_panic_is_contained() {
        let store = JobStore::new();
        let workers = spawn_workers(&store, Arc::new(Scripted), 2);

        let ok = store.submit("ok".into()).unwrap();
        let bad = store.submit("nope".into()).unwrap();
        let boom = store.submit("boom".into()).unwrap();

        assert_eq!(
            settle(&store, &ok).state,
            JobState::Done {
                result: "{\"steps\":10}".into()
            }
        );
        match settle(&store, &bad).state {
            JobState::Failed { failure } => {
                assert_eq!(failure.class, "deck");
                assert!(failure.message.contains("nope"));
            }
            s => panic!("expected failure, got {s:?}"),
        }
        match settle(&store, &boom).state {
            JobState::Failed { failure } => {
                assert_eq!(failure.class, "panic");
                assert!(failure.message.contains("exploded"));
            }
            s => panic!("expected contained panic, got {s:?}"),
        }

        // The panic did not kill the pool: a fresh job still runs.
        let again = store.submit("ok".into()).unwrap();
        assert!(terminal(&settle(&store, &again).state));

        store.drain();
        assert_eq!(store.submit("ok".into()), None);
        for w in workers {
            w.join().unwrap();
        }
        let (queued, running, done, failed) = store.counts();
        assert_eq!((queued, running), (0, 0));
        assert_eq!(done, 2);
        assert_eq!(failed, 2);
    }

    #[test]
    fn drain_lets_queued_jobs_finish() {
        struct Slow;
        impl JobRunner for Slow {
            fn run(&self, _id: &str, _deck: &str) -> Result<String, JobFailure> {
                std::thread::sleep(Duration::from_millis(30));
                Ok("{}".into())
            }
        }
        let store = JobStore::new();
        let workers = spawn_workers(&store, Arc::new(Slow), 1);
        let ids: Vec<_> = (0..3).map(|_| store.submit("d".into()).unwrap()).collect();
        store.drain();
        for w in workers {
            w.join().unwrap();
        }
        for id in ids {
            assert!(terminal(&store.get(&id).unwrap().state));
        }
    }

    #[test]
    fn unknown_job_is_none_and_ids_are_sequential() {
        let store = JobStore::new();
        assert!(store.get("job-1").is_none());
        let a = store.submit("x".into()).unwrap();
        let b = store.submit("x".into()).unwrap();
        assert_eq!(a, "job-1");
        assert_eq!(b, "job-2");
        assert_eq!(store.list().len(), 2);
    }
}
