//! Per-step JSONL metrics snapshots.
//!
//! One JSON object per MD step, deriving the paper's headline figures
//! exactly as §6.3 defines them:
//!
//! * `s_per_step_per_atom` — wall time of the step divided by the local
//!   atom count (time-to-solution, Table 1's metric, for a single step),
//! * `gflops` — FLOPs performed during the step (from the `"flops"`
//!   counter `dp_linalg` feeds) divided by the step wall time, i.e.
//!   `peak = FLOPs / MD-loop time` applied per step.
//!
//! A process-global sink ([`install`]) lets the MD integrator report steps
//! without threading a writer through every signature; [`active`] is a
//! single relaxed load so un-instrumented runs pay nothing. Only one sink
//! exists per process — concurrent runs in one process share it, which is
//! why the test suites drive metrics through a single run at a time.

use crate::json;
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// A JSONL metrics writer over any byte sink.
pub struct MetricsWriter<W: Write> {
    out: W,
    /// Counter values at the previous step boundary (deltas per step).
    last: HashMap<&'static str, u64>,
}

impl MetricsWriter<BufWriter<std::fs::File>> {
    /// Create (truncate) a metrics file at `path`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> MetricsWriter<W> {
    pub fn new(out: W) -> Self {
        Self {
            out,
            last: HashMap::new(),
        }
    }

    /// Append one step line. `n_atoms` is the local atom count the step
    /// advanced; `wall` its wall time. Counter deltas since the previous
    /// `record_step` call are attributed to this step.
    pub fn record_step(
        &mut self,
        step: u64,
        n_atoms: usize,
        wall: Duration,
    ) -> std::io::Result<()> {
        let secs = wall.as_secs_f64();
        let tts = if n_atoms > 0 {
            secs / n_atoms as f64
        } else {
            0.0
        };
        let mut line = format!(
            "{{\"step\":{step},\"n_atoms\":{n_atoms},\"step_time_s\":{},\"s_per_step_per_atom\":{}",
            json::num(secs),
            json::num(tts)
        );
        let mut flops_delta = 0u64;
        let mut extras = String::new();
        for (name, value) in crate::counters() {
            let prev = self.last.insert(name, value).unwrap_or(0);
            let delta = value.saturating_sub(prev);
            if name == "flops" {
                flops_delta = delta;
            } else if delta > 0 {
                if !extras.is_empty() {
                    extras.push(',');
                }
                extras.push_str(&format!("{}:{delta}", json::str(name)));
            }
        }
        let gflops = if secs > 0.0 {
            flops_delta as f64 / secs / 1e9
        } else {
            0.0
        };
        line.push_str(&format!(
            ",\"flops\":{flops_delta},\"gflops\":{}",
            json::num(gflops)
        ));
        if !extras.is_empty() {
            line.push_str(&format!(",\"counters\":{{{extras}}}"));
        }
        line.push_str("}\n");
        self.out.write_all(line.as_bytes())
    }

    /// Append one pre-formatted JSON object as its own line. Used for
    /// out-of-band events in the same stream as step rows: histogram
    /// summaries, imbalance reports, heartbeats, fault markers.
    pub fn emit_line(&mut self, json_object: &str) -> std::io::Result<()> {
        self.out.write_all(json_object.as_bytes())?;
        self.out.write_all(b"\n")
    }

    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Flush-on-drop guarantee: buffered rows survive whichever way the
/// writer goes out of scope — normal exit, an early `return Err(...)`, or
/// a panic unwinding the stack. The flush error (if any) is swallowed:
/// a destructor must not panic, and the deferred-error path of the global
/// sink already reports write failures at [`uninstall`].
impl<W: Write> Drop for MetricsWriter<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

// ---- process-global sink ----

type GlobalWriter = MetricsWriter<BufWriter<std::fs::File>>;

#[derive(Default)]
struct GlobalSink {
    writer: Option<GlobalWriter>,
    /// First deferred write error (reported at [`uninstall`]).
    error: Option<std::io::Error>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink() -> MutexGuard<'static, GlobalSink> {
    static SINK: OnceLock<Mutex<GlobalSink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(GlobalSink::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Install a process-global metrics sink writing JSONL to `path`.
/// Replaces any previous sink (flushing it best-effort).
pub fn install(path: &str) -> std::io::Result<()> {
    let w = MetricsWriter::create(path)?;
    let mut guard = sink();
    if let Some(mut old) = guard.writer.take() {
        let _ = old.flush();
    }
    guard.writer = Some(w);
    guard.error = None;
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(())
}

/// Is a global sink installed? Single relaxed load — the integrator's
/// per-step gate.
#[inline(always)]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Record one step into the global sink (no-op when none is installed).
/// Write errors are deferred to [`uninstall`] so the MD loop never has to
/// unwind mid-trajectory over a full disk.
pub fn record_step(step: u64, n_atoms: usize, wall: Duration) {
    let mut guard = sink();
    let GlobalSink { writer, error } = &mut *guard;
    if let Some(w) = writer.as_mut() {
        if let Err(e) = w.record_step(step, n_atoms, wall) {
            error.get_or_insert(e);
        }
    }
}

/// Emit one pre-formatted JSON object line into the global sink (no-op
/// when none is installed). Same deferred-error contract as
/// [`record_step`].
pub fn emit_line(json_object: &str) {
    let mut guard = sink();
    let GlobalSink { writer, error } = &mut *guard;
    if let Some(w) = writer.as_mut() {
        if let Err(e) = w.emit_line(json_object) {
            error.get_or_insert(e);
        }
    }
}

/// Flush the global sink's buffered writer (no-op when none is
/// installed). The parallel supervisor calls this after recording fault
/// and recovery events so they survive even if a later epoch takes the
/// process down before [`uninstall`] runs.
pub fn flush() {
    let mut guard = sink();
    let GlobalSink { writer, error } = &mut *guard;
    if let Some(w) = writer.as_mut() {
        if let Err(e) = w.flush() {
            error.get_or_insert(e);
        }
    }
}

/// Remove and flush the global sink, surfacing any deferred write error.
/// `None` if no sink was installed.
pub fn uninstall() -> Option<std::io::Result<()>> {
    let mut guard = sink();
    let writer = guard.writer.take();
    let error = guard.error.take();
    ACTIVE.store(false, Ordering::Relaxed);
    drop(guard);
    let mut w = writer?;
    Some(match error {
        Some(e) => Err(e),
        None => w.flush(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A cloneable sink readable after the writer drops (a `Drop` impl on
    /// `MetricsWriter` means tests can no longer move `out` back out).
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Shared {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()).unwrap()
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn step_lines_have_paper_metrics() {
        let sink = Shared::default();
        let mut w = MetricsWriter::new(sink.clone());
        crate::counter("flops").add(2_000_000);
        w.record_step(1, 100, Duration::from_millis(10)).unwrap();
        crate::counter("flops").add(3_000_000);
        w.record_step(2, 100, Duration::from_millis(10)).unwrap();
        drop(w);
        let text = sink.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"s_per_step_per_atom\":"));
            assert!(line.contains("\"gflops\":"));
            assert!(line.contains("\"n_atoms\":100"));
        }
        // second step sees only the delta (3M flops over 10 ms = 0.3 GFLOPS);
        // other tests may add to the shared counter concurrently, so only
        // check the field is present and the line is step 2.
        assert!(lines[1].contains("\"step\":2"));
    }

    #[test]
    fn emit_line_interleaves_with_step_rows() {
        let sink = Shared::default();
        let mut w = MetricsWriter::new(sink.clone());
        w.record_step(1, 10, Duration::from_millis(1)).unwrap();
        w.emit_line("{\"event\":\"imbalance\",\"n_ranks\":2}")
            .unwrap();
        drop(w);
        let text = sink.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with('{') && lines[1].ends_with('}'));
        assert!(lines[1].contains("\"event\":\"imbalance\""));
    }

    #[test]
    fn global_emit_and_flush_without_sink_are_noops() {
        // no sink installed in this test: must not panic or create state
        emit_line("{\"event\":\"orphan\"}");
        flush();
    }

    #[test]
    fn zero_atoms_and_zero_time_do_not_divide_by_zero() {
        let sink = Shared::default();
        let mut w = MetricsWriter::new(sink.clone());
        w.record_step(0, 0, Duration::ZERO).unwrap();
        drop(w);
        let text = sink.contents();
        assert!(text.contains("\"s_per_step_per_atom\":0,"));
        assert!(text.contains("\"gflops\":0,") || text.contains("\"gflops\":0}"));
    }

    // ---- flush-on-drop guarantee, across all three exit paths ----

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dp-obs-metrics-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn buffered_rows_survive_normal_scope_exit() {
        let path = tmp_path("normal");
        {
            let mut w = MetricsWriter::create(path.to_str().unwrap()).unwrap();
            w.emit_line("{\"event\":\"before_drop\"}").unwrap();
            // no explicit flush: the row sits in the BufWriter
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"before_drop\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_rows_survive_a_panic_unwind() {
        let path = tmp_path("panic");
        let p = path.to_str().unwrap().to_string();
        let result = std::panic::catch_unwind(move || {
            let mut w = MetricsWriter::create(&p).unwrap();
            w.emit_line("{\"event\":\"before_panic\"}").unwrap();
            panic!("simulated fault mid-run");
        });
        assert!(result.is_err(), "the panic must have fired");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"before_panic\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn buffered_rows_survive_a_typed_error_return() {
        // The AppError-style early-return path: the writer is a local, the
        // function bails with Err before ever flushing.
        fn run(path: &str) -> Result<(), String> {
            let mut w = MetricsWriter::create(path).map_err(|e| e.to_string())?;
            w.emit_line("{\"event\":\"before_error\"}")
                .map_err(|e| e.to_string())?;
            Err("typed failure".into())
        }
        let path = tmp_path("err");
        assert!(run(path.to_str().unwrap()).is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"event\":\"before_error\""), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
