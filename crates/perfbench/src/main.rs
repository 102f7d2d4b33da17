//! `perfbench` — the performance ledger of this repository.
//!
//! Six workloads, each an existing public entry point timed from the
//! outside (`run_md`, `run_parallel_md`, `POST /v1/eval` on a `dpmd serve`
//! subprocess, `EnsembleEngine::tick`, `Trainer::step`), and under them a
//! table of per-layer metrics taken in a separate traced pass. See
//! `README.md` beside this crate for the metric tables and how the layers
//! are expected to move the end-to-end numbers; `run.sh` builds and runs.
//!
//! ```text
//! perfbench bench --workload W --seed N --seconds S --trace 0|1 [--result FILE]
//! perfbench ledger [--seed N] [--scale X] [--workload W]... [--traced-only] [--out FILE]
//! perfbench compare A.json B.json
//! perfbench validate FILE
//! ```

mod alloc;
mod host;
mod ledger;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use dp_serve::json;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench bench --workload W --seed N --seconds S --trace 0|1 [--result FILE]\n       \
         perfbench ledger [--seed N] [--scale X] [--workload W]... [--traced-only] [--out FILE]\n       \
         perfbench compare A.json B.json\n       perfbench validate FILE\nworkloads: {}",
        metrics::WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn die(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    std::process::exit(1);
}

/// `--flag value` pairs (and bare `--traced-only`) into a lookup.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = match flag.as_str() {
                "--traced-only" => String::new(),
                f if f.starts_with("--") => it.next().cloned().unwrap_or_else(|| usage()),
                _ => usage(),
            };
            out.push((flag.clone(), value));
        }
        Flags(out)
    }

    fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.0
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> T {
        match self.all(flag).last() {
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
            None => default.unwrap_or_else(|| usage()),
        }
    }
}

/// Scratch directory inside the checkout; `run.sh` names it, a bare
/// invocation falls back to the directory of the executable.
fn work_dir() -> PathBuf {
    let dir = std::env::var_os("PERFBENCH_WORK")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            let exe = std::env::current_exe()
                .unwrap_or_else(|e| die(&format!("cannot find myself: {e}")));
            exe.parent()
                .expect("an executable has a directory")
                .join("perfbench-work")
        });
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("{}: {e}", dir.display())));
    dir
}

fn bench(f: &Flags) -> ! {
    let workload = f
        .all("--workload")
        .last()
        .unwrap_or_else(|| usage())
        .to_string();
    let traced = match f.num::<u8>("--trace", None) {
        0 => false,
        1 => true,
        _ => usage(),
    };
    let seconds: f64 = f.num("--seconds", None);
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage();
    }
    // one rayon thread, so the real and the stub rayon run the same
    // sequential code; refusing anything else keeps ledgers comparable
    if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("1") {
        die("RAYON_NUM_THREADS must be 1 (run.sh sets it)");
    }
    let work = work_dir().join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| die(&format!("{}: {e}", work.display())));
    let ctx = workloads::Ctx {
        seed: f.num("--seed", None),
        seconds,
        traced,
        work: work.clone(),
        dpmd: std::env::var_os("PERFBENCH_DPMD")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                let exe = std::env::current_exe()
                    .unwrap_or_else(|e| die(&format!("cannot find myself: {e}")));
                exe.with_file_name("dpmd")
            }),
        tracer: span::Tracer::new(),
    };
    let outcome = workloads::run(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&work);
    let r = outcome.unwrap_or_else(|e| die(&format!("{workload}: {e}")));

    println!(
        "# {workload} seed {} trace {} — {} checked, {} failed",
        ctx.seed,
        u8::from(traced),
        r.attempted,
        r.failed
    );
    for (name, s) in &r.e2e {
        let d = metrics::e2e_def(name).expect("e2e names come from the registry");
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!(" p{p} {v:.6}"));
        println!(
            "{name:<34} {:>16.6} {:<8} n {} min {:.6} max {:.6}{tail}",
            s.median, d.unit, s.n, s.min, s.max
        );
    }
    for &(name, v) in &r.layers.0 {
        let d = metrics::layer_def(name).expect("layer names come from the registry");
        println!("{name:<34} {v:>16.6} {:<8} moves {}", d.unit, d.moves);
    }
    if traced {
        let spans = ctx.tracer.snapshot();
        for (name, ns) in span::self_time_by_name(&spans) {
            println!("span {name:<29} {:>16.6} s self", ns as f64 / 1e9);
        }
        let pid = metrics::WORKLOADS
            .iter()
            .position(|w| w.0 == workload)
            .unwrap_or(0);
        let trace = work_dir().join(format!("trace-{workload}.json"));
        let events = json::arr(span::chrome_events(&spans, &workload, pid));
        std::fs::write(&trace, events.to_string())
            .unwrap_or_else(|e| die(&format!("{}: {e}", trace.display())));
    }
    if let Some(path) = f.all("--result").last() {
        std::fs::write(path, r.to_json().to_string())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
    }
    println!("{}", r.contract_line());
    // a failed output check fails the run, after the numbers are out
    std::process::exit(i32::from(r.failed > 0));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match (cmd.as_str(), rest) {
        ("bench", rest) => bench(&Flags::parse(rest)),
        ("ledger", rest) => {
            let f = Flags::parse(rest);
            let a = ledger::LedgerArgs {
                seed: f.num("--seed", Some(1)),
                scale: f.num("--scale", Some(1.0)),
                workloads: f.all("--workload").map(String::from).collect(),
                traced_only: f.all("--traced-only").next().is_some(),
                out: f.all("--out").last().map(PathBuf::from),
            };
            if !(a.scale > 0.0 && a.scale <= 6.0) {
                usage();
            }
            match ledger::run(&a, &work_dir()) {
                Ok(true) => {}
                Ok(false) => die("an output check failed (failed_frac > 0)"),
                Err(e) => die(&e),
            }
        }
        ("compare", [a, b]) => match ledger::compare(a, b) {
            Ok((0, _)) => {}
            Ok(_) => std::process::exit(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
        },
        ("validate", [file]) => match ledger::validate(file) {
            Ok(()) => println!("{file}: ok"),
            Err(e) => die(&e),
        },
        _ => usage(),
    }
}
