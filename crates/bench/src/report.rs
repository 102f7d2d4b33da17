//! Table printing, timing and provenance shared by the harness binaries.

use std::time::Instant;

/// Median wall time of `reps` calls to `f` after one warm-up call, in ms
/// (the upper median when `reps` is even).
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps > 0, "median of no runs");
    f();
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[reps / 2]
}

/// Print what a results file was measured on: the commit (`-dirty` when
/// tracked files differ from it), the SIMD backend in use, and the thread
/// count, which is 1 because every `dp_obs::par` loop runs on the calling
/// thread.
pub fn print_provenance() {
    let git = ["describe", "--always", "--dirty", "--exclude=*"];
    let out = std::process::Command::new("git").args(git).output();
    let commit = out.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let commit = commit.ok().filter(|c| !c.is_empty());
    let simd = dp_linalg::simd::active().name();
    println!(
        "commit {}, simd backend {simd}, threads 1",
        commit.as_deref().unwrap_or("unknown")
    );
}

/// Print a fixed-width table: header row plus data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:>w$}  ", w = w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Engineering notation helper ("86.2 P", "4.53 m").
pub fn eng(x: f64) -> String {
    let (scaled, suffix) = if x.abs() >= 1e15 {
        (x / 1e15, "P")
    } else if x.abs() >= 1e12 {
        (x / 1e12, "T")
    } else if x.abs() >= 1e9 {
        (x / 1e9, "G")
    } else if x.abs() >= 1e6 {
        (x / 1e6, "M")
    } else if x.abs() >= 1e3 {
        (x / 1e3, "k")
    } else if x.abs() >= 1.0 || x == 0.0 {
        (x, "")
    } else if x.abs() >= 1e-3 {
        (x * 1e3, "m")
    } else if x.abs() >= 1e-6 {
        (x * 1e6, "u")
    } else {
        (x * 1e9, "n")
    };
    format!("{scaled:.3}{suffix}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(86.2e15), "86.200P");
        assert_eq!(eng(0.0045), "4.500m");
        assert_eq!(eng(2.0), "2.000");
        assert_eq!(eng(7.3e-10), "0.730n");
    }

    #[test]
    fn tables_do_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
