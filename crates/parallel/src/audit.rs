//! The periodic invariant audit a rank runs on the `audit_every` stride.

use crate::driver::AuditFailure;
use crate::rank::{Rank, RankError};

/// One collective conservation audit over the dedicated width-4 barrier:
/// `[owned atoms, ghost violations, step, seq gaps]` per rank. Checks
/// atom-count conservation across migrate/re-scatter, ghost/owner
/// containment, monotone + rank-uniform step counters, and gap-free
/// message sequencing. Every rank sees the same reduced totals, so a
/// violation fails all ranks with the same typed report.
pub(crate) fn audit_step(
    r: &mut Rank<'_>,
    step: usize,
    last: &mut Option<usize>,
) -> Result<(), RankError> {
    let (st, ctx, rank) = (&r.st, r.ctx, r.st.rank);
    let fail = |check: &'static str, detail: String| {
        Err(RankError::Audit(AuditFailure {
            rank,
            step,
            check,
            detail,
        }))
    };
    // local: the audit step counter advances strictly
    if let Some(prev) = *last {
        if step <= prev {
            return fail(
                "step_monotone",
                format!("audit at step {step} after one at step {prev}"),
            );
        }
    }
    *last = Some(step);
    // local: every ghost lies within the halo shell of our own domain,
    // with slack for drift since the last exchange (the rebuild trigger
    // bounds every owner's movement since the exchange, and with it its
    // ghosts', to about skin/2)
    let n_local = st.ids.len();
    let slack = ctx.opts.md.skin;
    let mut ghost_violations = 0usize;
    for p in &st.sys.positions[n_local..] {
        if ctx.grid.distance_to_domain(*p, rank) > ctx.halo + slack {
            ghost_violations += 1;
        }
    }
    let mut reported_local = n_local as f64;
    if let Some(f) = ctx.faults {
        if f.break_invariant(rank, step) {
            // test-only sabotage of the *report* (never the simulation
            // state): proves a violation surfaces as a typed failure
            reported_local += 1.0;
        }
    }
    let payload = [
        reported_local,
        ghost_violations as f64,
        step as f64,
        r.comm.seq_gap_count() as f64,
    ];
    let mut tot = [0.0; 4];
    r.reduce(ctx.audit_reduce, &payload, &mut tot)?;
    let n_ranks = r.comm.to.len();
    if tot[0] as usize != ctx.n_atoms {
        return fail(
            "atom_count",
            format!(
                "{} atoms owned globally, expected {}",
                tot[0] as usize, ctx.n_atoms
            ),
        );
    }
    if tot[1] > 0.0 {
        return fail(
            "ghost_owner",
            format!("{} ghosts outside their halo shell", tot[1] as usize),
        );
    }
    if tot[2] as usize != n_ranks * step {
        return fail(
            "step_uniform",
            format!(
                "ranks disagree on the audit step (sum {}, expected {})",
                tot[2] as usize,
                n_ranks * step
            ),
        );
    }
    if tot[3] > 0.0 {
        return fail(
            "seq_gap",
            format!(
                "{} message sequence gaps observed on the mesh",
                tot[3] as usize
            ),
        );
    }
    Ok(())
}
