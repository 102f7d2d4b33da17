//! Extended-XYZ trajectory output.
//!
//! The paper's measurements are "on the basis of whole application
//! including I/O" (§2): thermodynamic records every 20 steps plus
//! trajectory output. This module provides the standard extended-XYZ
//! format so trajectories from the examples and harnesses can be
//! inspected with OVITO/ASE.

use crate::system::System;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Append one frame in extended-XYZ format.
pub fn write_frame(
    out: &mut impl Write,
    sys: &System,
    type_names: &[&str],
    comment: &str,
) -> io::Result<()> {
    let n = sys.n_local;
    let mut buf = String::with_capacity(n * 48 + 128);
    writeln!(buf, "{n}").unwrap();
    let l = sys.cell.lengths;
    writeln!(
        buf,
        "Lattice=\"{} 0 0 0 {} 0 0 0 {}\" Properties=species:S:1:pos:R:3 {comment}",
        l[0], l[1], l[2]
    )
    .unwrap();
    for i in 0..n {
        let name = type_names.get(sys.types[i]).copied().unwrap_or("X");
        let p = sys.positions[i];
        writeln!(buf, "{name} {:.8} {:.8} {:.8}", p[0], p[1], p[2]).unwrap();
    }
    out.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice;

    /// A frame's header line and its `(species, position)` rows.
    type Frame = (String, Vec<(String, [f64; 3])>);

    fn parse(text: &str) -> Vec<Frame> {
        let mut lines = text.lines();
        let mut frames = Vec::new();
        while let Some(count) = lines.next() {
            let n: usize = count.parse().unwrap();
            let header = lines.next().unwrap().to_string();
            let atoms = (0..n)
                .map(|_| {
                    let mut it = lines.next().unwrap().split_whitespace();
                    let name = it.next().unwrap().to_string();
                    let p: Vec<f64> = it.map(|v| v.parse().unwrap()).collect();
                    (name, [p[0], p[1], p[2]])
                })
                .collect();
            frames.push((header, atoms));
        }
        frames
    }

    #[test]
    fn frame_text_preserves_geometry() {
        let sys = lattice::water_box([2, 2, 2], 3.104);
        let mut buf = Vec::new();
        write_frame(&mut buf, &sys, &["O", "H"], "step=0").unwrap();

        let frames = parse(&String::from_utf8(buf).unwrap());
        assert_eq!(frames.len(), 1);
        let (header, atoms) = &frames[0];
        let l = sys.cell.lengths;
        let lattice = format!("Lattice=\"{} 0 0 0 {} 0 0 0 {}\"", l[0], l[1], l[2]);
        assert!(header.starts_with(&lattice), "{header}");
        assert!(header.ends_with("step=0"), "{header}");
        assert_eq!(atoms.len(), sys.len());
        for (i, (name, p)) in atoms.iter().enumerate() {
            assert_eq!(name, ["O", "H"][sys.types[i]]);
            let written = p.iter().zip(&sys.positions[i]);
            assert!(written.map(|(a, b)| (a - b).abs()).all(|d| d < 1e-7));
        }
    }

    #[test]
    fn multiple_frames_stream() {
        let sys = lattice::copper([2, 2, 2]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &sys, &["Cu"], "step=0").unwrap();
        write_frame(&mut buf, &sys, &["Cu"], "step=1").unwrap();
        let frames = parse(&String::from_utf8(buf).unwrap());
        assert_eq!(frames.len(), 2);
        assert!(frames[1].0.ends_with("step=1"));
    }

    #[test]
    fn ghosts_are_not_written() {
        let mut sys = lattice::copper([2, 2, 2]);
        sys.n_local = 16; // pretend half are ghosts
        let mut buf = Vec::new();
        write_frame(&mut buf, &sys, &["Cu"], "").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("16\n"));
    }
}
