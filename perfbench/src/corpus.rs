//! The benchmark's inputs and their known answers.
//!
//! Every model and invariant the program sees is written here, from the
//! sources and invariants shipped in `ivy-protocols`; every response is
//! checked against the expected-verdict table below.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ivy_core::{Conjecture, Measure};
use ivy_protocols as p;

/// One protocol of the corpus.
pub struct Protocol {
    /// Short name, used as the request class and in file names.
    pub name: &'static str,
    /// RML source text.
    pub source: &'static str,
    /// A known inductive invariant.
    pub invariant: Vec<Conjecture>,
    /// Name of the conjecture whose removal leaves a non-inductive
    /// invariant (chosen by hand: dropping the last clause of learning
    /// switch or Chord still leaves an inductive set). `None` for
    /// protocols outside the serve mix.
    pub drop: Option<&'static str>,
    /// Instantiation bound the model needs (`Some` only outside EPR).
    pub bound: Option<usize>,
    /// Minimization measures for interactive sessions.
    pub measures: Vec<Measure>,
    /// BMC bound the oracle user passes to auto-generalization.
    pub oracle_bound: usize,
}

impl Protocol {
    /// The invariant with the [`Protocol::drop`] conjecture removed.
    pub fn dropped_invariant(&self) -> Vec<Conjecture> {
        let kept: Vec<Conjecture> = self
            .invariant
            .iter()
            .filter(|c| Some(c.name.as_str()) != self.drop)
            .cloned()
            .collect();
        assert_eq!(kept.len() + 1, self.invariant.len(), "{}: drop", self.name);
        kept
    }
}

/// The six EPR protocols of the paper's evaluation, plus the non-EPR
/// `two_phase` demo proved under `--bound 2`.
pub fn protocols() -> Vec<Protocol> {
    vec![
        Protocol {
            name: "leader",
            source: p::leader::SOURCE,
            invariant: p::leader::invariant(),
            drop: Some("C3"),
            bound: None,
            measures: p::leader::measures(),
            oracle_bound: 3,
        },
        Protocol {
            name: "lock_server",
            source: p::lock_server::SOURCE,
            invariant: p::lock_server::invariant(),
            drop: Some("L9"),
            bound: None,
            measures: p::lock_server::measures(),
            oracle_bound: 2,
        },
        Protocol {
            name: "distributed_lock",
            source: p::distributed_lock::SOURCE,
            invariant: p::distributed_lock::invariant(),
            drop: Some("J6c"),
            bound: None,
            measures: p::distributed_lock::measures(),
            oracle_bound: 2,
        },
        Protocol {
            name: "learning_switch",
            source: p::learning_switch::SOURCE,
            invariant: p::learning_switch::invariant(),
            drop: Some("A6"),
            bound: None,
            measures: p::learning_switch::measures(),
            oracle_bound: 1,
        },
        Protocol {
            name: "db_chain",
            source: p::db_chain::SOURCE,
            invariant: p::db_chain::invariant(),
            drop: Some("D8"),
            bound: None,
            measures: p::db_chain::measures(),
            oracle_bound: 1,
        },
        Protocol {
            name: "chord",
            source: p::chord::SOURCE,
            invariant: p::chord::invariant(),
            drop: Some("K3"),
            bound: None,
            measures: p::chord::measures(),
            oracle_bound: 2,
        },
        Protocol {
            name: "two_phase",
            source: p::two_phase::SOURCE,
            invariant: p::two_phase::invariant(),
            drop: None,
            bound: Some(p::two_phase::PROVE_BOUND),
            measures: Vec::new(),
            oracle_bound: 0,
        },
    ]
}

/// Protocols driven through interactive sessions. Distributed lock
/// (about 11 s a session) and learning switch (about 87 s) are left out:
/// one session would swamp a run.
pub const INTERACTIVE: &[&str] = &["leader", "lock_server", "db_chain", "chord"];

/// Renders conjectures in the `.inv` format (`name: formula` lines),
/// checking that every formula parses back to itself.
pub fn inv_text(conjectures: &[Conjecture]) -> String {
    let mut out = String::new();
    for c in conjectures {
        let text = c.formula.to_string();
        let back = ivy_fol::parse_formula(&text).expect("printed formula parses");
        assert_eq!(back, c.formula, "{} does not round-trip", c.name);
        out.push_str(&format!("{}: {}\n", c.name, text));
    }
    out
}

/// Files of one protocol written for the CLI.
pub struct Files {
    pub model: PathBuf,
    pub inv: PathBuf,
}

/// Writes `NAME.rml` and `NAME.inv` (the full invariant) under `dir`.
pub fn write_files(dir: &Path, proto: &Protocol) -> io::Result<Files> {
    fs::create_dir_all(dir)?;
    let model = dir.join(format!("{}.rml", proto.name));
    let inv = dir.join(format!("{}.inv", proto.name));
    fs::write(&model, proto.source)?;
    fs::write(&inv, inv_text(&proto.invariant))?;
    Ok(Files { model, inv })
}

/// SplitMix64: a small, seedable generator for request order.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}
