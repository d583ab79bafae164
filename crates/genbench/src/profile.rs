//! Interface profiles of the paper's benchmark circuits.

use std::fmt;

/// Interface profile of a benchmark circuit: the counts the synthetic
/// generator reproduces.
///
/// The numbers follow the published ISCAS'85/'89 profiles (gate counts are
/// the conventional "logic gates" figures; small deviations are irrelevant
/// to the reproduction — see `DESIGN.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitProfile {
    /// Circuit name (e.g. `c880`, `s1238`).
    pub name: String,
    /// Primary inputs (excluding scan pseudo-inputs).
    pub inputs: usize,
    /// Primary outputs (excluding scan pseudo-outputs).
    pub outputs: usize,
    /// Flip-flops (0 for the combinational ISCAS'85 circuits).
    pub flip_flops: usize,
    /// Logic gates.
    pub gates: usize,
    /// Number of random-pattern-resistant cones to embed.
    pub resistant_cones: usize,
    /// Width (in literals) of each resistant cone comparator.
    pub cone_width: usize,
}

impl CircuitProfile {
    /// Creates a custom profile.
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        flip_flops: usize,
        gates: usize,
    ) -> CircuitProfile {
        let gates_f = gates as f64;
        CircuitProfile {
            name: name.into(),
            inputs,
            outputs,
            flip_flops,
            gates,
            resistant_cones: (gates_f.sqrt() / 4.0).ceil() as usize,
            cone_width: 16,
        }
    }

    /// Total primary inputs of the full-scan form (`PI + FF`), which is the
    /// TPG register width.
    pub fn scan_inputs(&self) -> usize {
        self.inputs + self.flip_flops
    }

    /// Total primary outputs of the full-scan form (`PO + FF`).
    pub fn scan_outputs(&self) -> usize {
        self.outputs + self.flip_flops
    }

    /// Returns a scaled profile: the *gate count* (the CPU-cost driver for
    /// simulation, ATPG and fault lists) shrinks by `factor`, while the
    /// **interface is preserved** — primary inputs, outputs and flip-flops
    /// stay at the original circuit's counts. Preserving the interface
    /// keeps the TPG register width authentic and, crucially, keeps the
    /// embedded comparator cones wide enough to stay random-pattern
    /// resistant (a cone over `w` free inputs fires with probability
    /// `2^-w`; shrinking the input space would destroy the property the
    /// paper's benchmark selection is based on).
    ///
    /// The name gains a `@factor` suffix unless the factor is 1.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> CircuitProfile {
        assert!(factor > 0.0, "scale factor must be positive");
        if (factor - 1.0).abs() < f64::EPSILON {
            return self.clone();
        }
        let s = |v: usize, min: usize| -> usize { ((v as f64 * factor).round() as usize).max(min) };
        CircuitProfile {
            name: format!("{}@{factor}", self.name),
            inputs: self.inputs,
            outputs: self.outputs,
            flip_flops: self.flip_flops,
            gates: s(self.gates, 60),
            resistant_cones: s(self.resistant_cones, 1),
            cone_width: self.cone_width.min(self.scan_inputs().max(4)),
        }
    }
}

impl fmt::Display for CircuitProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: PI={} PO={} FF={} gates={} (+{} resistant cones)",
            self.name, self.inputs, self.outputs, self.flip_flops, self.gates, self.resistant_cones
        )
    }
}

macro_rules! profiles {
    ($(($name:literal, $pi:literal, $po:literal, $ff:literal, $gates:literal)),+ $(,)?) => {
        vec![$(CircuitProfile::new($name, $pi, $po, $ff, $gates)),+]
    };
}

/// All built-in profiles: the paper's Table-1 suite plus a few small extras
/// used in examples and tests.
pub fn all_profiles() -> Vec<CircuitProfile> {
    profiles![
        // ISCAS'85 circuits used in the paper
        ("c499", 41, 32, 0, 202),
        ("c880", 60, 26, 0, 383),
        ("c1355", 41, 32, 0, 546),
        ("c1908", 33, 25, 0, 880),
        ("c7552", 207, 108, 0, 3512),
        // full-scan ISCAS'89 circuits used in the paper
        ("s420", 18, 1, 16, 218),
        ("s641", 35, 24, 19, 379),
        ("s820", 18, 19, 5, 289),
        ("s838", 34, 1, 32, 446),
        ("s953", 16, 23, 29, 395),
        ("s1238", 14, 14, 18, 508),
        ("s1423", 17, 5, 74, 657),
        ("s5378", 35, 49, 179, 2779),
        ("s9234", 36, 39, 211, 5597),
        ("s13207", 62, 152, 638, 7951),
        ("s15850", 77, 150, 534, 9772),
        // extras (not in the paper; handy small cases)
        ("tiny64", 10, 6, 0, 64),
        ("mid256", 16, 10, 8, 256),
        // scaling stress profiles (not in the paper): a c7552-scale
        // synthetic circuit and a doubled "xl" case, sized to give the
        // Detection Matrix thousands of fault columns
        ("big3500", 200, 100, 0, 3500),
        ("xl7000", 230, 120, 80, 7000),
    ]
}

/// The 16 circuits of the paper's evaluation, in Table-1 order.
pub fn paper_suite() -> Vec<CircuitProfile> {
    let paper = [
        "c499", "c880", "c1355", "c1908", "c7552", "s420", "s641", "s820", "s838", "s953", "s1238",
        "s1423", "s5378", "s9234", "s13207", "s15850",
    ];
    paper
        .iter()
        .map(|n| profile(n).expect("paper circuit registered"))
        .collect()
}

/// Looks a profile up by name.
pub fn profile(name: &str) -> Option<CircuitProfile> {
    all_profiles().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_is_complete() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 16);
        assert_eq!(suite[0].name, "c499");
        assert_eq!(suite[15].name, "s15850");
    }

    #[test]
    fn lookup_by_name() {
        let p = profile("s1238").unwrap();
        assert_eq!(p.inputs, 14);
        assert_eq!(p.flip_flops, 18);
        assert_eq!(p.scan_inputs(), 32);
        assert!(profile("c9999").is_none());
    }

    #[test]
    fn scaling_shrinks_with_minima() {
        let p = profile("s15850").unwrap();
        let s = p.scaled(0.1);
        assert!(s.gates < p.gates);
        assert!(s.gates >= 60);
        assert_eq!(s.inputs, p.inputs, "interface preserved");
        assert_eq!(s.flip_flops, p.flip_flops, "interface preserved");
        assert!(s.name.contains('@'));
        // identity scale keeps the name
        assert_eq!(p.scaled(1.0).name, "s15850");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = profile("c499").unwrap().scaled(0.0);
    }

    #[test]
    fn combinational_profiles_have_no_ffs() {
        for name in ["c499", "c880", "c1355", "c1908", "c7552"] {
            assert_eq!(profile(name).unwrap().flip_flops, 0, "{name}");
        }
    }

    #[test]
    fn stress_profiles_registered_and_out_of_paper_suite() {
        let big = profile("big3500").unwrap();
        let xl = profile("xl7000").unwrap();
        // c7552-scale and roughly double it
        assert!(big.gates >= 3000 && xl.gates >= 2 * big.gates - 1000);
        assert!(xl.scan_inputs() > big.scan_inputs());
        // stress extras must not leak into the paper's Table-1 suite
        for p in paper_suite() {
            assert_ne!(p.name, "big3500");
            assert_ne!(p.name, "xl7000");
        }
    }

    #[test]
    fn resistant_cones_scale_with_size() {
        let small = profile("c499").unwrap();
        let large = profile("s15850").unwrap();
        assert!(large.resistant_cones > small.resistant_cones);
        assert!(small.resistant_cones >= 1);
    }
}
