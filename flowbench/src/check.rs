//! Output checks that do not trust the engine under test: every
//! design is re-simulated gate by gate with `blasys_logic::sim` and
//! scored with a fresh `QorAccumulator`; SAT certificates are replayed
//! through the same simulator.

use blasys_core::qor::QorAccumulator;
use blasys_core::{CertifiedPoint, QorReport};
use blasys_logic::sim::eval_scalar_with;
use blasys_logic::{Netlist, Simulator};

/// Re-simulate `approx` against `golden` on `stimulus`
/// (`stimulus[input][block]`, 64 samples per block, in sample order)
/// and return the QoR report the flow should have recorded.
pub fn resimulate(golden: &Netlist, approx: &Netlist, stimulus: &[Vec<u64>]) -> QorReport {
    let mut sim_g = Simulator::new(golden);
    let mut sim_a = Simulator::new(approx);
    let mut acc = QorAccumulator::new(golden.num_outputs());
    let blocks = stimulus.first().map_or(0, Vec::len);
    let mut words = vec![0u64; stimulus.len()];
    for b in 0..blocks {
        for (w, input) in words.iter_mut().zip(stimulus) {
            *w = input[b];
        }
        let g = lane_values(sim_g.run(&words));
        let a = lane_values(sim_a.run(&words));
        for (g, a) in g.iter().zip(&a) {
            acc.push(*g, *a);
        }
    }
    acc.finish()
}

/// Unpack per-output words into the 64 per-sample output values.
fn lane_values(outputs: &[u64]) -> [u64; 64] {
    let mut values = [0u64; 64];
    for (o, word) in outputs.iter().enumerate() {
        for (lane, v) in values.iter_mut().enumerate() {
            *v |= (word >> lane & 1) << o;
        }
    }
    values
}

/// Check a chosen design: its re-simulated average relative and worst
/// absolute error reproduce the recorded report bit for bit, and the
/// driving metric stays within `threshold`.
pub fn design_matches(
    golden: &Netlist,
    approx: &Netlist,
    stimulus: &[Vec<u64>],
    recorded: &QorReport,
    driving: f64,
    threshold: f64,
) -> Result<(), String> {
    let got = resimulate(golden, approx, stimulus);
    if got.samples != recorded.samples
        || got.avg_relative.to_bits() != recorded.avg_relative.to_bits()
        || got.worst_absolute != recorded.worst_absolute
    {
        return Err(format!(
            "gate-level QoR (n={}, avg_rel={:e}, worst={}) differs from recorded \
             (n={}, avg_rel={:e}, worst={})",
            got.samples,
            got.avg_relative,
            got.worst_absolute,
            recorded.samples,
            recorded.avg_relative,
            recorded.worst_absolute
        ));
    }
    if driving > threshold {
        return Err(format!(
            "chosen design error {driving} exceeds threshold {threshold}"
        ));
    }
    Ok(())
}

/// Check a SAT certificate: it is consistent with the sampled bound,
/// its witness reproduces the certified worst case through the
/// simulator, and for inputs of at most 16 bits an exhaustive sweep
/// finds the same worst case.
pub fn certificate_holds(
    golden: &Netlist,
    approx: &Netlist,
    point: &CertifiedPoint,
) -> Result<(), String> {
    let cert = &point.certificate;
    if !point.consistent() {
        return Err(format!(
            "sampled worst {} exceeds certified worst {}",
            point.sampled_worst_absolute, cert.worst_absolute
        ));
    }
    let mut sim_g = Simulator::new(golden);
    let mut sim_a = Simulator::new(approx);
    match (&cert.witness, cert.worst_absolute) {
        (None, 0) => {}
        (Some(w), worst) if worst > 0 => {
            let row = w.first().copied().unwrap_or(0);
            let replayed =
                eval_scalar_with(&mut sim_g, row).abs_diff(eval_scalar_with(&mut sim_a, row));
            if replayed != worst {
                return Err(format!(
                    "witness replays to error {replayed}, certificate says {worst}"
                ));
            }
        }
        (w, worst) => return Err(format!("certificate of worst {worst} has witness {w:?}")),
    }
    let k = golden.num_inputs();
    if k <= 16 {
        // 64 input rows per simulated block; rows past 2^k (k < 6)
        // repeat valid rows, which cannot change the maximum.
        let mut exhaustive = 0u64;
        let mut words = vec![0u64; k];
        for base in (0..1u64 << k).step_by(64) {
            for (i, w) in words.iter_mut().enumerate() {
                *w = (0..64).fold(0, |acc, lane| acc | ((base + lane) >> i & 1) << lane);
            }
            let g = lane_values(sim_g.run(&words));
            let a = lane_values(sim_a.run(&words));
            exhaustive = g
                .iter()
                .zip(&a)
                .fold(exhaustive, |m, (g, a)| m.max(g.abs_diff(*a)));
        }
        if exhaustive != cert.worst_absolute {
            return Err(format!(
                "exhaustive worst {exhaustive} differs from certified {}",
                cert.worst_absolute
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blasys_core::CertifiedPoint;
    use blasys_logic::builder::{add, input_bus, mark_output_bus, Bus};
    use blasys_logic::sim::random_stimulus;

    /// A 4-bit adder, exact or with the low sum bit stuck at 0 (worst
    /// absolute error 1).
    fn adder4(stuck_lsb: bool) -> Netlist {
        let mut nl = Netlist::new("add4");
        let a = input_bus(&mut nl, "a", 4);
        let b = input_bus(&mut nl, "b", 4);
        let mut bits = add(&mut nl, &a, &b).bits().to_vec();
        if stuck_lsb {
            bits[0] = nl.constant(false);
        }
        mark_output_bus(&mut nl, "s", &Bus::from_bits(bits));
        nl
    }

    #[test]
    fn resimulation_reproduces_a_known_error() {
        let (golden, approx) = (adder4(false), adder4(true));
        let stim = random_stimulus(&golden, 4, 9);
        let exact = resimulate(&golden, &golden, &stim);
        assert_eq!(
            (exact.samples, exact.worst_absolute, exact.avg_relative),
            (256, 0, 0.0)
        );
        let got = resimulate(&golden, &approx, &stim);
        assert_eq!(got.worst_absolute, 1);
        assert!(design_matches(&golden, &approx, &stim, &got, got.avg_relative, 0.5).is_ok());
        // A recorded report the design does not reproduce is refused,
        // and so is a design over its threshold.
        let mut wrong = got;
        wrong.avg_relative = f64::from_bits(got.avg_relative.to_bits() + 1);
        assert!(design_matches(&golden, &approx, &stim, &wrong, got.avg_relative, 0.5).is_err());
        assert!(design_matches(&golden, &approx, &stim, &got, got.avg_relative, 0.0).is_err());
    }

    #[test]
    fn certificates_are_replayed_and_swept() {
        let (golden, approx) = (adder4(false), adder4(true));
        let point = CertifiedPoint::certify(0, &golden, &approx, 1);
        assert!(certificate_holds(&golden, &approx, &point).is_ok());
        let mut inflated = point.clone();
        inflated.certificate.worst_absolute = 2;
        assert!(certificate_holds(&golden, &approx, &inflated).is_err());
        let mut inconsistent = point;
        inconsistent.sampled_worst_absolute = 3;
        assert!(certificate_holds(&golden, &approx, &inconsistent).is_err());
    }
}
