//! The output check: a fingerprint of simulated statistics.
//!
//! A speed-only change to the simulator must leave every simulated
//! statistic identical, so each run computes this fingerprint and
//! checks that every repetition inside the run reproduces it. Every
//! run also compares the shipped seed's fingerprint with the value
//! pinned below: a run on another seed computes it in one extra,
//! untimed pass, so a change that alters simulated results the same
//! way every time fails every run, whatever its seed.

use snap_net::NetworkSim;
use snap_node::{NodeId, NodeKind};
use snap_telemetry::Value;

/// The seed whose fingerprints are pinned.
pub const SHIPPED_SEED: u64 = 1;

/// Pinned fingerprints for [`SHIPPED_SEED`], as [`Fingerprint::render`]
/// prints them.
const PINS: [(&str, &str); 2] = [
    (
        "grid_sleepers",
        "instructions=12350080 energy_bits=41e37c96cf400000 wakeups=461251 handlers=461251 \
         deliveries=4 collisions=1097 faded=0 dmem=7cf9eb198c918b4b",
    ),
    (
        "serve_mix",
        "instructions=5776402 energy_bits=424c78995f648000 wakeups=345027 handlers=665027 \
         deliveries=16013 collisions=231236 faded=2450 dmem=66859d7c468af472",
    ),
];

pub fn pinned(workload: &str) -> Option<&'static str> {
    PINS.iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, pin)| *pin)
}

/// The paper's measured energy per instruction at 1.8 V (pJ). The
/// simulator's energy model is calibrated to the paper, not validated
/// against hardware: the benchmark's pJ/instruction beside this figure
/// is a calibration check only.
pub const PAPER_PJ_PER_INS_1V8: f64 = 218.0;

/// Simulated statistics of one or more fleets, summed in node order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub instructions: u64,
    /// Bits of the `f64` total energy in pJ, summed in node order.
    pub energy_bits: u64,
    pub wakeups: u64,
    pub handlers: u64,
    pub deliveries: u64,
    pub collisions: u64,
    pub faded: u64,
    /// FNV-style hash over every SNAP node's final DMEM.
    pub dmem_hash: u64,
}

/// Exact counters that are reported but not part of the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Extra {
    pub events_dropped: u64,
    pub queue_high_water: u64,
    pub nodes: u64,
    /// Bits of the `f64` instruction energy of SNAP cores alone (pJ):
    /// the fingerprint's total also holds AVR motes' energy.
    pub snap_energy_bits: u64,
}

impl Extra {
    /// SNAP instruction energy per SNAP instruction (pJ).
    pub fn pj_per_instr(&self, fp: &Fingerprint) -> f64 {
        if fp.instructions == 0 {
            0.0
        } else {
            f64::from_bits(self.snap_energy_bits) / fp.instructions as f64
        }
    }
}

const FNV_PRIME: u64 = 0x100_0000_01b3;
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

impl Fingerprint {
    pub fn energy_pj(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }

    pub fn render(&self) -> String {
        format!(
            "instructions={} energy_bits={:016x} wakeups={} handlers={} deliveries={} \
             collisions={} faded={} dmem={:016x}",
            self.instructions,
            self.energy_bits,
            self.wakeups,
            self.handlers,
            self.deliveries,
            self.collisions,
            self.faded,
            self.dmem_hash
        )
    }

    pub fn to_json(self) -> Value {
        let mut v = Value::obj();
        v.set("instructions", Value::Int(self.instructions as i64))
            .set(
                "energy_bits",
                Value::Str(format!("{:016x}", self.energy_bits)),
            )
            .set("energy_pj", Value::Float(self.energy_pj()))
            .set("wakeups", Value::Int(self.wakeups as i64))
            .set("handlers", Value::Int(self.handlers as i64))
            .set("deliveries", Value::Int(self.deliveries as i64))
            .set("collisions", Value::Int(self.collisions as i64))
            .set("faded", Value::Int(self.faded as i64))
            .set("dmem_hash", Value::Str(format!("{:016x}", self.dmem_hash)));
        v
    }

    /// Fold one more fleet in, continuing the energy sum and the DMEM
    /// hash in order.
    pub fn absorb(&mut self, sim: &NetworkSim, extra: &mut Extra) {
        let mut energy = self.energy_pj();
        let mut snap_energy = f64::from_bits(extra.snap_energy_bits);
        let mut hash = if self.dmem_hash == 0 {
            FNV_BASIS
        } else {
            self.dmem_hash
        };
        for n in 1..=sim.node_count() as u32 {
            let node = sim.node(NodeId(n));
            extra.nodes += 1;
            if node.kind() == NodeKind::Avr {
                let mote = node.avr().expect("avr node has a mote");
                energy += mote.active_energy().as_pj();
                continue;
            }
            let cpu = node.cpu();
            let s = cpu.stats();
            self.instructions += s.instructions;
            energy += s.energy.as_pj();
            snap_energy += s.energy.as_pj();
            self.wakeups += s.wakeups;
            self.handlers += s.handlers_dispatched;
            extra.events_dropped += s.events_dropped;
            extra.queue_high_water = extra.queue_high_water.max(cpu.queue_high_water() as u64);
            for chunk in cpu.dmem().as_words().chunks(4) {
                let w = chunk
                    .iter()
                    .fold(0u64, |acc, &x| (acc << 16) | u64::from(x));
                hash = (hash ^ w).wrapping_mul(FNV_PRIME);
            }
        }
        let ch = sim.channel();
        self.deliveries += ch.deliveries();
        self.collisions += ch.collisions();
        self.faded += ch.faded();
        self.energy_bits = energy.to_bits();
        extra.snap_energy_bits = snap_energy.to_bits();
        self.dmem_hash = hash;
    }

    pub fn of(sim: &NetworkSim) -> (Fingerprint, Extra) {
        let mut fp = Fingerprint::default();
        let mut extra = Extra::default();
        fp.absorb(sim, &mut extra);
        (fp, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_pin() {
        for w in crate::WORKLOADS {
            let pin = pinned(w).expect("pinned");
            assert!(pin.starts_with("instructions="), "{w}: {pin}");
        }
    }
}
