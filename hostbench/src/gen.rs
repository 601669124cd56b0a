//! Seeded input generation.
//!
//! Everything a workload feeds the simulator — assembly sources,
//! stimulus lists, scenario JSON — is generated here from the
//! `--seed` argument and nothing else, with the benchmark's own
//! SplitMix64 (so a change to the simulator's RNGs cannot change the
//! inputs). The same seed gives byte-identical inputs; a different
//! seed changes phases, addresses, operation mixes and stimulus times
//! but never the shape: node counts, program lengths, horizons and
//! stimulus counts are constants.

use snap_apps::mac::{mac_boot, MAC, RX_DISPATCH_STUB};
use snap_apps::prelude::{install_handler, PRELUDE};
use std::fmt::Write as _;

/// Assembly modules of one program, in link order: `(name, source)`.
pub type Modules = Vec<(String, String)>;

/// SplitMix64: tiny, seedable, and independent of the simulator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the seed mixed with a stream tag,
    /// so workloads sharing a seed draw unrelated inputs.
    pub fn new(seed: u64, stream: &str) -> Rng {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for
    /// the small ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

fn modules(parts: &[(&str, &str)]) -> Modules {
    parts
        .iter()
        .map(|(n, s)| ((*n).to_string(), (*s).to_string()))
        .collect()
}

/// A MAC node's program: the repository's MAC layer with a
/// send-on-IRQ app, addressed `addr`, sending to `dst`. The same
/// modules `snap_apps::mac::mac_program` links.
fn mac_modules(addr: u8, dst: u8) -> Modules {
    let extra = install_handler("EV_IRQ", "app_send_irq");
    let app = format!(
        "{}{}",
        snap_apps::mac::send_on_irq_app(dst),
        RX_DISPATCH_STUB
    );
    modules(&[
        ("prelude.s", PRELUDE),
        ("boot.s", &mac_boot(addr, &extra)),
        ("mac.s", MAC),
        ("app.s", &app),
    ])
}

/// A stimulus: a sensor IRQ for the node at `node` (0-based insertion
/// index) at `at_ns` simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Irq {
    pub node: usize,
    pub at_ns: u64,
}

/// Radio range shared by the grid workloads, with an 8 m pitch: each
/// node hears its eight surrounding grid neighbours.
pub const RANGE: f64 = 12.0;
pub const PITCH: f64 = 8.0;

// ---------------------------------------------------------------- grid

/// Sleeper duty-cycle period, in timer ticks (µs).
pub const SLEEPER_PERIOD_US: u64 = 2_000;
/// Grid side: 320² = 102,400 nodes, just above
/// `snap_net::sim::AUTO_SHARDED_THRESHOLD` (100,000).
pub const GRID_SIDE: usize = 320;
pub const GRID_CLUSTERS: usize = 4;
pub const CLUSTER_NODES: usize = 6;
pub const GRID_HORIZON_US: u64 = 10_000;
/// MAC cluster burst period.
const GRID_BURST_US: u64 = 5_000;

/// `grid_sleepers` inputs. Insertion order: the MAC cluster nodes
/// first (`macs`, one `add_node` each), then every sleeper in one
/// `add_nodes_from` batch, in `sleeper_slots` order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridInputs {
    pub side: usize,
    pub horizon_us: u64,
    pub sleeper: Modules,
    /// `(grid slot, program)` per MAC node.
    pub macs: Vec<(usize, Modules)>,
    pub sleeper_slots: Vec<usize>,
    /// One kick IRQ per sleeper (node index = MAC count + sleeper
    /// index) and the MAC burst IRQs.
    pub irqs: Vec<Irq>,
}

/// The shared sleeper image: a sensing tick (count, synthesise a
/// sample, EWMA filter, accumulate, 4-tap moving average) that re-arms
/// its own timer. A kick IRQ starts the timer at the node's phase.
/// The seed picks the filter's shift amounts (same length either way).
fn sleeper_modules(rng: &mut Rng) -> Modules {
    let (mix, ewma) = (1 + rng.below(4), 1 + rng.below(3));
    let app = format!(
        r"
.data
ticks:  .word 0
ewma:   .word 0
acc:    .word 0
h0:     .word 0
h1:     .word 0
h2:     .word 0
h3:     .word 0
smooth: .word 0

.text
duty_timer:
    lw      r2, ticks(r0)
    addi    r2, 1
    sw      r2, ticks(r0)
    lw      r3, ewma(r0)
    mov     r4, r2
    slli    r4, {mix}
    xor     r4, r2
    add     r3, r4
    srli    r3, {ewma}
    sw      r3, ewma(r0)
    lw      r5, acc(r0)
    add     r5, r3
    sw      r5, acc(r0)
    lw      r4, h0(r0)
    lw      r5, h1(r0)
    lw      r6, h2(r0)
    lw      r7, h3(r0)
    sw      r3, h0(r0)
    sw      r4, h1(r0)
    sw      r5, h2(r0)
    sw      r6, h3(r0)
    add     r4, r5
    add     r6, r7
    add     r4, r6
    srli    r4, 2
    sw      r4, smooth(r0)
    li      r1, 0
    schedhi r1, r0
    li      r2, {SLEEPER_PERIOD_US}
    schedlo r1, r2
    done

kick_timer:
    li      r1, 0
    schedhi r1, r0
    li      r2, {SLEEPER_PERIOD_US}
    schedlo r1, r2
    done
"
    );
    let mut boot = String::from("boot:\n");
    boot.push_str(&install_handler("EV_TIMER0", "duty_timer"));
    boot.push_str(&install_handler("EV_IRQ", "kick_timer"));
    boot.push_str("    done\n");
    modules(&[("prelude.s", PRELUDE), ("boot.s", &boot), ("grid.s", &app)])
}

pub fn grid(seed: u64) -> GridInputs {
    let mut rng = Rng::new(seed, "grid_sleepers");
    let side = GRID_SIDE;
    let sleeper = sleeper_modules(&mut rng);
    // One cluster per horizontal band, at a seeded row in the band's
    // upper half and a seeded column: clusters stay at least half a
    // band (40 rows) out of each other's earshot.
    let band = side / GRID_CLUSTERS;
    let mut macs = Vec::new();
    let mut irqs = Vec::new();
    let mut taken = vec![false; side * side];
    for c in 0..GRID_CLUSTERS {
        let row = c * band + rng.below(band as u64 / 2) as usize;
        let col = rng.below((side - CLUSTER_NODES) as u64) as usize;
        // Seeded, distinct addresses within the cluster.
        let base = 1 + rng.below(200) as u8;
        let mut addrs: Vec<u8> = (0..CLUSTER_NODES as u8).map(|i| base + i).collect();
        rng.shuffle(&mut addrs);
        let skew = rng.below(400);
        for i in 0..CLUSTER_NODES {
            let slot = row * side + col + i;
            taken[slot] = true;
            let dst = addrs[(i + 1) % CLUSTER_NODES];
            let node = macs.len();
            macs.push((slot, mac_modules(addrs[i], dst)));
            for burst in 0..GRID_HORIZON_US.div_ceil(GRID_BURST_US) {
                let at_us = 1_000 + burst * GRID_BURST_US + skew + 700 * i as u64;
                irqs.push(Irq {
                    node,
                    at_ns: at_us * 1_000 + rng.below(50_000),
                });
            }
        }
    }
    let sleeper_slots: Vec<usize> = (0..side * side).filter(|&s| !taken[s]).collect();
    let period_ns = SLEEPER_PERIOD_US * 1_000;
    for i in 0..sleeper_slots.len() {
        irqs.push(Irq {
            node: macs.len() + i,
            at_ns: 1_000_000 + rng.below(period_ns),
        });
    }
    GridInputs {
        side,
        horizon_us: GRID_HORIZON_US,
        sleeper,
        macs,
        sleeper_slots,
        irqs,
    }
}

// --------------------------------------------------------------- serve

/// Distinct tenant scenarios per seed; the clients cycle through them.
pub const TENANTS: usize = 4;
pub const TENANT_MAC: u64 = 24;
pub const TENANT_BLINK: u64 = 4;
pub const TENANT_AVR: u64 = 4;
/// Long enough that a tenant's served time is large against the
/// status poll interval and the server's accept-loop wait.
pub const TENANT_RUN_US: u64 = 20_000_000;
/// AVR beacon period: fixed, so that the air traffic (and with it the
/// host cost per simulated second) is the same for every seed.
const TENANT_AVR_PERIOD_MS: u64 = 10;
/// Kick-off sends are staggered by at most this much.
const TENANT_STAGGER_MAX_US: u64 = 900;

/// `serve_mix` inputs: `POST /sims` bodies. Engine and scheduler are
/// left out, so the server's defaults apply.
pub fn serve(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, "serve_mix");
    (0..TENANTS)
        .map(|k| {
            // Extra sends on six distinct MAC nodes, one each, after
            // every node's kick-off packet has left the air: a second
            // send while the radio is still transmitting faults a node.
            let mut nodes: Vec<u64> = (1..=TENANT_MAC).collect();
            rng.shuffle(&mut nodes);
            let mut irqs = String::new();
            let first = 1_000 + TENANT_STAGGER_MAX_US * TENANT_MAC + 10_000;
            for (i, node) in nodes.iter().take(6).enumerate() {
                let at_us = first + rng.below(TENANT_RUN_US - 6_000 - first);
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(irqs, r#"{sep}{{"node":{node},"at_us":{at_us}}}"#);
            }
            format!(
                r#"{{"name":"tenant-{k}","mac_nodes":{TENANT_MAC},"blink_nodes":{TENANT_BLINK},"avr_nodes":{TENANT_AVR},"avr_period_ms":{TENANT_AVR_PERIOD_MS},"gateway":true,"battery":true,"range":12.0,"loss":0.05,"loss_seed":{},"stagger_us":{},"irqs":[{irqs}],"run_to_us":{TENANT_RUN_US}}}"#,
                rng.below(1 << 40),
                TENANT_STAGGER_MAX_US - rng.below(400),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(grid(7), grid(7));
        assert_eq!(serve(7), serve(7));
    }

    #[test]
    fn other_seed_changes_inputs_not_shape() {
        let (a, b) = (grid(1), grid(2));
        assert_ne!(a.irqs, b.irqs);
        assert_eq!(a.irqs.len(), b.irqs.len());
        assert_eq!(a.macs.len(), b.macs.len());
        assert_eq!(a.sleeper_slots.len(), b.sleeper_slots.len());
        assert!(a.macs.len() + a.sleeper_slots.len() > 100_000);

        let (a, b) = (serve(1), serve(2));
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn scenarios_parse_and_leave_engine_and_scheduler_alone() {
        for text in serve(3) {
            snap_serve::parse_scenario(&text).expect("scenario parses");
            assert!(!text.contains("engine") && !text.contains("scheduler"));
        }
    }

    #[test]
    fn every_program_assembles() {
        let asm = |m: &Modules| {
            let parts: Vec<(&str, &str)> =
                m.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
            snap_asm::assemble_modules(&parts).expect("assembles");
        };
        let g = grid(5);
        asm(&g.sleeper);
        g.macs.iter().for_each(|(_, m)| asm(m));
    }
}
