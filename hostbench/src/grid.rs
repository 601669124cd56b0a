//! The in-process fleet workload: `grid_sleepers`.
//!
//! One cycle = set-up (assemble every image, construct the fleet,
//! schedule its stimuli) + `run_until` the horizon + tear-down. The
//! benchmark repeats cycles for the measured time and reports medians.
//! In a traced run, cycles alternate untraced and traced; a traced
//! cycle cuts `run_until` into equal simulated slices
//! ([`TRACED_SLICES`]) and records a span around every call into a
//! crate.

use crate::fingerprint::{Extra, Fingerprint};
use crate::gen::{self, GridInputs, Modules, PITCH, RANGE};
use crate::report::{peak_rss_mb, rss_bytes, Outcome};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use dess::{SimDuration, SimTime};
use snap_asm::Program;
use snap_core::{CoreConfig, Processor};
use snap_net::{NetworkSim, Position, Stimulus};
use snap_node::NodeId;
use std::time::{Duration, Instant};

/// Cycles a run makes even when the measured time is short.
const MIN_CYCLES: usize = 3;

/// Equal simulated slices a traced cycle cuts the horizon into.
/// Every `run_until` call on a sharded fleet re-partitions it
/// (hundreds of ms at 10⁵ nodes), so the grid is cut only in two.
const TRACED_SLICES: u64 = 2;

fn horizon(g: &GridInputs) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(g.horizon_us)
}

/// Every image: the shared sleeper first, then one per MAC node.
fn images(g: &GridInputs) -> Vec<&Modules> {
    std::iter::once(&g.sleeper)
        .chain(g.macs.iter().map(|(_, m)| m))
        .collect()
}

fn assemble(m: &Modules) -> Program {
    let parts: Vec<(&str, &str)> = m.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    snap_asm::assemble_modules(&parts).expect("generated program assembles")
}

fn grid_position(slot: usize, side: usize) -> Position {
    Position::new((slot % side) as f64 * PITCH, (slot / side) as f64 * PITCH)
}

/// Timings of one cycle's set-up phases, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Setup {
    asm: f64,
    build: f64,
    schedule: f64,
    rss_build: u64,
}

/// Set-up: seed-generated inputs to a ready fleet. Insertion order:
/// the MAC cluster nodes, then every sleeper in one batch.
fn build(g: &GridInputs, tr: &mut Tracer, req: u64) -> (NetworkSim, Setup) {
    let mut setup = Setup::default();
    let t = Instant::now();
    let span = tr.begin("snap-asm.assemble_modules", req);
    let programs: Vec<Program> = images(g).into_iter().map(assemble).collect();
    tr.end(span, &[("images", programs.len() as i64)]);
    setup.asm = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rss0 = rss_bytes();
    let span = tr.begin("snap-net.build", req);
    let mut sim = NetworkSim::new(RANGE);
    let mut ids: Vec<NodeId> = g
        .macs
        .iter()
        .zip(&programs[1..])
        .map(|((slot, _), p)| sim.add_node(p, grid_position(*slot, g.side)))
        .collect();
    ids.extend(sim.add_nodes_from(
        &programs[0],
        CoreConfig::default(),
        g.sleeper_slots.iter().map(|&s| grid_position(s, g.side)),
    ));
    tr.end(span, &[("nodes", ids.len() as i64)]);
    setup.rss_build = rss_bytes().saturating_sub(rss0);
    setup.build = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let span = tr.begin("snap-net.schedule", req);
    for irq in &g.irqs {
        sim.schedule(
            ids[irq.node],
            SimTime::from_ps(irq.at_ns * 1_000),
            Stimulus::SensorIrq,
        );
    }
    tr.end(span, &[("calls", g.irqs.len() as i64)]);
    setup.schedule = t.elapsed().as_secs_f64();
    (sim, setup)
}

/// Run to the horizon: one `run_until` call, or `slices` of them
/// when tracing. Returns host seconds and the per-slice seconds.
fn run(
    sim: &mut NetworkSim,
    horizon: SimTime,
    slices: u64,
    tr: &mut Tracer,
    req: u64,
) -> (f64, Vec<f64>) {
    let t = Instant::now();
    let mut times = Vec::new();
    if tr.enabled() {
        let span = tr.begin("snap-net.run", req);
        for k in 1..=slices {
            let at = SimTime::from_ps(horizon.as_ps() / slices * k);
            let ts = Instant::now();
            let slice = tr.begin("snap-net.run_until", req);
            sim.run_until(at).expect("fleet runs without a node fault");
            tr.end(slice, &[]);
            times.push(ts.elapsed().as_secs_f64());
        }
        tr.end(span, &[("slices", slices as i64)]);
        assert_eq!(sim.now(), horizon);
    } else {
        sim.run_until(horizon)
            .expect("fleet runs without a node fault");
    }
    (t.elapsed().as_secs_f64(), times)
}

/// Host nanoseconds per simulated instruction of `image` on a bare
/// `Processor` — the core alone, with no node, scheduler or channel.
/// A kick IRQ starts the image's timer; the core is then
/// fast-forwarded from one timer expiry to the next.
fn solo_ns_per_instr(image: &Program) -> f64 {
    const TARGET_INSTRUCTIONS: u64 = 2_000_000;
    const STEPS: u64 = 1 << 24;
    let mut cpu = Processor::new(CoreConfig::default());
    cpu.load_image(0, &image.imem_image())
        .expect("image fits IMEM");
    cpu.load_data(0, &image.dmem_image())
        .expect("image fits DMEM");
    cpu.run_until_idle(STEPS).expect("boot runs");
    cpu.post_sensor_irq();
    cpu.run_until_idle(STEPS).expect("kick runs");
    let start_instr = cpu.stats().instructions;
    let t = Instant::now();
    while cpu.stats().instructions - start_instr < TARGET_INSTRUCTIONS {
        let due = cpu
            .next_timer_expiry()
            .expect("the sleeper image re-arms its timer");
        cpu.advance_idle(due);
        cpu.run_until_idle(STEPS).expect("timer handler runs");
    }
    let ns = t.elapsed().as_nanos() as f64;
    ns / (cpu.stats().instructions - start_instr) as f64
}

/// The fingerprint of one untimed cycle on `seed`'s inputs.
pub fn fingerprint(seed: u64) -> Fingerprint {
    let g = gen::grid(seed);
    let mut off = Tracer::new(false, Instant::now(), 1, "main");
    let (mut sim, _) = build(&g, &mut off, 0);
    sim.run_until(horizon(&g))
        .expect("fleet runs without a node fault");
    Fingerprint::of(&sim).0
}

/// Run the workload for `seconds` and report.
pub fn measure(seed: u64, seconds: u64, traced: bool, origin: Instant) -> Outcome {
    let inputs = gen::grid(seed);
    let horizon = horizon(&inputs);
    let mut tr = Tracer::new(traced, origin, 1, "main");
    let mut off = Tracer::new(false, origin, 1, "main");
    let mut out = Outcome::new("grid_sleepers");

    let (mut setups, mut runs, mut cycles_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_setups, mut traced_runs, mut slice_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_rss_build = None;
    let mut reference: Option<(Fingerprint, Extra)> = None;
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut cycle = 0u64;
    while start.elapsed() < deadline
        || (setups.len() < MIN_CYCLES)
        || (traced && traced_runs.len() < MIN_CYCLES)
    {
        // Traced runs alternate: even cycles traced, odd untraced. The
        // first cycle is traced so that its RSS growth across the build
        // is measured in a process that has freed no fleet yet.
        let tracing = traced && cycle.is_multiple_of(2);
        let t = if tracing { &mut tr } else { &mut off };
        let root = t.begin("cycle", cycle);
        let t0 = Instant::now();
        let (mut sim, setup) = build(&inputs, t, cycle);
        let setup_s = t0.elapsed().as_secs_f64();
        let (run_s, slices) = run(&mut sim, horizon, TRACED_SLICES, t, cycle);
        let span = t.begin("snap-net.stats", cycle);
        let fp = Fingerprint::of(&sim);
        t.end(span, &[]);
        let t1 = Instant::now();
        drop(sim);
        let teardown_s = t1.elapsed().as_secs_f64();
        t.end(root, &[]);

        out.attempted += 1;
        match &reference {
            None => reference = Some(fp),
            Some(r) if *r != fp => {
                out.failed += 1;
                out.fail(format!(
                    "cycle {cycle}: fingerprint {} differs from the first cycle's {}",
                    fp.0.render(),
                    r.0.render()
                ));
            }
            Some(_) => {}
        }
        if tracing {
            traced_setups.push(setup);
            traced_runs.push(run_s);
            slice_s.extend(slices);
            first_rss_build.get_or_insert(setup.rss_build);
        } else {
            setups.push(setup_s);
            runs.push(run_s);
            cycles_s.push(setup_s + run_s + teardown_s);
        }
        cycle += 1;
    }

    let (fp, extra) = reference.expect("at least one cycle");
    let run_s = median(&runs);
    out.e2e("setup_s", median(&setups), "s");
    out.e2e("run_s", run_s, "s");
    out.e2e("sim_instr_per_s", fp.instructions as f64 / run_s, "1/s");
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    out.e2e("sims_per_s", 1.0 / median(&cycles_s), "1/s");
    out.samples = format!("{} untraced cycles", runs.len());
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes
        .push(format!("setup_s samples (ms): {}", ms(&setups)));
    out.notes.push(format!("run_s samples (ms): {}", ms(&runs)));
    out.set_fingerprint(fp, extra);

    if traced {
        let images = images(&inputs).len() as f64;
        let nodes = extra.nodes as f64;
        let asm_s = median(&traced_setups.iter().map(|s| s.asm).collect::<Vec<_>>());
        let build_s = median(&traced_setups.iter().map(|s| s.build).collect::<Vec<_>>());
        let sched_s = median(&traced_setups.iter().map(|s| s.schedule).collect::<Vec<_>>());
        let traced_run = median(&traced_runs);
        out.layer("snap-asm.images", images);
        out.layer("snap-asm.s", asm_s);
        out.layer("snap-asm.ms_per_image", asm_s * 1e3 / images);
        out.layer("snap-net.build.nodes", nodes);
        out.layer("snap-net.build.s", build_s);
        out.layer("snap-net.build.us_per_node", build_s * 1e6 / nodes);
        out.layer(
            "snap-net.build.rss_bytes_per_node",
            first_rss_build.unwrap_or(0) as f64 / nodes,
        );
        out.layer("snap-net.schedule.calls", inputs.irqs.len() as f64);
        out.layer("snap-net.schedule.s", sched_s);
        let s = summarize(&slice_s);
        out.layer("snap-net.run.slices", s.count as f64);
        out.layer("snap-net.run.slice_p50_ms", s.p50 * 1e3);
        out.layer("snap-net.run.slice_tail_ms", s.tail * 1e3);
        out.layer("snap-net.run.slice_tail_pct", s.tail_pct);
        let per = |n: u64| {
            if n == 0 {
                0.0
            } else {
                traced_run * 1e9 / n as f64
            }
        };
        out.layer("snap-net.run.ns_per_wakeup", per(fp.wakeups));
        out.layer(
            "snap-net.run.ns_per_channel_event",
            per(fp.deliveries + fp.collisions),
        );
        let span = tr.begin("snap-core.solo", cycle);
        let solo = solo_ns_per_instr(&assemble(&inputs.sleeper));
        tr.end(span, &[]);
        out.layer("snap-core.solo_ns_per_instr", solo);
        out.layer(
            "snap-core.share_of_run",
            fp.instructions as f64 * solo / (run_s * 1e9),
        );
        out.layer("trace.overhead_ratio", traced_run / run_s);
        out.set_tracers(vec![tr]);
    }
    out
}
