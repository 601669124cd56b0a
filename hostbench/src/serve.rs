//! `serve_mix`: snap-serve over loopback HTTP under a closed loop of
//! two clients.
//!
//! Each client repeats one tenant cycle: submit a seeded scenario
//! (`POST /sims`), poll `GET /sims/{id}` every [`POLL`] until it is
//! done — forking it (`POST /sims/{id}/fork`) once it is half-way —
//! then download its snapshot, upload it to `POST /sims/restore`,
//! re-download the restored sim's snapshot, resume the fork and poll
//! it to the end. Every sim is deleted after its cycle. Two clients,
//! each with one request in flight, keep at most two connections open.
//! A tenant runs for about a host second, so the poll interval and
//! the server's accept-loop wait are a small share of its served time.
//!
//! Output checks: every served tenant ends with exactly the per-node
//! instruction counts, energy bits and channel counts of the same
//! scenario run in-process (`snap_serve::scenario::build` +
//! `run_until`); each restored sim re-downloads byte-identical; each
//! fork made before its parent finished ends with its parent's counts,
//! and a run in which no fork was made mid-run fails.

use crate::fingerprint::{Extra, Fingerprint};
use crate::gen;
use crate::report::{peak_rss_mb, Outcome, ENDPOINTS};
use crate::stats::{mean, median, summarize};
use crate::trace::Tracer;
use dess::{SimDuration, SimTime};
use snap_node::{NodeId, NodeKind};
use snap_serve::{parse_scenario, SimServer};
use snap_telemetry::{parse, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Status polling interval.
const POLL: Duration = Duration::from_millis(10);
const CLIENTS: usize = 2;
/// Server starts timed for `setup_s`.
const SETUP_REPS: usize = 101;

/// The final per-node state a tenant is checked on: instruction count
/// (SNAP cores) and energy bits per node, then the channel counts.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outputs {
    per_node: Vec<(i64, String)>,
    channel: [i64; 3],
}

impl Outputs {
    fn from_status(v: &Value) -> Option<Outputs> {
        let per_node = v
            .get("per_node")?
            .elements()?
            .iter()
            .map(|n| {
                Some((
                    n.get("instructions").and_then(Value::as_i64).unwrap_or(0),
                    n.get("energy_bits")?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let count = |k: &str| v.get(k).and_then(Value::as_i64);
        Some(Outputs {
            per_node,
            channel: [count("deliveries")?, count("collisions")?, count("faded")?],
        })
    }

    fn instructions(&self) -> u64 {
        self.per_node.iter().map(|(i, _)| *i as u64).sum()
    }
}

/// One scenario run in-process, the reference for its served runs.
struct Direct {
    outputs: Outputs,
    seconds: f64,
}

fn run_direct(text: &str, fp: &mut Fingerprint, extra: &mut Extra) -> Direct {
    let s = parse_scenario(text).expect("generated scenario parses");
    let t = Instant::now();
    let mut sim = snap_serve::scenario::build(&s).expect("scenario builds");
    sim.run_until(SimTime::ZERO + SimDuration::from_us(s.run_to_us))
        .expect("scenario runs without a node fault");
    let seconds = t.elapsed().as_secs_f64();
    let per_node = (1..=sim.node_count() as u32)
        .map(|n| {
            let node = sim.node(NodeId(n));
            let (instr, energy) = match node.kind() {
                NodeKind::Avr => (0, node.avr().expect("avr mote").active_energy()),
                _ => {
                    let st = node.cpu().stats();
                    (st.instructions as i64, st.energy)
                }
            };
            (instr, format!("{:016x}", energy.as_pj().to_bits()))
        })
        .collect();
    let ch = sim.channel();
    let channel = [
        ch.deliveries() as i64,
        ch.collisions() as i64,
        ch.faded() as i64,
    ];
    fp.absorb(&sim, extra);
    Direct {
        outputs: Outputs { per_node, channel },
        seconds,
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes
/// after every response). Returns the status code and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body))
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without a header end")?;
    let code = std::str::from_utf8(&buf[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1)?.parse::<u16>().ok())
        .ok_or("bad status line")?;
    Ok((code, buf[split + 4..].to_vec()))
}

/// One timed request, as one client saw it.
struct Call {
    endpoint: &'static str,
    seconds: f64,
    ok: bool,
}

/// One completed tenant.
struct Tenant {
    scenario: usize,
    /// From the `POST /sims` reply to the poll that saw it done.
    served: f64,
    outputs: Outputs,
    /// Served in a traced cycle.
    traced: bool,
}

/// One client's view of the load phase.
struct Client {
    addr: SocketAddr,
    tr: Tracer,
    calls: Vec<Call>,
    /// Failed checks and aborted tenant cycles, one line each.
    failures: Vec<String>,
    /// Tenant cycles started.
    cycles: u64,
    /// Checks made (restore identity, fork comparison).
    checks: u64,
    tenants: Vec<Tenant>,
    checkpoints: Vec<f64>,
    snapshot_bytes: Vec<usize>,
    restore_identical: u64,
    restore_attempted: u64,
    /// Forks made before their parent reached its target.
    forks_mid_run: u64,
    /// Completed sims: tenants, restored sims and forks.
    completed: u64,
    /// Host seconds of this client's loop.
    wall: f64,
}

impl Client {
    fn call(
        &mut self,
        endpoint: &'static str,
        req: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, String> {
        let span = self.tr.begin(endpoint, req);
        let t = Instant::now();
        let r = http(self.addr, method, path, body);
        let seconds = t.elapsed().as_secs_f64();
        self.tr.end(span, &[("bytes", body.len() as i64)]);
        let ok = matches!(r, Ok((200, _)));
        self.calls.push(Call {
            endpoint,
            seconds,
            ok,
        });
        match r {
            Ok((200, b)) => Ok(b),
            Ok((code, b)) => Err(format!(
                "{method} {path}: HTTP {code}: {}",
                String::from_utf8_lossy(&b)
            )),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }

    fn json(
        &mut self,
        endpoint: &'static str,
        req: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Value, String> {
        let b = self.call(endpoint, req, method, path, body)?;
        parse(&String::from_utf8_lossy(&b)).map_err(|e| format!("{path}: {e}"))
    }

    fn id(
        &mut self,
        endpoint: &'static str,
        req: u64,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<i64, String> {
        self.json(endpoint, req, method, path, body)?
            .get("id")
            .and_then(Value::as_i64)
            .ok_or(format!("{path}: reply without an id"))
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Poll a sim until it is done; `fork_at_us` forks it once its
    /// clock passes that instant. Returns the final status and the
    /// fork's id.
    fn poll_done(
        &mut self,
        req: u64,
        id: i64,
        mut fork_at_us: Option<i64>,
    ) -> Result<(Value, Option<i64>), String> {
        let mut fork = None;
        loop {
            std::thread::sleep(POLL);
            let v = self.json("get_status", req, "GET", &format!("/sims/{id}"), b"")?;
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            let now = v.get("now_us").and_then(Value::as_i64).unwrap_or(0);
            if fork_at_us.is_some_and(|at| now >= at || state == "done") {
                fork_at_us = None;
                fork = Some(self.id("post_fork", req, "POST", &format!("/sims/{id}/fork"), b"")?);
            }
            match state {
                "done" => return Ok((v, fork)),
                "faulted" => return Err(format!("sim {id} faulted: {:?}", v.get("fault"))),
                _ => {}
            }
        }
    }

    /// One tenant cycle, inside its root span.
    fn cycle(&mut self, req: u64, k: usize, text: &str) -> Result<(), String> {
        let root = self.tr.begin("tenant", req);
        let r = self.tenant(req, k, text);
        self.tr.end(root, &[("scenario", k as i64)]);
        r
    }

    fn tenant(&mut self, req: u64, k: usize, text: &str) -> Result<(), String> {
        let t = Instant::now();
        let id = self.id("post_sims", req, "POST", "/sims", text.as_bytes())?;
        let submitted = t.elapsed();
        let (done, fork) = self.poll_done(req, id, Some(gen::TENANT_RUN_US as i64 / 2))?;
        let served = (t.elapsed() - submitted).as_secs_f64();
        let parent = Outputs::from_status(&done).ok_or("status without per-node counts")?;
        self.tenants.push(Tenant {
            scenario: k,
            served,
            outputs: parent.clone(),
            traced: self.tr.enabled(),
        });
        self.completed += 1;

        let t = Instant::now();
        let snap = self.call(
            "get_snapshot",
            req,
            "GET",
            &format!("/sims/{id}/snapshot"),
            b"",
        )?;
        let rid = self.id("post_restore", req, "POST", "/sims/restore", &snap)?;
        self.checkpoints.push(t.elapsed().as_secs_f64());
        self.snapshot_bytes.push(snap.len());
        let again = self.call(
            "get_snapshot",
            req,
            "GET",
            &format!("/sims/{rid}/snapshot"),
            b"",
        )?;
        self.restore_attempted += 1;
        let same = again == snap;
        self.restore_identical += u64::from(same);
        self.check(same, || {
            format!("sim {rid}: restored snapshot differs from sim {id}'s")
        });
        self.completed += 1;

        let fid = fork.ok_or("tenant finished without a fork")?;
        // A fork is parked where it was made: its clock says whether
        // it was made mid-run or from the finished parent.
        let forked_at = self
            .json("get_status", req, "GET", &format!("/sims/{fid}"), b"")?
            .get("now_us")
            .and_then(Value::as_i64)
            .ok_or("fork status without now_us")?;
        let mid_run = forked_at < gen::TENANT_RUN_US as i64;
        self.forks_mid_run += u64::from(mid_run);
        self.call(
            "post_resume",
            req,
            "POST",
            &format!("/sims/{fid}/resume"),
            b"",
        )?;
        let (fork_done, _) = self.poll_done(req, fid, None)?;
        let forked = Outputs::from_status(&fork_done).ok_or("fork status without counts")?;
        if mid_run {
            self.check(forked == parent, || {
                format!("fork {fid} ended with other counts than sim {id}")
            });
        }
        self.completed += 1;

        for sim in [id, rid, fid] {
            self.call("delete", req, "DELETE", &format!("/sims/{sim}"), b"")?;
        }
        Ok(())
    }
}

/// Run the closed loop until `deadline`. Clients take scenarios
/// round-robin, client `c` starting at scenario `c`. A traced run
/// traces every other cycle of each client.
fn load(
    addr: SocketAddr,
    scenarios: &[String],
    deadline: Instant,
    traced: bool,
    origin: Instant,
) -> Vec<Client> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client {
                        addr,
                        tr: Tracer::new(false, origin, 2 + c as i64, &format!("client {c}")),
                        calls: Vec::new(),
                        failures: Vec::new(),
                        cycles: 0,
                        checks: 0,
                        tenants: Vec::new(),
                        checkpoints: Vec::new(),
                        snapshot_bytes: Vec::new(),
                        restore_identical: 0,
                        restore_attempted: 0,
                        forks_mid_run: 0,
                        completed: 0,
                        wall: 0.0,
                    };
                    let start = Instant::now();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        client.tr.set_enabled(traced && n % 2 == 1);
                        let k = (c + CLIENTS * n as usize) % scenarios.len();
                        let req = (c as u64) << 32 | n;
                        client.cycles += 1;
                        if let Err(e) = client.cycle(req, k, &scenarios[k]) {
                            client.failures.push(e);
                        }
                        n += 1;
                    }
                    client.wall = start.elapsed().as_secs_f64();
                    client
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The fingerprint of one in-process run of each of `seed`'s tenant
/// scenarios.
pub fn fingerprint(seed: u64) -> Fingerprint {
    let (mut fp, mut extra) = (Fingerprint::default(), Extra::default());
    for s in gen::serve(seed) {
        run_direct(&s, &mut fp, &mut extra);
    }
    fp
}

/// Server start to the first accepted request: a fresh server, then
/// the first `POST /sims` answered with an id.
fn time_setup(scenario: &str) -> Result<f64, String> {
    let t = Instant::now();
    let server = Arc::new(SimServer::new());
    let mut handle =
        snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let (code, body) = http(handle.addr(), "POST", "/sims", scenario.as_bytes())?;
    let seconds = t.elapsed().as_secs_f64();
    handle.shutdown();
    server.shutdown();
    if code != 200 {
        return Err(format!(
            "first POST /sims: HTTP {code}: {}",
            String::from_utf8_lossy(&body)
        ));
    }
    Ok(seconds)
}

pub fn measure(seed: u64, seconds: u64, traced: bool, origin: Instant) -> Outcome {
    let scenarios = gen::serve(seed);
    let mut out = Outcome::new("serve_mix");
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        out.attempted += 1;
        match time_setup(&scenarios[0]) {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
    }

    let server = Arc::new(SimServer::new());
    let mut handle = snap_serve::serve(Arc::clone(&server), "127.0.0.1:0").expect("bind loopback");
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let clients = load(handle.addr(), &scenarios, deadline, traced, origin);
    handle.shutdown();
    server.shutdown();

    // The in-process reference for every scenario.
    let (mut fp, mut extra) = (Fingerprint::default(), Extra::default());
    let direct: Vec<Direct> = scenarios
        .iter()
        .map(|s| run_direct(s, &mut fp, &mut extra))
        .collect();

    let mut completed = 0;
    for c in &clients {
        // Operations: requests, checks and whole tenant cycles; a
        // failed request also aborts its cycle.
        out.attempted += c.calls.len() as u64 + c.checks + c.cycles;
        out.failed += c.calls.iter().filter(|x| !x.ok).count() as u64 + c.failures.len() as u64;
        for f in &c.failures {
            out.fail(f.clone());
        }
        for t in &c.tenants {
            out.check(t.outputs == direct[t.scenario].outputs, || {
                format!(
                    "served tenant-{} differs from its in-process run",
                    t.scenario
                )
            });
        }
        completed += c.completed;
    }
    let tenants: Vec<&Tenant> = clients.iter().flat_map(|c| &c.tenants).collect();
    let mid_run: u64 = clients.iter().map(|c| c.forks_mid_run).sum();
    out.check(mid_run > 0, || {
        format!(
            "none of {} forks was made before its parent finished",
            tenants.len()
        )
    });
    out.notes.push(format!(
        "forks made mid-run: {mid_run} of {}",
        tenants.len()
    ));

    // Served times are means, not medians: two tenants share the CPUs
    // unevenly from one cycle to the next, which spreads single
    // tenants widely but leaves their sum steady. In a traced run the
    // end-to-end figures come from the untraced cycles.
    let plain: Vec<&Tenant> = tenants.iter().copied().filter(|t| !t.traced).collect();
    let plain_s: Vec<f64> = plain.iter().map(|t| t.served).collect();
    let plain_instructions: u64 = plain.iter().map(|t| t.outputs.instructions()).sum();
    out.e2e("setup_s", median(&setups), "s");
    let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    out.notes
        .push(format!("setup_s samples (ms): {}", ms.join(" ")));
    out.e2e("run_s", mean(&plain_s), "s");
    out.e2e(
        "sim_instr_per_s",
        plain_instructions as f64 / plain_s.iter().sum::<f64>(),
        "1/s",
    );
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    // Each client's rate over its own loop, so a client that finishes
    // its last cycle early does not idle inside the other's time.
    let sims_per_s: f64 = clients.iter().map(|c| c.completed as f64 / c.wall).sum();
    out.e2e("sims_per_s", sims_per_s, "1/s");
    out.samples = format!(
        "{} server starts, {} untraced tenants, {completed} completed sims, {CLIENTS} clients",
        setups.len(),
        plain_s.len()
    );
    let ms: Vec<String> = plain_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    out.notes
        .push(format!("run_s samples (ms): {}", ms.join(" ")));
    out.set_fingerprint(fp, extra);

    // Serve-path figures, from every cycle: a span costs nothing next
    // to an HTTP request.
    let s = summarize(&endpoint_samples(&clients, "get_status"));
    let checkpoints: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.checkpoints.iter().copied())
        .collect();
    out.notes.push(format!(
        "status: p50 {:.3} ms, p{} {:.3} ms over {} polls; checkpoint p50 {:.3} ms over {}",
        s.p50 * 1e3,
        s.tail_pct,
        s.tail * 1e3,
        s.count,
        median(&checkpoints) * 1e3,
        checkpoints.len()
    ));
    out.layer("status_p50_ms", s.p50 * 1e3);
    out.layer("status_tail_ms", s.tail * 1e3);
    out.layer("status_tail_pct", s.tail_pct);
    out.layer("status_samples", s.count as f64);
    out.layer("checkpoint_p50_ms", median(&checkpoints) * 1e3);
    if !traced {
        return out;
    }

    for ep in ENDPOINTS {
        let s = summarize(&endpoint_samples(&clients, ep));
        let errors = clients
            .iter()
            .flat_map(|c| c.calls.iter())
            .filter(|x| x.endpoint == ep && !x.ok)
            .count();
        out.layer(&format!("snap-serve.{ep}.count"), s.count as f64);
        out.layer(&format!("snap-serve.{ep}.p50_ms"), s.p50 * 1e3);
        out.layer(&format!("snap-serve.{ep}.tail_ms"), s.tail * 1e3);
        out.layer(&format!("snap-serve.{ep}.tail_pct"), s.tail_pct);
        out.layer(&format!("snap-serve.{ep}.errors"), errors as f64);
    }
    out.layer("snap-serve.post_fork.mid_run", mid_run as f64);
    let direct_s: f64 = tenants.iter().map(|t| direct[t.scenario].seconds).sum();
    out.layer("snap-serve.direct_s", direct_s);
    out.layer(
        "snap-serve.overhead_ratio",
        tenants.iter().map(|t| t.served).sum::<f64>() / direct_s,
    );
    let nodes = (gen::TENANT_MAC + gen::TENANT_BLINK + gen::TENANT_AVR + 1) as f64;
    let bytes: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.snapshot_bytes.iter().map(|&b| b as f64 / nodes))
        .collect();
    out.layer("snap-snapshot.bytes_per_node", median(&bytes));
    let total = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>() as f64;
    out.layer(
        "snap-snapshot.restore_identical",
        total(|c| c.restore_identical),
    );
    out.layer(
        "snap-snapshot.restore_attempted",
        total(|c| c.restore_attempted),
    );
    let traced_s: Vec<f64> = tenants
        .iter()
        .filter(|t| t.traced)
        .map(|t| t.served)
        .collect();
    out.layer("trace.overhead_ratio", mean(&traced_s) / mean(&plain_s));
    out.notes.push(format!(
        "traced cycles: {} tenants, {} untraced",
        traced_s.len(),
        plain_s.len()
    ));
    out.set_tracers(clients.into_iter().map(|c| c.tr).collect());
    out
}

fn endpoint_samples(clients: &[Client], endpoint: &str) -> Vec<f64> {
    clients
        .iter()
        .flat_map(|c| c.calls.iter())
        .filter(|x| x.endpoint == endpoint && x.ok)
        .map(|x| x.seconds)
        .collect()
}
