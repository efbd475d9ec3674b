//! End-to-end benchmark driver.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s>`.
//!
//! Starts `perfserve` (the system under test) as a child process and
//! drives it from this process over HTTP only: `/healthz`,
//! `/admin/reload`, `/predict`. Every response is checked (see
//! `reference.rs` and the per-workload checks below). The last stdout
//! line is the JSON result with `setup_s`, `peak_rss_mb`, `op_p50_ms`
//! and `op_cpu_ms`; a provenance line and the unbounded tail
//! percentile are printed just before it.

use nd_core::checkpoint::load_checkpoint;
use nd_core::incremental::StreamPipeline;
use nd_core::pipeline::Pipeline;
use nd_core::predict::build_mlp;
use nd_linalg::Mat;
use nd_perfbench::{self as pb, reference};
use nd_serve::{loadgen, Client};
use nd_store::Database;
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median (`stream_advance` sets
/// up once per round instead).
const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics with their units, in `BENCHMARK.json` order.
const METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_cpu_ms", "ms"),
];

/// `predict_hotskew`: request bodies each connection keeps encoded
/// ahead of their send (about 50 KB each).
const LOOKAHEAD: usize = 64;

/// `predict_hotskew`: a connection encodes ahead only while its next
/// send is at least this far off.
const ENCODE_MARGIN: Duration = Duration::from_millis(10);

/// Linux reports process CPU time in clock ticks of 1/100 s.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The server child process.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Launches `perfserve` and waits until `/healthz` answers 200.
    /// Returns the server and the seconds that took.
    fn spawn(workload: &str, dir: &Path) -> Result<(ServerProc, f64), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("perfserve");
        let started = Instant::now();
        let mut child = Command::new(&bin)
            .args(["--workload", workload, "--dir"])
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("ADDR ")
            .and_then(|a| a.parse().ok());
        let mut server = ServerProc {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal"),
        };
        match (read, addr) {
            (Some(Ok(_)), Some(addr)) => server.addr = addr,
            _ => return Err(format!("server did not report its address: {line:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let healthy = Client::connect(server.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok((server, started.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// User + system CPU seconds the server has used so far.
    fn cpu_s(&self) -> f64 {
        let stat = self.proc_file("stat");
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        // After the command name: state is field 3, utime 14, stime 15.
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick(11) + tick(12)) / CLOCK_TICKS_PER_S
    }

    /// Peak resident set size (`VmHWM`) in MB.
    fn peak_rss_mb(&self) -> f64 {
        let status = self.proc_file("status");
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        kb / 1024.0
    }

    /// Closes the server's stdin (its shutdown signal) and waits.
    fn stop(mut self) {
        self.stdin.take();
        self.child.wait().ok();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            self.child.wait().ok();
        }
    }
}

/// What one run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
    /// Latencies of the operations that succeeded.
    op_ms: Vec<f64>,
    /// Latencies of every operation, failed ones included.
    all_op_ms: Vec<f64>,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Run {
    /// Records one operation's outcome. A transport or status error
    /// fails the operation; a wrong output also marks the run
    /// incorrect.
    fn record(&mut self, ms: f64, outcome: Result<(), (bool, String)>) {
        self.attempted += 1;
        self.all_op_ms.push(ms);
        match outcome {
            Ok(()) => self.op_ms.push(ms),
            Err((wrong, msg)) => {
                self.failed += 1;
                if wrong {
                    self.wrong += 1;
                }
                if self.failed <= 5 {
                    eprintln!("perfbench: operation {} failed: {msg}", self.attempted);
                }
            }
        }
    }
}

fn status_ok(res: &std::io::Result<nd_serve::Response>) -> Result<Value, (bool, String)> {
    match res {
        Ok(r) if r.status == 200 => r.json().map_err(|e| (true, format!("bad JSON: {e}"))),
        Ok(r) => Err((false, format!("status {}: {}", r.status, r.text()))),
        Err(e) => Err((false, format!("transport: {e}"))),
    }
}

fn expect(cond: bool, msg: impl FnOnce() -> String) -> Result<(), (bool, String)> {
    if cond {
        Ok(())
    } else {
        Err((true, msg()))
    }
}

fn probe_body(rows: &[Vec<f64>]) -> Value {
    json!({"model": pb::RETRAINED_MODEL, "rows": rows})
}

/// The reference network for the newest checkpoint of the retrained
/// model in the server's store, with that checkpoint's version.
fn checkpoint_reference(db_dir: &Path, dim: usize) -> Result<(reference::Mlp, u64), String> {
    let db = Database::open(db_dir).map_err(|e| e.to_string())?;
    let mut net = build_mlp(dim, 0);
    let version = load_checkpoint(&db, pb::RETRAINED_MODEL, &mut net).map_err(|e| e.to_string())?;
    Ok((
        reference::Mlp::from_params(&net.export_params(), dim)?,
        version,
    ))
}

/// Checks one swap's reload answer against the expected swap `from →
/// from + 1` (or no swap when the model was not retrained).
fn check_swap(body: &Value, from: u64, trained: bool) -> Result<u64, (bool, String)> {
    let swapped = body["swapped"].as_array().cloned().unwrap_or_default();
    if !trained {
        expect(swapped.is_empty(), || {
            format!("swap without retraining: {body}")
        })?;
        return Ok(from);
    }
    let ok = swapped.len() == 1
        && swapped[0]["model"].as_str() == Some(pb::RETRAINED_MODEL)
        && swapped[0]["from"].as_u64() == Some(from)
        && swapped[0]["to"].as_u64() == Some(from + 1);
    expect(ok, || {
        format!("expected a swap {from} -> {}: {body}", from + 1)
    })?;
    Ok(from + 1)
}

// ------------------------------------------------------------- stream_advance

/// One operation: advance the stream by one slice, then the first
/// `/predict` on the new version. A round is one fresh server over one
/// whole horizon; rounds repeat until the run's time is up.
fn stream_advance(seed: u64, seconds: f64, run: &mut Run) -> Result<bool, String> {
    let horizon = pb::stream_horizon();
    let dim = pb::stream_dim();
    let probe = pb::probe_rows(seed, dim);
    let body = probe_body(&probe);
    let work = pb::work_dir("stream");
    let started = Instant::now();
    let mut last_dir = None;
    let mut round = 0;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("round{round}"));
        let (server, setup) = ServerProc::spawn("stream_advance", &dir)?;
        run.setup_s.push(setup);
        let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
        let mut version = 1;
        for k in 0..horizon {
            let cpu0 = server.cpu_s();
            let t0 = Instant::now();
            let reload = client.post_json("/admin/reload", &json!({"advance_stream": true}));
            let predict = reload
                .as_ref()
                .is_ok_and(|r| r.status == 200)
                .then(|| client.post_json("/predict", &body));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            run.cpu_s += server.cpu_s() - cpu0;
            let outcome = (|| {
                let reload = status_ok(&reload)?;
                let stream = &reload["stream"];
                expect(
                    stream["head"].as_u64() == Some(k as u64 + 1)
                        && stream["executed"].as_u64() == Some(6)
                        && stream["slices_polled"].as_u64() == Some(1),
                    || format!("advance {k} did not fold exactly one new slice: {stream}"),
                )?;
                let trained = stream["trained"].as_u64().unwrap_or(0) > 0;
                let swapped_to = check_swap(&reload, version, trained)?;
                version = swapped_to;
                let predict = status_ok(predict.as_ref().ok_or((false, "no predict".into()))?)?;
                expect(predict["version"].as_u64() == Some(swapped_to), || {
                    format!(
                        "first prediction carries version {}, swapped in {swapped_to}",
                        predict["version"]
                    )
                })?;
                let (mlp, stored) =
                    checkpoint_reference(&dir.join("db"), dim).map_err(|e| (true, e))?;
                expect(stored == swapped_to, || {
                    format!("store holds v{stored}, served v{swapped_to}")
                })?;
                reference::check_response(&mlp, &probe, &predict).map_err(|e| (true, e))?;
                Ok(())
            })();
            run.record(ms, outcome);
        }
        run.rss_mb.push(server.peak_rss_mb());
        server.stop();
        last_dir = Some(dir);
        round += 1;
    }

    // The served stream cache must hold exactly what a cold, uncached
    // fold over the same horizon computes.
    let cache = last_dir.expect("at least one round").join("stream-cache");
    let (cached, report) = StreamPipeline::new(pb::stream_config(Some(&cache)))
        .run(horizon)
        .map_err(|e| e.to_string())?;
    let (cold, _) = StreamPipeline::new(pb::stream_config(None))
        .run(horizon)
        .map_err(|e| e.to_string())?;
    let same = cached.content_digest() == cold.content_digest() && report.executed() == 0;
    if !same {
        eprintln!(
            "perfbench: cached head digest {:016x} (executed {}) != cold {:016x}",
            cached.content_digest(),
            report.executed(),
            cold.content_digest()
        );
    }
    std::fs::remove_dir_all(&work).ok();
    Ok(same)
}

// --------------------------------------------------------------- refresh_warm

type ServedRows = Vec<(Vec<f64>, usize)>;

/// One operation: reload-with-retrain against the warm batch artifact
/// cache, then the first `/predict` on the swapped version. The cold
/// cache fill is the set-up. A round is one fresh server and database
/// over [`pb::REFRESH_ROUND`] refreshes.
fn refresh_warm(seed: u64, seconds: f64, run: &mut Run) -> Result<bool, String> {
    let dim = pb::refresh_dim();
    let probe = pb::probe_rows(seed, dim);
    let body = probe_body(&probe);
    let work = pb::work_dir("refresh");
    // Set-up: launch a server and fill a fresh artifact cache with a
    // cold run, several times; the rounds use the last cache.
    let mut run_dir = work.join("run");
    for i in 0..SETUP_REPEATS {
        run_dir = work.join(format!("run{i}"));
        let fill = json!({"run_dir": run_dir.to_string_lossy().to_string()});
        let started = Instant::now();
        let (server, _) = ServerProc::spawn("refresh_warm", &work.join(format!("setup{i}")))?;
        let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
        let cold = status_ok(&client.post_json("/admin/reload", &fill))
            .map_err(|(_, e)| format!("cold fill: {e}"))?;
        if cold["pipeline"]["executed"].as_u64() != Some(9) {
            return Err(format!("cold fill did not execute all nine stages: {cold}"));
        }
        run.setup_s.push(started.elapsed().as_secs_f64());
        server.stop();
    }
    let reload_body = json!({"run_dir": run_dir.to_string_lossy().to_string()});

    // (operation index, served (scores, class) per probe row)
    let mut served: Vec<(u64, ServedRows)> = Vec::new();
    let started = Instant::now();
    let mut round = 0;
    while round == 0 || started.elapsed().as_secs_f64() < seconds {
        let (server, _) = ServerProc::spawn("refresh_warm", &work.join(format!("round{round}")))?;
        let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
        let mut version = 1;
        for _ in 0..pb::REFRESH_ROUND {
            let cpu0 = server.cpu_s();
            let t0 = Instant::now();
            let reload = client.post_json("/admin/reload", &reload_body);
            let predict = reload
                .as_ref()
                .is_ok_and(|r| r.status == 200)
                .then(|| client.post_json("/predict", &body));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            run.cpu_s += server.cpu_s() - cpu0;
            let outcome = (|| {
                let reload = status_ok(&reload)?;
                let pipeline = &reload["pipeline"];
                expect(
                    pipeline["executed"].as_u64() == Some(0)
                        && pipeline["replayed"].as_u64() == Some(9),
                    || format!("warm refresh must replay all nine stages: {pipeline}"),
                )?;
                let swapped_to = check_swap(&reload, version, true)?;
                version = swapped_to;
                let predict = status_ok(predict.as_ref().ok_or((false, "no predict".into()))?)?;
                expect(predict["version"].as_u64() == Some(swapped_to), || {
                    format!(
                        "first prediction carries version {}, swapped in {swapped_to}",
                        predict["version"]
                    )
                })?;
                let mut rows = Vec::new();
                for p in predict["predictions"].as_array().into_iter().flatten() {
                    let scores: Vec<f64> = p["scores"]
                        .as_array()
                        .into_iter()
                        .flatten()
                        .filter_map(Value::as_f64)
                        .collect();
                    rows.push((scores, p["class"].as_u64().unwrap_or(u64::MAX) as usize));
                }
                served.push((run.attempted, rows));
                Ok(())
            })();
            run.record(ms, outcome);
        }
        run.rss_mb.push(server.peak_rss_mb());
        server.stop();
        round += 1;
    }

    // Offline: a cold, uncached pipeline run plus a fit with the same
    // seed must reproduce every served prediction bit for bit, and the
    // independent reference must agree with it.
    let output = Pipeline::new(pb::refresh_pipeline())
        .run()
        .map_err(|e| e.to_string())?;
    let dataset = output.dataset(nd_core::features::DatasetVariant::A1, pb::DATASET_SEED);
    let network = pb::retrain(&dataset);
    let probe_mat = Mat::from_rows(&probe).map_err(|e| format!("{e:?}"))?;
    let offline = network.predict_batch(&probe_mat);
    let mlp = reference::Mlp::from_params(&network.export_params(), dim)?;
    for (op, rows) in &served {
        let bit_equal = rows.len() == probe.len()
            && rows
                .iter()
                .enumerate()
                .all(|(i, (s, _))| s.as_slice() == offline.row(i));
        let checked = rows
            .iter()
            .zip(&probe)
            .enumerate()
            .try_for_each(|(i, ((s, class), row))| {
                reference::check(&mlp, row, s, *class).map_err(|e| format!("row {i}: {e}"))
            });
        if !bit_equal || checked.is_err() {
            // The operation was counted as succeeded when it ran; its
            // output turned out wrong.
            run.failed += 1;
            run.wrong += 1;
            if run.failed <= 5 {
                eprintln!("perfbench: refresh {op} served {rows:?}, offline retrain gives {offline:?} ({checked:?})");
            }
        }
    }
    std::fs::remove_dir_all(&work).ok();
    Ok(true)
}

// ------------------------------------------------------------ predict_hotskew

/// A keep-alive connection that sends pre-encoded bodies, so request
/// encoding stays out of the timed path.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one `POST /predict` and returns `(status, body)`.
    fn predict(&mut self, payload: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let head = format!(
            "POST /predict HTTP/1.1\r\nHost: nd-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(payload)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut length = 0;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

fn hot_payload(arrival: &pb::Arrival, models: &[String]) -> Vec<u8> {
    json!({"model": models[arrival.model], "rows": pb::hot_rows(arrival.row_seed)})
        .to_string()
        .into_bytes()
}

/// One operation: one `/predict` request of the open-loop schedule,
/// timed from its scheduled arrival when it had to queue behind the
/// previous request on its connection, else from its send.
fn predict_hotskew(seed: u64, seconds: f64, run: &mut Run) -> Result<bool, String> {
    let work = pb::work_dir("hotskew");
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let (s, setup) = ServerProc::spawn("predict_hotskew", &work.join(format!("s{i}")))?;
        run.setup_s.push(setup);
        if let Some(old) = server.replace((s, work.join(format!("s{i}")))) {
            old.0.stop();
        }
    }
    let (server, dir) = server.expect("SETUP_REPEATS > 0");
    let models = loadgen::fixture_models(pb::HOT_MODELS);
    let mut refs = Vec::new();
    let db = Database::open(dir.join("db")).map_err(|e| e.to_string())?;
    for name in &models {
        let mut net = build_mlp(pb::HOT_DIM, 0);
        load_checkpoint(&db, name, &mut net).map_err(|e| e.to_string())?;
        refs.push(reference::Mlp::from_params(
            &net.export_params(),
            pb::HOT_DIM,
        )?);
    }

    // Warm-up outside the timed phase: handler threads and batchers
    // start lazily on first use.
    let mut warm = RawConn::connect(server.addr).map_err(|e| e.to_string())?;
    for a in pb::hot_schedule(seed ^ 0x77, 0.3) {
        warm.predict(&hot_payload(&a, &models))
            .map_err(|e| e.to_string())?;
    }
    drop(warm);

    let schedule = pb::hot_schedule(seed, seconds);
    // Each connection's requests, and its first bodies encoded ahead of
    // the timed phase.
    let per_conn: Vec<Vec<usize>> = (0..pb::HOT_CONNS)
        .map(|c| (c..schedule.len()).step_by(pb::HOT_CONNS).collect())
        .collect();
    let prefilled: Vec<VecDeque<Vec<u8>>> = per_conn
        .iter()
        .map(|mine| {
            mine.iter()
                .take(LOOKAHEAD)
                .map(|&i| hot_payload(&schedule[i], &models))
                .collect()
        })
        .collect();
    let cpu0 = server.cpu_s();
    let t0 = Instant::now();
    type Answer = (usize, f64, bool, bool, std::io::Result<(u16, Vec<u8>)>);
    let answers: Vec<Answer> = std::thread::scope(|scope| {
        let workers: Vec<_> = per_conn
            .iter()
            .zip(prefilled)
            .map(|(mine, mut ready)| {
                let (schedule, models, addr) = (&schedule, &models, server.addr);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = RawConn::connect(addr);
                    let mut free_at = t0;
                    // `ready` holds the bodies of mine[n..encoded].
                    let mut encoded = ready.len();
                    for (n, &i) in mine.iter().enumerate() {
                        let due = t0 + Duration::from_secs_f64(schedule[i].at);
                        // A request that fell due while this connection
                        // still waited for the previous answer queued
                        // behind it: charge it from its due time. Otherwise
                        // any delay past due (sleep overshoot) is the
                        // generator's own, and it is charged from the send
                        // and reported as lateness instead.
                        let start = if free_at >= due {
                            due
                        } else {
                            let now = Instant::now();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                            Instant::now()
                        };
                        let late = free_at < due && start > due + Duration::from_millis(1);
                        let in_span = ready.is_empty();
                        let payload = ready.pop_front().unwrap_or_else(|| {
                            encoded += 1;
                            hot_payload(&schedule[i], models)
                        });
                        let result = match conn.as_mut() {
                            Ok(conn) => conn.predict(&payload),
                            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
                        };
                        free_at = Instant::now();
                        let ms = (free_at - start).as_secs_f64() * 1e3;
                        if result.is_err() {
                            conn = RawConn::connect(addr);
                        }
                        out.push((i, ms, late, in_span, result));
                        // Encode ahead only while this connection is idle
                        // for a while yet, so that encoding neither falls
                        // inside a timed span nor delays a send.
                        while encoded < mine.len() && ready.len() < LOOKAHEAD {
                            let next_due = t0 + Duration::from_secs_f64(schedule[mine[n + 1]].at);
                            if Instant::now() + ENCODE_MARGIN > next_due {
                                break;
                            }
                            ready.push_back(hot_payload(&schedule[mine[encoded]], models));
                            encoded += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect()
    });
    run.cpu_s = server.cpu_s() - cpu0;
    run.rss_mb.push(server.peak_rss_mb());
    server.stop();

    let mut answers = answers;
    answers.sort_by_key(|a| a.0);
    let late = answers.iter().filter(|a| a.2).count();
    let in_span = answers.iter().filter(|a| a.3).count();
    for (i, ms, _, _, result) in answers {
        let arrival = &schedule[i];
        let outcome = match result {
            Ok((200, bytes)) => serde_json::from_slice::<Value>(&bytes)
                .map_err(|e| (true, format!("bad JSON: {e}")))
                .and_then(|body| {
                    expect(
                        body["model"].as_str() == Some(models[arrival.model].as_str()),
                        || format!("answer names model {}", body["model"]),
                    )?;
                    reference::check_response(
                        &refs[arrival.model],
                        &pb::hot_rows(arrival.row_seed),
                        &body,
                    )
                    .map_err(|e| (true, e))
                }),
            Ok((status, bytes)) => Err((
                false,
                format!("status {status}: {}", String::from_utf8_lossy(&bytes)),
            )),
            Err(e) => Err((false, format!("transport: {e}"))),
        };
        run.record(ms, outcome);
    }
    println!(
        "# predict_hotskew: op_p99_ms {:.4} over {} samples; the generator started {late} sends >1 ms late and encoded {in_span} bodies inside their timed span",
        pb::percentile(&run.op_ms, 0.99),
        run.op_ms.len()
    );
    std::fs::remove_dir_all(&work).ok();
    Ok(true)
}

fn provenance(workload: &str, seed: u64) -> Value {
    let rev = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|t| {
            t.split('"')
                .find_map(|s| s.strip_prefix("target-cpu=").map(str::to_string))
        })
        .unwrap_or_else(|| "default".into());
    json!({
        "git_rev": rev,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "target_cpu": target_cpu,
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "newsdiff_threads": std::env::var("NEWSDIFF_THREADS").unwrap_or_else(|_| "unset".into()),
        "workload": workload,
        "seed": seed,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (Some(workload), Some(seed), Some(seconds)) = (
        pb::arg(&args, "--workload"),
        pb::arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        pb::arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
    ) else {
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s>");
        std::process::exit(2);
    };
    println!("# provenance {}", provenance(&workload, seed));
    let mut run = Run::default();
    let result = match workload.as_str() {
        "stream_advance" => stream_advance(seed, seconds, &mut run),
        "refresh_warm" => refresh_warm(seed, seconds, &mut run),
        "predict_hotskew" => predict_hotskew(seed, seconds, &mut run),
        other => Err(format!("unknown workload `{other}`")),
    };
    let run_checks_pass = match result {
        Ok(pass) => pass,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if run.attempted == 0 {
        eprintln!("perfbench: no operation attempted");
        std::process::exit(1);
    }
    // With every operation failed there is no successful latency to
    // report; the failed ones stand in so the result still prints.
    let latencies = if run.op_ms.is_empty() {
        &run.all_op_ms
    } else {
        &run.op_ms
    };
    let values = [
        pb::median(&run.setup_s),
        pb::median(&run.rss_mb),
        pb::median(latencies),
        run.cpu_s * 1e3 / run.attempted as f64,
    ];
    let metrics: Vec<(&str, f64, &str)> = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    pb::print_result(
        run_checks_pass && run.wrong == 0,
        run.attempted,
        run.failed,
        &metrics,
    );
}

#[cfg(test)]
mod tests {
    /// The driver prints exactly the end-to-end metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_slice(&std::fs::read(path).expect("BENCHMARK.json")).expect("JSON");
        let declared: Vec<(&str, &str)> = spec["end_to_end"]
            .as_array()
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or(""),
                    m["unit"].as_str().unwrap_or(""),
                )
            })
            .collect();
        assert_eq!(declared, super::METRICS);
    }
}
