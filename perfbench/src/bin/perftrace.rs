//! Traced run: replays one workload in-process and times the calls
//! into each layer's public functions.
//!
//! Usage: `perftrace --workload <name> --seed <n> --seconds <s>`.
//!
//! The replay performs the same work as the server does for one
//! operation of the workload, step by step, with a clock around each
//! call: `FoldStage::fold/encode/decode`, `Stage::run/decode`,
//! `ArtifactStore::load/save`, `Trainer::fit`, `save_checkpoint`,
//! `Database::open`, `Registry::refresh`, `http::read_request`,
//! `serde_json`, `Batcher::submit` and `Network::predict_batch`.
//! Each metric is the mean per operation. Every workload prints every
//! per-layer metric; a layer its path never calls reads 0. A comment
//! line before the result states how much of the traced operation
//! time the layer timings account for.

use nd_core::checkpoint::save_checkpoint;
use nd_core::correlate::correlate;
use nd_core::features::{assign_tweets, build_dataset, Dataset};
use nd_core::incremental::{fold_stages, StreamArtifact, StreamPipeline, StreamState};
use nd_core::pipeline::PipelineOutput;
use nd_core::stage::{correlated_events, stages, ArtifactSet};
use nd_core::trending::extract_trending;
use nd_linalg::Mat;
use nd_perfbench as pb;
use nd_serve::http::{read_request, ConnBufs, ReadOutcome, ReadParams};
use nd_serve::loadgen::{self, TrafficMix};
use nd_serve::{BatchConfig, Batcher, Client, Metrics, ServeConfig, Server, StreamRetrainSpec};
use nd_store::{ArtifactStore, ByteReader, ByteWriter, Database};
use nd_vectorize::{DtmBuilder, Weighting};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
const METRICS: [(&str, &str); 38] = [
    ("synth.poll_ms", "ms"),
    ("core.collect_fold_ms", "ms"),
    ("text.preprocess_ms", "ms"),
    ("vectorize.fold_ms", "ms"),
    ("topics.fold_ms", "ms"),
    ("events.fold_ms", "ms"),
    ("embed.fold_ms", "ms"),
    ("core.encode_ms", "ms"),
    ("store.artifact_write_ms", "ms"),
    ("store.artifact_read_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("core.replay_ms", "ms"),
    ("core.project_ms", "ms"),
    ("neural.train_ms", "ms"),
    ("neural.train_rows", "count"),
    ("store.db_open_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.wal_bytes", "bytes"),
    ("serve.swap_ms", "ms"),
    ("serve.first_predict_ms", "ms"),
    ("core.decode_preprocess_ms", "ms"),
    ("core.decode_other_ms", "ms"),
    ("core.dataset_ms", "ms"),
    ("synth.cold_ms", "ms"),
    ("text.cold_ms", "ms"),
    ("vectorize.cold_ms", "ms"),
    ("topics.cold_ms", "ms"),
    ("events.cold_ms", "ms"),
    ("embed.cold_ms", "ms"),
    ("core.cold_project_ms", "ms"),
    ("patterns.cold_ms", "ms"),
    ("serve.http_read_us", "us"),
    ("serde_json.decode_us", "us"),
    ("serde_json.encode_us", "us"),
    ("serve.batcher_us", "us"),
    ("neural.forward_us_per_row", "us"),
    ("serve.batch_rows", "count"),
    ("serve.cache_hit_ratio", "ratio"),
];

/// Layer metrics that are sizes or ratios, or that time the set-up,
/// and so are not part of an operation's time.
const NOT_OP_TIME: [&str; 14] = [
    "store.artifact_bytes",
    "neural.train_rows",
    "store.wal_bytes",
    "synth.cold_ms",
    "text.cold_ms",
    "vectorize.cold_ms",
    "topics.cold_ms",
    "events.cold_ms",
    "embed.cold_ms",
    "core.cold_project_ms",
    "patterns.cold_ms",
    "serve.batch_rows",
    "serve.cache_hit_ratio",
    // A second, direct forward pass; the batcher call contains the
    // served one.
    "neural.forward_us_per_row",
];

/// Accumulated layer timings of one traced replay.
#[derive(Default)]
struct Trace {
    sums: BTreeMap<&'static str, f64>,
    /// Values that are per-set-up, not per-operation.
    once: BTreeMap<&'static str, f64>,
    ops: u64,
    /// Wall time of each traced operation.
    op_ms: Vec<f64>,
}

impl Trace {
    /// Ends one operation that took `ms`.
    fn op(&mut self, ms: f64) {
        self.ops += 1;
        self.op_ms.push(ms);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Runs `f`, adding its duration to `name` in milliseconds.
    fn ms<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Runs `f`, adding its duration to `name` in microseconds.
    fn us<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn value(&self, name: &str) -> f64 {
        if let Some(v) = self.once.get(name) {
            return *v;
        }
        self.sums
            .get(name)
            .map_or(0.0, |s| s / self.ops.max(1) as f64)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// A server over the retrained model, run in this process so the
/// replay can call its registry directly.
fn retrained_server(db: &Path, dim: usize) -> Result<Server, String> {
    Server::start(ServeConfig::default(), pb::retrained_registry(db, dim)?).map_err(err)
}

/// The retrain + checkpoint + swap + first prediction tail that both
/// refresh paths share. Returns the version the prediction carried.
fn retrain_and_swap(
    t: &mut Trace,
    server: &Server,
    client: &mut Client,
    dataset: &Dataset,
    probe: &Value,
) -> Result<u64, String> {
    let db_dir = server.registry().db_dir().to_path_buf();
    if !dataset.is_empty() {
        let mut db = t
            .ms("store.db_open_ms", || Database::open(&db_dir))
            .map_err(err)?;
        let network = t.ms("neural.train_ms", || pb::retrain(dataset));
        t.add("neural.train_rows", dataset.len() as f64);
        t.ms("store.checkpoint_ms", || {
            save_checkpoint(&mut db, pb::RETRAINED_MODEL, &network)
        })
        .map_err(err)?;
        drop(db);
        t.ms("serve.swap_ms", || server.registry().refresh())
            .map_err(err)?;
    }
    t.add("store.wal_bytes", file_len(&db_dir.join("wal.log")));
    let res = t
        .ms("serve.first_predict_ms", || {
            client.post_json("/predict", probe)
        })
        .map_err(err)?;
    let body = res.json().map_err(err)?;
    body["version"]
        .as_u64()
        .ok_or_else(|| format!("predict answered {}: {body}", res.status))
}

// ------------------------------------------------------------- stream_advance

/// The server's head projection (trending → correlation → features).
fn head_dataset(spec: &StreamRetrainSpec, state: &StreamState) -> Dataset {
    let vectors = &state.vectors.vectors;
    let trending = extract_trending(
        &state.topics.topics,
        &state.events.events.news,
        vectors,
        spec.trending_threshold,
    );
    let forward = correlate(
        &trending,
        &state.events.events.twitter,
        vectors,
        spec.correlation_threshold,
    );
    let correlated = correlated_events(&forward, &state.events.events.twitter);
    let assignments = assign_tweets(&correlated, &state.world.tweets, &state.corpora.twitter_ed);
    build_dataset(
        spec.variant,
        &correlated,
        &assignments,
        &state.world.tweets,
        &state.corpora.twitter_ed,
        vectors,
        spec.dataset_seed,
    )
}

const FOLD_METRICS: [&str; 6] = [
    "core.collect_fold_ms",
    "text.preprocess_ms",
    "vectorize.fold_ms",
    "topics.fold_ms",
    "events.fold_ms",
    "embed.fold_ms",
];

fn trace_stream(seed: u64, t: &mut Trace) -> Result<bool, String> {
    let work = pb::work_dir("trace-stream");
    let cache = work.join("stream-cache");
    let spec = pb::stream_spec(&cache);
    let config = &spec.stream;
    let pipeline = StreamPipeline::new(config.clone());
    let store = ArtifactStore::open(&cache).map_err(err)?;
    let graph = fold_stages();
    let deps: Vec<Vec<usize>> = graph
        .iter()
        .map(|s| {
            s.deps()
                .iter()
                .filter_map(|d| graph.iter().position(|g| g.name() == *d))
                .collect()
        })
        .collect();
    let horizon = pb::stream_horizon();
    let fps = pipeline.fingerprints(horizon);
    let name = |si: usize, k: usize| format!("{}@{k}", graph[si].name());
    let server = retrained_server(&work.join("db"), pb::stream_dim())?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let probe =
        json!({"model": pb::RETRAINED_MODEL, "rows": pb::probe_rows(seed, pb::stream_dim())});
    let mut version = 1;
    let mut ok = true;
    let mut head = None;
    for k in 0..horizon {
        let op = Instant::now();
        // Replay of the cached prefix: the executor probes the head
        // slot (a miss), then decodes every stage at slice k - 1.
        let mut prev: Vec<Option<StreamArtifact>> = vec![None; graph.len()];
        for si in 0..graph.len() {
            t.ms("store.artifact_read_ms", || {
                store.load(&name(si, k), fps[si][k])
            });
            if k > 0 {
                let payload = t
                    .ms("store.artifact_read_ms", || {
                        store.load(&name(si, k - 1), fps[si][k - 1])
                    })
                    .ok_or_else(|| format!("missing cached {}", name(si, k - 1)))?;
                let mut r = ByteReader::new(&payload);
                prev[si] = Some(
                    t.ms("core.replay_ms", || graph[si].decode(&mut r))
                        .map_err(err)?,
                );
            }
        }
        let slice = t.ms("synth.poll_ms", || pipeline.firehose().poll(k));
        let mut cur: Vec<StreamArtifact> = Vec::with_capacity(graph.len());
        for si in 0..graph.len() {
            let ups: Vec<&StreamArtifact> = deps[si].iter().map(|&d| &cur[d]).collect();
            let value = t
                .ms(FOLD_METRICS[si], || {
                    graph[si].fold(config, prev[si].as_ref(), &ups, &slice)
                })
                .map_err(err)?;
            let mut w = ByteWriter::new();
            t.ms("core.encode_ms", || graph[si].encode(&value, &mut w))
                .map_err(err)?;
            t.add("store.artifact_bytes", w.len() as f64);
            t.ms("store.artifact_write_ms", || {
                store.save(&name(si, k), fps[si][k], w.as_bytes())
            })
            .map_err(err)?;
            cur.push(value);
        }
        let mut it = cur.into_iter();
        let mut next = || it.next().ok_or_else(|| "missing fold output".to_string());
        let state = StreamState {
            head: k + 1,
            world: next()?.into_world().map_err(err)?,
            corpora: next()?.into_corpora().map_err(err)?,
            dtm: next()?.into_dtm().map_err(err)?,
            topics: next()?.into_topics().map_err(err)?,
            events: next()?.into_events().map_err(err)?,
            vectors: next()?.into_vectors().map_err(err)?,
        };
        let dataset = t.ms("core.project_ms", || head_dataset(&spec, &state));
        let served = retrain_and_swap(t, &server, &mut client, &dataset, &probe)?;
        let expected = if dataset.is_empty() {
            version
        } else {
            version + 1
        };
        ok &= served == expected;
        version = expected;
        t.op(op.elapsed().as_secs_f64() * 1e3);
        head = Some(state.content_digest());
    }
    server.shutdown();
    // The replay must have left exactly the server's artifacts behind:
    // a warm run over its cache replays the head and matches it.
    let (warm, report) = pipeline.run(horizon).map_err(err)?;
    ok &= report.executed() == 0 && Some(warm.content_digest()) == head;
    std::fs::remove_dir_all(&work).ok();
    Ok(ok)
}

// --------------------------------------------------------------- refresh_warm

fn cold_metric(stage: &str) -> &'static str {
    match stage {
        "collect" => "synth.cold_ms",
        "preprocess" => "text.cold_ms",
        "topics" => "topics.cold_ms",
        "events" => "events.cold_ms",
        "embeddings" => "embed.cold_ms",
        "patterns" => "patterns.cold_ms",
        _ => "core.cold_project_ms",
    }
}

fn trace_refresh(seed: u64, t: &mut Trace) -> Result<bool, String> {
    let work = pb::work_dir("trace-refresh");
    let config = pb::refresh_pipeline().with_cache_dir(work.join("run"));
    let store = ArtifactStore::open(work.join("run")).map_err(err)?;
    let graph = stages();
    let mut fps: BTreeMap<&'static str, u64> = BTreeMap::new();
    for stage in &graph {
        let input: Vec<u64> = stage.deps().iter().map(|d| fps[d]).collect();
        fps.insert(stage.name(), stage.fingerprint(&config, &input));
    }

    // Set-up: the cold run, stage by stage, filling the cache.
    let mut cold = Trace::default();
    let mut artifacts = ArtifactSet::new();
    for stage in &graph {
        let value = cold
            .ms(cold_metric(stage.name()), || stage.run(&config, &artifacts))
            .map_err(err)?;
        let mut w = ByteWriter::new();
        stage.encode(&value, &mut w).map_err(err)?;
        store
            .save(stage.name(), fps[stage.name()], w.as_bytes())
            .map_err(err)?;
        artifacts.insert(stage.name(), value);
        if stage.name() == "preprocess" {
            // The topic stage builds its document-term matrix inside
            // `Stage::run`; this times that nd-vectorize call on its own
            // (it is part of topics.cold_ms too).
            let news_tm = &artifacts.corpora().map_err(err)?.news_tm;
            cold.ms("vectorize.cold_ms", || {
                DtmBuilder::new()
                    .min_df(config.topic.min_df)
                    .max_df_ratio(config.topic.max_df_ratio)
                    .build(news_tm)
                    .weighted(Weighting::TfIdfNormalized)
            });
        }
    }
    for (name, v) in cold.sums {
        t.once.insert(name, v);
    }

    let dim = pb::refresh_dim();
    let server = retrained_server(&work.join("db"), dim)?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let probe = json!({"model": pb::RETRAINED_MODEL, "rows": pb::probe_rows(seed, dim)});
    let mut ok = true;
    let mut curve = Vec::new();
    for r in 0..pb::REFRESH_ROUND {
        let op = Instant::now();
        let mut artifacts = ArtifactSet::new();
        for stage in &graph {
            let payload = t
                .ms("store.artifact_read_ms", || {
                    store.load(stage.name(), fps[stage.name()])
                })
                .ok_or_else(|| format!("missing cached {}", stage.name()))?;
            let metric = if stage.name() == "preprocess" {
                "core.decode_preprocess_ms"
            } else {
                "core.decode_other_ms"
            };
            let mut reader = ByteReader::new(&payload);
            let value = t.ms(metric, || stage.decode(&mut reader)).map_err(err)?;
            artifacts.insert(stage.name(), value);
        }
        let dataset = t
            .ms("core.dataset_ms", || {
                PipelineOutput::assemble(&mut artifacts)
                    .map(|out| out.dataset(nd_core::features::DatasetVariant::A1, pb::DATASET_SEED))
            })
            .map_err(err)?;
        let open0 = t.sums.get("store.db_open_ms").copied().unwrap_or(0.0);
        let served = retrain_and_swap(t, &server, &mut client, &dataset, &probe)?;
        ok &= served == r as u64 + 2;
        t.op(op.elapsed().as_secs_f64() * 1e3);
        curve.push((
            r + 1,
            t.sums["store.db_open_ms"] - open0,
            file_len(&server.registry().db_dir().join("wal.log")),
        ));
    }
    server.shutdown();
    for (n, open_ms, wal) in curve {
        println!(
            "# refresh_warm curve: refresh {n} store.db_open_ms {open_ms:.3} store.wal_bytes {wal}"
        );
    }
    std::fs::remove_dir_all(&work).ok();
    Ok(ok)
}

// ------------------------------------------------------------ predict_hotskew

fn trace_hotskew(seed: u64, seconds: f64, t: &mut Trace) -> Result<bool, String> {
    let work = pb::work_dir("trace-hotskew");
    let server = loadgen::boot_fixture(
        &work.join("db"),
        pb::HOT_MODELS,
        pb::HOT_DIM,
        ServeConfig::default(),
    )
    .map_err(err)?;
    let models = loadgen::fixture_models(pb::HOT_MODELS);
    let schedule = pb::hot_schedule(seed, seconds);

    // Request phases, one request at a time, on this thread: the wire
    // bytes arrive over a loopback socket this thread writes first.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    // One shard's batcher, built the way the server's shard set builds
    // it: the worker total divided across the shards.
    let serve = ServeConfig::default();
    let shard_batch = BatchConfig {
        workers: (serve.batch.workers / serve.shard.shards.max(1)).max(1),
        ..serve.batch.clone()
    };
    let metrics = Arc::new(Metrics::default());
    let batcher = Batcher::start(shard_batch, Arc::clone(&metrics)).map_err(err)?;
    let params = ReadParams {
        max_body: 1 << 20,
        head_deadline: Duration::from_secs(5),
    };
    let mut ok = true;
    let mut client_side = TcpStream::connect(addr).map_err(err)?;
    // A request body fits the loopback buffers; the timeout turns a
    // surprise there into an error instead of a hang.
    client_side
        .set_write_timeout(Some(Duration::from_secs(5)))
        .map_err(err)?;
    let (stream, _) = listener.accept().map_err(err)?;
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .map_err(err)?;
    let mut reader = BufReader::new(stream);
    let mut bufs = ConnBufs::new();
    for a in &schedule {
        // Untimed: the client side of the loopback sends the request.
        let body = json!({"model": models[a.model], "rows": pb::hot_rows(a.row_seed)}).to_string();
        write!(
            client_side,
            "POST /predict HTTP/1.1\r\nHost: nd-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .map_err(err)?;
        let op = Instant::now();
        let forward0 = t
            .sums
            .get("neural.forward_us_per_row")
            .copied()
            .unwrap_or(0.0);
        let outcome = loop {
            match t.us("serve.http_read_us", || {
                read_request(&mut reader, &mut bufs, &params)
            }) {
                Ok(ReadOutcome::TimedOut) => continue,
                other => break other,
            }
        };
        if !matches!(outcome, Ok(ReadOutcome::Ready)) {
            return Err(format!("request read failed: {outcome:?}"));
        }
        let rows = t
            .us("serde_json.decode_us", || {
                bufs.json().map(|v| {
                    v["rows"]
                        .as_array()
                        .map(|rs| {
                            rs.iter()
                                .map(|r| {
                                    r.as_array().map_or(Vec::new(), |xs| {
                                        xs.iter().filter_map(Value::as_f64).collect()
                                    })
                                })
                                .collect::<Vec<Vec<f64>>>()
                        })
                        .unwrap_or_default()
                })
            })
            .map_err(err)?;
        let handle = server
            .registry()
            .get(&models[a.model])
            .ok_or("unknown model")?;
        let scores = t
            .us("serve.batcher_us", || {
                batcher
                    .submit(Arc::clone(&handle), rows.clone())
                    .ok()
                    .and_then(|rx| rx.recv().ok())
            })
            .ok_or("batcher failed")?;
        let mat = Mat::from_rows(&rows).map_err(|e| format!("{e:?}"))?;
        let direct = t.us("neural.forward_us_per_row", || {
            handle.network.predict_batch(&mat)
        });
        ok &= (0..rows.len()).all(|i| direct.row(i) == scores[i].as_slice());
        t.us("serde_json.encode_us", || {
            let predictions: Vec<Value> = scores
                .iter()
                .map(|s| json!({"scores": s, "class": nd_linalg::vecops::argmax(s).unwrap_or(0)}))
                .collect();
            json!({"model": handle.name, "version": handle.version, "predictions": predictions})
                .to_string()
        });
        let forward = t.sums["neural.forward_us_per_row"] - forward0;
        t.op(op.elapsed().as_secs_f64() * 1e3 - forward / 1e3);
    }
    batcher.drain();
    if let Some(f) = t.sums.get_mut("neural.forward_us_per_row") {
        *f /= pb::HOT_ROWS as f64;
    }

    // Batch sizes and cache hits under the workload's own arrival
    // process, from the server's /metrics counters.
    let mix = TrafficMix {
        models: models.clone(),
        skew: pb::HOT_ZIPF,
        dim: pb::HOT_DIM,
        cache_bust: true,
        batch_rows: pb::HOT_ROWS,
        row_pool: 0,
    };
    let summary = loadgen::open_loop(
        server.addr(),
        pb::HOT_RATE,
        Duration::from_secs_f64(seconds.min(5.0)),
        pb::HOT_CONNS,
        &mix,
        seed,
        None,
    );
    ok &= summary.errors == 0 && summary.shed == 0;
    let text = Client::connect(server.addr())
        .and_then(|mut c| c.get("/metrics"))
        .map_err(err)?
        .text();
    let counter = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|v| v.trim().parse::<f64>().ok())
            })
            .unwrap_or(0.0)
    };
    let batches = counter("nd_serve_batch_rows_count ");
    t.once.insert(
        "serve.batch_rows",
        counter("nd_serve_batch_rows_sum ") / batches.max(1.0),
    );
    let (hits, misses) = (
        counter("nd_serve_cache_hits_total "),
        counter("nd_serve_cache_misses_total "),
    );
    t.once
        .insert("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    server.shutdown();
    std::fs::remove_dir_all(&work).ok();
    Ok(ok)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (Some(workload), Some(seed), Some(seconds)) = (
        pb::arg(&args, "--workload"),
        pb::arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        pb::arg(&args, "--seconds").and_then(|s| s.parse::<f64>().ok()),
    ) else {
        eprintln!("usage: perftrace --workload <name> --seed <n> --seconds <s>");
        std::process::exit(2);
    };
    let mut t = Trace::default();
    let result = match workload.as_str() {
        "stream_advance" => trace_stream(seed, &mut t),
        "refresh_warm" => trace_refresh(seed, &mut t),
        "predict_hotskew" => trace_hotskew(seed, seconds, &mut t),
        other => Err(format!("unknown workload `{other}`")),
    };
    let ok = match result {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("perftrace: {e}");
            std::process::exit(1);
        }
    };
    let op_ms = t.op_ms.iter().sum::<f64>() / t.ops.max(1) as f64;
    let layer_ms: f64 = METRICS
        .iter()
        .filter(|(name, _)| !NOT_OP_TIME.contains(name))
        .map(|(name, unit)| t.value(name) / if *unit == "us" { 1e3 } else { 1.0 })
        .sum();
    println!(
        "# {workload} traced: {} operations, mean {op_ms:.3} ms, median {:.3} ms; layer timings sum to {layer_ms:.3} ms ({:.1}% of the mean)",
        t.ops,
        pb::median(&t.op_ms),
        100.0 * layer_ms / op_ms
    );
    let metrics: Vec<(&str, f64, &str)> = METRICS
        .iter()
        .map(|(name, unit)| (*name, t.value(name), *unit))
        .collect();
    pb::print_result(ok, t.ops.max(1), 0, &metrics);
}

#[cfg(test)]
mod tests {
    use super::METRICS;

    /// The traced run prints exactly the per-layer metrics, with the
    /// units, that `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: serde_json::Value =
            serde_json::from_slice(&std::fs::read(path).expect("BENCHMARK.json")).expect("JSON");
        let declared: Vec<(String, String)> = spec["per_layer"]
            .as_array()
            .expect("per_layer")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or("").into(),
                    m["unit"].as_str().unwrap_or("").into(),
                )
            })
            .collect();
        let printed: Vec<(String, String)> = METRICS
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(declared, printed);
    }
}
