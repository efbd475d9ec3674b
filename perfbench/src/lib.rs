//! Shared pieces of the newsdiff benchmark.
//!
//! Three binaries use this library: `perfbench` (the end-to-end
//! driver, which talks to the server only over HTTP), `perfserve` (the
//! system under test, run as a child process) and `perftrace` (the
//! traced in-process replay). Keeping the workload definitions here is
//! what guarantees that all three run the same inputs for a seed.

pub mod reference;

use nd_core::checkpoint::save_checkpoint;
use nd_core::features::{Dataset, DatasetVariant};
use nd_core::incremental::StreamConfig;
use nd_core::pipeline::PipelineConfig;
use nd_core::predict::{NetworkKind, PredictConfig, Target};
use nd_neural::{Network, Trainer, TrainerConfig};
use nd_serve::loadgen::Rng;
use nd_serve::{ModelSpec, Registry, RetrainModel, RetrainSpec, StreamRetrainSpec};
use nd_store::Database;
use nd_synth::FirehoseConfig;
use std::path::{Path, PathBuf};

/// `stream_advance`: slice width in hours (one slice per day).
pub const STREAM_SLICE_HOURS: u64 = 24;

/// `refresh_warm`: refreshes per server lifetime. Every round starts a
/// fresh server and database, so each round sees the same checkpoint
/// write-ahead-log growth and rounds are interchangeable.
pub const REFRESH_ROUND: usize = 12;

/// Rows in the fixed probe request sent after every swap.
pub const PROBE_ROWS: usize = 4;

/// `predict_hotskew`: models in the serving fixture.
pub const HOT_MODELS: usize = 8;
/// `predict_hotskew`: feature width of every fixture model.
pub const HOT_DIM: usize = 308;
/// `predict_hotskew`: rows per `/predict` request.
pub const HOT_ROWS: usize = 8;
/// `predict_hotskew`: Zipf exponent of model popularity.
pub const HOT_ZIPF: f64 = 1.2;
/// `predict_hotskew`: open-loop Poisson arrival rate (requests/s).
pub const HOT_RATE: f64 = 100.0;
/// `predict_hotskew`: client connections the schedule is spread over.
pub const HOT_CONNS: usize = 2;

/// Name of the single model the ingest and refresh servers retrain.
pub const RETRAINED_MODEL: &str = "likes";

/// Seed of every retrain (matches the served spec, so an offline fit
/// with it must reproduce the served network bit for bit).
pub const TRAIN_SEED: u64 = 7;

/// Seed of feature assembly.
pub const DATASET_SEED: u64 = 11;

/// The retrain protocol both refresh paths use: a few epochs at a
/// fixed seed, enough to produce a new checkpoint per refresh.
pub fn predict_config() -> PredictConfig {
    PredictConfig {
        batch_size: 512,
        max_epochs: 3,
        early_stopping: None,
        val_fraction: 0.2,
        seed: TRAIN_SEED,
    }
}

fn retrained_models() -> Vec<RetrainModel> {
    vec![RetrainModel {
        name: RETRAINED_MODEL.to_string(),
        kind: NetworkKind::Mlp1,
        target: Target::Likes,
    }]
}

/// The firehose and fold configuration of `stream_advance`: the
/// repository's `StreamConfig::small()` (two-week world) cut into daily
/// slices. `cache_dir = None` gives the cold, uncached reference run.
///
/// The world is the same for every benchmark seed: across world seeds
/// the work per refresh moved by about 20% (dataset sizes change with
/// the events a world happens to contain), more than any bound could
/// absorb. The seed draws the request-side inputs instead.
pub fn stream_config(cache_dir: Option<&Path>) -> StreamConfig {
    let config = StreamConfig {
        firehose: FirehoseConfig {
            slice_hours: STREAM_SLICE_HOURS,
            ..FirehoseConfig::small()
        },
        ..StreamConfig::small()
    };
    match cache_dir {
        Some(dir) => config.with_cache_dir(dir),
        None => config,
    }
}

/// The server's streaming retrain spec for `stream_advance`.
pub fn stream_spec(cache_dir: &Path) -> StreamRetrainSpec {
    StreamRetrainSpec {
        stream: stream_config(Some(cache_dir)),
        variant: DatasetVariant::A1,
        predict: predict_config(),
        models: retrained_models(),
        dataset_seed: DATASET_SEED,
        trending_threshold: 0.3,
        correlation_threshold: 0.3,
    }
}

/// Slices in one `stream_advance` horizon.
pub fn stream_horizon() -> usize {
    stream_config(None).firehose.n_slices()
}

/// Feature width of the `stream_advance` model: the A1 features are
/// the streaming embeddings.
pub fn stream_dim() -> usize {
    stream_config(None).embed_dim
}

/// The batch pipeline configuration of `refresh_warm`: the small
/// two-week world, fixed for the reason given at [`stream_config`]. No
/// cache dir: the reload request names the run directory.
pub fn refresh_pipeline() -> PipelineConfig {
    PipelineConfig::small()
}

/// The server's reload-with-retrain spec for `refresh_warm`.
pub fn refresh_spec() -> RetrainSpec {
    RetrainSpec {
        pipeline: refresh_pipeline(),
        variant: DatasetVariant::A1,
        predict: predict_config(),
        models: retrained_models(),
        dataset_seed: DATASET_SEED,
    }
}

/// Feature width of the `refresh_warm` model.
pub fn refresh_dim() -> usize {
    DatasetVariant::A1.dim(PipelineConfig::small().pretrained.dim)
}

/// A registry over the one retrained model, seeded with checkpoint
/// version 1 in `db` so a server has something to serve before any
/// refresh.
pub fn retrained_registry(db: &Path, dim: usize) -> Result<Registry, String> {
    let build = move || NetworkKind::Mlp1.build(dim, TRAIN_SEED);
    let mut store = Database::open(db).map_err(|e| e.to_string())?;
    save_checkpoint(&mut store, RETRAINED_MODEL, &build()).map_err(|e| e.to_string())?;
    drop(store);
    Registry::load(db, vec![ModelSpec::new(RETRAINED_MODEL, dim, build)], 2)
        .map_err(|e| e.to_string())
}

/// The retrain a refresh runs, offline: a fresh MLP fitted to the
/// dataset's likes labels under [`predict_config`], as the server's
/// retrain spec does it.
pub fn retrain(dataset: &Dataset) -> Network {
    let config = predict_config();
    let trainer = Trainer::new(TrainerConfig {
        batch_size: config.batch_size,
        max_epochs: config.max_epochs,
        early_stopping: config.early_stopping,
        seed: config.seed,
    });
    let mut network = NetworkKind::Mlp1.build(dataset.x.cols(), config.seed);
    let mut optimizer = NetworkKind::Mlp1.optimizer();
    trainer.fit(
        &mut network,
        &dataset.x,
        &dataset.y_likes,
        optimizer.as_mut(),
    );
    network
}

/// Fixed probe rows for the first prediction after a swap.
pub fn probe_rows(seed: u64, dim: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed ^ 0x7072_6f62_6500_0000);
    (0..PROBE_ROWS)
        .map(|_| (0..dim).map(|_| rng.next_f64() * 2.0 - 1.0).collect())
        .collect()
}

/// One `predict_hotskew` request: its scheduled arrival (seconds after
/// the start of the timed phase), model index, and the seed its
/// cache-busting rows are drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Scheduled send time, seconds from the start.
    pub at: f64,
    /// Index into `loadgen::fixture_models(HOT_MODELS)`.
    pub model: usize,
    /// Seed of this request's rows (see [`hot_rows`]).
    pub row_seed: u64,
}

/// The open-loop schedule of `predict_hotskew`: Poisson arrivals at
/// [`HOT_RATE`] for `seconds`, Zipf-skewed over the fixture models.
pub fn hot_schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x686f_7400_0000_0000);
    let mut cum = Vec::with_capacity(HOT_MODELS);
    let mut total = 0.0;
    for i in 0..HOT_MODELS {
        total += 1.0 / ((i + 1) as f64).powf(HOT_ZIPF);
        cum.push(total);
    }
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.next_f64().max(1e-12).ln() / HOT_RATE;
        if t >= seconds {
            return out;
        }
        let r = rng.next_f64() * total;
        let model = cum.partition_point(|&w| w < r).min(HOT_MODELS - 1);
        out.push(Arrival {
            at: t,
            model,
            row_seed: rng.next_u64(),
        });
    }
}

/// The rows of one `predict_hotskew` request: unique per request, so
/// the prediction cache never hits.
pub fn hot_rows(row_seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(row_seed);
    (0..HOT_ROWS)
        .map(|_| (0..HOT_DIM).map(|_| rng.next_f64() * 2.0 - 1.0).collect())
        .collect()
}

/// A per-process scratch directory inside the checkout's build
/// directory (the benchmark reads and writes nothing outside it).
pub fn work_dir(tag: &str) -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let root = std::env::current_dir()
        .map(|cwd| cwd.join(&root))
        .unwrap_or(root);
    let dir = root
        .join("perfbench-work")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Parses `--name value` pairs; `None` when the flag is absent.
pub fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Prints the run's final line: a JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, one metric object per
/// `(name, value, unit)`.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut m = serde_json::Map::new();
    for (name, value, unit) in metrics {
        m.insert(
            (*name).to_string(),
            serde_json::json!({"value": value, "unit": unit}),
        );
    }
    let out = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": serde_json::Value::Object(m),
    });
    println!("{out}");
}
